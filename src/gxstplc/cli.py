"""Command-line interface.

Every command prints one JSON document to stdout; diagnostics go to
stderr.  Exit codes: 0 when the command's checks all pass, 1 when a
check fails (a decode mismatch, a failed audit, or a failed proof: an
``InvariantViolation``, which prints ``error: ...`` to stderr and
nothing to stdout), 2 for unusable input (every other library error).
Rationals are serialized as exact "p/q" strings.  Output for a given
(command, inputs, seed) triple is byte-identical across runs.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import random
import sys

from . import augment, audit, capacity, demos, scheme
from .errors import GxstplcError, InvariantViolation
from .pattern import load_pattern, MessageSet, StoragePattern
from .scheme import (
    AsymmConfig,
    alignment_identity_check,
    cauchy_vandermonde_check,
    dual_grs_weights,
)


def _int_vector(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers: {exc}")


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared by every
    later one: parsing leaves it unchanged and no default is mutable."""
    parser = argparse.ArgumentParser(
        prog="gxstplc",
        description="Capacity, planning, simulation and audit for private "
        "linear computation over graph-replicated storage.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    cap = sub.add_parser("capacity", help="exact asymptotic capacity of a pattern")
    cap.add_argument("--pattern", required=True, help="pattern JSON file")
    cap.add_argument("--x", type=int, required=True, help="security threshold")
    cap.add_argument("--t", type=int, required=True, help="privacy threshold")

    plan = sub.add_parser("plan", help="virtual-server plan meeting the capacity")
    plan.add_argument("--pattern", required=True)
    plan.add_argument("--x", type=int, required=True)
    plan.add_argument("--t", type=int, required=True)

    sim = sub.add_parser("simulate", help="run one protocol round")
    sim.add_argument("--pattern", required=True)
    sim.add_argument("--x", type=int, help="symmetric threshold: capacity pipeline")
    sim.add_argument("--t", type=int)
    sim.add_argument("--x-vec", type=_int_vector, help="per-set thresholds: direct run")
    sim.add_argument("--t-vec", type=_int_vector)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--field", type=int, help="prime field override")

    aud = sub.add_parser("audit", help="security/privacy audit of the merged scheme")
    aud.add_argument("--pattern", required=True)
    aud.add_argument("--x", type=int, required=True)
    aud.add_argument("--t", type=int, required=True)
    aud.add_argument(
        "--exhaustive",
        action="store_true",
        help="enumerate all message/noise realizations (tiny systems only)",
    )

    lem = sub.add_parser("lemmas", help="randomized checks of the matrix identities")
    lem.add_argument("--seed", type=int, default=0)
    lem.add_argument("--trials", type=int, default=100)

    dem = sub.add_parser("demo", help="run a built-in demonstration")
    dem.add_argument("name", help=f"one of: {', '.join(demos.demo_names())}")
    dem.add_argument("--seed", type=int, default=0)
    return parser


def _cmd_capacity(args) -> tuple[dict, bool]:
    p = load_pattern(args.pattern)
    result = capacity.asymptotic_capacity(p, args.x, args.t)
    payload = {
        "capacity": str(result.capacity),
        "vertex": None if result.vertex is None else [str(d) for d in result.vertex],
        "L": result.l_value,
        "tau": None if result.tau is None else list(result.tau),
        "degenerate": result.degenerate,
    }
    return payload, True


def _cmd_plan(args) -> tuple[dict, bool]:
    p = load_pattern(args.pattern)
    cap = capacity.asymptotic_capacity(p, args.x, args.t)
    aug = augment.generate_augmented_system(p, args.x, args.t, cap)
    plans = augment.merged_query_plan(aug)
    payload = {
        "capacity": str(cap.capacity),
        "L": aug.l_value,
        "tau": list(aug.tau),
        "virtual_servers": aug.n_virtual,
        "sets": [
            {
                "set": m + 1,
                "gamma": aug.gamma[m],
                "x_bar": aug.x_bar[m],
                "t_bar": aug.t_bar[m],
                "virtual_group": [list(vs) for vs in aug.r_bar[m]],
            }
            for m in range(len(aug.r_bar))
        ],
        "servers": [
            {
                "server": plan.server,
                "downloads": plan.downloads,
                "virtual_ids": list(plan.virtual_ids),
                "sets_per_copy": [list(s) for s in plan.sets_per_copy],
            }
            for plan in plans
        ],
        "stored_symbols": list(scheme.stored_symbols(scheme.virtual_config(aug, p.counts))),
    }
    return payload, True


def _cmd_simulate(args) -> tuple[dict, bool]:
    p = load_pattern(args.pattern)
    direct = args.x_vec is not None or args.t_vec is not None
    if direct and (args.x is not None or args.t is not None):
        raise ValueError("give either --x and --t, or --x-vec and --t-vec, not both")
    merged = None
    if direct:
        if args.x_vec is None or args.t_vec is None:
            raise ValueError("--x-vec and --t-vec must be given together")
        run = scheme.simulate(AsymmConfig(p, args.x_vec, args.t_vec), args.seed, args.field)
    elif args.x is None or args.t is None:
        raise ValueError("give either --x and --t, or --x-vec and --t-vec")
    else:
        merged = scheme.simulate_merged(p, args.x, args.t, args.seed, args.field)
        run = merged.run
    payload = {
        "mode": "merged" if merged else "direct",
        **({"capacity": str(merged.capacity.capacity)} if merged else {}),
        "field": run.params.field.q,
        "L": run.params.l_value,
        "rate": str(run.rate),
        **({"virtual_servers": merged.augmented.n_virtual} if merged else {}),
        "answers": [e.value for e in run.transcript.answers],
        "decoded": [e.value for e in run.transcript.decoded],
        "expected": [e.value for e in run.expected],
        "match": run.match,
        "downloads": list(merged.downloads if merged else run.transcript.downloads),
        "stored_symbols": list(scheme.stored_symbols(run.config)),
    }
    return payload, run.match


def _report_payload(report: audit.AuditReport) -> dict:
    return {
        "mode": report.mode,
        "checked_subsets": report.checked_subsets,
        "passed": report.passed,
        "sampled": report.sampled,
        "violations": [
            {
                "subset": list(v.subset),
                "message_set": v.message_set,
                "detail": v.detail,
            }
            for v in report.violations
        ],
        "notes": list(report.notes),
    }


def _cmd_audit(args) -> tuple[dict, bool]:
    p = load_pattern(args.pattern)
    cap = capacity.asymptotic_capacity(p, args.x, args.t)
    aug = augment.generate_augmented_system(p, args.x, args.t, cap)
    config = scheme.virtual_config(aug)
    params = scheme.setup(config)
    report = audit.merged_scheme_audit(aug, params, args.x, args.t)
    payload = {
        "capacity": str(cap.capacity),
        "virtual_servers": aug.n_virtual,
        "certificates": _report_payload(report),
    }
    ok = report.passed
    if args.exhaustive:
        exhaustive_payloads = []
        for side, limit in (("storage", args.x), ("query", args.t)):
            for size in range(1, limit + 1):
                for originals in itertools.combinations(range(1, p.n_servers + 1), size):
                    rep = audit.exhaustive_independence_audit(
                        config, params, aug.exposed(originals), side=side
                    )
                    ok = ok and rep.passed
                    exhaustive_payloads.append(
                        {"subset": list(originals), "side": side}
                        | _report_payload(rep)
                    )
        payload["exhaustive"] = exhaustive_payloads
    return payload, ok


def _cmd_lemmas(args) -> tuple[dict, bool]:
    if args.trials < 1:
        raise ValueError(f"--trials must be at least 1, got {args.trials}")
    rng = random.Random(args.seed)
    grs_pass = 0
    cauchy_pass = 0
    alignment_pass = 0
    alignment_total = 0
    for _ in range(args.trials):
        q = rng.choice((11, 59, 101))
        n = rng.randint(2, 8)
        nodes = rng.sample(range(q), n)
        weights = dual_grs_weights(nodes, q)
        vanish = all(
            sum(w * pow(a, j, q) for w, a in zip(weights, nodes)) % q == 0
            for j in range(n - 1)
        )
        grs_pass += vanish

        l = rng.randint(1, min(n, q - n))
        points = rng.sample(range(q), n + l)
        cauchy_pass += cauchy_vandermonde_check(points[:n], points[n:], q)

        n_servers = rng.randint(2, 6)
        group_size = rng.randint(2, n_servers)
        group = tuple(sorted(rng.sample(range(1, n_servers + 1), group_size)))
        x_m = rng.randint(0, group_size - 1)
        t_m = rng.randint(0, group_size - 1 - x_m)
        config = AsymmConfig(
            StoragePattern(n_servers, (MessageSet(group, 1),)), (x_m,), (t_m,)
        )
        params = scheme.setup(config)
        for m in range(1, config.m_count + 1):
            for i in range(1, params.l_value + 1):
                for slot in range(1, params.l_value + 1):
                    alignment_total += 1
                    alignment_pass += alignment_identity_check(params, m, i, slot)

    all_passed = (
        grs_pass == args.trials
        and cauchy_pass == args.trials
        and alignment_pass == alignment_total
    )
    payload = {
        "trials": args.trials,
        "dual_grs_pass": grs_pass,
        "cauchy_vandermonde_pass": cauchy_pass,
        "alignment_checked": alignment_total,
        "alignment_pass": alignment_pass,
        "all_passed": all_passed,
    }
    return payload, all_passed


def _cmd_demo(args) -> tuple[dict, bool]:
    report = demos.run_demo(args.name, args.seed)
    return report, bool(report["decode_match"] and report["audit_pass"])


_COMMANDS = {
    "capacity": _cmd_capacity,
    "plan": _cmd_plan,
    "simulate": _cmd_simulate,
    "audit": _cmd_audit,
    "lemmas": _cmd_lemmas,
    "demo": _cmd_demo,
}


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        payload, ok = _COMMANDS[args.command](args)
    except (GxstplcError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, InvariantViolation) else 2
    print(json.dumps(payload, indent=2))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
