"""Request lists for the three benchmark workloads, generated from a seed.

Every workload is a fixed list of requests that one pass issues in
order.  A request has one of the three user-facing kinds the command
line exposes (capacity, simulate, audit) and names the entry point it
calls.  The same (workload, seed, scale) always yields the same list;
the program under test only ever sees the generated inputs.

Each list mixes three sources:

* the example patterns shipped in ``demos/patterns``, issued through
  ``gxstplc.cli.main`` exactly as a user would;
* a fixed ladder (internal seeds, identical for every ``--seed``) so that
  the largest, slowest inputs are comparable from run to run;
* seeded instances drawn from ``--seed``, many and small enough that the
  pass time barely depends on which seed was drawn.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from math import comb
from pathlib import Path

from gxstplc.pattern import MessageSet, StoragePattern
from gxstplc.scheme import AsymmConfig

#: Seed kept out of every tuning run; later speed-up claims must also hold on it.
HELD_OUT_SEED = 7919

KINDS = ("capacity", "simulate", "audit")


@dataclass(frozen=True)
class Request:
    """One call into the product.

    ``op`` selects the entry point: ``cli`` (argv for ``gxstplc.cli.main``),
    ``capacity``, ``simulate_merged``, ``simulate``, ``merged_audit``,
    ``asymm_audit`` or ``exhaustive_audit``.
    """

    rid: str
    kind: str
    op: str
    argv: tuple[str, ...] = ()
    pattern: StoragePattern | None = None
    x: int = 0
    t: int = 0
    config: AsymmConfig | None = None
    seed: int = 0
    subset: tuple[int, ...] = ()
    field: int | None = None


def _pattern_file(root: Path, name: str) -> str:
    return str(root / "demos" / "patterns" / f"{name}.json")


def _row_count(p: StoragePattern, x: int, t: int) -> int:
    """Covering rows before de-duplication: sum over m of C(rho_m, rho_m - x - t)."""
    return sum(comb(rho, rho - x - t) for rho in p.replication_factors)


def merged_pattern(rng: random.Random, n: int, m: int, size_lo: int, size_hi: int,
                   x: int, t: int, rows: tuple[int, int] | None = None) -> StoragePattern:
    """A random pattern; with ``rows`` given, redraw until the row count is inside it."""
    while True:
        sets = tuple(
            MessageSet(tuple(rng.sample(range(1, n + 1), rng.randint(size_lo, size_hi))),
                       rng.randint(1, 2))
            for _ in range(m)
        )
        p = StoragePattern(n, sets)
        if rows is None or rows[0] <= _row_count(p, x, t) <= rows[1]:
            return p


def direct_config(rng: random.Random, n: int, m: int, size: int, count: int,
                  threshold: int | None) -> AsymmConfig:
    """Random groups of one size; x_m = t_m = threshold, or each drawn from {1, 2}."""
    sets = tuple(
        MessageSet(tuple(rng.sample(range(1, n + 1), size)), count) for _ in range(m)
    )
    if threshold is None:
        x_vec = tuple(rng.randint(1, 2) for _ in range(m))
        t_vec = tuple(rng.randint(1, 2) for _ in range(m))
    else:
        x_vec = t_vec = (threshold,) * m
    return AsymmConfig(StoragePattern(n, sets), x_vec, t_vec)


def _cli(rid: str, kind: str, *argv: str) -> Request:
    return Request(rid=rid, kind=kind, op="cli", argv=argv)


def lp_ladder(seed: int, root: Path, tiny: bool = False) -> list[Request]:
    """Capacity and simulate requests on merged patterns: the exact LP dominates."""
    rng = random.Random(f"lp_ladder/{seed}")
    six = _pattern_file(root, "six_server")
    fourteen = _pattern_file(root, "fourteen_server")
    reqs = [
        _cli("cli.capacity.six", "capacity", "capacity", "--pattern", six, "--x", "1", "--t", "1"),
        _cli("cli.simulate.six", "simulate", "simulate", "--pattern", six,
             "--x", "1", "--t", "1", "--seed", str(seed)),
    ]
    if not tiny:
        reqs += [
            _cli("cli.capacity.fourteen", "capacity", "capacity", "--pattern", fourteen,
                 "--x", "1", "--t", "1"),
            _cli("cli.simulate.fourteen", "simulate", "simulate", "--pattern", fourteen,
                 "--x", "1", "--t", "1", "--seed", str(seed)),
        ]
    # fixed ladder: the same three LPs (about 60, 90 and 105 rows) for every seed
    ladder = ((8, 3, 4, (8, 12)),) if tiny else (
        (16, 6, 5, (55, 65)), (20, 7, 6, (85, 95)), (20, 8, 6, (100, 110)))
    for i, (n, m, size, rows) in enumerate(ladder):
        p = merged_pattern(random.Random(f"lp_ladder/fixed/{i}"), n, m, size - 1, size + 1,
                           1, 1, rows)
        reqs.append(Request(rid=f"ladder.capacity.{i}", kind="capacity", op="capacity",
                            pattern=p, x=1, t=1))
    # seeded instances: alternate capacity and simulate on 30-row LPs, many
    # and small, so that the pass time hardly depends on which seed was drawn
    n_seeded, shape = (2, (8, 3, 3, 4)) if tiny else (36, (10, 5, 4, 4))
    for i in range(n_seeded):
        n, m, lo, hi = shape
        p = merged_pattern(rng, n, m, lo, hi, 1, 1)
        if i % 2 == 0:
            reqs.append(Request(rid=f"seeded.capacity.{i}", kind="capacity", op="capacity",
                                pattern=p, x=1, t=1))
        else:
            reqs.append(Request(rid=f"seeded.simulate.{i}", kind="simulate",
                                op="simulate_merged", pattern=p, x=1, t=1,
                                seed=rng.randrange(2**31)))
    return reqs


def wide_protocol(seed: int, root: Path, tiny: bool = False) -> list[Request]:
    """Simulate requests on direct configs: no LP, no audit, per-symbol field work."""
    rng = random.Random(f"wide_protocol/{seed}")
    reqs = [
        _cli("cli.simulate.uneven_seven", "simulate", "simulate", "--pattern",
             _pattern_file(root, "uneven_seven"), "--x-vec", "0,0,0,0", "--t-vec", "1,2,1,2",
             "--seed", str(seed)),
        _cli("cli.simulate.uneven_nine", "simulate", "simulate", "--pattern",
             _pattern_file(root, "uneven_nine"), "--x-vec", "1,2", "--t-vec", "1,2",
             "--seed", str(seed)),
    ]
    # N=120 with groups of 72 gives L=68 at x=t=2 and the field q=191
    fixed = ((12, 2, 8, 2),) if tiny else ((120, 6, 72, 2),)
    for i, (n, m, size, thr) in enumerate(fixed):
        cfg = direct_config(random.Random(f"wide_protocol/fixed/{i}"), n, m, size, 4, thr)
        reqs.append(Request(rid=f"fixed.simulate.{i}", kind="simulate", op="simulate",
                            config=cfg, seed=rng.randrange(2**31)))
    sizes = ((10, 2, 6),) if tiny else ((60, 6, 36), (90, 6, 54))
    for i, (n, m, size) in enumerate(sizes):
        cfg = direct_config(rng, n, m, size, 4, None)
        reqs.append(Request(rid=f"seeded.simulate.{i}", kind="simulate", op="simulate",
                            config=cfg, seed=rng.randrange(2**31)))
    return reqs


def audit_sweep(seed: int, root: Path, tiny: bool = False) -> list[Request]:
    """Audit requests: rank-certificate sweeps, merged audits and exhaustive checks."""
    rng = random.Random(f"audit_sweep/{seed}")
    reqs = [
        _cli("cli.audit.six", "audit", "audit", "--pattern", _pattern_file(root, "six_server"),
             "--x", "1", "--t", "1"),
    ]
    # direct configs with x=t=2 swept by asymm_scheme_audit
    for i, (n, m, size) in enumerate(((12, 2, 7),) if tiny else ((40, 4, 24), (50, 4, 30))):
        cfg = direct_config(rng, n, m, size, 2, 2)
        reqs.append(Request(rid=f"seeded.asymm_audit.{i}", kind="audit", op="asymm_audit",
                            config=cfg))
    # merged patterns whose groups have x+t+1 = 5 members keep the LP small
    # (5 covering rows a group); many groups make each audited subset cost
    # more, so the audit outweighs the LP.  The original-subset counts
    # (2 * (N + C(N, 2))) fall on both sides of the 5000-subset cap, so both
    # the full sweep (N=60, 68) and the sampled path (N=71, 76) run
    for i, n in enumerate((8,) if tiny else (60, 68, 71, 76)):
        p = merged_pattern(rng, n, 2 if tiny else 48, 5, 5, 2, 2)
        reqs.append(Request(rid=f"seeded.merged_audit.{i}", kind="audit", op="merged_audit",
                            pattern=p, x=2, t=2))
    # exhaustive independence on every single server of a tiny system at q=5
    groups = rng.sample(list(itertools.combinations(range(1, 5), 3)), 3)
    tiny_cfg = AsymmConfig(StoragePattern(4, tuple(MessageSet(g, 1) for g in groups)),
                           (1, 1, 1), (1, 1, 1))
    for n in range(1, 5):
        reqs.append(Request(rid=f"seeded.exhaustive_audit.{n}", kind="audit",
                            op="exhaustive_audit", config=tiny_cfg, subset=(n,), field=5))
    return reqs


WORKLOADS = {
    "lp_ladder": lp_ladder,
    "wide_protocol": wide_protocol,
    "audit_sweep": audit_sweep,
}


def build(name: str, seed: int, root: Path, tiny: bool = False) -> list[Request]:
    """The request list of one workload; raises KeyError for an unknown name."""
    return WORKLOADS[name](seed, root, tiny)
