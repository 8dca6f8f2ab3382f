"""Security and privacy audits for configured schemes.

Two inspection depths are offered.  Rank certificates are the fast
path: a colluding subset learns nothing about set m exactly when it
holds at most x_m shares of it and the noise coefficients seen by those
servers have full row rank (and analogously for query coefficients with
t_m).  The exhaustive audit is the slow ground truth: it enumerates
every realization of messages and noise over a tiny field and verifies
that the joint count table of (observed symbols, secrets) factorizes
exactly, i.e. each observation is seen equally often with every secret.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from math import comb

from .augment import AugmentedSystem
from .errors import DimensionMismatch, ScaleExceeded
from .ff import rank_mod
from .scheme import AsymmConfig, SchemeParams, virtual_config

_EXHAUSTIVE_CELL_CAP = 10**7
_EXHAUSTIVE_SUBSET_CAP = 5000
_SAMPLE_SIZE = 500


@dataclass(frozen=True)
class Violation:
    subset: tuple[int, ...]
    message_set: int | None
    detail: str


@dataclass(frozen=True)
class AuditReport:
    mode: str
    checked_subsets: int
    violations: tuple[Violation, ...]
    passed: bool
    sampled: bool = False
    notes: tuple[str, ...] = ()


def _report(mode: str, checked: int, violations: list[Violation],
            sampled: bool = False, notes: tuple[str, ...] = ()) -> AuditReport:
    return AuditReport(
        mode=mode,
        checked_subsets=checked,
        violations=tuple(violations),
        passed=not violations,
        sampled=sampled,
        notes=notes,
    )


@dataclass(frozen=True)
class _Side:
    """One protected side of the scheme, described once for every audit.

    A server at point a adds storage noise with coefficients a^d (d < x_m)
    and carries secret symbol l as 1/(a - f_l); its query noise has
    coefficients (a - f_l) a^d (d < t_m) at slot l, its secret u_{m,l}.
    """

    name: str         # "storage" or "query", the prefix of violation details
    shortfall: str    # where a rank shortfall lies; {l} is the slot
    sweep_note: str   # what a zero threshold gives up, per set
    merged_note: str  # the merged audit's note for a zero threshold

    def threshold(self, config: AsymmConfig, m: int) -> int:
        return (config.x_vec if self.name == "storage" else config.t_vec)[m - 1]

    def noise_rows(self, params: SchemeParams, a: int, depth: int) -> list[list[int]]:
        """One row for storage (every slot alike), one per slot for queries."""
        q = params.field.q
        powers = [pow(a, d, q) for d in range(depth)]
        if self.name == "storage":
            return [powers]
        return [[(a - f_l) * p % q for p in powers] for f_l in params.f.tolist()]

    def secret(self, params: SchemeParams, a: int, m: int, l: int) -> int:
        q = params.field.q
        if self.name == "storage":
            return pow(a - int(params.f[l - 1]), q - 2, q)
        return int(params.u[m - 1, l - 1])


_SIDES = {side.name: side for side in (
    _Side("storage", "observed shares", "storage secrecy not promised (x=0)",
          "security: no colluding sets to check (x=0)"),
    _Side("query", "at slot {l}", "query privacy not promised (t=0)",
          "privacy: not applicable (t=0)"),
)}


def _violation(config: AsymmConfig, params: SchemeParams,
               subset: tuple[int, ...], m: int, side: str) -> str | None:
    """None if the subset learns nothing about set m on the given side."""
    hit = sorted(set(subset) & set(params.group_of(m)))
    s = len(hit)
    if s == 0:
        return None
    spec = _SIDES[side]
    depth = spec.threshold(config, m)
    if s > depth:
        return f"{s} colluders in the group exceed the threshold {depth}"
    q = params.field.q
    per_server = [spec.noise_rows(params, int(params.alpha[n - 1]), depth) for n in hit]
    for l, rows in enumerate(zip(*per_server), start=1):
        rank = rank_mod(list(rows), q)
        if rank != s:
            return f"{side} noise covers rank {rank} of {s} {spec.shortfall.format(l=l)}"
    return None


def _certificate(config: AsymmConfig, params: SchemeParams,
                 subset: tuple[int, ...], side: str) -> bool:
    return all(
        _violation(config, params, tuple(subset), m, side) is None
        for m in range(1, config.m_count + 1)
    )


def security_rank_certificate(config: AsymmConfig, params: SchemeParams,
                              subset: tuple[int, ...]) -> bool:
    """True iff the subset is harmless for the storage of every set."""
    return _certificate(config, params, subset, "storage")


def privacy_rank_certificate(config: AsymmConfig, params: SchemeParams,
                             subset: tuple[int, ...]) -> bool:
    """True iff the subset is harmless for the coefficients of every set."""
    return _certificate(config, params, subset, "query")


def _independence_side(config: AsymmConfig, params: SchemeParams,
                       subset: tuple[int, ...], side: str,
                       max_cells: int) -> tuple[int, str | None]:
    """Enumerate one side exhaustively; returns (cells, failure detail).

    Observed symbols are linear forms in (secrets, noise); the audit
    counts every joint realization and demands that each observation
    tuple appear the same number of times for every secret assignment,
    with nothing assumed about how the forms were built.
    """
    q = params.field.q
    l_value = params.l_value
    spec = _SIDES[side]

    secret_index: dict[tuple[int, int, int], int] = {}
    for m in range(1, config.m_count + 1):
        for k in range(1, config.pattern.count_of(m) + 1):
            for l in range(1, l_value + 1):
                secret_index[(m, k, l)] = len(secret_index)
    noise_index: dict[tuple[int, int, int, int], int] = {}
    for m in range(1, config.m_count + 1):
        for d in range(1, spec.threshold(config, m) + 1):
            for l in range(1, l_value + 1):
                for k in range(1, config.pattern.count_of(m) + 1):
                    noise_index[(m, d, l, k)] = len(noise_index)

    n_secret = len(secret_index)
    n_noise = len(noise_index)
    cells = q ** (n_secret + n_noise)
    if cells > max_cells:
        raise ScaleExceeded(
            f"{side} side needs {cells} joint realizations (cap {max_cells})"
        )

    # observed symbol = sum of coeff * variable, variables indexed into
    # the flat assignment (secrets first, then noise)
    forms: list[list[tuple[int, int]]] = []
    for n in sorted(subset):
        a_n = int(params.alpha[n - 1])
        for m in range(1, config.m_count + 1):
            if n not in config.pattern.servers_of(m):
                continue
            rows = spec.noise_rows(params, a_n, spec.threshold(config, m))
            for l in range(1, l_value + 1):
                secret_coeff = spec.secret(params, a_n, m, l)
                noise_coeffs = rows[min(l, len(rows)) - 1]  # storage: one row for all slots
                for k in range(1, config.pattern.count_of(m) + 1):
                    term = [(secret_index[(m, k, l)], secret_coeff)]
                    for d, c in enumerate(noise_coeffs, start=1):
                        term.append((n_secret + noise_index[(m, d, l, k)], c))
                    forms.append(term)

    counts: dict[tuple[int, ...], dict[tuple[int, ...], int]] = {}
    for assignment in itertools.product(range(q), repeat=n_secret + n_noise):
        observed = tuple(
            sum(c * assignment[idx] for idx, c in term) % q for term in forms
        )
        secrets = assignment[:n_secret]
        counts.setdefault(observed, {})
        counts[observed][secrets] = counts[observed].get(secrets, 0) + 1

    n_secret_states = q ** n_secret
    for observed, per_secret in counts.items():
        if len(per_secret) != n_secret_states:
            return cells, f"{side}: observation {observed} misses some secrets"
        reference = next(iter(per_secret.values()))
        if any(c != reference for c in per_secret.values()):
            return cells, f"{side}: observation {observed} has uneven counts"
    return cells, None


def exhaustive_independence_audit(config: AsymmConfig, params: SchemeParams,
                                  subset: tuple[int, ...], side: str = "both",
                                  max_cells: int = _EXHAUSTIVE_CELL_CAP) -> AuditReport:
    """Ground-truth independence check by full enumeration.

    Only viable for tiny configurations (small field, single-symbol
    messages); anything larger raises ScaleExceeded before enumerating.
    """
    if side not in ("storage", "query", "both"):
        raise ValueError(f"unknown side {side!r}")
    subset = tuple(sorted(set(subset)))
    violations: list[Violation] = []
    notes: list[str] = []
    sides = ("storage", "query") if side == "both" else (side,)
    for s in sides:
        cells, detail = _independence_side(config, params, subset, s, max_cells)
        notes.append(f"{s}: enumerated {cells} joint realizations")
        if detail is not None:
            violations.append(Violation(subset=subset, message_set=None, detail=detail))
    return _report("exhaustive", 1, violations, notes=tuple(notes))


def asymm_scheme_audit(config: AsymmConfig, params: SchemeParams) -> AuditReport:
    """Worst-case certificate sweep for an uneven-threshold scheme.

    For every set m and each side, every subset of its own replication
    group up to the side's threshold (x_m or t_m) is checked against that
    side's certificate; smaller subsets see submatrices of these.
    """
    violations: list[Violation] = []
    notes: list[str] = []
    checked = 0
    for m in range(1, config.m_count + 1):
        group = params.group_of(m)
        for spec in _SIDES.values():
            depth = spec.threshold(config, m)
            if depth == 0:
                notes.append(f"set {m}: {spec.sweep_note}")
            for size in range(1, depth + 1):
                for subset in itertools.combinations(group, size):
                    checked += 1
                    detail = _violation(config, params, subset, m, spec.name)
                    if detail is not None:
                        violations.append(Violation(subset, m, f"{spec.name}: {detail}"))
    return _report("rank_certificate", checked, violations, notes=tuple(notes))


def merged_scheme_audit(a: AugmentedSystem, params: SchemeParams,
                        x: int, t: int) -> AuditReport:
    """Audit a merged system against collusion among original servers.

    A colluding original server exposes all of its virtual copies, so
    each subset of originals maps to a virtual subset whose per-set
    exposure must stay within the inflated thresholds x*gamma_m and
    t*gamma_m; the rank certificates then run on the virtual scheme, for
    the sets holding at least one exposed copy (the others see nothing).
    Small systems are swept exhaustively; larger ones fall back to a
    deterministic sample and say so.
    """
    config = virtual_config(a)
    if params.groups != tuple(config.pattern.servers_of(m + 1)
                              for m in range(config.m_count)):
        raise DimensionMismatch("params were built for a different system")

    n = a.n_original
    total = sum(comb(n, size) for size in range(1, x + 1))
    total += sum(comb(n, size) for size in range(1, t + 1))
    sampled = total > _EXHAUSTIVE_SUBSET_CAP

    def original_subsets(limit: int):
        if not sampled:
            for size in range(1, limit + 1):
                yield from itertools.combinations(range(1, n + 1), size)
            return
        rng = random.Random(0xA0D17)
        for _ in range(_SAMPLE_SIZE):
            size = rng.randint(1, limit)
            yield tuple(sorted(rng.sample(range(1, n + 1), size)))

    # touched[o]: the sets holding at least one virtual copy of server o
    touched = [{m for m, slots in enumerate(a.delta, start=1) if dict(slots).get(o)}
               for o in range(n + 1)]

    violations: list[Violation] = []
    notes: list[str] = []
    checked = 0
    for spec, limit in zip(_SIDES.values(), (x, t)):
        if limit == 0:
            notes.append(spec.merged_note)
            continue
        for originals in original_subsets(limit):
            checked += 1
            virtual_subset = a.exposed(originals)
            for m in sorted(set().union(*(touched[o] for o in originals))):
                detail = _violation(config, params, virtual_subset, m, spec.name)
                if detail is not None:
                    violations.append(Violation(originals, m, f"{spec.name}: {detail}"))
    return _report(
        "rank_certificate", checked, violations, sampled=sampled, notes=tuple(notes)
    )
