"""Security and privacy audits for configured schemes.

Two inspection depths are offered.  Rank certificates are the fast
path: a colluding subset learns nothing about set m exactly when it
holds at most x_m shares of it and the noise coefficients seen by those
servers have full row rank (and analogously for query coefficients with
t_m).  The ranks are closed-form: s <= x_m servers at points a see the
s x x_m Vandermonde block a^d, whose rank is the number of distinct
points, and their query rows at slot l are that block with each row
scaled by a - f_l, whose rank counts the distinct points other than
f_l.  So a sweep checks each group once: when its points are distinct
and (for queries) avoid every f point, every subset up to the threshold
passes, and subsets are walked only for a group that fails the check,
to name its violations.  The exhaustive audit is the slow ground truth:
it enumerates every realization of messages and noise over a tiny
field, in blocks of int64 assignments, and verifies that every
observation of the colluders occurs with every secret assignment.
"""

from __future__ import annotations

import itertools
import random
from collections.abc import Collection
from dataclasses import dataclass
from math import comb

import numpy as np

from .augment import AugmentedSystem
from .errors import DimensionMismatch, ScaleExceeded
from .ff import pivot_columns
from .scheme import AsymmConfig, SchemeParams, virtual_config

_EXHAUSTIVE_CELL_CAP = 10**7
_EXHAUSTIVE_SUBSET_CAP = 5000
_SAMPLE_SIZE = 500
_CELL_BLOCK = 1 << 12    # assignments enumerated at a time


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

    def noise(self, params: SchemeParams, points: np.ndarray, depth: int) -> np.ndarray:
        """Noise coefficients of servers at the given points, of shape
        points.shape + (slots, depth)."""
        q = params.field.q
        powers = np.ones(points.shape + (1, depth), dtype=np.int64)
        for d in range(1, depth):
            powers[..., d] = powers[..., d - 1] * points[..., None] % q
        if self.name == "storage":
            return powers
        return ((points[..., None] - params.f) % q)[..., None] * powers % q

    def ranks(self, params: SchemeParams, servers: Collection[int]) -> list[int]:
        """Per slot, the distinct points of the servers, off f_l for queries:
        the rank of their noise rows when there are at most depth servers."""
        points = {int(params.alpha[n - 1]) for n in servers}
        if self.name == "storage":
            return [len(points)]
        return [len(points - {f}) for f in params.f.tolist()]

    def clear(self, params: SchemeParams, servers: Collection[int]) -> bool:
        """True iff every subset of at most depth of the servers passes."""
        return all(rank == len(servers) for rank in self.ranks(params, servers))

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


def _verdict(config: AsymmConfig, params: SchemeParams, spec: _Side, m: int,
             hit: Collection[int]) -> str | None:
    """None if the servers hit of set m's group learn nothing about m on
    this side, else why not."""
    s, depth = len(hit), spec.threshold(config, m)
    if s > depth:
        return f"{s} colluders in the group exceed the threshold {depth}"
    for l, rank in enumerate(spec.ranks(params, hit), start=1):
        if rank != s:
            return f"{spec.name} noise covers rank {rank} of {s} {spec.shortfall.format(l=l)}"
    return None


def _check_servers(subset: tuple[int, ...], n_servers: int) -> None:
    bad = [n for n in subset if not 1 <= n <= n_servers]
    if bad:
        raise DimensionMismatch(f"no servers {bad}: server ids run from 1 to {n_servers}")


def _certificate(config: AsymmConfig, params: SchemeParams,
                 subset: tuple[int, ...], side: str) -> bool:
    _check_servers(subset, config.n_servers)
    held = set(subset)
    return all(_verdict(config, params, _SIDES[side], m, held.intersection(group)) is None
               for m, group in enumerate(params.groups, start=1))


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
    n_vars = n_secret + len(noise_index)
    cells = q ** n_vars
    if cells > max_cells:
        raise ScaleExceeded(
            f"{side} side needs {cells} joint realizations (cap {max_cells})"
        )

    # one row per observed symbol: its coefficients on the variables of
    # an assignment (secrets first, then noise)
    forms: list[np.ndarray] = []
    for n in sorted(subset):
        a_n = int(params.alpha[n - 1])
        for m in range(1, config.m_count + 1):
            if n not in config.pattern.servers_of(m):
                continue
            rows = spec.noise(params, np.array(a_n), spec.threshold(config, m))
            for l in range(1, l_value + 1):
                secret_coeff = spec.secret(params, a_n, m, l)
                noise_coeffs = rows[min(l, len(rows)) - 1]  # storage: one row for all slots
                for k in range(1, config.pattern.count_of(m) + 1):
                    form = np.zeros(n_vars, dtype=np.int64)
                    form[secret_index[(m, k, l)]] = secret_coeff
                    for d, c in enumerate(noise_coeffs, start=1):
                        form[n_secret + noise_index[(m, d, l, k)]] = c
                    forms.append(form)
    observed = _uneven_observation(np.array(forms, dtype=np.int64).reshape(-1, n_vars),
                                   n_secret, q)
    if observed is None:
        return cells, None
    return cells, f"{side}: observation {observed} misses some secrets"


def _uneven_observation(forms: np.ndarray, n_secret: int, q: int) -> tuple[int, ...] | None:
    """The first observation, in enumeration order, not seen equally often
    with every secret; None if there is none.

    Observations are linear in the assignment, so each (observation,
    secret) pair that occurs at all occurs q**(dim of the noise kernel)
    times: an observation is seen equally often with every secret iff it
    is seen with every secret, and only that is checked.  Assignments
    are numbered in itertools.product order (the last variable runs
    fastest, the secrets lead) and enumerated in blocks of _CELL_BLOCK.
    An observation is keyed by its values on a basis of the forms' rows,
    an (observation, secret) pair by the secret and the values on the
    rows that extend the secrets to a basis; the basis values fix all
    others, so every key is below q**n_vars, and independent rows take
    every value, so every key occurs.
    """
    n_vars = forms.shape[1]
    cells = q ** n_vars
    secret_states = q ** n_secret
    noise_states = cells // secret_states
    digit = q ** np.arange(n_vars - 1, -1, -1, dtype=np.int64)
    obs_rows = pivot_columns(forms.T, q)
    secrets = np.eye(n_vars, n_secret, dtype=np.int64)
    pair_rows = [r - n_secret for r in pivot_columns(np.hstack([secrets, forms.T]), q)[n_secret:]]
    obs_weight = q ** np.arange(len(obs_rows), dtype=np.int64)
    pair_weight = secret_states * q ** np.arange(len(pair_rows), dtype=np.int64)

    obs_of_pair = np.zeros(secret_states * q ** len(pair_rows), dtype=np.int64)
    first = np.full(q ** len(obs_rows), cells, dtype=np.int64)  # first assignment seen
    for start in range(0, cells, _CELL_BLOCK):
        index = np.arange(start, min(start + _CELL_BLOCK, cells), dtype=np.int64)
        observed = (index[:, None] // digit % q) @ forms.T % q
        obs_key = observed[:, obs_rows] @ obs_weight
        obs_of_pair[index // noise_states + observed[:, pair_rows] @ pair_weight] = obs_key
        np.minimum.at(first, obs_key, index)

    bad = np.flatnonzero(np.bincount(obs_of_pair, minlength=len(first)) != secret_states)
    if not bad.size:
        return None
    return tuple(int(v) for v in first[bad].min() // digit % q @ forms.T % q)


def exhaustive_independence_audit(config: AsymmConfig, params: SchemeParams,
                                  subset: tuple[int, ...], side: str = "both",
                                  max_cells: int = _EXHAUSTIVE_CELL_CAP) -> AuditReport:
    """Ground-truth independence check by full enumeration.

    Only viable for tiny configurations (small field, single-symbol
    messages); anything larger raises ScaleExceeded before enumerating.
    """
    if side not in ("storage", "query", "both"):
        raise ValueError(f"unknown side {side!r}")
    _check_servers(subset, config.n_servers)
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
    side's certificate; smaller subsets see submatrices of these.  A
    group whose points are distinct and (for queries) avoid every f
    point passes all of them at once; the subsets of any other group are
    walked to name the violations.
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
            checked += sum(comb(len(group), size) for size in range(1, depth + 1))
            if spec.clear(params, group):
                continue
            for size in range(1, depth + 1):
                for subset in itertools.combinations(group, size):
                    detail = _verdict(config, params, spec, m, subset)
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
    A side passes as a whole when, for every set m, the x (or t) largest
    copy counts among m's holders sum to at most m's inflated threshold
    and m's virtual points are clear (distinct, and off every f point
    for queries).  Only a side that fails this check walks its original
    subsets, to name the violations: every subset of up to x (or t)
    originals on small systems, a deterministic sample on larger ones.
    The report counts and flags the subsets that walk covers either way.
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

    # copies[m][o]: the virtual copies of original server o in set m's group
    copies: dict[int, dict[int, list[int]]] = {m: {} for m in range(1, config.m_count + 1)}
    for m, group in enumerate(a.r_bar, start=1):
        for vs in group:
            copies[m].setdefault(vs[0], []).append(a.flat_id(vs))

    violations: list[Violation] = []
    notes: list[str] = []
    checked = 0
    for spec, limit in zip(_SIDES.values(), (x, t)):
        if limit == 0:
            notes.append(spec.merged_note)
            continue
        checked += _SAMPLE_SIZE if sampled else sum(comb(n, size) for size in range(1, limit + 1))
        if all(sum(sorted(map(len, by_holder.values()))[-limit:]) <= spec.threshold(config, m)
               and spec.clear(params, params.group_of(m)) for m, by_holder in copies.items()):
            continue
        for originals in original_subsets(limit):
            for m, by_holder in copies.items():
                exposed = [v for o in originals for v in by_holder.get(o, ())]
                detail = _verdict(config, params, spec, m, exposed) if exposed else None
                if detail is not None:
                    violations.append(Violation(originals, m, f"{spec.name}: {detail}"))
    return _report("rank_certificate", checked, violations, sampled=sampled, notes=tuple(notes))
