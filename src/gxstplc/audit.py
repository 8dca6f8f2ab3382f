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
passes.  Only a set that fails the check walks the subsets of its
holders (the servers with copies of it), to name its violations; a
collusion sees a set only through its holders, so this is exact at any
scale.  The exhaustive audit is the slow ground truth:
it reads the colluders' observations off the protocol itself, probing
encode_storage and generate_queries in one batched call each, on a
stack of the zero vector and every unit vector of the secret and noise
variables, then compares every realization of those variables over a
tiny field and verifies that the all-zero observation occurs with every
secret assignment.  The observations are linear, so then every
observation does.  The trailing variables' observations come from one
table built by addition, and the leading variables are walked in chunks
of prefixes, each cell of a chunk observing zero where its table column
cancels its prefix.
"""

from __future__ import annotations

import itertools
from collections.abc import Collection
from dataclasses import dataclass
from math import comb, prod

import numpy as np

from .augment import AugmentedSystem
from .errors import DimensionMismatch, ScaleExceeded
from .ff import _reduce
from .scheme import (
    AsymmConfig,
    CoefficientBank,
    MessageBank,
    SchemeParams,
    _shapes,
    encode_storage,
    generate_queries,
)

_EXHAUSTIVE_CELL_CAP = 10**7
# the merged audit's reported count: every original subset up to the
# cap, past it _SAMPLE_SIZE per side; the verdict covers all of them
_MERGED_FULL_WALK_CAP = 5000
_SAMPLE_SIZE = 500
_CELL_BLOCK = 1 << 12    # assignments enumerated at a time


@dataclass(frozen=True)
class Violation:
    subset: tuple[int, ...]
    message_set: int | None
    detail: str


@dataclass(frozen=True)
class AuditReport:
    """checked_subsets and sampled are the benchmark's reported count (see
    merged_scheme_audit); the verdict covers every subset at every size."""

    mode: str
    checked_subsets: int
    violations: tuple[Violation, ...]
    passed: bool
    sampled: bool = False
    notes: tuple[str, ...] = ()


def _report(mode: str, checked: int, violations: list[Violation],
            sampled: bool = False, notes: tuple[str, ...] = ()) -> AuditReport:
    return AuditReport(mode, checked, tuple(violations), not violations, sampled, notes)


@dataclass(frozen=True)
class _Side:
    """One protected side of the scheme, as the rank certificates model it.

    A server at point a adds storage noise with coefficients a^d (d < x_m);
    its query noise has coefficients (a - f_l) a^d (d < t_m) at slot l.
    The exhaustive audit assumes none of this: it probes the protocol.
    """

    name: str         # "storage" or "query", the prefix of violation details
    thresholds: str   # the AsymmConfig field holding its per-set thresholds
    avoids_f: bool    # a point on f_l zeroes its rows at slot l
    shortfall: str    # where a rank shortfall lies; {l} is the slot
    sweep_note: str   # what a zero threshold gives up, per set
    merged_note: str  # the merged audit's note for a zero threshold

    def threshold(self, config: AsymmConfig, m: int) -> int:
        return getattr(config, self.thresholds)[m - 1]

    def ranks(self, points: Collection[int], f: Collection[int]) -> list[int]:
        """Per slot, the distinct points, off f_l if the side avoids f: the
        rank of their noise rows when there are at most depth of them."""
        distinct = set(points)
        return [len(distinct - {p}) for p in f] if self.avoids_f else [len(distinct)]

    def clear(self, points: Collection[int], f: Collection[int]) -> bool:
        """True iff every subset of at most depth of the points passes: they
        are distinct and, if the side avoids f, off every f point."""
        return len(set(points).difference(f if self.avoids_f else ())) == len(points)


_SIDES = {side.name: side for side in (
    _Side("storage", "x_vec", False, "observed shares", "storage secrecy not promised (x=0)",
          "security: no colluding sets to check (x=0)"),
    _Side("query", "t_vec", True, "at slot {l}", "query privacy not promised (t=0)",
          "privacy: not applicable (t=0)"),
)}


def _verdict(spec: _Side, depth: int, points: Collection[int],
             f: Collection[int]) -> str | None:
    """None if colluders at these points of one group, threshold depth,
    learn nothing about its set on this side, else why not."""
    s = len(points)
    if s > depth:
        return f"{s} colluders in the group exceed the threshold {depth}"
    for l, rank in enumerate(spec.ranks(points, f), start=1):
        if rank != s:
            return f"{spec.name} noise covers rank {rank} of {s} {spec.shortfall.format(l=l)}"
    return None


def _walk(spec: _Side, limit: int, bar: int, holders: list[tuple[int, list[int]]],
          f: Collection[int]) -> list[tuple[tuple[int, ...], str]]:
    """(subset, why) for every subset of at most limit holders of one set
    that breaks it on this side, threshold bar; each holder comes with
    the points of its copies of the set."""
    found = []
    for size in range(1, limit + 1):
        for chosen in itertools.combinations(holders, size):
            detail = _verdict(spec, bar, [p for _, at in chosen for p in at], f)
            if detail is not None:
                found.append((tuple(n for n, _ in chosen), detail))
    return found


def _check_params(params: SchemeParams, groups: tuple[tuple[int, ...], ...],
                  l_value: int, n_servers: int) -> None:
    """Refuse params set up for another system: groups, L and N must match."""
    if (params.groups, params.l_value, len(params.alpha)) != (groups, l_value, n_servers):
        raise DimensionMismatch("params were built for a different system")


def _check_config(config: AsymmConfig, params: SchemeParams) -> None:
    groups = tuple(config.pattern.servers_of(m) for m in range(1, config.m_count + 1))
    _check_params(params, groups, config.l_effective, config.n_servers)


def _check_servers(subset: tuple[int, ...], n_servers: int) -> None:
    bad = [n for n in subset if not 1 <= n <= n_servers]
    if bad:
        raise DimensionMismatch(f"no servers {bad}: server ids run from 1 to {n_servers}")


def _certificate(config: AsymmConfig, params: SchemeParams,
                 subset: tuple[int, ...], side: str) -> bool:
    _check_config(config, params)
    _check_servers(subset, config.n_servers)
    spec, points, f, held = _SIDES[side], params.alpha.tolist(), params.f.tolist(), set(subset)
    return all(_verdict(spec, spec.threshold(config, m),
                        [points[n - 1] for n in held.intersection(group)], f) is None
               for m, group in enumerate(params.groups, start=1))


def security_rank_certificate(config: AsymmConfig, params: SchemeParams,
                              subset: tuple[int, ...]) -> bool:
    """True iff the subset is harmless for the storage of every set."""
    return _certificate(config, params, subset, "storage")


def privacy_rank_certificate(config: AsymmConfig, params: SchemeParams,
                             subset: tuple[int, ...]) -> bool:
    """True iff the subset is harmless for the coefficients of every set."""
    return _certificate(config, params, subset, "query")


def _variable_shapes(config: AsymmConfig, params: SchemeParams,
                     side: str) -> tuple[tuple[int, ...], ...]:
    """Shapes of the arrays one side is linear in: every set's secret
    bank [K_m, L], then every set's noise [depth_m, L, K_m]."""
    depths = [_SIDES[side].threshold(config, m) for m in range(1, config.m_count + 1)]
    return _shapes(config, params.l_value) + _shapes(config, params.l_value, depths)


def _probed_forms(config: AsymmConfig, params: SchemeParams,
                  subset: tuple[int, ...], side: str) -> np.ndarray:
    """The linear forms the servers of the subset observe, read off the
    protocol: one batched call of encode_storage or generate_queries runs
    the stacked probes, all-zero variables first and then each unit
    vector, and each unit run less the zero run gives one column of the
    forms (so a constant term is not read as a coefficient).

    Columns follow the C-order flattening of the _variable_shapes arrays
    (secrets (m, k, l), then noise (m, d, l, k)); rows follow the sorted
    servers, then the sets each hosts, then [l, k] of its block.
    """
    shapes = _variable_shapes(config, params, side)
    sizes = [prod(shape) for shape in shapes]
    protocol, bank = ((encode_storage, MessageBank) if side == "storage"
                      else (generate_queries, CoefficientBank))
    probes = np.eye(sum(sizes) + 1, sum(sizes), k=-1, dtype=np.int64)
    parts = [part.reshape(len(probes), *shape)
             for part, shape in zip(np.split(probes, np.cumsum(sizes)[:-1], axis=1), shapes)]
    blocks = protocol(config, params, bank(params.field, tuple(parts[:config.m_count])),
                      noise=parts[config.m_count:]).blocks
    # the zero-width first part keeps this defined when the subset holds no block
    runs = np.concatenate([probes[:, :0]] + [
        blocks[m][:, group.index(n)].reshape(len(probes), -1)
        for n in sorted(subset) for m, group in enumerate(params.groups) if n in group], axis=1)
    return _reduce((runs[1:] - runs[0]).T, params.field.q)


def _misses_secrets(forms: np.ndarray, n_secret: int, q: int) -> bool:
    """True iff some secret assignment never occurs with the all-zero
    observation.

    Observations are linear in the assignment, so the secrets seen with
    any one observation form a coset of the secrets seen with the
    all-zero observation: every observation is seen with every secret iff
    zero is, and when one observation misses a secret, all of them do.
    (Each (observation, secret) pair that occurs at all occurs equally
    often, so counts need no check.)  Assignments are numbered in
    itertools.product order (the last variable runs fastest, the secrets
    lead), and every one of them is compared.

    The k trailing variables, k the largest with q^k <= _CELL_BLOCK, are
    tabulated once: column j of a [rows, q^k] table is the observation of
    their j-th assignment, built one variable at a time by adding its
    multiples to the table so far and subtracting q where an entry
    reaches q.  The leading variables are walked in chunks of
    _CELL_BLOCK // q^k prefixes, each split into its base-q digits; a
    cell observes zero exactly when its table column equals the negated
    observation of its prefix in every row.
    """
    rows, n_vars = forms.shape
    k = 0
    while k < n_vars and q ** (k + 1) <= _CELL_BLOCK:
        k += 1
    lead = n_vars - k
    tail = np.zeros((rows, 1), dtype=np.int64)
    for col in forms[:, lead:].T:
        multiples = _reduce(np.outer(col, np.arange(q, dtype=np.int64)), q)
        tail = (tail[:, :, None] + multiples[:, None, :]).reshape(rows, tail.shape[1] * q)
        tail[tail >= q] -= q
    width, prefixes = q ** k, q ** lead
    noise_states = q ** (n_vars - n_secret)
    digit = q ** np.arange(lead - 1, -1, -1, dtype=np.int64)
    seen = np.zeros(q ** n_secret, dtype=bool)
    chunk = _CELL_BLOCK // width
    for h0 in range(0, prefixes, chunk):
        prefix = np.arange(h0, min(h0 + chunk, prefixes), dtype=np.int64)
        need = _reduce(-(forms[:, :lead] @ _reduce(prefix // digit[:, None], q)), q)
        zero = np.logical_and.reduce(tail[:, None, :] == need[:, :, None], axis=0)
        seen[(np.flatnonzero(zero) + h0 * width) // noise_states] = True
    return not seen.all()


def exhaustive_independence_audit(config: AsymmConfig, params: SchemeParams,
                                  subset: tuple[int, ...], side: str = "both") -> AuditReport:
    """Ground-truth independence check by full enumeration.

    Only viable for tiny configurations (small field, single-symbol
    messages); anything larger raises ScaleExceeded before enumerating.
    """
    if side not in ("storage", "query", "both"):
        raise ValueError(f"unknown side {side!r}")
    _check_config(config, params)
    _check_servers(subset, config.n_servers)
    subset = tuple(sorted(set(subset)))
    violations: list[Violation] = []
    notes: list[str] = []
    sides = ("storage", "query") if side == "both" else (side,)
    for s in sides:
        sizes = [prod(shape) for shape in _variable_shapes(config, params, s)]
        cells = params.field.q ** sum(sizes)
        if cells > _EXHAUSTIVE_CELL_CAP:
            raise ScaleExceeded(
                f"{s} side needs {cells} joint realizations (cap {_EXHAUSTIVE_CELL_CAP})"
            )
        notes.append(f"{s}: enumerated {cells} joint realizations")
        forms = _probed_forms(config, params, subset, s)
        if _misses_secrets(forms, sum(sizes[:config.m_count]), params.field.q):
            detail = f"{s}: observation {(0,) * len(forms)} misses some secrets"
            violations.append(Violation(subset=subset, message_set=None, detail=detail))
    return _report("exhaustive", 1, violations, notes=tuple(notes))


def asymm_scheme_audit(config: AsymmConfig, params: SchemeParams) -> AuditReport:
    """Worst-case certificate sweep for an uneven-threshold scheme.

    For every set m and each side, every subset of its own replication
    group up to the side's threshold (x_m or t_m) is checked against that
    side's certificate; smaller subsets see submatrices of these.  A
    group whose points are distinct and (for queries) avoid every f
    point passes all of them at once; the subsets of any other group are
    walked to name the violations.  checked_subsets counts every subset
    of every group up to its thresholds.
    """
    _check_config(config, params)
    points, f = params.alpha.tolist(), params.f.tolist()
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
            if spec.clear([points[n - 1] for n in group], f):
                continue
            violations += [Violation(subset, m, f"{spec.name}: {why}") for subset, why
                           in _walk(spec, depth, depth, [(n, [points[n - 1]]) for n in group], f)]
    return _report("rank_certificate", checked, violations, notes=tuple(notes))


def merged_scheme_audit(a: AugmentedSystem, params: SchemeParams,
                        x: int, t: int) -> AuditReport:
    """Audit a merged system against collusion among original servers.

    A colluding original server exposes all of its virtual copies, so
    each subset of originals maps to a virtual subset whose per-set
    exposure must stay within the inflated thresholds x*gamma_m and
    t*gamma_m; the rank certificates then run on the virtual scheme.
    Set m passes a side when the x (or t) largest copy counts among its
    holders sum to at most its inflated threshold and its virtual points
    are clear (distinct, and off every f point for queries).  Only a set
    that fails this check walks the subsets of up to x (or t) of its
    holders, to name the violations, sorted per side by subset size,
    subset and set.  Colluders see m only through the holders among
    them, so the verdict is exact at every N.  checked_subsets counts
    the original subsets up to x and t, or _SAMPLE_SIZE per side past
    _MERGED_FULL_WALK_CAP of them, with sampled set: the benchmark's
    reported count, not a walk.  x and t must be the thresholds the
    system was built for; the inflated thresholds are read off the system.
    """
    if (x, t) != (a.x, a.t):
        raise DimensionMismatch(f"system built for x={a.x}, t={a.t}, audited at x={x}, t={t}")
    _check_params(params, a.flat_groups, a.l_value, a.n_virtual)

    subsets = [sum(comb(a.n_original, size) for size in range(1, limit + 1)) for limit in (x, t)]
    sampled = sum(subsets) > _MERGED_FULL_WALK_CAP
    points, f = params.alpha.tolist(), params.f.tolist()
    # each set's copy counts, largest first, and virtual points, shared by both sides
    counts = [sorted((d for _, d in slots), reverse=True) for slots in a.delta]
    group_points = [[points[v - 1] for v in group] for group in params.groups]
    violations: list[Violation] = []
    notes: list[str] = []
    checked = 0
    for spec, limit, bars, size in zip(_SIDES.values(), (x, t), (a.x_bar, a.t_bar), subsets):
        if limit == 0:
            notes.append(spec.merged_note)
            continue
        checked += _SAMPLE_SIZE if sampled else size
        found: list[Violation] = []
        for m, (largest, bar, at, slots) in enumerate(
                zip(counts, bars, group_points, a.delta), start=1):
            if sum(largest[:limit]) <= bar and spec.clear(at, f):
                continue
            # each holder's copies sit next to each other in the set's group
            ends = itertools.accumulate(d for _, d in slots)
            holders = [(n, at[end - d:end]) for (n, d), end in zip(slots, ends) if d]
            found += [Violation(subset, m, f"{spec.name}: {why}")
                      for subset, why in _walk(spec, limit, bar, holders, f)]
        violations += sorted(found, key=lambda v: (len(v.subset), v.subset, v.message_set))
    return _report("rank_certificate", checked, violations, sampled=sampled, notes=tuple(notes))
