"""Asymptotic capacity of private linear computation over a storage pattern.

With x colluding-server security and t query-privacy thresholds, the
long-message capacity is the reciprocal of the optimal value of a small
covering program: minimize the total normalized download sum(D_n) such
that every size-(|R_m| - x - t) subset of each replication group R_m
already carries one unit of download.  If some group has |R_m| <= x + t
the capacity is zero and no scheme exists.

A forced program needs no simplex.  When the groups with
|R_m| - x - t = 1 (singleton rows) meet every row of the program, the
optimum is the indicator of their union, and :func:`asymptotic_capacity`
returns it before any row is built.  Every other program is built in
full and solved by :func:`gxstplc.exactlp.simplex_min`.

The optimal vertex is rational; clearing its denominators yields integer
download counts tau_n that drive the virtual-server construction in
:mod:`gxstplc.augment`, and the capacity is L / sum(tau).
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction

from .errors import DegeneratePattern, InvariantViolation
from .exactlp import LinearProgram, RationalVector, lcm_of_denominators, simplex_min
from .pattern import StoragePattern, min_replication_slack


@dataclass(frozen=True)
class CapacityResult:
    capacity: Fraction
    degenerate: bool
    vertex: RationalVector | None
    l_value: int | None
    tau: tuple[int, ...] | None

    @property
    def total_downloads(self) -> int | None:
        return None if self.tau is None else sum(self.tau)


def _thresholds(x: int, t: int) -> tuple[int, int]:
    """x and t as ints (a float raises TypeError), both nonnegative."""
    x, t = operator.index(x), operator.index(t)
    if x < 0 or t < 0:
        raise ValueError("thresholds must be nonnegative")
    return x, t


def build_capacity_lp(p: StoragePattern, x: int, t: int) -> LinearProgram:
    """Covering program whose optimum is the reciprocal capacity.

    One row per (message set m, subset of R_m of size |R_m| - x - t),
    with duplicate rows removed (first occurrence kept).  Raises
    DegeneratePattern when some group is too small to leave any subset.
    """
    x, t = _thresholds(x, t)
    rows: dict[tuple[int, ...], None] = {}
    for m in range(1, p.m_count + 1):
        group = p.servers_of(m)
        size = len(group) - x - t
        if size <= 0:
            raise DegeneratePattern(
                f"message set {m} has {len(group)} replicas, needs more than {x + t}"
            )
        for subset in itertools.combinations(group, size):
            row = [0] * p.n_servers
            for n in subset:
                row[n - 1] = 1
            rows[tuple(row)] = None
    return LinearProgram(n_vars=p.n_servers, rows=tuple(rows))


_ZERO, _ONE = Fraction(0), Fraction(1)


def _forced_vertex(p: StoragePattern, x: int, t: int) -> RationalVector | None:
    """The indicator of F when every covering row meets F, else None.

    F is the union of the groups R_m with |R_m| - x - t = 1, whose rows
    are the singletons {n}.  A row of set m misses F iff it fits in the
    servers of R_m outside F, so every row meets F iff each set has
    fewer than |R_m| - x - t servers outside F.
    """
    groups = [ms.servers for ms in p.message_sets]
    forced = {n for g in groups if len(g) - x - t == 1 for n in g}
    for g in groups:
        if sum(n not in forced for n in g) >= len(g) - x - t:
            return None
    return tuple(_ONE if n in forced else _ZERO for n in range(1, p.n_servers + 1))


def _covers_every_set(p: StoragePattern, x: int, t: int, tau: list[int], l_value: int) -> bool:
    """Sort-based feasibility oracle on tau = L * D: every set's
    |R_m| - x - t smallest downloads over R_m sum to at least L."""
    return all(sum(sorted(tau[n - 1] for n in g)[:len(g) - x - t]) >= l_value
               for g in (ms.servers for ms in p.message_sets))


def asymptotic_capacity(p: StoragePattern, x: int, t: int) -> CapacityResult:
    """Exact asymptotic capacity plus the integer download profile tau.

    tau_n = L * D_n with L the lcm of the optimal vertex denominators,
    so L / sum(tau) reproduces the capacity exactly, and L and tau share
    no common factor.

    Forced programs skip the simplex.  Let F be the union of the groups
    with |R_m| - x - t = 1 (non-empty iff the smallest slack is 1).  If
    every row meets F, the vertex is 1_F with optimum |F|: the singleton
    rows force D_n = 1 on F for every feasible point, and 1_F is
    feasible, so it is the unique optimum and the vertex the simplex
    would return.  The dual y = 1 on the singleton rows has
    sum(y) = |F|, which proves optimality.  The box, lowest-terms and
    covering checks (forced) or optimum == sum(tau) / L (solved) run on
    the ints L and tau.
    """
    x, t = _thresholds(x, t)
    slack = min_replication_slack(p, x, t)
    if slack <= 0:
        return CapacityResult(
            capacity=Fraction(0), degenerate=True, vertex=None, l_value=None, tau=None
        )
    vertex = _forced_vertex(p, x, t) if slack == 1 else None
    sol = simplex_min(build_capacity_lp(p, x, t)) if vertex is None else None
    vertex = vertex if sol is None else sol.vertex
    l_value = lcm_of_denominators(vertex)
    if any(l_value % d.denominator for d in vertex):
        raise InvariantViolation(f"L = {l_value} leaves a fractional download in {vertex}")
    tau = [d.numerator * (l_value // d.denominator) for d in vertex]
    if not all(0 <= s <= l_value for s in tau):
        raise InvariantViolation(f"optimal vertex leaves the unit box: {vertex}")
    if math.gcd(l_value, *tau) != 1:
        raise InvariantViolation(f"L = {l_value} and tau {tau} are not in lowest terms")
    if sol is None and not _covers_every_set(p, x, t, tau, l_value):
        raise InvariantViolation(f"forced vertex misses a covering row: {vertex}")
    if sol is not None and sol.optimum != Fraction(sum(tau), l_value):
        raise InvariantViolation(f"optimum {sol.optimum} is not sum(tau)/L = {sum(tau)}/{l_value}")
    return CapacityResult(
        capacity=Fraction(l_value, sum(tau)),
        degenerate=False,
        vertex=vertex,
        l_value=l_value,
        tau=tuple(tau),
    )
