"""Asymptotic capacity of private linear computation over a storage pattern.

With x colluding-server security and t query-privacy thresholds, the
long-message capacity is the reciprocal of the optimal value of a small
covering program: minimize the total normalized download sum(D_n) such
that every size-(|R_m| - x - t) subset of each replication group R_m
already carries one unit of download.  If some group has |R_m| <= x + t
the capacity is zero and no scheme exists.

The optimal vertex is rational; clearing its denominators yields integer
download counts tau_n that drive the virtual-server construction in
:mod:`gxstplc.augment`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import DegeneratePattern, InvariantViolation
from .exactlp import LinearProgram, LpSolution, RationalVector, lcm_of_denominators, simplex_min
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


def build_capacity_lp(p: StoragePattern, x: int, t: int) -> LinearProgram:
    """Covering program whose optimum is the reciprocal capacity.

    One row per (message set m, subset of R_m of size |R_m| - x - t),
    with duplicate rows removed (first occurrence kept).  Raises
    DegeneratePattern when some group is too small to leave any subset.
    """
    if x < 0 or t < 0:
        raise ValueError("thresholds must be nonnegative")
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


def asymptotic_capacity(p: StoragePattern, x: int, t: int) -> CapacityResult:
    """Exact asymptotic capacity plus the integer download profile tau.

    tau_n = L * D_n with L the lcm of the optimal vertex denominators,
    so L / sum(tau) reproduces the capacity exactly, and L and tau share
    no common factor.
    """
    if x < 0 or t < 0:
        raise ValueError("thresholds must be nonnegative")
    if min_replication_slack(p, x, t) <= 0:
        return CapacityResult(
            capacity=Fraction(0), degenerate=True, vertex=None, l_value=None, tau=None
        )
    lp = build_capacity_lp(p, x, t)
    sol: LpSolution = simplex_min(lp)
    vertex = sol.vertex
    if not all(0 <= d <= 1 for d in vertex):
        raise InvariantViolation(f"optimal vertex leaves the unit box: {vertex}")
    l_value = lcm_of_denominators(vertex)
    scaled = [d * l_value for d in vertex]
    if any(s.denominator != 1 for s in scaled):
        raise InvariantViolation(f"L = {l_value} leaves a fractional download in {vertex}")
    tau = [int(s) for s in scaled]
    if math.gcd(l_value, *tau) != 1:
        raise InvariantViolation(f"L = {l_value} and tau {tau} are not in lowest terms")
    capacity = Fraction(1) / sol.optimum
    if capacity != Fraction(l_value, sum(tau)):
        raise InvariantViolation(f"capacity {capacity} is not L/sum(tau) = {l_value}/{sum(tau)}")
    return CapacityResult(
        capacity=capacity,
        degenerate=False,
        vertex=vertex,
        l_value=l_value,
        tau=tuple(tau),
    )
