"""Exact rational linear programming for covering-form programs.

The programs handled here minimize a nonnegative objective over

    A x >= 1,  0 <= x,      with A a 0/1 incidence matrix,

which is the shape download-allocation programs take.  Every vertex of
that region lies in the unit box (a coordinate above 1 appears in no
tight row, so the tight constraints cannot reach full rank), so the
solver works on the region intersected with x <= 1 without changing the
optimum.  Nothing is ever rounded: the simplex pivots an integer tableau
M over one common positive denominator D, so that the tableau is
T = M / D, and keeps basic values and results as fractions.Fraction.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable

import numpy as np

from .errors import DimensionMismatch, Infeasible, InvariantViolation, ScaleExceeded, Unbounded

RationalVector = tuple[Fraction, ...]

_ORACLE_MAX_VARS = 8
_ORACLE_MAX_ROWS = 40


def _as_fraction(v) -> Fraction:
    if isinstance(v, Fraction):
        return v
    if isinstance(v, int):
        return Fraction(v)
    raise TypeError(f"expected an exact rational, got {type(v).__name__}")


@dataclass(frozen=True)
class LinearProgram:
    """min objective . x  subject to  rows . x >= 1 (each row), x >= 0.

    Rows are 0/1 incidence tuples; every row must cover at least one
    variable, otherwise the program would be trivially infeasible.
    """

    n_vars: int
    rows: tuple[tuple[int, ...], ...]
    objective: tuple[Fraction, ...] | None = None

    def __post_init__(self):
        if self.n_vars < 1:
            raise ValueError("need at least one variable")
        rows = tuple(tuple(r) for r in self.rows)
        for r in rows:
            if len(r) != self.n_vars:
                raise ValueError(f"row {r} has wrong length")
            if any(e not in (0, 1) for e in r):
                raise ValueError(f"row {r} is not 0/1 incidence")
            if not any(r):
                raise ValueError("a row with no variables cannot reach 1")
        object.__setattr__(self, "rows", rows)
        if self.objective is None:
            object.__setattr__(
                self, "objective", tuple(Fraction(1) for _ in range(self.n_vars))
            )
        else:
            obj = tuple(_as_fraction(c) for c in self.objective)
            if len(obj) != self.n_vars:
                raise ValueError("objective length does not match n_vars")
            object.__setattr__(self, "objective", obj)


@dataclass(frozen=True)
class LpSolution:
    optimum: Fraction
    vertex: RationalVector
    basis: tuple[int, ...]
    pivots: int
    bound_flips: int


def simplex_min(lp: LinearProgram) -> LpSolution:
    """Exact primal simplex with Bland's rule over bounded variables.

    Structural variables carry bounds [0, 1]; surplus variables are
    [0, inf).  The all-ones point is feasible for every valid program,
    so the starting basis is simply "every x at its upper bound, every
    surplus basic" and no phase-1 pass is needed.  That start, the row
    order (for capacity programs, that of ``build_capacity_lp``) and
    Bland's rule fix the returned vertex: the smallest-index improving
    variable enters, the smallest-index basic variable among the tied
    ratio-test minima leaves, and the entering variable swaps bounds
    instead when its own box is the nearer limit.  Another solver must
    return the same vertex to keep ``tau`` and every transcript.

    The tableau T = B^{-1} [A | -I] is kept fraction-free: T = M / D
    with M integer and D = |det B| > 0.  A pivot on (p, e) with
    a = M[p][e] maps row i != p to (M[i] a - M[i][e] M[p]) / D, an exact
    division because every entry is a minor (Bareiss), keeps row p and
    sets D = a; a negative a negates every row and sets D = -a.  The
    reduced costs are one more such row, D C - C_B M for the objective C
    scaled to integers, so pricing is a sign test.  Basic values stay
    Fractions.
    """
    n = lp.n_vars
    rows = lp.rows
    for j, cj in enumerate(lp.objective):
        if cj < 0:
            # x_j can grow along its own axis without leaving the cone
            raise Unbounded(f"objective coefficient {j} is negative")

    r = len(rows)
    # the surplus start makes B = -I, hence M = [-A | I] over D = 1
    tableau = [[-e for e in row] + [int(k == i) for k in range(r)] for i, row in enumerate(rows)]
    denom = 1
    scale = lcm_of_denominators(lp.objective)
    reduced = [int(c * scale) for c in lp.objective] + [0] * r  # surplus costs are 0
    beta = [Fraction(sum(row) - 1) for row in rows]  # surplus at x = 1
    if any(b < 0 for b in beta):
        raise Infeasible("a constraint row rejects the all-ones point")
    basis = [n + i for i in range(r)]
    at_upper = [True] * n + [False] * r  # only structural variables (j < n) have x_j <= 1
    one = Fraction(1)
    pivots = bound_flips = 0

    while True:
        # basic columns have reduced cost 0 exactly, so only nonbasic ones qualify
        entering = next((j for j, z in enumerate(reduced) if z and (z > 0) == at_upper[j]), -1)
        if entering < 0:
            break

        increasing = not at_upper[entering]
        # per unit step of the entering variable, basic i moves by deltas[i] / D
        deltas = [-row[entering] if increasing else row[entering] for row in tableau]
        best_t, leave_pos, leave_to_upper = None, -1, False
        for i, d in enumerate(deltas):
            k = basis[i]
            if d < 0:
                t = beta[i] * denom / -d
            elif d > 0 and k < n:
                t = (one - beta[i]) * denom / d
            else:
                continue
            if best_t is None or t < best_t or (t == best_t and k < basis[leave_pos]):
                best_t, leave_pos, leave_to_upper = t, i, d > 0

        if best_t is None and entering >= n:
            raise Unbounded("no constraint limits the improving direction")
        flip = entering < n and (best_t is None or one < best_t)
        step = one if flip else best_t
        for i, d in enumerate(deltas):
            if d:
                beta[i] += d * step / denom
        if flip:
            # the entering variable swaps bounds without entering the basis
            at_upper[entering] = not at_upper[entering]
            bound_flips += 1
            continue

        at_upper[basis[leave_pos]] = leave_to_upper
        basis[leave_pos] = entering
        beta[leave_pos] = step if increasing else one - step
        prow = tableau[leave_pos]
        a = prow[entering]
        if a < 0:
            prow = tableau[leave_pos] = [-y for y in prow]
            a = -a
        for row in itertools.chain(tableau, (reduced,)):
            f = row[entering]
            if row is not prow and (f or a != denom):
                row[:] = [(x * a - f * y) // denom for x, y in zip(row, prow)]
        denom = a
        pivots += 1

    values = [one if at_upper[j] else Fraction(0) for j in range(n)]
    for i, k in enumerate(basis):
        if k < n:
            values[k] = beta[i]
    vertex = tuple(values)
    _check_feasible(vertex, rows)
    optimum = sum((c * v for c, v in zip(lp.objective, vertex)), Fraction(0))
    return LpSolution(optimum=optimum, vertex=vertex, basis=tuple(sorted(basis)),
                      pivots=pivots, bound_flips=bound_flips)


def _check_feasible(vertex: RationalVector, rows) -> None:
    if not all(0 <= v <= 1 for v in vertex):
        raise InvariantViolation(f"simplex left the unit box: {vertex}")
    if not all(sum(v for v, e in zip(vertex, row) if e) >= 1 for row in rows):
        raise InvariantViolation(f"simplex left the feasible region: {vertex}")


def lcm_of_denominators(v: Iterable[Fraction]) -> int:
    """Least common multiple of the denominators (1 for an empty vector)."""
    return lcm(*(1,) + tuple(_as_fraction(e).denominator for e in v))


def _batched_int_det(mats: np.ndarray) -> np.ndarray:
    """Exact determinants of a stack of small integer matrices.

    Fraction-free (Bareiss) elimination with row pivoting, vectorized
    across the stack.  Intermediates are minors of the inputs, so for
    0/1 matrices of size <= 8 everything stays below 2**13 and the
    int64 products below 2**26: no overflow, no rounding.
    """
    a = np.array(mats, dtype=np.int64, copy=True)
    b, k, k2 = a.shape
    if k != k2:
        raise DimensionMismatch(f"determinants need square matrices, got {k}x{k2}")
    sign = np.ones(b, dtype=np.int64)
    alive = np.ones(b, dtype=bool)
    prev = np.ones(b, dtype=np.int64)
    for col in range(k):
        nz = a[:, col:, col] != 0
        has = nz.any(axis=1)
        died = alive & ~has
        if died.any():
            a[died] = 0  # freeze dead stacks so later updates stay bounded
        alive &= has
        piv = nz.argmax(axis=1) + col
        piv[~alive] = col
        swap = np.nonzero(piv != col)[0]
        if swap.size:
            tmp = a[swap, col, :].copy()
            a[swap, col, :] = a[swap, piv[swap], :]
            a[swap, piv[swap], :] = tmp
            sign[swap] = -sign[swap]
        pivval = np.where(alive, a[:, col, col], 1)
        a[:, col, col] = pivval
        if col < k - 1:
            below = a[:, col + 1:, :]
            factor = a[:, col + 1:, col]
            upd = below * pivval[:, None, None] - factor[:, :, None] * a[:, col, None, :]
            upd //= prev[:, None, None]  # Bareiss division is exact
            a[:, col + 1:, :] = upd
        prev = pivval
    det = sign * a[:, k - 1, k - 1]
    det[~alive] = 0
    return det


def enumerate_vertices_oracle(lp: LinearProgram) -> list[RationalVector]:
    """All vertices of the feasible region intersected with the unit box.

    Brute force: every size-n subset of {rows, x_j >= 0, x_j <= 1} is
    solved as an equality system and kept when feasible.  Intended as an
    independent check on simplex_min for small programs only.
    """
    n = lp.n_vars
    if n > _ORACLE_MAX_VARS:
        raise ScaleExceeded(f"oracle limited to {_ORACLE_MAX_VARS} variables")
    if len(lp.rows) > _ORACLE_MAX_ROWS:
        raise ScaleExceeded(f"oracle limited to {_ORACLE_MAX_ROWS} rows")

    con = [list(row) + [1] for row in lp.rows]
    for j in range(n):
        lb = [0] * (n + 1)
        lb[j] = 1
        con.append(lb)  # x_j = 0 when tight
        ub = [0] * (n + 1)
        ub[j] = 1
        ub[n] = 1
        con.append(ub)  # x_j = 1 when tight
    con_arr = np.array(con, dtype=np.int64)
    c_total = len(con)
    rows_arr = np.array(lp.rows, dtype=np.int64).reshape(len(lp.rows), n)

    found: set[RationalVector] = set()
    chunk_size = 100_000
    combos = itertools.combinations(range(c_total), n)
    while True:
        chunk = list(itertools.islice(combos, chunk_size))
        if not chunk:
            break
        idx = np.array(chunk, dtype=np.int64)
        systems = con_arr[idx]            # (B, n, n+1)
        mats = systems[:, :, :n]
        rhs = systems[:, :, n]
        dets = _batched_int_det(mats)
        keep = np.nonzero(dets != 0)[0]
        if keep.size == 0:
            continue
        mats = mats[keep]
        rhs = rhs[keep]
        dets = dets[keep]
        # Cramer: numerator j is the determinant with column j replaced by rhs
        nums = np.empty((keep.size, n), dtype=np.int64)
        for j in range(n):
            repl = mats.copy()
            repl[:, :, j] = rhs
            nums[:, j] = _batched_int_det(repl)
        neg = dets < 0
        nums[neg] = -nums[neg]
        dets = np.abs(dets)
        ok = (nums >= 0).all(axis=1) & (nums <= dets[:, None]).all(axis=1)
        ok &= (nums @ rows_arr.T >= dets[:, None]).all(axis=1)
        for i in np.nonzero(ok)[0]:
            d = int(dets[i])
            found.add(tuple(Fraction(int(v), d) for v in nums[i]))
    return sorted(found)
