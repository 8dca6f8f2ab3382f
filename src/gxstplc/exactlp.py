"""Exact rational linear programming for covering-form programs.

The programs handled here minimize sum(x) over

    A x >= 1,  0 <= x,      with A a 0/1 incidence matrix,

which is the shape download-allocation programs take.  Every vertex of
that region lies in the unit box (a coordinate above 1 appears in no
tight row, so the tight constraints cannot reach full rank), so the
solver works on the region intersected with x <= 1 without changing the
optimum.  Nothing is ever rounded: the simplex pivots an int64 tableau M
over one common positive denominator D (the tableau is T = M / D) and
keeps the basic values as integer numerators over D; only the final
vertex becomes fractions.Fraction.  The tableau is condensed: the basic
columns of M are D times unit vectors, so one (n+1, r+1) array holds
the n nonbasic columns, one slot each with its reduced cost, and the
basic numerators as slot n; the leaving variable takes the entering
one's slot, and the basis and bookkeeping are Python lists.  While D
and every entry are below 2**31, every product is below 2**62 and
every difference of two below 2**63, so int64 cannot overflow; past
that bound the array holds Python ints.
The solver keeps running upper bounds on the entries and measures them
only when a bound reaches 2**31, so the switch happens at the first
pivot whose entries reach it, as if every pivot measured them.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable

import numpy as np

from .errors import DimensionMismatch, InvariantViolation, ScaleExceeded

RationalVector = tuple[Fraction, ...]

_ORACLE_MAX_VARS = 8
_ORACLE_MAX_ROWS = 40
_INT64_LIMIT = 2**31  # entries below it keep every Bareiss product within int64


def _as_fraction(v) -> Fraction:
    if isinstance(v, Fraction):
        return v
    if isinstance(v, int):
        return Fraction(v)
    raise TypeError(f"expected an exact rational, got {type(v).__name__}")


@dataclass(frozen=True)
class LinearProgram:
    """min sum(x)  subject to  rows . x >= 1 (each row), x >= 0.

    Rows are 0/1 incidence tuples; every row must cover at least one
    variable, otherwise the program would be trivially infeasible.  The
    validated rows are kept as a read-only int64 array, ``incidence``
    (an attribute, not a field), which ``simplex_min`` reads.
    """

    n_vars: int
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.n_vars < 1:
            raise ValueError("need at least one variable")
        rows = tuple(tuple(r) for r in self.rows)
        for r in rows:
            if len(r) != self.n_vars:
                raise ValueError(f"row {r} has wrong length")
        table = np.array(rows).reshape(len(rows), self.n_vars)
        if rows and table.dtype.kind not in "biu":
            raise ValueError(f"row entries must be integers, not {table.dtype}")
        outside = ((table != 0) & (table != 1)).any(axis=1)
        if outside.any():
            raise ValueError(f"row {rows[int(np.argmax(outside))]} is not 0/1 incidence")
        if not table.any(axis=1).all():
            raise ValueError("a row with no variables cannot reach 1")
        object.__setattr__(self, "rows", rows)
        table = table.astype(np.int64, copy=False)
        table.flags.writeable = False
        object.__setattr__(self, "incidence", table)


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

    The tableau T = B^{-1} [A | -I] is M / D with D = |det B|, and the
    reduced costs D 1 - C_B M (unit costs on x, none on the surplus)
    extend M by a last row, so pricing is a sign test.  The r basic
    columns of M are D e_i with reduced cost 0, so only the n nonbasic
    ones are stored, condensed as in Avis's lrs: slot j < n of the
    (n+1, r+1) array ``tableau`` is the column of variable
    ``nonbasic[j]``, its reduced cost last, and slot n holds the basic
    numerators num = D x_B (integral by Cramer's rule) over a cost
    entry of 0; ``basis``, ``nonbasic`` and the bound signs are Python
    lists.  A pivot on (p, e), a = |M[p, e]| with sign sgn, keeps the
    sign-corrected pivot row sgn M[p] and maps every other entry to
    (M[i, j] a - M[i, e] sgn M[p, j]) // D, exact because every entry
    is a minor (Bareiss); when a == D only the slots with M[p, j] != 0
    change.  Slot n takes part with pivot-row entry -s P, for the
    winning ratio P / a and the entering bound sign s, so num becomes
    (num a + s P c) // D, c the entering column; its row p then takes
    the entering value, and a bound flip adds s c to num.  The leaving
    variable takes the entering slot, with column -sgn c and sgn D in
    row p.  Ratios compare by cross-multiplying.  Before each pivot, an
    entry of M (D included) or num at 2**31 or above turns the tableau
    into Python ints (dtype object) for the rest of the solve, with the
    same statements.  The guard reads running upper bounds, not the
    array: a pivot raises the bound on max |M| to bound (a + f) // D,
    f the largest |entry| of c, and the bound on max |num| to
    (bound a + f P) // D (a flip adds f to it).  Only a bound at the
    limit measures the entries; they promote if one is at the limit and
    otherwise become the new bounds, so the promotion comes at the same
    pivot as with a full scan of the whole tableau before every pivot.
    """
    n, r = lp.n_vars, len(lp.rows)
    rows = lp.incidence
    # the surplus start makes B = -I, so the x columns are -A over D = 1, with cost 1;
    # slot n holds the surplus at x = 1 (nonnegative since every row covers), cost 0
    tableau = np.ones((n + 1, r + 1), dtype=np.int64)
    tableau[:n, :r] = -rows.T
    tableau[n] = np.append(rows.sum(axis=1), 1) - 1
    # per slot, +1 at the upper bound (only structural j < n have one), else -1; every x starts so
    nonbasic, basis, slot_sign = list(range(n)), list(range(n, n + r)), [1] * n
    # upper bounds on max |M| and max |num|, kept up to date by each pivot and flip
    bound, num_bound = 1, int(tableau[n].max())
    denom, pivots, bound_flips = 1, 0, 0

    while True:
        # Bland's rule: the improving slot whose variable has the smallest index
        costs = zip(nonbasic, tableau[:, r].tolist(), slot_sign)
        entering = min((v for v, c, sg in costs if c * sg > 0), default=n + r)
        if entering == n + r:
            break

        # per unit step of the entering variable, basic i moves by s * M[i, e] / D
        slot = nonbasic.index(entering)
        s = slot_sign[slot]
        col = tableau[slot].tolist()
        fmax = max(max(col), -min(col))
        # ratio test on Python ints: basic i reaches 0 (or 1) after a step of t / q
        leave_pos, best_t, best_q, best_k = -1, 1, 0, n + r
        nums = tableau[n].tolist()
        # only the rows whose entering entry is nonzero move
        for i in itertools.compress(range(r), col):
            d, k = s * col[i], basis[i]
            if d < 0:
                t, q = nums[i], -d
            elif k < n:
                t, q = denom - nums[i], d
            else:
                continue  # a rising surplus has no upper limit
            lhs, rhs = t * best_q, best_t * q
            if lhs < rhs or (lhs == rhs and k < best_k):
                leave_pos, best_t, best_q, best_k = i, t, q, k

        # an entering surplus always meets a limit: the region lies in the unit box
        if entering < n and best_q < best_t:
            # the entering variable swaps bounds without entering the basis
            tableau[n, :r] += tableau[slot, :r] * s
            slot_sign[slot] = -s
            num_bound += fmax
            bound_flips += 1
            continue

        if tableau.dtype != object and max(bound, num_bound) >= _INT64_LIMIT:
            # the bounds reached the limit: measure the entries, promote only if they did
            bound = max(int(tableau[:n].max()), -int(tableau[:n].min()), denom)
            num_bound = max(map(abs, nums))
            if max(bound, num_bound) >= _INT64_LIMIT:
                tableau = tableau.astype(object)
        a = best_q
        entering_col = tableau[slot].copy()
        leave_value = best_t if s < 0 else a - best_t
        num_bound = max((num_bound * a + fmax * abs(best_t)) // denom, abs(leave_value))
        sgn = 1 if col[leave_pos] > 0 else -1
        # the pivot row across the slots (the entering slot is rewritten below); over the
        # step best_t / a, basic i moves by s best_t M[i, e] / (D a), hence -s best_t
        prow = tableau[:, leave_pos] * sgn
        prow[slot] = 0
        prow[n] = -s * best_t
        if a == denom:
            # no rescale: only the slots whose pivot-row entry is nonzero change, yet at
            # these widths one update of the whole array beats gathering them
            update = np.multiply.outer(prow, entering_col)
            if denom != 1:
                update //= denom
            tableau -= update
        else:
            # every entry is rescaled
            tableau *= a
            tableau -= np.multiply.outer(prow, entering_col)
            tableau //= denom
        tableau[:, leave_pos] = prow
        tableau[n, leave_pos] = leave_value
        tableau[n, r] = 0
        # the leaving variable takes the entering slot: column -sgn c, sgn D in row p
        tableau[slot] = entering_col if sgn < 0 else -entering_col
        tableau[slot, leave_pos] = sgn * denom
        # it stops at 1 if it was rising, at 0 if falling
        slot_sign[slot] = 1 if s * col[leave_pos] > 0 else -1
        nonbasic[slot] = basis[leave_pos]
        basis[leave_pos] = entering
        bound = max(bound, bound * (a + fmax) // denom)
        denom = a
        pivots += 1

    # only structural variables have an upper bound to sit at
    value = dict(zip(basis, tableau[n].tolist()))
    value.update((v, denom) for v, sg in zip(nonbasic, slot_sign) if sg > 0)
    values = [value.get(j, 0) for j in range(n)]
    _check_feasible(np.array(values, dtype=tableau.dtype), denom, rows)
    return LpSolution(optimum=Fraction(sum(values), denom),
                      vertex=tuple(Fraction(v, denom) for v in values),
                      basis=tuple(sorted(basis)), pivots=pivots, bound_flips=bound_flips)


def _check_feasible(numerators: np.ndarray, denom: int, rows: np.ndarray) -> None:
    """The vertex numerators / denom lie in the unit box and meet rows . x >= 1."""
    if not ((0 <= numerators) & (numerators <= denom)).all():
        raise InvariantViolation(f"simplex left the unit box: {numerators} / {denom}")
    if ((rows * numerators).sum(axis=1) < denom).any():
        raise InvariantViolation(f"simplex left the feasible region: {numerators} / {denom}")


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
