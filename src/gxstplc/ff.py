"""Prime-field arithmetic and exact linear algebra.

Everything here is deterministic and exact: elements are residues mod a
prime q and inverses come from Fermat's little theorem.  Field linear
algebra works on int64 residue arrays through one fraction-free
Gauss-Jordan eliminator (``_eliminate``) over stacks of matrices of
shape (B, r, c): each matrix takes its own pivots, so ``rank_mod``
ranks a whole stack in one call (the audits batch their rank
certificates this way, over distinct jobs), while ``solve_mod`` and
``pivot_columns`` run on the same kernel with a stack of one.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from .errors import DimensionMismatch, FieldMismatch, SingularMatrix

MAX_MODULUS = 2**31  # keeps products of two residues inside 64-bit range

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid for every n below 3.3 * 10**24."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def smallest_prime_at_least(n: int) -> int:
    """Smallest prime >= n (and >= 2)."""
    c = max(2, n)
    while not is_prime(c):
        c += 1
    return c


class PrimeField:
    """The field of integers modulo a prime q, with 2 <= q < 2**31."""

    __slots__ = ("q",)

    def __init__(self, q: int):
        if not isinstance(q, int) or not is_prime(q):
            raise ValueError(f"modulus must be prime, got {q!r}")
        if q >= MAX_MODULUS:
            raise ValueError(
                f"modulus {q} exceeds the supported bound {MAX_MODULUS}"
            )
        self.q = q

    def __call__(self, value: int) -> FieldElement:
        return FieldElement(value % self.q, self)

    @property
    def zero(self) -> FieldElement:
        return FieldElement(0, self)

    @property
    def one(self) -> FieldElement:
        return FieldElement(1, self)

    def elements(self) -> Iterator[FieldElement]:
        return (FieldElement(v, self) for v in range(self.q))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PrimeField) and other.q == self.q

    def __hash__(self) -> int:
        return hash(("PrimeField", self.q))

    def __repr__(self) -> str:
        return f"PrimeField({self.q})"


class FieldElement:
    """A residue in a PrimeField, with the usual operator overloads."""

    __slots__ = ("value", "field")

    def __init__(self, value: int, field: PrimeField):
        self.value = value % field.q
        self.field = field

    def _coerce(self, other) -> "FieldElement":
        if isinstance(other, FieldElement):
            if other.field != self.field:
                raise FieldMismatch(f"cannot combine elements of {self.field} and {other.field}")
            return other
        if isinstance(other, int):
            return FieldElement(other, self.field)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return FieldElement(self.value + o.value, self.field)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return FieldElement(self.value - o.value, self.field)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return FieldElement(o.value - self.value, self.field)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return FieldElement(self.value * o.value, self.field)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return o * self.inverse()

    def __neg__(self):
        return FieldElement(-self.value, self.field)

    def __pow__(self, exponent: int):
        if exponent < 0:
            raise ValueError("negative exponents: use inverse() explicitly")
        return FieldElement(pow(self.value, exponent, self.field.q), self.field)

    def inverse(self) -> "FieldElement":
        if self.value == 0:
            raise ZeroDivisionError("zero has no multiplicative inverse")
        return FieldElement(pow(self.value, self.field.q - 2, self.field.q), self.field)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, FieldElement):
            return self.field == other.field and self.value == other.value
        if isinstance(other, int):
            return self.value == other % self.field.q
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.field.q, self.value))

    def __bool__(self) -> bool:
        return self.value != 0

    def __repr__(self) -> str:
        return f"{self.value}"


def _residues(rows, q: int) -> np.ndarray:
    """A fresh int64 array of the entries reduced mod q."""
    try:
        return np.asarray(rows, dtype=np.int64) % q
    except ValueError as exc:  # ragged rows
        raise DimensionMismatch(f"rows of unequal length: {exc}") from None


def _eliminate(a: np.ndarray, q: int, n_cols: int) -> np.ndarray:
    """Gauss-Jordan elimination over F_q, in place, on a stack (B, r, c).

    Each matrix takes as pivot, column by column through the first
    n_cols, its first unused row with a nonzero entry there; every other
    row i is updated fraction-free, row_i * p - row_i[col] * pivot, so no
    inverse is taken.  Entries stay below q < 2**31 and every product
    below 2**62.  Rows stay in place, so a pivot column ends with one
    nonzero entry, in its pivot row.  Returns which columns took a pivot,
    a (B, n_cols) bool array whose row sums are the ranks.
    """
    b, r, _ = a.shape
    at = np.arange(b)
    used = np.zeros((b, r), dtype=bool)
    pivoted = np.zeros((b, n_cols), dtype=bool)
    for col in range(n_cols):
        if used.all():  # every row holds a pivot (or there are none)
            break
        candidates = (a[:, :, col] != 0) & ~used
        found = candidates.any(axis=1)
        p = candidates.argmax(axis=1)
        pivot = a[at, p]
        factor = a[:, :, col] * found[:, None]  # matrices without a pivot stay as they are
        factor[at, p] = 0
        a *= np.where(found, pivot[:, col], 1)[:, None, None]
        a -= factor[:, :, None] * pivot[:, None, :]
        a %= q
        used[at, p] |= found
        pivoted[:, col] = found
    return pivoted


def rank_mod(rows, q: int):
    """Rank over F_q of a matrix of integer rows, as an int; given a stack
    of shape (B, r, c), the rank of each matrix, as an int64 array (the
    convention of np.linalg.matrix_rank).  The input is not modified."""
    a = _residues(rows, q)
    if a.ndim == 3:
        return _eliminate(a, q, a.shape[2]).sum(axis=1, dtype=np.int64)
    if a.ndim == 2:
        return int(_eliminate(a[None], q, a.shape[1]).sum())
    if a.size == 0:
        return 0
    raise DimensionMismatch(f"need a matrix or a stack of matrices, got shape {a.shape}")


def pivot_columns(rows, q: int) -> list[int]:
    """The pivot columns of a matrix over F_q: the greedy basis of its
    columns, each independent of those before it."""
    a = _residues(rows, q)[None]
    return np.flatnonzero(_eliminate(a, q, a.shape[2])[0]).tolist()


def solve_mod(rows, q: int) -> list[int]:
    """Solve a square system over F_q given as augmented integer rows
    [A | b] (the input is not modified); raises SingularMatrix unless A is
    invertible and DimensionMismatch unless it gets n rows of n + 1 entries."""
    n = len(rows)
    if any(len(row) != n + 1 for row in rows):
        raise DimensionMismatch(f"a square system of {n} rows needs {n + 1} entries a row")
    a = _residues(rows, q).reshape(1, n, n + 1)
    if not _eliminate(a, q, n).all():
        raise SingularMatrix("coefficient matrix is singular")
    # A is now a scaled permutation: unknown j sits alone in its pivot row
    coeffs, rhs = a[0, :, :n], a[0, :, n]
    row = (coeffs != 0).argmax(axis=0)
    return [int(b) * pow(int(d), q - 2, q) % q
            for b, d in zip(rhs[row], coeffs[row, np.arange(n)])]
