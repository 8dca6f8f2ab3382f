"""Prime-field arithmetic and exact linear algebra.

Everything here is deterministic and exact: elements are residues mod a
prime q and inverses come from Fermat's little theorem.  Field linear
algebra works on matrices written as integer rows mod q, through one
eliminator (``_eliminate``, always the first nonzero pivot in row
order) behind ``rank_mod`` and ``solve_mod``.
"""

from __future__ import annotations

from typing import Iterator

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


def _eliminate(rows: list[list[int]], q: int) -> tuple[list[list[int]], list[int]]:
    """Row echelon form over F_q; returns (rows, pivot column list).

    Pivot choice is always the first row (top to bottom) with a nonzero
    entry in the current column, so the result is deterministic.
    """
    n_rows = len(rows)
    n_cols = len(rows[0]) if n_rows else 0
    pivots = []
    r = 0
    for col in range(n_cols):
        piv = None
        for i in range(r, n_rows):
            if rows[i][col] % q != 0:
                piv = i
                break
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = pow(rows[r][col], q - 2, q)
        rows[r] = [(e * inv) % q for e in rows[r]]
        for i in range(n_rows):
            if i != r and rows[i][col] % q != 0:
                factor = rows[i][col]
                rows[i] = [(a - factor * b) % q for a, b in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
        if r == n_rows:
            break
    return rows, pivots


def rank_mod(rows: list[list[int]], q: int) -> int:
    """Rank over F_q of a matrix given as integer rows (the rows are consumed)."""
    return len(_eliminate(rows, q)[1]) if rows else 0


def solve_mod(rows: list[list[int]], q: int) -> list[int]:
    """Solve a square system over F_q given as augmented integer rows
    [A | b] (the rows are consumed); raises SingularMatrix unless A is
    invertible and DimensionMismatch unless it gets n rows of n + 1 entries."""
    n = len(rows)
    if any(len(row) != n + 1 for row in rows):
        raise DimensionMismatch(f"a square system of {n} rows needs {n + 1} entries a row")
    rows, pivots = _eliminate(rows, q)
    if pivots != list(range(n)):
        raise SingularMatrix("coefficient matrix is singular")
    return [row[n] for row in rows]
