"""Prime moduli and the residue record of a transcript.

Everything here is deterministic and exact.  Field arithmetic runs on
int64 residue arrays in the modules that need it; this module checks a
modulus (``check_modulus``) and names the field a transcript's residues
live in (``PrimeField`` and its ``FieldElement`` records, which carry no
arithmetic).
"""

from __future__ import annotations

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


def check_modulus(q) -> int:
    """q itself, if it is a prime with 2 <= q < MAX_MODULUS; ValueError otherwise."""
    if not isinstance(q, int) or not is_prime(q):
        raise ValueError(f"modulus must be prime, got {q!r}")
    if q >= MAX_MODULUS:
        raise ValueError(f"modulus {q} exceeds the supported bound {MAX_MODULUS}")
    return q


class PrimeField:
    """The field of integers modulo a prime q, with 2 <= q < 2**31."""

    __slots__ = ("q",)

    def __init__(self, q: int):
        self.q = check_modulus(q)

    def __call__(self, value: int) -> FieldElement:
        return FieldElement(value, self)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PrimeField) and other.q == self.q

    def __hash__(self) -> int:
        return hash(("PrimeField", self.q))

    def __repr__(self) -> str:
        return f"PrimeField({self.q})"


class FieldElement:
    """A residue of a PrimeField, as a transcript reports it.

    It has no arithmetic, and it equals only an element of the same
    field with the same value (never an int).
    """

    __slots__ = ("value", "field")

    def __init__(self, value: int, field: PrimeField):
        self.value = value % field.q
        self.field = field

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FieldElement):
            return NotImplemented
        return self.field == other.field and self.value == other.value

    def __hash__(self) -> int:
        return hash((self.field.q, self.value))

    def __repr__(self) -> str:
        return f"{self.value}"

