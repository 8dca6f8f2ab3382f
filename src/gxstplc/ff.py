"""Prime moduli, the residue record of a transcript, and int64 kernels.

Everything here is deterministic and exact.  This module checks a
modulus (``check_modulus``), names the field a transcript's residues
live in (``PrimeField`` and its ``FieldElement`` records, which carry no
arithmetic), and holds the kernels that the int64 residue arrays of the
protocol and the audits share: ``_reduce``, ``_product`` and ``_inverse``.

Reduction is driven by bounds.  An intermediate array carries a Python
int bound on its |entries|, q - 1 for residues, and ``_fit`` reduces it
only when the next product or sum could pass 2^63 - 1.  With the small
fields the protocol runs in by default (q is the smallest prime above
N + L) most steps need no reduction; near q = 2^31 every product of two
residues needs one, and the same rule then reduces at every step.
"""

from __future__ import annotations

import numpy as np

MAX_MODULUS = 2**31  # keeps products of two residues inside 64-bit range
_INT64_MAX = 2**63 - 1  # every intermediate entry stays at most this, by its bound

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


def _reduce(a: np.ndarray, q: int) -> np.ndarray:
    """Reduce an int64 or uint64 array mod q in place and return it.

    Floor division puts negative entries in [0, q), as % does.  r * q
    may wrap below the int64 range, but a - r * q lies in [0, q), so the
    wrapped arithmetic still gives it exactly.
    """
    r = a // q
    r *= q
    a -= r
    return a


def _fit(a: np.ndarray, bound: int, q: int, limit: int) -> tuple[np.ndarray, int]:
    """a and a bound on its |entries|, with a reduced in place first if
    the bound passes limit: the one place that decides when to reduce.

    Callers pass as limit what the next product or sum leaves of int64
    (or q - 1, for a result that must be fully reduced), so an array is
    reduced only when that step could overflow.
    """
    if bound > limit:
        return _reduce(a, q), q - 1
    return a, bound


def _product(factors: np.ndarray, q: int) -> np.ndarray:
    """Product mod q of residues along the last axis, in log2(width)
    halving steps.

    A step multiplies pairs, squaring the bound; at an odd width the
    last factor joins the first pair, cubing it.  The factors are reduced
    only when that square could pass int64, the first pairs only when
    that cube could, and the result once, if its bound passes q - 1.
    """
    bound = q - 1
    while (width := factors.shape[-1]) > 1:
        factors, bound = _fit(factors, bound, q, _INT64_MAX // bound)
        half = width // 2
        head = factors[..., :half] * factors[..., half:2 * half]
        if width % 2:
            head, square = _fit(head, bound * bound, q, _INT64_MAX // bound)
            head[..., 0] *= factors[..., -1]
            bound *= square
        else:
            bound *= bound
        factors = head
    return _fit(factors[..., 0], bound, q, q - 1)[0]


def _inverse(a: np.ndarray, q: int) -> np.ndarray:
    """Elementwise a^(q-2) mod q (Fermat) of residues, by square and
    multiply.

    The base is reduced only when its next square could pass int64, the
    running product only when its next multiply by the base could (a
    base whose square fits fits a reduced product too), and the result
    once, if its bound passes q - 1.
    """
    out, out_bound = np.ones_like(a), 1
    base, bound = a.copy(), q - 1
    e = q - 2
    while e:
        base, bound = _fit(base, bound, q, _INT64_MAX // bound)
        if e & 1:
            out, out_bound = _fit(out, out_bound, q, _INT64_MAX // bound)
            out *= base
            out_bound *= bound
        e >>= 1
        if e:
            base *= base
            bound *= bound
    return _fit(out, out_bound, q, q - 1)[0]
