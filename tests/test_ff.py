"""Prime moduli and residue records over F_q.

The matrix tests check reference_rank and reference_solve, the
test-only list eliminator that tests/test_reference.py ranks and
decodes with to check the closed-form noise ranks and decoder, against
known ranks and A x = b directly.
"""

import itertools
import random

import numpy as np
import pytest

from gxstplc.ff import (
    MAX_MODULUS,
    PrimeField,
    check_modulus,
    is_prime,
    smallest_prime_at_least,
)
from test_reference import reference_rank as rank
from test_reference import reference_solve


class TestPrimes:
    def test_small_values(self):
        flags = [is_prime(n) for n in range(10)]
        assert flags == [False, False, True, True, False, True, False, True, False, False]

    def test_larger_values(self):
        assert is_prime(997)
        assert is_prime(2**31 - 1)
        assert not is_prime(1_000_001)
        assert is_prime(1_000_003)

    def test_smallest_prime_at_least(self):
        assert smallest_prime_at_least(9) == 11
        assert smallest_prime_at_least(54) == 59
        assert smallest_prime_at_least(2) == 2
        assert smallest_prime_at_least(0) == 2
        assert smallest_prime_at_least(59) == 59

    def test_agrees_with_sieve(self):
        limit = 2000
        sieve = [True] * limit
        sieve[0] = sieve[1] = False
        for i in range(2, limit):
            if sieve[i]:
                for j in range(i * i, limit, i):
                    sieve[j] = False
        assert [n for n in range(limit) if is_prime(n)] == \
            [n for n in range(limit) if sieve[n]]


class TestPrimeField:
    def test_rejects_composite(self):
        with pytest.raises(ValueError):
            PrimeField(10)

    def test_rejects_oversized_modulus(self):
        big = smallest_prime_at_least(MAX_MODULUS)
        with pytest.raises(ValueError):
            PrimeField(big)

    def test_equality_by_modulus(self):
        assert PrimeField(7) == PrimeField(7)
        assert PrimeField(7) != PrimeField(11)
        assert hash(PrimeField(7)) == hash(PrimeField(7))

    def test_call_reduces(self):
        f = PrimeField(7)
        assert f(9).value == 2
        assert f(-1).value == 6
        assert f(0).value == 0 and f(8).value == 1


class TestCheckModulus:
    @pytest.mark.parametrize("q", [2, 3, 101, 2**31 - 1])
    def test_returns_a_valid_prime(self, q):
        assert check_modulus(q) == q

    @pytest.mark.parametrize("q", [1, 10, 2**31, 7.0, "7"])
    def test_rejects_what_is_not_a_prime_int(self, q):
        with pytest.raises(ValueError, match="must be prime"):
            check_modulus(q)

    def test_rejects_a_prime_past_the_bound(self):
        with pytest.raises(ValueError, match="exceeds the supported bound"):
            check_modulus(smallest_prime_at_least(MAX_MODULUS))


class TestFieldElement:
    def test_equality_and_hash(self):
        f = PrimeField(11)
        assert f(4) == f(15) and hash(f(4)) == hash(f(15))
        assert f(4) != f(5)
        assert PrimeField(5)(1) != PrimeField(7)(1)
        assert len({f(1), f(12), f(2)}) == 2

    def test_never_equals_an_int(self):
        f = PrimeField(11)
        assert f(4) != 4 and 4 != f(4)
        assert (f(0) == 0) is False

    def test_repr_is_the_residue(self):
        assert repr(PrimeField(11)(-1)) == "10"
        assert str((PrimeField(7)(3), PrimeField(7)(9))) == "(3, 2)"

    def test_has_no_arithmetic(self):
        a = PrimeField(7)(3)
        for op in (lambda: a + a, lambda: a * 2, lambda: 1 - a, lambda: -a,
                   lambda: a ** 2, lambda: a / a):
            with pytest.raises(TypeError):
                op()


def vandermonde_rows(nodes, height, q):
    """Integer rows of the Vandermonde matrix with entry (i, j) = nodes[j] ** i."""
    return [[pow(x, i, q) for x in nodes] for i in range(height)]


class TestMatrix:
    def test_rank(self):
        q = 7
        assert rank([[0, 0], [0, 0]], q) == 0
        assert rank([[1, 0, 0], [0, 1, 0], [0, 0, 1]], q) == 3
        assert rank([[1, 2], [2, 4]], q) == 1
        assert rank([[1, 1], [1, 2], [1, 3]], q) == 2
        assert rank(np.zeros((0, 3), dtype=np.int64), q) == 0
        assert rank(np.zeros((3, 0), dtype=np.int64), q) == 0

    def test_rank_sees_modular_collapse(self):
        # rows differ over the integers but coincide mod 5
        assert rank([[1, 2], [6, 7]], 5) == 1

    def test_entries_near_the_largest_modulus(self):
        q = 2**31 - 1  # products of two residues come within a factor 2 of 2**63
        assert rank([[q - 1, q - 2], [q - 2, q - 1]], q) == 2
        assert rank([[q - 1, q - 1], [1, 1]], q) == 1

    def test_inputs_are_not_consumed(self):
        rows = [[2, 1, 3], [1, 3, 4]]
        array = np.array(rows)
        assert rank(rows, 7) == 2 and rows == [[2, 1, 3], [1, 3, 4]]
        assert rank(array, 7) == 2 and array.tolist() == rows
        residues = array % 7
        assert rank(residues, 7) == 2 and residues.tolist() == rows

    def test_solve_singular(self):
        with pytest.raises(ValueError, match="singular"):
            reference_solve([[1, 2, 1], [2, 4, 1]], 7)

    def test_inverse(self):
        # column j of the inverse solves m x = e_j
        q = 11
        m = [[3, 1, 0], [4, 1, 2], [0, 5, 1]]
        cols = [reference_solve([row + [int(i == j)] for i, row in enumerate(m)], q)
                for j in range(3)]
        assert [[sum(m[i][k] * cols[j][k] for k in range(3)) % q for j in range(3)]
                for i in range(3)] == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]

    def _roundtrip(self, q, rows, x):
        b = [sum(rows[i][j] * x[j] for j in range(len(x))) for i in range(len(x))]
        got = reference_solve([row + [b_i] for row, b_i in zip(rows, b)], q)
        assert got == [v % q for v in x]

    @pytest.mark.parametrize("q", [2, 3, 5, 7])
    def test_solve_roundtrip_dim1_exhaustive(self, q):
        for a in range(1, q):
            for x in range(q):
                self._roundtrip(q, [[a]], [x])

    @pytest.mark.parametrize("q", [2, 3, 5])
    def test_solve_roundtrip_dim2_exhaustive(self, q):
        for a, b, c, d in itertools.product(range(q), repeat=4):
            if (a * d - b * c) % q == 0:
                continue
            for x in itertools.product(range(q), repeat=2):
                self._roundtrip(q, [[a, b], [c, d]], list(x))

    @pytest.mark.parametrize("q", [2, 3])
    def test_solve_roundtrip_dim3_all_invertible(self, q):
        rng = random.Random(301)
        mats = np.array(list(itertools.product(range(q), repeat=9))).reshape(-1, 3, 3)
        invertible = [m for m in mats.tolist() if rank(m, q) == 3]
        assert len(invertible) == (q**3 - 1) * (q**3 - q) * (q**3 - q**2)  # |GL(3, q)|
        for rows in invertible:
            xs = (itertools.product(range(q), repeat=3) if q == 2
                  else [[rng.randrange(q) for _ in range(3)] for _ in range(3)])
            for x in xs:
                self._roundtrip(q, rows, list(x))

    @pytest.mark.parametrize("q", [5, 7])
    def test_solve_roundtrip_dim3_sampled(self, q):
        rng = random.Random(302 + q)
        done = 0
        while done < 200:
            rows = [[rng.randrange(q) for _ in range(3)] for _ in range(3)]
            if rank([list(r) for r in rows], q) < 3:
                continue
            self._roundtrip(q, rows, [rng.randrange(q) for _ in range(3)])
            done += 1


class TestVandermonde:
    def test_square_is_invertible(self):
        for nodes in itertools.combinations(range(13), 4):
            assert rank(vandermonde_rows(nodes, 4, 13), 13) == 4

    def test_tall_has_full_column_rank(self):
        assert rank(vandermonde_rows([1, 4, 9], 7, 11), 11) == 3
