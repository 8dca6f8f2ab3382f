"""Field arithmetic and exact linear algebra."""

import itertools
import random

import numpy as np
import pytest

from gxstplc.errors import DimensionMismatch, FieldMismatch, SingularMatrix
from gxstplc.ff import (
    MAX_MODULUS,
    PrimeField,
    is_prime,
    pivot_columns,
    rank_mod,
    smallest_prime_at_least,
    solve_mod,
)


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
        assert f.zero.value == 0 and f.one.value == 1

    def test_elements_enumerates_all(self):
        f = PrimeField(5)
        assert [e.value for e in f.elements()] == [0, 1, 2, 3, 4]

    @pytest.mark.parametrize("q", [2, 3, 5])
    def test_field_axioms_exhaustive(self, q):
        f = PrimeField(q)
        elems = list(f.elements())
        for a, b in itertools.product(elems, repeat=2):
            assert a + b == b + a
            assert a * b == b * a
        for a, b, c in itertools.product(elems, repeat=3):
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
        for a in elems:
            assert a + f.zero == a
            assert a * f.one == a
            assert a + (-a) == f.zero
            if a.value != 0:
                assert a * a.inverse() == f.one


class TestFieldElement:
    def test_int_coercion(self):
        f = PrimeField(11)
        a = f(4)
        assert a + 9 == f(2)
        assert 9 + a == f(2)
        assert a - 5 == f(10)
        assert 5 - a == f(1)
        assert a * 3 == f(1)
        assert 2 / f(4) == f(6)

    def test_division(self):
        f = PrimeField(11)
        for a in f.elements():
            for b in f.elements():
                if b.value == 0:
                    continue
                assert (a / b) * b == a

    def test_pow(self):
        f = PrimeField(13)
        a = f(6)
        assert a**0 == f.one
        assert a**3 == f(6 * 6 * 6)
        with pytest.raises(ValueError, match="negative exponents"):
            a ** (-1)

    def test_zero_has_no_inverse(self):
        with pytest.raises(ZeroDivisionError):
            PrimeField(5).zero.inverse()

    def test_cross_field_mix_rejected(self):
        with pytest.raises(FieldMismatch):
            PrimeField(5)(1) + PrimeField(7)(1)


def vandermonde_rows(nodes, height, q):
    """Integer rows of the Vandermonde matrix with entry (i, j) = nodes[j] ** i."""
    return [[pow(x, i, q) for x in nodes] for i in range(height)]


class TestMatrix:
    def test_rank(self):
        q = 7
        assert rank_mod([[0, 0], [0, 0]], q) == 0
        assert rank_mod([[1, 0, 0], [0, 1, 0], [0, 0, 1]], q) == 3
        assert rank_mod([[1, 2], [2, 4]], q) == 1
        assert rank_mod([[1, 1], [1, 2], [1, 3]], q) == 2

    def test_rank_sees_modular_collapse(self):
        # rows differ over the integers but coincide mod 5
        assert rank_mod([[1, 2], [6, 7]], 5) == 1

    def test_rank_of_a_stack(self):
        # like np.linalg.matrix_rank: one rank per matrix, as an array
        stack = np.array([[[1, 2], [2, 4]], [[1, 0], [0, 1]], [[0, 0], [0, 0]]])
        ranks = rank_mod(stack, 7)
        assert ranks.dtype == np.int64
        assert ranks.tolist() == [1, 2, 0]
        assert rank_mod(np.zeros((4, 0, 3), dtype=np.int64), 7).tolist() == [0] * 4
        assert rank_mod([], 7) == 0

    def test_entries_near_the_largest_modulus(self):
        q = 2**31 - 1  # products of two residues come within a factor 2 of 2**63
        assert rank_mod([[q - 1, q - 2], [q - 2, q - 1]], q) == 2
        assert rank_mod([[q - 1, q - 1], [1, 1]], q) == 1
        assert solve_mod([[q - 1, 0, q - 1], [0, q - 2, 2]], q) == [1, q - 1]

    def test_inputs_are_not_consumed(self):
        rows = [[2, 1, 3], [1, 3, 4]]
        array = np.array(rows)
        assert solve_mod(rows, 7) == [1, 1] and rows == [[2, 1, 3], [1, 3, 4]]
        assert rank_mod(rows, 7) == 2 and rows == [[2, 1, 3], [1, 3, 4]]
        assert rank_mod(array[None], 7).tolist() == [2]
        assert array.tolist() == rows

    def test_ragged_rows_rejected(self):
        with pytest.raises(DimensionMismatch):
            rank_mod([[1, 2], [3]], 7)
        with pytest.raises(DimensionMismatch):
            rank_mod([1, 2, 3], 7)

    def test_pivot_columns_are_the_greedy_basis(self):
        # column 1 doubles column 0 and column 3 sums columns 0 and 2
        assert pivot_columns([[1, 2, 0, 1], [0, 0, 1, 1]], 5) == [0, 2]
        assert pivot_columns([[0, 0], [0, 0]], 5) == []

    def test_solve_singular(self):
        with pytest.raises(SingularMatrix):
            solve_mod([[1, 2, 1], [2, 4, 1]], 7)

    def test_solve_mod_on_integer_rows(self):
        # 2x + y = 3, x + 3y = 4 over F_7: x = 1, y = 1
        assert solve_mod([[2, 1, 3], [1, 3, 4]], 7) == [1, 1]
        with pytest.raises(SingularMatrix):
            solve_mod([[1, 2, 1], [2, 4, 3]], 7)

    @pytest.mark.parametrize("rows", [
        [[1, 2, 3, 4], [5, 6, 0, 1]],   # a 2x3 coefficient block
        [[1, 2, 3], [4, 5]],            # a short row
    ])
    def test_solve_mod_needs_a_square_system(self, rows):
        with pytest.raises(DimensionMismatch):
            solve_mod(rows, 7)

    def test_inverse(self):
        # column j of the inverse solves m x = e_j
        q = 11
        m = [[3, 1, 0], [4, 1, 2], [0, 5, 1]]
        cols = [solve_mod([row + [int(i == j)] for i, row in enumerate(m)], q)
                for j in range(3)]
        assert [[sum(m[i][k] * cols[j][k] for k in range(3)) % q for j in range(3)]
                for i in range(3)] == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]

    def _roundtrip(self, q, rows, x):
        b = [sum(rows[i][j] * x[j] for j in range(len(x))) for i in range(len(x))]
        got = solve_mod([row + [b_i] for row, b_i in zip(rows, b)], q)
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
        invertible = mats[rank_mod(mats, q) == 3].tolist()
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
            if rank_mod([list(r) for r in rows], q) < 3:
                continue
            self._roundtrip(q, rows, [rng.randrange(q) for _ in range(3)])
            done += 1


class TestVandermonde:
    def test_square_is_invertible(self):
        for nodes in itertools.combinations(range(13), 4):
            assert rank_mod(vandermonde_rows(nodes, 4, 13), 13) == 4

    def test_tall_has_full_column_rank(self):
        assert rank_mod(vandermonde_rows([1, 4, 9], 7, 11), 11) == 3
