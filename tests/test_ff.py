"""Field arithmetic and exact linear algebra."""

import itertools
import random

import pytest

from gxstplc.errors import DimensionMismatch, DuplicateNodes, FieldMismatch, SingularMatrix
from gxstplc.ff import (
    MAX_MODULUS,
    FieldElement,
    FieldMatrix,
    PrimeField,
    is_prime,
    mat_inverse,
    mat_mul,
    mat_rank,
    mat_solve,
    smallest_prime_at_least,
    solve_mod,
    vandermonde,
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
        with pytest.raises(AssertionError):
            a ** (-1)

    def test_zero_has_no_inverse(self):
        with pytest.raises(ZeroDivisionError):
            PrimeField(5).zero.inverse()

    def test_cross_field_mix_rejected(self):
        with pytest.raises(FieldMismatch):
            PrimeField(5)(1) + PrimeField(7)(1)


class TestMatrix:
    def test_from_rows_and_accessors(self):
        f = PrimeField(7)
        m = FieldMatrix.from_rows(f, [[1, 2, 3], [4, 5, 6]])
        assert (m.n_rows, m.n_cols) == (2, 3)
        assert m.entry(1, 2) == f(6)
        assert m.row(0) == [f(1), f(2), f(3)]
        assert m.column(1) == [f(2), f(5)]
        assert m.transpose().rows() == [[f(1), f(4)], [f(2), f(5)], [f(3), f(6)]]

    def test_identity_multiplication(self):
        f = PrimeField(11)
        m = FieldMatrix.from_rows(f, [[3, 1], [4, 1]])
        eye = FieldMatrix.identity(f, 2)
        assert mat_mul(eye, m) == m
        assert mat_mul(m, eye) == m

    def test_mat_mul_values(self):
        f = PrimeField(7)
        a = FieldMatrix.from_rows(f, [[1, 2], [3, 4]])
        b = FieldMatrix.from_rows(f, [[5, 6], [0, 1]])
        assert mat_mul(a, b) == FieldMatrix.from_rows(f, [[5, 1], [1, 1]])

    def test_rank(self):
        f = PrimeField(7)
        assert mat_rank(FieldMatrix.from_rows(f, [[0, 0], [0, 0]])) == 0
        assert mat_rank(FieldMatrix.identity(f, 3)) == 3
        assert mat_rank(FieldMatrix.from_rows(f, [[1, 2], [2, 4]])) == 1
        assert mat_rank(FieldMatrix.from_rows(f, [[1, 1], [1, 2], [1, 3]])) == 2

    def test_rank_sees_modular_collapse(self):
        f = PrimeField(5)
        # rows differ over the integers but coincide mod 5
        m = FieldMatrix.from_rows(f, [[1, 2], [6, 7]])
        assert mat_rank(m) == 1

    def test_solve_singular(self):
        f = PrimeField(7)
        m = FieldMatrix.from_rows(f, [[1, 2], [2, 4]])
        with pytest.raises(SingularMatrix):
            mat_solve(m, [1, 1])

    def test_solve_rhs_length_mismatch(self):
        f = PrimeField(7)
        with pytest.raises(SingularMatrix):
            mat_solve(FieldMatrix.identity(f, 2), [1, 2, 3])

    def test_solve_needs_square_matrix(self):
        f = PrimeField(7)
        with pytest.raises(DimensionMismatch):
            mat_solve(FieldMatrix.from_rows(f, [[1, 2, 3], [4, 5, 6]]), [1, 2])

    def test_ragged_rows_rejected(self):
        with pytest.raises(DimensionMismatch):
            FieldMatrix.from_rows(PrimeField(7), [[1, 2], [3]])

    def test_entry_count_must_match_shape(self):
        f = PrimeField(7)
        with pytest.raises(DimensionMismatch):
            FieldMatrix(f, 2, 2, [f(1)])

    def test_mat_mul_checks_shapes_and_fields(self):
        f = PrimeField(7)
        square = FieldMatrix.from_rows(f, [[1, 2], [3, 4]])
        with pytest.raises(DimensionMismatch):
            mat_mul(square, FieldMatrix.from_rows(f, [[1], [2], [3]]))
        with pytest.raises(FieldMismatch):
            mat_mul(square, FieldMatrix.identity(PrimeField(5), 2))

    def test_inverse_needs_square_matrix(self):
        f = PrimeField(7)
        with pytest.raises(DimensionMismatch):
            mat_inverse(FieldMatrix.from_rows(f, [[1, 2, 3], [4, 5, 6]]))
        # no column to solve for, so only the shape check can catch it
        with pytest.raises(DimensionMismatch):
            mat_inverse(FieldMatrix(f, 0, 3, []))

    def test_solve_mod_on_integer_rows(self):
        # 2x + y = 3, x + 3y = 4 over F_7: x = 1, y = 1
        assert solve_mod([[2, 1, 3], [1, 3, 4]], 7) == [1, 1]
        with pytest.raises(SingularMatrix):
            solve_mod([[1, 2, 1], [2, 4, 3]], 7)

    def test_inverse(self):
        f = PrimeField(11)
        m = FieldMatrix.from_rows(f, [[3, 1, 0], [4, 1, 2], [0, 5, 1]])
        assert mat_mul(m, mat_inverse(m)) == FieldMatrix.identity(f, 3)

    def _roundtrip(self, field, rows, x):
        m = FieldMatrix.from_rows(field, rows)
        b = [sum(rows[i][j] * x[j] for j in range(len(x))) for i in range(len(x))]
        got = mat_solve(m, b)
        assert [e.value for e in got] == [v % field.q for v in x]

    @pytest.mark.parametrize("q", [2, 3, 5, 7])
    def test_solve_roundtrip_dim1_exhaustive(self, q):
        f = PrimeField(q)
        for a in range(1, q):
            for x in range(q):
                self._roundtrip(f, [[a]], [x])

    @pytest.mark.parametrize("q", [2, 3, 5])
    def test_solve_roundtrip_dim2_exhaustive(self, q):
        f = PrimeField(q)
        for a, b, c, d in itertools.product(range(q), repeat=4):
            if (a * d - b * c) % q == 0:
                continue
            for x in itertools.product(range(q), repeat=2):
                self._roundtrip(f, [[a, b], [c, d]], list(x))

    @pytest.mark.parametrize("q", [2, 3])
    def test_solve_roundtrip_dim3_all_invertible(self, q):
        f = PrimeField(q)
        rng = random.Random(301)
        for flat in itertools.product(range(q), repeat=9):
            rows = [list(flat[0:3]), list(flat[3:6]), list(flat[6:9])]
            if mat_rank(FieldMatrix.from_rows(f, rows)) < 3:
                continue
            xs = (itertools.product(range(q), repeat=3) if q == 2
                  else [[rng.randrange(q) for _ in range(3)] for _ in range(3)])
            for x in xs:
                self._roundtrip(f, rows, list(x))

    @pytest.mark.parametrize("q", [5, 7])
    def test_solve_roundtrip_dim3_sampled(self, q):
        f = PrimeField(q)
        rng = random.Random(302 + q)
        done = 0
        while done < 200:
            rows = [[rng.randrange(q) for _ in range(3)] for _ in range(3)]
            if mat_rank(FieldMatrix.from_rows(f, rows)) < 3:
                continue
            self._roundtrip(f, rows, [rng.randrange(q) for _ in range(3)])
            done += 1


class TestVandermonde:
    def test_entries(self):
        f = PrimeField(11)
        m = vandermonde([f(2), f(3)], 3)
        assert m.rows() == [[f(1), f(1)], [f(2), f(3)], [f(4), f(9)]]

    def test_duplicate_nodes_rejected(self):
        f = PrimeField(11)
        with pytest.raises(DuplicateNodes):
            vandermonde([f(2), f(13)], 2)

    def test_square_is_invertible(self):
        f = PrimeField(13)
        for nodes in itertools.combinations(range(13), 4):
            m = vandermonde([f(v) for v in nodes], 4)
            assert mat_rank(m) == 4

    def test_tall_has_full_column_rank(self):
        f = PrimeField(11)
        m = vandermonde([f(1), f(4), f(9)], 7)
        assert mat_rank(m) == 3
