"""Exact simplex and the brute-force vertex oracle."""

import dataclasses
import itertools
import random
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_covering_lp, random_pattern
from gxstplc.capacity import build_capacity_lp
from gxstplc.errors import DimensionMismatch, InvariantViolation, ScaleExceeded
from gxstplc.exactlp import (
    LinearProgram,
    _batched_int_det,
    _check_feasible,
    enumerate_vertices_oracle,
    lcm_of_denominators,
    simplex_min,
)


class TestLinearProgramValidation:
    def test_rejects_zero_vars(self):
        with pytest.raises(ValueError):
            LinearProgram(n_vars=0, rows=())

    def test_rejects_wrong_row_length(self):
        with pytest.raises(ValueError):
            LinearProgram(n_vars=2, rows=((1,),))

    def test_rejects_non_incidence_entries(self):
        with pytest.raises(ValueError):
            LinearProgram(n_vars=2, rows=((1, 2),))

    @pytest.mark.parametrize("entry", [1.0, 0.0, F(1), "1", None])
    def test_rejects_entries_that_are_not_integers(self, entry):
        # 1.0 == 1, but an int64 tableau would coerce it silently
        with pytest.raises(ValueError):
            LinearProgram(n_vars=2, rows=((1, 0), (entry, 1)))

    def test_accepts_numpy_integers(self):
        lp = LinearProgram(n_vars=2, rows=(tuple(np.array([1, 0])), (1, 1)))
        assert simplex_min(lp).vertex == (F(1), F(0))

    def test_rejects_empty_row(self):
        with pytest.raises(ValueError):
            LinearProgram(n_vars=2, rows=((0, 0),))

    def test_keeps_the_validated_rows_as_read_only_int64(self):
        # simplex_min reads this table instead of converting the rows again
        lp = LinearProgram(n_vars=2, rows=(tuple(np.array([1, 0], dtype=np.uint8)), (1, 1)))
        assert lp.incidence.dtype == np.int64
        assert lp.incidence.tolist() == [[1, 0], [1, 1]]
        assert not lp.incidence.flags.writeable
        assert LinearProgram(n_vars=3, rows=()).incidence.shape == (0, 3)

    def test_objective_is_all_ones(self):
        # the program has no cost vector to set: the optimum is the vertex sum
        assert [f.name for f in dataclasses.fields(LinearProgram)] == ["n_vars", "rows"]
        sol = simplex_min(LinearProgram(n_vars=3, rows=((1, 1, 0), (0, 1, 1), (1, 0, 1))))
        assert sol.optimum == sum(sol.vertex) == F(3, 2)


class TestSimplex:
    def test_single_variable(self):
        sol = simplex_min(LinearProgram(n_vars=1, rows=((1,),)))
        assert sol.optimum == F(1)
        assert sol.vertex == (F(1),)

    def test_two_variables_one_row(self):
        lp = LinearProgram(n_vars=2, rows=((1, 1),))
        sol = simplex_min(lp)
        assert sol.optimum == F(1)
        assert sol.vertex in {(F(1), F(0)), (F(0), F(1))}
        assert simplex_min(lp) == sol

    def test_full_replication_three_of_four(self):
        rows = ((1, 1, 1, 0), (1, 1, 0, 1), (1, 0, 1, 1), (0, 1, 1, 1))
        sol = simplex_min(LinearProgram(n_vars=4, rows=rows))
        assert sol.optimum == F(4, 3)
        assert sol.vertex == (F(1, 3),) * 4

    def test_disjoint_groups(self):
        rows = ((1, 1, 0, 0), (0, 0, 1, 1))
        sol = simplex_min(LinearProgram(n_vars=4, rows=rows))
        assert sol.optimum == F(2)

    def test_no_rows_means_origin(self):
        sol = simplex_min(LinearProgram(n_vars=3, rows=()))
        assert sol.optimum == F(0)
        assert sol.vertex == (F(0),) * 3

    def test_basis_size_matches_rows(self):
        rows = ((1, 1, 0), (0, 1, 1), (1, 0, 1))
        sol = simplex_min(LinearProgram(n_vars=3, rows=rows))
        assert len(sol.basis) == len(rows)
        assert list(sol.basis) == sorted(sol.basis)


class TestLargerProgram:
    def test_pinned_thirty_server_program(self):
        # recorded with the list-of-lists tableau; the Fraction reference is too slow here
        rng = random.Random(9)
        while True:
            pattern = random_pattern(rng, n_min=30, n_max=30, m_max=14, x=1, max_rows=280)
            lp = build_capacity_lp(pattern, 1, 0)
            if len(lp.rows) >= 240:
                break
        sol = simplex_min(lp)
        assert (len(lp.rows), sol.pivots, sol.bound_flips) == (249, 95, 20)
        assert sol.optimum == F(12, 5)
        fifths = (1, 4, 10, 12, 13, 16, 19, 21, 22, 24, 25, 29)
        assert sol.vertex == tuple(F(int(j in fifths), 5) for j in range(30))
        assert [k for k in sol.basis if k < 30] == [1, 4, 5, 10, 12, 13, 14, 16, 19, 21, 22,
                                                    24, 25, 29]
        assert len(sol.basis) == 249


class TestOracle:
    def test_single_row_two_vars(self):
        lp = LinearProgram(n_vars=2, rows=((1, 1),))
        verts = enumerate_vertices_oracle(lp)
        assert verts == [(F(0), F(1)), (F(1), F(0)), (F(1), F(1))]

    def test_box_only(self):
        verts = enumerate_vertices_oracle(LinearProgram(n_vars=2, rows=()))
        assert verts == [
            (F(0), F(0)), (F(0), F(1)), (F(1), F(0)), (F(1), F(1))
        ]

    def test_fractional_vertex_appears(self):
        rows = ((1, 1, 1, 0), (1, 1, 0, 1), (1, 0, 1, 1), (0, 1, 1, 1))
        verts = enumerate_vertices_oracle(LinearProgram(n_vars=4, rows=rows))
        assert (F(1, 3),) * 4 in verts

    def test_too_many_vars(self):
        with pytest.raises(ScaleExceeded):
            enumerate_vertices_oracle(LinearProgram(n_vars=9, rows=((1,) * 9,)))

    def test_too_many_rows(self):
        rows = tuple(
            tuple(1 if j in trio else 0 for j in range(8))
            for trio in itertools.combinations(range(8), 3)
        )
        assert len(rows) > 40
        with pytest.raises(ScaleExceeded):
            enumerate_vertices_oracle(LinearProgram(n_vars=8, rows=rows))

    def test_all_vertices_feasible(self):
        rng = random.Random(1101)
        for _ in range(30):
            lp = random_covering_lp(rng, n_max=4, rows_max=6)
            for v in enumerate_vertices_oracle(lp):
                assert all(F(0) <= e <= F(1) for e in v)
                for row in lp.rows:
                    assert sum(e for e, r in zip(v, row) if r) >= 1


class TestSimplexAgainstOracle:
    def test_optimum_and_vertex_match(self):
        rng = random.Random(1102)
        for _ in range(60):
            lp = random_covering_lp(rng, n_max=5, rows_max=8)
            sol = simplex_min(lp)
            verts = enumerate_vertices_oracle(lp)
            best = min(sum(v) for v in verts)
            assert sol.optimum == best
            assert sol.vertex in verts


class TestLcm:
    def test_examples(self):
        assert lcm_of_denominators([F(1, 2), F(1, 2), F(1), F(1), F(1, 2), F(1)]) == 2
        assert lcm_of_denominators(
            [F(1, 2), F(1, 5), F(2, 5), F(1, 2), F(1, 10)]
        ) == 10
        assert lcm_of_denominators([F(3), F(7)]) == 1
        assert lcm_of_denominators([]) == 1

    def test_rejects_floats(self):
        with pytest.raises(TypeError):
            lcm_of_denominators([F(1, 2), 0.5])

    @given(
        st.lists(
            st.fractions(
                min_value=0, max_value=4, max_denominator=30
            ),
            max_size=8,
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_scaling_clears_denominators(self, vec):
        m = lcm_of_denominators(vec)
        assert m >= 1
        assert all((f * m).denominator == 1 for f in vec)
        # m is not just a clearing multiple but the least one: every
        # smaller clearing multiple would divide m // p for a prime p | m
        for p in _prime_factors(m):
            assert not all((f * (m // p)).denominator == 1 for f in vec), (
                f"{m // p} already clears {vec}"
            )


def _prime_factors(n: int) -> set[int]:
    primes, p = set(), 2
    while p * p <= n:
        while n % p == 0:
            primes.add(p)
            n //= p
        p += 1
    if n > 1:
        primes.add(n)
    return primes


class TestInvariantErrors:
    """Checks that stay on under ``python -O``, which strips asserts."""

    def test_vertex_outside_box_rejected(self):
        # the vertex is numerators over one denominator: (2, 0) / 1
        with pytest.raises(InvariantViolation):
            _check_feasible(np.array([2, 0]), 1, np.array([[1, 1]]))

    def test_infeasible_vertex_rejected(self):
        # (1/2, 1/3) = (3, 2) / 6 misses the row; (1/2, 1/2) = (1, 1) / 2 meets it
        with pytest.raises(InvariantViolation):
            _check_feasible(np.array([3, 2]), 6, np.array([[1, 1]]))
        _check_feasible(np.array([1, 1]), 2, np.array([[1, 1]]))

    def test_batched_det_needs_square_matrices(self):
        with pytest.raises(DimensionMismatch):
            _batched_int_det([[[1, 0, 0], [0, 1, 0]]])
