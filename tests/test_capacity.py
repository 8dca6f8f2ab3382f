"""Capacity of the download-allocation program."""

import random
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (NEAR_MISS, TRIANGLES, capacity_with_simplex_calls, random_pattern,
                      simplex_capacity)
from gxstplc import capacity
from gxstplc.capacity import CapacityResult, asymptotic_capacity, build_capacity_lp
from gxstplc.demos import GRAPH_FOURTEEN, GRAPH_SIX
from gxstplc.errors import DegeneratePattern, InvariantViolation
from gxstplc.exactlp import LpSolution, enumerate_vertices_oracle, simplex_min
from gxstplc.pattern import MessageSet, StoragePattern


def full_replication(n: int) -> StoragePattern:
    return StoragePattern(n, (MessageSet(tuple(range(1, n + 1))),))



class TestBuildLp:
    def test_six_server_rows(self):
        lp = build_capacity_lp(GRAPH_SIX, 1, 1)
        assert lp.n_vars == 6
        assert len(lp.rows) == 9
        # pairs from {1,2,3,5} and singletons from {3,4,6}
        assert (1, 1, 0, 0, 0, 0) in lp.rows
        assert (1, 0, 1, 0, 0, 0) in lp.rows
        assert (0, 0, 1, 0, 1, 0) in lp.rows
        assert (0, 0, 1, 0, 0, 0) in lp.rows
        assert (0, 0, 0, 1, 0, 0) in lp.rows
        assert (0, 0, 0, 0, 0, 1) in lp.rows

    def test_duplicate_rows_removed(self):
        p = StoragePattern(2, (MessageSet((1, 2), 1), MessageSet((1, 2), 3)))
        lp = build_capacity_lp(p, 0, 1)
        # both sets contribute the same singleton rows; kept once
        assert len(lp.rows) == len(set(lp.rows)) == 2

    def test_degenerate_group_raises(self):
        with pytest.raises(DegeneratePattern):
            build_capacity_lp(GRAPH_SIX, 2, 1)

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            build_capacity_lp(GRAPH_SIX, -1, 0)
        with pytest.raises(ValueError):
            asymptotic_capacity(GRAPH_SIX, 0, -1)

    @pytest.mark.parametrize("pattern, x, t", [
        (GRAPH_SIX, 2.5, 0.5),   # slack 0: the degenerate path
        (TRIANGLES, 1.0, 1),     # slack 1: the forced path
        (TRIANGLES, 1, 1.0),
    ])
    def test_float_threshold_rejected(self, pattern, x, t):
        with pytest.raises(TypeError):
            build_capacity_lp(pattern, x, t)
        with pytest.raises(TypeError):
            asymptotic_capacity(pattern, x, t)


class TestExamples:
    def test_six_server_exact(self):
        cap = asymptotic_capacity(GRAPH_SIX, 1, 1)
        assert cap.capacity == F(2, 9)
        assert not cap.degenerate
        assert cap.vertex == (F(1, 2), F(1, 2), F(1), F(1), F(1, 2), F(1))
        assert cap.l_value == 2
        assert cap.tau == (1, 1, 2, 2, 1, 2)
        assert cap.total_downloads == 9

    def test_six_server_vertex_unique_optimum(self):
        lp = build_capacity_lp(GRAPH_SIX, 1, 1)
        verts = enumerate_vertices_oracle(lp)
        best = min(sum(v, F(0)) for v in verts)
        winners = [v for v in verts if sum(v, F(0)) == best]
        assert winners == [(F(1, 2), F(1, 2), F(1), F(1), F(1, 2), F(1))]

    def test_fourteen_server_exact(self):
        cap = asymptotic_capacity(GRAPH_FOURTEEN, 1, 1)
        assert cap.capacity == F(5, 22)
        assert cap.l_value == 10
        assert cap.total_downloads == 44
        assert cap.capacity == F(cap.l_value, cap.total_downloads)

    def test_full_replication_four_servers(self):
        cap = asymptotic_capacity(full_replication(4), 0, 1)
        assert cap.capacity == F(3, 4)
        assert cap.vertex == (F(1, 3),) * 4
        assert cap.l_value == 3
        assert cap.tau == (1, 1, 1, 1)

    def test_full_replication_formula(self):
        # with x + t absorbed, capacity is (n - x - t) / n
        for n in range(2, 7):
            for x in range(0, 2):
                for t in range(0, 2):
                    if n - x - t <= 0:
                        continue
                    cap = asymptotic_capacity(full_replication(n), x, t)
                    assert cap.capacity == F(n - x - t, n)

    def test_single_server(self):
        cap = asymptotic_capacity(full_replication(1), 0, 0)
        assert cap.capacity == F(1)
        assert cap.tau == (1,)
        assert cap.l_value == 1

    def test_disjoint_groups(self):
        p = StoragePattern(4, (MessageSet((1, 2)), MessageSet((3, 4))))
        cap = asymptotic_capacity(p, 0, 0)
        assert cap.capacity == F(1, 2)


class TestClosedForms:
    """Capacities with a closed form, at sizes the examples do not reach."""

    @pytest.mark.parametrize("x, t", [(1, 1), (2, 0), (0, 2), (2, 1)])
    def test_one_group(self, x, t):
        # from rho = x + t (no decodable subset: capacity 0) up to 220 rows
        for rho in range(x + t, 13):
            cap = asymptotic_capacity(full_replication(rho), x, t)
            assert cap.capacity == F(rho - x - t, rho)

    @pytest.mark.parametrize("rho, pivots, flips",
                             [(15, 161, 11), (19, 564, 15), (23, 2123, 19)])
    def test_one_group_pivot_counts(self, rho, pivots, flips):
        # Bland's rule stalls on a symmetric group: pinned so that the path stays put
        sol = simplex_min(build_capacity_lp(full_replication(rho), 1, 1))
        assert (sol.pivots, sol.bound_flips) == (pivots, flips)
        assert sol.optimum == F(rho, rho - 2)

    @pytest.mark.parametrize("x, t, expected", [(1, 0, F(12, 49)), (1, 1, F(3, 20))])
    def test_disjoint_groups(self, x, t, expected):
        # groups of 4, 5 and 3 servers: 1 / sum_m rho_m / (rho_m - x - t)
        p = StoragePattern(12, (MessageSet((1, 2, 3, 4)), MessageSet((5, 6, 7, 8, 9)),
                                MessageSet((10, 11, 12))))
        cap = asymptotic_capacity(p, x, t)
        assert cap.capacity == expected
        assert cap.capacity == 1 / sum(F(rho, rho - x - t) for rho in p.replication_factors)

    def test_depends_on_x_plus_t_only(self):
        rng = random.Random(3304)
        for _ in range(20):
            x, t = rng.randint(0, 2), rng.randint(0, 2)
            p = random_pattern(rng, n_max=7, m_max=3, x=x, t=t, max_rows=60)
            assert asymptotic_capacity(p, x, t) == asymptotic_capacity(p, x + t, 0)


def spy_on_lp(monkeypatch) -> list[str]:
    """Records each call asymptotic_capacity makes to build_capacity_lp and simplex_min."""
    calls = []
    build, solve = capacity.build_capacity_lp, capacity.simplex_min
    monkeypatch.setattr(capacity, "build_capacity_lp",
                        lambda p, x, t: calls.append("build") or build(p, x, t))
    monkeypatch.setattr(capacity, "simplex_min", lambda lp: calls.append("simplex") or solve(lp))
    return calls


@st.composite
def slack_one_programs(draw):
    """(pattern, x, t) with one to three groups of slack 1 (their union is F),
    plus groups of slack >= 2 covered through F (fewer servers outside F than
    their slack), near misses (exactly their slack outside F) and free groups."""
    x, t = draw(st.integers(0, 2)), draw(st.integers(0, 2))
    n = draw(st.integers(x + t + 1, 12))
    servers = range(1, n + 1)

    def some(pool, k):
        return draw(st.permutations(pool))[:k]

    groups = [some(servers, x + t + 1) for _ in range(draw(st.integers(1, 3)))]
    forced = sorted(set().union(*groups))
    outside = [s for s in servers if s not in forced]
    for kind in draw(st.lists(st.sampled_from(("covered", "near-miss", "free")), max_size=3)):
        if kind == "free":
            groups.append(some(servers, draw(st.integers(x + t + 1, n))))
            continue
        # a group of slack k >= 2 with o of its servers outside F
        lowest = 2 if kind == "near-miss" else 0
        if len(outside) < lowest:
            continue
        o = draw(st.integers(lowest, len(outside)))
        if kind == "near-miss":
            k = o
        elif max(2, o + 1) <= len(forced) - x - t + o:
            k = draw(st.integers(max(2, o + 1), len(forced) - x - t + o))
        else:
            continue
        groups.append(some(forced, x + t + k - o) + some(outside, o))
    return StoragePattern(n, tuple(MessageSet(tuple(g)) for g in groups)), x, t


class TestForcedProgram:
    """Programs that the singleton rows decide, solved without the simplex."""

    def test_indicator_of_the_forced_servers(self):
        assert asymptotic_capacity(TRIANGLES, 1, 1) == CapacityResult(
            capacity=F(1, 6), degenerate=False, vertex=(F(1),) * 6, l_value=1, tau=(1,) * 6)

    @settings(max_examples=300, deadline=None)
    @given(slack_one_programs())
    @example((NEAR_MISS, 1, 0))
    @example((TRIANGLES, 2, 0))
    # F = {1, 2, 3, 4}; set 3 has slack 3 and only server 5 outside F
    @example((StoragePattern(6, (MessageSet((1, 2)), MessageSet((3, 4)),
                                 MessageSet((1, 2, 3, 5)))), 0, 1))
    def test_matches_the_simplex_on_the_full_row_list(self, program):
        p, x, t = program
        cap, calls = capacity_with_simplex_calls(p, x, t)
        reference = simplex_capacity(p, x, t)
        assert cap == reference
        # the rule holds iff the simplex's vertex is the indicator of F
        forced = set().union(*(ms.servers for ms in p.message_sets
                               if len(ms.servers) - x - t == 1))
        indicator = tuple(F(n in forced) for n in range(1, p.n_servers + 1))
        assert calls == (reference.vertex != indicator)

    def test_audit_sized_program_builds_no_row(self, monkeypatch):
        # shaped like the merged audits: 48 groups of x + t + 1 = 5 on 60 servers
        rng = random.Random(7919)
        p = StoragePattern(60, tuple(MessageSet(tuple(rng.sample(range(1, 61), 5)),
                                                rng.randint(1, 2)) for _ in range(48)))
        calls = spy_on_lp(monkeypatch)
        cap = asymptotic_capacity(p, 2, 2)
        assert calls == []
        covered = set().union(*(ms.servers for ms in p.message_sets))
        assert cap.tau == tuple(int(n in covered) for n in range(1, 61))
        assert cap.capacity == F(1, len(covered))

    def test_surviving_row_solves_once(self, monkeypatch):
        # GRAPH_SIX at (1, 1): slack 1 on {3, 4, 6}, but the row {1, 2} misses it
        calls = spy_on_lp(monkeypatch)
        assert asymptotic_capacity(GRAPH_SIX, 1, 1).capacity == F(2, 9)
        assert calls == ["build", "simplex"]


class TestDegenerate:
    def test_zero_capacity_result(self):
        cap = asymptotic_capacity(GRAPH_SIX, 2, 2)
        assert cap.capacity == F(0)
        assert cap.degenerate
        assert cap.vertex is None
        assert cap.l_value is None
        assert cap.tau is None
        assert cap.total_downloads is None

    def test_boundary_is_degenerate(self):
        # |R_2| = 3 and x + t = 3 leaves no decodable subset
        cap = asymptotic_capacity(GRAPH_SIX, 2, 1)
        assert cap.degenerate


class TestInvariants:
    def test_rate_identity_and_box(self):
        rng = random.Random(3301)
        for _ in range(25):
            x = rng.randint(0, 2)
            t = rng.randint(0, 2)
            p = random_pattern(rng, n_max=6, m_max=3, x=x, t=t, max_rows=30)
            cap = asymptotic_capacity(p, x, t)
            assert 0 < cap.capacity <= 1
            assert all(0 <= d <= 1 for d in cap.vertex)
            assert cap.capacity == F(cap.l_value, cap.total_downloads)
            assert all(tn >= 0 for tn in cap.tau)

    def test_capacity_monotone_in_thresholds(self):
        rng = random.Random(3302)
        for _ in range(15):
            p = random_pattern(rng, n_max=6, m_max=2, x=1, t=1, max_rows=30)
            base = asymptotic_capacity(p, 0, 0).capacity
            tighter = asymptotic_capacity(p, 1, 1).capacity
            assert tighter <= base

    def test_matches_lp_reciprocal(self):
        rng = random.Random(3303)
        for _ in range(10):
            x = rng.randint(0, 1)
            t = rng.randint(0, 1)
            p = random_pattern(rng, n_max=5, m_max=3, x=x, t=t, max_rows=20)
            cap = asymptotic_capacity(p, x, t)
            sol = simplex_min(build_capacity_lp(p, x, t))
            assert cap.capacity == 1 / sol.optimum


class TestWrongVertex:
    """A wrong solver result raises InvariantViolation, also under ``-O``."""

    @pytest.mark.parametrize("vertex, optimum", [
        ((F(2),) + (F(1),) * 5, F(7)),   # outside the unit box
        ((F(1, 2),) * 6, F(1)),          # capacity is not L / sum(tau)
    ])
    def test_rejected(self, monkeypatch, vertex, optimum):
        monkeypatch.setattr(capacity, "simplex_min",
                            lambda lp: LpSolution(optimum=optimum, vertex=vertex, basis=(),
                                                  pivots=0, bound_flips=0))
        with pytest.raises(InvariantViolation):
            asymptotic_capacity(GRAPH_SIX, 1, 1)

    @pytest.mark.parametrize("vertex, match", [
        ((F(1),) * 5 + (F(0),), "misses a covering row"),   # the row {6} is uncovered
        ((F(2),) + (F(1),) * 5, "unit box"),
    ])
    def test_forced_vertex_rejected(self, monkeypatch, vertex, match):
        monkeypatch.setattr(capacity, "_forced_vertex", lambda p, x, t: vertex)
        with pytest.raises(InvariantViolation, match=match):
            asymptotic_capacity(TRIANGLES, 1, 1)

    def test_fractional_download_rejected(self, monkeypatch):
        # the six-server vertex has halves, which L = 1 cannot clear
        monkeypatch.setattr(capacity, "lcm_of_denominators", lambda vertex: 1)
        with pytest.raises(InvariantViolation):
            asymptotic_capacity(GRAPH_SIX, 1, 1)

    def test_tau_not_in_lowest_terms_rejected(self, monkeypatch):
        # twice the lcm doubles L and every tau_n and keeps L / sum(tau)
        # at the capacity, so only the lowest-terms check can see it
        lcm = capacity.lcm_of_denominators
        monkeypatch.setattr(capacity, "lcm_of_denominators", lambda vertex: 2 * lcm(vertex))
        with pytest.raises(InvariantViolation, match="lowest terms"):
            asymptotic_capacity(GRAPH_FOURTEEN, 1, 1)
