"""Virtual-server augmentation and the merged download plan."""

import dataclasses
import random
from fractions import Fraction as F
from functools import cached_property

import pytest

from conftest import random_pattern
from gxstplc import capacity
from gxstplc.augment import (
    AugmentedSystem,
    collusion_exposure,
    generate_augmented_system,
    merged_query_plan,
)
from gxstplc.capacity import CapacityResult, asymptotic_capacity
from gxstplc.demos import GRAPH_FOURTEEN, GRAPH_SIX
from gxstplc.errors import DegenerateInput, DimensionMismatch, InvariantViolation
from gxstplc.exactlp import LpSolution
from gxstplc.pattern import min_replication_slack
from gxstplc.scheme import virtual_config


def six_server_system():
    cap = asymptotic_capacity(GRAPH_SIX, 1, 1)
    return generate_augmented_system(GRAPH_SIX, 1, 1, cap)


# the published optimal allocation for the fourteen-server pattern; the
# simplex may settle on a different optimal vertex, so tests that depend
# on this exact profile feed it in by hand
FOURTEEN_TAU = (5, 2, 4, 5, 1, 2, 5, 5, 5, 2, 2, 2, 2, 2)


def fourteen_server_system():
    cap = CapacityResult(
        capacity=F(5, 22),
        degenerate=False,
        vertex=tuple(F(tn, 10) for tn in FOURTEEN_TAU),
        l_value=10,
        tau=FOURTEEN_TAU,
    )
    return generate_augmented_system(GRAPH_FOURTEEN, 1, 1, cap)


class TestSixServer:
    def test_inflation_and_thresholds(self):
        a = six_server_system()
        assert a.gamma == (1, 2)
        assert a.x_bar == (1, 2)
        assert a.t_bar == (1, 2)
        assert a.l_value == 2

    def test_virtual_layout(self):
        a = six_server_system()
        assert a.n_virtual == 9
        assert a.virtual_servers == (
            (1, 1), (2, 1), (3, 1), (3, 2), (4, 1), (4, 2), (5, 1), (6, 1), (6, 2)
        )
        assert a.flat_id((3, 2)) == 4
        assert a.flat_id((6, 2)) == 9

    def test_exposed_copies(self):
        a = six_server_system()
        assert a.exposed((3,)) == (3, 4)
        assert a.exposed((1, 6)) == (1, 8, 9)
        assert a.exposed(()) == ()

    def test_flat_groups(self):
        a = six_server_system()
        assert a.flat_groups == ((1, 2, 3, 7), (3, 4, 5, 6, 8, 9))
        p = a.virtual_pattern()
        assert p.n_servers == 9
        assert p.servers_of(1) == (1, 2, 3, 7)
        assert p.servers_of(2) == (3, 4, 5, 6, 8, 9)

    def test_flat_group_table_built_once(self, monkeypatch):
        # a spy in place of the cached table: two virtual patterns and the
        # merged plan read one build of it
        calls = []
        table = AugmentedSystem.flat_groups.func
        spy = cached_property(lambda a: calls.append(a) or table(a))
        spy.__set_name__(AugmentedSystem, "flat_groups")
        monkeypatch.setattr(AugmentedSystem, "flat_groups", spy)
        a = six_server_system()
        assert a.virtual_pattern() == a.virtual_pattern()
        merged_query_plan(a)
        assert calls == [a]

    def test_virtual_slack_equals_l(self):
        a = six_server_system()
        p = a.virtual_pattern()
        for m in range(1, p.m_count + 1):
            assert len(p.servers_of(m)) - a.x_bar[m - 1] - a.t_bar[m - 1] >= a.l_value
        slacks = [
            len(p.servers_of(m)) - a.x_bar[m - 1] - a.t_bar[m - 1]
            for m in range(1, p.m_count + 1)
        ]
        assert min(slacks) == a.l_value

    def test_plan_for_shared_server(self):
        plans = merged_query_plan(six_server_system())
        p3 = plans[2]
        assert p3.server == 3
        assert p3.downloads == 2
        assert p3.virtual_ids == (3, 4)
        # the first copy of server 3 serves both sets, the second only set 2
        assert p3.sets_per_copy == ((1, 2), (2,))

    def test_plan_downloads_sum(self):
        a = six_server_system()
        plans = merged_query_plan(a)
        assert sum(pl.downloads for pl in plans) == 9
        assert [pl.downloads for pl in plans] == list(a.tau)

    def test_exposure_example(self):
        a = six_server_system()
        assert collusion_exposure(a, (3,)) == (1, 2)
        assert collusion_exposure(a, (1,)) == (1, 0)
        assert collusion_exposure(a, ()) == (0, 0)


class TestFourteenServer:
    def test_published_profile(self):
        a = fourteen_server_system()
        assert a.n_virtual == 44
        assert a.tau[0] == 5
        assert len([vs for vs in a.virtual_servers if vs[0] == 1]) == 5
        assert a.gamma == (5, 5, 4, 2)
        assert a.x_bar == (5, 5, 4, 2)
        assert a.t_bar == (5, 5, 4, 2)

    def test_virtual_group_sizes(self):
        a = fourteen_server_system()
        assert tuple(len(g) for g in a.r_bar) == (20, 20, 18, 14)

    def test_exposure_single_colluder(self):
        a = fourteen_server_system()
        assert collusion_exposure(a, (1,)) == (5, 5, 0, 0)

    def test_pipeline_vertex_also_valid(self):
        # whatever optimal vertex the simplex picks must satisfy the same
        # structural guarantees
        cap = asymptotic_capacity(GRAPH_FOURTEEN, 1, 1)
        a = generate_augmented_system(GRAPH_FOURTEEN, 1, 1, cap)
        assert a.n_virtual == 44
        assert a.l_value == 10
        p = a.virtual_pattern()
        slacks = [
            len(p.servers_of(m)) - a.x_bar[m - 1] - a.t_bar[m - 1]
            for m in range(1, p.m_count + 1)
        ]
        assert min(slacks) == 10


class TestValidation:
    def test_degenerate_capacity_rejected(self):
        cap = asymptotic_capacity(GRAPH_SIX, 2, 2)
        with pytest.raises(DegenerateInput):
            generate_augmented_system(GRAPH_SIX, 2, 2, cap)

    def test_mismatched_profile_rejected(self):
        cap = CapacityResult(
            capacity=F(1, 2), degenerate=False,
            vertex=(F(1), F(1)), l_value=1, tau=(1, 1),
        )
        with pytest.raises(DegenerateInput):
            generate_augmented_system(GRAPH_SIX, 1, 1, cap)

    def test_infeasible_vertex_leaves_too_few_slots(self, monkeypatch):
        # D_n = 1/10 everywhere passes the capacity checks (L = 10,
        # tau = 1, capacity 10/6) but covers no group: nu < L
        vertex = (F(1, 10),) * 6
        monkeypatch.setattr(capacity, "simplex_min",
                            lambda lp: LpSolution(optimum=F(6, 10), vertex=vertex, basis=(),
                                                  pivots=0, bound_flips=0))
        cap = asymptotic_capacity(GRAPH_SIX, 1, 1)
        assert (cap.l_value, cap.tau) == (10, (1,) * 6)
        with pytest.raises(InvariantViolation):
            generate_augmented_system(GRAPH_SIX, 1, 1, cap)

    def test_bad_colluders_rejected(self):
        a = six_server_system()
        with pytest.raises(ValueError):
            collusion_exposure(a, (0,))
        with pytest.raises(ValueError):
            collusion_exposure(a, (7,))
        with pytest.raises(ValueError):
            collusion_exposure(a, (3, 3))

    @pytest.mark.parametrize("counts", [(2,), (2, 2, 2)], ids=["one-short", "one-over"])
    def test_one_count_per_set(self, counts):
        # before, the extra count or the second set was silently dropped
        a = six_server_system()
        with pytest.raises(DimensionMismatch):
            a.virtual_pattern(counts)
        with pytest.raises(DimensionMismatch):
            virtual_config(a, counts)
        assert a.virtual_pattern((2, 3)).counts == (2, 3)

    def test_bad_flat_id_rejected(self):
        a = six_server_system()
        with pytest.raises(ValueError):
            a.flat_id((1, 2))

    @pytest.mark.parametrize("originals", [(0,), (7,), (1, 7), (3, 3)])
    def test_unknown_originals_not_exposed(self, originals):
        with pytest.raises(ValueError):
            six_server_system().exposed(originals)


class TestDerivedTables:
    def test_record_holds_only_what_augmentation_chooses(self):
        assert [f.name for f in dataclasses.fields(AugmentedSystem)] == [
            "groups", "x", "t", "l_value", "tau", "gamma", "x_bar", "t_bar"]
        a = six_server_system()
        assert a.groups == (GRAPH_SIX.servers_of(1), GRAPH_SIX.servers_of(2))
        assert (a.n_original, a.n_virtual) == (6, 9)
        assert a.delta == (((1, 1), (2, 1), (3, 1), (5, 1)),
                           ((3, 2), (4, 2), (6, 2)))

    @pytest.mark.parametrize("pattern,other", [
        (GRAPH_SIX, (1, 0)), (GRAPH_FOURTEEN, (1, 2))], ids=["six", "fourteen"])
    def test_tables_follow_a_replace(self, pattern, other):
        # the tables of a, once built, stay on a: a copy that takes another
        # system's choices derives that system's tables
        a = generate_augmented_system(pattern, 1, 1, asymptotic_capacity(pattern, 1, 1))
        b = generate_augmented_system(pattern, *other, asymptotic_capacity(pattern, *other))
        tables = ("delta", "r_bar", "flat_groups", "virtual_servers")
        before = [getattr(a, name) for name in tables]
        assert before != [getattr(b, name) for name in tables]
        copy = dataclasses.replace(a, tau=b.tau, gamma=b.gamma, x_bar=b.x_bar, t_bar=b.t_bar)
        assert [getattr(copy, name) for name in tables] == [getattr(b, name) for name in tables]
        assert (copy.n_virtual, copy.virtual_pattern()) == (b.n_virtual, b.virtual_pattern())
        assert [getattr(a, name) for name in tables] == before


class TestInvariants:
    def test_exposure_bounded_and_slack_exact(self):
        rng = random.Random(4401)
        for _ in range(30):
            x = rng.randint(0, 2)
            t = rng.randint(0, 2)
            p = random_pattern(rng, n_max=6, m_max=3, x=x, t=t, max_rows=30)
            assert min_replication_slack(p, x, t) >= 1
            cap = asymptotic_capacity(p, x, t)
            a = generate_augmented_system(p, x, t, cap)
            assert a.n_virtual == cap.total_downloads
            vp = a.virtual_pattern()
            slacks = [
                len(vp.servers_of(m)) - a.x_bar[m - 1] - a.t_bar[m - 1]
                for m in range(1, vp.m_count + 1)
            ]
            assert min(slacks) == a.l_value
            for size in (1, min(2, p.n_servers)):
                for _ in range(4):
                    coll = tuple(sorted(rng.sample(range(1, p.n_servers + 1), size)))
                    exposure = collusion_exposure(a, coll)
                    for m, e in enumerate(exposure):
                        assert e <= size * a.gamma[m]

    def test_flat_ids_are_contiguous(self):
        rng = random.Random(4402)
        for _ in range(10):
            p = random_pattern(rng, n_max=5, m_max=2, x=1, t=0, max_rows=20)
            cap = asymptotic_capacity(p, 1, 0)
            a = generate_augmented_system(p, 1, 0, cap)
            ids = [a.flat_id(vs) for vs in a.virtual_servers]
            assert ids == list(range(1, a.n_virtual + 1))
