"""Rank certificates against the exhaustive ground-truth audit."""

import dataclasses
import itertools
import random

import pytest

from conftest import random_pattern
from gxstplc import audit, scheme
from gxstplc.audit import (
    AuditReport,
    asymm_scheme_audit,
    exhaustive_independence_audit,
    merged_scheme_audit,
    privacy_rank_certificate,
    security_rank_certificate,
)
from gxstplc.augment import AugmentedSystem, generate_augmented_system
from gxstplc.capacity import asymptotic_capacity
from gxstplc.demos import GRAPH_FOURTEEN, GRAPH_SIX, UNEVEN_NINE, UNEVEN_SEVEN
from gxstplc.errors import DimensionMismatch, ScaleExceeded
from gxstplc.pattern import MessageSet, StoragePattern
from gxstplc.scheme import AsymmConfig, setup, simulate_merged, virtual_config

PAIR = StoragePattern(2, (MessageSet((1, 2)),))
TRIPLE = StoragePattern(3, (MessageSet((1, 2, 3)),))
# sets {1,2,3} and {1,2} (L = 1), and params set up for another system
TWO_SETS = AsymmConfig(StoragePattern(3, (MessageSet((1, 2, 3)), MessageSet((1, 2)))),
                       (1, 1), (0, 0))
FOREIGN = {
    "groups": AsymmConfig(TRIPLE, (1,), (0,)),
    "l_value": AsymmConfig(TWO_SETS.pattern, (0, 0), (0, 0)),
    "n_servers": AsymmConfig(
        StoragePattern(4, (MessageSet((1, 2, 3)), MessageSet((1, 2)))), (1, 1), (0, 0)),
}


# GRAPH_SIX at x = t = 1 with every inflated threshold lowered by one: each
# original server fails every set it holds; server 3 holds copies of both
# sets, servers 4 and 6 only of set 2
_LOWERED_STORAGE = [
    ((1,), 1, "storage: 1 colluders in the group exceed the threshold 0"),
    ((2,), 1, "storage: 1 colluders in the group exceed the threshold 0"),
    ((3,), 1, "storage: 1 colluders in the group exceed the threshold 0"),
    ((3,), 2, "storage: 2 colluders in the group exceed the threshold 1"),
    ((4,), 2, "storage: 2 colluders in the group exceed the threshold 1"),
    ((5,), 1, "storage: 1 colluders in the group exceed the threshold 0"),
    ((6,), 2, "storage: 2 colluders in the group exceed the threshold 1"),
]
LOWERED_SIX = _LOWERED_STORAGE + [(s, m, d.replace("storage", "query"))
                                  for s, m, d in _LOWERED_STORAGE]


def merged_setup(pattern, x, t):
    cap = asymptotic_capacity(pattern, x, t)
    aug = generate_augmented_system(pattern, x, t, cap)
    config = virtual_config(aug)
    return aug, config, setup(config)


class TestCertificates:
    def setup_method(self):
        self.config = AsymmConfig(UNEVEN_NINE, (1, 2), (1, 2))
        self.params = setup(self.config)

    def test_singletons_harmless(self):
        for n in range(1, 10):
            assert security_rank_certificate(self.config, self.params, (n,))
            assert privacy_rank_certificate(self.config, self.params, (n,))

    def test_pair_breaks_tighter_group(self):
        # servers 1 and 2 both replicate set 1, whose thresholds are 1
        assert not security_rank_certificate(self.config, self.params, (1, 2))
        assert not privacy_rank_certificate(self.config, self.params, (1, 2))

    def test_pair_within_looser_group(self):
        # servers 4 and 5 only share set 2, which tolerates two colluders
        assert privacy_rank_certificate(self.config, self.params, (4, 5))

    def test_disjoint_servers_harmless(self):
        # servers 1 and 9 never co-host a set, so each group sees one
        assert security_rank_certificate(self.config, self.params, (1, 9))
        assert privacy_rank_certificate(self.config, self.params, (1, 9))

    @pytest.mark.parametrize("subset", [(0,), (-1,), (10,), (1, 10)])
    def test_unknown_servers_rejected(self, subset):
        # ids outside 1..N once passed, vacuously or through alpha[-1]
        with pytest.raises(DimensionMismatch):
            security_rank_certificate(self.config, self.params, subset)
        with pytest.raises(DimensionMismatch):
            privacy_rank_certificate(self.config, self.params, subset)


    @pytest.mark.parametrize("other", FOREIGN)
    def test_foreign_params_rejected(self, other):
        params = setup(FOREIGN[other], field_override=5)
        with pytest.raises(DimensionMismatch):
            security_rank_certificate(TWO_SETS, params, (1,))
        with pytest.raises(DimensionMismatch):
            privacy_rank_certificate(TWO_SETS, params, (1,))


class TestSchemeAudit:
    def test_uneven_nine_passes(self):
        config = AsymmConfig(UNEVEN_NINE, (1, 2), (1, 2))
        report = asymm_scheme_audit(config, setup(config))
        assert report.passed
        assert report.mode == "rank_certificate"
        assert not report.sampled
        # security: 4 + 21 subsets, privacy the same
        assert report.checked_subsets == 50
        assert report.violations == ()

    def test_colliding_points_cover_too_little_rank(self):
        # servers 4 and 5 share set 2 (thresholds 2); one evaluation point
        # for both leaves their noise rows rank 1
        config = AsymmConfig(UNEVEN_NINE, (1, 2), (1, 2))
        params = setup(config)
        alpha = params.alpha.copy()
        alpha[3] = alpha[4]
        report = asymm_scheme_audit(config, dataclasses.replace(params, alpha=alpha))
        assert not report.passed
        assert report.checked_subsets == 50
        assert [(v.subset, v.message_set, v.detail) for v in report.violations] == [
            ((4, 5), 2, "storage: storage noise covers rank 1 of 2 observed shares"),
            ((4, 5), 2, "query: query noise covers rank 1 of 2 at slot 1"),
        ]

    def test_uneven_seven_notes_absent_promises(self):
        config = AsymmConfig(UNEVEN_SEVEN, (0, 0, 0, 0), (1, 2, 1, 2))
        report = asymm_scheme_audit(config, setup(config))
        assert report.passed
        assert report.checked_subsets == 31
        assert len(report.notes) == 4
        assert all("x=0" in note for note in report.notes)


    @pytest.mark.parametrize("other", FOREIGN)
    def test_foreign_params_rejected(self, other):
        # params for {1,2,3} alone once raised a bare IndexError
        with pytest.raises(DimensionMismatch):
            asymm_scheme_audit(TWO_SETS, setup(FOREIGN[other], field_override=5))


class TestExhaustive:
    def test_single_server_is_independent(self):
        config = AsymmConfig(TRIPLE, (1,), (1,), l_value=1)
        params = setup(config, field_override=5)
        report = exhaustive_independence_audit(config, params, (1,))
        assert report.passed
        assert report.mode == "exhaustive"
        assert any("storage" in note for note in report.notes)
        assert any("query" in note for note in report.notes)

    def test_over_collusion_detected_on_both_sides(self):
        config = AsymmConfig(TRIPLE, (1,), (1,), l_value=1)
        params = setup(config, field_override=5)
        report = exhaustive_independence_audit(config, params, (1, 2))
        assert not report.passed
        sides = {v.detail.split(":")[0] for v in report.violations}
        assert sides == {"storage", "query"}

    def test_unprotected_query_is_visible(self):
        # t = 0 sends coefficients in the clear; the audit must say so
        config = AsymmConfig(PAIR, (1,), (0,))
        params = setup(config, field_override=5)
        report = exhaustive_independence_audit(config, params, (1,), side="query")
        assert not report.passed

    def test_matches_certificates_on_tiny_configs(self):
        cases = [
            AsymmConfig(PAIR, (1,), (0,)),
            AsymmConfig(PAIR, (0,), (1,)),
            AsymmConfig(TRIPLE, (1,), (1,), l_value=1),
            AsymmConfig(TRIPLE, (2,), (0,), l_value=1),
        ]
        for config in cases:
            params = setup(config, field_override=5)
            n = config.n_servers
            for size in range(1, n + 1):
                for subset in itertools.combinations(range(1, n + 1), size):
                    storage = exhaustive_independence_audit(
                        config, params, subset, side="storage"
                    )
                    query = exhaustive_independence_audit(
                        config, params, subset, side="query"
                    )
                    assert storage.passed == security_rank_certificate(
                        config, params, subset
                    ), (config, subset)
                    assert query.passed == privacy_rank_certificate(
                        config, params, subset
                    ), (config, subset)

    def test_scale_guard(self, monkeypatch):
        config = AsymmConfig(UNEVEN_NINE, (1, 2), (1, 2))
        params = setup(config)
        # the guard counts cells from the shapes, before running the protocol once
        monkeypatch.setattr(audit, "_probed_forms", None)
        with pytest.raises(ScaleExceeded):
            exhaustive_independence_audit(config, params, (1,))

    @pytest.mark.parametrize("subset", [(0,), (-1,), (4,), (2, 4)])
    def test_unknown_servers_rejected(self, subset):
        # (0,) audited nothing, (-1,) audited alpha[-1], (4,) raised IndexError
        config = AsymmConfig(TRIPLE, (1,), (1,), l_value=1)
        params = setup(config, field_override=5)
        with pytest.raises(DimensionMismatch):
            exhaustive_independence_audit(config, params, subset)

    @pytest.mark.parametrize("other", FOREIGN)
    def test_foreign_params_rejected(self, other):
        # params for {1,2,3} alone once enumerated 390625 realizations, not 625
        with pytest.raises(DimensionMismatch):
            exhaustive_independence_audit(TWO_SETS, setup(FOREIGN[other], field_override=5),
                                          (1,))

    @pytest.mark.parametrize("pattern, subset", [
        (TRIPLE, ()),
        (StoragePattern(4, (MessageSet((1, 2, 3)),)), (4,)),
    ], ids=["empty-subset", "server-in-no-group"])
    def test_empty_observation_passes(self, pattern, subset):
        config = AsymmConfig(pattern, (1,), (1,), l_value=1)
        report = exhaustive_independence_audit(config, setup(config, field_override=5), subset)
        assert report.passed
        assert report.notes == ("storage: enumerated 25 joint realizations",
                                "query: enumerated 25 joint realizations")

    def test_one_protocol_call_per_side(self, monkeypatch):
        calls = []

        def counting(name):
            real = getattr(audit, name)

            def spy(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)
            return spy

        for name in ("encode_storage", "generate_queries"):
            monkeypatch.setattr(audit, name, counting(name))
        # 4 storage variables and 2 query variables
        report = exhaustive_independence_audit(TWO_SETS, setup(TWO_SETS, field_override=5),
                                               (1, 2))
        assert report.notes == ("storage: enumerated 625 joint realizations",
                                "query: enumerated 25 joint realizations")
        assert calls == ["encode_storage", "generate_queries"]

    def test_unknown_side_rejected(self):
        config = AsymmConfig(PAIR, (1,), (0,))
        params = setup(config, field_override=5)
        with pytest.raises(ValueError):
            exhaustive_independence_audit(config, params, (1,), side="bogus")


def test_rank_audits_build_no_protocol_table():
    # the certificates read only the points and the groups
    config = AsymmConfig(UNEVEN_NINE, (1, 2), (1, 2))
    params = setup(config)
    assert asymm_scheme_audit(config, params).passed
    aug, _, merged = merged_setup(GRAPH_SIX, 1, 1)
    assert merged_scheme_audit(aug, merged, 1, 1).passed
    tables = {"diff", "cauchy", "u", "v"}
    assert not tables & vars(params).keys()
    assert not tables & vars(merged).keys()
    # first use computes each table once and keeps it
    assert all(getattr(params, name) is getattr(params, name) for name in tables)
    assert tables <= vars(params).keys()


class TestMergedAudit:
    def test_six_server_example(self):
        aug, _, params = merged_setup(GRAPH_SIX, 1, 1)
        report = merged_scheme_audit(aug, params, 1, 1)
        assert report.passed
        assert report.checked_subsets == 12
        assert not report.sampled

    def test_lowered_thresholds_name_the_original_subset(self):
        aug, _, params = merged_setup(GRAPH_SIX, 1, 1)
        lowered = dataclasses.replace(
            aug,
            x_bar=tuple(v - 1 for v in aug.x_bar),
            t_bar=tuple(v - 1 for v in aug.t_bar),
        )
        report = merged_scheme_audit(lowered, params, 1, 1)
        assert not report.passed
        assert report.checked_subsets == 12
        found = [(v.subset, v.message_set, v.detail) for v in report.violations]
        assert found == LOWERED_SIX

    def test_passing_audit_rebuilds_nothing(self, monkeypatch):
        # the params are checked against the system's own flat-id table and
        # the walk reads the inflated thresholds off the system, so neither a
        # passing nor a failing audit builds the virtual configuration or
        # asks flat_id
        aug, _, params = merged_setup(GRAPH_SIX, 1, 1)

        def refuse(*args, **kwargs):
            raise AssertionError("the merged audit rebuilt the virtual system")
        monkeypatch.setattr(scheme, "virtual_config", refuse)
        monkeypatch.setattr(AugmentedSystem, "flat_id", refuse)
        assert merged_scheme_audit(aug, params, 1, 1) == AuditReport(
            mode="rank_certificate", checked_subsets=12, violations=(), passed=True)
        lowered = dataclasses.replace(aug, x_bar=tuple(v - 1 for v in aug.x_bar),
                                      t_bar=tuple(v - 1 for v in aug.t_bar))
        report = merged_scheme_audit(lowered, params, 1, 1)
        assert (report.checked_subsets, report.passed, report.sampled) == (12, False, False)
        assert [(v.subset, v.message_set, v.detail) for v in report.violations] == LOWERED_SIX

    @pytest.mark.parametrize("pattern", [GRAPH_SIX, GRAPH_FOURTEEN], ids=["six", "fourteen"])
    def test_passing_run_lists_no_virtual_pairs(self, pattern, monkeypatch):
        # augmentation, the merged round and a passing audit read copy
        # counts and flat ids only: no (n, i) pair of r_bar or virtual_servers
        def refuse(self):
            raise AssertionError("built a table of (n, i) pairs")
        monkeypatch.setattr(AugmentedSystem, "r_bar", property(refuse))
        monkeypatch.setattr(AugmentedSystem, "virtual_servers", property(refuse))
        sim = simulate_merged(pattern, 1, 1, 0)
        assert sim.run.match
        assert merged_scheme_audit(sim.augmented, sim.run.params, 1, 1).passed

    def test_zero_thresholds_noted(self):
        p = StoragePattern(3, (MessageSet((1, 2, 3)),))
        aug, _, params = merged_setup(p, 0, 1)
        report = merged_scheme_audit(aug, params, 0, 1)
        assert report.passed
        assert any("x=0" in note for note in report.notes)

    def test_foreign_params_rejected(self):
        aug, config, _ = merged_setup(GRAPH_SIX, 1, 1)
        other = setup(AsymmConfig(PAIR, (0,), (0,)))
        with pytest.raises(DimensionMismatch):
            merged_scheme_audit(aug, other, 1, 1)
        # the right groups with a smaller L
        fewer = setup(dataclasses.replace(config, l_value=aug.l_value - 1))
        with pytest.raises(DimensionMismatch):
            merged_scheme_audit(aug, fewer, 1, 1)

    def test_thresholds_must_match_the_system(self):
        # at (0, 0) the audit would check nothing, at (3, 3) it would
        # report violations against a sound scheme
        aug, _, params = merged_setup(GRAPH_SIX, 1, 1)
        for x, t in ((0, 0), (3, 3), (1, 0), (0, 1)):
            with pytest.raises(DimensionMismatch):
                merged_scheme_audit(aug, params, x, t)

    def test_sampling_kicks_in_for_wide_systems(self):
        p = StoragePattern(102, (MessageSet(tuple(range(1, 6))),))
        aug, _, params = merged_setup(p, 2, 2)
        report = merged_scheme_audit(aug, params, 2, 2)
        assert report.sampled
        assert report.passed
        assert report.checked_subsets == 1000

    def test_message_counts_cannot_change_the_audit(self):
        # the audit sets up the virtual system with one message per set,
        # simulate_merged with the pattern's counts: both give one scheme
        rng = random.Random(0xA0C7)
        patterns = [GRAPH_SIX, UNEVEN_SEVEN]
        patterns += [random_pattern(rng, n_max=7, m_max=3, count_max=4, x=1, t=1,
                                    max_rows=30) for _ in range(8)]
        for pattern in patterns:
            cap = asymptotic_capacity(pattern, 1, 1)
            aug = generate_augmented_system(pattern, 1, 1, cap)
            ones = setup(virtual_config(aug))
            counted = setup(virtual_config(aug, pattern.counts))
            assert ones == counted
            assert merged_scheme_audit(aug, ones, 1, 1) == merged_scheme_audit(
                aug, counted, 1, 1
            )
