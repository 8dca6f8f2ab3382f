"""Protocol round-trips and the algebraic identities behind decoding."""

import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conftest import random_config
from gxstplc import scheme
from gxstplc.demos import GRAPH_SIX, UNEVEN_NINE, UNEVEN_SEVEN
from gxstplc.errors import (
    DegenerateConfig,
    DegenerateInput,
    DimensionMismatch,
    DuplicateNodes,
    FieldTooSmall,
)
from gxstplc.ff import PrimeField
from gxstplc.pattern import MessageSet, StoragePattern
from gxstplc.scheme import (
    AsymmConfig,
    CoefficientBank,
    FieldSampler,
    MessageBank,
    QueryBank,
    ShareBank,
    alignment_identity_check,
    cauchy_vandermonde_check,
    collect_answers,
    dual_grs_weights,
    encode_storage,
    expected_combination,
    generate_queries,
    reconstruct,
    run_protocol,
    setup,
    simulate,
    simulate_merged,
    stored_symbols,
)

PAIR = StoragePattern(2, (MessageSet((1, 2)),))
TRIPLE = StoragePattern(3, (MessageSet((1, 2, 3)),))


def zero_bank(config, params):
    return MessageBank.from_ints(
        config, params, [[[0] * params.l_value] * k for k in config.counts]
    )


def zero_noise(config, params, depths):
    return tuple(
        np.zeros((d, params.l_value, k), dtype=np.int64)
        for d, k in zip(depths, config.counts)
    )


class TestConfig:
    def test_threshold_length_checked(self):
        with pytest.raises(DimensionMismatch):
            AsymmConfig(GRAPH_SIX, (1,), (1, 1))

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            AsymmConfig(PAIR, (-1,), (0,))

    def test_zero_slack_rejected(self):
        with pytest.raises(DegenerateConfig):
            AsymmConfig(PAIR, (1,), (1,))

    def test_l_value_bounds(self):
        with pytest.raises(DegenerateConfig):
            AsymmConfig(TRIPLE, (1,), (0,), l_value=3)
        with pytest.raises(DegenerateConfig):
            AsymmConfig(TRIPLE, (1,), (0,), l_value=0)
        assert AsymmConfig(TRIPLE, (1,), (0,), l_value=1).l_effective == 1

    def test_thresholds_and_l_value_are_ints(self):
        for bad in ({"x_vec": (1.0,)}, {"t_vec": (1.5,)}, {"l_value": 1.0}):
            with pytest.raises(TypeError):
                AsymmConfig(**{"pattern": TRIPLE, "x_vec": (1,), "t_vec": (0,)} | bad)
        config = AsymmConfig(TRIPLE, (np.int64(1),), [np.int32(0)], l_value=np.int64(1))
        assert config == AsymmConfig(TRIPLE, (1,), (0,), l_value=1)
        assert all(type(v) is int for v in config.x_vec + config.t_vec + (config.l_value,))

    def test_l_effective_default_is_min_slack(self):
        config = AsymmConfig(UNEVEN_SEVEN, (0, 0, 0, 0), (1, 2, 1, 2))
        assert config.l_effective == 2

    def test_uniform_builder(self):
        config = AsymmConfig.uniform(GRAPH_SIX, 1, 1)
        assert config.x_vec == (1, 1)
        assert config.t_vec == (1, 1)
        assert config.l_effective == 1


class TestSetup:
    def test_default_field_sizes(self):
        assert setup(AsymmConfig.uniform(GRAPH_SIX, 1, 1)).field.q == 7
        config = AsymmConfig(UNEVEN_SEVEN, (0, 0, 0, 0), (1, 2, 1, 2))
        assert setup(config).field.q == 11

    def test_evaluation_points(self):
        params = setup(AsymmConfig.uniform(TRIPLE, 0, 0))
        # three servers, three decoded slots: seven points needed
        assert params.field.q == 7
        assert params.alpha.tolist() == [1, 2, 3]
        assert params.f.tolist() == [4, 5, 6]

    def test_group_constants(self):
        params = setup(AsymmConfig.uniform(TRIPLE, 0, 0))
        # u_{1,1} = (4-1)(4-2)(4-3) and v_{1,1} = ((1-2)(1-3))^{-1} in F_7
        assert params.u[0, 0] == 6
        assert params.v[0][0] == pow(2, 5, 7) == 4
        assert params.group_of(1) == (1, 2, 3)

    def test_override_accepted(self):
        params = setup(AsymmConfig.uniform(TRIPLE, 0, 0), field_override=13)
        assert params.field.q == 13

    def test_override_too_small(self):
        with pytest.raises(FieldTooSmall):
            setup(AsymmConfig.uniform(TRIPLE, 0, 0), field_override=5)

    def test_override_composite(self):
        with pytest.raises(ValueError):
            setup(AsymmConfig.uniform(TRIPLE, 0, 0), field_override=9)


class TestEncode:
    def test_share_values_by_hand(self):
        config = AsymmConfig(PAIR, (1,), (0,))
        params = setup(config, field_override=5)
        messages = MessageBank.from_ints(config, params, [[[2]]])
        noise = (np.array([[[1]]]),)
        shares = encode_storage(config, params, messages, noise=noise)
        # server 1: 2/(1-3) + 1 = 0, server 2: 2/(2-3) + 1 = 4 in F_5
        assert shares.blocks[0].tolist() == [[[0]], [[4]]]

    def test_zero_messages_zero_noise_give_zero_shares(self):
        config = AsymmConfig(UNEVEN_NINE, (1, 2), (1, 2))
        params = setup(config)
        shares = encode_storage(
            config, params, zero_bank(config, params),
            noise=zero_noise(config, params, config.x_vec),
        )
        assert all(not block.any() for block in shares.blocks)

    def test_query_without_privacy_is_plain(self):
        config = AsymmConfig(PAIR, (0,), (0,), l_value=1)
        params = setup(config, field_override=5)
        coeffs = CoefficientBank.from_ints(config, params, [[[3]]])
        queries = generate_queries(
            config, params, coeffs, noise=zero_noise(config, params, config.t_vec)
        )
        # u = (3-1)(3-2) = 2, so both servers see 2 * 3 = 1 in F_5
        assert queries.blocks[0].tolist() == [[[1]], [[1]]]

    def test_query_values_by_hand(self):
        config = AsymmConfig(PAIR, (0,), (1,))
        params = setup(config, field_override=5)
        coeffs = CoefficientBank.from_ints(config, params, [[[3]]])
        noise = (np.array([[[1]]]),)
        queries = generate_queries(config, params, coeffs, noise=noise)
        # u lam = 1; server n adds (alpha_n - 3) * 1
        assert queries.blocks[0].tolist() == [[[4]], [[0]]]

    def test_bank_shape_validation(self):
        config = AsymmConfig(UNEVEN_NINE, (1, 2), (1, 2))
        params = setup(config)
        with pytest.raises(DimensionMismatch):
            MessageBank.from_ints(config, params, [[[1, 2]]])
        good = [[[1] * 2] * 2, [[1] * 2] * 2]
        assert MessageBank.from_ints(config, params, good)
        bad_l = [[[1] * 3] * 2, [[1] * 2] * 2]
        with pytest.raises(DimensionMismatch):
            MessageBank.from_ints(config, params, bad_l)
        ragged = [[[1, 1], [1]], [[1] * 2] * 2]
        with pytest.raises(DimensionMismatch):
            MessageBank.from_ints(config, params, ragged)

    def test_bank_reduces_integers_beyond_int64(self):
        config = AsymmConfig(UNEVEN_NINE, (1, 2), (1, 2))
        params = setup(config)
        q = params.field.q
        big = [[[2**70, -(2**65)]] * 2, [[2**64 + 3, 5]] * 2]
        small = [[[2**70 % q, -(2**65) % q]] * 2, [[(2**64 + 3) % q, 5]] * 2]
        assert MessageBank.from_ints(config, params, big) == \
            MessageBank.from_ints(config, params, small)

    def test_bank_rejects_entries_that_are_not_integers(self):
        config = AsymmConfig(PAIR, (0,), (0,))
        params = setup(config)
        for bad in ([[[1.7, 2.2]]], [[["3", "4"]]], [[[1, 2.0]]],
                    [np.array([[1.0, 2.0]])]):
            with pytest.raises(TypeError):
                MessageBank.from_ints(config, params, bad)
            with pytest.raises(TypeError):
                CoefficientBank.from_ints(config, params, bad)

    def test_bank_takes_bools_numpy_integers_and_wide_ints(self):
        config = AsymmConfig(PAIR, (0,), (0,))
        params = setup(config)
        q = params.field.q
        expected = MessageBank.from_ints(config, params, [[[1, 3]]])
        for same in ([[[True, np.int64(3)]]], [np.array([[1, 3]], dtype=np.int32)],
                     [[[np.uint64(1), 3 + 5 * q]]]):
            assert MessageBank.from_ints(config, params, same) == expected
        # a mix that numpy would infer as float64 stays exact
        wide = MessageBank.from_ints(config, params, [[[2**63, -1]]])
        assert wide.values[0].tolist() == [[2**63 % q, q - 1]]

    def test_noise_rejects_entries_that_are_not_integers(self):
        config = AsymmConfig(TRIPLE, (1,), (1,))
        params = setup(config, field_override=5)
        messages = zero_bank(config, params)
        coeffs = CoefficientBank.from_ints(config, params, [[[0]]])
        for bad in (([[[0.5]]],), ([[["1"]]],)):
            with pytest.raises(TypeError):
                encode_storage(config, params, messages, noise=bad)
            with pytest.raises(TypeError):
                generate_queries(config, params, coeffs, noise=bad)
        noise = ([[[np.int64(7)]]],)
        assert encode_storage(config, params, messages, noise=noise).noise[0].tolist() == [[[2]]]

    def test_noise_shape_validation(self):
        config = AsymmConfig(PAIR, (1,), (0,))
        params = setup(config)
        messages = zero_bank(config, params)
        with pytest.raises(DimensionMismatch):
            encode_storage(config, params, messages, noise=())
        bad_vec = (np.zeros((1, 1, 2), dtype=np.int64),)
        with pytest.raises(DimensionMismatch):
            encode_storage(config, params, messages, noise=bad_vec)
        ragged = ([[[0], [0, 0]]],)
        with pytest.raises(DimensionMismatch):
            encode_storage(config, params, messages, noise=ragged)

    def test_arrays_are_read_only(self):
        config = AsymmConfig(UNEVEN_NINE, (1, 2), (1, 2))
        params = setup(config)
        messages = MessageBank.random(config, params, 3)
        shares = encode_storage(config, params, messages, 4)
        for array in (params.alpha, params.u, messages.values[0], shares.blocks[1],
                      shares.noise[0]):
            with pytest.raises(ValueError):
                array[0] = 1

    def test_bank_equality_is_by_value(self):
        config = AsymmConfig(UNEVEN_NINE, (1, 2), (1, 2))
        params = setup(config)
        nested = [[[1, 2], [3, 4]], [[5, 6], [7, 8]]]
        assert MessageBank.from_ints(config, params, nested) == MessageBank.from_ints(
            config, params, nested
        )
        assert MessageBank.from_ints(config, params, nested) != CoefficientBank.from_ints(
            config, params, nested
        )
        assert setup(config) == params
        assert setup(config, field_override=101) != params


def random_stack(config, params, lead, batch, seed):
    """Residue arrays [*batch, lead_m, L, K_m] per set ([*batch, K_m, L]
    without lead), drawn from one generator."""
    rng = np.random.default_rng(seed)
    shapes = scheme._shapes(config, params.l_value, lead, batch)
    return tuple(rng.integers(0, params.field.q, size=shape) for shape in shapes)


PROTOCOLS = {
    "storage": (encode_storage, MessageBank, lambda config: config.x_vec),
    "query": (generate_queries, CoefficientBank, lambda config: config.t_vec),
}


class TestBatch:
    # two messages per set, L = 2, and depth 0 on the query side of set 2
    CONFIG = AsymmConfig(UNEVEN_NINE, (1, 2), (1, 0))

    @pytest.mark.parametrize("side", PROTOCOLS)
    def test_batch_of_one_is_the_unbatched_call(self, side):
        protocol, bank, depths = PROTOCOLS[side]
        params = setup(self.CONFIG)
        values = random_stack(self.CONFIG, params, None, (), 1)
        single = bank(params.field, values)
        batched = bank(params.field, tuple(v[None] for v in values))
        # seeded: the batch draws its noise as one [1, ...] block per set
        plain = protocol(self.CONFIG, params, single, 7)
        one = protocol(self.CONFIG, params, batched, 7)
        assert [b.shape[0] for b in one.blocks + one.noise] == [1] * 4
        assert plain == bank_of_first(one)
        # explicit noise
        noise = random_stack(self.CONFIG, params, depths(self.CONFIG), (), 2)
        plain = protocol(self.CONFIG, params, single, noise=noise)
        one = protocol(self.CONFIG, params, batched, noise=[z[None] for z in noise])
        assert plain == bank_of_first(one)

    @pytest.mark.parametrize("side", PROTOCOLS)
    @pytest.mark.parametrize("batch", [(3,), (2, 2)])
    def test_batch_is_the_stacked_calls(self, side, batch):
        protocol, bank, depths = PROTOCOLS[side]
        params = setup(self.CONFIG)
        values = random_stack(self.CONFIG, params, None, batch, 3)
        noise = random_stack(self.CONFIG, params, depths(self.CONFIG), batch, 4)
        out = protocol(self.CONFIG, params, bank(params.field, values), noise=noise)
        for index in np.ndindex(*batch):
            one = protocol(self.CONFIG, params, bank(params.field, tuple(v[index] for v in values)),
                           noise=[z[index] for z in noise])
            assert all(np.array_equal(a[index], b) for a, b in zip(out.blocks, one.blocks))
        # a seeded batch equals the explicit call on the noise it drew
        seeded = protocol(self.CONFIG, params, bank(params.field, values), 5)
        assert seeded == protocol(self.CONFIG, params, bank(params.field, values),
                                  noise=seeded.noise)

    @pytest.mark.parametrize("side", PROTOCOLS)
    def test_batch_mismatch_rejected(self, side):
        protocol, bank, depths = PROTOCOLS[side]
        params = setup(self.CONFIG)
        values = random_stack(self.CONFIG, params, None, (2,), 6)
        noise = random_stack(self.CONFIG, params, depths(self.CONFIG), (3,), 7)
        with pytest.raises(DimensionMismatch):
            protocol(self.CONFIG, params, bank(params.field, values), noise=noise)
        # unbatched noise for a batched bank
        with pytest.raises(DimensionMismatch):
            protocol(self.CONFIG, params, bank(params.field, values), noise=[z[0] for z in noise])
        # the sets of one bank disagree on the batch
        mixed = (values[0], values[1][:1])
        with pytest.raises(DimensionMismatch):
            protocol(self.CONFIG, params, bank(params.field, mixed), 8)

    def test_only_the_protocol_takes_a_batch(self):
        params = setup(self.CONFIG)
        values = random_stack(self.CONFIG, params, None, (1,), 9)
        with pytest.raises(DimensionMismatch):
            MessageBank.from_ints(self.CONFIG, params, values)
        with pytest.raises(DimensionMismatch):
            CoefficientBank.from_ints(self.CONFIG, params, values)
        shares = encode_storage(self.CONFIG, params, MessageBank(params.field, values), 10)
        queries = generate_queries(self.CONFIG, params, CoefficientBank(params.field, values), 11)
        with pytest.raises(DimensionMismatch):
            collect_answers(self.CONFIG, params, shares, queries)
        # one unbatched side is not enough either
        plain = generate_queries(self.CONFIG, params,
                                 CoefficientBank(params.field, tuple(v[0] for v in values)), 11)
        with pytest.raises(DimensionMismatch):
            collect_answers(self.CONFIG, params, shares, plain)


def bank_of_first(out):
    """A batched protocol output's first entry, as the unbatched record."""
    return type(out)(blocks=tuple(b[0] for b in out.blocks),
                     noise=tuple(z[0] for z in out.noise))


class TestAnswers:
    def test_answer_uses_only_local_blocks(self):
        config = AsymmConfig(UNEVEN_NINE, (1, 2), (1, 2))
        params = setup(config)
        messages = MessageBank.random(config, params, 10)
        coeffs = CoefficientBank.random(config, params, 11)
        shares = encode_storage(config, params, messages, 12)
        queries = generate_queries(config, params, coeffs, 13)
        before = collect_answers(config, params, shares, queries)
        # zero every share row except the ones server 1 holds
        tampered = tuple(
            np.where((np.array(group) == 1)[:, None, None], block, 0)
            for group, block in zip(params.groups, shares.blocks)
        )
        shares2 = ShareBank(blocks=tampered, noise=shares.noise)
        after = collect_answers(config, params, shares2, queries)
        assert before[0] == after[0]
        assert before[1:] != after[1:]

    def test_unused_server_answers_zero(self):
        p = StoragePattern(3, (MessageSet((1, 2)),))
        config = AsymmConfig(p, (0,), (0,))
        params = setup(config)
        messages = MessageBank.random(config, params, 20)
        coeffs = CoefficientBank.random(config, params, 21)
        shares = encode_storage(config, params, messages, 22)
        queries = generate_queries(config, params, coeffs, 23)
        answers = collect_answers(config, params, shares, queries)
        assert answers[2] == params.field(0)
        assert reconstruct(answers, params) == expected_combination(
            config, messages, coeffs
        )

    def test_mismatched_sets_rejected(self):
        config = AsymmConfig(PAIR, (0,), (0,))
        params = setup(config)
        shares = encode_storage(config, params, zero_bank(config, params), 1)
        with pytest.raises(DimensionMismatch):
            collect_answers(config, params, shares, QueryBank(blocks=(), noise=()))
        short = QueryBank(blocks=(np.zeros((2, 1, 1), dtype=np.int64),), noise=())
        with pytest.raises(DimensionMismatch):
            collect_answers(config, params, shares, short)

    def test_reconstruct_needs_all_answers(self):
        config = AsymmConfig(PAIR, (0,), (0,))
        params = setup(config)
        with pytest.raises(DimensionMismatch):
            reconstruct((params.field(0),), params)


class TestRoundTrip:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_uneven_configs_decode(self, seed):
        for config in (
            AsymmConfig(UNEVEN_SEVEN, (0, 0, 0, 0), (1, 2, 1, 2)),
            AsymmConfig(UNEVEN_NINE, (1, 2), (1, 2)),
        ):
            result = simulate(config, seed)
            assert result.match
            assert result.transcript.decoded == result.expected
            assert result.transcript.downloads == (1,) * config.n_servers

    def test_simulation_deterministic(self):
        config = AsymmConfig(UNEVEN_NINE, (1, 2), (1, 2))
        a = simulate(config, 77)
        b = simulate(config, 77)
        assert a.transcript == b.transcript
        assert a.messages == b.messages

    def test_different_seeds_differ(self):
        config = AsymmConfig(UNEVEN_NINE, (1, 2), (1, 2))
        assert simulate(config, 0).messages != simulate(config, 1).messages

    def test_negative_seed_named(self):
        config = AsymmConfig(UNEVEN_NINE, (1, 2), (1, 2))
        with pytest.raises(DegenerateInput, match="seed=-5"):
            simulate(config, -5)
        with pytest.raises(DegenerateInput, match="seed=-1"):
            simulate_merged(GRAPH_SIX, 1, 1, seed=-1)

    def test_explicit_protocol_run(self):
        config = AsymmConfig(TRIPLE, (1,), (1,), l_value=1)
        params = setup(config)
        messages = MessageBank.from_ints(config, params, [[[5]]])
        coeffs = CoefficientBank.from_ints(config, params, [[[3]]])
        transcript = run_protocol(config, params, messages, coeffs, 31, 32)
        assert transcript.decoded == (params.field(15),)

    def test_bigger_field_same_protocol(self):
        config = AsymmConfig(UNEVEN_NINE, (1, 2), (1, 2))
        result = simulate(config, 5, field_override=101)
        assert result.params.field.q == 101
        assert result.match

    def test_random_configs_decode(self):
        rng = random.Random(5501)
        for _ in range(30):
            config = random_config(rng, n_max=7, m_max=3, count_max=2)
            result = simulate(config, rng.randrange(2**32))
            assert result.match


class TestMerged:
    def test_six_server_pipeline(self):
        sim = simulate_merged(GRAPH_SIX, 1, 1, seed=3)
        assert str(sim.rate) == "2/9"
        assert sim.rate == sim.capacity.capacity
        assert sim.downloads == (1, 1, 2, 2, 1, 2)
        assert sim.run.match
        assert sim.run.params.field.q == 11

    def test_degenerate_pipeline_refused(self):
        with pytest.raises(DegenerateConfig):
            simulate_merged(GRAPH_SIX, 2, 2, seed=0)

    def test_field_override_too_small(self):
        with pytest.raises(FieldTooSmall):
            simulate_merged(GRAPH_SIX, 1, 1, seed=0, field_override=7)

    def test_single_server_runs_over_two_element_field(self):
        single = StoragePattern(1, (MessageSet((1,)),))
        sim = simulate_merged(single, 0, 0, seed=4)
        assert sim.rate == 1 and sim.run.match
        assert sim.run.params.field.q == 2
        assert simulate(AsymmConfig(single, (0,), (0,)), 4).match


class TestStorage:
    def test_stored_symbols(self):
        config = AsymmConfig(UNEVEN_SEVEN, (0, 0, 0, 0), (1, 2, 1, 2))
        loads = stored_symbols(config)
        # server 2 hosts three sets of two messages, two symbols each
        assert loads[1] == 12
        assert loads[6] == 4
        assert len(loads) == 7


class TestIdentities:
    def test_dual_grs_power_sums_vanish(self):
        q = 13
        for nodes in itertools.combinations(range(q), 4):
            weights = dual_grs_weights(nodes, q)
            for j in range(len(nodes) - 1):
                total = sum(w * pow(a, j, q) for w, a in zip(weights, nodes)) % q
                assert total == 0
            # degree n-1 is the first power sum that survives, always as 1
            top = sum(w * pow(a, len(nodes) - 1, q) for w, a in zip(weights, nodes)) % q
            assert top == 1

    def test_dual_grs_rejects_duplicates(self):
        with pytest.raises(DuplicateNodes):
            dual_grs_weights([1, 12], 11)

    def test_cauchy_vandermonde_examples(self):
        assert cauchy_vandermonde_check([1], [2], 11)
        assert cauchy_vandermonde_check([1, 2, 3], [4, 5], 11)

    def test_cauchy_vandermonde_random(self):
        rng = random.Random(5502)
        for _ in range(40):
            q = rng.choice((11, 59, 101))
            n = rng.randint(2, 8)
            l = rng.randint(1, min(n, q - n))
            points = rng.sample(range(q), n + l)
            assert cauchy_vandermonde_check(points[:n], points[n:], q)

    def test_dual_grs_needs_two_nodes(self):
        with pytest.raises(DimensionMismatch):
            dual_grs_weights([3], 11)

    def test_cauchy_vandermonde_needs_enough_alpha_points(self):
        with pytest.raises(DimensionMismatch):
            cauchy_vandermonde_check([1], [2, 3], 11)
        with pytest.raises(DimensionMismatch):
            cauchy_vandermonde_check([1], [], 11)

    def test_cauchy_vandermonde_rejects_collisions(self):
        with pytest.raises(DuplicateNodes):
            cauchy_vandermonde_check([1, 2], [1], 11)
        with pytest.raises(DuplicateNodes):
            cauchy_vandermonde_check([1, 2], [13], 11)

    @pytest.mark.parametrize("q,message", [(12, "must be prime"),
                                           (2147483659, "exceeds the supported bound")],
                             ids=["composite", "oversized"])
    def test_lemma_checks_reject_a_bad_modulus(self, q, message):
        with pytest.raises(ValueError, match=message):
            dual_grs_weights([1, 2, 3], q)
        with pytest.raises(ValueError, match=message):
            cauchy_vandermonde_check([1, 2, 3], [4, 5], q)

    def test_lemma_checks_reject_non_integer_points(self):
        with pytest.raises(TypeError):
            dual_grs_weights([1, 2.5], 11)
        with pytest.raises(TypeError):
            cauchy_vandermonde_check([1, 2], [3.0], 11)
        assert dual_grs_weights(np.array([1, 2]), 11) == dual_grs_weights([1, 2], 11)

    def test_cauchy_vandermonde_detects_a_wrong_factor(self, monkeypatch):
        exact = scheme._dual_weights
        monkeypatch.setattr(scheme, "_dual_weights", lambda *a, **k: exact(*a, **k) + 1)
        assert not cauchy_vandermonde_check([1, 2, 3], [4, 5], 11)

    def test_alignment_identity_full_range(self):
        config = AsymmConfig(UNEVEN_NINE, (1, 2), (1, 2))
        params = setup(config)
        for m in range(1, config.m_count + 1):
            rho = len(params.group_of(m))
            for l in range(1, params.l_value + 1):
                for i in range(1, rho + 1):
                    assert alignment_identity_check(params, m, i, l)
                # one degree past the group size the cancellation breaks
                assert not alignment_identity_check(params, m, rho + 1, l)

    @pytest.mark.parametrize("m,i,l", [(0, 1, 0), (1, 1, 0), (1, 0, 1), (3, 1, 1), (1, 1, 3)])
    def test_alignment_identity_rejects_indices_out_of_range(self, m, i, l):
        # two sets and two slots, so 0 and 3 lie outside both index ranges;
        # powers start at i = 1 (alpha^0)
        params = setup(AsymmConfig(UNEVEN_NINE, (1, 2), (1, 2)))
        with pytest.raises(DimensionMismatch):
            alignment_identity_check(params, m, i, l)


class TestSampler:
    def test_deterministic(self):
        field = PrimeField(11)
        a = FieldSampler(field, 99).draw((50,))
        b = FieldSampler(field, 99).draw((50,))
        assert np.array_equal(a, b)

    def test_covers_field(self):
        field = PrimeField(5)
        draws = FieldSampler(field, 1).draw((200,))
        assert set(draws.tolist()) == {0, 1, 2, 3, 4}

    def test_range(self):
        field = PrimeField(7)
        draws = FieldSampler(field, 2).draw((100,))
        assert draws.dtype == np.int64
        assert ((0 <= draws) & (draws < 7)).all()

    def test_blocks_continue_one_stream(self):
        field = PrimeField(7)
        whole = FieldSampler(field, 5).draw((12,))
        sampler = FieldSampler(field, 5)
        parts = [sampler.draw((3, 2)), sampler.draw((0, 4)), sampler.draw((2, 3))]
        assert np.concatenate([p.ravel() for p in parts]).tolist() == whole.tolist()

    def test_two_element_field(self):
        draws = FieldSampler(PrimeField(2), 6).draw((200,))
        assert set(draws.tolist()) == {0, 1}


def one_draw_per_set(field, seed, shapes):
    """The blocks drawn one set at a time, then the next draw after them."""
    sampler = FieldSampler(field, seed)
    return tuple(sampler.draw(s) for s in shapes), sampler.draw((7,))


def assert_same_blocks(blocks, expected):
    assert [b.shape for b in blocks] == [e.shape for e in expected]
    assert all(np.array_equal(b, e) for b, e in zip(blocks, expected))
    assert not any(b.flags.writeable for b in blocks)


class TestBatchedDraws:
    CONFIGS = (
        # x_m = 0 everywhere: every storage noise block is (0, L, K)
        AsymmConfig(UNEVEN_SEVEN, (0, 0, 0, 0), (1, 2, 1, 2)),
        # K_m = 1, 3, 2, with x and t each 0 on one set
        AsymmConfig(StoragePattern(6, (MessageSet((1, 2, 3, 4), 1),
                                       MessageSet((2, 3, 4, 5, 6), 3),
                                       MessageSet((1, 3, 5, 6), 2))),
                    (0, 2, 1), (1, 0, 1)),
    )

    @pytest.mark.parametrize("config", CONFIGS)
    def test_draw_blocks_is_one_draw_per_set(self, config):
        params = setup(config)
        for depths in (None, config.x_vec, config.t_vec):
            shapes = scheme._shapes(config, params.l_value, depths)
            sampler = FieldSampler(params.field, 21)
            blocks = sampler.draw_blocks(shapes)
            expected, after = one_draw_per_set(params.field, 21, shapes)
            assert_same_blocks(blocks, expected)
            assert np.array_equal(sampler.draw((7,)), after)

    @pytest.mark.parametrize("config", CONFIGS)
    def test_banks_and_noise_match_per_set_draws(self, config):
        params = setup(config)
        field, l_value = params.field, params.l_value
        bank_shapes = scheme._shapes(config, l_value)
        messages = MessageBank.random(config, params, 3)
        coeffs = CoefficientBank.random(config, params, 4)
        assert_same_blocks(messages.values, one_draw_per_set(field, 3, bank_shapes)[0])
        assert_same_blocks(coeffs.values, one_draw_per_set(field, 4, bank_shapes)[0])
        shares = encode_storage(config, params, messages, 5)
        queries = generate_queries(config, params, coeffs, 6)
        storage = scheme._shapes(config, l_value, config.x_vec)
        query = scheme._shapes(config, l_value, config.t_vec)
        assert_same_blocks(shares.noise, one_draw_per_set(field, 5, storage)[0])
        assert_same_blocks(queries.noise, one_draw_per_set(field, 6, query)[0])
        assert (0, l_value, config.counts[0]) in storage + query


MODULI = st.sampled_from([2, 3, 191, 2**31 - 1])
SHAPES = hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=5)


class TestReduce:
    def check(self, a, q):
        given_a = a.copy()
        out = scheme._reduce(given_a, q)
        assert out is given_a
        assert out.dtype == a.dtype
        assert np.array_equal(out, a % q)

    @settings(max_examples=150, deadline=None)
    @given(hnp.arrays(np.int64, SHAPES, elements=st.integers(-2**62, 2**62)), MODULI)
    def test_int64_matches_remainder(self, a, q):
        self.check(a, q)

    @settings(max_examples=150, deadline=None)
    @given(hnp.arrays(np.uint64, SHAPES, elements=st.integers(0, 2**64 - 1)), MODULI)
    def test_uint64_matches_remainder(self, a, q):
        self.check(a, q)

    @pytest.mark.parametrize("q", [2, 3, 191, 2**31 - 1])
    def test_int64_extremes(self, q):
        info = np.iinfo(np.int64)
        self.check(np.array([info.min, info.min + 1, -1, 0, info.max], dtype=np.int64), q)
