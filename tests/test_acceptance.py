"""Acceptance suite: one test and one printed verdict per criterion."""

import itertools
import json
import random
import time
from fractions import Fraction as F

import numpy as np
import pytest

from conftest import random_config, random_pattern
from gxstplc.audit import (
    exhaustive_independence_audit,
    merged_scheme_audit,
    privacy_rank_certificate,
    security_rank_certificate,
)
from gxstplc.augment import generate_augmented_system
from gxstplc.capacity import asymptotic_capacity, build_capacity_lp
from gxstplc.cli import main
from gxstplc.demos import (
    GRAPH_FOURTEEN,
    GRAPH_SIX,
    UNEVEN_NINE,
    UNEVEN_SEVEN,
    run_demo,
)
from gxstplc.errors import DegenerateConfig, DegenerateInput, DegeneratePattern
from gxstplc.exactlp import enumerate_vertices_oracle, simplex_min
from gxstplc.pattern import MessageSet, StoragePattern, save_pattern
from gxstplc.scheme import (
    AsymmConfig,
    CoefficientBank,
    MessageBank,
    alignment_identity_check,
    cauchy_vandermonde_check,
    collect_answers,
    dual_grs_weights,
    encode_storage,
    expected_combination,
    generate_queries,
    reconstruct,
    setup,
    simulate,
    simulate_merged,
    virtual_config,
)


def merged_config(pattern, x, t):
    cap = asymptotic_capacity(pattern, x, t)
    aug = generate_augmented_system(pattern, x, t, cap)
    return cap, aug, virtual_config(aug, pattern.counts)


def test_criterion_1_six_server_capacity(tmp_path, capsys):
    start = time.perf_counter()
    cap = asymptotic_capacity(GRAPH_SIX, 1, 1)
    elapsed = time.perf_counter() - start
    assert str(cap.capacity) == "2/9"
    assert cap.l_value == 2
    assert cap.total_downloads == 9
    assert elapsed < 1.0

    path = tmp_path / "six.json"
    save_pattern(GRAPH_SIX, path)
    code = main(["capacity", "--pattern", str(path), "--x", "1", "--t", "1"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["capacity"] == "2/9"
    with capsys.disabled():
        print(
            f"\nPASS criterion 1: six-server capacity 2/9, L=2, "
            f"total downloads 9 ({elapsed:.3f}s)"
        )


def test_criterion_2_fourteen_server_capacity(capsys):
    start = time.perf_counter()
    cap = asymptotic_capacity(GRAPH_FOURTEEN, 1, 1)
    elapsed = time.perf_counter() - start
    assert str(cap.capacity) == "5/22"
    assert cap.l_value == 10
    assert cap.total_downloads == 44
    assert elapsed < 5.0
    with capsys.disabled():
        print(
            f"PASS criterion 2: fourteen-server capacity 5/22, L=10, "
            f"total downloads 44 ({elapsed:.3f}s)"
        )


def test_criterion_3_demo_rates_twenty_seeds(capsys):
    checked = 0
    for config, rate in (
        (AsymmConfig(UNEVEN_SEVEN, (0, 0, 0, 0), (1, 2, 1, 2)), F(2, 7)),
        (AsymmConfig(UNEVEN_NINE, (1, 2), (1, 2)), F(2, 9)),
    ):
        for seed in range(20):
            result = simulate(config, seed)
            assert result.match
            assert result.transcript.decoded == result.expected
            assert result.rate == rate
            checked += 1
    for pattern, rate in ((GRAPH_SIX, F(2, 9)), (GRAPH_FOURTEEN, F(5, 22))):
        cap, aug, config = merged_config(pattern, 1, 1)
        assert F(aug.l_value, aug.n_virtual) == rate == cap.capacity
        for seed in range(20):
            result = simulate(config, seed)
            assert result.match
            assert result.transcript.decoded == result.expected
            checked += 1
    for name, rate in (
        ("ex-4.1.1", "2/7"), ("ex-4.1.2", "2/9"),
        ("ex-4.2-1", "2/9"), ("ex-4.2-2", "5/22"),
    ):
        report = run_demo(name, seed=0)
        assert report["rate"] == rate
        assert report["decode_match"] is True
        assert report["audit_pass"] is True
    with capsys.disabled():
        print(
            f"PASS criterion 3: demo rates 2/7, 2/9, 2/9, 5/22 with exact "
            f"decode across {checked} runs (20 seeds each)"
        )


def test_criterion_4_decode_exactness(capsys):
    rng = random.Random(0xACC4)
    for _ in range(100):
        config = random_config(rng, n_max=9, m_max=4, count_max=3,
                               x_max=2, t_max=2)
        result = simulate(config, rng.randrange(2**32))
        assert result.match, config

    # exhaustive sweep: every noise realization must decode, for every
    # message/coefficient pair, over the five-element field
    pattern = StoragePattern(4, (MessageSet((1, 2, 3, 4)),))
    config = AsymmConfig(pattern, (1,), (1,), l_value=1)
    params = setup(config)
    assert params.field.q == 5
    combos = 0
    for w, lam, z, z2 in itertools.product(range(5), repeat=4):
        messages = MessageBank.from_ints(config, params, [[[w]]])
        coeffs = CoefficientBank.from_ints(config, params, [[[lam]]])
        shares = encode_storage(
            config, params, messages, noise=(np.array([[[z]]]),)
        )
        queries = generate_queries(
            config, params, coeffs, noise=(np.array([[[z2]]]),)
        )
        decoded = reconstruct(collect_answers(config, params, shares, queries), params)
        assert decoded == expected_combination(config, messages, coeffs)
        combos += 1
    assert combos == 625
    with capsys.disabled():
        print(
            "PASS criterion 4: 100 random configurations decode exactly; "
            "all 625 exhaustive noise/message realizations decode over F_5"
        )


def test_criterion_5_identity_suite(capsys):
    rng = random.Random(0xACC5)
    for _ in range(100):
        q = rng.choice((11, 59, 101))
        n = rng.randint(2, 8)
        nodes = rng.sample(range(q), n)
        weights = dual_grs_weights(nodes, q)
        for j in range(n - 1):
            assert sum(w * pow(a, j, q) for w, a in zip(weights, nodes)) % q == 0
    for _ in range(100):
        q = rng.choice((11, 59, 101))
        n = rng.randint(2, 8)
        l = rng.randint(1, min(n, q - n))
        points = rng.sample(range(q), n + l)
        assert cauchy_vandermonde_check(points[:n], points[n:], q)

    all_params = [
        setup(AsymmConfig(UNEVEN_SEVEN, (0, 0, 0, 0), (1, 2, 1, 2))),
        setup(AsymmConfig(UNEVEN_NINE, (1, 2), (1, 2))),
        setup(merged_config(GRAPH_SIX, 1, 1)[2]),
        setup(merged_config(GRAPH_FOURTEEN, 1, 1)[2]),
    ]
    checked = 0
    for params in all_params:
        for m in range(1, len(params.groups) + 1):
            for i in range(1, params.l_value + 1):
                for l in range(1, params.l_value + 1):
                    assert alignment_identity_check(params, m, i, l)
                    checked += 1
    with capsys.disabled():
        print(
            f"PASS criterion 5: dual weights and Cauchy factorization hold "
            f"for 100 random node sets each; alignment identity holds at "
            f"all {checked} (set, power, slot) triples"
        )


def test_criterion_6_simplex_matches_oracle(capsys):
    rng = random.Random(0xACC6)
    for _ in range(100):
        x = rng.randint(0, 2)
        t = rng.randint(0, 2)
        p = random_pattern(rng, n_max=6, m_max=3, x=x, t=t, max_rows=10)
        lp = build_capacity_lp(p, x, t)
        sol = simplex_min(lp)
        verts = enumerate_vertices_oracle(lp)
        best = min(sum(v, F(0)) for v in verts)
        assert sol.optimum == best, (p, x, t)
        assert sol.vertex in verts
    with capsys.disabled():
        print(
            "PASS criterion 6: simplex optimum equals the brute-force "
            "vertex minimum on 100 random patterns"
        )


def test_criterion_7_security_and_privacy(capsys):
    for pattern in (GRAPH_SIX, GRAPH_FOURTEEN):
        _, aug, config = merged_config(pattern, 1, 1)
        report = merged_scheme_audit(aug, setup(config), 1, 1)
        assert report.passed, pattern

    rng = random.Random(0xACC7)
    audited = 0
    for _ in range(50):
        x = rng.randint(0, 2)
        t = rng.randint(0, 2)
        p = random_pattern(rng, n_max=8, m_max=3, x=x, t=t, max_rows=30)
        _, aug, config = merged_config(p, x, t)
        report = merged_scheme_audit(aug, setup(config), x, t)
        assert report.passed, (p, x, t)
        audited += report.checked_subsets

    triple = StoragePattern(3, (MessageSet((1, 2, 3)),))
    agreements = 0
    for config in (
        AsymmConfig(triple, (1,), (1,), l_value=1),
        AsymmConfig(triple, (2,), (0,), l_value=1),
        AsymmConfig(StoragePattern(2, (MessageSet((1, 2)),)), (0,), (1,)),
    ):
        params = setup(config, field_override=5)
        n = config.n_servers
        for size in range(1, n + 1):
            for subset in itertools.combinations(range(1, n + 1), size):
                storage = exhaustive_independence_audit(
                    config, params, subset, side="storage"
                ).passed
                query = exhaustive_independence_audit(
                    config, params, subset, side="query"
                ).passed
                assert storage == security_rank_certificate(config, params, subset)
                assert query == privacy_rank_certificate(config, params, subset)
                agreements += 1

    over_config = AsymmConfig(triple, (1,), (1,), l_value=1)
    over_params = setup(over_config, field_override=5)
    over = exhaustive_independence_audit(over_config, over_params, (1, 2))
    assert not over.passed
    assert not security_rank_certificate(over_config, over_params, (1, 2))
    assert not privacy_rank_certificate(over_config, over_params, (1, 2))
    with capsys.disabled():
        print(
            f"PASS criterion 7: merged audits pass on both examples and 50 "
            f"random systems ({audited} subsets); exhaustive audit agrees "
            f"with certificates on {agreements} subsets and flags the "
            f"over-collusion case"
        )


def test_criterion_8_degeneracy(capsys):
    cap = asymptotic_capacity(GRAPH_SIX, 2, 2)
    assert str(cap.capacity) == "0"
    assert cap.degenerate
    with pytest.raises(DegenerateConfig):
        simulate_merged(GRAPH_SIX, 2, 2, seed=0)
    with pytest.raises(DegenerateConfig):
        AsymmConfig(GRAPH_SIX, (2, 2), (2, 2))
    with pytest.raises(DegenerateInput):
        generate_augmented_system(GRAPH_SIX, 2, 2, cap)
    with pytest.raises(DegeneratePattern):
        build_capacity_lp(GRAPH_SIX, 2, 2)
    # the boundary case min rho = x + t is already degenerate
    boundary = asymptotic_capacity(GRAPH_SIX, 1, 2)
    assert str(boundary.capacity) == "0" and boundary.degenerate
    with capsys.disabled():
        print(
            "PASS criterion 8: degenerate thresholds report capacity 0 and "
            "every construction path refuses to build a scheme"
        )
