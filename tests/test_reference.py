"""The protocol written one symbol at a time over plain ints, as an oracle
for the residue-array code in gxstplc.scheme.

The reference draws every residue with its own generator call, keys
shares and queries by (server, set) and noise by (set, depth, slot), and
decodes by Gaussian elimination; the array code must agree with it on
every constant, bank, block, answer and decoded symbol.
"""

import random
from math import prod

import numpy as np
import pytest

from conftest import random_config
from gxstplc.ff import solve_mod
from gxstplc.pattern import MessageSet, StoragePattern
from gxstplc.scheme import (
    AsymmConfig,
    CoefficientBank,
    MessageBank,
    collect_answers,
    encode_storage,
    expected_combination,
    generate_queries,
    reconstruct,
    setup,
    simulate,
)


def residue_stream(q, seed_sequence):
    """Uniform residues by rejection, one generator call per draw."""
    gen = np.random.Generator(np.random.Philox(seed_sequence))
    limit = (2**64 // q) * q
    while True:
        raw = int(gen.integers(0, 2**64 - 1, dtype=np.uint64, endpoint=True))
        if raw < limit:
            yield raw % q


def reference_round(config, q, seed):
    n_servers, l_value = config.n_servers, config.l_effective
    sets = range(1, config.m_count + 1)
    alpha = list(range(1, n_servers + 1))
    f = [(n_servers + l) % q for l in range(1, l_value + 1)]
    group = {m: config.pattern.servers_of(m) for m in sets}
    count = {m: config.pattern.count_of(m) for m in sets}

    def inv(a):
        return pow(a % q, q - 2, q)

    u = {(m, l): prod(f[l - 1] - alpha[n - 1] for n in group[m]) % q
         for m in sets for l in range(1, l_value + 1)}
    v = {(m, n): inv(prod(alpha[n - 1] - alpha[o - 1] for o in group[m] if o != n))
         for m in sets for n in group[m]}

    msg_ss, coeff_ss, storage_ss, query_ss = np.random.SeedSequence(seed).spawn(4)

    def bank(ss):  # bank[(m, k, l)], drawn set by set, message by message
        stream = residue_stream(q, ss)
        return {(m, k, l): next(stream) for m in sets
                for k in range(1, count[m] + 1) for l in range(1, l_value + 1)}

    def noise(ss, depths):  # noise[(m, d, l)] is a vector over the K_m messages
        stream = residue_stream(q, ss)
        return {(m, d, l): [next(stream) for _ in range(count[m])] for m in sets
                for d in range(1, depths[m - 1] + 1) for l in range(1, l_value + 1)}

    w, lam = bank(msg_ss), bank(coeff_ss)
    z, z2 = noise(storage_ss, config.x_vec), noise(query_ss, config.t_vec)

    shares, queries = {}, {}
    for m in sets:
        for n in group[m]:
            a = alpha[n - 1]
            shares[(n, m)] = [
                [(w[(m, k, l)] * inv(a - f[l - 1])
                  + sum(pow(a, x - 1, q) * z[(m, x, l)][k - 1]
                        for x in range(1, config.x_vec[m - 1] + 1))) % q
                 for k in range(1, count[m] + 1)]
                for l in range(1, l_value + 1)
            ]
            queries[(n, m)] = [
                [(u[(m, l)] * lam[(m, k, l)]
                  + (a - f[l - 1]) * sum(pow(a, t - 1, q) * z2[(m, t, l)][k - 1]
                                         for t in range(1, config.t_vec[m - 1] + 1))) % q
                 for k in range(1, count[m] + 1)]
                for l in range(1, l_value + 1)
            ]
    answers = [
        sum(v[(m, n)] * sum(s * r for ls, lr in zip(shares[(n, m)], queries[(n, m)])
                            for s, r in zip(ls, lr))
            for m in sets if n in group[m]) % q
        for n in range(1, n_servers + 1)
    ]
    sums = [sum(pow(a, i, q) * ans for a, ans in zip(alpha, answers)) % q
            for i in range(l_value)]
    decoded = solve_mod([[pow(p, i, q) for p in f] + [-s % q] for i, s in enumerate(sums)], q)
    expected = [sum(lam[(m, k, l)] * w[(m, k, l)] for m in sets
                    for k in range(1, count[m] + 1)) % q
                for l in range(1, l_value + 1)]
    return dict(u=u, v=v, w=w, lam=lam, z=z, z2=z2, shares=shares, queries=queries,
                answers=answers, decoded=decoded, expected=expected)


def as_bank(values):
    return {(m, k + 1, l + 1): int(e) for m, block in enumerate(values, start=1)
            for (k, l), e in np.ndenumerate(block)}


def as_noise(arrays):
    return {(m, d + 1, l + 1): block[d, l].tolist() for m, block in enumerate(arrays, start=1)
            for d in range(block.shape[0]) for l in range(block.shape[1])}


def as_blocks(blocks, params):
    return {(n, m): block[r].tolist() for m, block in enumerate(blocks, start=1)
            for r, n in enumerate(params.group_of(m))}


def assert_round_matches(config, seed, field_override=None):
    params = setup(config, field_override)
    q = params.field.q
    ref = reference_round(config, q, seed)

    assert {(m, l + 1): int(e) for m, row in enumerate(params.u, start=1)
            for l, e in enumerate(row)} == ref["u"]
    assert {(m, n): int(e) for m, row in enumerate(params.v, start=1)
            for n, e in zip(params.group_of(m), row)} == ref["v"]

    msg_ss, coeff_ss, storage_ss, query_ss = np.random.SeedSequence(seed).spawn(4)
    messages = MessageBank.random(config, params, msg_ss)
    coeffs = CoefficientBank.random(config, params, coeff_ss)
    assert as_bank(messages.values) == ref["w"]
    assert as_bank(coeffs.values) == ref["lam"]

    shares = encode_storage(config, params, messages, storage_ss)
    queries = generate_queries(config, params, coeffs, query_ss)
    assert as_noise(shares.noise) == ref["z"]
    assert as_noise(queries.noise) == ref["z2"]
    assert as_blocks(shares.blocks, params) == ref["shares"]
    assert as_blocks(queries.blocks, params) == ref["queries"]

    answers = collect_answers(config, params, shares, queries)
    decoded = reconstruct(answers, params)
    assert [a.value for a in answers] == ref["answers"]
    assert [d.value for d in decoded] == ref["decoded"]
    assert [e.value for e in expected_combination(config, messages, coeffs)] \
        == ref["expected"] == ref["decoded"]

    run = simulate(config, seed, field_override).transcript
    assert [a.value for a in run.answers] == ref["answers"]
    assert [d.value for d in run.decoded] == ref["decoded"]


@pytest.mark.parametrize("field_override", [None, 2**31 - 1])
def test_arrays_match_per_symbol_reference(field_override):
    rng = random.Random(5503)
    for _ in range(30):
        config = random_config(rng, n_max=8, m_max=3, count_max=3)
        assert_round_matches(config, rng.randrange(2**32), field_override)


def test_two_element_field_matches_reference():
    # one server, x = t = 0: N + L = 2, so the field is F_2 and the
    # sampler's rejection bound is all of [0, 2**64)
    config = AsymmConfig(StoragePattern(1, (MessageSet((1,), count=2),)), (0,), (0,))
    assert setup(config).field.q == 2
    for seed in range(5):
        assert_round_matches(config, seed)
