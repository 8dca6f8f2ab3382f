"""Plain reference implementations, as oracles for the fast code.

The protocol written one symbol at a time over plain ints checks the
residue-array code in gxstplc.scheme.  The reference draws every residue
with its own generator call, keys shares and queries by (server, set)
and noise by (set, depth, slot), and decodes by Gaussian elimination; the
array code must agree with it on every constant, bank, block, answer and
decoded symbol.

The dense Fraction-tableau simplex checks the fraction-free tableau of
gxstplc.exactlp.simplex_min: both take the same Bland pivots, so they
must return the same optimum, vertex, basis and pivot and bound-flip
counts.
"""

import itertools
import random
from fractions import Fraction
from math import prod

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import random_config, random_pattern
from gxstplc.capacity import build_capacity_lp
from gxstplc.demos import GRAPH_FOURTEEN, GRAPH_SIX, UNEVEN_NINE, UNEVEN_SEVEN
from gxstplc.errors import Infeasible, Unbounded
from gxstplc.exactlp import LinearProgram, LpSolution, simplex_min
from gxstplc.ff import solve_mod
from gxstplc.pattern import min_replication_slack
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


def reference_simplex(lp: LinearProgram) -> tuple[LpSolution, list[Fraction]]:
    """Bland's rule on a dense Fraction tableau from the all-at-upper start.

    Also returns, for each pivot, |det B| * T[p][e]: the integer pivot the
    fraction-free tableau meets there.
    """
    n = lp.n_vars
    rows = lp.rows
    cost = list(lp.objective)
    for j, cj in enumerate(cost):
        if cj < 0:
            raise Unbounded(f"objective coefficient {j} is negative")
    r = len(rows)
    total = n + r
    tableau = [
        [Fraction(-rows[i][j]) for j in range(n)]
        + [Fraction(1 if k == i else 0) for k in range(r)]
        for i in range(r)
    ]
    beta = [Fraction(sum(rows[i]) - 1) for i in range(r)]
    if any(b < 0 for b in beta):
        raise Infeasible("a constraint row rejects the all-ones point")
    basis = [n + i for i in range(r)]
    in_basis = [False] * n + [True] * r
    at_upper = [True] * n + [False] * r
    upper = [Fraction(1)] * n + [None] * r
    cost_full = cost + [Fraction(0)] * r
    det = Fraction(1)  # |det B|, starting from B = -I
    integer_pivots = []
    bound_flips = 0

    while True:
        cb = [cost_full[basis[i]] for i in range(r)]
        entering = -1
        for j in range(total):
            if in_basis[j]:
                continue
            zj = cost_full[j] - sum(cb[i] * tableau[i][j] for i in range(r))
            if (zj < 0 and not at_upper[j]) or (zj > 0 and at_upper[j]):
                entering = j
                break
        if entering < 0:
            break

        increasing = not at_upper[entering]
        col = [tableau[i][entering] for i in range(r)]
        deltas = [-col[i] if increasing else col[i] for i in range(r)]
        best_t = None
        leave_pos = -1
        leave_to_upper = False
        for i in range(r):
            d = deltas[i]
            k = basis[i]
            if d < 0:
                t = beta[i] / (-d)
                hits_upper = False
            elif d > 0 and upper[k] is not None:
                t = (upper[k] - beta[i]) / d
                hits_upper = True
            else:
                continue
            if best_t is None or t < best_t or (t == best_t and k < basis[leave_pos]):
                best_t, leave_pos, leave_to_upper = t, i, hits_upper

        span = upper[entering]
        if best_t is None and span is None:
            raise Unbounded("no constraint limits the improving direction")
        if span is not None and (best_t is None or span < best_t):
            for i in range(r):
                beta[i] += deltas[i] * span
            at_upper[entering] = not at_upper[entering]
            bound_flips += 1
            continue

        t = best_t
        for i in range(r):
            beta[i] += deltas[i] * t
        leaving = basis[leave_pos]
        in_basis[leaving] = False
        at_upper[leaving] = leave_to_upper
        in_basis[entering] = True
        basis[leave_pos] = entering
        beta[leave_pos] = Fraction(0) + t if increasing else upper[entering] - t

        pivot = tableau[leave_pos][entering]
        integer_pivots.append(det * pivot)
        det *= abs(pivot)
        tableau[leave_pos] = [e / pivot for e in tableau[leave_pos]]
        for i in range(r):
            if i != leave_pos and tableau[i][entering] != 0:
                f = tableau[i][entering]
                prow = tableau[leave_pos]
                tableau[i] = [a - f * b for a, b in zip(tableau[i], prow)]

    values = [Fraction(0)] * total
    for j in range(total):
        if not in_basis[j] and at_upper[j]:
            values[j] = upper[j]
    for i in range(r):
        values[basis[i]] = beta[i]
    vertex = tuple(values[:n])
    optimum = sum((c * v for c, v in zip(lp.objective, vertex)), Fraction(0))
    solution = LpSolution(optimum=optimum, vertex=vertex, basis=tuple(sorted(basis)),
                          pivots=len(integer_pivots), bound_flips=bound_flips)
    return solution, integer_pivots


def assert_same_pivot_path(lp: LinearProgram) -> list[Fraction]:
    expected, integer_pivots = reference_simplex(lp)
    assert simplex_min(lp) == expected
    # every pivot of the fraction-free tableau is a minor, hence an integer
    assert all(a.denominator == 1 and a != 0 for a in integer_pivots)
    return integer_pivots


@st.composite
def covering_lps(draw):
    n = draw(st.integers(1, 8))
    rows = draw(st.lists(
        st.integers(1, 2**n - 1).map(lambda b: tuple((b >> j) & 1 for j in range(n))),
        max_size=30))
    objective = draw(st.lists(st.builds(Fraction, st.integers(0, 12), st.integers(1, 6)),
                              min_size=n, max_size=n))
    return LinearProgram(n_vars=n, rows=tuple(rows), objective=tuple(objective))


@settings(max_examples=200, deadline=None)
@given(covering_lps())
@example(LinearProgram(n_vars=3, rows=(), objective=(Fraction(1, 2), Fraction(0), Fraction(5, 6))))
def test_simplex_matches_fraction_reference(lp):
    assert_same_pivot_path(lp)


def test_simplex_matches_fraction_reference_on_example_patterns():
    # the covering rows depend on x + t only, so equal programs are solved once
    lps = {build_capacity_lp(p, x, t)
           for p in (GRAPH_SIX, GRAPH_FOURTEEN, UNEVEN_SEVEN, UNEVEN_NINE)
           for x, t in itertools.product(range(max(p.replication_factors)), repeat=2)
           if min_replication_slack(p, x, t) > 0}
    assert len(lps) == 14
    for lp in lps:
        assert_same_pivot_path(lp)


def test_simplex_matches_fraction_reference_on_larger_programs():
    rng = random.Random(7707)
    integer_pivots = []
    solved = 0
    while solved < 20:
        x, t = rng.randint(0, 2), rng.randint(0, 2)
        lp = build_capacity_lp(random_pattern(rng, n_max=8, m_max=4, x=x, t=t, max_rows=110),
                               x, t)
        if len(lp.rows) < 50:
            continue
        integer_pivots += assert_same_pivot_path(lp)
        solved += 1
    # the exact division (|a| > 1 leaves D > 1) and the negation (a < 0) both run
    assert any(abs(a) > 1 for a in integer_pivots)
    assert any(a < 0 for a in integer_pivots)
