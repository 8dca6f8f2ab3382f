"""Plain reference implementations, as oracles for the fast code.

The protocol written one symbol at a time over plain ints checks the
residue-array code in gxstplc.scheme.  The reference draws every residue
with its own generator call, keys shares and queries by (server, set)
and noise by (set, depth, slot), and decodes by Gaussian elimination; the
array code must agree with it on every constant, bank, block, answer and
decoded symbol.  Its decoder alone, reference_decode, checks the
closed-form decoder of gxstplc.scheme.reconstruct on arbitrary answer
vectors, and the node products taken one column at a time check the
halving products behind setup's u and v.

The dense Fraction-tableau simplex checks the fraction-free tableau of
gxstplc.exactlp.simplex_min: both take the same Bland pivots, so they
must return the same optimum, vertex, basis and pivot and bound-flip
counts, on the int64 tableau and after it turns into Python ints, and
each slot of the condensed tableau must end as |det B| times the dense
tableau's column of its nonbasic variable, reduced cost included, and
the numerator slot as |det B| times the basic values, cost entry 0.

The capacity bookkeeping in Fractions (optimum summed entry by entry,
L the lcm of the denominators, tau = L * vertex, capacity 1 / optimum)
checks the integer bookkeeping of gxstplc.capacity.asymptotic_capacity
on the forced and the simplex path, and the flat ids of every virtual
server, one flat_id call each, check the table AugmentedSystem builds
once and what reads it.  Augmentation built eagerly, every (n, i) pair
listed (reference_augment), checks the copy counts, groups, virtual
servers and flat ids that AugmentedSystem derives from its choices.

A list-of-lists eliminator (normalized pivots, one matrix at a time)
checks the closed-form noise ranks of gxstplc.audit, and solves
reference_decode's systems.  On top of it, the audits written one
subset and one set at a time (the rank certificate per subset, the
exhaustive enumeration by itertools.product into a dict of counts)
check the closed-form sweeps and the zero-observation enumeration of
gxstplc.audit: every report must be equal, counts, violations in order
with their details, and notes.  The merged audit is written over every
original subset at every N: the product must match its verdict, count
and notes, and list exactly its violations by subsets of one set's
holders.  That walk must also equal the whole-side check that rebuilds
the virtual configuration and asks _Side.clear about each group's
points, and _Side.clear must hold exactly when every closed-form rank
is full.  The enumeration's observed forms are built from the scheme's
formulas (reference_forms), and the forms that gxstplc.audit probes
from the encoder and the query generator must equal them.  On raw
random forms the dict of counts also checks the rule the audit decides
by: a leak always first shows at the all-zero observation, and counts
are never uneven.
"""

import ast
import contextlib
import dataclasses
import inspect
import itertools
import math
import random
import sys
import textwrap
from fractions import Fraction
from math import comb, prod

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (TRIANGLES, random_config, random_covering_lp, random_pattern,
                      simplex_capacity)
from gxstplc import capacity, exactlp
from gxstplc.audit import (
    _SIDES,
    AuditReport,
    Violation,
    _misses_secrets,
    _probed_forms,
    asymm_scheme_audit,
    exhaustive_independence_audit,
    merged_scheme_audit,
    privacy_rank_certificate,
    security_rank_certificate,
)
from gxstplc.augment import generate_augmented_system, merged_query_plan
from gxstplc.capacity import CapacityResult, asymptotic_capacity, build_capacity_lp
from gxstplc.demos import GRAPH_FOURTEEN, GRAPH_SIX, UNEVEN_NINE, UNEVEN_SEVEN
from gxstplc.errors import DimensionMismatch
from gxstplc.exactlp import LinearProgram, LpSolution, simplex_min
from gxstplc.ff import PrimeField
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
    virtual_config,
)


def residue_stream(q, seed_sequence):
    """Uniform residues by rejection, one generator call per draw."""
    gen = np.random.Generator(np.random.Philox(seed_sequence))
    limit = (2**64 // q) * q
    while True:
        raw = int(gen.integers(0, 2**64 - 1, dtype=np.uint64, endpoint=True))
        if raw < limit:
            yield raw % q


def reference_decode(answers, alpha, f, q):
    """The power sums V_i = sum_n alpha_n^i A_n (i < L), then the
    transposed-Vandermonde system sum_l f_l^i d_l = -V_i by elimination."""
    sums = [sum(pow(a, i, q) * ans for a, ans in zip(alpha, answers)) % q
            for i in range(len(f))]
    return reference_solve([[pow(p, i, q) for p in f] + [-s % q] for i, s in enumerate(sums)], q)


def per_column_products(points, nodes, q, skip_own=False):
    """prod over nodes of (p - node) mod q, one node column at a time."""
    diff = (points[:, None] - nodes[None, :]) % q
    if skip_own:
        np.fill_diagonal(diff, 1)
    out = np.ones(len(points), dtype=np.int64)
    for column in diff.T:
        out = out * column % q
    return out


def reference_round(config, q, seed, alpha=None):
    n_servers, l_value = config.n_servers, config.l_effective
    sets = range(1, config.m_count + 1)
    alpha = list(range(1, n_servers + 1)) if alpha is None else alpha
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
    decoded = reference_decode(answers, alpha, f, q)
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


def assert_round_matches(config, seed, field_override=None, alpha=None):
    """The round at setup's points, or at the given ones (then not simulate's)."""
    params = setup(config, field_override)
    q = params.field.q
    if alpha is not None:
        params = dataclasses.replace(params, alpha=np.array(alpha, dtype=np.int64))
    ref = reference_round(config, q, seed, alpha)

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

    if alpha is not None:
        return
    run = simulate(config, seed, field_override).transcript
    assert [a.value for a in run.answers] == ref["answers"]
    assert [d.value for d in run.decoded] == ref["decoded"]


# the smallest default field, two between, and the largest the int64 kernels take
FIELDS = [None, 101, 65521, 2**31 - 1]


@pytest.mark.parametrize("field_override", FIELDS)
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


# sizes 2 and 40 in one pattern, a one-member group at x = t = 0, and zero
# thresholds on one side of a set mixed with nonzero ones
RAGGED = AsymmConfig(StoragePattern(40, (MessageSet((3, 17), count=2),
                                         MessageSet(tuple(range(1, 41)), count=3))),
                     (1, 2), (0, 2))
SINGLE = AsymmConfig(StoragePattern(3, (MessageSet((2,)), MessageSet((1, 2, 3), count=2))),
                     (0, 1), (0, 1))
MIXED = AsymmConfig(StoragePattern(6, (MessageSet((1, 2, 3, 4, 5), count=2),
                                       MessageSet((2, 3, 4, 5, 6)),
                                       MessageSet((1, 3, 4, 6), count=3))),
                    (0, 2, 1), (2, 0, 1))
# noise depths 3 and 4 next to 0: Horner steps past the first int64 bound
DEEP = AsymmConfig(StoragePattern(9, (MessageSet(tuple(range(1, 10)), count=2),
                                      MessageSet((2, 4, 5, 6, 7, 8, 9)))),
                   (4, 0), (3, 4))
# groups of every width 1-10, odd ones included, for the halving products;
# N = 10 and L = 1 put f at 0 in the default field F_11, so the Cauchy
# table there inverts every nonzero residue
WIDTHS = AsymmConfig(StoragePattern(10, tuple(MessageSet(tuple(range(11 - w, 11)))
                                              for w in range(1, 11))), (0,) * 10, (0,) * 10)
TABLE_CONFIGS = {"ragged": RAGGED, "single": SINGLE, "mixed": MIXED, "deep": DEEP,
                 "widths": WIDTHS}


@pytest.mark.parametrize("config", TABLE_CONFIGS.values(), ids=TABLE_CONFIGS.keys())
@pytest.mark.parametrize("field_override", FIELDS)
def test_setup_matches_per_group_products(config, field_override):
    params = setup(config, field_override)
    q = params.field.q
    alpha, f = params.alpha.tolist(), params.f.tolist()
    for m, group in enumerate(params.groups):
        points = params.alpha[np.asarray(group) - 1]
        assert params.u[m].tolist() == per_column_products(params.f, points, q).tolist()
        assert params.v[m].tolist() == [pow(int(p), q - 2, q) for p in
                                        per_column_products(points, points, q, skip_own=True)]
    assert params.cauchy.tolist() == [[pow(a - f_l, q - 2, q) for f_l in f] for a in alpha]


@pytest.mark.parametrize("config", TABLE_CONFIGS.values(), ids=TABLE_CONFIGS.keys())
def test_moved_points_carry_matching_tables(config):
    params = setup(config, 2**31 - 1)
    q = params.field.q
    stale = params.cauchy
    # points off the residues, then uniform residues of this, the largest, field
    for moved_alpha in (params.alpha * 7 + 1000,
                        np.random.default_rng(len(params.alpha)).integers(0, q, len(params.alpha))):
        moved = dataclasses.replace(params, alpha=moved_alpha)
        assert not np.array_equal(moved.cauchy, stale)
        alpha, f = moved.alpha.tolist(), moved.f.tolist()
        for m, group in enumerate(moved.groups):
            points = moved.alpha[np.asarray(group) - 1]
            assert moved.u[m].tolist() == per_column_products(moved.f, points, q).tolist()
            assert moved.v[m].tolist() == [pow(int(p), q - 2, q) for p in
                                           per_column_products(points, points, q, skip_own=True)]
        assert moved.cauchy.tolist() == [[pow(a - f_l, q - 2, q) for f_l in f] for a in alpha]


@pytest.mark.parametrize("config", [RAGGED, SINGLE, MIXED, DEEP],
                         ids=["ragged", "single", "mixed", "deep"])
@pytest.mark.parametrize("field_override", FIELDS)
def test_masks_match_per_symbol_reference(config, field_override):
    for seed in range(3):
        assert_round_matches(config, seed, field_override)
    if field_override == 2**31 - 1:
        # the points -n: residues near q, so a deep Horner step needs its int64 bound
        assert_round_matches(config, 3, field_override,
                             [field_override - n for n in range(1, config.n_servers + 1)])


@st.composite
def decode_cases(draw):
    """(params, answers): any answer vector, L from 1 to N, default or overridden field."""
    n = draw(st.integers(1, 12))
    l_value = draw(st.integers(1, n))
    config = AsymmConfig(StoragePattern(n, (MessageSet(tuple(range(1, n + 1))),)),
                         (0,), (0,), l_value)
    params = setup(config, draw(st.sampled_from(FIELDS)))
    q = params.field.q
    entry = st.one_of(st.integers(0, q - 1), st.sampled_from([0, 1, q - 1]))
    return params, draw(st.lists(entry, min_size=n, max_size=n))


@settings(max_examples=300, deadline=None)
@given(decode_cases())
def test_reconstruct_matches_reference_decode(case):
    params, answers = case
    q = params.field.q
    decoded = reconstruct(tuple(params.field(a) for a in answers), params)
    assert [d.value for d in decoded] == reference_decode(answers, params.alpha.tolist(),
                                                          params.f.tolist(), q)


def reference_simplex(lp: LinearProgram) -> tuple[
        LpSolution, list[Fraction], tuple[dict[int, list[Fraction]], Fraction, list[Fraction]]]:
    """Bland's rule on a dense Fraction tableau from the all-at-upper start,
    minimizing sum(x).

    Also returns, for each pivot, |det B| * T[p][e]: the integer pivot the
    fraction-free tableau meets there; and |det B| times the final
    tableau's nonbasic columns, {variable: column, reduced cost last},
    |det B| itself, and |det B| times the basic values in row order.
    """
    n = lp.n_vars
    rows = lp.rows
    r = len(rows)
    total = n + r
    tableau = [
        [Fraction(-rows[i][j]) for j in range(n)]
        + [Fraction(1 if k == i else 0) for k in range(r)]
        for i in range(r)
    ]
    beta = [Fraction(sum(rows[i]) - 1) for i in range(r)]
    assert all(b >= 0 for b in beta), "the all-ones start must be feasible"
    basis = [n + i for i in range(r)]
    in_basis = [False] * n + [True] * r
    at_upper = [True] * n + [False] * r
    upper = [Fraction(1)] * n + [None] * r
    cost_full = [Fraction(1)] * n + [Fraction(0)] * r
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
        assert best_t is not None or span is not None, "the unit box bounds every direction"
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
    solution = LpSolution(optimum=sum(vertex), vertex=vertex, basis=tuple(sorted(basis)),
                          pivots=len(integer_pivots), bound_flips=bound_flips)
    scaled = {j: [det * tableau[i][j] for i in range(r)]
              + [det * (cost_full[j] - sum(cost_full[basis[i]] * tableau[i][j] for i in range(r)))]
              for j in range(total) if not in_basis[j]}
    return solution, integer_pivots, (scaled, det, [det * b for b in beta])


def assert_same_pivot_path(lp: LinearProgram) -> list[Fraction]:
    expected, integer_pivots, _ = reference_simplex(lp)
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
    return LinearProgram(n_vars=n, rows=tuple(rows))


@settings(max_examples=200, deadline=None)
@given(covering_lps())
@example(LinearProgram(n_vars=3, rows=()))
def test_simplex_matches_fraction_reference(lp):
    assert_same_pivot_path(lp)


def example_programs() -> set[LinearProgram]:
    # the covering rows depend on x + t only, so equal programs are solved once
    return {build_capacity_lp(p, x, t)
            for p in (GRAPH_SIX, GRAPH_FOURTEEN, UNEVEN_SEVEN, UNEVEN_NINE)
            for x, t in itertools.product(range(max(p.replication_factors)), repeat=2)
            if min_replication_slack(p, x, t) > 0}


def test_simplex_matches_fraction_reference_on_example_patterns():
    lps = example_programs()
    assert len(lps) == 14
    for lp in lps:
        assert_same_pivot_path(lp)


@contextlib.contextmanager
def simplex_returns(read):
    """Collects read(f_locals) as each simplex_min call returns."""
    seen = []

    def spy(frame, event, arg):
        if event == "return" and frame.f_code is simplex_min.__code__:
            seen.append(read(frame.f_locals))

    previous = sys.getprofile()
    sys.setprofile(spy)
    try:
        yield seen
    finally:
        sys.setprofile(previous)


def final_tableau_kinds():
    """Collects the dtype kind of simplex_min's tableau as each call returns:
    'i' for int64, 'O' for Python ints."""
    return simplex_returns(lambda f: f["tableau"].dtype.kind)


def condensed_columns(f):
    """simplex_min's final tableau as {nonbasic variable: slot}, D, and the
    numerator slot n that follows the nonbasic slots."""
    tableau, n = f["tableau"], len(f["nonbasic"])
    slots = {int(v): [int(e) for e in slot] for v, slot in zip(f["nonbasic"], tableau[:n])}
    return slots, f["denom"], [int(e) for e in tableau[n]]


def assert_condensed_tableaus_match(lps):
    # each slot ends as D times the reference's column of its variable, reduced cost
    # last, and the numerator slot as D times the basic values over a cost entry of 0,
    # on int64 and with the limit at 1 (Python ints from the first pivot on)
    expected = [(scaled, det, numerators + [0])
                for scaled, det, numerators in (reference_simplex(lp)[2] for lp in lps)]
    for limit in (exactlp._INT64_LIMIT, 1):
        with pytest.MonkeyPatch.context() as mp, simplex_returns(condensed_columns) as finals:
            mp.setattr(exactlp, "_INT64_LIMIT", limit)
            for lp in lps:
                simplex_min(lp)
        assert finals == expected, limit


@settings(max_examples=100, deadline=None)
@given(covering_lps())
def test_condensed_tableau_is_the_scaled_reference_tableau(lp):
    assert_condensed_tableaus_match([lp])


def test_condensed_tableau_is_the_scaled_reference_tableau_on_example_patterns():
    assert_condensed_tableaus_match(list(example_programs()))


def test_promoted_tableau_matches_fraction_reference_on_example_patterns():
    # with the int64 limit at 1 the tableau turns into Python ints at the first pivot
    lps = list(example_programs())
    expected = [reference_simplex(lp)[0] for lp in lps]
    with pytest.MonkeyPatch.context() as mp, final_tableau_kinds() as kinds:
        mp.setattr(exactlp, "_INT64_LIMIT", 1)
        assert [simplex_min(lp) for lp in lps] == expected
    assert kinds == ["O" if sol.pivots else "i" for sol in expected]
    assert "O" in kinds


def test_promotion_pivot_at_small_limits():
    # an entry of M or num at the limit turns the tableau into Python ints before
    # the next pivot; the kinds at return (programs by (n_vars, rows)) pin that pivot
    kinds_by_limit = {2: "OOOOOOOOOOOOOO", 3: "iOiOOOOOOOOOOO", 4: "iiiiOOOOOOOOOO",
                      8: "iiiiiiiOOiOOOi", 16: "iiiiiiiiiiOOOi"}
    lps = sorted(example_programs(), key=lambda lp: (lp.n_vars, lp.rows))
    expected = [reference_simplex(lp)[0] for lp in lps]
    for limit, expected_kinds in kinds_by_limit.items():
        with pytest.MonkeyPatch.context() as mp, final_tableau_kinds() as kinds:
            mp.setattr(exactlp, "_INT64_LIMIT", limit)
            assert [simplex_min(lp) for lp in lps] == expected
        assert "".join(kinds) == expected_kinds, limit


def test_surplus_numerators_reach_a_small_limit_first():
    # on this program the surplus numerators cross limits 11 to 13 while every
    # tableau entry stays below them, so only the running bound on max |num|
    # (updated at each pivot) promotes the tableau in time
    lp = random_covering_lp(random.Random(2047), n_max=14, rows_max=70)
    assert (lp.n_vars, len(lp.rows)) == (11, 26)
    expected = reference_simplex(lp)[0]
    for limit in (11, 12, 13):
        with pytest.MonkeyPatch.context() as mp, final_tableau_kinds() as kinds:
            mp.setattr(exactlp, "_INT64_LIMIT", limit)
            assert simplex_min(lp) == expected
        assert kinds == ["O"], limit


def loop_head_line() -> int:
    """The line of the first statement in simplex_min's pivot loop."""
    lines, start = inspect.getsourcelines(simplex_min)
    loop = next(node for node in ast.walk(ast.parse(textwrap.dedent("".join(lines))))
                if isinstance(node, ast.While))
    return start + loop.body[0].lineno - 1


@contextlib.contextmanager
def loop_heads(read):
    """Collects read(f_locals) each time a simplex_min call starts a pass of its loop."""
    seen, head = [], loop_head_line()

    def local(frame, event, arg):
        if event == "line" and frame.f_lineno == head:
            seen.append(read(frame.f_locals))
        return local

    def spy(frame, event, arg):
        return local if frame.f_code is simplex_min.__code__ else None

    previous = sys.gettrace()
    sys.settrace(spy)
    try:
        yield seen
    finally:
        sys.settrace(previous)


def guard_gaps(f):
    """How far each running bound lies above what it bounds: max(|slots 0..n-1|, D)
    for ``bound``, max |slot n| for ``num_bound``; negative once a bound falls behind."""
    tableau, n = f["tableau"], len(f["nonbasic"])
    entries = max(int(np.abs(tableau[:n]).max()), f["denom"])
    return f["bound"] - entries, f["num_bound"] - int(np.abs(tableau[n]).max())


def assert_guard_bounds_hold(lps):
    # at the int64 limit the bounds only grow; at small limits a measurement that does
    # not promote resets them to the true maxima, and later pivots and flips must
    # raise them again before the entries grow past them
    for limit in (exactlp._INT64_LIMIT, 2, 3, 5, 9, 17, 33, 1024):
        with pytest.MonkeyPatch.context() as mp, loop_heads(guard_gaps) as gaps:
            mp.setattr(exactlp, "_INT64_LIMIT", limit)
            for lp in lps:
                simplex_min(lp)
        assert gaps and min(map(min, gaps)) >= 0, limit


@settings(max_examples=100, deadline=None)
@given(covering_lps())
def test_guard_bounds_hold_at_every_loop_head(lp):
    assert_guard_bounds_hold([lp])


def test_guard_bounds_hold_at_every_loop_head_on_example_patterns():
    assert_guard_bounds_hold(list(example_programs()))


@settings(max_examples=100, deadline=None)
@given(covering_lps())
def test_promoted_tableau_matches_fraction_reference(lp):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(exactlp, "_INT64_LIMIT", 1)
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


def test_simplex_matches_fraction_reference_on_ladder_shaped_programs():
    # shaped like the benchmark's fixed capacity programs: 16-20 servers, five to
    # eight groups of 4-7, x = t = 1, so 55-110 covering rows of two servers fewer
    rng = random.Random(5)
    shapes, integer_pivots = [], []
    while len(shapes) < 5:
        n = rng.randint(16, 20)
        sets = tuple(MessageSet(tuple(sorted(rng.sample(range(1, n + 1), rng.randint(4, 7)))),
                                rng.randint(1, 2)) for _ in range(rng.randint(5, 8)))
        lp = build_capacity_lp(StoragePattern(n, sets), 1, 1)
        if 55 <= len(lp.rows) <= 110:
            integer_pivots += assert_same_pivot_path(lp)
            shapes.append((lp.n_vars, len(lp.rows)))
    assert min(shapes) >= (16, 55)
    assert any(abs(a) > 1 for a in integer_pivots)
    assert any(a < 0 for a in integer_pivots)


def test_simplex_matches_fraction_reference_on_sparse_columns():
    # shaped like the merged audits' programs: 30 variables, mostly singleton
    # rows, so an entering column is nonzero in one or two rows of 30
    rng = random.Random(1)
    order = rng.sample(range(30), 30)
    members = [{j} for j in order[:24]] + [set(rng.sample(order[24:], 2)) for _ in range(6)]
    rng.shuffle(members)
    lp = LinearProgram(n_vars=30, rows=tuple(tuple(int(j in m) for j in range(30))
                                             for m in members))
    integer_pivots = assert_same_pivot_path(lp)
    assert len(integer_pivots) == 30
    assert any(abs(a) > 1 for a in integer_pivots)


def reference_capacity_rows(pattern, x, t):
    """Covering rows by a membership test over all servers, first occurrence kept."""
    rows = []
    for m in range(1, pattern.m_count + 1):
        group = pattern.servers_of(m)
        for subset in itertools.combinations(group, len(group) - x - t):
            row = tuple(1 if n in subset else 0 for n in range(1, pattern.n_servers + 1))
            if row not in rows:
                rows.append(row)
    return tuple(rows)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32), st.integers(0, 2), st.integers(0, 2))
def test_capacity_rows_match_reference_in_order(seed, x, t):
    # the Bland vertex, and so tau, depends on the row order
    pattern = random_pattern(random.Random(seed), n_max=7, m_max=4, x=x, t=t)
    assert build_capacity_lp(pattern, x, t).rows == reference_capacity_rows(pattern, x, t)


def reference_capacity(pattern, x, t, forced=True):
    """The capacity with Fraction bookkeeping: the vertex of _forced_vertex
    (unless forced is false) or simplex_min, the optimum summed entry by
    entry, L the lcm of the denominators and tau = L * vertex."""
    if min_replication_slack(pattern, x, t) <= 0:
        return CapacityResult(Fraction(0), True, None, None, None)
    vertex = capacity._forced_vertex(pattern, x, t) if forced else None
    if vertex is None:
        sol = simplex_min(build_capacity_lp(pattern, x, t))
        vertex = sol.vertex
        assert sol.optimum == sum(vertex, Fraction(0))
    assert all(sum(sorted(vertex[n - 1] for n in g)[:len(g) - x - t]) >= 1
               for g in (ms.servers for ms in pattern.message_sets))
    assert all(0 <= d <= 1 for d in vertex)
    l_value = math.lcm(*(d.denominator for d in vertex))
    scaled = [d * l_value for d in vertex]
    assert all(d.denominator == 1 for d in scaled)
    tau = tuple(int(d) for d in scaled)
    assert math.gcd(l_value, *tau) == 1
    rate = 1 / sum(vertex, Fraction(0))
    assert rate == Fraction(l_value, sum(tau))
    return CapacityResult(rate, False, vertex, l_value, tau)


def assert_capacity_matches_reference(pattern, x, t):
    """Both paths of asymptotic_capacity against the Fraction bookkeeping:
    the forced one where it applies, and the simplex on the full row list."""
    assert asymptotic_capacity(pattern, x, t) == reference_capacity(pattern, x, t)
    assert simplex_capacity(pattern, x, t) == reference_capacity(pattern, x, t, forced=False)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32), st.integers(0, 2), st.integers(0, 2))
@example(0, 1, 1)
def test_capacity_bookkeeping_matches_fraction_reference(seed, x, t):
    pattern = random_pattern(random.Random(seed), n_max=7, m_max=4, x=x, t=t, max_rows=40)
    assert_capacity_matches_reference(pattern, x, t)
    assert_capacity_matches_reference(pattern, pattern.n_servers, 0)   # degenerate


def test_capacity_bookkeeping_matches_fraction_reference_on_examples():
    forced = 0
    for pattern in EXAMPLES + (TRIANGLES,):
        for x, t in itertools.product(range(3), repeat=2):
            assert_capacity_matches_reference(pattern, x, t)
            forced += capacity._forced_vertex(pattern, x, t) is not None
    # TRIANGLES at x + t = 2; the catalogue and the random patterns hold many more
    assert forced == 3


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32), st.integers(0, 2), st.integers(0, 2))
def test_flat_id_table_matches_flat_id(seed, x, t):
    pattern = random_pattern(random.Random(seed), n_max=7, m_max=4, x=x, t=t, max_rows=40)
    a = generate_augmented_system(pattern, x, t, asymptotic_capacity(pattern, x, t))
    assert a.flat_groups == tuple(tuple(a.flat_id(vs) for vs in g) for g in a.r_bar)
    copies = [[(n, i) for i in range(1, a.tau[n - 1] + 1)] for n in range(1, a.n_original + 1)]
    assert [a.exposed((n,)) for n in range(1, a.n_original + 1)] == [
        tuple(map(a.flat_id, vs)) for vs in copies]
    assert [(plan.virtual_ids, plan.sets_per_copy) for plan in merged_query_plan(a)] == [
        (tuple(map(a.flat_id, vs)),
         tuple(tuple(m for m, g in enumerate(a.r_bar, start=1) if v in g) for v in vs))
        for vs in copies]
    assert [ms.servers for ms in a.virtual_pattern().message_sets] == list(a.flat_groups)


def reference_augment(pattern, x, t, cap):
    """Augmentation with every table built up front: the virtual servers
    (n, i) in order, and per set its (n, i) members and copy counts."""
    tau = cap.tau
    virtual = tuple((n, i) for n in range(1, pattern.n_servers + 1)
                    for i in range(1, tau[n - 1] + 1))
    r_bar, delta = [], []
    for m in range(1, pattern.m_count + 1):
        group = pattern.servers_of(m)
        g = sorted((tau[n - 1] for n in group), reverse=True)[x + t]
        slots = tuple((n, min(g, tau[n - 1])) for n in group)
        r_bar.append(tuple((n, i) for n, d in slots for i in range(1, d + 1)))
        delta.append(slots)
    return virtual, tuple(r_bar), tuple(delta)


def assert_tables_match_reference(pattern, x, t):
    cap = asymptotic_capacity(pattern, x, t)
    a = generate_augmented_system(pattern, x, t, cap)
    virtual, r_bar, delta = reference_augment(pattern, x, t, cap)
    assert (a.delta, a.r_bar, a.virtual_servers, a.n_virtual) == (
        delta, r_bar, virtual, len(virtual))
    assert a.flat_groups == tuple(tuple(virtual.index(vs) + 1 for vs in g) for g in r_bar)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32), st.integers(0, 2), st.integers(0, 2))
def test_derived_tables_match_eager_augmentation(seed, x, t):
    pattern = random_pattern(random.Random(seed), n_max=7, m_max=4, x=x, t=t, max_rows=40)
    assert_tables_match_reference(pattern, x, t)


def test_derived_tables_match_eager_augmentation_on_examples():
    checked = 0
    for pattern in EXAMPLES + (TRIANGLES,):
        for x, t in itertools.product(range(3), repeat=2):
            if min_replication_slack(pattern, x, t) >= 1:
                assert_tables_match_reference(pattern, x, t)
                checked += 1
    assert checked == 34


# -- field linear algebra ----------------------------------------------------

def reference_eliminate(rows: list[list[int]], q: int) -> tuple[list[list[int]], list[int]]:
    """Reduced row echelon form over F_q of a copy of the rows (lists or
    an int array), and its pivot columns."""
    rows = [[int(e) % q for e in row] for row in rows]
    n_rows = len(rows)
    n_cols = len(rows[0]) if n_rows else 0
    pivots = []
    r = 0
    for col in range(n_cols):
        piv = next((i for i in range(r, n_rows) if rows[i][col] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = pow(rows[r][col], q - 2, q)
        rows[r] = [(e * inv) % q for e in rows[r]]
        for i in range(n_rows):
            if i != r and rows[i][col] != 0:
                factor = rows[i][col]
                rows[i] = [(a - factor * b) % q for a, b in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
        if r == n_rows:
            break
    return rows, pivots


def reference_rank(rows: list[list[int]], q: int) -> int:
    return len(reference_eliminate(rows, q)[1])


def reference_solve(rows: list[list[int]], q: int) -> list[int]:
    n = len(rows)
    rows, pivots = reference_eliminate(rows, q)
    if pivots != list(range(n)):
        raise ValueError("coefficient matrix is singular")
    return [row[n] for row in rows]


# -- audits --------------------------------------------------------------------

SHORTFALL = {"storage": "observed shares", "query": "at slot {l}"}
SWEEP_NOTE = {"storage": "storage secrecy not promised (x=0)",
              "query": "query privacy not promised (t=0)"}
MERGED_NOTE = {"storage": "security: no colluding sets to check (x=0)",
               "query": "privacy: not applicable (t=0)"}


def reference_threshold(config, m, side):
    return (config.x_vec if side == "storage" else config.t_vec)[m - 1]


def reference_noise_rows(params, side, a, depth):
    q = params.field.q
    powers = [pow(a, d, q) for d in range(depth)]
    if side == "storage":
        return [powers]
    return [[(a - f_l) * p % q for p in powers] for f_l in params.f.tolist()]


def reference_violation(config, params, subset, m, side):
    hit = sorted(set(subset) & set(params.group_of(m)))
    s = len(hit)
    if s == 0:
        return None
    depth = reference_threshold(config, m, side)
    if s > depth:
        return f"{s} colluders in the group exceed the threshold {depth}"
    per_server = [reference_noise_rows(params, side, int(params.alpha[n - 1]), depth)
                  for n in hit]
    for l, rows in enumerate(zip(*per_server), start=1):
        rank = reference_rank(list(rows), params.field.q)
        if rank != s:
            return f"{side} noise covers rank {rank} of {s} {SHORTFALL[side].format(l=l)}"
    return None


def reference_report(mode, checked, violations, sampled=False, notes=()):
    return AuditReport(mode=mode, checked_subsets=checked, violations=tuple(violations),
                       passed=not violations, sampled=sampled, notes=tuple(notes))


def reference_asymm_audit(config, params):
    violations, notes, checked = [], [], 0
    for m in range(1, config.m_count + 1):
        for side in ("storage", "query"):
            depth = reference_threshold(config, m, side)
            if depth == 0:
                notes.append(f"set {m}: {SWEEP_NOTE[side]}")
            for size in range(1, depth + 1):
                for subset in itertools.combinations(params.group_of(m), size):
                    checked += 1
                    detail = reference_violation(config, params, subset, m, side)
                    if detail is not None:
                        violations.append(Violation(subset, m, f"{side}: {detail}"))
    return reference_report("rank_certificate", checked, violations, notes=notes)


def reference_merged_audit(a, params, x, t):
    """Every subset of up to x (or t) original servers, each on every set
    its copies touch.  The count is the one the product reports: the
    subsets walked, or 500 per side once more than 5000 are walked."""
    config = virtual_config(a)
    n = a.n_original
    violations, notes, walked = [], [], []
    touched = [{m for m, slots in enumerate(a.delta, start=1) if dict(slots).get(o)}
               for o in range(n + 1)]
    for side, limit in (("storage", x), ("query", t)):
        if limit == 0:
            notes.append(MERGED_NOTE[side])
            continue
        walked.append(0)
        for originals in itertools.chain.from_iterable(
                itertools.combinations(range(1, n + 1), size) for size in range(1, limit + 1)):
            walked[-1] += 1
            virtual_subset = a.exposed(originals)
            for m in sorted(set().union(*(touched[o] for o in originals))):
                detail = reference_violation(config, params, virtual_subset, m, side)
                if detail is not None:
                    violations.append(Violation(originals, m, f"{side}: {detail}"))
    sampled = sum(walked) > 5000
    checked = 500 * len(walked) if sampled else sum(walked)
    return reference_report("rank_certificate", checked, violations, sampled, notes)


def reference_merged_shortcut(a, params, x, t):
    """The merged audit with the virtual configuration built up front: the
    params checked against it, and a side sent to the walk unless, for
    each set, the limit largest copy counts stay within the configuration's
    threshold and _Side.clear passes the points of the set's group.
    Returns the report: the walk of reference_merged_audit, for the sides
    sent to it."""
    config = virtual_config(a)
    groups = tuple(config.pattern.servers_of(m) for m in range(1, config.m_count + 1))
    if ((params.groups, params.l_value, len(params.alpha))
            != (groups, config.l_effective, config.n_servers)):
        raise DimensionMismatch("params were built for a different system")
    f = params.f.tolist()
    walked = [spec.name for spec, limit in zip(_SIDES.values(), (x, t)) if limit and not all(
        sum(sorted(d for _, d in slots)[-limit:]) <= spec.threshold(config, m)
        and spec.clear([int(params.alpha[n - 1]) for n in params.group_of(m)], f)
        for m, slots in enumerate(a.delta, start=1))]
    report = reference_merged_audit(a, params, x, t)
    violations = [v for v in report.violations if v.detail.split(":")[0] in walked]
    return dataclasses.replace(report, violations=tuple(violations), passed=not violations)


def merged_system(pattern, x, t):
    cap = asymptotic_capacity(pattern, x, t)
    aug = generate_augmented_system(pattern, x, t, cap)
    return aug, setup(virtual_config(aug))


def assert_sweeps_match(config, params):
    assert asymm_scheme_audit(config, params) == reference_asymm_audit(config, params)


def within_holders(a, violations):
    """The violations whose subset lies within its set's holders, the
    original servers with at least one copy of the set."""
    holders = [{n for n, d in slots if d} for slots in a.delta]
    return tuple(v for v in violations if set(v.subset) <= holders[v.message_set - 1])


def assert_merged_matches(aug, params, x, t):
    """The product's report equals the oracles' in all but its violations,
    and those are the oracles' violations by subsets of one set's holders,
    in the oracles' order; the verdicts agree."""
    report = merged_scheme_audit(aug, params, x, t)
    walked = reference_merged_audit(aug, params, x, t)
    assert walked == reference_merged_shortcut(aug, params, x, t)
    assert report == dataclasses.replace(walked, violations=within_holders(aug, walked.violations))
    return report


EXAMPLES = (GRAPH_SIX, GRAPH_FOURTEEN, UNEVEN_SEVEN, UNEVEN_NINE)


def sweep_size(config):
    return sum(comb(len(config.pattern.servers_of(m)), size)
               for m in range(1, config.m_count + 1)
               for depth in (config.x_vec[m - 1], config.t_vec[m - 1])
               for size in range(1, depth + 1))


def test_sweeps_match_reference_on_example_patterns():
    merged = virtual = 0
    for pattern in EXAMPLES:
        for x, t in itertools.product(range(3), repeat=2):
            if min_replication_slack(pattern, x, t) <= 0:
                continue
            config = AsymmConfig.uniform(pattern, x, t)
            assert_sweeps_match(config, setup(config))
            aug, params = merged_system(pattern, x, t)
            assert_merged_matches(aug, params, x, t)
            merged += 1
            # the virtual sweep grows as C(|R_m|, x gamma_m); the slow side
            # here is the reference
            if sweep_size(virtual_config(aug)) <= 3000:
                assert_sweeps_match(virtual_config(aug), params)
                virtual += 1
    assert (merged, virtual) == (28, 23)
    for config in (AsymmConfig(UNEVEN_SEVEN, (0, 0, 0, 0), (1, 2, 1, 2)),
                   AsymmConfig(UNEVEN_NINE, (1, 2), (1, 2))):
        assert_sweeps_match(config, setup(config))


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32))
def test_asymm_sweep_matches_reference_on_random_configs(seed):
    config = random_config(random.Random(seed))
    assert_sweeps_match(config, setup(config))


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32), st.integers(0, 2), st.integers(0, 2))
def test_merged_audit_matches_reference_on_random_patterns(seed, x, t):
    pattern = random_pattern(random.Random(seed), n_max=7, m_max=3, x=x, t=t, max_rows=40)
    aug, params = merged_system(pattern, x, t)
    assert_merged_matches(aug, params, x, t)


def with_alpha(params, changes):
    """The params with some server points moved."""
    alpha = params.alpha.copy()
    for n, value in changes.items():
        alpha[n - 1] = value
    return dataclasses.replace(params, alpha=alpha)


def test_failing_sweeps_match_reference():
    # colliding points: rank shortfalls on both sides
    config = AsymmConfig(UNEVEN_NINE, (1, 2), (1, 2))
    params = setup(config)
    colliding = with_alpha(params, {4: params.alpha[4]})
    assert len(asymm_scheme_audit(config, colliding).violations) == 2
    assert_sweeps_match(config, colliding)
    # a point on an f point zeroes that server's query rows at one slot
    on_f = with_alpha(params, {5: params.f[1]})
    assert any("at slot 2" in v.detail for v in asymm_scheme_audit(config, on_f).violations)
    assert_sweeps_match(config, on_f)

    # lowered thresholds: every touched set fails on both sides
    aug, params = merged_system(GRAPH_SIX, 1, 1)
    lowered = dataclasses.replace(aug, x_bar=tuple(v - 1 for v in aug.x_bar),
                                  t_bar=tuple(v - 1 for v in aug.t_bar))
    assert len(assert_merged_matches(lowered, params, 1, 1).violations) == 14
    # colliding virtual points fail by rank in the merged audit too
    # (virtual servers 3 and 4 are the two copies of original server 3)
    shortfall = assert_merged_matches(aug, with_alpha(params, {4: params.alpha[2]}), 1, 1)
    assert {v.detail.split(" noise")[0] for v in shortfall.violations} == {
        "storage: storage", "query: query"}
    for x, t in ((1, 1), (2, 1)):
        aug, params = merged_system(GRAPH_FOURTEEN, x, t)
        collide = with_alpha(params, {3: params.alpha[2], 9: params.f[0]})
        assert not assert_merged_matches(aug, collide, x, t).passed

    # past the 5000-subset count cap every original subset is still
    # judged, and the failing holder subsets are the oracle's walk
    wide = StoragePattern(102, (MessageSet(tuple(range(1, 6))),))
    aug, params = merged_system(wide, 2, 2)
    lowered = dataclasses.replace(aug, x_bar=tuple(v - 1 for v in aug.x_bar),
                                  t_bar=aug.t_bar)
    report = assert_merged_matches(lowered, params, 2, 2)
    assert report.sampled and not report.passed


@st.composite
def point_multisets(draw):
    """(params, depth, s): s <= depth servers whose points repeat and sit on f points."""
    q = draw(st.sampled_from((2, 3, 5, 7)))
    f = draw(st.lists(st.integers(0, q - 1), min_size=1, max_size=3, unique=True))
    depth = draw(st.integers(1, 4))
    points = draw(st.lists(st.one_of(st.integers(0, q - 1), st.sampled_from(f)), max_size=depth))
    params = dataclasses.replace(setup(AsymmConfig(PAIR, (1,), (0,))), field=PrimeField(q),
                                 alpha=np.array(points, dtype=np.int64),
                                 f=np.array(f, dtype=np.int64))
    return params, depth, len(points)


@settings(max_examples=300, deadline=None)
@given(point_multisets())
def test_closed_form_ranks_match_row_ranks(case):
    params, depth, s = case
    q = params.field.q
    for side, spec in _SIDES.items():
        per_server = [reference_noise_rows(params, side, a, depth) for a in params.alpha.tolist()]
        slots = len(reference_noise_rows(params, side, 0, depth))
        expected = [reference_rank([rows[l] for rows in per_server], q) for l in range(slots)]
        assert spec.ranks(params.alpha.tolist(), params.f.tolist()) == expected


@settings(max_examples=300, deadline=None)
@given(point_multisets())
def test_clear_iff_every_rank_is_full(case):
    params, _, s = case
    points, f = params.alpha.tolist(), params.f.tolist()
    for spec in _SIDES.values():
        assert spec.clear(points, f) == all(rank == s for rank in spec.ranks(points, f))


def test_colliding_points_pass_when_no_subset_sees_two():
    # the group check fails, so the sweep walks its subsets, and none fails
    config = AsymmConfig(TRIPLE, (1,), (1,), l_value=1)
    params = setup(config)
    colliding = with_alpha(params, {2: params.alpha[0]})
    points = colliding.alpha.tolist()
    assert not any(spec.clear(points, colliding.f.tolist()) for spec in _SIDES.values())
    assert asymm_scheme_audit(config, colliding).passed
    assert_sweeps_match(config, colliding)


def test_point_on_f_passes_without_query_privacy():
    config = AsymmConfig(PAIR, (1,), (0,))
    params = setup(config)
    on_f = with_alpha(params, {2: params.f[0]})
    assert not _SIDES["query"].clear(on_f.alpha.tolist(), on_f.f.tolist())
    assert asymm_scheme_audit(config, on_f).passed
    assert_sweeps_match(config, on_f)


def test_sampled_merged_audit_fails_on_query_side_alone():
    wide = StoragePattern(102, (MessageSet(tuple(range(1, 6))),))
    aug, params = merged_system(wide, 2, 2)
    lowered = dataclasses.replace(aug, t_bar=tuple(v - 1 for v in aug.t_bar))
    report = assert_merged_matches(lowered, params, 2, 2)
    assert report.sampled and not report.passed
    assert {v.detail.split(":")[0] for v in report.violations} == {"query"}


def test_certificates_match_reference_per_subset():
    config = AsymmConfig(UNEVEN_NINE, (1, 2), (1, 2))
    params = setup(config)
    for candidate in (params, with_alpha(params, {4: params.alpha[4], 7: params.f[0]})):
        for size in (1, 2, 3):
            for subset in itertools.combinations(range(1, 10), size):
                for side, certificate in (("storage", security_rank_certificate),
                                          ("query", privacy_rank_certificate)):
                    expected = all(reference_violation(config, candidate, subset, m, side)
                                   is None for m in range(1, config.m_count + 1))
                    assert certificate(config, candidate, subset) == expected


def reference_forms(config, params, subset, side):
    """(n_secret, n_noise, forms): each observed symbol as a list of
    (variable, coefficient) terms, built from the scheme's formulas."""
    q = params.field.q
    l_value = params.l_value
    secret_index = {}
    for m in range(1, config.m_count + 1):
        for k in range(1, config.pattern.count_of(m) + 1):
            for l in range(1, l_value + 1):
                secret_index[(m, k, l)] = len(secret_index)
    noise_index = {}
    for m in range(1, config.m_count + 1):
        for d in range(1, reference_threshold(config, m, side) + 1):
            for l in range(1, l_value + 1):
                for k in range(1, config.pattern.count_of(m) + 1):
                    noise_index[(m, d, l, k)] = len(noise_index)
    n_secret, n_noise = len(secret_index), len(noise_index)
    forms = []
    for n in sorted(subset):
        a_n = int(params.alpha[n - 1])
        for m in range(1, config.m_count + 1):
            if n not in config.pattern.servers_of(m):
                continue
            rows = reference_noise_rows(params, side, a_n, reference_threshold(config, m, side))
            for l in range(1, l_value + 1):
                if side == "storage":
                    secret_coeff = pow(a_n - int(params.f[l - 1]), q - 2, q)
                else:
                    secret_coeff = int(params.u[m - 1, l - 1])
                noise_coeffs = rows[min(l, len(rows)) - 1]
                for k in range(1, config.pattern.count_of(m) + 1):
                    term = [(secret_index[(m, k, l)], secret_coeff)]
                    for d, c in enumerate(noise_coeffs, start=1):
                        term.append((n_secret + noise_index[(m, d, l, k)], c))
                    forms.append(term)
    return n_secret, n_noise, forms


def reference_form_matrix(config, params, subset, side):
    """reference_forms as a dense [observed symbols, variables] array."""
    n_secret, n_noise, terms = reference_forms(config, params, subset, side)
    forms = np.zeros((len(terms), n_secret + n_noise), dtype=np.int64)
    for row, term in enumerate(terms):
        for variable, coeff in term:
            forms[row, variable] = coeff
    return forms


def reference_first_failure(n_secret, forms, q):
    """The exhaustive enumeration by itertools.product into a dict of counts.

    forms is a dense [observed symbols, variables] array over the secrets,
    then the noise.  Returns (observation, what fails) for the first
    observation, in order of first occurrence, not seen equally often
    with every secret; None if there is none.
    """
    rows = forms.tolist()
    counts = {}
    for assignment in itertools.product(range(q), repeat=forms.shape[1]):
        observed = tuple(sum(c * a for c, a in zip(row, assignment)) % q for row in rows)
        per_secret = counts.setdefault(observed, {})
        secrets = assignment[:n_secret]
        per_secret[secrets] = per_secret.get(secrets, 0) + 1
    for observed, per_secret in counts.items():
        if len(per_secret) != q ** n_secret:
            return observed, "misses some secrets"
        reference = next(iter(per_secret.values()))
        if any(c != reference for c in per_secret.values()):
            return observed, "has uneven counts"
    return None


def reference_independence_side(config, params, subset, side):
    q = params.field.q
    n_secret, n_noise, terms = reference_forms(config, params, subset, side)
    forms = np.zeros((len(terms), n_secret + n_noise), dtype=np.int64)
    for row, term in enumerate(terms):
        for variable, coeff in term:
            forms[row, variable] = coeff
    cells = q ** (n_secret + n_noise)
    failure = reference_first_failure(n_secret, forms, q)
    if failure is None:
        return cells, None
    observed, what = failure
    return cells, f"{side}: observation {observed} {what}"


def reference_exhaustive_audit(config, params, subset, side):
    subset = tuple(sorted(set(subset)))
    violations, notes = [], []
    for s in (("storage", "query") if side == "both" else (side,)):
        cells, detail = reference_independence_side(config, params, subset, s)
        notes.append(f"{s}: enumerated {cells} joint realizations")
        if detail is not None:
            violations.append(Violation(subset=subset, message_set=None, detail=detail))
    return reference_report("exhaustive", 1, violations, notes=notes)


PAIR = StoragePattern(2, (MessageSet((1, 2)),))
TRIPLE = StoragePattern(3, (MessageSet((1, 2, 3)),))
TINY = (
    (AsymmConfig(PAIR, (1,), (0,)), 5),
    (AsymmConfig(PAIR, (0,), (1,)), 7),
    (AsymmConfig(TRIPLE, (1,), (1,), l_value=1), 5),
    (AsymmConfig(TRIPLE, (1,), (1,), l_value=1), 7),
    (AsymmConfig(TRIPLE, (2,), (0,), l_value=1), 5),
    (AsymmConfig(StoragePattern(3, (MessageSet((1, 2)), MessageSet((2, 3)))),
                 (1, 0), (0, 1), l_value=1), 5),
    (AsymmConfig(StoragePattern(4, (MessageSet((1, 2, 3)), MessageSet((2, 3, 4)))),
                 (1, 1), (1, 1), l_value=1), 5),
)


def test_exhaustive_audit_matches_reference_on_tiny_systems():
    failures = set()
    for config, q in TINY:
        params = setup(config, field_override=q)
        n = config.n_servers
        for size in range(1, n + 1):
            for subset in itertools.combinations(range(1, n + 1), size):
                report = exhaustive_independence_audit(config, params, subset)
                assert report == reference_exhaustive_audit(config, params, subset, "both")
                failures.update(v.detail.split(" ", 1)[0] for v in report.violations)
                # the forms probed from the protocol are the formulas' forms
                for side in ("storage", "query"):
                    n_secret, n_noise, terms = reference_forms(config, params, subset, side)
                    expected = np.zeros((len(terms), n_secret + n_noise), dtype=np.int64)
                    for row, term in enumerate(terms):
                        for variable, coeff in term:
                            expected[row, variable] = coeff
                    assert np.array_equal(_probed_forms(config, params, subset, side), expected)
    # over-collusion fails on both sides somewhere
    assert failures == {"storage:", "query:"}


# shapes that TINY leaves out: two messages in a set (K_m = 2), two
# slots (L = 2) and a set without noise on one side (depth 0); no
# enumeration runs, so the cell cap does not apply
SHAPED = {
    "two-messages": AsymmConfig(StoragePattern(3, (MessageSet((1, 2, 3), 2),)),
                                (1,), (1,), l_value=1),
    "two-slots": AsymmConfig(StoragePattern(4, (MessageSet((1, 2, 3, 4)),)), (1,), (1,)),
    "depth-zero": AsymmConfig(StoragePattern(4, (MessageSet((1, 2, 3), 2),
                                                 MessageSet((2, 3, 4)))), (0, 1), (1, 0)),
}


@pytest.mark.parametrize("config", SHAPED.values(), ids=SHAPED.keys())
def test_probed_forms_match_reference_beyond_tiny(config):
    params = setup(config)
    n = config.n_servers
    for size in range(n + 1):
        for subset in itertools.combinations(range(1, n + 1), size):
            for side in ("storage", "query"):
                assert np.array_equal(_probed_forms(config, params, subset, side),
                                      reference_form_matrix(config, params, subset, side))


@pytest.mark.parametrize("seed", range(3))
def test_probed_forms_match_reference_on_seeded_systems(seed):
    config = random_config(random.Random(seed), n_max=6, m_max=3)
    params = setup(config)
    for subset in ((), (1,), tuple(range(1, config.n_servers + 1))):
        for side in ("storage", "query"):
            assert np.array_equal(_probed_forms(config, params, subset, side),
                                  reference_form_matrix(config, params, subset, side))


def test_exhaustive_audit_matches_reference_with_moved_points():
    # colliding points, and a point on an f point, at q = 7
    config = AsymmConfig(TRIPLE, (2,), (0,), l_value=1)
    params = setup(config, field_override=7)
    for moved in (with_alpha(params, {2: params.alpha[0]}),
                  with_alpha(params, {3: params.f[0]})):
        for size in (1, 2, 3):
            for subset in itertools.combinations(range(1, 4), size):
                report = exhaustive_independence_audit(config, moved, subset)
                assert report == reference_exhaustive_audit(config, moved, subset, "both")


@st.composite
def raw_forms(draw):
    """(q, n_secret, forms): 0-5 random observed symbols over 1-8
    variables, at least one of them a secret, with at most 2 * 10^5 cells."""
    q = draw(st.sampled_from((2, 3, 5, 7, 11)))
    n_vars = draw(st.integers(1, max(v for v in range(1, 9) if q ** v <= 2 * 10**5)))
    n_secret = draw(st.integers(1, n_vars))
    shape = (draw(st.integers(0, 5)), n_vars)
    entries = draw(st.lists(st.integers(0, q - 1), min_size=prod(shape), max_size=prod(shape)))
    return q, n_secret, np.array(entries, dtype=np.int64).reshape(shape)


@settings(max_examples=200, deadline=None)
@given(raw_forms())
def test_zero_observation_decides_on_raw_forms(case):
    q, n_secret, forms = case
    failure = reference_first_failure(n_secret, forms, q)
    assert _misses_secrets(forms, n_secret, q) == (failure is not None)
    # a leak shows first at the zero observation, and never as uneven counts
    assert failure in (None, ((0,) * len(forms), "misses some secrets"))


# forms that place the secrets across the enumeration's trailing-variable
# table and its chunks of leading prefixes, with the verdict each must get:
# (q, n_secret, n_vars, rows, leaks)
LAYOUTS = {
    # q > _CELL_BLOCK: no variable fits the table, the one variable spans two chunks
    "wide-variable-leak": (4099, 1, 1, [[1]], True),
    "wide-variable-blind": (4099, 1, 1, [[0], [0]], False),
    # 2^13 cells, chunks of one prefix: secret 1, the only one missed, fills the last
    "chunks-leak": (2, 1, 13, [[1] + [0] * 12], True),
    "chunks-masked": (2, 1, 13, [[1] + [0] * 11 + [1]], False),
    # 11^4 cells, chunks of three prefixes, the last one of two
    "short-last-chunk-leak": (11, 1, 4, [[3, 0, 0, 0], [0, 1, 0, 0]], True),
    "short-last-chunk-masked": (11, 1, 4, [[3, 0, 0, 7], [0, 1, 5, 0]], False),
    # every variable a secret, no noise
    "no-noise-leak": (5, 6, 6, [[0, 0, 0, 0, 0, 3]], True),
    "no-noise-blind": (5, 6, 6, [[0] * 6, [0] * 6], False),
    # nothing observed, so nothing can leak
    "zero-rows": (5, 2, 6, [], False),
}


@pytest.mark.parametrize("case", LAYOUTS.values(), ids=LAYOUTS.keys())
def test_zero_observation_decides_on_every_layout(case):
    q, n_secret, n_vars, rows, leaks = case
    forms = np.array(rows, dtype=np.int64).reshape(len(rows), n_vars)
    failure = reference_first_failure(n_secret, forms, q)
    assert failure == (((0,) * len(rows), "misses some secrets") if leaks else None)
    assert _misses_secrets(forms, n_secret, q) == leaks
