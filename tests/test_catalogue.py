"""The capacity theorem on every small pattern, not on a sample.

The catalogue holds every storage pattern with at most five servers and
at most three message sets of one message each, up to relabelling the
servers: groups of at least two servers, repeated and nested groups and
unused servers included.  It is generated here, not pinned.  Each
pattern runs at every (x, t) of a fixed list that leaves its smallest
group room to decode, and again with two messages per set where t = 0
(there the bound is exact for every K).  Each run checks the paper's
claims end to end: the merged scheme's rate equals the capacity, the
decode matches the plaintext combination, the merged audit passes, and
the capacity depends on x + t alone.  Every entry's capacity, on the
forced and on the simplex path, also matches the Fraction bookkeeping
of tests/test_reference.py.
"""

from fractions import Fraction
from itertools import combinations, combinations_with_replacement, permutations

from conftest import capacity_with_simplex_calls, simplex_capacity
from test_reference import assert_capacity_matches_reference
from gxstplc.audit import merged_scheme_audit
from gxstplc.capacity import asymptotic_capacity
from gxstplc.pattern import MessageSet, StoragePattern
from gxstplc.scheme import simulate_merged

THRESHOLDS = ((1, 0), (0, 1), (1, 1), (2, 0), (0, 2), (2, 1))


def catalogue(n_servers: int, max_sets: int):
    """One pattern per orbit of the server relabellings, as sorted groups."""
    groups = [g for size in range(2, n_servers + 1)
              for g in combinations(range(1, n_servers + 1), size)]
    seen = set()
    for m in range(1, max_sets + 1):
        for sets in combinations_with_replacement(groups, m):
            sets = tuple(sorted(sets))
            if sets in seen:
                continue
            seen.update(tuple(sorted(tuple(sorted(perm[n - 1] for n in g)) for g in sets))
                        for perm in permutations(range(1, n_servers + 1)))
            yield StoragePattern(n_servers, tuple(MessageSet(g) for g in sets))


def test_catalogue_sizes():
    # the number of orbits, so a generator that merges too much fails here
    assert [sum(1 for _ in catalogue(n, 3)) for n in range(2, 6)] == [3, 13, 43, 114]


def test_theorem_on_every_small_pattern():
    runs = 0
    for n in range(2, 6):
        for pattern in catalogue(n, 3):
            for x, t in THRESHOLDS:
                if min(pattern.replication_factors) <= x + t:
                    continue
                # at t = 0 the bound is exact for every K, so two messages per set run too
                for count in (1, 2) if t == 0 else (1,):
                    p = StoragePattern(n, tuple(MessageSet(ms.servers, count)
                                                for ms in pattern.message_sets))
                    sim = simulate_merged(p, x, t, seed=runs)
                    capacity, where = sim.capacity.capacity, (p, x, t)
                    # L decoded symbols for the sum of the original servers' downloads
                    rate = Fraction(len(sim.run.transcript.decoded), sum(sim.downloads))
                    assert rate == capacity, where
                    assert sim.run.match, where
                    assert merged_scheme_audit(sim.augmented, sim.run.params, x, t).passed, where
                    assert asymptotic_capacity(p, x + t, 0).capacity == capacity, where
                    runs += 1
    # 545 runs at one message per set, and 234 at two (t = 0)
    assert runs == 6 + 35 + 128 + 376 + 234


def test_forced_programs_match_the_simplex():
    # every entry that asymptotic_capacity solves without the simplex gets
    # the CapacityResult that simplex_min on the full row list gives
    forced = 0
    for n in range(2, 6):
        for pattern in catalogue(n, 3):
            for x, t in THRESHOLDS:
                if min(pattern.replication_factors) <= x + t:
                    continue
                cap, calls = capacity_with_simplex_calls(pattern, x, t)
                if calls == 0:
                    assert cap == simplex_capacity(pattern, x, t), (pattern, x, t)
                    forced += 1
    # 282 of the 545 runs at one message per set
    assert forced == 282


def test_capacity_bookkeeping_matches_fraction_reference():
    # degenerate entries too: (x, t) past the smallest group returns capacity 0
    for n in range(2, 6):
        for pattern in catalogue(n, 3):
            for x, t in THRESHOLDS:
                assert_capacity_matches_reference(pattern, x, t)
