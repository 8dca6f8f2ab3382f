"""Shared generators for randomized tests.

All randomness is drawn from explicitly seeded random.Random instances
so every run of the suite sees the same cases.
"""

from __future__ import annotations

import random
from unittest import mock

from gxstplc import capacity
from gxstplc.capacity import CapacityResult
from gxstplc.exactlp import LinearProgram
from gxstplc.pattern import MessageSet, StoragePattern
from gxstplc.scheme import AsymmConfig

# three groups of three servers: at x + t = 2 each has slack 1 and F, their
# union, is all six servers, so every covering row meets F (a forced program)
TRIANGLES = StoragePattern(6, (MessageSet((1, 2, 3)), MessageSet((3, 4, 5)),
                               MessageSet((1, 5, 6))))
# at x + t = 1, F = {1, 2} and set 2 has exactly its slack, 2, servers
# outside F: the row {3, 4} misses F, so the program is not forced
NEAR_MISS = StoragePattern(4, (MessageSet((1, 2)), MessageSet((1, 3, 4))))


def random_pattern(rng: random.Random, n_max: int = 6, m_max: int = 3,
                   count_max: int = 2, x: int = 0, t: int = 0,
                   max_rows: int | None = None, n_min: int = 2) -> StoragePattern:
    """A pattern where every group can spare x + t servers and then some."""
    while True:
        n = rng.randint(max(n_min, x + t + 1), n_max)
        m = rng.randint(1, m_max)
        sets = []
        for _ in range(m):
            size = rng.randint(x + t + 1, n)
            group = tuple(sorted(rng.sample(range(1, n + 1), size)))
            sets.append(MessageSet(group, rng.randint(1, count_max)))
        p = StoragePattern(n, tuple(sets))
        if max_rows is not None and _lp_row_count(p, x, t) > max_rows:
            continue
        return p


def _lp_row_count(p: StoragePattern, x: int, t: int) -> int:
    from math import comb

    return sum(comb(rho, rho - x - t) for rho in p.replication_factors)


def simplex_capacity(p: StoragePattern, x: int, t: int) -> CapacityResult:
    """asymptotic_capacity with the forced-program rule switched off, so the
    result comes from simplex_min on the full row list."""
    with mock.patch.object(capacity, "_forced_vertex", return_value=None):
        return capacity.asymptotic_capacity(p, x, t)


def capacity_with_simplex_calls(p: StoragePattern, x: int,
                                t: int) -> tuple[CapacityResult, int]:
    """asymptotic_capacity and the number of simplex_min calls it made."""
    with mock.patch.object(capacity, "simplex_min", wraps=capacity.simplex_min) as spy:
        return capacity.asymptotic_capacity(p, x, t), spy.call_count


def random_config(rng: random.Random, n_max: int = 9, m_max: int = 4,
                  count_max: int = 3, x_max: int = 2, t_max: int = 2) -> AsymmConfig:
    """A valid uneven-threshold configuration with decode slack >= 1."""
    n = rng.randint(2, n_max)
    m = rng.randint(1, m_max)
    sets = []
    x_vec = []
    t_vec = []
    for _ in range(m):
        x_m = rng.randint(0, min(x_max, n - 1))
        t_m = rng.randint(0, min(t_max, n - 1 - x_m))
        size = rng.randint(x_m + t_m + 1, n)
        group = tuple(sorted(rng.sample(range(1, n + 1), size)))
        sets.append(MessageSet(group, rng.randint(1, count_max)))
        x_vec.append(x_m)
        t_vec.append(t_m)
    pattern = StoragePattern(n, tuple(sets))
    return AsymmConfig(pattern, tuple(x_vec), tuple(t_vec))


def random_covering_lp(rng: random.Random, n_max: int = 5,
                       rows_max: int = 8) -> LinearProgram:
    n = rng.randint(1, n_max)
    n_rows = rng.randint(1, rows_max)
    rows = []
    for _ in range(n_rows):
        size = rng.randint(1, n)
        support = set(rng.sample(range(n), size))
        rows.append(tuple(1 if j in support else 0 for j in range(n)))
    return LinearProgram(n_vars=n, rows=tuple(dict.fromkeys(rows)))
