"""Built-in demonstration configurations, runnable by name.

Two kinds are registered: direct runs of the uneven-threshold scheme,
and full capacity pipelines (program, augmentation, merged run).  Each
returns a JSON-ready report so the CLI and the narrative scripts share
one code path.
"""

from __future__ import annotations

from .audit import asymm_scheme_audit, merged_scheme_audit
from .errors import UnknownDemo
from .pattern import MessageSet, StoragePattern
from .scheme import AsymmConfig, simulate, simulate_merged, stored_symbols


def _pat(n: int, groups: tuple[tuple[int, ...], ...], count: int = 2) -> StoragePattern:
    return StoragePattern(n, tuple(MessageSet(g, count) for g in groups))


UNEVEN_SEVEN = _pat(7, ((1, 2, 4), (2, 3, 4, 5, 6), (1, 4, 7), (2, 3, 5, 6)))
UNEVEN_NINE = _pat(9, ((1, 2, 3, 7), (3, 4, 5, 6, 8, 9)))
GRAPH_SIX = _pat(6, ((1, 2, 3, 5), (3, 4, 6)))
GRAPH_FOURTEEN = _pat(
    14,
    (
        (1, 4, 7, 9),
        (1, 3, 4, 5, 8),
        (3, 4, 6, 8, 10, 13),
        (2, 6, 10, 11, 12, 13, 14),
    ),
)

_DIRECT_DEMOS: dict[str, AsymmConfig] = {
    "ex-4.1.1": AsymmConfig(UNEVEN_SEVEN, (0, 0, 0, 0), (1, 2, 1, 2)),
    "ex-4.1.2": AsymmConfig(UNEVEN_NINE, (1, 2), (1, 2)),
}

_MERGED_DEMOS: dict[str, tuple[StoragePattern, int, int]] = {
    "ex-4.2-1": (GRAPH_SIX, 1, 1),
    "ex-4.2-2": (GRAPH_FOURTEEN, 1, 1),
}


def demo_names() -> tuple[str, ...]:
    return tuple(sorted((*_DIRECT_DEMOS, *_MERGED_DEMOS)))


def run_demo(name: str, seed: int = 0) -> dict:
    """Run a registered demo end to end and report what happened."""
    merged = None
    if name in _DIRECT_DEMOS:
        config = _DIRECT_DEMOS[name]
        run = simulate(config, seed)
        report = asymm_scheme_audit(config, run.params)
    elif name in _MERGED_DEMOS:
        pattern, x, t = _MERGED_DEMOS[name]
        merged = simulate_merged(pattern, x, t, seed)
        run = merged.run
        report = merged_scheme_audit(merged.augmented, run.params, x, t)
    else:
        raise UnknownDemo(f"no demo named {name!r}; try one of {', '.join(demo_names())}")
    return {
        "name": name,
        "seed": seed,
        "kind": "merged" if merged else "direct",
        "capacity": str(merged.capacity.capacity) if merged else None,
        "rate": str(run.rate),
        "l_value": run.params.l_value,
        "field": run.params.field.q,
        **({"virtual_servers": merged.augmented.n_virtual} if merged else {}),
        "downloads": list(merged.downloads if merged else run.transcript.downloads),
        "stored_symbols": list(stored_symbols(run.config)),
        "decode_match": run.match,
        "audit_pass": report.passed,
        "audit_checked_subsets": report.checked_subsets,
        "audit_notes": list(report.notes),
    }
