"""Replicated storage patterns.

A pattern assigns each message set m a replication group R_m, the set of
servers holding its K_m messages.  Server and set identifiers are 1-based
everywhere they are visible, matching the JSON interchange format:

    {"servers": N,
     "message_sets": [{"servers": [1, 2, 4], "count": 2}, ...]}
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping

from .errors import MalformedPattern


@dataclass(frozen=True)
class MessageSet:
    """One replication group: which servers hold it, how many messages.

    Server ids (kept sorted) and the count are stored as ints; a float
    raises TypeError.
    """

    servers: tuple[int, ...]
    count: int = 1

    def __post_init__(self):
        object.__setattr__(self, "servers", tuple(sorted(map(operator.index, self.servers))))
        object.__setattr__(self, "count", operator.index(self.count))
        if not self.servers:
            raise ValueError("a message set must be stored somewhere")
        if len(set(self.servers)) != len(self.servers):
            raise ValueError(f"duplicate server in {self.servers}")
        if any(s < 1 for s in self.servers):
            raise ValueError("servers are numbered from 1")
        if self.count < 1:
            raise ValueError("each message set holds at least one message")


@dataclass(frozen=True)
class StoragePattern:
    """Message sets over servers 1..n_servers; n_servers is stored as an
    int (a float raises TypeError)."""

    n_servers: int
    message_sets: tuple[MessageSet, ...]

    def __post_init__(self):
        object.__setattr__(self, "n_servers", operator.index(self.n_servers))
        if self.n_servers < 1:
            raise ValueError("need at least one server")
        if not self.message_sets:
            raise ValueError("need at least one message set")
        object.__setattr__(self, "message_sets", tuple(self.message_sets))
        for ms in self.message_sets:
            if max(ms.servers) > self.n_servers:
                raise ValueError(
                    f"set {ms.servers} references a server beyond {self.n_servers}"
                )

    @property
    def m_count(self) -> int:
        return len(self.message_sets)

    def servers_of(self, m: int) -> tuple[int, ...]:
        """Replication group of message set m (1-based m)."""
        return self.message_sets[m - 1].servers

    def count_of(self, m: int) -> int:
        return self.message_sets[m - 1].count

    @property
    def replication_factors(self) -> tuple[int, ...]:
        return tuple(len(ms.servers) for ms in self.message_sets)

    @property
    def counts(self) -> tuple[int, ...]:
        return tuple(ms.count for ms in self.message_sets)


def min_replication_slack(p: StoragePattern, x: int, t: int) -> int:
    """min_m |R_m| - x - t; positive iff the thresholds leave room to decode."""
    return min(p.replication_factors) - x - t


def _integer(value, what: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise MalformedPattern(f"{what} must be an integer, got {value!r}")
    return value


def pattern_from_dict(data: Mapping) -> StoragePattern:
    """Parse a pattern document; anything but integers and lists is rejected."""
    try:
        n = _integer(data["servers"], "servers")
        sets = []
        for entry in data["message_sets"]:
            servers = entry["servers"]
            if not isinstance(servers, (list, tuple)):
                raise MalformedPattern(f"a set's servers must be a list, got {servers!r}")
            sets.append(MessageSet(tuple(_integer(s, "server id") for s in servers),
                                   _integer(entry.get("count", 1), "count")))
    except (KeyError, TypeError) as exc:
        raise MalformedPattern(f"malformed pattern document: {exc}") from exc
    return StoragePattern(n, tuple(sets))


def pattern_to_dict(p: StoragePattern) -> dict:
    return {
        "servers": p.n_servers,
        "message_sets": [
            {"servers": list(ms.servers), "count": ms.count}
            for ms in p.message_sets
        ],
    }


def load_pattern(source: str | Path | Mapping) -> StoragePattern:
    """Read a pattern from a JSON file path or an already-parsed mapping."""
    if isinstance(source, Mapping):
        return pattern_from_dict(source)
    with open(source, "r", encoding="utf-8") as fh:
        return pattern_from_dict(json.load(fh))


def save_pattern(p: StoragePattern, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(pattern_to_dict(p), fh, indent=2)
        fh.write("\n")
