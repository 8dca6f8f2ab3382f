"""Virtual-server augmentation: turning a capacity vertex into a scheme.

The optimal download profile tau assigns server n a budget of tau_n
answer symbols.  Splitting server n into virtual servers (n, 1) ...
(n, tau_n) and re-deriving per-set thresholds produces an uneven-
threshold configuration whose one-symbol-per-virtual-server scheme,
merged back onto the original servers, downloads exactly sum(tau)
symbols for L decoded symbols: the capacity is met with equality.

For each message set m the inflation factor gamma_m is the
(x + t + 1)-th largest budget inside R_m; the virtual replication group
takes min(gamma_m, tau_n) copies from each member n, and the thresholds
scale to x * gamma_m and t * gamma_m.  Colluding original servers then
expose at most x * gamma_m virtual members of any group, which is what
the security audit checks.
An AugmentedSystem holds only what augmentation chooses: each R_m, x,
t, L, tau, gamma and the inflated thresholds.  Every table derives from
them on first use and stays cached: the copy counts delta, the (n, i)
groups r_bar, the virtual servers, and the groups as flat ids (copy i
of server n is offset_n + i, offset_n the budgets of servers before n).
So a dataclasses.replace copy never holds stale tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate

from .capacity import CapacityResult
from .errors import DegenerateInput, DimensionMismatch, InvariantViolation
from .pattern import MessageSet, StoragePattern

VirtualServer = tuple[int, int]  # (original server, copy index), both 1-based


@dataclass(frozen=True)
class AugmentedSystem:
    groups: tuple[tuple[int, ...], ...]  # each set's R_m
    x: int
    t: int
    l_value: int
    tau: tuple[int, ...]
    gamma: tuple[int, ...]
    x_bar: tuple[int, ...]
    t_bar: tuple[int, ...]

    @property
    def n_original(self) -> int:
        return len(self.tau)

    @property
    def n_virtual(self) -> int:
        return self._offsets[-1]

    @cached_property
    def _offsets(self) -> tuple[int, ...]:
        """Virtual servers before each original server's first copy."""
        return tuple(accumulate(self.tau, initial=0))

    @cached_property
    def delta(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Per set m: (n, copies of n in m's virtual group) for each member n."""
        return tuple(tuple((n, min(g, self.tau[n - 1])) for n in group)
                     for group, g in zip(self.groups, self.gamma))

    @cached_property
    def r_bar(self) -> tuple[tuple[VirtualServer, ...], ...]:
        """Each set's virtual group: the first delta copies of each member."""
        return tuple(tuple((n, i) for n, d in slots for i in range(1, d + 1))
                     for slots in self.delta)

    @cached_property
    def virtual_servers(self) -> tuple[VirtualServer, ...]:
        return tuple((n, i) for n, d in enumerate(self.tau, start=1) for i in range(1, d + 1))

    @cached_property
    def flat_groups(self) -> tuple[tuple[int, ...], ...]:
        """Each set's virtual group as flat ids, in r_bar order (ascending)."""
        o = self._offsets
        return tuple(tuple(v for n, d in slots for v in range(o[n - 1] + 1, o[n - 1] + d + 1))
                     for slots in self.delta)

    def flat_id(self, vs: VirtualServer) -> int:
        """1-based position of a virtual server in the global order."""
        n, i = vs
        if not (1 <= n <= self.n_original and 1 <= i <= self.tau[n - 1]):
            raise ValueError(f"no such virtual server: {vs}")
        return self._offsets[n - 1] + i

    def _check_originals(self, originals: tuple[int, ...]) -> None:
        if not all(1 <= n <= self.n_original for n in originals):
            raise ValueError(f"no such server in {originals}")
        if len(set(originals)) != len(originals):
            raise ValueError(f"servers listed twice in {originals}")

    def exposed(self, originals: tuple[int, ...]) -> tuple[int, ...]:
        """Flat ids of every virtual copy of the given original servers."""
        self._check_originals(originals)
        offsets = self._offsets
        return tuple(v for n in originals for v in range(offsets[n - 1] + 1, offsets[n] + 1))

    def virtual_pattern(self, counts: tuple[int, ...] | None = None) -> StoragePattern:
        """The augmented system as a flat pattern over virtual servers;
        counts, one per set, default to one message each."""
        if counts is None:
            counts = tuple(1 for _ in self.groups)
        if len(counts) != len(self.groups):
            raise DimensionMismatch(
                f"{len(counts)} message counts for {len(self.groups)} sets")
        sets = tuple(MessageSet(ids, k) for ids, k in zip(self.flat_groups, counts))
        return StoragePattern(self.n_virtual, sets)


@dataclass(frozen=True)
class ServerPlan:
    """What one original server does after merging its virtual copies."""

    server: int
    downloads: int
    virtual_ids: tuple[int, ...]
    sets_per_copy: tuple[tuple[int, ...], ...]


def generate_augmented_system(
    p: StoragePattern, x: int, t: int, cap: CapacityResult
) -> AugmentedSystem:
    if cap.degenerate or cap.tau is None or cap.l_value is None:
        raise DegenerateInput("cannot augment a zero-capacity configuration")
    tau = cap.tau
    if len(tau) != p.n_servers:
        raise DegenerateInput("download profile does not match the pattern")

    gamma = tuple(sorted((tau[n - 1] for n in ms.servers), reverse=True)[x + t]
                  for ms in p.message_sets)
    a = AugmentedSystem(groups=tuple(ms.servers for ms in p.message_sets), x=x, t=t,
                        l_value=cap.l_value, tau=tau, gamma=gamma,
                        x_bar=tuple(x * g for g in gamma), t_bar=tuple(t * g for g in gamma))
    for m, (slots, g) in enumerate(zip(a.delta, gamma), start=1):
        nu = sum(d for _, d in slots) - (x + t) * g
        if nu < cap.l_value:
            raise InvariantViolation(
                f"set {m} leaves {nu} decodable slots, fewer than L = {cap.l_value}")
    return a


def merged_query_plan(a: AugmentedSystem) -> tuple[ServerPlan, ...]:
    """Per original server: its virtual copies and the sets each copy holds."""
    holder: list[list[int]] = [[] for _ in range(a.n_virtual + 1)]
    for m, ids in enumerate(a.flat_groups, start=1):
        for v in ids:
            holder[v].append(m)
    plans = []
    for n in range(1, a.n_original + 1):
        ids = a.exposed((n,))
        plans.append(
            ServerPlan(
                server=n,
                downloads=a.tau[n - 1],
                virtual_ids=ids,
                sets_per_copy=tuple(tuple(holder[v]) for v in ids),
            )
        )
    return tuple(plans)


def collusion_exposure(a: AugmentedSystem, colluders: tuple[int, ...]) -> tuple[int, ...]:
    """Virtual servers of each group exposed when original servers collude.

    Exposure of group m is sum over colluders of delta_{m,n}; the
    construction keeps it at or below x * gamma_m for any x colluders.
    """
    a._check_originals(colluders)
    return tuple(sum(dict(slots).get(n, 0) for n in colluders) for slots in a.delta)
