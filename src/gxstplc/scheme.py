"""The coded storage / private query protocol with per-set thresholds.

One round of the protocol moves a single symbol from each server to the
user and decodes L symbols of the desired linear combination, where
L = min_m (|R_m| - X_m - T_m).  All indices below follow the same
1-based convention as :mod:`gxstplc.pattern`.

Shares, queries and answers follow a Cauchy-Vandermonde layout over a
prime field holding N + L distinct points: server n evaluates at
alpha_n, decoded symbol slot l is pinned to the extra point f_l.

    share block   W + noise:   W_{m,(l)} / (alpha_n - f_l)
                               + sum_x alpha_n^{x-1} Z_{m,x,(l)}
    query block   lam + noise: u_{m,l} lam_{m,(l)}
                               + (alpha_n - f_l) sum_t alpha_n^{t-1} Z'_{m,t,(l)}

with u_{m,l} the product of (f_l - alpha_n) over the replication group.
Multiplying a share by a query makes the desired term a scaled Cauchy
entry while every noise product lands in a low-degree polynomial of
alpha_n; the answer weights v_{n,m} (dual generalized Reed-Solomon
coefficients) annihilate those polynomials in the decoding sums, which
leaves a transposed-Vandermonde system at the f points; ``reconstruct``
applies its closed-form inverse.  ``setup`` chooses only the field and
the points; the [N, L] differences alpha_n - f_l, the Cauchy entries,
u and v are derived from them on first use by ``SchemeParams``, and
the noise sums are evaluated by Horner's rule.

Field data is held as read-only int64 residue arrays, one per message
set m: message and coefficient banks are [K_m, L], noise is
[depth_m, L, K_m], and share and query blocks are [|R_m|, L, K_m] with
rows in the order of servers_of(m).  encode_storage and
generate_queries also take banks and noise with the same optional
leading batch axes, [..., K_m, L] and [..., depth_m, L, K_m], and
return blocks [..., |R_m|, L, K_m]: one call runs a stack of rounds.
An intermediate value is at most two products of residues plus a
residue (or a sum of residues), below 2^63 for any q below
``ff.MAX_MODULUS``, so nothing overflows.  Every
array is reduced by ``_reduce``, an in-place floor division
(a -= a // q * q): numpy's integer remainder has no vectorised path and
takes about twice as long.  FieldElements appear only in the transcript
and in ``expected_combination``; the lemma checks take and return plain
integers.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, fields
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Sequence

import numpy as np

from .augment import AugmentedSystem, generate_augmented_system
from .capacity import CapacityResult, asymptotic_capacity
from .errors import (
    DegenerateConfig,
    DegenerateInput,
    DimensionMismatch,
    DuplicateNodes,
    FieldTooSmall,
    InvariantViolation,
)
from .ff import FieldElement, PrimeField, check_modulus, smallest_prime_at_least
from .pattern import StoragePattern


@dataclass(frozen=True)
class AsymmConfig:
    """A storage pattern plus per-set security/privacy thresholds.

    x_vec[m-1] bounds the colluding servers that may learn nothing about
    the stored messages of set m; t_vec[m-1] does the same for the query
    coefficients.  l_value optionally pins the number of decoded symbols
    per round below its maximum min_m(|R_m| - x - t).  All of them are
    stored as ints; a float raises TypeError.
    """

    pattern: StoragePattern
    x_vec: tuple[int, ...]
    t_vec: tuple[int, ...]
    l_value: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "x_vec", tuple(map(operator.index, self.x_vec)))
        object.__setattr__(self, "t_vec", tuple(map(operator.index, self.t_vec)))
        if self.l_value is not None:
            object.__setattr__(self, "l_value", operator.index(self.l_value))
        m = self.pattern.m_count
        if len(self.x_vec) != m or len(self.t_vec) != m:
            raise DimensionMismatch("threshold vectors must have one entry per set")
        if any(v < 0 for v in self.x_vec + self.t_vec):
            raise ValueError("thresholds must be nonnegative")
        slack = self._slack()
        if slack <= 0:
            raise DegenerateConfig(
                "thresholds leave no decodable symbols: "
                f"min group slack is {slack}"
            )
        if self.l_value is not None:
            if not (1 <= self.l_value <= slack):
                raise DegenerateConfig(
                    f"l_value {self.l_value} outside [1, {slack}]"
                )

    @classmethod
    def uniform(cls, pattern: StoragePattern, x: int, t: int,
                l_value: int | None = None) -> "AsymmConfig":
        m = pattern.m_count
        return cls(pattern, (x,) * m, (t,) * m, l_value)

    @property
    def n_servers(self) -> int:
        return self.pattern.n_servers

    @property
    def m_count(self) -> int:
        return self.pattern.m_count

    @property
    def counts(self) -> tuple[int, ...]:
        return self.pattern.counts

    @property
    def l_effective(self) -> int:
        return self._slack() if self.l_value is None else self.l_value

    def _slack(self) -> int:
        """min_m (|R_m| - x_m - t_m), the most symbols a round can decode."""
        return min(
            len(ms.servers) - x - t
            for ms, x, t in zip(self.pattern.message_sets, self.x_vec, self.t_vec)
        )


def virtual_config(aug: AugmentedSystem,
                   counts: tuple[int, ...] | None = None) -> AsymmConfig:
    """The augmented system as an uneven-threshold configuration over its
    virtual servers; counts default to one message per set."""
    return AsymmConfig(aug.virtual_pattern(counts), aug.x_bar, aug.t_bar, aug.l_value)


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _equal(a, b) -> bool:
    if isinstance(a, tuple):
        return isinstance(b, tuple) and len(a) == len(b) and all(map(_equal, a, b))
    if isinstance(a, np.ndarray):
        return np.array_equal(a, b)
    return a == b


class _Residues:
    """Field-by-field equality for frozen records holding residue arrays."""

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return all(_equal(getattr(self, f.name), getattr(other, f.name)) for f in fields(self))


@lru_cache(maxsize=1024)
def _rows(group: tuple[int, ...]) -> np.ndarray:
    """0-based positions of a replication group's servers (read-only, cached)."""
    return _frozen(np.asarray(group) - 1)


def _reduce(a: np.ndarray, q: int) -> np.ndarray:
    """Reduce an int64 or uint64 array mod q in place and return it.

    Floor division puts negative entries in [0, q), as % does.  r * q
    may wrap below the int64 range, but a - r * q lies in [0, q), so the
    wrapped arithmetic still gives it exactly.
    """
    r = a // q
    r *= q
    a -= r
    return a


def _product(factors: np.ndarray, q: int) -> np.ndarray:
    """Product mod q along the last axis, in log2(width) halving steps."""
    while (width := factors.shape[-1]) > 1:
        half = width // 2
        head = _reduce(factors[..., :half] * factors[..., half:2 * half], q)
        if width % 2:
            head[..., 0] = _reduce(head[..., 0] * factors[..., -1], q)
        factors = head
    return factors[..., 0]


def _inverse(a: np.ndarray, q: int) -> np.ndarray:
    """Elementwise a^(q-2) mod q (Fermat), by square and multiply."""
    out = np.ones_like(a)
    base = _reduce(a.copy(), q)
    e = q - 2
    while e:
        if e & 1:
            out *= base
            _reduce(out, q)
        base *= base
        _reduce(base, q)
        e >>= 1
    return out


def _dual_weights(points: np.ndarray, q: int) -> np.ndarray:
    """prod_{k != i} (a_i - a_k)^{-1} for each point a_i, along the last axis."""
    diff = _reduce(points[..., :, None] - points[..., None, :], q)
    own = np.arange(diff.shape[-1])
    diff[..., own, own] = 1
    return _inverse(_product(diff, q), q)


@dataclass(frozen=True, eq=False)
class SchemeParams(_Residues):
    """What ``setup`` chooses: the field, the points and the groups.

    Every protocol table derives from these on first use and is cached,
    read-only, so a copy with moved points has tables that match them.
    """

    field: PrimeField
    alpha: np.ndarray                      # [N]: one point per server
    f: np.ndarray                          # [L]: one point per decoded slot
    groups: tuple[tuple[int, ...], ...]    # replication groups: row order of per-set arrays

    def group_of(self, m: int) -> tuple[int, ...]:
        return self.groups[m - 1]

    @cached_property
    def l_value(self) -> int:
        return len(self.f)

    @cached_property
    def diff(self) -> np.ndarray:
        """[N, L]: alpha_n - f_l."""
        return _frozen(_reduce(self.alpha[:, None] - self.f[None, :], self.field.q))

    @cached_property
    def cauchy(self) -> np.ndarray:
        """[N, L]: 1/(alpha_n - f_l)."""
        return _frozen(_inverse(self.diff, self.field.q))

    def _by_size(self):
        """(sets, their [sets, size] server rows) for each group size."""
        for size in set(map(len, self.groups)):
            batch = [m for m, group in enumerate(self.groups) if len(group) == size]
            yield batch, _rows(tuple(self.groups[m] for m in batch))

    @cached_property
    def u(self) -> np.ndarray:
        """[M, L]: u[m-1, l-1] = prod over group_of(m) of (f_l - alpha_n),
        which is (-1)^|R_m| times the product of the reduced diff entries."""
        q = self.field.q
        u = np.empty((len(self.groups), self.l_value), dtype=np.int64)
        for batch, rows in self._by_size():
            u[batch] = (-1) ** rows.shape[-1] * _product(self.diff[rows].swapaxes(-1, -2), q)
        return _frozen(_reduce(u, q))

    @cached_property
    def v(self) -> tuple[np.ndarray, ...]:
        """v[m-1][r]: the dual-GRS weight of group_of(m)[r]."""
        v = [None] * len(self.groups)
        for batch, rows in self._by_size():
            for m, weights in zip(batch, _dual_weights(self.alpha[rows], self.field.q)):
                v[m] = _frozen(weights)
        return tuple(v)


def setup(config: AsymmConfig, field_override: int | None = None) -> SchemeParams:
    """Choose the field and the evaluation points.

    The default field is the smallest prime holding N + L distinct
    points; an explicit override must be a prime at least that large.
    The protocol tables derive from the record on first use.
    """
    n = config.n_servers
    l_value = config.l_effective
    needed = n + l_value
    if field_override is None:
        q = smallest_prime_at_least(needed)
    else:
        if field_override < needed:
            raise FieldTooSmall(
                f"need {needed} distinct points, field has {field_override}"
            )
        q = field_override
    return SchemeParams(
        field=PrimeField(q),
        alpha=_frozen(np.arange(1, n + 1, dtype=np.int64)),
        f=_frozen(_reduce(np.arange(n + 1, needed + 1, dtype=np.int64), q)),
        groups=tuple(config.pattern.servers_of(m) for m in range(1, config.m_count + 1)),
    )


class FieldSampler:
    """Uniform field elements by rejection from a counter-based generator."""

    def __init__(self, field: PrimeField, seed):
        if not isinstance(seed, np.random.SeedSequence):
            seed = np.random.SeedSequence(seed)
        self.field = field
        self._gen = np.random.Generator(np.random.Philox(seed))
        # Largest accepted raw value; the bound itself may be 2**64 (q = 2).
        self._max = np.uint64((2**64 // field.q) * field.q - 1)

    def draw(self, shape: tuple[int, ...]) -> np.ndarray:
        """A read-only block of residues, filled in C order.

        Each round asks the generator for exactly the residues still
        missing, so the block holds the same values, and leaves the
        stream in the same place, as drawing them one at a time.
        """
        kept = [np.empty(0, dtype=np.uint64)]
        missing = math.prod(shape)
        while missing:
            raw = self._gen.integers(0, 2**64 - 1, size=missing, dtype=np.uint64,
                                     endpoint=True)
            kept.append(raw[raw <= self._max])
            missing -= len(kept[-1])
        residues = _reduce(np.concatenate(kept), self.field.q)
        return _frozen(residues.astype(np.int64).reshape(shape))

    def draw_blocks(self, shapes: Sequence[tuple[int, ...]]) -> tuple[np.ndarray, ...]:
        """Read-only blocks of the given shapes, views of one draw: the
        same values, and the same place in the stream, as one draw each."""
        flat = self.draw((sum(map(math.prod, shapes)),))
        blocks, start = [], 0
        for shape in shapes:
            end = start + math.prod(shape)
            blocks.append(flat[start:end].reshape(shape))
            start = end
        return tuple(blocks)


def _shapes(config: AsymmConfig, l_value: int, lead: Sequence[int] | None = None,
            batch: tuple[int, ...] = ()) -> tuple[tuple[int, ...], ...]:
    """Per-set shapes after the batch axes: [K_m, L] for banks, [lead_m, L, K_m] otherwise."""
    if lead is None:
        return tuple(batch + (k, l_value) for k in config.counts)
    return tuple(batch + (d, l_value, k) for d, k in zip(lead, config.counts))


def _checked(blocks: tuple[np.ndarray, ...], shapes: tuple[tuple[int, ...], ...],
             what: str) -> tuple[np.ndarray, ...]:
    if len(blocks) != len(shapes) or any(b.shape != s for b, s in zip(blocks, shapes)):
        raise DimensionMismatch(
            f"{what} shapes {[b.shape for b in blocks]} do not match {list(shapes)}"
        )
    return blocks


def _to_residues(blocks, q: int) -> tuple[np.ndarray, ...]:
    """Caller data as reduced arrays: ragged input is a shape error, an
    entry that is not an integer (by operator.index, so bools and numpy
    integers pass) a TypeError, and integers outside int64 are reduced
    exactly."""
    out = []
    for b in blocks:
        try:
            a = np.array(b)
        except ValueError as exc:
            raise DimensionMismatch(f"ragged field data: {exc}") from None
        if a.dtype.kind in "bi":
            a = _reduce(a.astype(np.int64, copy=False), q)
        else:  # beyond int64, or not integers: entry by entry
            entries = np.array(b, dtype=object)
            a = np.fromiter((operator.index(e) % q for e in entries.flat), dtype=np.int64,
                            count=entries.size).reshape(entries.shape)
        out.append(_frozen(a))
    return tuple(out)


@dataclass(frozen=True, eq=False)
class MessageBank(_Residues):
    """Stored data: values[m-1][k-1, l-1] is symbol l of message k of set m."""

    field: PrimeField
    values: tuple[np.ndarray, ...]

    @classmethod
    def random(cls, config: AsymmConfig, params: SchemeParams,
               seed) -> "MessageBank":
        shapes = _shapes(config, params.l_value)
        return cls(params.field, FieldSampler(params.field, seed).draw_blocks(shapes))

    @classmethod
    def from_ints(cls, config: AsymmConfig, params: SchemeParams,
                  nested: Sequence[Sequence[Sequence[int]]]) -> "MessageBank":
        values = _to_residues(nested, params.field.q)
        return cls(params.field, _checked(values, _shapes(config, params.l_value), "bank"))


class CoefficientBank(MessageBank):
    """The user's private combining coefficients; same shape as MessageBank."""


@dataclass(frozen=True, eq=False)
class ShareBank(_Residues):
    """Coded storage: blocks[m-1][r] is what server group_of(m)[r] holds of
    set m, [L, K_m]; noise is retained only by the encoder."""

    blocks: tuple[np.ndarray, ...]
    noise: tuple[np.ndarray, ...]


class QueryBank(ShareBank):
    """Per-server query blocks in the same layout; noise stays with the user."""


def _noise(config: AsymmConfig, params: SchemeParams, depths: tuple[int, ...],
           rng_seed, noise, batch: tuple[int, ...]) -> tuple[np.ndarray, ...]:
    shapes = _shapes(config, params.l_value, depths, batch)
    if noise is None:
        return FieldSampler(params.field, rng_seed).draw_blocks(shapes)
    return _checked(_to_residues(noise, params.field.q), shapes, "noise")


def _mask(points: np.ndarray, noise: np.ndarray, q: int) -> np.ndarray:
    """sum_d point^d * noise[..., d] mod q by Horner, one row per server.

    points is [R] and noise [..., depth, L, K]; the result is
    [..., R, L, K], zero at depth 0.
    """
    acc = np.empty(noise.shape[:-3] + (len(points),) + noise.shape[-2:], dtype=np.int64)
    acc[:] = noise[..., -1, None, :, :] if noise.shape[-3] else 0
    for d in range(noise.shape[-3] - 2, -1, -1):
        acc *= points[:, None, None]
        acc += noise[..., d, None, :, :]
        _reduce(acc, q)
    return acc


def encode_storage(config: AsymmConfig, params: SchemeParams,
                   messages: MessageBank, rng_seed=None, *,
                   noise: Sequence[np.ndarray] | None = None) -> ShareBank:
    """Produce every server's coded share of every set it replicates.

    Banks [..., K_m, L] with leading batch axes give blocks
    [..., |R_m|, L, K_m]; noise, explicit or drawn, carries the same axes.
    """
    q = params.field.q
    batch = messages.values[0].shape[:-2] if messages.values else ()
    _checked(messages.values, _shapes(config, params.l_value, batch=batch), "message bank")
    noise = _noise(config, params, config.x_vec, rng_seed, noise, batch)
    blocks = []
    for group, w, z in zip(params.groups, messages.values, noise):
        rows = _rows(group)
        block = _mask(params.alpha[rows], z, q)
        block += params.cauchy[rows][:, :, None] * w.swapaxes(-1, -2)[..., None, :, :]
        _reduce(block, q)
        blocks.append(_frozen(block))
    return ShareBank(blocks=tuple(blocks), noise=noise)


def generate_queries(config: AsymmConfig, params: SchemeParams,
                     coeffs: CoefficientBank, rng_seed=None, *,
                     noise: Sequence[np.ndarray] | None = None) -> QueryBank:
    """Produce every server's query, masking the coefficients t-deep.

    Batch axes work as in encode_storage.
    """
    q = params.field.q
    batch = coeffs.values[0].shape[:-2] if coeffs.values else ()
    _checked(coeffs.values, _shapes(config, params.l_value, batch=batch), "coefficient bank")
    noise = _noise(config, params, config.t_vec, rng_seed, noise, batch)
    blocks = []
    for group, u, lam, z in zip(params.groups, params.u, coeffs.values, noise):
        rows = _rows(group)
        a = params.alpha[rows]
        block = _mask(a, z, q)
        block *= params.diff[rows][:, :, None]
        block += (u[:, None] * lam.swapaxes(-1, -2))[..., None, :, :]
        _reduce(block, q)
        blocks.append(_frozen(block))
    return QueryBank(blocks=tuple(blocks), noise=noise)


def collect_answers(config: AsymmConfig, params: SchemeParams,
                    shares: ShareBank, queries: QueryBank) -> tuple[FieldElement, ...]:
    """One symbol per server n: sum over the sets m it hosts of
    v_{n,m} <share, query>, computed only from server n's own blocks."""
    q = params.field.q
    shapes = _shapes(config, params.l_value, config.pattern.replication_factors)
    _checked(shares.blocks, shapes, "share blocks")
    _checked(queries.blocks, shapes, "query blocks")
    total = np.zeros(config.n_servers, dtype=np.int64)
    for group, v, share, query in zip(params.groups, params.v, shares.blocks, queries.blocks):
        dots = _reduce(_reduce(share * query, q).sum(axis=(1, 2)), q)
        total[_rows(group)] += _reduce(v * dots, q)
    return tuple(map(params.field, _reduce(total, q).tolist()))


def reconstruct(answers: Sequence[FieldElement],
                params: SchemeParams) -> tuple[FieldElement, ...]:
    """Decode the L combination symbols from one answer per server.

    The weighted power sums V_i = sum_n alpha_n^i A_n (i < L) collapse
    to -sum_l f_l^i d_l once the interference vanishes, so d solves the
    transposed-Vandermonde system at the f points.  Its inverse is the
    Lagrange basis at the f points: with U(x) = prod_k (x - f_k) and the
    dual weights w_l = prod_{k != l} (f_l - f_k)^{-1},

        d_l = -w_l sum_n A_n U(alpha_n) / (alpha_n - f_l),

    the same linear map for any answers, without an elimination.
    """
    if len(answers) != len(params.alpha):
        raise DimensionMismatch("need exactly one answer per server")
    q = params.field.q
    scaled = np.array([a.value for a in answers], dtype=np.int64)
    scaled = _reduce(scaled * _product(params.diff, q), q)
    sums = _reduce(_reduce(scaled[:, None] * params.cauchy, q).sum(axis=0), q)
    decoded = _reduce(-_dual_weights(params.f, q) * sums, q)
    return tuple(map(params.field, decoded.tolist()))


def expected_combination(config: AsymmConfig, messages: MessageBank,
                         coeffs: CoefficientBank) -> tuple[FieldElement, ...]:
    """The target linear combination, computed directly from plaintext."""
    field = messages.field
    acc = np.zeros(messages.values[0].shape[1], dtype=np.int64)
    for w, lam in zip(messages.values, coeffs.values):
        acc += _reduce(lam * w, field.q).sum(axis=0)
        _reduce(acc, field.q)
    return tuple(map(field, acc.tolist()))


def _lemma_points(nodes, q: int) -> list[int]:
    """The nodes as distinct residues mod the prime q; a float raises TypeError."""
    check_modulus(q)
    vals = [operator.index(a) % q for a in nodes]
    if len(set(vals)) != len(vals):
        raise DuplicateNodes(f"points collide: {vals}")
    return vals


def dual_grs_weights(nodes: Sequence[int], q: int) -> tuple[int, ...]:
    """Weights v_i = prod_{j != i} (a_i - a_j)^{-1} mod the prime q.

    These annihilate every power sum of degree at most len(nodes) - 2:
    sum_i v_i a_i^j = 0.  At least two distinct nodes are required, as
    integers (a float raises TypeError).
    """
    vals = _lemma_points(nodes, q)
    if len(vals) < 2:
        raise DimensionMismatch("need at least two nodes")
    return tuple(_dual_weights(np.array(vals, dtype=np.int64), q).tolist())


def cauchy_vandermonde_check(alpha_nodes: Sequence[int], f_nodes: Sequence[int],
                             q: int) -> bool:
    """Verify the factorization of a Cauchy block through Vandermonde parts.

    For n alpha-points and l <= n f-points, all distinct mod the prime q,
    the n x l Cauchy matrix [1/(a_i - f_j)] equals

        -D_v . V_alpha^{-1} . V_f . D_u^{-1}

    with D_v the diagonal of prod_{k != i} (a_i - a_k) (products, not
    their inverses), V_f the f-point Vandermonde of height n, and D_u
    the diagonal of u_j = prod_i (f_j - a_i).  Since V_alpha is
    invertible, that is V_alpha . D_v^{-1} . C . D_u == -V_f, and entry
    (i, j) of it is ``alignment_identity_check`` at power i - 1 and
    slot j on a one-group SchemeParams over these points: the check
    reads the protocol's own v, Cauchy and u tables.
    """
    n, l = len(alpha_nodes), len(f_nodes)
    vals = _lemma_points((*alpha_nodes, *f_nodes), q)
    if not n >= l >= 1:
        raise DimensionMismatch(f"need n >= l >= 1 points, got n={n}, l={l}")
    block = SchemeParams(PrimeField(q), np.array(vals[:n], dtype=np.int64),
                         np.array(vals[n:], dtype=np.int64), (tuple(range(1, n + 1)),))
    return all(alignment_identity_check(block, 1, i, j)
               for i in range(1, n + 1) for j in range(1, l + 1))


def alignment_identity_check(params: SchemeParams, m: int, i: int, l: int) -> bool:
    """Check sum over R_m of v u alpha^{i-1}/(alpha - f_l) == -f_l^{i-1},
    for a set 1 <= m <= M, a power i >= 1 and a slot 1 <= l <= L."""
    if not (1 <= m <= len(params.groups) and 1 <= l <= params.l_value and i >= 1):
        raise DimensionMismatch(f"no identity at m={m}, i={i}, l={l}")
    q = params.field.q
    f_l = int(params.f[l - 1])
    u_ml = int(params.u[m - 1, l - 1])
    rows = _rows(params.group_of(m))
    acc = sum(
        v * u_ml * pow(a, i - 1, q) * c
        for a, v, c in zip(params.alpha[rows].tolist(), params.v[m - 1].tolist(),
                           params.cauchy[rows, l - 1].tolist())
    )
    return acc % q == -pow(f_l, i - 1, q) % q


@dataclass(frozen=True)
class Transcript:
    answers: tuple[FieldElement, ...]
    decoded: tuple[FieldElement, ...]
    downloads: tuple[int, ...]


@dataclass(frozen=True)
class SimulationResult:
    config: AsymmConfig
    params: SchemeParams
    messages: MessageBank
    coeffs: CoefficientBank
    transcript: Transcript
    expected: tuple[FieldElement, ...]
    match: bool
    rate: Fraction


def stored_symbols(config: AsymmConfig) -> tuple[int, ...]:
    """Per-server storage load in field symbols (K_m * L per hosted set)."""
    l_value = config.l_effective
    loads = [0] * config.n_servers
    for m in range(1, config.m_count + 1):
        k_m = config.pattern.count_of(m)
        for n in config.pattern.servers_of(m):
            loads[n - 1] += k_m * l_value
    return tuple(loads)


def run_protocol(config: AsymmConfig, params: SchemeParams,
                 messages: MessageBank, coeffs: CoefficientBank,
                 storage_seed, query_seed) -> Transcript:
    """Encode, query, answer, decode; one symbol downloaded per server."""
    shares = encode_storage(config, params, messages, storage_seed)
    queries = generate_queries(config, params, coeffs, query_seed)
    answers = collect_answers(config, params, shares, queries)
    decoded = reconstruct(answers, params)
    return Transcript(
        answers=answers,
        decoded=decoded,
        downloads=(1,) * config.n_servers,
    )


def _check_seed(seed: int) -> None:
    if seed < 0:
        raise DegenerateInput(f"seed must be a non-negative integer, got seed={seed}")


def simulate(config: AsymmConfig, seed: int,
             field_override: int | None = None) -> SimulationResult:
    """Full protocol round with fresh random messages and coefficients.

    A single seed drives four independent streams (messages,
    coefficients, storage noise, query noise), so identical inputs give
    identical transcripts.  The seed must be a non-negative integer.
    """
    _check_seed(seed)
    params = setup(config, field_override)
    msg_ss, coeff_ss, storage_ss, query_ss = np.random.SeedSequence(seed).spawn(4)
    messages = MessageBank.random(config, params, msg_ss)
    coeffs = CoefficientBank.random(config, params, coeff_ss)
    transcript = run_protocol(config, params, messages, coeffs, storage_ss, query_ss)
    expected = expected_combination(config, messages, coeffs)
    return SimulationResult(
        config=config,
        params=params,
        messages=messages,
        coeffs=coeffs,
        transcript=transcript,
        expected=expected,
        match=transcript.decoded == expected,
        rate=Fraction(params.l_value, config.n_servers),
    )


@dataclass(frozen=True)
class MergedSimulation:
    """A capacity-achieving round over an augmented-and-merged system."""

    capacity: CapacityResult
    augmented: AugmentedSystem
    run: SimulationResult
    downloads: tuple[int, ...]  # per original server, tau_n symbols
    rate: Fraction              # run.rate: L over the sum(tau) virtual servers


def simulate_merged(p: StoragePattern, x: int, t: int, seed: int,
                    field_override: int | None = None) -> MergedSimulation:
    """Capacity pipeline: solve the program, augment, run, merge.

    Each original server answers for all of its virtual copies, so its
    download is tau_n symbols and the overall rate L / sum(tau) equals
    the asymptotic capacity exactly.  A negative seed is refused before
    the capacity program is solved.
    """
    _check_seed(seed)
    cap = asymptotic_capacity(p, x, t)
    if cap.degenerate:
        raise DegenerateConfig(
            f"capacity is zero for x={x}, t={t}: no scheme exists"
        )
    aug = generate_augmented_system(p, x, t, cap)
    run = simulate(virtual_config(aug, p.counts), seed, field_override)
    if run.rate != cap.capacity:
        raise InvariantViolation(f"merged rate {run.rate} != capacity {cap.capacity}")
    return MergedSimulation(
        capacity=cap,
        augmented=aug,
        run=run,
        downloads=aug.tau,
        rate=run.rate,
    )
