"""Superoperator quantum finite automata over real float matrices.

A quantum machine evolves a density matrix: each symbol applies a channel
given by a finite family of operation elements, rho -> sum_j E_j rho E_j^T,
and acceptance is the probability mass on the accepting diagonal entries
after the right end-marker. Scalars are real doubles throughout; channel
validity and float comparisons use the ``DEFAULT_KAPPA`` tolerance.

Acceptance reads only the accepting block: the least set S of states that
holds the accepting states and every state an operation element reads
into S. The S x S block of the density evolves on its own, so
:func:`qfa_accept` and :func:`qfa_prefix_values` step that block alone,
through the elements that write into it; each machine builds its block
once. :func:`qfa_final_density` steps the whole density.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import ClassVar, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .automata import BLOCK_STRINGS, CENT, DOLLAR, _check_machine, _check_partition, _length_lex, _operators

DEFAULT_KAPPA = 1e-9

#: Floats of densities that qfa_prefix_values steps through one channel
#: call; chosen by timing the enumeration of the benchmark's machines.
BLOCK_FLOATS = 16 * 1024

#: Refuse branching evaluation trees with more leaves than this.
DEFAULT_TREE_CAP = 10**6


def _quiet():
    # Overflow shows in the result (an infinite deviation, a non-finite
    # acceptance), which callers report; numpy's warnings would only add
    # stray lines on stderr.
    return np.errstate(over="ignore", invalid="ignore")


def _as_operator(entries) -> np.ndarray:
    arr = np.array(entries, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"operation elements must be square, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("operation elements must be finite")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class Superoperator:
    """A channel described by its operation elements."""

    elements: tuple[np.ndarray, ...]

    def __post_init__(self):
        elements = tuple(_as_operator(e) for e in self.elements)
        if not elements:
            raise ValueError("channels need at least one operation element")
        dim = elements[0].shape[0]
        if any(e.shape[0] != dim for e in elements):
            raise ValueError("operation elements must share one dimension")
        object.__setattr__(self, "elements", elements)

    @classmethod
    def identity(cls, dim: int) -> "Superoperator":
        return cls((np.eye(dim),))

    @property
    def dim(self) -> int:
        return self.elements[0].shape[0]

    def kraus_deviation(self) -> float:
        """Largest absolute entry of sum_j E_j^T E_j minus the identity."""
        total = np.zeros((self.dim, self.dim))
        with _quiet():
            for e in self.elements:
                total += e.T @ e
        return float(np.abs(total - np.eye(self.dim)).max())

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Superoperator)
            and len(self.elements) == len(other.elements)
            and all(np.array_equal(a, b) for a, b in zip(self.elements, other.elements))
        )


@dataclass(frozen=True)
class ChannelReport:
    deviation: float
    tolerance: float

    @property
    def ok(self) -> bool:
        return self.deviation <= self.tolerance


def validate_channel(channel: Superoperator, kappa: float = DEFAULT_KAPPA) -> ChannelReport:
    """Check trace preservation: sum_j E_j^T E_j must equal I within kappa."""
    return ChannelReport(channel.kraus_deviation(), kappa)


def apply_channel(channel: Superoperator, rho: np.ndarray) -> np.ndarray:
    """Evolve a density matrix, or a stack of them: sum_j E_j rho E_j^T.

    ``rho`` is one ``(d, d)`` density or an ``(N, d, d)`` stack; each
    density of a stack gets the same products in the same element order
    as on its own, so the results agree bit for bit. Preserves trace for
    valid channels.
    """
    rho = np.asarray(rho, dtype=float)
    if rho.ndim not in (2, 3) or rho.shape[-2:] != (channel.dim, channel.dim):
        raise ValueError(f"density matrix shape {rho.shape} does not match channel dimension {channel.dim}")
    out = np.zeros_like(rho)
    with _quiet():
        for e in channel.elements:
            out += e @ rho @ e.T
    return out


def basis_density(dim: int, index: int) -> np.ndarray:
    if not 0 <= index < dim:
        raise ValueError(f"basis index {index} out of range for dimension {dim}")
    rho = np.zeros((dim, dim))
    rho[index, index] = 1.0
    return rho


def density_defects(rho: np.ndarray, kappa: float = DEFAULT_KAPPA) -> list[str]:
    """Diagnostics for a would-be density matrix; empty list means plausible."""
    rho = np.asarray(rho, dtype=float)
    out = []
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        return [f"not square: shape {rho.shape}"]
    if abs(np.trace(rho) - 1.0) > kappa:
        out.append(f"trace is {np.trace(rho)!r}, expected 1")
    if np.abs(rho - rho.T).max() > kappa:
        out.append("not symmetric")
    if rho.diagonal().min() < -kappa:
        out.append(f"negative diagonal entry {rho.diagonal().min()!r}")
    return out


def _channel_misfit(sym: str, channel: Superoperator, n: int) -> str | None:
    if channel.dim == n:
        return None
    return f"channel for {sym!r} has dimension {channel.dim}, machine has {n} states"


@dataclass(frozen=True)
class QuantumAutomaton:
    """A finite automaton whose symbols apply superoperator channels."""

    kind: ClassVar[str] = "qfa"  # the lane, as a classical machine's field names it
    states: tuple[str, ...]
    alphabet: tuple[str, ...]
    channels: Mapping[str, Superoperator]
    initial: int
    accepting: frozenset[int]

    def __post_init__(self):
        _check_machine(self, "channels", _channel_misfit)

    @classmethod
    def build(
        cls,
        states: Sequence[str],
        alphabet: Sequence[str],
        channels: Mapping[str, Superoperator],
        initial: int,
        accepting: Iterable[int] = (),
    ) -> "QuantumAutomaton":
        table = dict(channels)
        ident = Superoperator.identity(len(states))
        table.setdefault(CENT, ident)
        table.setdefault(DOLLAR, ident)
        return cls(tuple(states), tuple(alphabet), table, initial, frozenset(accepting))

    @property
    def size(self) -> int:
        return len(self.states)

    def violations(self, kappa: float = DEFAULT_KAPPA) -> list[str]:
        """One line per channel whose Kraus sum strays from identity by more than kappa."""
        out = []
        for sym in (*self.alphabet, CENT, DOLLAR):
            report = validate_channel(self.channels[sym], kappa)
            if not report.ok:
                out.append(f"symbol {sym}: Kraus sum deviates from identity by {report.deviation:.3e}")
        return out

    @cached_property
    def _block(self) -> tuple[dict[str, Superoperator], np.ndarray, list[int]]:
        """:func:`_accepting_block` of this machine, built on first use."""
        return _accepting_block(self)


def qfa_final_density(machine: QuantumAutomaton, w: str) -> np.ndarray:
    """Density matrix after reading ``cent + w + dollar``."""
    # Stepped as a stack of one, as qfa_prefix_values steps its blocks.
    rho = basis_density(machine.size, machine.initial)[None]
    for channel in _operators(machine, machine.channels, w):
        rho = apply_channel(channel, rho)
    return rho[0]


def _accept_from_density(accepting: Iterable[int], rhos: np.ndarray) -> np.ndarray:
    """Unclamped accepting mass of each density of an ``(N, d, d)`` stack.

    The diagonal entries at the indices ``accepting`` are added from 0 in
    that order, for every density at once; callers pass them in
    ``machine.accepting`` order.
    """
    raw = np.zeros(len(rhos))
    for k in accepting:
        raw += rhos[:, k, k]
    return raw


def _accepting_block(machine: QuantumAutomaton) -> tuple[dict[str, Superoperator], np.ndarray, list[int]]:
    """The channels, start density and readout of ``machine``'s accepting block.

    The block S is the least set of state indices that holds the
    accepting states and has E[k, j] = 0 for every operation element E of
    every channel, every k in S and every j outside S. For k, l in S,
    (E rho E^T)[k, l] then reads only rho[S, S]: the S x S block evolves on
    its own and carries the whole acceptance. Each channel keeps E[S, S]
    for the elements whose rows in S are not all zero, in their order (a
    single zero element when there is none). S is sorted, so a restricted
    product adds the same nonzero terms in the same order as the full one.

    Returns the restricted channels by symbol, the basis density of the
    initial state restricted to S as a stack of one (all zeros when the
    initial state is outside S), and the positions in S of the accepting
    states in ``machine.accepting`` order. The start density is read-only:
    a machine keeps its block for every later call.
    """
    n = machine.size
    reads = np.zeros((n, n), dtype=bool)
    for channel in machine.channels.values():
        for e in channel.elements:
            reads |= e != 0
    inside = np.zeros(n, dtype=bool)
    inside[list(machine.accepting)] = True
    frontier = inside.copy()
    while frontier.any():
        frontier = reads[frontier].any(axis=0) & ~inside
        inside |= frontier
    block = np.flatnonzero(inside)
    cut = np.ix_(block, block)
    channels = {}
    for sym, channel in machine.channels.items():
        kept = tuple(sub for sub in (e[cut] for e in channel.elements) if sub.any())
        channels[sym] = Superoperator(kept or (np.zeros((len(block), len(block))),))
    start = basis_density(n, machine.initial)[cut][None]
    start.setflags(write=False)
    return channels, start, np.searchsorted(block, list(machine.accepting)).tolist()


def _finite(w: str, raw: float) -> float:
    if not math.isfinite(raw):
        raise ValueError(
            f"acceptance of {w!r} is {raw!r}, not a finite number: the machine's channels are not valid"
        )
    return raw


def _clamped(w: str, raw: float) -> float:
    return min(1.0, max(0.0, _finite(w, raw)))


def _clamped_block(words: list[str], raw: np.ndarray) -> list[float]:
    """:func:`_clamped` of each raw value of a block, at once: ``raw[k]`` is the value of ``words[k]``."""
    finite = np.isfinite(raw)
    if not finite.all():
        k = int(finite.argmin())  # the first value that is not finite
        _finite(words[k], float(raw[k]))
    # np.clip keeps -0.0, where max(0.0, -0.0) gives 0.0; adding 0.0 makes it 0.0.
    return (np.clip(raw, 0.0, 1.0) + 0.0).tolist()


def qfa_accept(machine: QuantumAutomaton, w: str) -> float:
    """Acceptance probability of ``w``, clamped into [0, 1] for reporting.

    The unclamped value can stray from the interval by at most the
    accumulated float error, on the order of ``DEFAULT_KAPPA`` for valid
    channels. A value that is not finite (the channels overflowed inside
    the accepting block) raises ``ValueError`` naming ``w``.
    """
    channels, rho, accepting = machine._block
    for channel in _operators(machine, channels, w):
        rho = apply_channel(channel, rho)
    return _clamped(w, float(_accept_from_density(accepting, rho)[0]))


def qfa_prefix_values(machine: QuantumAutomaton, maxlen: int) -> Iterator[tuple[str, float]]:
    """Quantum twin of :func:`afalib.automata.prefix_values`, same ordering.

    Only the accepting block S of the density is stepped, through the
    elements that write into it (see :func:`_accepting_block`).
    ``afa_to_nqfa`` never writes from its residual block back into the
    original one, so S lies in the original block and only the first
    element of each channel survives: ``lapins`` steps 25 states through
    one element instead of 50 through three.

    Per-string values equal :func:`qfa_accept` exactly, float for float:
    both step stacks of the same block densities through
    :func:`apply_channel` and read them out with the same sums, and both
    equal the accepting mass of the full :func:`qfa_final_density` while it
    is finite. Each length level is stepped as ``(N, |S|, |S|)`` stacks in
    blocks of at most ``BLOCK_FLOATS`` floats: each symbol's channel steps
    a whole block in one call, and the block of children this makes is
    read out :data:`~afalib.automata.BLOCK_STRINGS` densities at a time
    (see :func:`_value_blocks`). The deepest level is read out block by
    block and never stored. Nothing is cached by state: float densities
    almost never repeat bit for bit (the 32,767, 8,191 and 3,280 strings of
    the ``afa_to_nqfa`` machines of ``m1_eq``, ``abs_eq`` and ``lapins`` to
    lengths 14, 12 and 7 reach as many distinct densities), so a table
    keyed by density would only cost memory. A value that is not finite
    raises ``ValueError`` naming its string, before any string of its
    block comes out.
    """
    for words, values in _value_blocks(machine, maxlen, BLOCK_STRINGS):
        yield from zip(words, values)


def _value_blocks(machine: QuantumAutomaton, maxlen: int, most: int) -> Iterator[tuple[list[str], list[float]]]:
    """The strings and values of :func:`qfa_prefix_values` as blocks of at most ``most``.

    Each block is read out, checked and clamped at once (see
    :func:`_clamped_block`).
    """
    channels, start, accepting = machine._block
    steps = [channels[sym] for sym in machine.alphabet]
    size = start.shape[-1]
    rows = max(1, BLOCK_FLOATS // (size * size or 1))

    def children(rhos: np.ndarray) -> Iterator[np.ndarray]:
        for i in range(0, len(rhos), rows):
            part = rhos[i : i + rows]
            # kids[n, j] is the child of density n on symbol j: length-lex order.
            kids = np.empty((len(part), len(steps), size, size))
            for j, channel in enumerate(steps):
                kids[:, j] = apply_channel(channel, part)
            # Counted, not -1: an empty block has densities of no entries.
            yield kids.reshape(len(part) * len(steps), size, size)

    def readout(rhos: np.ndarray) -> np.ndarray:
        return _accept_from_density(accepting, apply_channel(channels[DOLLAR], rhos))

    first = apply_channel(channels[CENT], start)
    for words, raw in _length_lex(machine.alphabet, maxlen, first, children, readout, most):
        yield words, _clamped_block(words, raw)


def projective_measure(
    blocks: Iterable[Iterable[int]], rho: np.ndarray, kappa: float = DEFAULT_KAPPA
) -> list[tuple[float, np.ndarray | None]]:
    """Measure ``rho`` against a partition of the state indices.

    Each block corresponds to the diagonal projector onto its indices;
    the outcome probability is trace(P rho P) and the post-measurement
    state is P rho P / p. Blocks whose probability is within ``kappa`` of
    zero get ``None`` instead of an unnormalizable state.
    """
    rho = np.asarray(rho, dtype=float)
    n = rho.shape[0]
    blocks = _check_partition(blocks, n)
    out = []
    for block in blocks:
        mask = np.zeros(n, dtype=bool)
        mask[list(block)] = True
        projected = np.where(np.outer(mask, mask), rho, 0.0)
        p = float(np.trace(projected))
        if p <= kappa:
            out.append((p, None))
        else:
            out.append((p, projected / p))
    return out


def leaf_count(machine: QuantumAutomaton, w: str) -> int:
    return math.prod(len(channel.elements) for channel in _operators(machine, machine.channels, w))


def leaf_vectors(
    machine: QuantumAutomaton, w: str, cap: int = DEFAULT_TREE_CAP
) -> list[np.ndarray]:
    """All leaf state vectors of the branching pure-state evaluation tree.

    Each operation element spawns one child per node, so the tree for
    ``cent + w + dollar`` has one leaf per choice of element indices,
    ordered with the first symbol's element index most significant. Zero
    vectors are kept. Trees with more than ``cap`` leaves are refused.
    """
    total = leaf_count(machine, w)
    if total > cap:
        raise ValueError(f"evaluation tree has {total} leaves, above the cap of {cap}")
    vectors = [np.eye(machine.size)[:, machine.initial].copy()]
    with _quiet():
        for channel in _operators(machine, machine.channels, w):
            vectors = [e @ v for v in vectors for e in channel.elements]
    return vectors


def leaf_acceptance(machine: QuantumAutomaton, w: str, cap: int = DEFAULT_TREE_CAP) -> float:
    """Acceptance aggregated over tree leaves.

    Sums the squared accepting amplitudes across every leaf; for valid
    channels this equals :func:`qfa_accept` up to float error. The sum is
    not clamped, but one that is not finite raises as in :func:`qfa_accept`.
    """
    acc = sorted(machine.accepting)
    with _quiet():
        return _finite(w, float(sum(float(np.sum(v[acc] ** 2)) for v in leaf_vectors(machine, w, cap))))
