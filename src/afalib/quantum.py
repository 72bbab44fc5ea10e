"""Superoperator quantum finite automata over real float matrices.

A quantum machine evolves a density matrix: each symbol applies a channel
given by a finite family of operation elements, rho -> sum_j E_j rho E_j^T,
and acceptance is the probability mass on the accepting diagonal entries
after the right end-marker. Scalars are real doubles throughout; channel
validity and float comparisons use the ``DEFAULT_KAPPA`` tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .automata import CENT, DOLLAR, _check_machine, _check_partition, _length_lex, _operators

DEFAULT_KAPPA = 1e-9

#: Floats of densities that qfa_prefix_values steps through one channel
#: call; chosen by timing the enumeration of the benchmark's machines.
BLOCK_FLOATS = 32 * 1024

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


def qfa_final_density(machine: QuantumAutomaton, w: str) -> np.ndarray:
    """Density matrix after reading ``cent + w + dollar``."""
    # Stepped as a stack of one, as qfa_prefix_values steps its blocks.
    rho = basis_density(machine.size, machine.initial)[None]
    for channel in _operators(machine, machine.channels, w):
        rho = apply_channel(channel, rho)
    return rho[0]


def _accept_from_density(machine: QuantumAutomaton, rhos: np.ndarray) -> np.ndarray:
    """Unclamped accepting mass of each density of an ``(N, d, d)`` stack.

    The accepting diagonal entries are added from 0 in
    ``machine.accepting`` order, for every density at once.
    """
    raw = np.zeros(len(rhos))
    for k in machine.accepting:
        raw += rhos[:, k, k]
    return raw


def _finite(w: str, raw: float) -> float:
    if not math.isfinite(raw):
        raise ValueError(
            f"acceptance of {w!r} is {raw!r}, not a finite number: the machine's channels are not valid"
        )
    return raw


def _clamped(w: str, raw: float) -> float:
    return min(1.0, max(0.0, _finite(w, raw)))


def qfa_accept(machine: QuantumAutomaton, w: str) -> float:
    """Acceptance probability of ``w``, clamped into [0, 1] for reporting.

    The unclamped value can stray from the interval by at most the
    accumulated float error, on the order of ``DEFAULT_KAPPA`` for valid
    channels. A value that is not finite (the channels overflowed) raises
    ``ValueError`` naming ``w``.
    """
    raw = _accept_from_density(machine, qfa_final_density(machine, w)[None])
    return _clamped(w, float(raw[0]))


def qfa_prefix_values(machine: QuantumAutomaton, maxlen: int) -> Iterator[tuple[str, float]]:
    """Quantum twin of :func:`afalib.automata.prefix_values`, same ordering.

    Per-string values equal :func:`qfa_accept` exactly, float for float:
    both step stacks of densities through :func:`apply_channel` and read
    them out with the same sums. Each length level is stepped as
    ``(N, d, d)`` stacks in blocks of at most ``BLOCK_FLOATS`` floats:
    each symbol's channel steps a whole block in one call, and the block
    of children this makes is read out at once. The deepest level is read
    out block by block and never stored. Nothing is cached by state: float
    densities almost never repeat bit for bit (the 32,767, 8,191 and 3,280
    strings of the ``afa_to_nqfa`` machines of ``m1_eq``, ``abs_eq`` and
    ``lapins`` to lengths 14, 12 and 7 reach as many distinct densities),
    so a table keyed by density would only cost memory. A value that is
    not finite raises ``ValueError`` naming its string.
    """
    channels = machine.channels
    steps = [channels[sym] for sym in machine.alphabet]
    size = machine.size
    rows = max(1, BLOCK_FLOATS // (size * size))

    def children(rhos: np.ndarray) -> Iterator[np.ndarray]:
        for i in range(0, len(rhos), rows):
            part = rhos[i : i + rows]
            # kids[n, j] is the child of density n on symbol j: length-lex order.
            kids = np.empty((len(part), len(steps), size, size))
            for j, channel in enumerate(steps):
                kids[:, j] = apply_channel(channel, part)
            yield kids.reshape(-1, size, size)

    def readout(rhos: np.ndarray) -> list[float]:
        return _accept_from_density(machine, apply_channel(channels[DOLLAR], rhos)).tolist()

    start = apply_channel(channels[CENT], basis_density(size, machine.initial)[None])
    for w, raw in _length_lex(machine.alphabet, maxlen, start, children, readout):
        yield w, _clamped(w, raw)


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
