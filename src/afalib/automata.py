"""Classical finite automata over exact rationals.

Deterministic, probabilistic and affine machines share one evaluation
pipeline: every input ``w`` is read as left marker, then the symbols of
``w``, then right marker, each step applying that symbol's transition
matrix to the state column vector. Probabilistic machines read acceptance
directly off the accepting entries of the final state. Affine machines
use the weighting readout instead: the absolute mass on the accepting
entries divided by the l1 norm of the final state, which is what makes
negative entries meaningful.

Evaluation runs on exact integer states (:data:`afalib.exactnum.ExactState`)
stepped by :meth:`afalib.exactnum.Mat.step`; fractions are built only
for the values and states this module returns.

States are referred to by 0-based index everywhere in this module; the
file format layer maps names to indices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Iterable, Iterator, Mapping, Sequence

from .exactnum import (
    ZERO,
    ExactState,
    Mat,
    MatrixKind,
    basis_vector,
    exact_state,
    l1_norm,
    state_vector,
    validate_kind,
)

CENT = "cent"
DOLLAR = "dollar"
RESERVED_SYMBOLS = (CENT, DOLLAR)
KINDS = ("dfa", "pfa", "afa")


@dataclass(frozen=True)
class ClassicalAutomaton:
    """A finite automaton with one exact transition matrix per symbol.

    ``transitions`` must carry a square matrix for every alphabet symbol
    and for both end-markers (``cent`` and ``dollar``). Use
    :meth:`build` to fill identity end-markers automatically.
    """

    kind: str
    states: tuple[str, ...]
    alphabet: tuple[str, ...]
    transitions: Mapping[str, Mat]
    initial: int
    accepting: frozenset[int]

    def __post_init__(self):
        object.__setattr__(self, "states", tuple(self.states))
        object.__setattr__(self, "alphabet", tuple(self.alphabet))
        object.__setattr__(self, "transitions", dict(self.transitions))
        object.__setattr__(self, "accepting", frozenset(self.accepting))
        if self.kind not in KINDS:
            raise ValueError(f"unknown machine kind {self.kind!r}")
        if not self.states:
            raise ValueError("machines need at least one state")
        if len(set(self.states)) != len(self.states):
            raise ValueError("duplicate state names")
        for sym in self.alphabet:
            if len(sym) != 1:
                raise ValueError(f"alphabet symbols must be single characters, got {sym!r}")
        if len(set(self.alphabet)) != len(self.alphabet):
            raise ValueError("duplicate alphabet symbols")
        expected = set(self.alphabet) | set(RESERVED_SYMBOLS)
        if set(self.transitions) != expected:
            missing = expected - set(self.transitions)
            extra = set(self.transitions) - expected
            raise ValueError(f"transition table mismatch: missing {sorted(missing)}, extra {sorted(extra)}")
        n = len(self.states)
        for sym, mat in self.transitions.items():
            if mat.rows != n or mat.cols != n:
                raise ValueError(f"matrix for {sym!r} is {mat.rows}x{mat.cols}, machine has {n} states")
        if not 0 <= self.initial < n:
            raise ValueError(f"initial state {self.initial} out of range")
        if not self.accepting <= set(range(n)):
            raise ValueError("accepting set contains unknown state indices")

    @classmethod
    def build(
        cls,
        kind: str,
        states: Sequence[str],
        alphabet: Sequence[str],
        transitions: Mapping[str, Mat],
        initial: int,
        accepting: Iterable[int] = (),
    ) -> "ClassicalAutomaton":
        """Like the constructor, but omitted end-markers default to identity."""
        table = dict(transitions)
        ident = Mat.identity(len(states))
        table.setdefault(CENT, ident)
        table.setdefault(DOLLAR, ident)
        return cls(kind, tuple(states), tuple(alphabet), table, initial, frozenset(accepting))

    @property
    def size(self) -> int:
        return len(self.states)

    @property
    def matrix_kind(self) -> MatrixKind:
        return MatrixKind.AFFINE if self.kind == "afa" else MatrixKind.STOCHASTIC

    def violations(self) -> list[str]:
        """Kind violations across all matrices, one line per defect.

        Affine machines need every column of every matrix to sum to 1;
        probabilistic machines additionally need entries in [0, 1], and
        deterministic machines need every entry to be 0 or 1. An empty
        list means the machine is valid.
        """
        out = []
        for sym in (*self.alphabet, CENT, DOLLAR):
            mat = self.transitions[sym]
            for v in validate_kind(mat, self.matrix_kind):
                out.append(f"symbol {sym}, {v}")
            if self.kind == "dfa":
                for j in range(mat.cols):
                    for k in range(mat.rows):
                        if mat[k, j] not in (0, 1):
                            out.append(f"symbol {sym}, column {j}: entry at row {k} is not 0 or 1")
        return out


def _operators(machine: ClassicalAutomaton, w: str) -> list[Mat]:
    """The matrices applied on reading ``cent + w + dollar``, in order."""
    for ch in w:
        if ch not in machine.alphabet:
            raise ValueError(f"symbol {ch!r} not in alphabet {machine.alphabet}")
    table = machine.transitions
    return [table[CENT], *(table[ch] for ch in w), table[DOLLAR]]


def _initial(machine: ClassicalAutomaton) -> ExactState:
    return exact_state(basis_vector(machine.size, machine.initial))


def _final(machine: ClassicalAutomaton, w: str) -> ExactState:
    state = _initial(machine)
    for mat in _operators(machine, w):
        state = mat.step(state)
    return state


def run(machine: ClassicalAutomaton, w: str) -> tuple[Fraction, ...]:
    """Exact final state column after reading ``cent + w + dollar``."""
    return state_vector(_final(machine, w))


def _l1_numerator(nums: Sequence[int]) -> int:
    norm = sum(map(abs, nums))
    if not norm:
        raise ValueError("the affine state is the zero vector, whose l1 norm is 0")
    return norm


def _readout(machine: ClassicalAutomaton, state: ExactState) -> Fraction:
    nums, den = state
    if machine.kind == "afa":
        # Weighting: the common denominator cancels between mass and norm.
        return Fraction(sum(abs(nums[k]) for k in machine.accepting), _l1_numerator(nums))
    return Fraction(sum(nums[k] for k in machine.accepting), den)


def accept_value(machine: ClassicalAutomaton, w: str) -> Fraction:
    """Acceptance value of ``w``, exact, in [0, 1] for valid machines.

    Raises ``ValueError`` when an affine machine's final state is the zero
    vector, which only an invalid machine can reach.
    """
    return _readout(machine, _final(machine, w))


def accept_value_normalized(machine: ClassicalAutomaton, w: str) -> Fraction:
    """Affine acceptance computed on the l1-normalized state trace.

    The state is literally divided by its l1 norm after every single
    operator application (markers included). Starting from an affine
    state the entry-sum stays nonzero along the whole trace, so the
    normalizer never sees a zero vector, and for valid affine machines
    the result equals :func:`accept_value` exactly. An invalid machine
    that reaches the zero vector raises ``ValueError``.
    """
    if machine.kind != "afa":
        raise ValueError("normalized semantics is defined for affine machines only")
    state = _initial(machine)
    for mat in _operators(machine, w):
        nums, _ = mat.step(state)
        # nums / den divided by its l1 norm, sum|nums| / den, is nums / sum|nums|.
        norm = _l1_numerator(nums)
        g = math.gcd(*nums, norm)
        state = tuple(x // g for x in nums), norm // g
    nums, den = state
    return Fraction(sum(abs(nums[k]) for k in machine.accepting), den)


def prefix_values(machine: ClassicalAutomaton, maxlen: int) -> Iterator[tuple[str, Fraction]]:
    """Yield ``(w, accept_value(w))`` for every string with ``len(w) <= maxlen``.

    Strings come out in length order, lexicographic within a length
    following the machine's alphabet order; per-string results are
    identical to :func:`accept_value`. The paper's languages are counting
    languages, so many strings reach the same state vector: each distinct
    exact state is stepped once per symbol and read out once, and a
    string costs one table lookup. Levels are built only as the
    generator reaches them.
    """
    if maxlen < 0:
        raise ValueError("maxlen must be nonnegative")
    dollar = machine.transitions[DOLLAR]
    steps = [machine.transitions[sym] for sym in machine.alphabet]
    index: dict[ExactState, int] = {}
    states: list[ExactState] = []
    values: list[Fraction] = []
    successors: list[tuple[int, ...] | None] = []

    def intern(state: ExactState) -> int:
        i = index.get(state)
        if i is None:
            i = index[state] = len(states)
            states.append(state)
            values.append(_readout(machine, dollar.step(state)))
            successors.append(None)
        return i

    # level[i] is the state id of the i-th string of this length.
    level = [intern(machine.transitions[CENT].step(_initial(machine)))]
    length = 0
    while level:
        for letters, i in zip(product(machine.alphabet, repeat=length), level):
            yield "".join(letters), values[i]
        if length == maxlen:
            return
        grown: list[int] = []
        for i in level:
            row = successors[i]
            if row is None:
                row = successors[i] = tuple(intern(mat.step(states[i])) for mat in steps)
            grown.extend(row)
        level = grown
        length += 1


@dataclass(frozen=True)
class WeightOutcome:
    """Weight and collapsed state for one block of a weighting partition.

    ``state`` is ``None`` when the block's entries sum to zero: such a
    block has weight but no rescalable state, and is reported as
    terminal rather than collapsed.
    """

    weight: Fraction
    state: tuple[Fraction, ...] | None

    @property
    def terminal(self) -> bool:
        return self.state is None


def weigh_partition(
    v: Sequence[Fraction], partition: Iterable[Iterable[int]]
) -> list[WeightOutcome]:
    """Weight each block of a state partition of ``v``.

    ``partition`` is a list of index blocks that must be disjoint and
    cover every index of ``v``. Each block gets weight equal to its
    absolute mass over the l1 norm of ``v``; weights always sum to 1.
    The collapsed state keeps only the block's entries (zeros elsewhere)
    scaled so they sum to one, which keeps it a valid affine state.
    """
    n = len(v)
    blocks = [tuple(block) for block in partition]
    seen: set[int] = set()
    for block in blocks:
        for k in block:
            if not 0 <= k < n:
                raise ValueError(f"partition index {k} out of range")
            if k in seen:
                raise ValueError(f"partition blocks overlap at index {k}")
            seen.add(k)
    if seen != set(range(n)):
        raise ValueError("partition does not cover every state index")
    total = l1_norm(v)
    if total == 0:
        raise ValueError("cannot weigh the zero vector")
    out = []
    for block in blocks:
        weight = sum((abs(v[k]) for k in block), ZERO) / total
        block_sum = sum((v[k] for k in block), ZERO)
        if block_sum == 0:
            out.append(WeightOutcome(weight, None))
        else:
            members = set(block)
            state = tuple(v[k] / block_sum if k in members else ZERO for k in range(n))
            out.append(WeightOutcome(weight, state))
    return out


def dfa_automaton(
    states: Sequence[str],
    alphabet: Sequence[str],
    moves: Mapping[tuple[str, str], str],
    initial: str,
    accepting: Iterable[str],
) -> ClassicalAutomaton:
    """Build a deterministic machine from a name-keyed transition table.

    ``moves`` must be total: one target state for every (state, symbol)
    pair. The result is a degenerate probabilistic machine whose matrices
    are 0/1 with a single 1 per column.
    """
    states = tuple(states)
    index = {name: i for i, name in enumerate(states)}
    n = len(states)
    transitions = {}
    for sym in alphabet:
        cols = []
        for name in states:
            key = (name, sym)
            if key not in moves:
                raise ValueError(f"transition table is missing {key!r}")
            target = moves[key]
            if target not in index:
                raise ValueError(f"unknown target state {target!r}")
            cols.append(basis_vector(n, index[target]))
        transitions[sym] = Mat.from_cols(cols)
    acc = []
    for name in accepting:
        if name not in index:
            raise ValueError(f"unknown accepting state {name!r}")
        acc.append(index[name])
    if initial not in index:
        raise ValueError(f"unknown initial state {initial!r}")
    return ClassicalAutomaton.build("dfa", states, tuple(alphabet), transitions, index[initial], acc)
