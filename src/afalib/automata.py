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
for the values and states this module returns. A value is read off the
state before the right marker: each machine compiles its ``dollar``
matrix and its readout into one integer function (``_value``), so the
state after ``dollar`` is built only by :func:`run` and the literal
trace of :func:`accept_value_normalized`.

States are referred to by 0-based index everywhere in this module; the
file format layer maps names to indices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cached_property
from fractions import Fraction
from itertools import islice, product
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .exactnum import (
    ONE,
    ZERO,
    ExactState,
    Mat,
    MatrixKind,
    _compile_rows,
    _sum_source,
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


def _check_machine(machine, field: str, misfit: Callable[[str, object, int], str | None]) -> None:
    """Normalize and check the fields every machine class shares.

    ``field`` names the per-symbol table (``transitions`` or ``channels``),
    which must cover the alphabet and both end-markers; ``misfit(sym,
    entry, n)`` describes an entry that does not fit ``n`` states, or
    returns None.
    """
    for name, convert in (("states", tuple), ("alphabet", tuple), (field, dict), ("accepting", frozenset)):
        object.__setattr__(machine, name, convert(getattr(machine, name)))
    if not machine.states:
        raise ValueError("machines need at least one state")
    if len(set(machine.states)) != len(machine.states):
        raise ValueError("duplicate state names")
    for sym in machine.alphabet:
        if len(sym) != 1:
            raise ValueError(f"alphabet symbols must be single characters, got {sym!r}")
    if len(set(machine.alphabet)) != len(machine.alphabet):
        raise ValueError("duplicate alphabet symbols")
    table = getattr(machine, field)
    expected = set(machine.alphabet) | set(RESERVED_SYMBOLS)
    if set(table) != expected:
        missing = expected - set(table)
        extra = set(table) - expected
        # "transition table" or "channel table"
        raise ValueError(f"{field[:-1]} table mismatch: missing {sorted(missing)}, extra {sorted(extra)}")
    n = len(machine.states)
    for sym, entry in table.items():
        error = misfit(sym, entry, n)
        if error:
            raise ValueError(error)
    if not 0 <= machine.initial < n:
        raise ValueError(f"initial state {machine.initial} out of range")
    if not machine.accepting <= set(range(n)):
        raise ValueError("accepting set contains unknown state indices")


def _matrix_misfit(sym: str, mat: Mat, n: int) -> str | None:
    if mat.rows == mat.cols == n:
        return None
    return f"matrix for {sym!r} is {mat.rows}x{mat.cols}, machine has {n} states"


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
        if self.kind not in KINDS:
            raise ValueError(f"unknown machine kind {self.kind!r}")
        _check_machine(self, "transitions", _matrix_misfit)

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
                d, rows = mat.integer_form()
                bad = sorted((j, k) for k, row in enumerate(rows) for j, a in row if a != d)
                out += [f"symbol {sym}, column {j}: entry at row {k} is not 0 or 1" for j, k in bad]
        return out

    @cached_property
    def _value(self) -> Callable[[ExactState], tuple[int, int]]:
        """The acceptance value of the state before ``dollar``, as one compiled integer function.

        It returns the value as an unreduced integer pair ``(num, den)``
        with ``den > 0``, so that a caller can decide a sign without a
        gcd; ``Fraction(num, den)`` is the value. ``dollar`` and the
        readout are fused: with ``dollar`` as integer rows over ``d``, an
        affine value is ``(mass, mass + rest)`` with ``mass`` the sum of
        ``abs(row_k . nums)`` over accepting ``k`` and ``rest`` over the
        others, since the weighting is scale-free; any other value is the
        accepting rows' summed row, dotted with ``nums``, over ``den * d``.
        Compiled on first use, by :func:`afalib.exactnum._compile_rows`.
        """
        d, rows = self.transitions[DOLLAR].integer_form()
        accepting = sorted(self.accepting)
        if self.kind == "afa":
            mass = [rows[k] for k in accepting if rows[k]]
            rest = [row for k, row in enumerate(rows) if row and k not in self.accepting]

            def weighting(exprs: list[str]) -> str:
                absolute = [f"abs({e})" for e in exprs]
                return f"_weighting({_sum_source(absolute[: len(mass)])}, {_sum_source(absolute[len(mass) :])})"

            return _compile_rows(self.size, mass + rest, weighting, _weighting=_weighting)
        summed: dict[int, int] = {}
        for k in accepting:
            for j, a in rows[k]:
                summed[j] = summed.get(j, 0) + a
        row = tuple(sorted((j, a) for j, a in summed.items() if a))
        return _compile_rows(self.size, [row], lambda exprs: f"({exprs[0]}, den * d)", d=d)


def _operators(machine, table: Mapping, w: str) -> list:
    """The entries of ``machine``'s ``table`` applied on reading ``cent + w + dollar``, in order."""
    for ch in w:
        if ch not in machine.alphabet:
            raise ValueError(f"symbol {ch!r} not in alphabet {machine.alphabet}")
    return [table[CENT], *(table[ch] for ch in w), table[DOLLAR]]


def _initial(machine: ClassicalAutomaton) -> ExactState:
    return exact_state(basis_vector(machine.size, machine.initial))


def _before_dollar(machine: ClassicalAutomaton, w: str) -> ExactState:
    """The exact state after reading ``cent + w``."""
    state = _initial(machine)
    for mat in _operators(machine, machine.transitions, w)[:-1]:
        state = mat.step(state)
    return state


def _final(machine: ClassicalAutomaton, w: str) -> ExactState:
    return machine.transitions[DOLLAR].step(_before_dollar(machine, w))


def run(machine: ClassicalAutomaton, w: str) -> tuple[Fraction, ...]:
    """Exact final state column after reading ``cent + w + dollar``."""
    return state_vector(_final(machine, w))


_ZERO_VECTOR = "the affine state is the zero vector, whose l1 norm is 0"


def _l1_numerator(nums: Sequence[int]) -> int:
    norm = sum(map(abs, nums))
    if not norm:
        raise ValueError(_ZERO_VECTOR)
    return norm


def _weighting(mass: int, rest: int) -> tuple[int, int]:
    """The weighting readout of absolute masses, ``(mass, mass + rest)``; a zero norm is refused."""
    norm = mass + rest
    if not norm:
        raise ValueError(_ZERO_VECTOR)
    return mass, norm


def _readout(machine: ClassicalAutomaton, state: ExactState) -> Fraction:
    """The value of the literal state after ``dollar``: the cross-check of ``ClassicalAutomaton._value``."""
    nums, den = state
    if machine.kind == "afa":
        # Weighting: the common denominator cancels between mass and norm.
        return Fraction(sum(abs(nums[k]) for k in machine.accepting), _l1_numerator(nums))
    return Fraction(sum(nums[k] for k in machine.accepting), den)


def accept_value(machine: ClassicalAutomaton, w: str) -> Fraction:
    """Acceptance value of ``w``, exact, in [0, 1] for valid machines.

    Raises ``ValueError`` when an affine machine's final state is the zero
    vector, which only an invalid machine can reach. The state after
    ``dollar`` is never built: ``ClassicalAutomaton._value`` reads the
    value off the state before it.
    """
    return Fraction(*machine._value(_before_dollar(machine, w)))


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
    for mat in _operators(machine, machine.transitions, w):
        nums, _ = mat.step(state)
        # nums / den divided by its l1 norm, sum|nums| / den, is nums / sum|nums|.
        norm = _l1_numerator(nums)
        g = math.gcd(*nums, norm)
        state = tuple(x // g for x in nums), norm // g
    return _readout(machine, state)


#: The most strings in one block of values, in every lane and in every list a sweep cuts.
BLOCK_STRINGS = 4096


def _length_lex(alphabet, maxlen: int, start, children, readout) -> Iterator[tuple[list[str], Sequence]]:
    """Yield ``(words, values)`` blocks covering every ``len(w) <= maxlen``.

    A block holds at most :data:`BLOCK_STRINGS` consecutive strings of one
    length in ``words`` and their values, in order, in ``values``. States
    travel in blocks too, each holding the states of consecutive strings
    of one length, ``len(block)`` strings. ``start`` is the block of the
    empty string; ``children(block)`` yields the blocks one symbol on,
    which together hold each state's children in alphabet order;
    ``readout(part)`` gives the values of a slice of a block, one per
    string, in order. Strings come out in length order, lexicographic
    within a length. A level's blocks are made only as the generator
    reaches them and are read out as they are made, :data:`BLOCK_STRINGS`
    states at a time; each block is dropped once its children are made,
    and the deepest level's blocks are not kept.
    """
    if maxlen < 0:
        raise ValueError("maxlen must be nonnegative")
    most = BLOCK_STRINGS
    blocks: Iterable = [start]
    for length in range(maxlen + 1):
        words = map("".join, product(alphabet, repeat=length))
        kept = []
        for block in blocks:
            for i in range(0, len(block), most):
                part = block[i : i + most]
                yield list(islice(words, len(part))), readout(part)
            if length < maxlen and len(block):
                kept.append(block)
        if not kept:
            return
        blocks = _children_in_turn(kept, children)


def _children_in_turn(blocks: list, children) -> Iterator:
    # Popped, so that each block is freed as soon as its children are made.
    blocks.reverse()
    while blocks:
        yield from children(blocks.pop())


def prefix_values(machine: ClassicalAutomaton, maxlen: int) -> Iterator[tuple[str, Fraction]]:
    """Yield ``(w, accept_value(w))`` for every string with ``len(w) <= maxlen``.

    Strings come out in length order, lexicographic within a length
    following the machine's alphabet order; per-string results are
    identical to :func:`accept_value`. The paper's languages are counting
    languages, so many strings reach the same state vector: steps and
    readouts are cached per call by exact state, so each distinct state
    is stepped once per symbol and read out once, and a string costs a
    lookup. Levels are built only as the generator reaches them, and read
    out in blocks of :data:`BLOCK_STRINGS` (see :func:`_value_blocks`).
    """
    for words, values in _value_blocks(machine, maxlen):
        yield from zip(words, values)


def _value_blocks(machine: ClassicalAutomaton, maxlen: int) -> Iterator[tuple[list[str], list[Fraction]]]:
    """The strings and values of :func:`prefix_values` as :func:`_length_lex` blocks."""
    table = machine.transitions
    steps = [table[sym] for sym in machine.alphabet]

    @cache
    def children(state: ExactState) -> tuple[ExactState, ...]:
        return tuple(mat.step(state) for mat in steps)

    value = machine._value
    # Cached as a Fraction, so a state's value is reduced once however many strings reach it.
    readout = cache(lambda state: Fraction(*value(state)))
    yield from _length_lex(
        machine.alphabet,
        maxlen,
        [table[CENT].step(_initial(machine))],
        lambda states: [[child for state in states for child in children(state)]],
        lambda states: list(map(readout, states)),
    )


def _check_partition(partition: Iterable[Iterable[int]], n: int) -> list[tuple[int, ...]]:
    """The blocks of ``partition``, checked to be disjoint and to cover ``range(n)``."""
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
    return blocks


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
    blocks = _check_partition(partition, n)
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
        entries = {}
        for j, name in enumerate(states):
            key = (name, sym)
            if key not in moves:
                raise ValueError(f"transition table is missing {key!r}")
            target = moves[key]
            if target not in index:
                raise ValueError(f"unknown target state {target!r}")
            entries[index[target], j] = ONE
        transitions[sym] = Mat._sparse(n, n, entries)
    acc = []
    for name in accepting:
        if name not in index:
            raise ValueError(f"unknown accepting state {name!r}")
        acc.append(index[name])
    if initial not in index:
        raise ValueError(f"unknown initial state {initial!r}")
    return ClassicalAutomaton.build("dfa", states, tuple(alphabet), transitions, index[initial], acc)


@dataclass(frozen=True)
class CounterMachineSpec:
    """A deterministic controller plus blind integer counters.

    ``increments`` maps every (dfa state index, alphabet symbol) pair to
    the integer deltas applied to the counters while reading that symbol
    in that state; the counters never influence control flow. ``scale``
    is the rational step size used by the affine compilation and must be
    at least 1.
    """

    dfa: ClassicalAutomaton
    counters: int
    increments: Mapping[tuple[int, str], tuple[int, ...]]
    scale: Fraction = Fraction(1)

    def __post_init__(self):
        object.__setattr__(self, "scale", Fraction(self.scale))
        if self.dfa.kind != "dfa":
            raise ValueError("the controller must be a deterministic machine")
        if violations := self.dfa.violations():
            raise ValueError(f"controller machine has {len(violations)} violation(s), first: {violations[0]}")
        if self.counters < 1:
            raise ValueError("need at least one counter")
        if self.scale < 1:
            raise ValueError(f"scale must be at least 1, got {self.scale}")
        expected = {(q, sym) for q in range(self.dfa.size) for sym in self.dfa.alphabet}
        if set(self.increments) != expected:
            raise ValueError("increments must cover exactly every (state, symbol) pair")
        fixed = {}
        for key, deltas in self.increments.items():
            deltas = tuple(int(d) for d in deltas)
            if len(deltas) != self.counters:
                raise ValueError(f"increment vector for {key!r} has length {len(deltas)}")
            fixed[key] = deltas
        object.__setattr__(self, "increments", fixed)
