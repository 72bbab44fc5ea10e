"""Language recognition checks: oracles, exhaustive sweeps, isolation
gaps and cutpoint-equivalence comparisons.

Classical machines are compared with exact rational arithmetic, so a
sweep verdict of agree or disagree is a theorem about that string.
Quantum machines produce floats; their comparisons are sign tests with a
kappa tolerance, and any value within kappa of the cutpoint is flagged
indeterminate rather than misclassified.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import reduce
from typing import Callable, Hashable, Iterable, Iterator, NamedTuple, Union

from . import automata, quantum
from .automata import CENT, DOLLAR, ClassicalAutomaton, _initial
from .exactnum import _entry
from .quantum import DEFAULT_KAPPA, QuantumAutomaton

Machine = Union[ClassicalAutomaton, QuantumAutomaton]
Value = Union[Fraction, float]

#: The membership each mode claims for sign(f(w) - cutpoint) = -1, 0, +1.
_CLAIMS = {
    "cutpoint": (False, False, True),
    "exclusive": (True, False, True),
    "equality": (False, True, False),
    "nondet": (False, False, True),
    "isolation": (False, False, True),
}
MODES = tuple(_CLAIMS)

#: Refuse sweeps over more strings than this; a sweep keeps one record or report row per string.
SWEEP_CAP = 10**6


class OracleStepper(NamedTuple):
    """A deterministic automaton for an oracle's language.

    ``start`` is the state of the empty string, ``step(state, symbol)``
    the state one symbol on, and ``member(state)`` the membership of
    every string that reaches ``state``.
    """

    start: Hashable
    step: Callable[[Hashable, str], Hashable]
    member: Callable[[Hashable], bool]


@dataclass(frozen=True)
class LanguageOracle:
    """Ground-truth membership for a language over a fixed alphabet.

    ``membership(w)`` decides one string. The optional ``stepper``
    decides the same language one symbol at a time, and its contract is:

    - ``step`` is deterministic, and its states are hashable; equal states
      are interchangeable;
    - ``member`` of the state that ``step`` reaches from ``start`` over the
      symbols of ``w``, in order, equals ``membership(w)`` for every ``w``
      over the alphabet.

    A stepper is what lets :func:`sweep` of a classical machine step
    (exact state, oracle state) classes instead of strings; that path
    never calls ``membership``. Quantum machines and oracles without a
    stepper are swept string by string.
    """

    name: str
    alphabet: tuple[str, ...]
    membership: Callable[[str], bool]
    stepper: OracleStepper | None = None

    def __post_init__(self):
        object.__setattr__(self, "alphabet", tuple(self.alphabet))


def oracle_eval(oracle: LanguageOracle, w: str) -> bool:
    for ch in w:
        if ch not in oracle.alphabet:
            raise ValueError(f"symbol {ch!r} not in oracle alphabet {oracle.alphabet}")
    return bool(oracle.membership(w))


def _counting_oracle(name: str, alphabet: str, member: Callable[[tuple[int, ...]], bool]) -> LanguageOracle:
    """The language of strings whose letter counts, in ``alphabet`` order, satisfy ``member``.

    The stepper's state is the count vector itself.
    """
    alphabet = tuple(alphabet)
    index = {sym: i for i, sym in enumerate(alphabet)}

    def step(counts: tuple[int, ...], sym: str) -> tuple[int, ...]:
        i = index[sym]
        return (*counts[:i], counts[i] + 1, *counts[i + 1 :])

    return LanguageOracle(
        name,
        alphabet,
        lambda w: member(tuple(map(w.count, alphabet))),
        OracleStepper((0,) * len(alphabet), step, member),
    )


def eq_oracle() -> LanguageOracle:
    """Strings over a, b with equally many of each."""
    return _counting_oracle("eq", "ab", lambda counts: counts[0] == counts[1])


def lapins_oracle() -> LanguageOracle:
    """Strings over a, b, c with |w|_a^2 > |w|_b and |w|_b^2 > |w|_c."""

    def member(counts: tuple[int, ...]) -> bool:
        x, y, z = counts
        return x * x > y and y * y > z

    return _counting_oracle("lapins", "abc", member)


def abseq_oracle() -> LanguageOracle:
    """Strings over a, b with |m-n| + |m-4n| = |m-2n| + |m-3n| for counts m, n."""

    def member(counts: tuple[int, ...]) -> bool:
        m, n = counts
        return abs(m - n) + abs(m - 4 * n) == abs(m - 2 * n) + abs(m - 3 * n)

    return _counting_oracle("abseq", "ab", member)


def dfa_oracle(machine: ClassicalAutomaton) -> LanguageOracle:
    """Membership decided by a deterministic machine (value exactly 1).

    The stepper's state is the machine's state index. A valid dfa's
    matrices are 0/1 with one 1 per column, so each symbol's move sends
    column ``j`` to the row of that 1; ``membership`` folds the same
    moves over the string.
    """
    if machine.kind != "dfa":
        raise ValueError("oracle machines must be deterministic")
    if violations := machine.violations():
        raise ValueError(f"oracle machine has {len(violations)} violation(s), first: {violations[0]}")
    moves = {}
    for sym, mat in machine.transitions.items():
        target = [0] * machine.size
        for k, row in enumerate(mat.integer_form()[1]):
            for j, _ in row:
                target[j] = k
        moves[sym] = tuple(target)
    final, accepting = moves.pop(DOLLAR), machine.accepting
    start = moves.pop(CENT)[machine.initial]

    def step(state: int, sym: str) -> int:
        return moves[sym][state]

    def member(state: int) -> bool:
        return final[state] in accepting

    return LanguageOracle(
        "dfa", machine.alphabet, lambda w: member(reduce(step, w, start)), OracleStepper(start, step, member)
    )


BUILTIN_ORACLES: dict[str, Callable[[], LanguageOracle]] = {
    "eq": eq_oracle,
    "lapins": lapins_oracle,
    "abseq": abseq_oracle,
}


def enumerate_strings(alphabet: Iterable[str], maxlen: int) -> Iterator[str]:
    """All strings up to ``maxlen``, shortest first, lexicographic within a length."""
    alphabet = tuple(alphabet)
    if maxlen < 0:
        raise ValueError("maxlen must be nonnegative")
    for length in range(maxlen + 1 if alphabet else 1):
        for combo in itertools.product(alphabet, repeat=length):
            yield "".join(combo)


def _corpus_size(symbols: int, maxlen: int) -> int:
    """Strings of length at most ``maxlen``, counted only until the sum passes SWEEP_CAP."""
    total, level = 0, 1
    for _ in range(maxlen + 1):
        total += level
        level *= symbols
        if total > SWEEP_CAP or not level:
            break
    return total


def _check_corpus(alphabet: tuple[str, ...], maxlen: int) -> None:
    """Refuse a negative ``maxlen`` and a corpus of more than :data:`SWEEP_CAP` strings."""
    if maxlen < 0:
        raise ValueError("maxlen must be nonnegative")
    if _corpus_size(len(alphabet), maxlen) > SWEEP_CAP:
        raise ValueError(f"a sweep to length {maxlen} over {len(alphabet)} symbol(s) has more than {SWEEP_CAP} strings")


def _sign(value: Value, cutpoint: Value, kappa: float) -> int | None:
    """Three-way sign of value - cutpoint; None when a float is within kappa."""
    if isinstance(value, float):
        diff = value - cutpoint
        if abs(diff) <= kappa:
            return None
        return 1 if diff > 0 else -1
    # Both denominators are positive: compare by one cross-multiplication.
    n, d = value.as_integer_ratio()
    p, q = cutpoint.as_integer_ratio()
    diff = n * q - p * d
    return (diff > 0) - (diff < 0)


class StringRecord(NamedTuple):
    string: str
    value: Value
    member: bool
    verdict: str  # "agree", "disagree" or "indeterminate"


@dataclass(frozen=True)
class SweepReport:
    """Outcome of an exhaustive comparison against an oracle.

    ``min_member_value`` and ``max_nonmember_value`` are the extremes of
    the machine's values over oracle members and non-members (None when
    a side is empty). ``gap`` is their difference, meaningful for
    isolation sweeps: it is the full certified width between the two
    value populations, twice the isolation radius when the cutpoint sits
    midway between them.
    """

    mode: str
    cutpoint: Fraction
    maxlen: int
    kappa: float
    records: tuple[StringRecord, ...]
    counterexamples: tuple[str, ...] = field(default=())
    indeterminate: tuple[str, ...] = field(default=())
    min_member_value: Value | None = None
    max_nonmember_value: Value | None = None

    @property
    def ok(self) -> bool:
        return not self.counterexamples and not self.indeterminate

    @property
    def gap(self) -> Value | None:
        if self.min_member_value is None or self.max_nonmember_value is None:
            return None
        return self.min_member_value - self.max_nonmember_value


def _lane(machine: Machine, cutpoint, maxlen: int) -> tuple[Iterator[tuple[list[str], list]], Value, Callable]:
    """A machine's blocks of values to ``maxlen``, the cutpoint :func:`_sign` meets them with, and their key.

    The one lane switch. A block ``(words, values)`` holds at most
    :data:`~afalib.automata.BLOCK_STRINGS` consecutive strings and their
    values, in length-lexicographic order (see
    :func:`afalib.automata._length_lex`). An exact value is keyed by its
    integer ratio, which hashes faster than the Fraction, against an exact
    cutpoint (a float one is refused, as a float matrix entry is); a float
    value by itself, against the cutpoint converted once here (past float
    range, an unusable request).
    """
    if machine.kind != "qfa":
        return automata._value_blocks(machine, maxlen), _entry(cutpoint), Fraction.as_integer_ratio
    try:
        threshold = float(Fraction(cutpoint))
    except OverflowError:
        raise ValueError("the cutpoint is past float range, and a quantum machine's values are floats") from None
    return quantum._value_blocks(machine, maxlen), threshold, float


def _checked_cutpoint(machine: Machine, cutpoint, mode: str, oracle: LanguageOracle, maxlen: int) -> Fraction:
    """Check a sweep request before any string is evaluated; return the cutpoint its report shows."""
    if mode not in MODES:
        raise ValueError(f"unknown sweep mode {mode!r}; choose from {MODES}")
    if set(machine.alphabet) != set(oracle.alphabet):
        raise ValueError(
            f"alphabet mismatch: machine {machine.alphabet} vs oracle {oracle.alphabet}"
        )
    _check_corpus(machine.alphabet, maxlen)
    # In every mode: a float's binary rounding would be swept as if it were the rational meant.
    cutpoint = _entry(cutpoint)
    return Fraction(0) if mode == "nondet" else cutpoint


def _sweep(
    machine: Machine,
    cutpoint,
    mode: str,
    oracle: LanguageOracle,
    maxlen: int,
    kappa: float,
    take: Callable[[list[str], list[int], list[tuple[Value, bool, str]]], None] | None,
) -> SweepReport:
    """The one sweep driver: a sweep's report, with no records, once ``take`` has seen every string.

    The request is checked here, before any string is evaluated. Each
    distinct (value, member) pair of the sweep is decided once, keyed as
    :func:`_lane` says, and numbered in the order first met: ``entries``
    lists ``(value, member, verdict)`` by number and keeps one of the
    pair's values, which are all equal: exact values are keyed exactly,
    and the float lane yields no ``-0.0``.

    The strings come in length-lexicographic order, in lists of at most
    :data:`~afalib.automata.BLOCK_STRINGS`; ``take(words, ids, entries)``
    is called once per list with its strings, the number of each one's
    entry and the entries numbered so far. A classical machine with a
    stepping oracle is swept by class, a length at a time (see
    :func:`_class_blocks`), and a length's strings are made and numbered
    only a list at a time; anything else string by string, in the lane's
    blocks (see :func:`_lane`). Either way the lane yields only values and
    memberships, and one loop here numbers them and collects the strings
    whose entry does not agree. With no ``take``, only the entries are
    wanted: no string is made or collected, and the report lists no
    counterexample or indeterminate string.
    """
    cutpoint = _checked_cutpoint(machine, cutpoint, mode, oracle, maxlen)
    claims = _CLAIMS[mode]
    if oracle.stepper is not None and machine.kind != "qfa":
        lane, threshold, key_of = _class_blocks(machine, oracle.stepper, maxlen), cutpoint, Fraction.as_integer_ratio
    else:
        blocks, threshold, key_of = _lane(machine, cutpoint, maxlen)
        # The alphabets match (checked with the request), so no per-letter check.
        lane = ((words, values, map(bool, map(oracle.membership, words)), None) for words, values in blocks)
    entries: list[tuple[Value, bool, str]] = []
    numbers: dict = {}
    counterexamples: list[str] = []
    indeterminate: list[str] = []
    # The numbers of the entries that do not agree, with the list their strings go to.
    odd: dict[int, list[str]] = {}
    most = automata.BLOCK_STRINGS
    for words, values, members, classes in lane:
        keys = list(zip(map(key_of, values), members))
        # Equal keys have equal values, so any one of them can be decided.
        for key, value in dict(zip(keys, values)).items():
            if key not in numbers:
                sign, member = _sign(value, threshold, kappa), key[1]
                verdict = "indeterminate" if sign is None else "agree" if claims[sign + 1] == member else "disagree"
                if verdict != "agree":
                    odd[len(entries)] = counterexamples if verdict == "disagree" else indeterminate
                numbers[key] = len(entries)
                entries.append((value, member, verdict))
        if take is None:
            continue
        ids = list(map(numbers.__getitem__, keys))
        # A class block numbers its strings through their classes, as they are cut.
        words, ids = iter(words), iter(ids if classes is None else map(ids.__getitem__, classes))
        while part := list(itertools.islice(ids, most)):
            chunk = list(itertools.islice(words, len(part)))
            # Only a list that holds an entry that does not agree is scanned string by string.
            if odd and not odd.keys().isdisjoint(part):
                for w, i in zip(chunk, part):
                    if i in odd:
                        odd[i].append(w)
            take(chunk, part, entries)
    return SweepReport(
        mode,
        cutpoint,
        maxlen,
        kappa,
        (),
        tuple(counterexamples),
        tuple(indeterminate),
        min((v for v, member, _ in entries if member), default=None),
        max((v for v, member, _ in entries if not member), default=None),
    )


def _class_levels(
    machine: ClassicalAutomaton, start: Hashable, step: Callable[[Hashable, str], Hashable], maxlen: int
) -> Iterator[tuple[dict, list[int]]]:
    """The one class frontier: the strings of one length that reach one exact state and one other state.

    The exact state is ``machine``'s. The other is a second automaton's:
    an oracle's for a sweep, a second machine's for an equivalence check.
    It starts in ``start`` and goes one symbol on by ``step(state,
    symbol)``; its states must be hashable, and equal states
    interchangeable. Strings of one class share everything a reader reads
    off the pair, so each class is stepped once per symbol. Per length,
    shortest first, this yields ``(classes, ids)``: ``classes`` maps each
    class ``(exact state, state)`` to its index, which is its place in the
    dict's order, and ``ids`` lists each string's class, in
    length-lexicographic order of ``machine``'s alphabet. Only one
    length's classes are kept at a time.
    """
    table = machine.transitions
    steps = [(sym, table[sym]) for sym in machine.alphabet]

    def children(classes: dict, ids: list) -> tuple[dict, list]:
        kids: dict = {}
        # One list of child class indices per symbol, in the order of the parent classes.
        columns = [
            [kids.setdefault((mat.step(state), step(other, sym)), len(kids)) for state, other in classes]
            for sym, mat in steps
        ]
        in_order = zip(*[map(column.__getitem__, ids) for column in columns])
        return kids, list(itertools.chain.from_iterable(in_order))

    classes = {(table[CENT].step(_initial(machine)), start): 0}
    ids = [0]
    for length in range(maxlen + 1):
        if length:
            classes, ids = children(classes, ids)
            if not ids:  # no symbols: no string is longer than 0
                return
        yield classes, ids


def _class_blocks(machine: ClassicalAutomaton, stepper: OracleStepper, maxlen: int) -> Iterator[tuple]:
    """A sweep's classes: the strings of one length that reach one exact state and one oracle state.

    Such strings share their value and membership, so each class is read
    out once. A length is one block ``(words, values, members, ids)`` of
    :func:`_class_levels`: ``values`` and ``members`` hold each class's
    value and membership, ``ids`` each string's class, and ``words``
    makes the strings only as it is iterated.
    """
    value, member_of = machine._value, stepper.member
    for length, (classes, ids) in enumerate(_class_levels(machine, stepper.start, stepper.step, maxlen)):
        values = list(itertools.starmap(Fraction, map(value, map(operator.itemgetter(0), classes))))
        members = [bool(member_of(oracle_state)) for _, oracle_state in classes]
        yield map("".join, itertools.product(machine.alphabet, repeat=length)), values, members, ids


def sweep(
    machine: Machine,
    cutpoint,
    mode: str,
    oracle: LanguageOracle,
    maxlen: int,
    kappa: float = DEFAULT_KAPPA,
) -> SweepReport:
    """Compare a machine against an oracle on every string up to ``maxlen``.

    Modes: ``cutpoint`` claims membership equals value > cutpoint,
    ``exclusive`` value != cutpoint, ``equality`` value = cutpoint,
    ``nondet`` value > 0 (the cutpoint argument is ignored), and
    ``isolation`` behaves like ``cutpoint`` while the report's extremes
    certify the gap. Strings are processed in length-lexicographic order
    and the report is deterministic. A corpus of more than
    :data:`SWEEP_CAP` strings raises ``ValueError`` before any string is
    evaluated.
    """
    records: list[StringRecord] = []

    def take(words: list[str], ids: list[int], entries: list) -> None:
        # A record's fields are its string, then its entry's (value, member,
        # verdict); tuple.__new__ is StringRecord._make without a Python call.
        fields = map(operator.add, zip(words), map(entries.__getitem__, ids))
        records.extend(map(tuple.__new__, itertools.repeat(StringRecord), fields))

    return replace(_sweep(machine, cutpoint, mode, oracle, maxlen, kappa, take), records=tuple(records))


@dataclass(frozen=True)
class IsolationReport:
    """Certified value extremes around a cutpoint.

    ``gap`` is twice the isolation radius: 2 * min(min_member - cutpoint,
    cutpoint - max_nonmember). It equals min_member - max_nonmember
    exactly when the cutpoint is centered between the extremes, and is
    None when either side of the language is empty in the corpus or the
    cutpoint is not actually isolated.
    """

    cutpoint: Fraction
    min_member_value: Value | None
    max_nonmember_value: Value | None
    gap: Value | None


def isolation_gap(
    machine: Machine,
    cutpoint,
    oracle: LanguageOracle,
    maxlen: int,
    kappa: float = DEFAULT_KAPPA,
) -> IsolationReport:
    """Measure how far machine values stay from a cutpoint, per oracle side.

    Checks the request as :func:`sweep` does, but keeps no record per
    string: the extremes are those of the sweep's report.
    """
    report = _sweep(machine, cutpoint, "isolation", oracle, maxlen, kappa, None)
    cutpoint, low, high = report.cutpoint, report.min_member_value, report.max_nonmember_value
    gap = None
    if low is not None and high is not None:
        radius = min(low - cutpoint, cutpoint - high)
        if radius > 0:
            gap = 2 * radius
    return IsolationReport(cutpoint, low, high, gap)


@dataclass(frozen=True)
class EquivalenceReport:
    """Three-way sign comparison of two machines around their cutpoints."""

    maxlen: int
    violations: tuple[tuple[str, Value, Value], ...]
    indeterminate: tuple[str, ...]

    @property
    def equivalent(self) -> bool:
        return not self.violations and not self.indeterminate


def equivalence_check(
    m1: Machine,
    cutpoint1,
    m2: Machine,
    cutpoint2,
    maxlen: int,
    kappa: float = DEFAULT_KAPPA,
) -> EquivalenceReport:
    """Check that sign(f1(w) - cutpoint1) = sign(f2(w) - cutpoint2) for all w.

    The comparison is exact for classical machines, whose cutpoints may
    not be floats; floats within kappa of their cutpoint make the string
    indeterminate instead of failing. A corpus of more than
    :data:`SWEEP_CAP` strings raises ``ValueError`` before any string is
    evaluated, as in :func:`sweep`.

    Two classical machines are compared on pair classes (see
    :func:`_class_levels`): the strings of one length that reach one exact
    state of ``m1`` and one of ``m2`` share both signs, so each class is
    decided once, on the integers of the machines' value kernels, and
    ``Fraction`` values are built only for violations. Neither machine is
    copied: ``m2`` is stepped in ``m1``'s symbol order. A pair with a
    quantum side is compared string by string, with ``m2`` copied into
    ``m1``'s symbol order when the orders differ. Either way, violations
    and indeterminate strings come in length-lexicographic order of
    ``m1``'s alphabet.
    """
    if set(m1.alphabet) != set(m2.alphabet):
        raise ValueError(f"alphabet mismatch: {m1.alphabet} vs {m2.alphabet}")
    _check_corpus(m1.alphabet, maxlen)
    if m1.kind != "qfa" and m2.kind != "qfa":
        return _pair_check(m1, _entry(cutpoint1), m2, _entry(cutpoint2), maxlen)
    if m2.alphabet != m1.alphabet:
        # Enumerating m2 in m1's symbol order lists the same strings in both
        # streams; a copy compiles its kernels again, so only when needed.
        m2 = replace(m2, alphabet=m1.alphabet)
    blocks1, threshold1, _ = _lane(m1, cutpoint1, maxlen)
    blocks2, threshold2, _ = _lane(m2, cutpoint2, maxlen)
    # The lanes may cut their blocks at different strings: the streams meet string by string.
    values1, values2 = (itertools.chain.from_iterable(itertools.starmap(zip, b)) for b in (blocks1, blocks2))
    violations = []
    indeterminate = []
    for (w, v1), (_, v2) in zip(values1, values2):
        s1 = _sign(v1, threshold1, kappa)
        s2 = _sign(v2, threshold2, kappa)
        if s1 is None or s2 is None:
            indeterminate.append(w)
        elif s1 != s2:
            violations.append((w, v1, v2))
    return EquivalenceReport(maxlen, tuple(violations), tuple(indeterminate))


def _pair_check(
    m1: ClassicalAutomaton, cutpoint1: Fraction, m2: ClassicalAutomaton, cutpoint2: Fraction, maxlen: int
) -> EquivalenceReport:
    """:func:`equivalence_check` of two classical machines, one pair class at a time."""
    p1, q1 = cutpoint1.as_integer_ratio()
    p2, q2 = cutpoint2.as_integer_ratio()
    value1, value2, table2 = m1._value, m2._value, m2.transitions
    violations = []
    levels = _class_levels(m1, table2[CENT].step(_initial(m2)), lambda state, sym: table2[sym].step(state), maxlen)
    for length, (classes, ids) in enumerate(levels):
        # The values' denominators and the cutpoints' are positive, so
        # num * q - p * den has the sign of value - cutpoint.
        odd = {}
        for (state1, state2), i in classes.items():
            n1, d1 = value1(state1)
            n2, d2 = value2(state2)
            diff1, diff2 = n1 * q1 - p1 * d1, n2 * q2 - p2 * d2
            if (diff1 > 0) - (diff1 < 0) != (diff2 > 0) - (diff2 < 0):
                odd[i] = Fraction(n1, d1), Fraction(n2, d2)
        if odd:
            # Only the strings of the classes that disagree are made.
            flags = list(map(odd.__contains__, ids))
            words = map("".join, itertools.compress(itertools.product(m1.alphabet, repeat=length), flags))
            violations += [(w, *odd[i]) for w, i in zip(words, itertools.compress(ids, flags))]
    return EquivalenceReport(maxlen, tuple(violations), ())
