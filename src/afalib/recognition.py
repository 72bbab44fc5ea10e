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
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Union

from .automata import ClassicalAutomaton, accept_value, prefix_values
from .quantum import DEFAULT_KAPPA, QuantumAutomaton, qfa_prefix_values

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


@dataclass(frozen=True)
class LanguageOracle:
    """Ground-truth membership for a language over a fixed alphabet."""

    name: str
    alphabet: tuple[str, ...]
    membership: Callable[[str], bool]

    def __post_init__(self):
        object.__setattr__(self, "alphabet", tuple(self.alphabet))


def oracle_eval(oracle: LanguageOracle, w: str) -> bool:
    for ch in w:
        if ch not in oracle.alphabet:
            raise ValueError(f"symbol {ch!r} not in oracle alphabet {oracle.alphabet}")
    return bool(oracle.membership(w))


def eq_oracle() -> LanguageOracle:
    """Strings over a, b with equally many of each."""
    return LanguageOracle("eq", ("a", "b"), lambda w: w.count("a") == w.count("b"))


def lapins_oracle() -> LanguageOracle:
    """Strings over a, b, c with |w|_a^2 > |w|_b and |w|_b^2 > |w|_c."""

    def member(w: str) -> bool:
        x, y, z = w.count("a"), w.count("b"), w.count("c")
        return x * x > y and y * y > z

    return LanguageOracle("lapins", ("a", "b", "c"), member)


def abseq_oracle() -> LanguageOracle:
    """Strings over a, b with |m-n| + |m-4n| = |m-2n| + |m-3n| for counts m, n."""

    def member(w: str) -> bool:
        m, n = w.count("a"), w.count("b")
        return abs(m - n) + abs(m - 4 * n) == abs(m - 2 * n) + abs(m - 3 * n)

    return LanguageOracle("abseq", ("a", "b"), member)


def dfa_oracle(machine: ClassicalAutomaton) -> LanguageOracle:
    """Membership decided by a deterministic machine (value exactly 1)."""
    if machine.kind != "dfa":
        raise ValueError("oracle machines must be deterministic")
    if violations := machine.violations():
        raise ValueError(f"oracle machine has {len(violations)} violation(s), first: {violations[0]}")
    return LanguageOracle("dfa", machine.alphabet, lambda w: accept_value(machine, w) == 1)


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


@dataclass(frozen=True, slots=True)
class StringRecord:
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


def _lane(machine: Machine, cutpoint: Fraction, maxlen: int) -> tuple[Iterator[tuple[str, Value]], Value, Callable]:
    """A machine's values to ``maxlen``, the cutpoint :func:`_sign` meets them with, and their memo key.

    The one lane switch. An exact value is keyed by its integer ratio,
    which hashes faster than the Fraction; a float by itself, against the
    cutpoint converted once here (past float range, an unusable request).
    """
    if machine.kind != "qfa":
        return prefix_values(machine, maxlen), cutpoint, Fraction.as_integer_ratio
    try:
        threshold = float(cutpoint)
    except OverflowError:
        raise ValueError("the cutpoint is past float range, and a quantum machine's values are floats") from None
    return qfa_prefix_values(machine, maxlen), threshold, float


def _checked_cutpoint(machine: Machine, cutpoint, mode: str, oracle: LanguageOracle, maxlen: int) -> Fraction:
    """Check a sweep request before any string is evaluated; return the cutpoint its report shows."""
    if mode not in MODES:
        raise ValueError(f"unknown sweep mode {mode!r}; choose from {MODES}")
    if set(machine.alphabet) != set(oracle.alphabet):
        raise ValueError(
            f"alphabet mismatch: machine {machine.alphabet} vs oracle {oracle.alphabet}"
        )
    if _corpus_size(len(machine.alphabet), maxlen) > SWEEP_CAP:
        raise ValueError(
            f"a sweep to length {maxlen} over {len(machine.alphabet)} symbol(s) has more than {SWEEP_CAP} strings"
        )
    return Fraction(0) if mode == "nondet" else Fraction(cutpoint)


def _verdicts(
    machine: Machine,
    cutpoint: Fraction,
    mode: str,
    oracle: LanguageOracle,
    maxlen: int,
    kappa: float,
    memo: dict,
) -> Iterator[tuple[str, tuple[Value, bool, str]]]:
    """Yield each string of a checked request with its memo entry ``(value, member, verdict)``.

    Counting languages reach few distinct values: each (value, member)
    pair is decided once, and its entry in ``memo`` is the same object
    for every string that reaches the pair, keyed as :func:`_lane` says.
    The entry keeps the first value, equal to every later one.
    """
    values, threshold, key_of = _lane(machine, cutpoint, maxlen)
    claims = _CLAIMS[mode]
    for w, value in values:
        # The alphabets match (checked with the request), so no per-letter check.
        member = bool(oracle.membership(w))
        key = (key_of(value), member)
        entry = memo.get(key)
        if entry is None:
            sign = _sign(value, threshold, kappa)
            if sign is None:
                verdict = "indeterminate"
            elif claims[sign + 1] == member:
                verdict = "agree"
            else:
                verdict = "disagree"
            entry = memo[key] = (value, member, verdict)
        yield w, entry


def _extremes(memo: dict) -> tuple[Value | None, Value | None]:
    """The least member value and the greatest non-member value among a sweep's memo entries."""
    entries = memo.values()
    return (
        min((v for v, member, _ in entries if member), default=None),
        max((v for v, member, _ in entries if not member), default=None),
    )


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
    cutpoint = _checked_cutpoint(machine, cutpoint, mode, oracle, maxlen)
    memo: dict = {}
    records = tuple(
        StringRecord(w, *entry) for w, entry in _verdicts(machine, cutpoint, mode, oracle, maxlen, kappa, memo)
    )
    low, high = _extremes(memo)
    return SweepReport(
        mode,
        cutpoint,
        maxlen,
        kappa,
        records,
        counterexamples=tuple(r.string for r in records if r.verdict == "disagree"),
        indeterminate=tuple(r.string for r in records if r.verdict == "indeterminate"),
        min_member_value=low,
        max_nonmember_value=high,
    )


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
    string: the extremes are read off the verdict memo.
    """
    cutpoint = _checked_cutpoint(machine, cutpoint, "isolation", oracle, maxlen)
    memo: dict = {}
    for _ in _verdicts(machine, cutpoint, "isolation", oracle, maxlen, kappa, memo):
        pass
    low, high = _extremes(memo)
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

    The comparison is exact for classical machines; floats within kappa
    of their cutpoint make the string indeterminate instead of failing.
    """
    if set(m1.alphabet) != set(m2.alphabet):
        raise ValueError(f"alphabet mismatch: {m1.alphabet} vs {m2.alphabet}")
    values1, threshold1, _ = _lane(m1, Fraction(cutpoint1), maxlen)
    # Enumerating m2 in m1's symbol order lists the same strings in both streams.
    values2, threshold2, _ = _lane(replace(m2, alphabet=m1.alphabet), Fraction(cutpoint2), maxlen)
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
