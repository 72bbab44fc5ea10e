"""Tests for oracle sweeps, isolation measurement and machine equivalence."""

import inspect
import itertools
import math
import random
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from afalib import automata, quantum, recognition
from afalib.automata import ClassicalAutomaton, accept_value, dfa_automaton
from afalib.cli import main, render_report
from afalib.constructions import (
    abs_eq,
    afa_to_nqfa,
    compile_blind_counters,
    exclusive_pfa_to_nafa,
    lapins,
    m1_eq,
    m2_eq,
    shift_extreme,
    shift_interior,
)
from afalib.exactnum import Mat
from afalib.fileformat import dumps_automaton, loads_counter_spec, save_automaton
from afalib.quantum import QuantumAutomaton, Superoperator
from afalib.rand import random_afa, random_pfa, random_qfa
from afalib.recognition import (
    BUILTIN_ORACLES,
    LanguageOracle,
    MODES,
    SWEEP_CAP,
    StringRecord,
    SweepReport,
    _CLAIMS,
    _sign,
    dfa_oracle,
    enumerate_strings,
    equivalence_check,
    isolation_gap,
    oracle_eval,
    sweep,
)

EQ = BUILTIN_ORACLES["eq"]()

# Over ("b", "a"): the strings whose last letter is a.
ENDS_IN_A = dfa_automaton(
    states=("other", "a-last"),
    alphabet=("b", "a"),
    moves={("other", "a"): "a-last", ("a-last", "a"): "a-last", ("other", "b"): "other", ("a-last", "b"): "other"},
    initial="other",
    accepting=("a-last",),
)

# The README's counter spec: one counter, up on a and down on b.
BALANCE_SPEC = """\
kind counters
states only
alphabet a b
initial only
accepting only
counters 1
scale 2

transition only a only
transition only b only
increment only a 1
increment only b -1
"""


def not_eq_oracle() -> LanguageOracle:
    return LanguageOracle(
        name="not-eq",
        alphabet=("a", "b"),
        membership=lambda w: w.count("a") != w.count("b"),
    )


# ----------------------------------------------------------------- oracles


def test_builtin_oracle_names():
    assert set(BUILTIN_ORACLES) == {"eq", "lapins", "abseq"}


def test_eq_oracle():
    assert oracle_eval(EQ, "")
    assert oracle_eval(EQ, "ab")
    assert not oracle_eval(EQ, "aab")


def test_lapins_oracle():
    lap = BUILTIN_ORACLES["lapins"]()
    assert oracle_eval(lap, "aab")  # 4 > 1 and 1 > 0
    assert not oracle_eval(lap, "ab")  # 1 > 1 fails
    assert not oracle_eval(lap, "aabc")  # 1 > 1 fails on the second letter


def test_abseq_oracle():
    ab = BUILTIN_ORACLES["abseq"]()
    assert oracle_eval(ab, "")
    assert not oracle_eval(ab, "aab")  # 1 + 2 differs from 0 + 1
    assert oracle_eval(ab, "a" * 8 + "b")  # 7 + 4 equals 6 + 5


def test_oracle_rejects_foreign_letters():
    with pytest.raises(ValueError):
        oracle_eval(EQ, "xyz")


def test_dfa_oracle_wraps_a_machine():
    d = dfa_automaton(
        states=("even", "odd"),
        alphabet=("a", "b"),
        moves={
            ("even", "a"): "odd",
            ("odd", "a"): "even",
            ("even", "b"): "even",
            ("odd", "b"): "odd",
        },
        initial="even",
        accepting=("even",),
    )
    oracle = dfa_oracle(d)
    assert oracle_eval(oracle, "aa") and not oracle_eval(oracle, "a")


def test_dfa_oracle_rejects_an_invalid_dfa():
    # A "dfa" whose 'a' column splits 1/2 1/2 decides no language; its
    # verdicts would be made-up counterexamples.
    identity = Mat([[1, 0], [0, 1]])
    half = Mat([["1/2", 0], ["1/2", 1]])
    bad = ClassicalAutomaton.build("dfa", ("p", "q"), ("a", "b"), {"a": half, "b": identity}, 0, {0})
    assert bad.violations()
    with pytest.raises(ValueError, match="violation"):
        dfa_oracle(bad)


def test_dfa_oracle_rejects_a_quantum_machine():
    with pytest.raises(ValueError, match="oracle machines must be deterministic"):
        dfa_oracle(random_qfa(np.random.default_rng(0)))


def test_enumerate_strings_is_length_lexicographic():
    words = list(enumerate_strings("ab", 2))
    assert words == ["", "a", "b", "aa", "ab", "ba", "bb"]
    assert sum(1 for _ in enumerate_strings("abc", 9)) == 29524


def test_enumerate_strings_over_no_letters_stops_after_the_empty_string():
    # No letters make no string longer than 0, so no length past 0 is tried.
    assert list(enumerate_strings((), 10**9)) == [""]


def test_enumerate_strings_refuses_a_negative_length():
    with pytest.raises(ValueError, match="maxlen must be nonnegative"):
        list(enumerate_strings("ab", -1))


@pytest.mark.parametrize(
    "oracle, maxlen",
    [
        (EQ, 10),
        (BUILTIN_ORACLES["abseq"](), 10),
        (BUILTIN_ORACLES["lapins"](), 10),
        (dfa_oracle(ENDS_IN_A), 10),
    ],
    ids=["eq", "abseq", "lapins", "dfa-ends-in-a"],
)
def test_folding_the_stepper_gives_the_membership(oracle, maxlen):
    # Each string's state is its prefix's state stepped by its last
    # symbol: a fold of the stepper from its start state.
    stepper = oracle.stepper
    states = {"": stepper.start}
    for w in enumerate_strings(oracle.alphabet, maxlen):
        if w:
            states[w] = stepper.step(states[w[:-1]], w[-1])
        assert stepper.member(states[w]) == bool(oracle.membership(w)), w
    assert len(states) == sum(len(oracle.alphabet) ** n for n in range(maxlen + 1))


# ------------------------------------------------------------------ sweeps


def test_cutpoint_sweep_clean_pass():
    report = sweep(m1_eq(), Fraction(5, 6), "cutpoint", EQ, 6)
    assert report.ok
    assert report.counterexamples == ()
    assert report.indeterminate == ()
    assert report.min_member_value == 1
    assert report.max_nonmember_value == Fraction(2, 3)
    assert report.gap == Fraction(1, 3)
    assert len(report.records) == 127


def test_cutpoint_sweep_finds_counterexamples():
    report = sweep(m1_eq(), Fraction(1, 2), "cutpoint", EQ, 4)
    assert not report.ok
    assert report.counterexamples[0] == "a"
    assert all(r.verdict == "disagree" for r in report.records if r.string in report.counterexamples)


def test_sweep_report_takes_its_aggregates_as_arguments():
    # Callers build and corrupt reports through the constructor, so the
    # aggregates stay ordinary fields with defaults.
    report = sweep(m1_eq(), Fraction(5, 6), "cutpoint", EQ, 2)
    corrupt = replace(report, counterexamples=("ab",))
    assert corrupt.counterexamples == ("ab",) and not corrupt.ok
    assert corrupt.records == report.records
    bare = SweepReport("cutpoint", Fraction(1, 2), 0, 0.0, ())
    assert (bare.counterexamples, bare.indeterminate) == ((), ())
    assert bare.min_member_value is None and bare.gap is None


MEMO_CASES = [
    (m1_eq(), EQ, 10),
    (afa_to_nqfa(abs_eq()), BUILTIN_ORACLES["abseq"](), 8),
    (random_afa(random.Random(2024)), LanguageOracle("odd-a", ("a", "b"), lambda w: w.count("a") % 2 == 1), 8),
]


@pytest.mark.parametrize("machine, oracle, maxlen", MEMO_CASES, ids=["m1_eq", "nqfa_abs_eq", "random_afa"])
@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("cutpoint", [Fraction(0), Fraction(1, 2), Fraction(5, 6)], ids=str)
def test_sweep_verdicts_match_a_per_string_recomputation(machine, oracle, maxlen, mode, cutpoint):
    # A sweep decides each distinct (value, member) once; deciding every
    # string on its own must give the same records and extremes.
    report = sweep(machine, cutpoint, mode, oracle, maxlen)
    records = report.records
    assert [r.string for r in records] == list(enumerate_strings(machine.alphabet, maxlen))
    for r in records:
        assert r.member == oracle_eval(oracle, r.string)
        sign = _sign(r.value, report.cutpoint, report.kappa)
        if sign is None:
            assert r.verdict == "indeterminate"
        else:
            assert r.verdict == ("agree" if _CLAIMS[mode][sign + 1] == r.member else "disagree")
    assert report.counterexamples == tuple(r.string for r in records if r.verdict == "disagree")
    assert report.indeterminate == tuple(r.string for r in records if r.verdict == "indeterminate")
    assert report.min_member_value == min((r.value for r in records if r.member), default=None)
    assert report.max_nonmember_value == max((r.value for r in records if not r.member), default=None)


def test_sweep_records_membership_as_a_bool():
    counting = LanguageOracle("count-a", ("a", "b"), lambda w: w.count("a"))
    report = sweep(m1_eq(), Fraction(5, 6), "cutpoint", counting, 4)
    assert all(type(r.member) is bool for r in report.records)
    assert [r.member for r in report.records] == [bool(w.count("a")) for w in enumerate_strings("ab", 4)]


def test_records_follow_enumeration_order():
    report = sweep(m1_eq(), Fraction(5, 6), "cutpoint", EQ, 3)
    assert [r.string for r in report.records] == list(enumerate_strings("ab", 3))


def test_equality_sweep_on_the_half_line():
    abseq = BUILTIN_ORACLES["abseq"]()
    report = sweep(abs_eq(), Fraction(1, 2), "equality", abseq, 6)
    assert report.ok


def test_exclusive_sweep():
    report = sweep(m1_eq(), Fraction(1), "exclusive", not_eq_oracle(), 6)
    assert report.ok


def test_nondet_sweep_ignores_the_cutpoint():
    swapped = ClassicalAutomaton.build(
        kind="afa",
        states=m1_eq().states,
        alphabet=m1_eq().alphabet,
        transitions=dict(m1_eq().transitions),
        initial=0,
        accepting=(1,),
    )
    report = sweep(swapped, Fraction(7, 9), "nondet", not_eq_oracle(), 6)
    assert report.cutpoint == 0
    assert report.ok


def test_sweep_validates_mode_and_alphabet():
    with pytest.raises(ValueError):
        sweep(m1_eq(), Fraction(1, 2), "majority", EQ, 3)
    assert "majority" not in MODES
    foreign = LanguageOracle("other", ("x", "y"), lambda w: True)
    with pytest.raises(ValueError):
        sweep(m1_eq(), Fraction(1, 2), "cutpoint", foreign, 3)


def test_sweep_refuses_corpora_above_the_cap_before_evaluating():
    def untouchable(w):
        raise AssertionError("no string may be evaluated")

    unary = ClassicalAutomaton.build("dfa", ("p",), ("a",), {"a": Mat.identity(1)}, 0, (0,))
    oracle = LanguageOracle("any", ("a",), untouchable)
    # maxlen + 1 unary strings: SWEEP_CAP + 1 is one too many.
    with pytest.raises(ValueError, match="more than 1000000 strings"):
        sweep(unary, Fraction(1, 2), "cutpoint", oracle, SWEEP_CAP)
    with pytest.raises(ValueError, match="more than 1000000 strings"):
        sweep(m1_eq(), Fraction(5, 6), "cutpoint", LanguageOracle("any", ("a", "b"), untouchable), 10**9)
    assert SWEEP_CAP == 10**6


def _untouchable(oracle: LanguageOracle) -> LanguageOracle:
    # The same language, but asking a membership or stepping a state fails.
    def refuse(*args):
        raise AssertionError("no string may be evaluated")

    stepper = oracle.stepper and oracle.stepper._replace(step=refuse, member=refuse)
    return replace(oracle, membership=refuse, stepper=stepper)


@pytest.mark.parametrize(
    "machine, oracle",
    [(m1_eq(), EQ), (m1_eq(), replace(EQ, stepper=None)), (afa_to_nqfa(m1_eq()), EQ)],
    ids=["class", "string", "quantum"],
)
def test_a_negative_maxlen_is_refused_before_any_evaluation(machine, oracle):
    oracle = _untouchable(oracle)
    with pytest.raises(ValueError, match="maxlen must be nonnegative"):
        sweep(machine, Fraction(1, 2), "cutpoint", oracle, -1)
    with pytest.raises(ValueError, match="maxlen must be nonnegative"):
        isolation_gap(machine, Fraction(1, 2), oracle, -1)


def test_sweep_cap_leaves_smaller_corpora_alone():
    unary = ClassicalAutomaton.build("dfa", ("p",), ("a",), {"a": Mat.identity(1)}, 0, (0,))
    report = sweep(unary, Fraction(1, 2), "cutpoint", LanguageOracle("all", ("a",), lambda w: True), 5)
    assert len(report.records) == 6 and report.ok
    empty = ClassicalAutomaton.build("dfa", ("p",), (), {}, 0, (0,))
    report = sweep(empty, Fraction(1, 2), "cutpoint", LanguageOracle("all", (), lambda w: True), 10**9)
    assert [r.string for r in report.records] == [""]
    # A class sweep over no symbols stops after the empty string too.
    report = sweep(empty, Fraction(1, 2), "cutpoint", dfa_oracle(empty), 10**9)
    assert [r.string for r in report.records] == [""]


def test_sweep_accepts_quantum_machines():
    m = m1_eq()
    q = afa_to_nqfa(m)
    report = sweep(q, 0, "nondet", not_eq_oracle(), 4)
    # the machine value is positive everywhere, members and non-members alike
    assert not report.ok
    assert report.indeterminate == ()
    assert "" in report.counterexamples


def test_a_string_record_is_an_immutable_named_row():
    record = StringRecord("ab", Fraction(1, 2), True, "agree")
    names = ["string", "value", "member", "verdict"]
    assert list(inspect.signature(StringRecord).parameters) == names
    assert (record.string, record.value, record.member, record.verdict) == ("ab", Fraction(1, 2), True, "agree")
    for name in names:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    assert repr(record) == "StringRecord(string='ab', value=Fraction(1, 2), member=True, verdict='agree')"
    a = sweep(m1_eq(), Fraction(5, 6), "cutpoint", EQ, 1).records[1]
    assert repr(a) == "StringRecord(string='a', value=Fraction(2, 3), member=False, verdict='agree')"
    empty = sweep(afa_to_nqfa(abs_eq()), 0, "nondet", BUILTIN_ORACLES["abseq"](), 0).records[0]
    assert repr(empty) == "StringRecord(string='', value=0.002529944807591095, member=True, verdict='agree')"


@pytest.mark.parametrize(
    "machine, cutpoint, mode, oracle, maxlen",
    [
        (afa_to_nqfa(lapins()), 0, "nondet", BUILTIN_ORACLES["lapins"](), 5),
        (m1_eq(), Fraction(1, 2), "cutpoint", EQ, 8),
        (m1_eq(), Fraction(1, 2), "cutpoint", replace(EQ, stepper=None), 8),
    ],
    ids=["afa_to_nqfa(lapins)-nondet", "m1_eq-class", "m1_eq-string"],
)
def test_a_sweep_lists_the_strings_its_records_fail(
    tmp_path, capsys, monkeypatch, machine, cutpoint, mode, oracle, maxlen
):
    expected = render_report(sweep(machine, cutpoint, mode, oracle, maxlen))
    # Blocks of 7 strings, so that failing strings fall in some blocks and not in others.
    monkeypatch.setattr(automata, "BLOCK_STRINGS", 7)
    report = sweep(machine, cutpoint, mode, oracle, maxlen)
    assert render_report(report) == expected
    # `afa sweep` writes the same bytes under the same small blocks.
    monkeypatch.setitem(BUILTIN_ORACLES, oracle.name, lambda: oracle)
    path = tmp_path / "m.afa"
    save_automaton(machine, path)
    argv = ["sweep", str(path), "--cutpoint", str(cutpoint), "--mode", mode, "--oracle", oracle.name]
    assert main([*argv, "--maxlen", str(maxlen)]) == 1
    assert capsys.readouterr().out == expected
    assert [r.string for r in report.records] == list(enumerate_strings(machine.alphabet, maxlen))
    assert report.counterexamples == tuple(r.string for r in report.records if r.verdict == "disagree")
    assert report.indeterminate == tuple(r.string for r in report.records if r.verdict == "indeterminate")
    assert report.counterexamples and (report.indeterminate or mode != "nondet")
    assert {r.verdict for r in report.records} >= {"agree", "disagree"}


@pytest.mark.parametrize("lane", ["class", "string", "quantum"])
def test_a_sweep_decides_each_distinct_pair_once_in_blocks_of_one_size(monkeypatch, lane):
    machine, cutpoint, mode, oracle, maxlen = m1_eq(), Fraction(5, 6), "cutpoint", EQ, 8
    if lane == "string":
        oracle = replace(EQ, stepper=None)
    elif lane == "quantum":
        machine, cutpoint, mode, oracle, maxlen = afa_to_nqfa(abs_eq()), 0, "nondet", BUILTIN_ORACLES["abseq"](), 7
    monkeypatch.setattr(automata, "BLOCK_STRINGS", 7)
    decided, lists, blocks = [], [], []
    sign = recognition._sign
    monkeypatch.setattr(recognition, "_sign", lambda value, *rest: decided.append(value) or sign(value, *rest))
    driver = recognition._sweep

    def spy_sweep(*args):
        *request, take = args

        def spy_take(words, ids, entries):
            lists.append(len(words))
            take(words, ids, entries)

        return driver(*request, spy_take)

    monkeypatch.setattr(recognition, "_sweep", spy_sweep)
    for module in (automata, quantum):

        def spy_blocks(*args, value_blocks=module._value_blocks):
            for words, values in value_blocks(*args):
                blocks.append(len(words))
                yield words, values

        monkeypatch.setattr(module, "_value_blocks", spy_blocks)
    report = sweep(machine, cutpoint, mode, oracle, maxlen)
    pairs = {(r.value, r.member) for r in report.records}
    assert len(decided) == len(pairs) < len(report.records)
    assert sorted(decided) == sorted(value for value, _ in pairs)
    assert max(lists) == 7 and sum(lists) == len(report.records)
    if lane == "class":
        assert not blocks
    else:
        assert max(blocks) == 7 and sum(blocks) == len(report.records)


# The strings over a, b whose letter counts differ by one: m2_eq(1) values them exactly 1/3.
DIFF_ONE = LanguageOracle("diff-one", "ab", lambda w: abs(w.count("a") - w.count("b")) == 1)

# Each takes one exact cutpoint (or shift target) and returns what it makes of it.
CUTPOINT_TAKERS = {
    "sweep": lambda c: sweep(m2_eq(1), c, "equality", DIFF_ONE, 6),
    "sweep-nondet": lambda c: sweep(m1_eq(), c, "nondet", EQ, 3),
    "sweep-quantum": lambda c: sweep(afa_to_nqfa(m1_eq()), c, "cutpoint", EQ, 3),
    "isolation_gap": lambda c: isolation_gap(m1_eq(), c, EQ, 4),
    "equivalence-first": lambda c: equivalence_check(m1_eq(), c, m2_eq(), Fraction(1, 2), 4),
    # A quantum machine's cutpoint may be a float; the classical side's may not.
    "equivalence-second": lambda c: equivalence_check(afa_to_nqfa(m1_eq()), 0.0, m1_eq(), c, 4),
    "shift_interior-from": lambda c: dumps_automaton(shift_interior(m1_eq(), c, Fraction(1, 2))),
    "shift_interior-to": lambda c: dumps_automaton(shift_interior(m1_eq(), Fraction(5, 6), c)),
    "shift_extreme-zero": lambda c: dumps_automaton(shift_extreme(m1_eq(), "zero", c)),
    "shift_extreme-one": lambda c: dumps_automaton(shift_extreme(m1_eq(), "one", c)),
}


@pytest.mark.parametrize("taker", CUTPOINT_TAKERS)
@pytest.mark.parametrize("cutpoint", [1 / 3, 0.5, 0.0], ids=repr)
def test_a_float_cutpoint_is_refused(taker, cutpoint):
    with pytest.raises(TypeError, match="float"):
        CUTPOINT_TAKERS[taker](cutpoint)


@pytest.mark.parametrize("taker", CUTPOINT_TAKERS)
@pytest.mark.parametrize("cutpoint", [Fraction(1, 3), "1/3", 1], ids=repr)
def test_an_exact_cutpoint_is_taken_as_its_fraction(taker, cutpoint):
    def outcome(c):
        try:
            return CUTPOINT_TAKERS[taker](c)
        except ValueError as exc:  # an int cutpoint is no shift target
            return repr(exc)

    assert outcome(cutpoint) == outcome(Fraction(cutpoint))


def test_an_exact_third_is_the_value_of_every_string_one_letter_off_balance():
    report = sweep(m2_eq(1), Fraction(1, 3), "equality", DIFF_ONE, 6)
    assert report.cutpoint == Fraction(1, 3) and report.ok


def test_wide_kappa_turns_everything_indeterminate():
    q = afa_to_nqfa(m1_eq())
    report = sweep(q, 0, "nondet", not_eq_oracle(), 2, kappa=1e6)
    assert not report.ok
    assert len(report.indeterminate) == len(report.records)


# --------------------------------------------------------------- isolation


def test_isolation_gap_of_the_doubling_machine():
    report = isolation_gap(m1_eq(), Fraction(5, 6), EQ, 6)
    assert report.min_member_value == 1
    assert report.max_nonmember_value == Fraction(2, 3)
    assert report.gap == Fraction(1, 3)


def test_isolation_gap_vanishes_on_a_touching_cutpoint():
    report = isolation_gap(m1_eq(), Fraction(2, 3), EQ, 6)
    assert report.gap is None


def test_isolation_gap_off_center_cutpoint():
    report = isolation_gap(m1_eq(), Fraction(3, 4), EQ, 6)
    assert report.gap == 2 * (Fraction(3, 4) - Fraction(2, 3))


def _string_path(oracle: LanguageOracle) -> LanguageOracle:
    # Without a stepper, a sweep asks the oracle one string at a time.
    return replace(oracle, stepper=None)


def _report_lines(report: SweepReport) -> list[str]:
    # Lines, not one string: a failure names the first differing row
    # instead of diffing two long texts.
    return render_report(report).splitlines()


CLASS_CASES = [
    (m1_eq(), "eq", 10),
    (m2_eq(3), "eq", 10),
    (abs_eq(), "abseq", 9),
    (lapins(), "lapins", 5),
    (compile_blind_counters(loads_counter_spec(BALANCE_SPEC)), "eq", 10),
]


@pytest.mark.parametrize("machine, oracle, maxlen", CLASS_CASES, ids=["m1_eq", "m2_eq(3)", "abs_eq", "lapins", "balance"])
@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("cutpoint", [Fraction(0), Fraction(1, 2), Fraction(5, 6)], ids=str)
def test_class_sweeps_report_what_string_sweeps_report(machine, oracle, maxlen, mode, cutpoint):
    oracle = BUILTIN_ORACLES[oracle]()
    by_class = _report_lines(sweep(machine, cutpoint, mode, oracle, maxlen))
    assert by_class == _report_lines(sweep(machine, cutpoint, mode, _string_path(oracle), maxlen))


def test_a_class_sweep_never_asks_the_membership():
    def refuse(w):
        raise AssertionError(f"membership asked for {w!r}")

    oracle = replace(EQ, membership=refuse)
    report = sweep(m1_eq(), Fraction(5, 6), "cutpoint", oracle, 10)
    assert report.ok and len(report.records) == 2047
    assert (report.min_member_value, report.max_nonmember_value) == (1, Fraction(2, 3))
    assert _report_lines(report) == _report_lines(sweep(m1_eq(), Fraction(5, 6), "cutpoint", _string_path(EQ), 10))


def test_a_class_sweep_steps_the_oracle_by_symbol_not_by_position():
    # The oracle lists b before a, the machine a before b.
    oracle = dfa_oracle(ENDS_IN_A)
    assert oracle.alphabet != m1_eq().alphabet
    report = sweep(m1_eq(), Fraction(5, 6), "cutpoint", oracle, 10)
    assert [r.member for r in report.records] == [w.endswith("a") for w in enumerate_strings("ab", 10)]
    assert _report_lines(report) == _report_lines(sweep(m1_eq(), Fraction(5, 6), "cutpoint", _string_path(oracle), 10))


@pytest.mark.parametrize(
    "machine, oracle, maxlen",
    [
        (m1_eq(), EQ, 8),
        (m2_eq(3), EQ, 8),
        (abs_eq(), BUILTIN_ORACLES["abseq"](), 8),
        (lapins(), BUILTIN_ORACLES["lapins"](), 5),
        (afa_to_nqfa(abs_eq()), BUILTIN_ORACLES["abseq"](), 6),
        # Classical machines swept string by string: oracles without a stepper.
        (m1_eq(), _string_path(EQ), 8),
        (m2_eq(3), _string_path(EQ), 8),
        (abs_eq(), _string_path(BUILTIN_ORACLES["abseq"]()), 8),
        (lapins(), _string_path(BUILTIN_ORACLES["lapins"]()), 5),
    ],
    ids=[
        "m1_eq",
        "m2_eq(3)",
        "abs_eq",
        "lapins",
        "afa_to_nqfa(abs_eq)",
        "m1_eq-string",
        "m2_eq(3)-string",
        "abs_eq-string",
        "lapins-string",
    ],
)
def test_isolation_gap_reads_the_extremes_of_the_sweep(machine, oracle, maxlen):
    report = sweep(machine, 0, "isolation", oracle, maxlen)
    low, high = report.min_member_value, report.max_nonmember_value
    # Midway between the extremes, twice the radius is the sweep's gap.
    cutpoint = (Fraction(low) + Fraction(high)) / 2
    iso = isolation_gap(machine, cutpoint, oracle, maxlen)
    assert (iso.min_member_value, iso.max_nonmember_value) == (low, high)
    assert iso.gap == (report.gap if report.gap > 0 else None)


def test_isolation_gap_checks_its_request_as_a_sweep_does():
    with pytest.raises(ValueError, match="alphabet mismatch"):
        isolation_gap(m1_eq(), Fraction(5, 6), BUILTIN_ORACLES["lapins"](), 2)
    with pytest.raises(ValueError, match="more than"):
        isolation_gap(m1_eq(), Fraction(5, 6), EQ, 10**9)


# ------------------------------------------------------------- equivalence


def test_equivalent_machines_at_matched_cutpoints():
    report = equivalence_check(m1_eq(), Fraction(5, 6), m2_eq(), Fraction(1, 2), 6)
    assert report.equivalent
    assert report.violations == ()


def test_inequivalent_cutpoints_are_reported():
    report = equivalence_check(m1_eq(), Fraction(5, 6), m1_eq(), Fraction(1, 2), 5)
    assert not report.equivalent
    first = report.violations[0]
    assert first[0] == "a"
    assert (first[1], first[2]) == (Fraction(2, 3), Fraction(2, 3))


def test_equivalence_across_exact_and_float_machines():
    m = m1_eq()
    q = afa_to_nqfa(m)
    report = equivalence_check(q, 0.0, m, Fraction(0), 4)
    assert report.equivalent


def _exact(machine):
    return machine


@pytest.mark.parametrize(
    "lane1, lane2",
    [(_exact, _exact), (_exact, afa_to_nqfa), (afa_to_nqfa, _exact)],
    ids=["exact", "exact-quantum", "quantum-exact"],
)
def test_equivalence_aligns_reordered_alphabets(lane1, lane2):
    # Machines that list the same symbols in another order are compared
    # string by string, in the first machine's order.
    def machine(lane, alphabet):
        return lane(replace(m1_eq(), alphabet=alphabet))

    violations = 0
    for order1, order2 in ((("a", "b"), ("b", "a")), (("b", "a"), ("a", "b"))):
        for cutpoint1, cutpoint2 in itertools.product((Fraction(1, 2), Fraction(5, 6)), repeat=2):
            m1 = machine(lane1, order1)
            got = equivalence_check(m1, cutpoint1, machine(lane2, order2), cutpoint2, 6)
            want = equivalence_check(m1, cutpoint1, machine(lane2, order1), cutpoint2, 6)
            assert (got.violations, got.indeterminate) == (want.violations, want.indeterminate)
            violations += len(got.violations)
    assert violations


def _reversed(machine):
    return replace(machine, alphabet=machine.alphabet[::-1])


def _reference_violations(m1, cutpoint1, m2, cutpoint2, maxlen):
    """The violations of an equivalence check, one accept_value and one sign per string and machine."""
    out = []
    for w in enumerate_strings(m1.alphabet, maxlen):
        v1, v2 = accept_value(m1, w), accept_value(m2, w)
        if (v1 > cutpoint1) - (v1 < cutpoint1) != (v2 > cutpoint2) - (v2 < cutpoint2):
            out.append((w, v1, v2))
    return tuple(out)


def _middle_value(machine):
    """The median of the machine's values on the strings of length at most 3."""
    values = sorted(accept_value(machine, w) for w in enumerate_strings(machine.alphabet, 3))
    return values[len(values) // 2]


def _seeded_pairs():
    rng = random.Random(23)
    cutpoints = [Fraction(k, 6) for k in range(1, 6)]
    for seed in range(4):
        afa = random_afa(random.Random(seed), 2 + seed % 3)
        lam1, lam2 = rng.sample(cutpoints, 2)
        yield f"shift-interior-{seed}", afa, lam1, shift_interior(afa, lam1, lam2), lam2, 6
        # Cutpoints among each machine's values, so that a pair's signs split.
        pfa, other = random_pfa(random.Random(10 + seed), 2 + seed % 2), random_pfa(random.Random(20 + seed), 3)
        yield f"pfa-pfa-{seed}", pfa, _middle_value(pfa), other, _middle_value(other), 6
        nafa = exclusive_pfa_to_nafa(pfa)
        yield f"exclusive-{seed}", pfa, Fraction(1, 2), nafa, _middle_value(nafa), 6
    yield "m1_eq", m1_eq(), Fraction(5, 6), m1_eq(), Fraction(1, 2), 7


PAIRS = {name: pair for name, *pair in _seeded_pairs()}


@pytest.mark.parametrize("order", ["same", "reversed"])
@pytest.mark.parametrize("name", sorted(PAIRS))
def test_pair_classes_match_a_per_string_reference(monkeypatch, name, order):
    m1, cutpoint1, m2, cutpoint2, maxlen = PAIRS[name]
    if order == "reversed":
        m2 = _reversed(m2)
    want = _reference_violations(m1, cutpoint1, m2, cutpoint2, maxlen)
    # Two classical machines never take the string lane.
    monkeypatch.setattr(automata, "_value_blocks", None)
    report = equivalence_check(m1, cutpoint1, m2, cutpoint2, maxlen)
    assert report.violations == want
    assert all(type(v1) is type(v2) is Fraction for _, v1, v2 in report.violations)
    assert report.indeterminate == ()
    assert report.equivalent == (not want)
    if name.startswith("shift-interior"):
        assert not want
    elif name == "m1_eq":
        # Violations at several lengths, in length-lexicographic order of m1's alphabet.
        assert len({len(w) for w, _, _ in want}) > 2


@pytest.mark.parametrize("lane", [_exact, afa_to_nqfa], ids=["exact", "quantum"])
def test_equivalence_keeps_the_compiled_kernel_of_a_machine_in_the_same_order(lane):
    m2 = lane(m1_eq())
    report = equivalence_check(m1_eq(), Fraction(1, 2), m2, Fraction(1, 2), 4)
    assert report.maxlen == 4
    # Same symbol order, so no copy: the kernel compiled for the call stays on m2.
    assert ("_block" if m2.kind == "qfa" else "_value") in vars(m2)


def test_equivalence_steps_a_classical_machine_in_another_order_without_a_copy():
    m2 = _reversed(m1_eq())
    report = equivalence_check(m1_eq(), Fraction(5, 6), m2, Fraction(1, 2), 4)
    assert report.violations[0][0] == "a"
    # m2 itself was stepped in m1's symbol order, so its kernel was compiled on it.
    assert "_value" in vars(m2)


def test_equivalence_flags_float_values_within_kappa_of_their_cutpoint():
    # Each 'a' turns by pi/4, so an odd count of 'a' has the value 1/2 up to float error.
    c = math.sqrt(0.5)
    channels = {"a": Superoperator((np.array([[c, -c], [c, c]]),)), "b": Superoperator.identity(2)}
    q = QuantumAutomaton.build(("zero", "one"), ("a", "b"), channels, 0, (1,))
    report = equivalence_check(q, Fraction(1, 2), m1_eq(), Fraction(5, 6), 3)
    assert report.indeterminate == tuple(w for w in enumerate_strings("ab", 3) if w.count("a") % 2)
    assert not report.equivalent


def test_equivalence_requires_matching_alphabet_sets():
    rng = np.random.default_rng(1)
    q = random_qfa(rng, n=2, alphabet=("x", "y"))
    with pytest.raises(ValueError):
        equivalence_check(m1_eq(), Fraction(1, 2), q, 0.5, 3)


@pytest.mark.parametrize(
    "lane1, lane2",
    [(_exact, _exact), (afa_to_nqfa, _exact), (_exact, afa_to_nqfa)],
    ids=["exact", "quantum-exact", "exact-quantum"],
)
def test_equivalence_refuses_oversized_and_negative_corpora_before_any_evaluation(monkeypatch, lane1, lane2):
    m1, m2 = lane1(m1_eq()), lane2(m1_eq())

    def refuse(*args):
        raise AssertionError("no string may be evaluated")

    # Either lane, and any exact step, fails the test as soon as it is asked for a value.
    monkeypatch.setattr(automata, "_value_blocks", refuse)
    monkeypatch.setattr(quantum, "_value_blocks", refuse)
    # Two classical machines are stepped by pair class, which calls neither lane.
    monkeypatch.setattr(Mat, "step", refuse)
    with pytest.raises(ValueError, match="more than 1000000 strings"):
        equivalence_check(m1, Fraction(1, 2), m2, Fraction(1, 2), 10**9)
    # 2**20 - 1 strings to length 19: the shortest length past the cap.
    with pytest.raises(ValueError, match="more than 1000000 strings"):
        equivalence_check(m1, Fraction(1, 2), m2, Fraction(1, 2), 19)
    with pytest.raises(ValueError, match="maxlen must be nonnegative"):
        equivalence_check(m1, Fraction(1, 2), m2, Fraction(1, 2), -1)


def test_equivalence_cap_leaves_smaller_corpora_alone():
    # 524,287 strings to length 18 are within the cap.
    report = equivalence_check(m1_eq(), Fraction(1, 2), m1_eq(), Fraction(1, 2), 18)
    assert report.equivalent and report.maxlen == 18
    # Over no symbols, any length is the empty string alone.
    empty = ClassicalAutomaton.build("dfa", ("p",), (), {}, 0, (0,))
    assert equivalence_check(empty, Fraction(1, 2), empty, Fraction(1, 2), 10**9).equivalent
