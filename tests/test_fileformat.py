"""Tests for the plain-text machine and counter-spec formats."""

from fractions import Fraction

import pytest

from afalib.automata import ClassicalAutomaton, accept_value, prefix_values
from afalib.constructions import (
    abs_eq,
    afa_to_nqfa,
    compile_blind_counters,
    lapins,
    m1_eq,
    m2_eq,
    shift_interior,
)
from afalib.exactnum import Mat
from afalib.fileformat import (
    FormatError,
    dumps_automaton,
    load_automaton,
    loads_automaton,
    loads_counter_spec,
    save_automaton,
)
from afalib.quantum import qfa_accept

MINIMAL = """\
kind afa
states p q
alphabet a
initial p
accepting q

symbol a
2 0
-1 1
"""


# --------------------------------------------------------------- round trip


@pytest.mark.parametrize(
    "machine",
    [m1_eq(), m2_eq(Fraction(3)), abs_eq(), lapins()],
    ids=["m1_eq", "m2_eq", "abs_eq", "lapins"],
)
def test_classical_round_trip_is_exact(machine):
    again = loads_automaton(dumps_automaton(machine))
    assert again == machine


def test_construction_output_round_trips():
    moved = shift_interior(m1_eq(), Fraction(5, 6), Fraction(1, 2))
    assert loads_automaton(dumps_automaton(moved)) == moved


def test_quantum_round_trip_preserves_values():
    q = afa_to_nqfa(m1_eq())
    again = loads_automaton(dumps_automaton(q))
    assert again.states == q.states
    for w in ("", "a", "ab", "bba"):
        assert qfa_accept(again, w) == qfa_accept(q, w)


def test_save_and_load_files(tmp_path):
    path = tmp_path / "machine.afa"
    save_automaton(m1_eq(), path)
    assert load_automaton(path) == m1_eq()


def test_entries_past_the_int_digit_cap_round_trip():
    # Python refuses int/str conversions past a few thousand digits.
    huge = 10**4999
    big = ClassicalAutomaton.build(
        "afa", ("p", "q"), ("a",), {"a": Mat([[huge + 1, 0], [-huge, 1]])}, 0, (0,)
    )
    text = dumps_automaton(big)
    assert "1" + "0" * 4998 + "1" in text
    assert loads_automaton(text) == big


def test_identity_markers_are_omitted_when_dumping():
    text = dumps_automaton(m1_eq())
    assert "symbol cent" not in text
    assert "symbol dollar" not in text
    # and they come back as identities
    again = loads_automaton(text)
    assert accept_value(again, "ab") == 1


# ------------------------------------------------------------------ parsing


def test_minimal_machine_parses():
    m = loads_automaton(MINIMAL)
    assert m.kind == "afa"
    assert m.states == ("p", "q")
    assert m.initial == 0
    assert m.accepting == frozenset({1})
    assert m.transitions["a"][0, 0] == 2


def test_comments_and_blank_lines_are_ignored():
    noisy = "\n".join(
        [
            "# machine with noise",
            "kind afa  # trailing note",
            "states p q",
            "alphabet a",
            "initial p",
            "accepting q",
            "",
            "# body",
            "symbol a",
            "2 0",
            "-1 1",
            "",
        ]
    )
    assert loads_automaton(noisy) == loads_automaton(MINIMAL)


def test_accepting_line_is_optional():
    text = MINIMAL.replace("accepting q\n", "")
    m = loads_automaton(text)
    assert m.accepting == frozenset()


@pytest.mark.parametrize(
    "mangle",
    [
        lambda t: t.replace("kind afa", "kind mfa"),
        lambda t: t.replace("initial p\n", ""),
        lambda t: t.replace("accepting q", "accepting z"),
        lambda t: t.replace("2 0", "2 0 0"),
        lambda t: t.replace("-1 1", "-1"),
        lambda t: t.replace("2 0", "2/0 0"),
        lambda t: t.replace("2 0", "0.5 0"),
        lambda t: t + "\nsymbol a\n1 0\n0 1\n",
        lambda t: t.replace("symbol a", "symbol b"),
        lambda t: t.replace("states p q", "states p p"),
        lambda t: t + "accepting p\n",
        lambda t: t.replace("kind afa\n", "kind afa\nkind afa\n"),
        lambda t: t.replace("kind afa", "kind afa pfa"),
        lambda t: t.replace("alphabet a", "alphabet ab").replace("symbol a", "symbol ab"),
        lambda t: t.replace("alphabet a", "alphabet a a"),
    ],
    ids=[
        "bad-kind",
        "missing-initial",
        "unknown-accepting-state",
        "row-too-wide",
        "row-too-narrow",
        "zero-denominator",
        "float-in-classical-matrix",
        "duplicate-symbol-section",
        "missing-alphabet-symbol",
        "duplicate-state",
        "header-after-body",
        "repeated-kind",
        "two-kinds",
        "multi-character-symbol",
        "duplicate-alphabet-symbol",
    ],
)
def test_malformed_machines_raise_format_errors(mangle):
    with pytest.raises(FormatError, match="^m.afa:"):
        loads_automaton(mangle(MINIMAL), "m.afa")


@pytest.mark.parametrize(
    "text, line",
    [
        (MINIMAL.replace("alphabet a", "alphabet a b") + "\nsymbol b\n2 0\n-1 1/0\n", 13),
        (MINIMAL.replace("kind afa", "kind qfa").replace("2 0\n-1 1\n", "element\n0 1\n1 0\nelement\n0 1\n1 inf\n"), 13),
    ],
    ids=["rational", "float"],
)
def test_a_bad_entry_after_good_ones_names_its_own_line(text, line):
    # Each distinct entry token is read once per file: the good tokens
    # before the bad one are already known when its line is read.
    with pytest.raises(FormatError, match=f"^m.afa:{line}: "):
        loads_automaton(text, "m.afa")


QFA_MINIMAL = MINIMAL.replace("kind afa", "kind qfa").replace("2 0\n-1 1\n", "element\n0 1\n1 0\n")


@pytest.mark.parametrize(
    "mangle",
    [
        lambda t: t.replace("element\n0 1\n1 0\n", ""),
        lambda t: t.replace("1 0\n", ""),
        lambda t: t.replace("element\n", "element\nelement\n"),
        lambda t: t.replace("element\n", ""),
        lambda t: t + "\nsymbol b\nelement\n1 0\n0 1\n",
    ],
    ids=["no-element", "element-too-short", "empty-element", "rows-before-element", "symbol-outside-alphabet"],
)
def test_malformed_quantum_machines_raise_format_errors(mangle):
    assert loads_automaton(QFA_MINIMAL).size == 2
    with pytest.raises(FormatError, match="^m.afa:"):
        loads_automaton(mangle(QFA_MINIMAL), "m.afa")


def test_qfa_rejects_non_finite_entries():
    q = afa_to_nqfa(m1_eq())
    text = dumps_automaton(q)
    first_line_of_matrix = text.split("element\n")[1].splitlines()[0]
    with pytest.raises(FormatError):
        loads_automaton(text.replace(first_line_of_matrix, "nan 0.0 0.0 0.0", 1))


def test_getting_a_qfa_body_in_a_classical_file_fails():
    text = MINIMAL.replace("symbol a\n2 0\n-1 1\n", "symbol a\nelement\n1 0\n0 1\n")
    with pytest.raises(FormatError):
        loads_automaton(text)


# ------------------------------------------------------------ counter specs


COUNTER = """\
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


def test_counter_spec_round_trips_through_compile():
    spec = loads_counter_spec(COUNTER)
    assert spec.counters == 1
    assert spec.scale == 2
    machine = compile_blind_counters(spec)
    assert machine.size == 3
    for w, value in prefix_values(machine, 4):
        diff = abs(w.count("a") - w.count("b"))
        assert value == (1 if diff == 0 else Fraction(1, 4 * diff + 1))


def test_counter_spec_scale_defaults_to_one():
    spec = loads_counter_spec(COUNTER.replace("scale 2\n", ""))
    assert spec.scale == 1


@pytest.mark.parametrize(
    "mangle",
    [
        lambda t: t.replace("kind counters", "kind afa"),
        lambda t: t.replace("transition only a only\n", ""),
        lambda t: t.replace("increment only a 1\n", ""),
        lambda t: t.replace("increment only a 1", "increment only a 1 2"),
        lambda t: t.replace("transition only a only", "transition only a ghost"),
        lambda t: t.replace("scale 2", "scale 1/2"),
        lambda t: t.replace("counters 1", "counters 0"),
        lambda t: t.replace("initial only", "initial ghost"),
        lambda t: t.replace("accepting only", "accepting ghost"),
        lambda t: t.replace("states only", "states only only"),
    ],
    ids=[
        "wrong-kind",
        "missing-transition",
        "missing-increment",
        "increment-arity",
        "unknown-target-state",
        "scale-below-one",
        "zero-counters",
        "unknown-initial-state",
        "unknown-accepting-state",
        "duplicate-state",
    ],
)
def test_malformed_counter_specs_raise_format_errors(mangle):
    with pytest.raises(FormatError):
        loads_counter_spec(mangle(COUNTER))


# Counter headers follow the machine-file rules: header lines first, each
# key once, single-valued keys with exactly one value.
BAD_COUNTER_HEADERS = [
    (COUNTER.replace("counters 1", "counters 1 7"), "'counters' needs exactly one value"),
    (COUNTER.replace("scale 2", "scale 2 9"), "'scale' needs exactly one value"),
    (COUNTER.replace("scale 2\n", "") + "scale 2\n", ":12: header line 'scale' after the body started"),
    (COUNTER.replace("kind counters\n", "kind counters\nkind counters\n"), ":2: duplicate header line 'kind'"),
]
BAD_COUNTER_IDS = ["counters-two-values", "scale-two-values", "header-after-body", "repeated-kind"]


@pytest.mark.parametrize("text, message", BAD_COUNTER_HEADERS, ids=BAD_COUNTER_IDS)
def test_counter_headers_follow_the_machine_file_rules(text, message):
    with pytest.raises(FormatError, match=message):
        loads_counter_spec(text)
