"""End-to-end tests for the command line interface.

Everything goes through ``main`` so the tests see exactly what a shell
user sees: exit codes, stdout text and stderr diagnostics.
"""

import hashlib
import random
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from afalib import automata, cli, quantum, rand, recognition
from afalib.automata import dfa_automaton
from afalib.cli import main, render_report
from afalib.constructions import abs_eq, afa_to_nqfa, lapins, m1_eq, m2_eq
from afalib.exactnum import parse_rational
from afalib.fileformat import dumps_automaton, load_automaton, loads_counter_spec, save_automaton
from afalib.quantum import QuantumAutomaton, Superoperator
from afalib.recognition import BUILTIN_ORACLES, dfa_oracle, sweep

BAD_COLUMN = """\
kind afa
states p q
alphabet a
initial p
accepting p

symbol a
1 0
1 1
"""

ZERO_MATRIX = """\
kind afa
states p q
alphabet a
initial p
accepting p

symbol a
0 0
0 0
"""

COUNTER = """\
kind counters
states only
alphabet a b
initial only
accepting only
counters 1

transition only a only
transition only b only
increment only a 1
increment only b -1
"""


@pytest.fixture
def m1_path(tmp_path):
    path = tmp_path / "m1.afa"
    path.write_text(dumps_automaton(m1_eq()))
    return str(path)


# ---------------------------------------------------------------- validate


def test_validate_accepts_a_good_machine(m1_path, capsys):
    assert main(["validate", m1_path]) == 0
    assert capsys.readouterr().out.strip() == "ok"


def test_validate_reports_violations(tmp_path, capsys):
    path = tmp_path / "bad.afa"
    path.write_text(BAD_COLUMN)
    assert main(["validate", str(path)]) == 1
    out = capsys.readouterr().out
    assert "column 0" in out
    assert "invalid: 1 violation(s)" in out


def test_validate_parse_failure_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "broken.afa"
    path.write_text("kind afa\nstates p\nalphabet a\ninitial p\nsymbol a\n1/0\n")
    assert main(["validate", str(path)]) == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("alphabet", ["ab", "a a"], ids=["multi-character-symbol", "duplicate-symbol"])
def test_validate_a_bad_alphabet_is_a_usage_error(tmp_path, capsys, alphabet):
    path = tmp_path / "alphabet.afa"
    path.write_text(f"kind afa\nstates p\nalphabet {alphabet}\ninitial p\n\nsymbol {alphabet.split()[0]}\n1\n")
    assert main(["validate", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith(f"error: {path}: ")


def test_sweep_with_a_quantum_oracle_file_is_a_usage_error(tmp_path, m1_path, capsys):
    oracle = tmp_path / "oracle.qfa"
    oracle.write_text(dumps_automaton(afa_to_nqfa(m1_eq())))
    code = main(["sweep", m1_path, "--cutpoint", "5/6", "--oracle", str(oracle), "--maxlen", "2"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {oracle}: oracle machines must be deterministic\n"


QFA_ONE_SYMBOL = "kind qfa\nstates p q\nalphabet a\ninitial p\n\nsymbol a\nelement\n0 1\n1 0\n"


@pytest.mark.parametrize(
    "text, message",
    [
        (QFA_ONE_SYMBOL.replace("kind qfa", "kind qfb"), "unknown machine kind 'qfb'"),
        (
            "kind afa\nstates p q\nalphabet a\ninitial p\n\nsymbol a\n",
            "symbol 'a': matrices need at least one row and one column",
        ),
        (
            QFA_ONE_SYMBOL.replace("element\n", "element\nelement\n"),
            "symbol 'a': operation elements must be square, got shape (0,)",
        ),
    ],
    ids=["mistyped-kind", "empty-symbol-section", "empty-element"],
)
def test_validate_names_the_file_and_the_symbol_at_fault(tmp_path, capsys, text, message):
    path = tmp_path / "m.afa"
    path.write_text(text)
    assert main(["validate", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {path}: {message}\n"


def test_validate_missing_file(tmp_path, capsys):
    assert main(["validate", str(tmp_path / "nowhere.afa")]) == 2


# --------------------------------------------------------------------- run


def test_run_prints_final_state_and_value(m1_path, capsys):
    assert main(["run", m1_path, "--input", "aab"]) == 0
    out = capsys.readouterr().out
    assert "final 2 -1" in out
    assert "value 2/3" in out


def test_run_prints_values_past_the_int_digit_cap(m1_path, capsys):
    # 2**15000 has 4,516 digits, more than Python's int/str conversion allows.
    assert main(["run", m1_path, "--input", "a" * 15000]) == 0
    final, value = capsys.readouterr().out.splitlines()
    assert final.startswith("final ")
    assert value.startswith("value ")
    assert parse_rational(value.split()[1]) == Fraction(2**15000, 2**15001 - 1)


def test_run_empty_input_by_default(m1_path, capsys):
    assert main(["run", m1_path]) == 0
    assert "value 1" in capsys.readouterr().out


def test_run_normalized_flag(m1_path, capsys):
    assert main(["run", m1_path, "--input", "aab", "--normalized"]) == 0
    assert "value 2/3" in capsys.readouterr().out


def test_run_normalized_rejects_non_affine_machines(tmp_path, capsys):
    path = tmp_path / "d.dfa"
    path.write_text(
        "kind dfa\nstates p\nalphabet a\ninitial p\naccepting p\n\nsymbol a\n1\n"
    )
    assert main(["run", str(path), "--input", "a", "--normalized"]) == 2


def test_run_rejects_letters_outside_the_alphabet(m1_path):
    assert main(["run", m1_path, "--input", "xyz"]) == 2


@pytest.mark.parametrize("flags", [[], ["--normalized"]])
def test_run_zero_state_is_a_usage_error(tmp_path, capsys, flags):
    path = tmp_path / "zero.afa"
    path.write_text(ZERO_MATRIX)
    assert main(["run", str(path), "--input", "a", *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("error: ") and "zero vector" in captured.err


def test_run_quantum_machine(tmp_path, m1_path, capsys):
    qpath = tmp_path / "q.qfa"
    assert main(["construct", "afa-to-nqfa", m1_path, "--out", str(qpath)]) == 0
    capsys.readouterr()
    assert main(["run", str(qpath), "--input", "ab"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("final")
    value = float(out.splitlines()[1].split()[1])
    assert 0.0 <= value <= 1.0


@pytest.mark.parametrize(
    "command",
    [["run", "{qfa}", "--input", "a"], ["sweep", "{qfa}", "--cutpoint", "1/2", "--oracle", "eq", "--maxlen", "3"]],
    ids=["run", "sweep"],
)
@pytest.mark.filterwarnings("error")
def test_a_non_finite_quantum_acceptance_is_an_error(tmp_path, capsys, command):
    # Reading 'a' squares 1e200: the density overflows, so 'a' has no value to judge.
    qfa = tmp_path / "overflow.qfa"
    element = np.array([[1e200, 0.0], [-1e200, 1.0]])
    channels = {"a": Superoperator((element,)), "b": Superoperator.identity(2)}
    machine = QuantumAutomaton.build(("p", "q"), ("a", "b"), channels, 0, (1,))
    qfa.write_text(dumps_automaton(machine))
    assert main([part.format(qfa=qfa) for part in command]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("error: acceptance of 'a' is ")


@pytest.mark.filterwarnings("error")
def test_a_non_finite_value_inside_a_block_is_named_in_every_lane(tmp_path, capsys, monkeypatch):
    # Each b scales the density by 1e140: 'bbb' is the first string whose
    # value overflows, and the last of the four strings of its block.
    channels = {"a": Superoperator.identity(1), "b": Superoperator((np.array([[1e70]]),))}
    machine = QuantumAutomaton.build(("p",), ("a", "b"), channels, 0, (0,))
    message = "acceptance of 'bbb' is inf, not a finite number"
    # The sweep's error before the blocks shrink is the one `afa sweep` prints after.
    with pytest.raises(ValueError, match=message) as unpatched:
        sweep(machine, Fraction(1, 2), "cutpoint", BUILTIN_ORACLES["eq"](), 3)
    monkeypatch.setattr(quantum, "BLOCK_FLOATS", 2)
    monkeypatch.setattr(automata, "BLOCK_STRINGS", 7)
    seen = []
    with pytest.raises(ValueError, match=message):
        for w, _ in quantum.qfa_prefix_values(machine, 3):
            seen.append(w)
    # A block is checked whole: 'bbb' comes with 'baa', 'bab' and 'bba'.
    assert seen == list(recognition.enumerate_strings("ab", 3))[:-4]
    with pytest.raises(ValueError, match=message):
        list(quantum.qfa_prefix_values(machine, 3))
    with pytest.raises(ValueError, match=message):
        sweep(machine, Fraction(1, 2), "cutpoint", BUILTIN_ORACLES["eq"](), 3)
    path = tmp_path / "overflow.qfa"
    path.write_text(dumps_automaton(machine))
    out = tmp_path / "report.tsv"
    argv = ["sweep", str(path), "--cutpoint", "1/2", "--oracle", "eq", "--maxlen", "3", "--out", str(out)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err == f"error: {unpatched.value}\n"
    assert not out.exists()


@pytest.mark.filterwarnings("error")
def test_run_reads_the_value_a_sweep_reads_and_refuses_a_non_finite_density(tmp_path, capsys):
    # r reads p and grows by 1e200 a letter; the accepting block {p} reads
    # only p, so 'aa' has the value 1 while the whole density overflows.
    qfa = tmp_path / "outside.qfa"
    element = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 0.0, 1e200]])
    channels = {"a": Superoperator((element,)), "b": Superoperator.identity(3)}
    qfa.write_text(dumps_automaton(QuantumAutomaton.build(("p", "q", "r"), ("a", "b"), channels, 0, (0,))))
    assert main(["run", str(qfa), "--input", "aa"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: the density after 'aa' is not finite: the machine's channels are not valid\n"
    assert main(["sweep", str(qfa), "--cutpoint", "1/2", "--oracle", "eq", "--maxlen", "2"]) == 1
    assert "\naa\t1.000000000\t0\t0\n" in capsys.readouterr().out


# ------------------------------------------------------------------- sweep


def test_sweep_pass_exit_code_and_report(m1_path, capsys):
    code = main(
        ["sweep", m1_path, "--cutpoint", "5/6", "--oracle", "eq", "--maxlen", "5"]
    )
    assert code == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert lines[0] == "string\tvalue\tmember\tagrees"
    assert "counterexamples\t0" in out
    assert "min_member_value\t1" in out
    assert "max_nonmember_value\t2/3" in out


def test_sweep_failure_lists_counterexamples(m1_path, capsys):
    code = main(
        ["sweep", m1_path, "--cutpoint", "1/2", "--oracle", "eq", "--maxlen", "4"]
    )
    assert code == 1
    out = capsys.readouterr().out
    assert "counterexample\ta" in out


def test_sweep_report_is_byte_deterministic(m1_path, tmp_path):
    args = ["sweep", m1_path, "--cutpoint", "5/6", "--oracle", "eq", "--maxlen", "6"]
    first, second = tmp_path / "one.tsv", tmp_path / "two.tsv"
    assert main(args + ["--out", str(first)]) == 0
    assert main(args + ["--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()


GOLDEN_REPORTS = [
    (m1_eq, "5/6", "isolation", "eq", 12, "8a58b060f3608d1b0931b15d1127e8142c8338cf1a16128fe419af168e62bd0b"),
    (lambda: m2_eq(x=3), "1/2", "cutpoint", "eq", 11, "8b37af6ffacf849d1708ee06cdd59689cc91ad64d10cf404e6e1a24fc0c0ea89"),
    (abs_eq, "1/2", "equality", "abseq", 10, "c7cb24ce23392cfe49f49132f032068bdd06e16ae2e84ca8fcc5b16ead37ef53"),
    (lapins, "1/2", "cutpoint", "lapins", 6, "a21559e46a14770409cad464382d8ca87c80e7811fce4f6e57a980a33c8423df"),
    (lambda: m2_eq(x=3), "1/7", "exclusive", "eq", 11, "d657d63890804870e97e0a3fc9ccce381aa5e2d7780ab767e497b580c25cec88"),
    (m1_eq, "0", "nondet", "eq", 10, "d6367fae1f9fa2bb95ec5c1c20f2b182d87c5ec8d913ab78242c8b8242f6d601"),
    (lambda: afa_to_nqfa(abs_eq()), "0", "nondet", "abseq", 10, "434d9bbdfcf933e6c3e57d16c6dc43f73d99a14640d25f7ea71691a6c22b40a6"),
]


@pytest.mark.parametrize(
    "build, cutpoint, mode, oracle, maxlen, digest",
    GOLDEN_REPORTS,
    ids=["m1_eq", "m2_eq", "abs_eq", "lapins", "m2_eq-exclusive", "m1_eq-nondet", "afa_to_nqfa(abs_eq)-nondet"],
)
def test_sweep_reports_match_their_golden_digests(build, cutpoint, mode, oracle, maxlen, digest):
    # Pinned digests: any change to a value, a verdict or the report
    # layout shows here.
    report = sweep(build(), Fraction(cutpoint), mode, BUILTIN_ORACLES[oracle](), maxlen)
    assert hashlib.sha256(render_report(report).encode()).hexdigest() == digest


# Over ("b", "a"), the reverse of m1_eq's order: the strings whose last letter is a.
ENDS_IN_A = dfa_automaton(
    states=("other", "a-last"),
    alphabet=("b", "a"),
    moves={("other", "a"): "a-last", ("a-last", "a"): "a-last", ("other", "b"): "other", ("a-last", "b"): "other"},
    initial="other",
    accepting=("a-last",),
)

# The golden sweeps; exact sweeps with counterexamples at several lengths,
# against a builtin oracle and against a dfa oracle file; and quantum
# sweeps with counterexamples and indeterminate strings. The last field
# asks for small blocks: a quantum level stepped a density at a time,
# string-path blocks of 7 strings and report rows written 5 at a time, so
# that block and write boundaries fall inside lengths and between
# counterexamples.
CLI_SWEEPS = [
    *((*case, False) for case in GOLDEN_REPORTS),
    (m1_eq, "1/2", "cutpoint", "eq", 8, None, False),
    (m1_eq, "5/6", "cutpoint", ENDS_IN_A, 8, None, True),
    (lapins, "2/3", "cutpoint", "lapins", 6, None, False),
    (lambda: afa_to_nqfa(lapins()), "0", "nondet", "lapins", 5, None, False),
    (lambda: afa_to_nqfa(lapins()), "0", "nondet", "lapins", 5, None, True),
]


@pytest.mark.parametrize(
    "build, cutpoint, mode, oracle, maxlen, digest, small_blocks",
    CLI_SWEEPS,
    ids=[
        "m1_eq",
        "m2_eq",
        "abs_eq",
        "lapins",
        "m2_eq-exclusive",
        "m1_eq-nondet",
        "afa_to_nqfa(abs_eq)-nondet",
        "m1_eq-counterexamples",
        "m1_eq-ends-in-a-dfa-small-blocks",
        "lapins-counterexamples",
        "afa_to_nqfa(lapins)-nondet",
        "afa_to_nqfa(lapins)-nondet-small-blocks",
    ],
)
def test_sweep_command_writes_the_library_report(
    tmp_path, capsys, monkeypatch, build, cutpoint, mode, oracle, maxlen, digest, small_blocks
):
    machine = build()
    path = tmp_path / "m.afa"
    path.write_text(dumps_automaton(machine))
    if isinstance(oracle, str):
        spec, language = oracle, BUILTIN_ORACLES[oracle]()
    else:
        spec = str(tmp_path / "oracle.dfa")
        save_automaton(oracle, spec)
        language = dfa_oracle(oracle)
    report = sweep(machine, Fraction(cutpoint), mode, language, maxlen)
    if digest is None:
        assert len({len(w) for w in report.counterexamples}) > 1
        assert report.indeterminate or not isinstance(machine, QuantumAutomaton)
    expected = render_report(report).encode()
    if small_blocks:
        monkeypatch.setattr(quantum, "BLOCK_FLOATS", 64)
        monkeypatch.setattr(automata, "BLOCK_STRINGS", 7)
        assert render_report(sweep(machine, Fraction(cutpoint), mode, language, maxlen)).encode() == expected
    argv = ["sweep", str(path), "--cutpoint", cutpoint, "--mode", mode, "--oracle", spec]
    argv += ["--maxlen", str(maxlen)]
    out = tmp_path / "report.tsv"
    code = 0 if report.ok else 1
    assert main([*argv, "--out", str(out)]) == code
    assert out.read_bytes() == expected
    capsys.readouterr()
    assert main(argv) == code
    assert capsys.readouterr().out.encode() == expected
    if digest is not None:
        assert hashlib.sha256(expected).hexdigest() == digest


@pytest.mark.parametrize("lane", ["class", "string", "quantum"])
def test_sweep_with_a_negative_maxlen_is_a_usage_error(tmp_path, m1_path, capsys, monkeypatch, lane):
    path = m1_path
    if lane == "string":
        # No stepper: the classical machine is swept string by string.
        eq = BUILTIN_ORACLES["eq"]
        monkeypatch.setitem(BUILTIN_ORACLES, "eq", lambda: replace(eq(), stepper=None))
    elif lane == "quantum":
        path = str(tmp_path / "m1q.afa")
        save_automaton(afa_to_nqfa(m1_eq()), path)
    out = tmp_path / "report.tsv"
    argv = ["sweep", path, "--cutpoint", "1/2", "--oracle", "eq", "--maxlen", "-1", "--out", str(out)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: maxlen must be nonnegative\n"
    assert not out.exists()


@pytest.mark.parametrize("lane", ["class", "string", "quantum"])
def test_sweep_renders_each_distinct_row_once(tmp_path, m1_path, capsys, monkeypatch, lane):
    machine, path, cutpoint, mode, spec, maxlen = m1_eq(), m1_path, "5/6", "cutpoint", "eq", 9
    if lane == "string":
        eq = BUILTIN_ORACLES["eq"]
        monkeypatch.setitem(BUILTIN_ORACLES, "eq", lambda: replace(eq(), stepper=None))
    elif lane == "quantum":
        machine, path = afa_to_nqfa(abs_eq()), str(tmp_path / "abs-q.afa")
        save_automaton(machine, path)
        cutpoint, mode, spec, maxlen = "0", "nondet", "abseq", 8
    report = sweep(machine, Fraction(cutpoint), mode, BUILTIN_ORACLES[spec](), maxlen)
    expected = render_report(report)
    # Small blocks and writes, so that the same rows recur across both.
    monkeypatch.setattr(automata, "BLOCK_STRINGS", 7)
    rendered = []
    row_tail = cli._row_tail
    monkeypatch.setattr(cli, "_row_tail", lambda *args: rendered.append(args[:2]) or row_tail(*args))
    argv = ["sweep", path, "--cutpoint", cutpoint, "--mode", mode, "--oracle", spec, "--maxlen", str(maxlen)]
    assert main(argv) == (0 if report.ok else 1)
    assert capsys.readouterr().out == expected
    distinct = {(r.value, r.member) for r in report.records}
    assert len(rendered) == len(set(rendered)) == len(distinct) < len(report.records)
    assert set(rendered) == distinct


def test_sweep_oracle_can_be_a_dfa_file(tmp_path, capsys):
    dfa = tmp_path / "parity.dfa"
    dfa.write_text(
        "kind dfa\n"
        "states even odd\n"
        "alphabet a b\n"
        "initial even\n"
        "accepting even\n\n"
        "symbol a\n0 1\n1 0\n\n"
        "symbol b\n0 1\n1 0\n"
    )
    # the machine judged against itself as ground truth must agree everywhere
    code = main(
        ["sweep", str(dfa), "--cutpoint", "1/2", "--oracle", str(dfa), "--maxlen", "4"]
    )
    assert code == 0


def test_sweep_with_an_invalid_dfa_oracle_is_a_usage_error(tmp_path, m1_path, capsys):
    # Column 0 of 'a' splits 1/2 1/2: no language, so no verdict to report.
    dfa = tmp_path / "bad.dfa"
    dfa.write_text(
        "kind dfa\nstates even odd\nalphabet a b\ninitial even\naccepting even\n\n"
        "symbol a\n1/2 1\n1/2 0\n\nsymbol b\n1 0\n0 1\n"
    )
    assert main(["validate", str(dfa)]) == 1
    capsys.readouterr()
    code = main(["sweep", m1_path, "--cutpoint", "5/6", "--oracle", str(dfa), "--maxlen", "2"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("error: ") and "violation" in captured.err


def test_sweep_unknown_oracle_name(m1_path):
    assert main(
        ["sweep", m1_path, "--cutpoint", "1/2", "--oracle", "primes", "--maxlen", "3"]
    ) == 2


def test_sweep_rejects_bad_cutpoint_text(m1_path):
    assert main(
        ["sweep", m1_path, "--cutpoint", "0.83", "--oracle", "eq", "--maxlen", "3"]
    ) == 2


def test_sweep_zero_state_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "zero.afa"
    path.write_text(ZERO_MATRIX.replace("alphabet a", "alphabet a b") + "\nsymbol b\n1 0\n0 1\n")
    out = tmp_path / "report.tsv"
    code = main(
        ["sweep", str(path), "--cutpoint", "1/2", "--oracle", "eq", "--maxlen", "3", "--out", str(out)]
    )
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("error: ") and "zero vector" in captured.err
    assert not out.exists()


def test_sweep_reaching_the_zero_vector_after_some_rows_writes_nothing(tmp_path, capsys):
    # 'a' moves p to q and q to the zero vector: "", "a" and "b" have rows
    # before "aa" fails.
    path = tmp_path / "late-zero.afa"
    late_zero = ZERO_MATRIX.replace("alphabet a", "alphabet a b").replace("0 0\n0 0\n", "0 0\n1 0\n")
    path.write_text(late_zero + "\nsymbol b\n1 0\n0 1\n")
    out = tmp_path / "report.tsv"
    argv = ["sweep", str(path), "--cutpoint", "1/2", "--oracle", "eq", "--maxlen"]
    assert main([*argv, "1"]) == 1  # "b" has value 1 but is not in eq
    capsys.readouterr()
    for extra in ([], ["--out", str(out)]):
        assert main([*argv, "3", *extra]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert captured.err.startswith("error: ") and "zero vector" in captured.err
    assert not out.exists()


# --------------------------------------------------------------- construct


def test_construct_shift_interior_round_trip(tmp_path, m1_path, capsys):
    out = tmp_path / "shifted.afa"
    code = main(
        [
            "construct",
            "shift-interior",
            m1_path,
            "--from-cutpoint",
            "5/6",
            "--to-cutpoint",
            "1/2",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    shifted = load_automaton(out)
    assert shifted.size == 4
    capsys.readouterr()
    assert main(["run", str(out), "--input", "ab"]) == 0
    assert "value 4/5" in capsys.readouterr().out


def test_construct_requires_its_flags(m1_path, capsys):
    assert main(["construct", "shift-interior", m1_path]) == 2
    assert main(["construct", "shift-zero", m1_path]) == 2


def test_construct_checks_input_arity(m1_path):
    assert main(["construct", "tensor", m1_path]) == 2
    assert main(
        ["construct", "afa-to-nqfa", m1_path, m1_path]
    ) == 2


@pytest.mark.parametrize(
    "argv, message",
    [
        (["shift-interior", "{q}", "--from-cutpoint", "1/2", "--to-cutpoint", "1/3"], "cutpoint shifting is defined for affine machines"),
        (["shift-zero", "{q}", "--to-cutpoint", "1/2"], "cutpoint shifting is defined for affine machines"),
        (["shift-one", "{q}", "--to-cutpoint", "1/2"], "cutpoint shifting is defined for affine machines"),
        (["pfa-to-nafa", "{q}"], "the exclusive construction starts from a probabilistic machine"),
        (["afa-to-nqfa", "{q}"], "the quantum simulation starts from an affine machine"),
        (["tensor", "{m1}", "{q}"], "tensor products are defined for affine machines"),
    ],
    ids=["shift-interior", "shift-zero", "shift-one", "pfa-to-nafa", "afa-to-nqfa", "tensor"],
)
def test_construct_refuses_a_quantum_machine_with_its_own_message(tmp_path, m1_path, capsys, argv, message):
    q = tmp_path / "q.afa"
    q.write_text(dumps_automaton(afa_to_nqfa(m1_eq())))
    out = tmp_path / "out.afa"
    assert main(["construct", *(part.format(q=q, m1=m1_path) for part in argv), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"
    assert not out.exists()


def test_construct_tensor(tmp_path, m1_path, capsys):
    out = tmp_path / "prod.afa"
    assert main(["construct", "tensor", m1_path, m1_path, "--out", str(out)]) == 0
    assert load_automaton(out).size == 4
    capsys.readouterr()
    assert main(["validate", str(out)]) == 0


def test_construct_shift_one(tmp_path, m1_path, capsys):
    out = tmp_path / "capped.afa"
    code = main(
        ["construct", "shift-one", m1_path, "--to-cutpoint", "3/4", "--out", str(out)]
    )
    assert code == 0
    capsys.readouterr()
    assert main(["run", str(out), "--input", "ab"]) == 0
    assert "value 3/4" in capsys.readouterr().out


def test_construct_counters_from_spec_file(tmp_path, capsys):
    spec_path = tmp_path / "balance.cm"
    spec_path.write_text(COUNTER)
    loads_counter_spec(COUNTER)  # sanity: the fixture itself parses
    out = tmp_path / "balance.afa"
    assert main(["construct", "counters", str(spec_path), "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["run", str(out), "--input", "aab"]) == 0
    assert "value 1/3" in capsys.readouterr().out


# The README's balance.cm: COUNTER with scale 2.
README_BALANCE = COUNTER.replace("counters 1\n", "counters 1\nscale 2\n")

# Three controller states, two counters with mixed increments, scale 2.
MIXED_COUNTERS = """\
kind counters
states p q r
alphabet a b
initial p
accepting p r
counters 2
scale 2

transition p a q
transition p b r
transition q a r
transition q b p
transition r a p
transition r b r
increment p a 1 -1
increment p b 0 2
increment q a -2 0
increment q b 1 1
increment r a 0 -1
increment r b 3 0
"""

# One controller state and six counters: 3**6 states, at COUNTER_STATE_CAP.
CAP_COUNTERS = COUNTER.replace("counters 1", "counters 6").replace(
    "only a 1", "only a 1 0 -1 2 0 1"
).replace("only b -1", "only b -1 1 0 0 2 -1")

# Two controller states, two counters, a non-integer scale.
THIRDS_COUNTERS = """\
kind counters
states p q
alphabet a b
initial p
accepting q
counters 2
scale 5/3

transition p a q
transition p b p
transition q a p
transition q b q
increment p a 1 0
increment p b -1 2
increment q a 0 -1
increment q b 2 1
"""

GOLDEN_MACHINES = [
    (["zoo", "m1_eq"], "6cda8fa63a4858f5067358d89f711f8469fa7ea8290432a0ee2c085c9b52afb1"),
    (["zoo", "m2_eq", "--x", "3"], "763c470967b0e9ee27064fd323d52eef9f175231f6bf86cd81b143c92ddfd921"),
    (["zoo", "m2_eq", "--x", "5/2"], "7fd28837fdf16f2f0d9a1a1d954c463c79eccc81c2cde8c41d1aa99706ca63b6"),
    (["zoo", "abs_eq"], "8281c7b0997ac5547ddc84aac5da0d1237fb64435b4c33d6841a3da36da32a1e"),
    (["zoo", "lapins"], "454d63f7dc32e65851940dc32a2b7c102124e8e0dc5420eabb3d1d9cb5519c17"),
    (
        ["construct", "shift-interior", "{m1}", "--from-cutpoint", "5/6", "--to-cutpoint", "1/2"],
        "537a955e36e695b1deaf27d70a1ff29c635a4abca67155ef08f470d7a973eeb8",
    ),
    (
        ["construct", "shift-zero", "{m1}", "--to-cutpoint", "1/3"],
        "74b8b8b6c8a0ecfcea932d318c3f3a4a06570b88ba2f373c4418d4d5d37d3052",
    ),
    (
        ["construct", "shift-one", "{m1}", "--to-cutpoint", "3/4"],
        "da3287e892158c1f3d4eb9c1d81f7d396e302ba1fac55c080371f7415eb12690",
    ),
    (["construct", "pfa-to-nafa", "{pfa}"], "13b0193d1bd21b083023fdf2f11f564e918d0dfc8bbb322c1b20fa7482cecf4f"),
    (["construct", "tensor", "{m1}", "{m1}"], "b8d88065c454ec11dc335a01651f6e5c85b7da79538ff65b8dd98a5c4b39ebae"),
    (["construct", "counters", "{balance}"], "45973a9782eac544111f24d856fc7b61442da519438411f48b04615dcbd05d2b"),
    (["construct", "counters", "{mixed}"], "744e8845e32fd6796ddccf129f5ffae017c693ebb2963145ae0ed5eee78dd4ab"),
    (["construct", "counters", "{cap}"], "101ab12e530d25ba9c36a5f3daec8c056e56af765ca2fb0571866f20d7e123a0"),
    (["construct", "counters", "{thirds}"], "f43aee13f1aede7e7626b32f835b3c11c319b5d46a83f99b221ed0d11c8fdb25"),
    # Surgery on the compiled MIXED_COUNTERS machine: 27 states, two
    # accepting, scale-2 denominators.
    (
        ["construct", "shift-interior", "{mixed_afa}", "--from-cutpoint", "1/2", "--to-cutpoint", "1/3"],
        "c1ed499fd317148140455746b7e54fc00c9d7c34e659a62674349e9ae1b4b81a",
    ),
    (
        ["construct", "shift-zero", "{mixed_afa}", "--to-cutpoint", "1/3"],
        "31de65f8f586693b907818eb5c40dfbac631ef956eb374e1abe604b1b5a73c0d",
    ),
    (
        ["construct", "shift-one", "{mixed_afa}", "--to-cutpoint", "3/4"],
        "db1611a6b9c855df87854297730145600eeeb912c8e0e850f8658c77998cec38",
    ),
]


@pytest.mark.parametrize(
    "argv, digest",
    GOLDEN_MACHINES,
    ids=[
        "zoo-m1_eq",
        "zoo-m2_eq",
        "zoo-m2_eq-non-integer",
        "zoo-abs_eq",
        "zoo-lapins",
        "shift-interior",
        "shift-zero",
        "shift-one",
        "pfa-to-nafa",
        "tensor",
        "counters",
        "counters-mixed",
        "counters-cap",
        "counters-non-integer-scale",
        "shift-interior-mixed",
        "shift-zero-mixed",
        "shift-one-mixed",
    ],
)
def test_written_machines_match_their_golden_digests(tmp_path, argv, digest):
    # Pinned digests: any change to a built machine or to the file
    # writer shows here.
    m1 = tmp_path / "m1.afa"
    assert main(["zoo", "m1_eq", "--out", str(m1)]) == 0
    pfa = tmp_path / "r.pfa"
    pfa.write_text(dumps_automaton(rand.random_pfa(random.Random(0), 3)))
    balance = tmp_path / "balance.cm"
    balance.write_text(README_BALANCE)
    mixed = tmp_path / "mixed.cm"
    mixed.write_text(MIXED_COUNTERS)
    mixed_afa = tmp_path / "mixed.afa"
    assert main(["construct", "counters", str(mixed), "--out", str(mixed_afa)]) == 0
    cap = tmp_path / "cap.cm"
    cap.write_text(CAP_COUNTERS)
    thirds = tmp_path / "thirds.cm"
    thirds.write_text(THIRDS_COUNTERS)
    out = tmp_path / "out.afa"
    paths = dict(m1=m1, pfa=pfa, balance=balance, mixed=mixed, mixed_afa=mixed_afa, cap=cap, thirds=thirds)
    args = [part.format(**paths) for part in argv]
    assert main([*args, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize(
    "text",
    [
        COUNTER.replace("counters 1", "counters 1 7"),
        README_BALANCE.replace("scale 2", "scale 2 9"),
        COUNTER + "scale 2\n",
        COUNTER.replace("kind counters\n", "kind counters\nkind counters\n"),
        # 3**12 joint states: refused before any matrix is built.
        COUNTER.replace("counters 1", "counters 12")
        .replace("only a 1", "only a 1" + " 0" * 11)
        .replace("only b -1", "only b -1" + " 0" * 11),
    ],
    ids=["counters-two-values", "scale-two-values", "header-after-body", "repeated-kind", "over-the-state-cap"],
)
def test_construct_counters_rejects_bad_specs(tmp_path, capsys, text):
    spec_path = tmp_path / "bad.cm"
    spec_path.write_text(text)
    out = tmp_path / "bad.afa"
    assert main(["construct", "counters", str(spec_path), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and captured.err.startswith("error: ")
    assert not out.exists()


@pytest.mark.parametrize(
    "command, text, message",
    [
        ("validate", "# nothing but a comment\n", ": empty file"),
        ("validate", "kind afa\nstates\nalphabet a\ninitial p\n", ": header line 'states' needs at least one name"),
        ("validate", "kind afa\nstates p\nalphabet a\ninitial x\n", ": unknown initial state 'x'"),
        ("validate", QFA_ONE_SYMBOL.replace("0 1\n", "0 x\n"), ":8: not a float: 'x'"),
        ("validate", QFA_ONE_SYMBOL.replace("symbol a", "symbol a b"), ":6: 'symbol' needs exactly one name"),
        ("validate", "kind afa\nstates p\nalphabet a\ninitial p\n\n1\n", ":6: matrix rows before any 'symbol' line"),
        ("counters", COUNTER.replace("counters 1", "counters one"), ": 'counters' needs one integer"),
        ("counters", COUNTER.replace("counters 1\n", "counters 1\nscale x\n"), ": 'scale' needs one rational"),
        (
            "counters",
            COUNTER.replace("transition only a only", "transition only a"),
            ":8: transition lines are 'transition FROM SYMBOL TO'",
        ),
        ("counters", COUNTER + "transition only a only\n", ":12: duplicate transition for ('only', 'a')"),
        ("counters", COUNTER.replace("increment only a 1", "increment only a x"), ":10: increments must be integers"),
        ("counters", COUNTER + "increment only a 1\n", ":12: duplicate increment for ('only', 'a')"),
        ("counters", COUNTER + "jump only a\n", ":12: unknown line 'jump'"),
        ("counters", COUNTER.replace("transition only a only", "transition nowhere a only"), ":8: unknown state 'nowhere'"),
        ("counters", COUNTER.replace("transition only a only", "transition only c only"), ":8: unknown symbol 'c'"),
    ],
    ids=[
        "empty-file",
        "no-state-names",
        "unknown-initial-state",
        "qfa-entry-not-a-float",
        "symbol-with-two-names",
        "rows-before-symbol",
        "counters-not-an-integer",
        "scale-not-a-rational",
        "transition-arity",
        "duplicate-transition",
        "increment-not-an-integer",
        "duplicate-increment",
        "unknown-line",
        "unknown-state",
        "unknown-symbol",
    ],
)
def test_unreadable_files_name_the_file_and_the_fault(tmp_path, capsys, command, text, message):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    argv = ["validate", str(path)] if command == "validate" else ["construct", "counters", str(path)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {path}{message}\n"


def test_construct_writes_to_stdout_without_out_flag(m1_path, capsys):
    assert main(["construct", "afa-to-nqfa", m1_path]) == 0
    text = capsys.readouterr().out
    assert text.startswith("kind qfa")


# --------------------------------------------------------------------- zoo


def test_zoo_writes_loadable_machines(tmp_path, capsys):
    out = tmp_path / "m.afa"
    assert main(["zoo", "lapins", "--out", str(out)]) == 0
    assert load_automaton(out).size == 25


def test_zoo_m2_requires_the_scale(capsys):
    assert main(["zoo", "m2_eq"]) == 2
    assert main(["zoo", "m1_eq", "--x", "2"]) == 2


def test_zoo_m2_with_scale_runs(tmp_path, capsys):
    out = tmp_path / "m2.afa"
    assert main(["zoo", "m2_eq", "--x", "3", "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["run", str(out), "--input", "aab"]) == 0
    assert "value 1/7" in capsys.readouterr().out


# ------------------------------------------------------------------- usage


@pytest.mark.parametrize("kappa", ["inf", "nan", "-1", "abc"])
@pytest.mark.parametrize(
    "command",
    [
        ["validate", "{qfa}"],
        ["run", "{qfa}", "--input", "ab"],
        ["sweep", "{qfa}", "--cutpoint", "0", "--mode", "nondet", "--oracle", "eq", "--maxlen", "3"],
    ],
    ids=["validate", "run", "sweep"],
)
def test_kappa_must_be_finite_and_nonnegative(tmp_path, m1_path, capsys, command, kappa):
    qfa = tmp_path / "m1.qfa"
    assert main(["construct", "afa-to-nqfa", m1_path, "--out", str(qfa)]) == 0
    argv = [part.format(qfa=qfa) for part in command]
    assert main([*argv, f"--kappa={kappa}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--kappa" in captured.err and "Traceback" not in captured.err
    assert main([*argv, "--kappa=0"]) in (0, 1)


def test_sweep_above_the_cap_is_a_usage_error(m1_path, capsys):
    code = main(
        ["sweep", m1_path, "--cutpoint", "5/6", "--oracle", "eq", "--maxlen", "1000000000"]
    )
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("error: ") and "more than 1000000 strings" in captured.err


def test_no_arguments_is_a_usage_error(capsys):
    assert main([]) == 2


def test_unknown_subcommand_is_a_usage_error(capsys):
    assert main(["frobnicate"]) == 2


def test_unknown_zoo_name_is_a_usage_error(capsys):
    assert main(["zoo", "m9_eq"]) == 2


ONE_STATE_DFA = "kind dfa\nstates p\nalphabet a\ninitial p\naccepting p\n\nsymbol a\n1\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["run", "{dfa}", "--input", "a", "--normalized"], "--normalized applies to affine machines only"),
        (["construct", "tensor", "{m1}"], "tensor takes 2 input file(s)"),
        (["zoo", "m2_eq"], "m2_eq needs --x"),
        (["zoo", "m1_eq", "--x", "2"], "--x applies to m2_eq only, not m1_eq"),
    ],
    ids=["run-normalized-dfa", "construct-arity", "zoo-m2_eq-without-x", "zoo-x-on-m1_eq"],
)
def test_usage_errors_print_one_error_line(tmp_path, m1_path, capsys, argv, message):
    dfa = tmp_path / "d.dfa"
    dfa.write_text(ONE_STATE_DFA)
    assert main([part.format(dfa=dfa, m1=m1_path) for part in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


# Column 0 of 'a' is (10**400, 1 - 10**400): valid and exact, but past float range.
HUGE_ENTRY = f"""\
kind afa
states p q
alphabet a b
initial p
accepting p

symbol a
{10**400} 0
{1 - 10**400} 1

symbol b
1 0
0 1
"""


@pytest.mark.parametrize(
    "command, culprit",
    [
        (["sweep", "{m1q}", "--cutpoint", str(10**400), "--oracle", "eq", "--maxlen", "2"], "cutpoint"),
        (["construct", "afa-to-nqfa", "{huge}"], "symbol 'a'"),
    ],
    ids=["quantum-sweep-huge-cutpoint", "afa-to-nqfa-huge-entry"],
)
def test_float_overflow_is_a_usage_error(tmp_path, m1_path, capsys, command, culprit):
    m1q = tmp_path / "m1q.afa"
    assert main(["construct", "afa-to-nqfa", m1_path, "--out", str(m1q)]) == 0
    huge = tmp_path / "huge.afa"
    huge.write_text(HUGE_ENTRY)
    assert main(["validate", str(huge)]) == 0
    capsys.readouterr()
    out = tmp_path / "out"
    assert main([*(part.format(m1q=m1q, huge=huge) for part in command), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and captured.err.startswith("error: ")
    # The message names the input past float range.
    assert culprit in captured.err
    assert not out.exists()
