"""Tests of the benchmark's own checks, closed forms and tracer.

Run from the repository root (the file is named so that the repository's
own test run does not collect it):

    python3 -m pytest -q perfbench/selftest.py
"""

from __future__ import annotations

import dataclasses
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import afalib  # noqa: E402
import afalib.cli  # noqa: E402
import afalib.rand  # noqa: E402

import reference  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import BALANCE_SPEC, NoReuse, QuantumNondet, ZooCli, check_report  # noqa: E402

MAXLEN = 6


def zoo_machines():
    yield "m1_eq", afalib.m1_eq()
    yield "m2_eq", afalib.m2_eq(reference.M2_SCALE)
    yield "abs_eq", afalib.abs_eq()
    yield "lapins", afalib.lapins()
    yield "balance", afalib.compile_blind_counters(afalib.loads_counter_spec(BALANCE_SPEC))


@pytest.mark.parametrize("name,machine", list(zoo_machines()), ids=lambda x: x if isinstance(x, str) else "")
def test_closed_forms_and_plain_evaluator_match_accept_value(name, machine):
    plain = reference.PlainMachine(machine)
    shared = plain.values(MAXLEN)
    ws = list(reference.strings(machine.alphabet, MAXLEN))
    assert len(ws) == reference.count_strings(len(machine.alphabet), MAXLEN)
    assert list(shared) == ws
    for w in ws:
        value = afalib.accept_value(machine, w)
        assert reference.zoo_value(name, w) == value, w
        assert plain.value(w) == value == shared[w], w
    if name in reference.FINALS:
        final, accepting = reference.FINALS[name]
        for w in ws:
            assert tuple(final(w)) == afalib.run(machine, w), w
            assert set(accepting) == machine.accepting


@pytest.mark.parametrize("oracle", sorted(reference.MEMBERS))
def test_membership_matches_the_builtin_oracles(oracle):
    builtin = afalib.BUILTIN_ORACLES[oracle]()
    for w in reference.strings(builtin.alphabet, MAXLEN):
        assert reference.MEMBERS[oracle](w) == afalib.oracle_eval(builtin, w), w


def test_plain_evaluator_reads_probabilistic_machines():
    import random

    pfa = afalib.rand.random_pfa(random.Random(3), 3)
    plain = reference.PlainMachine(pfa)
    for w in reference.strings(pfa.alphabet, 4):
        assert plain.value(w) == afalib.accept_value(pfa, w)


# ---------------------------------------------------------------------------
# zoo-cli


SMALL_SWEEP = ("m1_eq", "isolation", "5/6", "eq", 5)


@pytest.fixture
def m1_report(tmp_path):
    machine = tmp_path / "m1_eq.afa"
    out = tmp_path / "report.tsv"
    assert afalib.cli.main(["zoo", "m1_eq", "--out", str(machine)]) == 0
    name, mode, cutpoint, oracle, maxlen = SMALL_SWEEP
    argv = ["sweep", str(machine), "--mode", mode, "--cutpoint", cutpoint, "--oracle", oracle,
            "--maxlen", str(maxlen), "--out", str(out)]
    assert afalib.cli.main(argv) == 0
    return out.read_text()


def test_zoo_report_passes_as_written(m1_report):
    tally = check_report(SMALL_SWEEP, 0, m1_report)
    assert (tally.attempted, tally.failed, tally.wrong) == (63, 0, 0)


def _replace_row(text: str, index: int, column: int, new: str) -> str:
    lines = text.split("\n")
    fields = lines[index].split("\t")
    fields[column] = new
    lines[index] = "\t".join(fields)
    return "\n".join(lines)


def test_zoo_checker_rejects_one_altered_value(m1_report):
    # row 3 is "b": value 1/2 by the closed form
    assert m1_report.split("\n")[3].startswith("b\t1/2\t")
    tally = check_report(SMALL_SWEEP, 0, _replace_row(m1_report, 3, 1, "1/4"))
    assert tally.failed >= 1 and tally.wrong == tally.failed


def test_zoo_checker_rejects_one_altered_member_flag(m1_report):
    assert m1_report.split("\n")[4].startswith("aa\t")
    tally = check_report(SMALL_SWEEP, 0, _replace_row(m1_report, 4, 2, "1"))
    assert tally.failed >= 1 and tally.wrong >= 1


def test_zoo_checker_rejects_wrong_extremes_rows_and_exit_codes(m1_report):
    assert "max_nonmember_value\t2/3" in m1_report
    assert check_report(SMALL_SWEEP, 0, m1_report.replace("max_nonmember_value\t2/3", "max_nonmember_value\t1/2")).failed == 63
    dropped = "\n".join(line for line in m1_report.split("\n") if not line.startswith("abab\t"))
    assert check_report(SMALL_SWEEP, 0, dropped).failed == 63
    assert check_report(SMALL_SWEEP, 1, m1_report).failed == 63
    assert check_report(SMALL_SWEEP, 0, None).failed == 63


def test_zoo_workload_round_is_clean(tmp_path):
    workload = ZooCli(1, tmp_path)
    workload.setup(afalib)
    outputs = {key: fn() for key, fn in workload.operations()}
    tally = workload.check(outputs)
    assert tally.attempted == 23617 and tally.failed == 0


# ---------------------------------------------------------------------------
# no-reuse


@pytest.fixture(scope="module")
def no_reuse_round(tmp_path_factory):
    workload = NoReuse(5, tmp_path_factory.mktemp("no-reuse"))
    workload.setup(afalib)
    return workload, {key: fn() for key, fn in workload.operations()}


def test_no_reuse_round_is_clean(no_reuse_round):
    workload, outputs = no_reuse_round
    tally = workload.check(outputs)
    assert tally.failed == 0 and tally.attempted > 0


def test_no_reuse_checker_rejects_one_perturbed_value(no_reuse_round):
    workload, outputs = no_reuse_round
    for key in (("value", "abs_eq"), ("normalized", "lapins")):
        bad = dict(outputs)
        bad[key] = [bad[key][0] + Fraction(1, 10**9), *bad[key][1:]]
        tally = workload.check(bad)
        assert tally.failed >= 1 and tally.wrong == tally.failed, key
    bad = dict(outputs)
    w, v = bad[("zero-set", 0)][7]
    bad[("zero-set", 0)] = [*bad[("zero-set", 0)][:7], (w, v / 2), *bad[("zero-set", 0)][8:]]
    assert workload.check(bad).failed >= 1
    bad = dict(outputs)
    report = bad[("equivalence", 1)]
    bad[("equivalence", 1)] = dataclasses.replace(report, violations=(("ab", Fraction(1), Fraction(0)),))
    assert workload.check(bad).failed >= 1


# ---------------------------------------------------------------------------
# quantum-nondet


@pytest.fixture(scope="module")
def quantum_round(tmp_path_factory):
    workload = QuantumNondet(2, tmp_path_factory.mktemp("quantum"))
    workload.setup(afalib)
    return workload, {key: fn() for key, fn in workload.operations()}


def test_quantum_round_counts_indeterminate_as_failed(quantum_round):
    workload, outputs = quantum_round
    assert {name: len(r.indeterminate) for name, r in outputs.items()} == {"m1_eq": 16, "abs_eq": 5284, "lapins": 462}
    tally = workload.check(outputs)
    assert (tally.attempted, tally.failed, tally.wrong) == (44238, 5762, 0)


def test_quantum_checker_rejects_one_disagree(quantum_round):
    workload, outputs = quantum_round
    bad = dict(outputs)
    bad["abs_eq"] = dataclasses.replace(bad["abs_eq"], counterexamples=("ab",))
    tally = workload.check(bad)
    assert tally.wrong == 1


def test_quantum_sample_check_rejects_another_machine(quantum_round):
    workload, _ = quantum_round
    machine, qfa, oracle, maxlen = workload.machines["m1_eq"]
    workload.machines["m1_eq"] = (machine, afalib.afa_to_nqfa(afalib.m2_eq(1)), oracle, maxlen)
    try:
        assert workload.check_sample() > 0
    finally:
        workload.machines["m1_eq"] = (machine, qfa, oracle, maxlen)
    assert workload.check_sample() == 0


# ---------------------------------------------------------------------------
# tracer


def test_tracer_counts_products_and_restores_the_program():
    machine = afalib.m1_eq()
    original = afalib.exactnum.Mat.apply
    tracer = Tracer()
    tracer.install()
    try:
        values = list(afalib.prefix_values(machine, 3))
    finally:
        tracer.uninstall()
    assert afalib.exactnum.Mat.apply is original
    assert afalib.automata.prefix_values.__name__ == "prefix_values"
    assert values == [(w, afalib.accept_value(machine, w)) for w in reference.strings("ab", 3)]
    layers = tracer.take()
    # cent once, dollar per string (15), one product per child string (14)
    assert layers["exactnum.apply_calls"] == 30
    assert layers["exactnum.apply_distinct"] < 30
    assert 0 < layers["automata.enum_self_s"] < layers["automata.prefix_values_s"]
    assert tracer.take()["exactnum.apply_calls"] == 0
