"""Tests for machine containers, evaluation and the weighting readout."""

import random
from dataclasses import replace
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import given, strategies as st

from afalib.automata import (
    CENT,
    DOLLAR,
    ClassicalAutomaton,
    CounterMachineSpec,
    _before_dollar,
    _initial,
    _readout,
    accept_value,
    accept_value_normalized,
    dfa_automaton,
    prefix_values,
    run,
    weigh_partition,
)
from afalib.constructions import (
    abs_eq,
    compile_blind_counters,
    exclusive_pfa_to_nafa,
    lapins,
    m1_eq,
    m2_eq,
    shift_extreme,
    shift_interior,
)
from afalib.exactnum import Mat, basis_vector, l1_norm, vec
from afalib.rand import random_afa, random_pfa, random_qfa
from afalib.recognition import LanguageOracle, OracleStepper, equivalence_check, sweep

# The unary language of even lengths, with a stepper, so a sweep goes by class.
EVEN = LanguageOracle(
    "even",
    ("a",),
    lambda w: len(w) % 2 == 0,
    OracleStepper(0, lambda parity, _: 1 - parity, lambda parity: parity == 0),
)


def doubling_machine():
    """Two states, start in the first.

    Reading a doubles the first entry, reading b halves it; the second
    entry absorbs the difference so every column sums to one.  After a
    word with m a's and n b's the state is (2^(m-n), 1 - 2^(m-n)).
    """
    return ClassicalAutomaton.build(
        kind="afa",
        states=("x", "rest"),
        alphabet=("a", "b"),
        transitions={
            "a": Mat([["2", "0"], ["-1", "1"]]),
            "b": Mat([["1/2", "0"], ["1/2", "1"]]),
        },
        initial=0,
        accepting=(0,),
    )


def doubling_value(m: int, n: int) -> Fraction:
    top = Fraction(2) ** (m - n)
    return abs(top) / (abs(top) + abs(1 - top))


# ------------------------------------------------------------ construction


def test_build_fills_identity_markers():
    m = doubling_machine()
    assert set(m.transitions) == {"a", "b", CENT, DOLLAR}
    assert m.transitions[CENT] == Mat.identity(2)
    assert m.transitions[DOLLAR] == Mat.identity(2)


def test_machine_without_states_rejected():
    with pytest.raises(ValueError, match="at least one state"):
        ClassicalAutomaton(kind="afa", states=(), alphabet=("a",), transitions={}, initial=0, accepting=())


def test_duplicate_state_names_rejected():
    with pytest.raises(ValueError):
        ClassicalAutomaton.build(
            kind="afa",
            states=("p", "p"),
            alphabet=("a",),
            transitions={"a": Mat.identity(2)},
            initial=0,
        )


def test_multicharacter_symbols_rejected():
    with pytest.raises(ValueError):
        ClassicalAutomaton.build(
            kind="afa",
            states=("p", "q"),
            alphabet=("ab",),
            transitions={"ab": Mat.identity(2)},
            initial=0,
        )


def test_reserved_marker_names_not_usable_as_letters():
    with pytest.raises(ValueError):
        ClassicalAutomaton.build(
            kind="afa",
            states=("p",),
            alphabet=(CENT,),
            transitions={CENT: Mat.identity(1)},
            initial=0,
        )


def test_wrong_matrix_shape_rejected():
    with pytest.raises(ValueError):
        ClassicalAutomaton.build(
            kind="afa",
            states=("p", "q"),
            alphabet=("a",),
            transitions={"a": Mat.identity(3)},
            initial=0,
        )


def test_initial_and_accepting_ranges():
    with pytest.raises(ValueError):
        ClassicalAutomaton.build(
            kind="afa", states=("p",), alphabet=("a",),
            transitions={"a": Mat.identity(1)}, initial=1,
        )
    with pytest.raises(ValueError):
        ClassicalAutomaton.build(
            kind="afa", states=("p",), alphabet=("a",),
            transitions={"a": Mat.identity(1)}, initial=0, accepting=(2,),
        )


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        ClassicalAutomaton.build(
            kind="wfa", states=("p",), alphabet=("a",),
            transitions={"a": Mat.identity(1)}, initial=0,
        )


# -------------------------------------------------------------- violations


def test_violations_empty_for_valid_machine():
    assert doubling_machine().violations() == []


def test_violations_report_symbol_and_column():
    bad = ClassicalAutomaton.build(
        kind="afa",
        states=("p", "q"),
        alphabet=("a",),
        transitions={"a": Mat([[1, 0], [1, 1]])},
        initial=0,
    )
    msgs = bad.violations()
    assert len(msgs) == 1
    assert "symbol a" in msgs[0] and "column 0" in msgs[0]


def test_pfa_violations_catch_negative_entries():
    bad = ClassicalAutomaton.build(
        kind="pfa",
        states=("p", "q"),
        alphabet=("a",),
        transitions={"a": Mat([["3/2", 0], ["-1/2", 1]])},
        initial=0,
    )
    assert bad.violations()


def test_dfa_violations_require_unit_entries():
    bad = ClassicalAutomaton.build(
        kind="dfa",
        states=("p", "q"),
        alphabet=("a",),
        transitions={"a": Mat([["1/2", 0], ["1/2", 1]])},
        initial=0,
    )
    assert any("0 or 1" in msg for msg in bad.violations())


# -------------------------------------------------------------- evaluation


def test_run_matches_hand_computation():
    m = doubling_machine()
    assert run(m, "") == vec([1, 0])
    assert run(m, "a") == vec([2, -1])
    assert run(m, "aab") == vec([2, -1])
    assert run(m, "abb") == vec(["1/2", "1/2"])


def test_accept_value_weighting():
    m = doubling_machine()
    for w in ("", "a", "b", "aa", "ab", "ba", "abab", "aabba"):
        m_count = w.count("a")
        n_count = w.count("b")
        assert accept_value(m, w) == doubling_value(m_count, n_count)


def test_markers_participate_in_the_trace():
    m = doubling_machine()
    prepped = ClassicalAutomaton.build(
        kind="afa",
        states=m.states,
        alphabet=m.alphabet,
        transitions={
            "a": m.transitions["a"],
            "b": m.transitions["b"],
            CENT: m.transitions["a"],
            DOLLAR: m.transitions["b"],
        },
        initial=0,
        accepting=(0,),
    )
    # the extra doubling and halving cancel out
    assert run(prepped, "ab") == run(m, "ab")
    # cent, w, dollar read in that order, so prepped on "b" is plain "abb"
    assert accept_value(prepped, "b") == accept_value(m, "abb")


def test_pfa_readout_sums_without_absolute_values():
    m = ClassicalAutomaton.build(
        kind="pfa",
        states=("p", "q"),
        alphabet=("a",),
        transitions={"a": Mat([["1/3", "1/2"], ["2/3", "1/2"]])},
        initial=0,
        accepting=(0,),
    )
    assert accept_value(m, "a") == Fraction(1, 3)
    assert accept_value(m, "aa") == Fraction(1, 3) * Fraction(1, 3) + Fraction(2, 3) * Fraction(1, 2)


def test_symbols_outside_the_alphabet_raise():
    with pytest.raises(ValueError):
        run(doubling_machine(), "ac")


def test_zero_state_readouts_raise_value_error():
    m = ClassicalAutomaton.build(
        kind="afa",
        states=("p", "q"),
        alphabet=("a",),
        transitions={"a": Mat([[0, 0], [0, 0]])},
        initial=0,
        accepting=(0,),
    )
    assert run(m, "a") == vec([0, 0])
    for evaluate in (accept_value, accept_value_normalized):
        with pytest.raises(ValueError, match="zero vector"):
            evaluate(m, "a")
    with pytest.raises(ValueError, match="zero vector"):
        list(prefix_values(m, 1))
    # Both sweep lanes read values through the same kernel: a class of the
    # stepping oracle, and a string of the oracle without its stepper.
    for oracle in (EVEN, replace(EVEN, stepper=None)):
        with pytest.raises(ValueError, match="zero vector"):
            sweep(m, Fraction(1, 2), "cutpoint", oracle, 1)
    # An equivalence check reads both machines' values through their kernels, on either side.
    valid = ClassicalAutomaton.build("afa", ("p",), ("a",), {"a": Mat([[1]])}, 0, (0,))
    for m1, m2 in ((m, valid), (valid, m), (m, m)):
        with pytest.raises(ValueError, match="zero vector"):
            equivalence_check(m1, Fraction(1, 2), m2, Fraction(1, 2), 1)


def test_dfa_automaton_builder_runs_by_name():
    m = dfa_automaton(
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
    assert m.kind == "dfa" and not m.violations()
    assert accept_value(m, "ab") == 0
    assert accept_value(m, "aba") == 1


# ------------------------------------------------------------ prefix trie


def test_prefix_values_is_length_lexicographic():
    m = doubling_machine()
    words = [w for w, _ in prefix_values(m, 2)]
    assert words == ["", "a", "b", "aa", "ab", "ba", "bb"]


def test_prefix_values_agree_with_direct_evaluation():
    m = doubling_machine()
    for w, value in prefix_values(m, 5):
        assert value == accept_value(m, w)


def test_prefix_values_stays_lazy():
    values = prefix_values(m1_eq(), 10**6)
    assert next(values) == ("", 1)
    assert next(values)[0] == "a"


def test_prefix_values_steps_each_distinct_state_once(monkeypatch):
    m, maxlen = m1_eq(), 8
    # Distinct states after cent + w, from Mat.apply alone.
    shorter, everything = set(), set()
    for n in range(maxlen + 1):
        for letters in product(m.alphabet, repeat=n):
            v = m.transitions[CENT].apply(basis_vector(m.size, m.initial))
            for sym in letters:
                v = m.transitions[sym].apply(v)
            everything.add(v)
            if n < maxlen:
                shorter.add(v)
    calls, readouts = [], []
    real_step, real_value = Mat.step, m._value
    monkeypatch.setattr(Mat, "step", lambda mat, state: calls.append(1) or real_step(mat, state))
    vars(m)["_value"] = lambda state: readouts.append(1) or real_value(state)
    assert len(list(prefix_values(m, maxlen))) == 2 ** (maxlen + 1) - 1
    # cent once and each letter per distinct shorter state; dollar is
    # never stepped, as the value is read once per distinct state before it.
    assert len(calls) == 1 + len(m.alphabet) * len(shorter)
    assert len(readouts) == len(everything)


# ------------------------------------------- kernel against a Mat.apply loop


def plain_trace(machine, w, normalize=False):
    """Final state of ``cent + w + dollar`` through Mat.apply alone."""
    v = basis_vector(machine.size, machine.initial)
    for sym in (CENT, *w, DOLLAR):
        v = machine.transitions[sym].apply(v)
        if normalize:
            norm = l1_norm(v)
            v = tuple(x / norm for x in v)
    return v


def plain_value(machine, w):
    v = plain_trace(machine, w)
    if machine.kind == "afa":
        return sum(abs(v[k]) for k in machine.accepting) / l1_norm(v)
    return sum((v[k] for k in machine.accepting), Fraction(0))


KERNEL_CASES = {
    "m1_eq": (m1_eq, 6),
    "m2_eq": (lambda: m2_eq(3), 5),
    "abs_eq": (abs_eq, 5),
    "lapins": (lapins, 3),
    **{f"afa-{seed}": (lambda seed=seed: random_afa(random.Random(seed), 2 + seed), 4) for seed in range(4)},
    **{f"pfa-{seed}": (lambda seed=seed: random_pfa(random.Random(seed), 2 + seed), 4) for seed in range(4)},
}


@pytest.mark.parametrize("name", sorted(KERNEL_CASES))
def test_kernel_matches_a_plain_apply_loop(name):
    build, maxlen = KERNEL_CASES[name]
    m = build()
    words = ["".join(p) for n in range(maxlen + 1) for p in product(m.alphabet, repeat=n)]
    expected = [plain_value(m, w) for w in words]
    got = list(prefix_values(m, maxlen))
    assert got == list(zip(words, expected))
    assert all(type(value) is Fraction for _, value in got)
    for w in words[:: max(1, len(words) // 25)]:
        assert run(m, w) == plain_trace(m, w)
        assert accept_value(m, w) == plain_value(m, w)
        if m.kind == "afa":
            normalized = plain_trace(m, w, normalize=True)
            assert accept_value_normalized(m, w) == sum(abs(normalized[k]) for k in m.accepting)


# ----------------------------------------- fused dollar against the literal path


def _counter_with_a_swapping_dollar():
    # The controller dies on b, and its dollar swaps alive and dead, so
    # the compiled machine's dollar is kron(swap, I), not the identity.
    swap = Mat([[0, 1], [1, 0]])
    controller = ClassicalAutomaton.build(
        "dfa",
        ("alive", "dead"),
        ("a", "b"),
        {"a": Mat.identity(2), "b": Mat([[0, 0], [1, 1]]), DOLLAR: swap},
        0,
        (1,),
    )
    increments = {(0, "a"): (1,), (0, "b"): (-1,), (1, "a"): (0,), (1, "b"): (0,)}
    return compile_blind_counters(CounterMachineSpec(controller, 1, increments, Fraction(2)))


DOLLAR_CASES = {
    "shift-interior": lambda: shift_interior(m1_eq(), Fraction(5, 6), Fraction(1, 2)),
    "shift-extreme-zero": lambda: shift_extreme(abs_eq(), "zero", Fraction(2, 5)),
    "shift-extreme-one": lambda: shift_extreme(m1_eq(), "one", Fraction(3, 4)),
    "exclusive": lambda: exclusive_pfa_to_nafa(random_pfa(random.Random(5), 3)),
    "counters": _counter_with_a_swapping_dollar,
    **{f"afa-{seed}": (lambda seed=seed: random_afa(random.Random(seed), 2 + seed)) for seed in range(3)},
    **{f"pfa-{seed}": (lambda seed=seed: random_pfa(random.Random(seed), 2 + seed)) for seed in range(3)},
}


@pytest.mark.parametrize("name", [*sorted(DOLLAR_CASES), "dfa", "pfa-no-accepting"])
def test_the_fused_value_is_the_readout_of_the_stepped_dollar(name):
    if name == "dfa":
        moves = {("p", "a"): "q", ("q", "a"): "p", ("p", "b"): "p", ("q", "b"): "q"}
        m = dfa_automaton(("p", "q"), ("a", "b"), moves, "p", ("q",))
    elif name == "pfa-no-accepting":
        m = replace(random_pfa(random.Random(9), 3), accepting=frozenset())
    else:
        m = DOLLAR_CASES[name]()
        assert m.transitions[DOLLAR] != Mat.identity(m.size)
    states = {_initial(m)}
    for n in range(5):
        states.update(_before_dollar(m, "".join(p)) for p in product(m.alphabet, repeat=n))
    for state in states:
        # The kernel gives the value as an unreduced integer pair over a positive denominator.
        num, den = pair = m._value(state)
        assert type(num) is int and type(den) is int and den > 0
        assert Fraction(*pair) == _readout(m, m.transitions[DOLLAR].step(state))
    if name == "pfa-no-accepting":
        assert all(m._value(state)[0] == 0 for state in states)


def _wide_machine(kind: str, n: int = 3001):
    """An ``n``-state unary machine whose dollar has a 5,000-digit entry and a dense accepting row.

    ``cent`` spreads the first basis vector over every state, and ``a``
    doubles each entry and takes it from the next state. ``dollar``
    weighs every entry into the accepting state 0 and negates each other
    entry in place, so its accepting row has ``n`` terms and each of the
    ``n - 1`` other rows is nonzero.
    """
    big = 10**4999 + 7
    cent = {(0, 0): 1, **{(k, 0): 1 - 2 * (k % 2) for k in range(1, n)}}
    cent.update(((j, j), 1) for j in range(1, n))
    step = {(j, j): 2 for j in range(n)}
    step.update((((j + 1) % n, j), -1) for j in range(n))
    dollar = {(0, 0): big, (1, 0): 1 - big}
    dollar.update(((0, j), 2) for j in range(1, n))
    dollar.update(((j, j), -1) for j in range(1, n))
    matrices = {name: Mat._sparse(n, n, entries) for name, entries in (("a", step), (CENT, cent), (DOLLAR, dollar))}
    return ClassicalAutomaton.build(kind, [f"s{k}" for k in range(n)], ("a",), matrices, 0, (0,))


@pytest.mark.parametrize("kind", ["afa", "pfa"])
def test_a_wide_dollar_with_a_huge_entry_compiles_and_matches_the_literal_path(kind):
    m = _wide_machine(kind)
    assert m.transitions[DOLLAR][0, 0] == 10**4999 + 7  # past the int/str digit cap
    assert len(m.transitions[DOLLAR].integer_form()[1][0]) == m.size
    words = ["a" * n for n in range(4)]
    literal = [_readout(m, m.transitions[DOLLAR].step(_before_dollar(m, w))) for w in words]
    assert list(prefix_values(m, 3)) == list(zip(words, literal))
    assert [accept_value(m, w) for w in words] == literal
    report = sweep(m, Fraction(1, 2), "cutpoint", EVEN, 3)
    assert [(r.string, r.value) for r in report.records] == list(zip(words, literal))
    assert all(type(value) is Fraction for value in literal)


# ------------------------------------------------- normalized evaluation


def test_normalized_semantics_match_plain_semantics():
    m = doubling_machine()
    for w, value in prefix_values(m, 6):
        assert accept_value_normalized(m, w) == value


def test_normalized_semantics_reject_non_affine_machines():
    m = ClassicalAutomaton.build(
        kind="pfa",
        states=("p",),
        alphabet=("a",),
        transitions={"a": Mat.identity(1)},
        initial=0,
        accepting=(0,),
    )
    with pytest.raises(ValueError):
        accept_value_normalized(m, "a")


def test_normalized_semantics_reject_quantum_machines():
    with pytest.raises(ValueError, match="affine machines only"):
        accept_value_normalized(random_qfa(np.random.default_rng(0)), "a")


# ---------------------------------------------------------------- weights


def test_weigh_partition_documented_example():
    outcomes = weigh_partition(vec([1, -1, 1]), [{0}, {1, 2}])
    assert [o.weight for o in outcomes] == [Fraction(1, 3), Fraction(2, 3)]
    assert outcomes[0].state == vec([1, 0, 0])
    assert outcomes[1].state is None
    assert outcomes[1].terminal and not outcomes[0].terminal


def test_weigh_partition_collapsed_states_renormalize():
    outcomes = weigh_partition(vec([1, 1, -1]), [{0, 1}, {2}])
    assert outcomes[0].weight == Fraction(2, 3)
    assert outcomes[0].state == vec(["1/2", "1/2", 0])
    assert outcomes[1].state == vec([0, 0, 1])


def test_weigh_partition_requires_a_partition():
    with pytest.raises(ValueError):
        weigh_partition(vec([1, 0]), [{0}])
    with pytest.raises(ValueError):
        weigh_partition(vec([1, 0]), [{0, 1}, {1}])
    with pytest.raises(ValueError):
        weigh_partition(vec([0, 0]), [{0}, {1}])
    with pytest.raises(ValueError, match="partition index 2 out of range"):
        weigh_partition(vec([1, 0]), [{0}, {2}])


@given(st.lists(
    st.fractions(min_value=Fraction(-9), max_value=Fraction(9), max_denominator=12),
    min_size=2,
    max_size=6,
).filter(lambda entries: any(entries)))
def test_weights_always_sum_to_one(entries):
    v = tuple(entries)
    split = [range(0, 1), range(1, len(v))]
    outcomes = weigh_partition(v, split)
    assert sum(o.weight for o in outcomes) == 1
    singletons = [{k} for k in range(len(v))]
    fine = weigh_partition(v, singletons)
    assert sum(o.weight for o in fine) == 1
    assert [o.weight for o in fine] == [abs(x) / l1_norm(v) for x in v]
