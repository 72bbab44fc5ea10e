"""Tests for the machine zoo and the machine-to-machine constructions.

Expected numbers are frozen from closed forms computed in each section:
the zoo values have per-string formulas in the letter counts, and every
construction has a target identity relating old and new acceptance values.
"""

import math
import random
from dataclasses import replace
from fractions import Fraction

import pytest

import afalib.rand as rand
from afalib.automata import ClassicalAutomaton, accept_value, prefix_values, run
from afalib.constructions import (
    COUNTER_STATE_CAP,
    CounterMachineSpec,
    ZOO_NAMES,
    abs_eq,
    afa_to_nqfa,
    compile_blind_counters,
    count_encoding,
    encoder,
    exclusive_pfa_to_nafa,
    lapins,
    m1_eq,
    m2_eq,
    normalization_factor,
    shift_extreme,
    shift_interior,
    square_encoding,
    tensor,
    zoo,
)
from afalib.automata import dfa_automaton
from afalib.exactnum import Mat, vec
from afalib.quantum import leaf_vectors, qfa_accept


def counts(w: str) -> tuple[int, int]:
    return w.count("a"), w.count("b")


def sign(q) -> int:
    return (q > 0) - (q < 0)


def swap_accepting(machine: ClassicalAutomaton, accepting) -> ClassicalAutomaton:
    return ClassicalAutomaton.build(
        kind=machine.kind,
        states=machine.states,
        alphabet=machine.alphabet,
        transitions=dict(machine.transitions),
        initial=machine.initial,
        accepting=accepting,
    )


# --------------------------------------------------------------------- zoo


def test_zoo_names_and_dispatch():
    assert set(ZOO_NAMES) == {"m1_eq", "m2_eq", "lapins", "abs_eq"}
    assert zoo("m1_eq").size == 2
    assert zoo("m2_eq", x=Fraction(2)).size == 3
    assert zoo("m2_eq").size == 3  # scale defaults to 1
    with pytest.raises(ValueError):
        zoo("m3_eq")
    with pytest.raises(TypeError):
        zoo("m1_eq", x=3)  # only m2_eq takes a scale


def test_m1_eq_machine_shape():
    m = m1_eq()
    assert m.size == 2 and m.accepting == frozenset({0})
    assert not m.violations()
    assert m.transitions["a"] == Mat([["2", "0"], ["-1", "1"]])
    assert m.transitions["b"] == Mat([["1/2", "0"], ["1/2", "1"]])


def test_m1_eq_final_state_closed_form():
    m = m1_eq()
    for w in ("", "ab", "aab", "abbba", "bbaa"):
        mc, nc = counts(w)
        top = Fraction(2) ** (mc - nc)
        assert run(m, w) == (top, 1 - top)


def test_m1_eq_values():
    m = m1_eq()
    for w, value in prefix_values(m, 7):
        mc, nc = counts(w)
        if mc == nc:
            assert value == 1
        else:
            top = abs(Fraction(2) ** (mc - nc))
            assert value == top / (top + abs(1 - Fraction(2) ** (mc - nc)))
            assert value <= Fraction(2, 3)


def test_m2_eq_values_scale_with_x():
    for x in (Fraction(1), Fraction(3), Fraction(7, 2)):
        m = m2_eq(x)
        assert m.size == 3 and not m.violations()
        for w, value in prefix_values(m, 6):
            mc, nc = counts(w)
            if mc == nc:
                assert value == 1
            else:
                assert value == 1 / (2 * x * abs(mc - nc) + 1)


def test_m2_eq_rejects_scales_below_one():
    with pytest.raises(ValueError):
        m2_eq(Fraction(1, 2))


def abs_condition(mc: int, nc: int) -> bool:
    return abs(mc - nc) + abs(mc - 4 * nc) == abs(mc - 2 * nc) + abs(mc - 3 * nc)


def test_abs_eq_spot_values():
    m = abs_eq()
    assert m.size == 6 and not m.violations()
    assert run(m, "aab") == vec([1, 0, -1, -2, "3/2", "3/2"])
    assert accept_value(m, "aab") == Fraction(9, 14)
    # m = 8, n = 1 satisfies |m-n| + |m-4n| = |m-2n| + |m-3n|
    assert accept_value(m, "a" * 8 + "b") == Fraction(1, 2)


def test_abs_eq_halfline_characterizes_the_condition():
    m = abs_eq()
    for w, value in prefix_values(m, 8):
        mc, nc = counts(w)
        assert (value == Fraction(1, 2)) == abs_condition(mc, nc)


def lapins_counts(w: str) -> tuple[int, int, int]:
    return w.count("a"), w.count("b"), w.count("c")


def lapins_member(w: str) -> bool:
    x, y, z = lapins_counts(w)
    return x * x > y and y * y > z


def test_lapins_machine_shape():
    m = lapins()
    assert m.size == 25
    assert not m.violations()
    assert m.accepting == frozenset({0, 3})


def test_lapins_frozen_values():
    m = lapins()
    assert accept_value(m, "") == Fraction(1, 2)
    assert accept_value(m, "aab") == Fraction(2, 3)
    final = run(m, "aab")
    assert final[:5] == vec([4, 0, 1, -2, -2])
    assert all(x == 0 for x in final[5:])


def test_lapins_cutpoint_sign_tracks_the_oracle():
    m = lapins()
    half = Fraction(1, 2)
    for w, value in prefix_values(m, 4):
        assert (value > half) == lapins_member(w)


# ------------------------------------------------------------------ tensor


def test_tensor_shapes_and_final_states():
    left, right = m1_eq(), m2_eq(Fraction(1))
    prod = tensor(left, right)
    assert prod.size == 6
    assert prod.accepting == frozenset()
    assert not prod.violations()
    for w in ("", "a", "ab", "bba"):
        u, v = run(left, w), run(right, w)
        expect = tuple(ux * vx for ux in u for vx in v)
        assert run(prod, w) == expect


def test_tensor_requires_matching_alphabets():
    other = swap_accepting(lapins(), (0,))
    with pytest.raises(ValueError):
        tensor(m1_eq(), other)


# ---------------------------------------------------------- cutpoint shift


def test_shift_interior_adds_two_pad_states():
    m = m1_eq()
    moved = shift_interior(m, Fraction(5, 6), Fraction(1, 2))
    assert moved.size == m.size + 2
    assert not moved.violations()


def test_shift_interior_frozen_spot_values():
    moved = shift_interior(m1_eq(), Fraction(5, 6), Fraction(1, 2))
    assert accept_value(moved, "") == Fraction(4, 5)
    assert accept_value(moved, "a") == Fraction(13, 35)
    assert accept_value(moved, "aab") == Fraction(13, 35)


def test_shift_interior_preserves_three_way_comparisons():
    m = m1_eq()
    lam1, lam2 = Fraction(5, 6), Fraction(1, 4)
    moved = shift_interior(m, lam1, lam2)
    for (w, value), (w2, shifted) in zip(prefix_values(m, 6), prefix_values(moved, 6)):
        assert w == w2
        assert sign(value - lam1) == sign(shifted - lam2)


def test_shift_interior_sends_the_cutpoint_to_the_cutpoint():
    # a machine whose value is identically lam1 must move to exactly lam2
    prep = Mat([["1/3", "1/3"], ["2/3", "2/3"]])
    flat = ClassicalAutomaton.build(
        kind="afa",
        states=("p", "q"),
        alphabet=("a",),
        transitions={"a": Mat.identity(2), "cent": prep},
        initial=0,
        accepting=(0,),
    )
    moved = shift_interior(flat, Fraction(1, 3), Fraction(1, 4))
    for w in ("", "a", "aaa"):
        assert accept_value(flat, w) == Fraction(1, 3)
        assert accept_value(moved, w) == Fraction(1, 4)


def test_shift_interior_rejects_extreme_cutpoints():
    for lam1, lam2 in ((Fraction(0), Fraction(1, 2)), (Fraction(1, 2), Fraction(1))):
        with pytest.raises(ValueError):
            shift_interior(m1_eq(), lam1, lam2)


def test_shift_extreme_side_one_caps_at_the_cutpoint():
    m = m1_eq()
    lam = Fraction(3, 4)
    moved = shift_extreme(m, "one", lam)
    assert moved.size == m.size + 1
    for (w, value), (_, shifted) in zip(prefix_values(m, 6), prefix_values(moved, 6)):
        if value == 1:
            assert shifted == lam
        else:
            assert shifted < lam


def test_shift_extreme_side_zero_lifts_zero_to_the_cutpoint():
    m = swap_accepting(m1_eq(), (1,))  # value 0 exactly on balanced strings
    lam = Fraction(2, 5)
    moved = shift_extreme(m, "zero", lam)
    for (w, value), (_, shifted) in zip(prefix_values(m, 6), prefix_values(moved, 6)):
        if value == 0:
            assert shifted == lam
        else:
            assert shifted != lam


def test_shift_extreme_validates_arguments():
    with pytest.raises(ValueError):
        shift_extreme(m1_eq(), "sideways", Fraction(1, 2))
    with pytest.raises(ValueError):
        shift_extreme(m1_eq(), "one", Fraction(0))
    with pytest.raises(ValueError, match="side='one' needs at least one accepting state"):
        shift_extreme(replace(m1_eq(), accepting=()), "one", Fraction(1, 2))


# ------------------------------------------------- exclusive to nondet


def uniform_half_pfa() -> ClassicalAutomaton:
    """Mixing machine whose value is exactly 1/2 on every string."""
    mix = Mat([["1/4"] * 3, ["1/4"] * 3, ["1/2"] * 3])
    return ClassicalAutomaton.build(
        kind="pfa",
        states=("u", "v", "w"),
        alphabet=("a", "b"),
        transitions={"a": mix, "b": mix, "cent": mix},
        initial=0,
        accepting=(0, 1),
    )


def test_exclusive_pfa_to_nafa_value_formula():
    rng = random.Random(2024)
    for _ in range(3):
        pfa = rand.random_pfa(rng)
        nafa = exclusive_pfa_to_nafa(pfa)
        assert nafa.size == pfa.size  # all the work happens at the dollar stage
        assert not nafa.violations()
        for (w, p), (_, q) in zip(prefix_values(pfa, 5), prefix_values(nafa, 5)):
            gap = abs(1 - 2 * p)
            assert q == gap / (gap + 2 * p)


def test_exclusive_pfa_to_nafa_pads_single_state_machines():
    tiny = ClassicalAutomaton.build(
        kind="pfa",
        states=("only",),
        alphabet=("a",),
        transitions={"a": Mat.identity(1)},
        initial=0,
        accepting=(0,),
    )
    nafa = exclusive_pfa_to_nafa(tiny)
    assert nafa.size == 2
    assert not nafa.violations()
    # p is identically 1, so the folded value is 1/3 everywhere
    for w, value in prefix_values(nafa, 3):
        assert value == Fraction(1, 3)


def test_exclusive_pfa_to_nafa_zero_set():
    nafa = exclusive_pfa_to_nafa(uniform_half_pfa())
    for w, value in prefix_values(nafa, 5):
        assert value == 0


def test_exclusive_pfa_to_nafa_rejects_affine_input():
    with pytest.raises(ValueError):
        exclusive_pfa_to_nafa(m1_eq())


# -------------------------------------------------- affine to quantum


def test_normalization_factor_floors_at_one():
    assert normalization_factor(Mat.identity(3)) == 1.0
    assert normalization_factor(Mat([["1/2", 0], [0, "1/4"]])) == 1.0
    grow = normalization_factor(m1_eq().transitions["a"])
    assert grow == pytest.approx(math.sqrt(3 + math.sqrt(5)), abs=1e-12)


def test_afa_to_nqfa_channels_are_valid():
    for machine in (m1_eq(), abs_eq()):
        q = afa_to_nqfa(machine)
        assert q.size == 2 * machine.size
        assert q.violations() == []


def test_afa_to_nqfa_residual_names_avoid_the_original_ones():
    q = afa_to_nqfa(replace(m1_eq(), states=("e1", "e1.res")))
    assert q.states == ("e1", "e1.res", "e1.resx", "e1.res.res")


def test_afa_to_nqfa_tracks_the_affine_vector():
    m = m1_eq()
    q = afa_to_nqfa(m)
    factors = {
        sym: normalization_factor(m.transitions[sym])
        for sym in ("a", "b", "cent", "dollar")
    }
    for w in ("", "a", "ab", "ba", "aabb", "abab"):
        scale = factors["cent"] * factors["dollar"]
        for ch in w:
            scale *= factors[ch]
        v = run(m, w)
        got = qfa_accept(q, w)
        expect = sum(float(v[k]) ** 2 for k in m.accepting) / scale**2
        assert got == pytest.approx(expect, abs=1e-9)


def test_afa_to_nqfa_first_leaf_holds_the_scaled_state():
    m = m1_eq()
    q = afa_to_nqfa(m)
    leaves = leaf_vectors(q, "ab")
    v = run(m, "ab")
    ratio = leaves[0][0] / float(v[0])
    assert leaves[0][:2] == pytest.approx([float(x) * ratio for x in v])


def test_afa_to_nqfa_preserves_the_zero_set():
    m = swap_accepting(m1_eq(), (1,))
    q = afa_to_nqfa(m)
    for w, value in prefix_values(m, 5):
        quantum_value = qfa_accept(q, w)
        if value == 0:
            assert quantum_value == pytest.approx(0.0, abs=1e-9)
        else:
            assert quantum_value > 1e-9


# ----------------------------------------------------------- counters


def balanced_spec(scale=Fraction(1)) -> CounterMachineSpec:
    d = dfa_automaton(
        states=("q",),
        alphabet=("a", "b"),
        moves={("q", "a"): "q", ("q", "b"): "q"},
        initial="q",
        accepting=("q",),
    )
    return CounterMachineSpec(
        dfa=d, counters=1, increments={(0, "a"): (1,), (0, "b"): (-1,)}, scale=scale
    )


def test_counter_compilation_size():
    cm = compile_blind_counters(balanced_spec())
    assert cm.size == 3  # |Q| * 3^k
    assert not cm.violations()


def test_counter_values_track_the_final_counter():
    cm = compile_blind_counters(balanced_spec())
    for w, value in prefix_values(cm, 6):
        mc, nc = counts(w)
        if mc == nc:
            assert value == 1
        else:
            assert value == 1 / Fraction(2 * abs(mc - nc) + 1)


def test_counter_scale_sharpens_the_bound():
    cm = compile_blind_counters(balanced_spec(scale=Fraction(3)))
    assert accept_value(cm, "aab") == Fraction(1, 7)
    assert accept_value(cm, "aaab") == Fraction(1, 13)
    for w, value in prefix_values(cm, 5):
        mc, nc = counts(w)
        if mc != nc:
            assert value <= Fraction(1, 7)


def test_counter_rejection_gives_zero():
    d = dfa_automaton(
        states=("ok", "dead"),
        alphabet=("a", "b"),
        moves={
            ("ok", "a"): "ok",
            ("ok", "b"): "dead",
            ("dead", "a"): "dead",
            ("dead", "b"): "dead",
        },
        initial="ok",
        accepting=("ok",),
    )
    spec = CounterMachineSpec(
        dfa=d,
        counters=1,
        increments={
            (0, "a"): (1,),
            (0, "b"): (0,),
            (1, "a"): (0,),
            (1, "b"): (0,),
        },
    )
    cm = compile_blind_counters(spec)
    assert accept_value(cm, "ab") == 0
    assert accept_value(cm, "ba") == 0


def test_counter_spec_validation():
    d = balanced_spec().dfa
    with pytest.raises(ValueError):
        CounterMachineSpec(dfa=d, counters=0, increments={})
    with pytest.raises(ValueError):
        # wrong key set: every (state, symbol) pair must appear
        CounterMachineSpec(dfa=d, counters=1, increments={(0, "z"): (1,)})
    with pytest.raises(ValueError):
        # full coverage but a tuple of the wrong arity
        CounterMachineSpec(
            dfa=d, counters=1, increments={(0, "a"): (1, 2), (0, "b"): (-1,)}
        )
    with pytest.raises(ValueError):
        CounterMachineSpec(
            dfa=d, counters=1, increments={(0, "a"): (1,)}, scale=Fraction(1, 2)
        )


@pytest.mark.parametrize(
    "column, violation",
    [((1, 1), "sums to 2, expected 1"), (("1/2", "1/2"), "entry at row 0 is not 0 or 1")],
    ids=["ones", "halves"],
)
def test_counter_spec_refuses_an_invalid_controller(column, violation):
    # A (1, 1) column used to compile into a valid-looking affine machine.
    a = Mat.from_cols([column, (0, 1)])
    d = ClassicalAutomaton.build("dfa", ("p", "q"), ("a",), {"a": a}, 0, {0})
    with pytest.raises(ValueError, match=f"first: symbol a, column 0: {violation}"):
        CounterMachineSpec(dfa=d, counters=1, increments={(0, "a"): (1,), (1, "a"): (0,)})


@pytest.mark.parametrize("states, counters", [(2, 6), (1, 7), (1, 10**9)])
def test_counter_compilation_over_the_state_cap_raises(states, counters):
    # Checked before any matrix is built, so even 3**(10**9) states fail fast.
    names = tuple(f"q{i}" for i in range(states))
    d = dfa_automaton(states=names, alphabet=(), moves={}, initial="q0", accepting=())
    spec = CounterMachineSpec(dfa=d, counters=counters, increments={})
    with pytest.raises(ValueError, match="COUNTER_STATE_CAP"):
        compile_blind_counters(spec)


def test_two_counter_machines_need_both_at_zero():
    d = balanced_spec().dfa
    spec = CounterMachineSpec(
        dfa=d,
        counters=2,
        increments={(0, "a"): (1, -1), (0, "b"): (-1, 1)},
    )
    cm = compile_blind_counters(spec)
    assert cm.size == 9
    for w, value in prefix_values(cm, 5):
        mc, nc = counts(w)
        assert (value == 1) == (mc == nc)


# ----------------------------------------------------------- encoders


def test_count_encoding_closed_form():
    for m in range(0, 30):
        assert count_encoding(m) == (1, Fraction(m))


def test_square_encoding_closed_form():
    for m in range(0, 30):
        assert square_encoding(m) == (1, Fraction(2 * m + 1), Fraction(m * m))


def test_encoder_dispatch():
    assert encoder("increment", 4) == count_encoding(4)
    assert encoder("square", 4) == square_encoding(4)
    with pytest.raises(ValueError):
        encoder("cube", 4)
    with pytest.raises(ValueError):
        count_encoding(-1)


# ------------------------------------------------------- machine kinds


AFFINE_ONLY = "cutpoint shifting is defined for affine machines"


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda q: tensor(q, m1_eq()), "tensor products are defined for affine machines"),
        (lambda q: tensor(m1_eq(), q), "tensor products are defined for affine machines"),
        (lambda q: shift_interior(q, Fraction(1, 2), Fraction(1, 3)), AFFINE_ONLY),
        (lambda q: shift_extreme(q, "zero", Fraction(1, 2)), AFFINE_ONLY),
        (exclusive_pfa_to_nafa, "the exclusive construction starts from a probabilistic machine"),
        (afa_to_nqfa, "the quantum simulation starts from an affine machine"),
        (lambda q: CounterMachineSpec(q, 1, {}), "the controller must be a deterministic machine"),
    ],
    ids=["tensor-left", "tensor-right", "shift_interior", "shift_extreme", "exclusive_pfa_to_nafa", "afa_to_nqfa", "counter-controller"],
)
def test_a_quantum_machine_gets_the_message_of_a_classical_one_of_the_wrong_kind(build, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        build(afa_to_nqfa(m1_eq()))
