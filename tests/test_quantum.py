"""Tests for superoperator channels and the quantum machine semantics."""

import hashlib
import inspect
import math
from dataclasses import fields, replace
from itertools import product

import numpy as np
import pytest

from afalib.automata import dfa_automaton, prefix_values
from afalib import quantum
from afalib.constructions import abs_eq, afa_to_nqfa, lapins, m1_eq
from afalib.quantum import (
    QuantumAutomaton,
    Superoperator,
    _accept_from_density,
    _accepting_block,
    _clamped,
    _clamped_block,
    apply_channel,
    basis_density,
    density_defects,
    leaf_acceptance,
    leaf_count,
    leaf_vectors,
    projective_measure,
    qfa_accept,
    qfa_final_density,
    qfa_prefix_values,
    validate_channel,
)
from afalib.rand import random_channel, random_qfa
from afalib.recognition import enumerate_strings


def rotation(theta: float) -> np.ndarray:
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


def overflowing_machine() -> QuantumAutomaton:
    """Its 'a' element squares 1e200: reading 'a' makes the density infinite."""
    return QuantumAutomaton.build(
        states=("p", "q"),
        alphabet=("a", "b"),
        channels={"a": Superoperator((np.array([[1e200, 0.0], [-1e200, 1.0]]),)), "b": Superoperator.identity(2)},
        initial=0,
        accepting=(1,),
    )


def block_machine(seed: int) -> QuantumAutomaton:
    """Random valid 6-state machine whose accepting block is 3 scattered states.

    Each channel's first two elements act block-diagonally on three states
    S and the other three; two more elements move the rest of S's mass out
    of S and have zero rows in S. States are shuffled, so S is not a prefix.
    """
    rng = np.random.default_rng(seed)
    order = rng.permutation(6)
    shuffle = np.eye(6)[order]

    def channel() -> Superoperator:
        inner, outer = random_channel(rng, 3, 2), random_channel(rng, 3, 2)
        keep = float(rng.uniform(0.5, 0.9))
        elements = []
        for a, b in zip(inner.elements, outer.elements):
            e = np.zeros((6, 6))
            e[:3, :3], e[3:, 3:] = math.sqrt(keep) * a, b
            elements.append(e)
        # Two leaks whose squares add up to (1 - keep) on S.
        for rows in ((0, 1), (2,)):
            e = np.zeros((6, 6))
            for i, k in enumerate(rows):
                e[3 + i, k] = math.sqrt(1 - keep)
            elements.append(e)
        return Superoperator(tuple(shuffle @ e @ shuffle.T for e in elements))

    inside = [int(np.flatnonzero(order == k)[0]) for k in range(3)]
    return QuantumAutomaton(
        tuple(f"q{i}" for i in range(6)),
        ("a", "b"),
        {sym: channel() for sym in ("a", "b", "cent", "dollar")},
        inside[1],
        frozenset({inside[2], inside[0]}),
    )


def rotation_machine(theta: float) -> QuantumAutomaton:
    """One real rotation per letter; acceptance is sin^2 of the total angle."""
    return QuantumAutomaton.build(
        states=("zero", "one"),
        alphabet=("a",),
        channels={"a": Superoperator((rotation(theta),))},
        initial=0,
        accepting=(1,),
    )


# ---------------------------------------------------------------- channels


def test_identity_channel_is_valid_and_inert():
    ch = Superoperator.identity(3)
    assert ch.dim == 3
    assert ch.kraus_deviation() == 0.0
    rho = basis_density(3, 1)
    assert np.array_equal(apply_channel(ch, rho), rho)


def test_validate_channel_tolerance_boundary():
    ch = Superoperator((np.eye(2) * 1.001,))
    report = validate_channel(ch)
    assert not report.ok
    assert report.deviation > report.tolerance
    assert validate_channel(ch, kappa=1.0).ok


def test_measurement_channel_decoheres():
    meas = Superoperator((np.diag([1.0, 0.0]), np.diag([0.0, 1.0])))
    assert validate_channel(meas).ok
    plus = np.full((2, 2), 0.5)
    out = apply_channel(meas, plus)
    assert np.allclose(out, np.diag([0.5, 0.5]))


def test_channel_elements_must_share_shape():
    with pytest.raises(ValueError):
        Superoperator((np.eye(2), np.eye(3)))
    with pytest.raises(ValueError):
        Superoperator((np.ones((2, 3)),))
    with pytest.raises(ValueError, match="must be finite"):
        Superoperator((np.array([[np.inf]]),))


def test_basis_density_rejects_an_index_out_of_range():
    with pytest.raises(ValueError, match="basis index 5 out of range for dimension 2"):
        basis_density(2, 5)


def test_random_channels_are_valid():
    rng = np.random.default_rng(7)
    for n, elements in ((2, 2), (3, 2), (4, 3)):
        ch = random_channel(rng, n, elements)
        assert len(ch.elements) == elements
        assert validate_channel(ch).ok


def test_apply_channel_steps_a_stack_as_its_densities_one_by_one():
    # Bit for bit: qfa_prefix_values steps stacks, qfa_accept one density.
    rng = np.random.default_rng(23)
    for n, elements, count in ((2, 2, 1), (3, 3, 7), (5, 4, 40)):
        ch = random_qfa(rng, n=n, elements=elements).channels["a"]
        stack = rng.standard_normal((count, n, n))
        stack = stack + stack.transpose(0, 2, 1)
        out = apply_channel(ch, stack)
        assert out.shape == stack.shape
        for got, rho in zip(out, stack):
            assert np.array_equal(got, apply_channel(ch, rho))


@pytest.mark.parametrize("shape", [(4, 3, 4), (3,), (2, 4, 3, 3)], ids=["N,d,d+1", "1-D", "4-D"])
def test_apply_channel_rejects_stacks_of_the_wrong_shape(shape):
    with pytest.raises(ValueError, match="does not match channel dimension 3"):
        apply_channel(Superoperator.identity(3), np.zeros(shape))


def test_trace_preserved_by_valid_channels():
    rng = np.random.default_rng(11)
    ch = random_channel(rng, 3, 2)
    rho = basis_density(3, 0)
    for _ in range(5):
        rho = apply_channel(ch, rho)
        assert abs(np.trace(rho) - 1.0) < 1e-12
        assert not density_defects(rho)


# ---------------------------------------------------------------- densities


def test_basis_density():
    rho = basis_density(2, 1)
    assert rho[1, 1] == 1.0 and rho[0, 0] == 0.0


def test_density_defects_flag_bad_matrices():
    assert density_defects(np.diag([0.7, 0.7]))
    assert density_defects(np.array([[0.5, 0.3], [0.2, 0.5]]))
    assert density_defects(np.diag([1.5, -0.5]))
    assert density_defects(np.zeros((2, 3))) == ["not square: shape (2, 3)"]
    assert not density_defects(np.diag([0.25, 0.75]))


def test_projective_measure_splits_mass():
    rho = np.diag([0.25, 0.75])
    out = projective_measure([{0}, {1}], rho)
    assert [round(p, 12) for p, _ in out] == [0.25, 0.75]
    assert np.allclose(out[0][1], basis_density(2, 0))
    assert np.allclose(out[1][1], basis_density(2, 1))


def test_projective_measure_reports_empty_branches():
    out = projective_measure([{0}, {1}], basis_density(2, 0))
    assert out[0][0] == pytest.approx(1.0)
    assert out[1][1] is None


# --------------------------------------------------------------- machines


def test_build_checks_channel_dimensions():
    with pytest.raises(ValueError):
        QuantumAutomaton.build(
            states=("p", "q"),
            alphabet=("a",),
            channels={"a": Superoperator.identity(3)},
            initial=0,
        )


def test_violations_catch_invalid_channels():
    broken = QuantumAutomaton.build(
        states=("p", "q"),
        alphabet=("a",),
        channels={"a": Superoperator((np.eye(2) * 2.0,))},
        initial=0,
    )
    assert broken.violations()
    assert not rotation_machine(0.3).violations()


def test_rotation_machine_accepts_sine_squared():
    theta = math.pi / 8
    m = rotation_machine(theta)
    for k in range(6):
        expected = math.sin(k * theta) ** 2
        assert qfa_accept(m, "a" * k) == pytest.approx(expected, abs=1e-12)


def test_acceptance_is_clamped_to_unit_interval():
    m = rotation_machine(math.pi / 2)
    for w in ("", "a", "aa", "aaa"):
        assert 0.0 <= qfa_accept(m, w) <= 1.0


def test_final_density_stays_a_density():
    rng = np.random.default_rng(3)
    m = random_qfa(rng, n=3, elements=2)
    for w in ("", "a", "ab", "bba"):
        assert not density_defects(qfa_final_density(m, w))


def test_qfa_prefix_values_match_direct_evaluation():
    rng = np.random.default_rng(5)
    m = random_qfa(rng)
    for w, value in qfa_prefix_values(m, 3):
        assert value == pytest.approx(qfa_accept(m, w), abs=1e-12)


@pytest.mark.parametrize(
    "machine, maxlen",
    [
        (afa_to_nqfa(m1_eq()), 6),
        (random_qfa(np.random.default_rng(11), n=3, elements=2), 5),
        # 50 states: a level of length 4 spans several blocks.
        (afa_to_nqfa(lapins()), 4),
        # Several accepting states: the readout's order of addition shows.
        (replace(random_qfa(np.random.default_rng(29), n=6, elements=3), accepting=frozenset({5, 0, 3})), 5),
    ],
    ids=["afa_to_nqfa(m1_eq)", "random_qfa", "afa_to_nqfa(lapins)", "random_qfa-3-accepting"],
)
def test_qfa_prefix_values_equal_qfa_accept_bit_for_bit(machine, maxlen):
    # Same channels in the same order from the same start: no float may differ.
    rows = list(qfa_prefix_values(machine, maxlen))
    letters = "".join(machine.alphabet)
    assert [w for w, _ in rows] == ["".join(p) for n in range(maxlen + 1) for p in product(letters, repeat=n)]
    for w, value in rows:
        assert value == qfa_accept(machine, w)


# sha256 of one "w value.hex()" line per string, taken before levels were
# stepped in blocks (the same with 1 and 2 BLAS threads). m1_eq's accepting
# block is 1x1, so even its deepest level fits in one block of densities;
# the deepest abs_eq and lapins levels span several, and
# test_the_accepting_block_reads_the_full_density_bit_for_bit covers
# levels of several blocks on more machines.
FLOAT_DIGESTS = [
    (m1_eq, 13, "4df923a7b6f950d8d2aa33830e3c21add4955a501e9817e9498eb1611dbcba65"),
    (abs_eq, 10, "61f112080ea2f5024c8de98b17bae821a57ad5237c89f900112f2e4294150b7b"),
    (lapins, 5, "7b9941b9418c1328fc8f83725b938fa2f0745832e03ac48d4a448c1618ed09f1"),
]


@pytest.mark.parametrize("build, maxlen, digest", FLOAT_DIGESTS, ids=["m1_eq", "abs_eq", "lapins"])
def test_qfa_prefix_values_match_their_pinned_floats(build, maxlen, digest):
    text = "".join(f"{w} {value.hex()}\n" for w, value in qfa_prefix_values(afa_to_nqfa(build()), maxlen))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


@pytest.mark.filterwarnings("error")
def test_a_block_is_clamped_as_each_of_its_values_is():
    raw = [-0.0, 0.0, -1e-12, -5e-324, 5e-324, 0.25, 1.0, 1.0 + 2**-52, 7.0]
    words = [f"w{k}" for k in range(len(raw))]
    clamped = _clamped_block(words, np.array(raw))
    expected = [_clamped(w, x) for w, x in zip(words, raw)]
    # Bit for bit, so the sign of zero counts: -0.0 == 0.0, but their hex differs.
    assert [x.hex() for x in clamped] == [x.hex() for x in expected]
    assert all(type(x) is float for x in clamped)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_a_block_names_its_first_value_that_is_not_finite(bad):
    raw = np.array([0.5, 2.0, bad, math.nan, 0.25])
    with pytest.raises(ValueError, match=f"acceptance of 'w2' is {bad!r}, not a finite number"):
        _clamped_block([f"w{k}" for k in range(len(raw))], raw)


def test_a_non_finite_acceptance_raises_naming_the_string():
    m = overflowing_machine()
    assert "inf" in m.violations()[0]
    assert qfa_accept(m, "b") == 0.0
    with pytest.raises(ValueError, match="acceptance of 'a' is .*not a finite number"):
        qfa_accept(m, "a")
    values = qfa_prefix_values(m, 2)
    assert next(values) == ("", 0.0)
    with pytest.raises(ValueError, match="acceptance of 'a' is .*not a finite number"):
        next(values)


def test_afa_to_nqfa_steps_its_original_block_through_one_element():
    for build, states in ((m1_eq, 1), (abs_eq, 6), (lapins, 25)):
        machine = afa_to_nqfa(build())
        channels, start, _ = _accepting_block(machine)
        assert start.shape == (1, states, states)
        assert machine.size == 2 * build().size
        assert {len(channel.elements) for channel in channels.values()} == {1}


def test_block_machine_steps_a_proper_subset():
    machine = block_machine(3)
    assert all(len(channel.elements) == 4 for channel in machine.channels.values())
    assert not machine.violations()
    channels, start, accepting = _accepting_block(machine)
    assert start.shape == (1, 3, 3) and start.sum() == 1.0
    assert all(len(channel.elements) == 2 for channel in channels.values())
    assert len(accepting) == 2


@pytest.mark.parametrize(
    "machine, maxlen",
    [
        (afa_to_nqfa(m1_eq()), 9),
        (afa_to_nqfa(abs_eq()), 8),
        (afa_to_nqfa(lapins()), 5),
        (block_machine(3), 8),
        (block_machine(4), 8),
    ],
    ids=["afa_to_nqfa(m1_eq)", "afa_to_nqfa(abs_eq)", "afa_to_nqfa(lapins)", "block_machine-3", "block_machine-4"],
)
def test_the_accepting_block_reads_the_full_density_bit_for_bit(machine, maxlen, monkeypatch):
    # Small blocks, so that every level past the first few spans several.
    monkeypatch.setattr(quantum, "BLOCK_FLOATS", 64)
    rows = list(qfa_prefix_values(machine, maxlen))
    assert len(rows) == sum(len(machine.alphabet) ** n for n in range(maxlen + 1))
    assert any(0.0 < value < 1.0 for _, value in rows)
    for w, value in rows:
        full = _accept_from_density(machine.accepting, qfa_final_density(machine, w)[None])
        assert value == qfa_accept(machine, w) == _clamped(w, float(full[0]))


def test_a_machine_without_accepting_states_accepts_nothing():
    machine = replace(random_qfa(np.random.default_rng(31), n=3, elements=2), accepting=frozenset())
    channels, start, accepting = _accepting_block(machine)
    assert start.shape == (1, 0, 0) and accepting == []
    assert all(channel.dim == 0 for channel in channels.values())
    assert list(qfa_prefix_values(machine, 3)) == [(w, 0.0) for w in enumerate_strings(machine.alphabet, 3)]
    assert qfa_accept(machine, "ab") == 0.0


def test_an_initial_state_outside_the_block_accepts_nothing():
    # q and r never read p, so the block is {q, r}, and p keeps its mass.
    turn = np.eye(3)
    turn[1:, 1:] = rotation(0.7)
    stay = np.diag([1.0, 0.0, 0.0])
    machine = QuantumAutomaton.build(
        states=("p", "q", "r"),
        alphabet=("a", "b"),
        channels={"a": Superoperator((turn,)), "b": Superoperator((turn - stay, stay))},
        initial=0,
        accepting=(2,),
    )
    assert not machine.violations()
    channels, start, _ = _accepting_block(machine)
    assert start.shape == (1, 2, 2) and not start.any()
    assert [len(channels[sym].elements) for sym in ("a", "b")] == [1, 1]
    values = list(qfa_prefix_values(machine, 4))
    assert values == [(w, 0.0) for w in enumerate_strings(machine.alphabet, 4)]
    assert qfa_accept(machine, "ba") == 0.0
    assert qfa_final_density(machine, "ba")[0, 0] == 1.0


@pytest.mark.filterwarnings("error")
def test_an_overflow_outside_the_accepting_block_leaves_the_acceptance_finite():
    # r reads p and grows by 1e200 a letter; the block {p} reads only p.
    m = QuantumAutomaton.build(
        states=("p", "q", "r"),
        alphabet=("a",),
        channels={"a": Superoperator((np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 0.0, 1e200]]),))},
        initial=0,
        accepting=(0,),
    )
    # In the full density 0 * inf reaches p from the second letter on.
    full = _accept_from_density(m.accepting, qfa_final_density(m, "aa")[None])
    assert math.isnan(full[0])
    assert qfa_accept(m, "aa") == qfa_accept(m, "aaa") == 1.0
    assert list(qfa_prefix_values(m, 4)) == [("a" * n, 1.0) for n in range(5)]


def test_a_machine_builds_its_accepting_block_once(monkeypatch):
    built = []

    def counting(machine):
        built.append(machine)
        return _accepting_block(machine)

    monkeypatch.setattr(quantum, "_accepting_block", counting)
    machine = afa_to_nqfa(lapins())
    value = qfa_accept(machine, "abcab")
    assert qfa_accept(machine, "abcab") == value
    assert dict(qfa_prefix_values(machine, 5))["abcab"] == value
    assert len(built) == 1 and built[0] is machine
    assert not machine._block[1].flags.writeable
    # A changed copy is a new machine, with a block of its own.
    copy = replace(machine, alphabet=("c", "b", "a"))
    assert qfa_accept(copy, "abcab") == value
    assert len(built) == 2 and built[1] is copy


def test_the_quantum_lane_is_a_class_constant():
    assert QuantumAutomaton.kind == afa_to_nqfa(m1_eq()).kind == "qfa"
    names = ["states", "alphabet", "channels", "initial", "accepting"]
    assert [f.name for f in fields(QuantumAutomaton)] == names
    assert list(inspect.signature(QuantumAutomaton).parameters) == names


def test_qfa_prefix_values_stays_lazy():
    values = qfa_prefix_values(afa_to_nqfa(m1_eq()), 10**6)
    assert next(values)[0] == ""
    assert next(values)[0] == "a"


def test_prefix_values_stop_when_the_alphabet_is_empty_in_both_lanes():
    dfa = dfa_automaton(states=("p",), alphabet=(), moves={}, initial="p", accepting=("p",))
    assert list(prefix_values(dfa, 10**6)) == [("", 1)]
    m = QuantumAutomaton.build(states=("p",), alphabet=(), channels={}, initial=0, accepting=(0,))
    assert list(qfa_prefix_values(m, 10**6)) == [("", 1.0)]


def test_prefix_values_reject_negative_maxlen_in_both_lanes():
    with pytest.raises(ValueError, match="nonnegative"):
        next(prefix_values(m1_eq(), -1))
    with pytest.raises(ValueError, match="nonnegative"):
        next(qfa_prefix_values(afa_to_nqfa(m1_eq()), -1))


# ----------------------------------------------------------- leaf vectors


def test_leaf_count_grows_with_element_count():
    rng = np.random.default_rng(9)
    m = random_qfa(rng, n=2, elements=2)
    # cent, w, dollar each branch once per element
    assert leaf_count(m, "") == 4
    assert leaf_count(m, "ab") == 16


def test_single_element_channels_have_one_leaf():
    m = rotation_machine(0.4)
    leaves = leaf_vectors(m, "aa")
    assert len(leaves) == 1
    amp = leaves[0]
    assert amp @ amp == pytest.approx(1.0)
    assert amp[1] ** 2 == pytest.approx(qfa_accept(m, "aa"), abs=1e-12)


def test_leaf_aggregate_matches_density_semantics():
    rng = np.random.default_rng(13)
    for _ in range(4):
        m = random_qfa(rng, n=2, elements=2)
        for w in ("", "a", "ba", "abb"):
            assert leaf_acceptance(m, w) == pytest.approx(qfa_accept(m, w), abs=1e-9)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("w", ["a", "aa"])
def test_a_non_finite_leaf_acceptance_raises_naming_the_string(w):
    m = overflowing_machine()
    assert leaf_acceptance(m, "b") == 0.0
    assert len(leaf_vectors(m, w)) == 1  # its overflow warns nothing on stderr
    with pytest.raises(ValueError, match=f"acceptance of '{w}' is .*not a finite number"):
        leaf_acceptance(m, w)


def test_leaf_enumeration_respects_the_cap():
    rng = np.random.default_rng(17)
    m = random_qfa(rng, n=2, elements=2)
    with pytest.raises(ValueError):
        leaf_vectors(m, "aaaa", cap=8)
    assert len(leaf_vectors(m, "aa", cap=16)) == 16
