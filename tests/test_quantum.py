"""Tests for superoperator channels and the quantum machine semantics."""

import math
from itertools import product

import numpy as np
import pytest

from afalib.automata import prefix_values
from afalib.constructions import afa_to_nqfa, m1_eq
from afalib.quantum import (
    QuantumAutomaton,
    Superoperator,
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


def rotation(theta: float) -> np.ndarray:
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


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


def test_random_channels_are_valid():
    rng = np.random.default_rng(7)
    for n, elements in ((2, 2), (3, 2), (4, 3)):
        ch = random_channel(rng, n, elements)
        assert len(ch.elements) == elements
        assert validate_channel(ch).ok


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
    [(afa_to_nqfa(m1_eq()), 6), (random_qfa(np.random.default_rng(11), n=3, elements=2), 5)],
    ids=["afa_to_nqfa(m1_eq)", "random_qfa"],
)
def test_qfa_prefix_values_equal_qfa_accept_bit_for_bit(machine, maxlen):
    # Same channels in the same order from the same start: no float may differ.
    rows = list(qfa_prefix_values(machine, maxlen))
    assert [w for w, _ in rows] == ["".join(p) for n in range(maxlen + 1) for p in product("ab", repeat=n)]
    for w, value in rows:
        assert value == qfa_accept(machine, w)


def test_qfa_prefix_values_stays_lazy():
    values = qfa_prefix_values(afa_to_nqfa(m1_eq()), 10**6)
    assert next(values)[0] == ""
    assert next(values)[0] == "a"


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


def test_leaf_enumeration_respects_the_cap():
    rng = np.random.default_rng(17)
    m = random_qfa(rng, n=2, elements=2)
    with pytest.raises(ValueError):
        leaf_vectors(m, "aaaa", cap=8)
    assert len(leaf_vectors(m, "aa", cap=16)) == 16
