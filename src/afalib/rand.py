"""Seeded samplers for random machines and vectors.

Used by the test suite to fuzz the constructions with reproducible
inputs. Classical entries are drawn from a small dyadic grid so every
sampled machine is exactly representable and the suites are byte-stable
across runs.
"""

from __future__ import annotations

import random
from fractions import Fraction

import numpy as np

from .automata import CENT, DOLLAR, ClassicalAutomaton
from .exactnum import Mat
from .quantum import QuantumAutomaton, Superoperator

GRID = 8  # classical entries are multiples of 1/GRID


def _affine_column(rng: random.Random, n: int, bound: Fraction) -> list[Fraction]:
    # Draw n-1 entries from the grid and complete the column to sum 1;
    # retry until the completion also lands inside [-bound, bound].
    steps = int(bound * GRID)
    while True:
        head = [Fraction(rng.randint(-steps, steps), GRID) for _ in range(n - 1)]
        last = 1 - sum(head)
        if abs(last) <= bound:
            return head + [last]


def random_affine_mat(rng: random.Random, n: int, bound=Fraction(2)) -> Mat:
    bound = Fraction(bound)
    return Mat.from_cols([_affine_column(rng, n, bound) for _ in range(n)])


def _random_classical(rng: random.Random, kind: str, n: int, alphabet, sample) -> ClassicalAutomaton:
    """A ``kind`` machine whose letters and dollar are ``sample()`` matrices, drawn in that order."""
    transitions = {sym: sample() for sym in alphabet}
    transitions[DOLLAR] = sample()
    initial = rng.randrange(n)
    accepting = frozenset(k for k in range(n) if rng.random() < 0.5) or frozenset({0})
    states = tuple(f"s{i}" for i in range(n))
    return ClassicalAutomaton.build(kind, states, tuple(alphabet), transitions, initial, accepting)


def random_afa(
    rng: random.Random, n: int = 3, alphabet=("a", "b"), bound=Fraction(2)
) -> ClassicalAutomaton:
    """Random affine machine with entries in [-bound, bound], random dollar."""
    return _random_classical(rng, "afa", n, alphabet, lambda: random_affine_mat(rng, n, bound))


def _stochastic_column(rng: random.Random, n: int) -> list[Fraction]:
    while True:
        weights = [rng.randint(0, GRID) for _ in range(n)]
        total = sum(weights)
        if total:
            return [Fraction(wt, total) for wt in weights]


def random_stochastic_mat(rng: random.Random, n: int) -> Mat:
    return Mat.from_cols([_stochastic_column(rng, n) for _ in range(n)])


def random_pfa(rng: random.Random, n: int = 3, alphabet=("a", "b")) -> ClassicalAutomaton:
    """Random probabilistic machine with exact rational columns, random dollar."""
    return _random_classical(rng, "pfa", n, alphabet, lambda: random_stochastic_mat(rng, n))


def random_channel(rng: np.random.Generator, n: int, elements: int = 2) -> Superoperator:
    """Random trace-preserving channel: a stacked orthonormal frame, split."""
    stacked = rng.standard_normal((elements * n, n))
    q, _ = np.linalg.qr(stacked)
    return Superoperator(tuple(q[i * n : (i + 1) * n, :] for i in range(elements)))


def random_qfa(
    rng: np.random.Generator, n: int = 2, alphabet=("a", "b"), elements: int = 2
) -> QuantumAutomaton:
    """Random quantum machine whose every channel (markers included) is random."""
    channels = {sym: random_channel(rng, n, elements) for sym in alphabet}
    channels[CENT] = random_channel(rng, n, elements)
    channels[DOLLAR] = random_channel(rng, n, elements)
    initial = int(rng.integers(n))
    accepting = frozenset({int(rng.integers(n))})
    states = tuple(f"q{i}" for i in range(n))
    return QuantumAutomaton.build(states, tuple(alphabet), channels, initial, accepting)


def random_rational_vector(rng: random.Random, n: int, bound=Fraction(2)) -> tuple[Fraction, ...]:
    """Random vector on the grid with at least one nonzero entry."""
    steps = int(Fraction(bound) * GRID)
    while True:
        v = tuple(Fraction(rng.randint(-steps, steps), GRID) for _ in range(n))
        if any(v):
            return v
