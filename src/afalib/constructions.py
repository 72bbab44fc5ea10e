"""Machine constructions: the reference zoo, products, cutpoint surgery,
probabilistic-to-affine and affine-to-quantum compilers, blind-counter
machines and the arithmetic encoders they are built from.

All classical constructions are exact; every guarantee stated in a
docstring holds with equality over the rationals, not just numerically.
"""

from __future__ import annotations

import itertools
from functools import reduce
from fractions import Fraction
from typing import Sequence

import numpy as np

from .automata import CENT, DOLLAR, ClassicalAutomaton, CounterMachineSpec
from .exactnum import ONE, ZERO, Mat, _entry, direct_sum, kron
from .quantum import QuantumAutomaton, Superoperator

__all__ = [
    "COUNTER_STATE_CAP",
    "CounterMachineSpec",
    "ZOO_NAMES",
    "abs_eq",
    "afa_to_nqfa",
    "compile_blind_counters",
    "count_encoding",
    "encoder",
    "exclusive_pfa_to_nafa",
    "lapins",
    "m1_eq",
    "m2_eq",
    "normalization_factor",
    "shift_extreme",
    "shift_interior",
    "square_encoding",
    "tensor",
    "zoo",
]


# ---------------------------------------------------------------------------
# reference zoo


def m1_eq() -> ClassicalAutomaton:
    """Two-state affine machine for strings with equal a and b counts.

    With m a's and n b's the final state is (2**(m-n), 1 - 2**(m-n)), so
    members evaluate to exactly 1 while every other string evaluates to
    at most 2/3. Any cutpoint in (2/3, 1) therefore separates the
    language; 5/6 sits in the middle with isolation radius 1/6.
    """
    a = Mat([[2, 0], [-1, 1]])
    b = Mat([["1/2", 0], ["1/2", 1]])
    return ClassicalAutomaton.build("afa", ("e1", "e2"), ("a", "b"), {"a": a, "b": b}, 0, {0})


def m2_eq(x=1) -> ClassicalAutomaton:
    """Three-state affine machine for equal a and b counts, scale ``x >= 1``.

    The final state is (1, (m-n)x, (n-m)x): members evaluate to exactly
    1 and every other string to 1 / (2x|m-n| + 1), so larger scales push
    non-members closer to zero.
    """
    x = Fraction(x)
    if x < 1:
        raise ValueError(f"scale must be at least 1, got {x}")
    a, b = _counter_gadget(1, x), _counter_gadget(-1, x)
    return ClassicalAutomaton.build("afa", ("e1", "e2", "e3"), ("a", "b"), {"a": a, "b": b}, 0, {0})


def abs_eq() -> ClassicalAutomaton:
    """Six-state affine machine for the absolute-difference balance language.

    For m a's and n b's the final state is
    (m-n, m-2n, m-3n, m-4n, (1-T)/2, (1-T)/2) with T = 4m - 10n, and
    states 1, 4 and 5 (1-based) accept. The value equals exactly 1/2 when
    |m-n| + |m-4n| = |m-2n| + |m-3n| and differs from 1/2 otherwise, so
    the machine recognizes that balance condition with exclusive
    cutpoint 1/2.
    """
    a3 = [[0, -1, -1], [1, 2, 1], [0, 0, 1]]
    b3 = [[0, -1, -1], [0, 1, 0], [1, 1, 2]]
    a = direct_sum(Mat(a3), Mat.identity(3))
    b = direct_sum(Mat(b3), Mat.identity(3))
    dollar = Mat(
        [
            [0, 1, -1, 1, 0, 0],
            [0, 1, -2, 0, 1, 0],
            [0, 1, -3, 0, 0, 1],
            [0, 1, -4, 0, 0, 0],
            ["1/2", "-3/2", "11/2", 0, 0, 0],
            ["1/2", "-3/2", "11/2", 0, 0, 0],
        ]
    )
    states = tuple(f"e{i}" for i in range(1, 7))
    return ClassicalAutomaton.build(
        "afa", states, ("a", "b"), {"a": a, "b": b, DOLLAR: dollar}, 0, {0, 3, 4}
    )


def _affine_step(n: int, extra) -> Mat:
    """The identity on ``n`` states plus the ``{(k, j): x}`` entries of
    ``extra``; the last state takes whatever keeps each column summing to 1."""
    entries = {(j, j): ONE for j in range(n)}
    for (k, j), x in extra.items():
        entries[k, j] = entries.get((k, j), ZERO) + x
        entries[n - 1, j] = entries.get((n - 1, j), ZERO) - x
    return Mat._sparse(n, n, entries)


# Both lapins trackers hold (constant 1, 2t+1, t^2, counter, balance) on
# five states for one squared count t; the balance state is the last. The
# squaring step is the recurrence (1, 2t+1, t^2) -> (1, 2t+3, (t+1)^2),
# seeded by the cent matrix which turns the initial basis vector into
# (1, 1, 0, 0, -1).
_LAPINS_SQUARE = _affine_step(5, {(1, 0): 2, (2, 1): 1})
_LAPINS_CENT = _affine_step(5, {(1, 0): 1})


def _lapins_tracker(
    counter_state: str, square_letter: str, count_letter: str, delta: int, dollar: Mat
) -> ClassicalAutomaton:
    # Tracks (t^2, delta * c): square_letter squares t, count_letter adds
    # delta to the counter c, and the third letter leaves both alone.
    transitions = {sym: Mat.identity(5) for sym in ("a", "b", "c")}
    transitions[square_letter] = _LAPINS_SQUARE
    transitions[count_letter] = _affine_step(5, {(3, 0): delta})
    transitions.update({CENT: _LAPINS_CENT, DOLLAR: dollar})
    states = ("one", "lin", "sq", counter_state, "bal")
    return ClassicalAutomaton.build("afa", states, ("a", "b", "c"), transitions, 0)


# Reshape (1, 2x+1, x^2, y, balance) into (x^2, y, 1-x^2-y, 0, 0) for
# x = |w|_a, y = |w|_b. Row 3 is the unique functional vanishing on every
# reachable state; it is what makes all five columns sum to 1.
_LEFT_DOLLAR = Mat(
    [
        [0, 0, 1, 0, 0],
        [0, 0, 0, 1, 0],
        [1, 0, -1, -1, 0],
        [0, 1, 1, 1, 1],
        [0, 0, 0, 0, 0],
    ]
)
# Reshape (1, 2y+1, y^2, -z, balance) into (y^2-z, 1-y^2+z, 0, 0, 0) for
# y = |w|_b, z = |w|_c.
_RIGHT_DOLLAR = Mat(
    [
        [0, 0, 1, 1, 0],
        [1, 0, -1, -1, 0],
        [0, 1, 1, 1, 1],
        [0, 0, 0, 0, 0],
        [0, 0, 0, 0, 0],
    ]
)


def lapins() -> ClassicalAutomaton:
    """Affine machine for the language x^2 > y and y^2 > z over a, b, c.

    Here x, y, z are the a, b, c counts. Two five-state trackers run in
    parallel (as a tensor product, 25 states): the left one ends in
    (x^2, y, 1-x^2-y, 0, 0), the right one in (y^2-z, 1-y^2+z, 0, 0, 0).
    One affine rearrangement folded into the dollar matrix turns their
    Kronecker product into

        (x^2(y^2-z), x^2(1-y^2+z), y, (1-T)/2, (1-T)/2, 0, ..., 0)

    with T the sum of the first three entries, accepting the first and
    fourth coordinates. The value v satisfies sign(v - 1/2) =
    sign(x^2 * d - y) where d = |y^2-z| - |1-y^2+z| is +1 when y^2 > z
    and -1 otherwise, so v > 1/2 exactly on members.
    """
    left = _lapins_tracker("cnt", "a", "b", 1, _LEFT_DOLLAR)
    right = _lapins_tracker("neg", "b", "c", -1, _RIGHT_DOLLAR)
    product = tensor(left, right)
    n = product.size
    half = Fraction(1, 2)
    # Column j of the stage sends its entry to routes[j]; unrouted columns stay put.
    routes = {
        0: {0: ONE},  # x^2 (y^2 - z)
        1: {1: ONE},  # x^2 (1 - y^2 + z)
        5: {2: ONE},  # y (y^2 - z), summed with:
        6: {2: ONE},  # y (1 - y^2 + z), together just y
        10: {3: half, 4: half},  # (1 - x^2 - y)(y^2 - z), split into the twin pads
        11: {3: half, 4: half},  # (1 - x^2 - y)(1 - y^2 + z)
    }
    stage = {(k, j): weight for j in range(n) for k, weight in routes.get(j, {j: ONE}).items()}
    return _append_stage(product, (), Mat._sparse(n, n, stage), {0, 3})


_ZOO = {"m1_eq": m1_eq, "m2_eq": m2_eq, "lapins": lapins, "abs_eq": abs_eq}
ZOO_NAMES = tuple(_ZOO)


def zoo(name: str, **params) -> ClassicalAutomaton:
    """Look up a reference machine by name; ``m2_eq`` takes ``x``."""
    if name not in _ZOO:
        raise ValueError(f"unknown zoo machine {name!r}; choose from {ZOO_NAMES}")
    return _ZOO[name](**params)


# ---------------------------------------------------------------------------
# products and cutpoint surgery


def _append_stage(machine: ClassicalAutomaton, extra_states, stage: Mat, accepting) -> ClassicalAutomaton:
    """Affine machine running ``machine`` with ``extra_states`` idle beside
    it, then ``stage`` after its dollar matrix."""
    k = len(extra_states)
    transitions = {sym: direct_sum(mat, Mat.identity(k)) if k else mat for sym, mat in machine.transitions.items()}
    transitions[DOLLAR] = stage @ transitions[DOLLAR]
    states = machine.states + tuple(extra_states)
    return ClassicalAutomaton.build("afa", states, machine.alphabet, transitions, machine.initial, accepting)


def tensor(m1: ClassicalAutomaton, m2: ClassicalAutomaton) -> ClassicalAutomaton:
    """Parallel product of two affine machines over one alphabet.

    Every matrix of the result is the Kronecker product of the component
    matrices, so for every string the final state equals the Kronecker
    product of the component final states. The accepting set is left
    empty for the caller to choose.
    """
    if m1.kind != "afa" or m2.kind != "afa":
        raise ValueError("tensor products are defined for affine machines")
    if m1.alphabet != m2.alphabet:
        raise ValueError(f"alphabets differ: {m1.alphabet} vs {m2.alphabet}")
    states = tuple(f"{p}.{q}" for p in m1.states for q in m2.states)
    transitions = {
        sym: kron(m1.transitions[sym], m2.transitions[sym])
        for sym in (*m1.alphabet, CENT, DOLLAR)
    }
    initial = m1.initial * m2.size + m2.initial
    return ClassicalAutomaton.build("afa", states, m1.alphabet, transitions, initial)


def shift_interior(machine: ClassicalAutomaton, lam1, lam2) -> ClassicalAutomaton:
    """Move a strictly interior cutpoint: sign(f'(w) - lam2) = sign(f(w) - lam1).

    Adds two pad states and one rescaling stage after the old dollar
    matrix. Accepting final entries are scaled by lam2/lam1,
    non-accepting ones by (1-lam2)/(1-lam1); whatever each column loses
    or gains is balanced on the pads, split lam2 to the accepting pad and
    1-lam2 to the rejecting pad. The three-way sign equivalence is exact.
    """
    lam1, lam2 = _entry(lam1), _entry(lam2)
    if machine.kind != "afa":
        raise ValueError("cutpoint shifting is defined for affine machines")
    if not (0 < lam1 < 1 and 0 < lam2 < 1):
        raise ValueError("both cutpoints must lie strictly between 0 and 1")
    n = machine.size
    scale_acc = lam2 / lam1
    scale_rej = (1 - lam2) / (1 - lam1)
    stage = {(n, n): ONE, (n + 1, n + 1): ONE}
    for j in range(n):
        c = scale_acc if j in machine.accepting else scale_rej
        stage[j, j] = c
        stage[n, j] = lam2 * (1 - c)
        stage[n + 1, j] = (1 - lam2) * (1 - c)
    return _append_stage(machine, ("pad.acc", "pad.rej"), Mat._sparse(n + 2, n + 2, stage), machine.accepting | {n})


def shift_extreme(machine: ClassicalAutomaton, side: str, lam) -> ClassicalAutomaton:
    """Pin an extreme acceptance value to an interior cutpoint, exactly.

    side="zero": f(w) = 0 becomes f'(w) = lam and f(w) > 0 lands strictly
    above lam. Each non-accepting state keeps a 1-lam share of its final
    value and sends the lam share to a fresh accepting partner.

    side="one": f(w) = 1 becomes f'(w) = lam and f(w) < 1 lands strictly
    below lam. Each accepting state keeps the lam share and sends 1-lam
    to a fresh non-accepting partner.
    """
    lam = _entry(lam)
    if machine.kind != "afa":
        raise ValueError("cutpoint shifting is defined for affine machines")
    if side not in ("zero", "one"):
        raise ValueError(f"side must be 'zero' or 'one', got {side!r}")
    if not 0 < lam < 1:
        raise ValueError("the target cutpoint must lie strictly between 0 and 1")
    n = machine.size
    if side == "zero":
        targets = sorted(set(range(n)) - machine.accepting)
        keep, move = 1 - lam, lam
        suffix = "acc"
    else:
        targets = sorted(machine.accepting)
        keep, move = lam, 1 - lam
        suffix = "rej"
    if not targets:
        needed = "non-accepting" if side == "zero" else "accepting"
        raise ValueError(f"side={side!r} needs at least one {needed} state")
    k = len(targets)
    stage = {(j, j): ONE for j in range(n + k)}
    for i, j in enumerate(targets):
        stage[j, j] = keep
        stage[n + i, j] = move
    partners = tuple(f"{machine.states[j]}.{suffix}" for j in targets)
    accepting = machine.accepting | set(range(n, n + k)) if side == "zero" else machine.accepting
    return _append_stage(machine, partners, Mat._sparse(n + k, n + k, stage), accepting)


def exclusive_pfa_to_nafa(machine: ClassicalAutomaton) -> ClassicalAutomaton:
    """Affine machine whose zero set is the exclusive 1/2 set of a PFA.

    For every string, the new machine's value is |1-2p| / (|1-2p| + 2p)
    where p is the probabilistic acceptance, so f'(w) = 0 exactly when
    p = 1/2, and f'(w) > 0 otherwise. Two dollar-stage matrices do the
    work: a collector summing the non-accepting and accepting final mass
    onto the first two states, then an affine fold mapping (1-p, p) to
    (1-2p, 2p). Machines with a single state are padded first.
    """
    if machine.kind not in ("pfa", "dfa"):
        raise ValueError("the exclusive construction starts from a probabilistic machine")
    n = max(machine.size, 2)
    collect = Mat._sparse(n, n, {(1 if j in machine.accepting else 0, j): ONE for j in range(n)})
    fold = Mat([[1, -1], [0, 2]])
    if n > 2:
        fold = direct_sum(fold, Mat.identity(n - 2))
    return _append_stage(machine, ("pad",) * (n - machine.size), fold @ collect, {0})


# ---------------------------------------------------------------------------
# affine to quantum


def _mat_to_array(mat: Mat) -> np.ndarray:
    return np.array([[float(x) for x in row] for row in mat.tolists()])


def normalization_factor(mat: Mat) -> float:
    """Channel scale for one transition matrix: max(1, spectral norm)."""
    return max(1.0, float(np.linalg.norm(_mat_to_array(mat), 2)))


def _psd_sqrt(matrix: np.ndarray) -> np.ndarray:
    values, vectors = np.linalg.eigh(matrix)
    values = np.clip(values, 0.0, None)
    return (vectors * np.sqrt(values)) @ vectors.T


def _fresh_names(taken: Sequence[str], base_names: Sequence[str], suffix: str) -> tuple[str, ...]:
    used = set(taken)
    out = []
    for name in base_names:
        candidate = f"{name}.{suffix}"
        while candidate in used:
            candidate += "x"
        used.add(candidate)
        out.append(candidate)
    return tuple(out)


def afa_to_nqfa(machine: ClassicalAutomaton) -> QuantumAutomaton:
    """Nondeterministic quantum simulation of an affine machine.

    The quantum machine has 2n states: the original block plus a residual
    block. For each symbol the first operation element is
    diag(A, I) / l with l = max(1, largest singular value of A), so the
    original block evolves as a scaled copy of the affine computation.
    The leftover I - E^T E is positive semidefinite; its symmetric square
    root is split row-wise into two further elements supported entirely
    on the residual block, which restores trace preservation without ever
    writing back into the original block. Symbols acting as the identity
    need no extra elements.

    Consequences, with l_w the product of the per-symbol scales over
    ``cent + w + dollar`` and v the exact affine final state: the
    acceptance probability equals sum over accepting k of v[k]^2 / l_w^2,
    so it is zero exactly when the affine machine's value is zero.
    """
    if machine.kind != "afa":
        raise ValueError("the quantum simulation starts from an affine machine")
    n = machine.size
    states = machine.states + _fresh_names(machine.states, machine.states, "res")
    channels = {}
    for sym in (*machine.alphabet, CENT, DOLLAR):
        try:
            a = _mat_to_array(machine.transitions[sym])
            scale = normalization_factor(machine.transitions[sym])
        except OverflowError:
            raise ValueError(f"symbol {sym!r} has a matrix entry past float range") from None
        top = np.zeros((2 * n, 2 * n))
        top[:n, :n] = a
        top[n:, n:] = np.eye(n)
        first = top / scale
        residual = np.eye(2 * n) - first.T @ first
        residual = (residual + residual.T) / 2.0
        if np.abs(residual).max() == 0.0:
            channels[sym] = Superoperator((first,))
            continue
        root = _psd_sqrt(residual)
        second = np.zeros((2 * n, 2 * n))
        second[n:, :] = root[:n, :]
        third = np.zeros((2 * n, 2 * n))
        third[n:, :] = root[n:, :]
        channels[sym] = Superoperator((first, second, third))
    return QuantumAutomaton.build(
        states, machine.alphabet, channels, machine.initial, machine.accepting
    )


# ---------------------------------------------------------------------------
# blind counters


def _counter_gadget(delta: int, scale: Fraction) -> Mat:
    # Three states holding (1, c*x, -c*x) for counter value c: adding
    # delta only touches the first column.
    return _affine_step(3, {(1, 0): delta * scale})


COUNTER_STATE_CAP = 3**6


def compile_blind_counters(spec: CounterMachineSpec) -> ClassicalAutomaton:
    """Compile a blind-counter machine into one affine machine.

    States are controller states paired with one three-state gadget per
    counter, so the result has |Q| * 3**k states. After reading ``w`` the
    state vector is the controller basis vector tensored with the gadget
    vectors (1, c_i x, -c_i x), hence l1 norm prod(1 + 2|c_i| x). Joint
    states whose gadgets all sit on their first coordinate accept when
    the controller state accepts, which yields: value 1 exactly when the
    controller accepts and all counters are zero, value at most
    1/(2x + 1) when some counter is nonzero, value 0 when the controller
    rejects.

    Letter matrices are ``kron(D, I) @ diag(B_q ...)``, with ``B_q`` the
    Kronecker product of state ``q``'s gadgets; end-markers are
    ``kron(D, I)``. The dense machine file grows as the square of the
    state count, so more than ``COUNTER_STATE_CAP`` states raise
    ``ValueError`` up front.
    """
    dfa = spec.dfa
    k, x = spec.counters, spec.scale
    if k > COUNTER_STATE_CAP or dfa.size * 3**k > COUNTER_STATE_CAP:  # k first keeps 3**k small
        raise ValueError(f"{dfa.size} * 3**{k} states is more than COUNTER_STATE_CAP = {COUNTER_STATE_CAP}")
    gdim = 3**k
    gadget_tags = ["".join(str(g) for g in combo) for combo in itertools.product(range(3), repeat=k)]
    states = tuple(f"{q}.{tag}" for q in dfa.states for tag in gadget_tags)

    ident_g = Mat.identity(gdim)
    transitions = {sym: kron(dfa.transitions[sym], ident_g) for sym in (*dfa.alphabet, CENT, DOLLAR)}
    for sym in dfa.alphabet:
        # Gadget block of controller state q, moved to the block of its target.
        blocks = [reduce(kron, (_counter_gadget(d, x) for d in spec.increments[(q, sym)])) for q in range(dfa.size)]
        transitions[sym] = transitions[sym] @ reduce(direct_sum, blocks)
    accepting = {q * gdim for q in dfa.accepting}
    return ClassicalAutomaton.build(
        "afa", states, dfa.alphabet, transitions, dfa.initial * gdim, accepting
    )


# ---------------------------------------------------------------------------
# arithmetic encoders


def _iterate(step: Mat, v: tuple[Fraction, ...], m: int) -> tuple[Fraction, ...]:
    if m < 0:
        raise ValueError("counts are nonnegative")
    for _ in range(m):
        v = step.apply(v)
    return v


def count_encoding(m: int) -> tuple[Fraction, ...]:
    """(1, m) after m applications of the unit-increment step to (1, 0)."""
    return _iterate(Mat([[1, 0], [1, 1]]), (ONE, ZERO), m)


def square_encoding(m: int) -> tuple[Fraction, ...]:
    """(1, 2m+1, m^2) after m applications of the squaring step to (1, 1, 0)."""
    return _iterate(Mat([[1, 0, 0], [2, 1, 0], [0, 1, 1]]), (ONE, ONE, ZERO), m)


def encoder(kind: str, m: int) -> tuple[Fraction, ...]:
    """Dispatch on encoder kind: ``increment`` or ``square``."""
    if kind == "increment":
        return count_encoding(m)
    if kind == "square":
        return square_encoding(m)
    raise ValueError(f"unknown encoder kind {kind!r}")
