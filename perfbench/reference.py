"""Ground truth computed apart from afalib.

Closed forms for the zoo machines (from their docstrings), the
membership tests of their languages, length-lexicographic string
enumeration, and a plain-``Fraction`` evaluator over nested lists that
never calls ``afalib.exactnum.Mat``. The benchmark checks the program's
outputs against these, and the self-tests check these against
``afalib.accept_value``.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

CENT = "cent"
DOLLAR = "dollar"
M2_SCALE = 3  # the x of m2_eq in every workload


def strings(alphabet, maxlen: int):
    """Every string up to ``maxlen``, shortest first, lexicographic within a length."""
    for length in range(maxlen + 1):
        for combo in itertools.product(alphabet, repeat=length):
            yield "".join(combo)


def count_strings(size: int, maxlen: int) -> int:
    """Number of strings up to ``maxlen`` over ``size`` letters: (k^(L+1)-1)/(k-1)."""
    return (size ** (maxlen + 1) - 1) // (size - 1)


def weighted(final, accepting) -> Fraction:
    """Affine readout: absolute accepting mass over the l1 norm."""
    mass = sum((abs(final[k]) for k in accepting), Fraction(0))
    return mass / sum((abs(x) for x in final), Fraction(0))


# ---------------------------------------------------------------------------
# final states of the zoo machines, as their docstrings state them


def m1_final(w: str):
    d = Fraction(2) ** (w.count("a") - w.count("b"))
    return (d, 1 - d)


def abs_eq_final(w: str):
    m, n = w.count("a"), w.count("b")
    t = 4 * m - 10 * n
    pad = Fraction(1 - t, 2)
    return (Fraction(m - n), Fraction(m - 2 * n), Fraction(m - 3 * n), Fraction(m - 4 * n), pad, pad)


def lapins_final(w: str):
    x, y, z = w.count("a"), w.count("b"), w.count("c")
    head = (Fraction(x * x * (y * y - z)), Fraction(x * x * (1 - y * y + z)), Fraction(y))
    pad = (1 - sum(head)) / 2
    return head + (pad, pad) + (Fraction(0),) * 20


FINALS = {
    "m1_eq": (m1_final, (0,)),
    "abs_eq": (abs_eq_final, (0, 3, 4)),
    "lapins": (lapins_final, (0, 3)),
}


def balance_value(w: str) -> Fraction:
    """The compiled one-counter machine: 1/(1 + 4|m-n|) at scale 2."""
    return Fraction(1, 1 + 4 * abs(w.count("a") - w.count("b")))


def zoo_value(name: str, w: str) -> Fraction:
    """Acceptance value of a zoo machine (or the balance machine) by closed form."""
    if name == "balance":
        return balance_value(w)
    if name == "m1_eq":
        d = Fraction(2) ** (w.count("a") - w.count("b"))
        return d / (abs(d) + abs(1 - d))
    if name == "m2_eq":
        return Fraction(1, 2 * M2_SCALE * abs(w.count("a") - w.count("b")) + 1)
    final, accepting = FINALS[name]
    return weighted(final(w), accepting)


# ---------------------------------------------------------------------------
# language membership


def eq_member(w: str) -> bool:
    return w.count("a") == w.count("b")


def abseq_member(w: str) -> bool:
    m, n = w.count("a"), w.count("b")
    return abs(m - n) + abs(m - 4 * n) == abs(m - 2 * n) + abs(m - 3 * n)


def lapins_member(w: str) -> bool:
    x, y, z = w.count("a"), w.count("b"), w.count("c")
    return x * x > y and y * y > z


MEMBERS = {"eq": eq_member, "abseq": abseq_member, "lapins": lapins_member}


# ---------------------------------------------------------------------------
# plain evaluator


class PlainMachine:
    """A classical machine copied into nested lists of ``Fraction``."""

    def __init__(self, machine):
        self.kind = machine.kind
        self.alphabet = tuple(machine.alphabet)
        self.accepting = tuple(sorted(machine.accepting))
        self.size = machine.size
        self.initial = machine.initial
        self.rows = {sym: mat.tolists() for sym, mat in machine.transitions.items()}

    def step(self, sym: str, v):
        return [sum((a * x for a, x in zip(row, v) if a), Fraction(0)) for row in self.rows[sym]]

    def start(self):
        v = [Fraction(0)] * self.size
        v[self.initial] = Fraction(1)
        return self.step(CENT, v)

    def final(self, w: str):
        v = self.start()
        for sym in w:
            v = self.step(sym, v)
        return self.step(DOLLAR, v)

    def readout(self, final) -> Fraction:
        if self.kind == "afa":
            return weighted(final, self.accepting)
        return sum((final[k] for k in self.accepting), Fraction(0))

    def value(self, w: str) -> Fraction:
        return self.readout(self.final(w))

    def values(self, maxlen: int) -> dict[str, Fraction]:
        """Values of every string up to ``maxlen``, sharing prefixes."""
        out = {}
        frontier = [("", self.start())]
        while frontier:
            grown = []
            for w, v in frontier:
                out[w] = self.readout(self.step(DOLLAR, v))
                if len(w) < maxlen:
                    grown.extend((w + sym, self.step(sym, v)) for sym in self.alphabet)
            frontier = grown
        return out


def sign(x) -> int:
    return (x > 0) - (x < 0)
