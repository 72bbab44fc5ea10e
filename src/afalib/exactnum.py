"""Exact rational scalars and sparse matrix algebra.

Every classical machine in this package evaluates over
:class:`fractions.Fraction`, so nothing in this module ever rounds.
Matrices follow the column-to-row transition convention: entry ``m[k, j]``
is the weight carried from state ``j`` to state ``k``, and state column
vectors evolve by left multiplication, ``v2 = m.apply(v)``.

A matrix is stored only as its integer form: each row's nonzero
``(column, numerator)`` pairs over one common denominator. Every matrix
is built from its nonzero entries, the algebra works over them, and the
dense view is derived on demand.
:meth:`Mat.step` applies the form, compiled once per matrix into
straight-line integer code, to an :data:`ExactState`, a
vector written as integer numerators over one positive denominator with
no common factor, so each exact vector has exactly one such form and can
key a dict. Nothing in the kernel is a float; :func:`state_vector` turns
a state back into fractions.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from decimal import Decimal
from enum import Enum
from fractions import Fraction
from typing import Callable, Iterable, Sequence

Rational = Fraction

# (numerators, denominator): the vector numerators / denominator, reduced.
ExactState = tuple[tuple[int, ...], int]

ZERO = Fraction(0)
ONE = Fraction(1)

# Sums of more terms than this compile to one flat sum(); see _sum_source.
_CHAIN_TERMS = 64

_RATIONAL_FORM = re.compile(r"-?[0-9]+(/[1-9][0-9]*)?\Z")


class RationalParseError(ValueError):
    """Raised for text that is not a valid rational literal."""


def parse_rational(text: str) -> Fraction:
    """Parse ``-?digits[/digits]`` into a fraction in lowest terms.

    The denominator, when present, must be a positive integer without a
    leading zero, so ``"3/0"``, ``"1.5"`` and ``"1/-2"`` are all rejected.
    """
    if not isinstance(text, str) or not _RATIONAL_FORM.match(text):
        raise RationalParseError(f"not a rational literal: {text!r}")
    num, _, den = text.partition("/")
    try:
        return Fraction(int(num), int(den or 1))
    except ValueError:
        # Past Python's int/str digit cap; Decimal converts exactly and has no cap.
        return Fraction(int(Decimal(num)), int(Decimal(den or 1)))


def render_rational(value: Fraction) -> str:
    """Inverse of :func:`parse_rational`: lowest terms, no ``/1`` suffix."""
    value = value if type(value) is Fraction else Fraction(value)
    try:
        return str(value)
    except ValueError:
        # Past Python's int/str digit cap, as in parse_rational.
        num = str(Decimal(value.numerator))
        return num if value.denominator == 1 else f"{num}/{Decimal(value.denominator)}"


def _entry(value) -> Fraction:
    # Floats are refused on purpose: silently converting them would smuggle
    # binary rounding into a module whose whole point is exactness.
    if isinstance(value, float):
        raise TypeError(f"float entry {value!r} not allowed; pass Fraction, int or str")
    return value if type(value) is Fraction else Fraction(value)


def vec(entries: Iterable) -> tuple[Fraction, ...]:
    """Coerce an iterable into an exact state vector."""
    out = tuple(_entry(x) for x in entries)
    if not out:
        raise ValueError("vectors need at least one entry")
    return out


def basis_vector(size: int, index: int) -> tuple[Fraction, ...]:
    if not 0 <= index < size:
        raise ValueError(f"basis index {index} out of range for size {size}")
    return tuple(ONE if i == index else ZERO for i in range(size))


def exact_state(v: Sequence[Fraction]) -> ExactState:
    """Canonical integer form of an exact vector.

    The denominator is the least common multiple of the entries'
    denominators, which leaves no factor common to it and every numerator.
    """
    den = math.lcm(*(x.denominator for x in v))
    return tuple(x.numerator * (den // x.denominator) for x in v), den


def state_vector(state: ExactState) -> tuple[Fraction, ...]:
    """Inverse of :func:`exact_state`."""
    nums, den = state
    return tuple(Fraction(x, den) for x in nums)


def vec_sum(v: Sequence[Fraction]) -> Fraction:
    return sum(v, ZERO)


def l1_norm(v: Sequence[Fraction]) -> Fraction:
    """Sum of absolute entries. Always at least ``abs(vec_sum(v))``."""
    return sum((abs(x) for x in v), ZERO)


class MatrixKind(Enum):
    AFFINE = "affine"
    STOCHASTIC = "stochastic"
    UNCONSTRAINED = "unconstrained"


def _nonzeros(lines: Iterable[Iterable], kind: str) -> tuple[int, int, dict[tuple[int, int], Fraction]]:
    """``(count, length, {(i, j): x})``: the nonzero entries ``x = lines[i][j]`` of equal-length lines."""
    data = [[_entry(x) for x in line] for line in lines]
    if not data or not data[0]:
        raise ValueError("matrices need at least one row and one column")
    length = len(data[0])
    if any(len(line) != length for line in data):
        raise ValueError(f"ragged matrix {kind}")
    return len(data), length, {(i, j): x for i, line in enumerate(data) for j, x in enumerate(line) if x}


def _sum_source(terms: list[str]) -> str:
    """Source of the sum of ``terms``: a chain of ``+``, or one flat ``sum`` when long.

    A chain of thousands of ``+`` nests too deep to compile.
    """
    if len(terms) > _CHAIN_TERMS:
        return f"sum(({', '.join(terms)},))"
    return " + ".join(terms) or "0"


def _tuple_source(exprs: list[str]) -> str:
    return f"({''.join(e + ', ' for e in exprs)})"


def _compile_rows(
    cols: int, rows, ret: Callable[[list[str]], str] = _tuple_source, **scope
) -> Callable[[ExactState], object]:
    """A straight-line function of an exact state that returns ``ret`` of the integer rows' dot products.

    ``ret(exprs)`` writes the return expression from the source of each
    row's dot product with the numerators, in order; besides ``exprs`` it
    may use ``den``, the state's denominator, and the names bound in
    ``scope``. By default it is the tuple of the dot products: rows
    ``((0, 3), (2, -1))`` and ``((1, 7),)`` compile to
    ``def kernel(state): (x0, x1, x2, ), den = state; return (c0*x0 + -x2, c1*x1, )``
    with ``c0 = 3`` and ``c1 = 7`` bound as globals: a coefficient is never
    written as digits, which past the int/str digit cap cannot be
    rendered. Each row is a :func:`_sum_source` of its terms.
    """
    names: dict[int, str] = {}  # coefficient -> the global bound to it

    def term(j: int, a: int) -> str:
        if a == 1:
            return f"x{j}"
        if a == -1:
            return f"-x{j}"
        return f"{names.setdefault(a, f'c{len(names)}')}*x{j}"

    exprs = [_sum_source([term(j, a) for j, a in row]) for row in rows]
    source = (
        "def kernel(state):\n"
        f" ({''.join(f'x{j}, ' for j in range(cols))}), den = state\n"
        f" return {ret(exprs)}\n"
    )
    scope.update((name, a) for a, name in names.items())
    exec(source, scope)
    # Popped, so the function and its globals form no reference cycle and
    # go as soon as their owner does.
    return scope.pop("kernel")


class Mat:
    """Immutable matrix of exact rationals, stored as its :meth:`integer_form`."""

    # _kernel: the compiled integer step, None until the first step().
    __slots__ = ("rows", "cols", "_form", "_kernel")

    def __new__(cls, rows: Iterable[Iterable]):
        height, width, entries = _nonzeros(rows, "rows")
        return cls._sparse(height, width, entries)

    @classmethod
    def _sparse(cls, rows: int, cols: int, entries) -> "Mat":
        """The ``rows`` x ``cols`` matrix with ``{(k, j): value}`` ``entries``, zero elsewhere."""
        entries = {key: e for key, x in entries.items() if (e := _entry(x))}
        d = math.lcm(*(x.denominator for x in entries.values()))
        grouped = [[] for _ in range(rows)]
        for (k, j), x in entries.items():
            grouped[k].append((j, x.numerator * (d // x.denominator)))
        return cls._of(cols, d, tuple(tuple(sorted(row)) for row in grouped))

    @classmethod
    def _of(cls, cols: int, d: int, rows) -> "Mat":
        """The matrix ``rows / d`` with ``cols`` columns, its form made canonical."""
        g = math.gcd(d, *(a for row in rows for _, a in row))
        if g > 1:
            d //= g
            rows = tuple(tuple((j, a // g) for j, a in row) for row in rows)
        m = object.__new__(cls)
        object.__setattr__(m, "rows", len(rows))
        object.__setattr__(m, "cols", cols)
        object.__setattr__(m, "_form", (d, rows))
        object.__setattr__(m, "_kernel", None)
        return m

    def __setattr__(self, name, value):
        raise AttributeError("Mat is immutable")

    @classmethod
    def identity(cls, n: int) -> "Mat":
        if n < 1:
            raise ValueError("matrices need at least one row and one column")
        return cls._of(n, 1, tuple(((i, 1),) for i in range(n)))

    @classmethod
    def from_cols(cls, cols: Iterable[Iterable]) -> "Mat":
        """Build from column vectors, matching how transitions are usually read."""
        width, height, entries = _nonzeros(cols, "columns")
        return cls._sparse(height, width, {(k, j): x for (j, k), x in entries.items()})

    def __getitem__(self, key: tuple[int, int]) -> Fraction:
        k, j = key
        return self.row(k)[j]

    def row(self, k: int) -> tuple[Fraction, ...]:
        d, rows = self._form
        out = [ZERO] * self.cols
        for j, a in rows[k]:
            out[j] = Fraction(a, d)
        return tuple(out)

    def col(self, j: int) -> tuple[Fraction, ...]:
        return tuple(row[j] for row in self.tolists())

    def tolists(self) -> list[list[Fraction]]:
        """The dense view: one list of fractions per row."""
        return [list(self.row(k)) for k in range(self.rows)]

    def column_sums(self) -> tuple[Fraction, ...]:
        d, rows = self._form
        sums = [0] * self.cols
        for row in rows:
            for j, a in row:
                sums[j] += a
        return tuple(Fraction(x, d) for x in sums)

    def apply(self, v: Sequence[Fraction]) -> tuple[Fraction, ...]:
        """Left-multiply a state column vector: returns ``self @ v``."""
        if len(v) != self.cols:
            raise ValueError(f"vector length {len(v)} does not match {self.cols} columns")
        d, rows = self._form
        return tuple(sum((a * v[j] for j, a in row), ZERO) / d for row in rows)

    def integer_form(self) -> tuple[int, tuple[tuple[tuple[int, int], ...], ...]]:
        """``(d, rows)``: ``d * self`` as integer rows of nonzero ``(j, entry)`` pairs.

        ``d`` is the least common denominator of the entries, so no factor
        is common to it and every numerator: each matrix has exactly one
        form, and it is the only one a matrix stores.
        """
        return self._form

    def step(self, state: ExactState) -> ExactState:
        """:meth:`apply` on integer states: ``exact_state(self @ state_vector(state))``.

        The numerators go through a function compiled from :meth:`integer_form`
        on the matrix's first ``step`` (see :func:`_compile_rows`).
        """
        nums, den = state
        if len(nums) != self.cols:
            raise ValueError(f"vector length {len(nums)} does not match {self.cols} columns")
        kernel = self._kernel
        if kernel is None:
            kernel = _compile_rows(self.cols, self._form[1])
            object.__setattr__(self, "_kernel", kernel)
        out = kernel(state)
        den *= self._form[0]
        g = math.gcd(*out, den)
        if g == 1:
            return out, den
        return tuple(x // g for x in out), den // g

    def __matmul__(self, other: "Mat") -> "Mat":
        if not isinstance(other, Mat):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        d, rows = self._form
        e, other_rows = other._form
        out = []
        for row in rows:
            acc: dict[int, int] = {}
            for j, a in row:
                for c, b in other_rows[j]:
                    acc[c] = acc.get(c, 0) + a * b
            out.append(tuple(sorted((c, x) for c, x in acc.items() if x)))
        return Mat._of(other.cols, d * e, tuple(out))

    def __eq__(self, other) -> bool:
        return isinstance(other, Mat) and self.cols == other.cols and self._form == other._form

    def __hash__(self) -> int:
        return hash((self.cols, self._form))

    def __repr__(self) -> str:
        body = "; ".join(" ".join(render_rational(x) for x in row) for row in self.tolists())
        return f"Mat[{body}]"


def kron(a: Mat, b: Mat) -> Mat:
    """Kronecker product; block (i, j) of the result is ``a[i, j] * b``."""
    (da, arows), (db, brows) = a.integer_form(), b.integer_form()
    rows = tuple(tuple((i * b.cols + j, x * y) for i, x in arow for j, y in brow) for arow in arows for brow in brows)
    return Mat._of(a.cols * b.cols, da * db, rows)


def kron_vec(u: Sequence[Fraction], v: Sequence[Fraction]) -> tuple[Fraction, ...]:
    return tuple(x * y for x in u for y in v)


def direct_sum(a: Mat, b: Mat) -> Mat:
    """Block-diagonal sum ``diag(a, b)``."""
    (da, arows), (db, brows) = a.integer_form(), b.integer_form()
    d = math.lcm(da, db)
    rows = tuple(tuple((j, x * (d // da)) for j, x in row) for row in arows) + tuple(
        tuple((a.cols + j, x * (d // db)) for j, x in row) for row in brows
    )
    return Mat._of(a.cols + b.cols, d, rows)


@dataclass(frozen=True)
class KindViolation:
    """One offending column of a matrix that fails its kind constraint."""

    col: int
    reason: str

    def __str__(self) -> str:
        return f"column {self.col}: {self.reason}"


def validate_kind(m: Mat, kind: MatrixKind) -> list[KindViolation]:
    """Check the column constraints for a matrix kind.

    Affine matrices need every column to sum to exactly 1; stochastic
    matrices additionally need every entry in [0, 1]. An empty list means
    the matrix is valid. Unconstrained matrices always pass.
    """
    if kind is MatrixKind.UNCONSTRAINED:
        return []
    d, rows = m.integer_form()
    bad: dict[int, tuple[int, int]] = {}  # column -> (row, numerator) of its first entry outside [0, 1]
    if kind is MatrixKind.STOCHASTIC:
        for k, row in enumerate(rows):
            for j, a in row:
                if not 0 <= a <= d:
                    bad.setdefault(j, (k, a))
    out = []
    for j, total in enumerate(m.column_sums()):
        if total != 1:
            out.append(KindViolation(j, f"sums to {render_rational(total)}, expected 1"))
        if j in bad:
            k, a = bad[j]
            out.append(KindViolation(j, f"entry at row {k} is {render_rational(Fraction(a, d))}, outside [0, 1]"))
    return out
