"""Plain-text automaton files.

The format is line oriented. ``#`` starts a comment, blank lines are
ignored. A header names the machine, then one matrix section per symbol:

    kind afa
    states e1 e2
    alphabet a b
    initial e1
    accepting e1

    symbol a
    2 0
    -1 1

    symbol b
    1/2 0
    1/2 1

Classical entries are rationals (``-?digits[/digits]``). The reserved
symbol names ``cent`` and ``dollar`` hold the end-marker matrices and may
be omitted, in which case they default to the identity. Quantum machines
(``kind qfa``) list one or more operation elements per symbol, each
introduced by an ``element`` line, with decimal float entries:

    symbol a
    element
    0.5 0.5
    -0.5 0.5

Counter machine inputs for the ``construct counters`` command read
their header by the same rules, with ``counters`` and ``scale`` keys,
followed by ``transition FROM SYMBOL TO`` and ``increment STATE SYMBOL
d1 .. dk`` lines; see :func:`loads_counter_spec`.
"""

from __future__ import annotations

import math
import os
from fractions import Fraction
from functools import partial
from typing import Callable, Sequence, Union

from .automata import KINDS, RESERVED_SYMBOLS, ClassicalAutomaton, CounterMachineSpec, dfa_automaton
from .exactnum import Mat, parse_rational, render_rational
from .quantum import QuantumAutomaton, Superoperator

Machine = Union[ClassicalAutomaton, QuantumAutomaton]

_HEADER_KEYS = ("kind", "states", "alphabet", "initial", "accepting")
_COUNTER_KEYS = (*_HEADER_KEYS, "counters", "scale")
_OPTIONAL = {"accepting": (), "scale": ("1",)}
_SINGLE_VALUED = ("kind", "initial", "counters", "scale")


class FormatError(ValueError):
    """Raised for unreadable automaton or counter files."""


def _logical_lines(text: str) -> list[tuple[int, list[str]]]:
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0].strip()
        if body:
            out.append((lineno, body.split()))
    return out


def _parse_header(lines, path_hint: str, keys=_HEADER_KEYS):
    """Split ``lines`` into the header (a dict over ``keys``) and the body.

    Header lines come first, each key once; a header key in the body is
    an error. Keys in ``_OPTIONAL`` take their default when absent.
    """
    if not lines:
        raise FormatError(f"{path_hint}: empty file")
    header: dict[str, Sequence[str]] = {}
    index = 0
    while index < len(lines) and lines[index][1][0] in keys:
        lineno, (key, *values) = lines[index]
        if key in header:
            raise FormatError(f"{path_hint}:{lineno}: duplicate header line {key!r}")
        header[key] = values
        index += 1
    body = lines[index:]
    for lineno, tokens in body:
        if tokens[0] in keys:
            raise FormatError(f"{path_hint}:{lineno}: header line {tokens[0]!r} after the body started")
    missing = [k for k in keys if k not in header and k not in _OPTIONAL]
    if missing:
        raise FormatError(f"{path_hint}: missing header lines: {', '.join(missing)}")
    header = {k: _OPTIONAL[k] for k in keys if k in _OPTIONAL} | header
    for key in _SINGLE_VALUED:
        if key in header and len(header[key]) != 1:
            raise FormatError(f"{path_hint}: header line {key!r} needs exactly one value")
    if not header["states"]:
        raise FormatError(f"{path_hint}: header line 'states' needs at least one name")
    return header, body


def _state_indices(header, path_hint: str):
    states = tuple(header["states"])
    index = {name: i for i, name in enumerate(states)}
    initial_name = header["initial"][0]
    if initial_name not in index:
        raise FormatError(f"{path_hint}: unknown initial state {initial_name!r}")
    accepting = []
    for name in header["accepting"]:
        if name not in index:
            raise FormatError(f"{path_hint}: unknown accepting state {name!r}")
        accepting.append(index[name])
    return states, index[initial_name], accepting


def _row(tokens, width, lineno, path_hint, entry):
    if len(tokens) != width:
        raise FormatError(f"{path_hint}:{lineno}: expected {width} entries, got {len(tokens)}")
    try:
        return [entry(tok) for tok in tokens]
    except ValueError as exc:
        raise FormatError(f"{path_hint}:{lineno}: {exc}") from None


def _float_entry(tok: str) -> float:
    try:
        value = float(tok)
    except ValueError:
        raise ValueError(f"not a float: {tok!r}") from None
    if not math.isfinite(value):
        raise ValueError(f"non-finite entry {tok!r}")
    return value


def loads_automaton(text: str, path_hint: str = "<string>") -> Machine:
    """Parse an automaton file body. Raises :class:`FormatError` on bad input.

    An error tied to one line reads ``path:line: ...``: a repeated or late
    header line, a bad ``symbol`` line or a repeated section, rows before
    a ``symbol`` or ``element`` line, a row of the wrong width, an
    unreadable entry. Any other error reads ``path: ...``: a missing or
    mis-valued header line, an unknown kind or state name, and every rule
    the machine classes check when built (the alphabet, one section per
    symbol, matrix and channel shapes). An error in building one symbol's
    matrix or channel, such as an empty section or operation element,
    reads ``path: symbol 'a': ...``.
    """
    header, body = _parse_header(_logical_lines(text), path_hint)
    kind = header["kind"][0]
    if kind not in _MACHINES:
        raise FormatError(f"{path_hint}: unknown machine kind {kind!r}")
    parse, convert, build = _MACHINES[kind]
    states, initial, accepting = _state_indices(header, path_hint)
    alphabet = tuple(header["alphabet"])
    n = len(states)

    sections: dict[str, list[tuple[int, list[str]]]] = {}
    current: list[tuple[int, list[str]]] | None = None
    for lineno, tokens in body:
        if tokens[0] == "symbol":
            if len(tokens) != 2:
                raise FormatError(f"{path_hint}:{lineno}: 'symbol' needs exactly one name")
            name = tokens[1]
            if name in sections:
                raise FormatError(f"{path_hint}:{lineno}: duplicate section for symbol {name!r}")
            current = sections.setdefault(name, [])
        else:
            if current is None:
                raise FormatError(f"{path_hint}:{lineno}: matrix rows before any 'symbol' line")
            current.append((lineno, tokens))

    table = {}
    entry = _Entries(convert).__getitem__
    for sym, rows in sections.items():
        try:
            table[sym] = parse(rows, n, path_hint, entry)
        except FormatError:
            raise
        except ValueError as exc:
            raise FormatError(f"{path_hint}: symbol {sym!r}: {exc}") from None
    try:
        return build(states, alphabet, table, initial, accepting)
    except ValueError as exc:
        raise FormatError(f"{path_hint}: {exc}") from None


class _Entries(dict):
    """The entry tokens of one file, each converted by ``convert`` on first sight.

    Machine files repeat a few tokens (``0``, ``1``, ``1/2``) many times;
    the values are immutable, so equal tokens share one. A token seen
    before costs one dict lookup, which a dict subclass makes at C level.
    """

    def __init__(self, convert: Callable[[str], object]):
        super().__init__()
        self.convert = convert

    def __missing__(self, token: str):
        value = self[token] = self.convert(token)
        return value


def _parse_matrix(body, n, path_hint, entry) -> Mat:
    return Mat([_row(tokens, n, lineno, path_hint, entry) for lineno, tokens in body])


def _parse_channel(body, n, path_hint, entry) -> Superoperator:
    elements: list[list[list[float]]] = []
    for lineno, tokens in body:
        if tokens == ["element"]:
            elements.append([])
        elif not elements:
            raise FormatError(f"{path_hint}:{lineno}: matrix rows before any 'element' line")
        else:
            elements[-1].append(_row(tokens, n, lineno, path_hint, entry))
    return Superoperator(tuple(elements))


#: For each value of the ``kind`` header line: the parser of one symbol's
#: section, the reader of one entry token, and the builder of the machine
#: from the parsed sections.
_MACHINES = {
    "qfa": (_parse_channel, _float_entry, QuantumAutomaton.build),
    **{kind: (_parse_matrix, parse_rational, partial(ClassicalAutomaton.build, kind)) for kind in KINDS},
}


def load_automaton(path) -> Machine:
    with open(path, "r", encoding="utf-8") as handle:
        return loads_automaton(handle.read(), path_hint=os.fspath(path))


def dumps_automaton(machine: Machine) -> str:
    """Serialize a machine; identity end-markers are omitted.

    Round-trips exactly: classical entries print as lowest-term
    rationals, quantum entries with full float precision.
    """
    quantum = machine.kind == "qfa"
    lines = [f"kind {machine.kind}"]
    lines.append("states " + " ".join(machine.states))
    lines.append("alphabet " + " ".join(machine.alphabet))
    lines.append(f"initial {machine.states[machine.initial]}")
    lines.append(("accepting " + " ".join(machine.states[k] for k in sorted(machine.accepting))).rstrip())
    table = machine.channels if quantum else machine.transitions
    identity = (Superoperator if quantum else Mat).identity(machine.size)
    for sym in (*machine.alphabet, *RESERVED_SYMBOLS):
        entry = table[sym]
        if sym in RESERVED_SYMBOLS and entry == identity:
            continue
        lines += ["", f"symbol {sym}"]
        if quantum:
            for element in entry.elements:
                lines.append("element")
                lines.extend(" ".join(repr(float(x)) for x in row) for row in element)
        else:
            d, rows = entry.integer_form()
            for row in rows:
                cells = ["0"] * machine.size
                for j, a in row:
                    cells[j] = render_rational(Fraction(a, d))
                lines.append(" ".join(cells))
    return "\n".join(lines) + "\n"


def save_automaton(machine: Machine, path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(dumps_automaton(machine))


def loads_counter_spec(text: str, path_hint: str = "<string>") -> CounterMachineSpec:
    """Parse a counter machine description.

    Header: ``kind counters``, ``states``, ``alphabet``, ``initial``,
    ``accepting``, plus ``counters K`` and optional ``scale X`` (default
    1). Body: one ``transition FROM SYMBOL TO`` line per controller move
    and one ``increment STATE SYMBOL d1 .. dK`` line per pair; both
    tables must be total.
    """
    header, body = _parse_header(_logical_lines(text), path_hint, _COUNTER_KEYS)
    if header["kind"] != ["counters"]:
        raise FormatError(f"{path_hint}: counter files need 'kind counters'")
    states, alphabet = tuple(header["states"]), tuple(header["alphabet"])
    try:
        k = int(header["counters"][0])
    except ValueError:
        raise FormatError(f"{path_hint}: 'counters' needs one integer") from None
    try:
        scale = parse_rational(header["scale"][0])
    except ValueError:
        raise FormatError(f"{path_hint}: 'scale' needs one rational") from None

    moves = {}
    increments = {}
    state_index = {name: i for i, name in enumerate(states)}
    for lineno, tokens in body:
        if tokens[0] == "transition":
            if len(tokens) != 4:
                raise FormatError(f"{path_hint}:{lineno}: transition lines are 'transition FROM SYMBOL TO'")
            _, src, sym, dst = tokens
            _check_counter_names(src, sym, states, alphabet, path_hint, lineno)
            if (src, sym) in moves:
                raise FormatError(f"{path_hint}:{lineno}: duplicate transition for ({src!r}, {sym!r})")
            moves[(src, sym)] = dst
        elif tokens[0] == "increment":
            if len(tokens) != 3 + k:
                raise FormatError(f"{path_hint}:{lineno}: increment lines need {k} deltas")
            src, sym = tokens[1], tokens[2]
            _check_counter_names(src, sym, states, alphabet, path_hint, lineno)
            try:
                deltas = tuple(int(tok) for tok in tokens[3:])
            except ValueError:
                raise FormatError(f"{path_hint}:{lineno}: increments must be integers") from None
            if (state_index[src], sym) in increments:
                raise FormatError(f"{path_hint}:{lineno}: duplicate increment for ({src!r}, {sym!r})")
            increments[(state_index[src], sym)] = deltas
        else:
            raise FormatError(f"{path_hint}:{lineno}: unknown line {tokens[0]!r}")

    try:
        dfa = dfa_automaton(states, alphabet, moves, header["initial"][0], header["accepting"])
        return CounterMachineSpec(dfa, k, increments, scale)
    except ValueError as exc:
        raise FormatError(f"{path_hint}: {exc}") from None


def _check_counter_names(src, sym, states, alphabet, path_hint, lineno):
    if src not in states:
        raise FormatError(f"{path_hint}:{lineno}: unknown state {src!r}")
    if sym not in alphabet:
        raise FormatError(f"{path_hint}:{lineno}: unknown symbol {sym!r}")


def load_counter_spec(path) -> CounterMachineSpec:
    with open(path, "r", encoding="utf-8") as handle:
        return loads_counter_spec(handle.read(), path_hint=os.fspath(path))
