"""Command line front end.

Subcommands: ``validate``, ``run``, ``sweep``, ``construct``, ``zoo``.
Exit codes follow one contract everywhere: 0 means the requested claim
holds, 1 means the machine or sweep failed it (invariant violations,
counterexamples, indeterminate strings), 2 means the request itself was
unusable (bad flags, unreadable files). Reports are plain tab-separated
text and are byte-identical across runs for identical inputs.
"""

from __future__ import annotations

import argparse
import math
import operator
import sys
from fractions import Fraction

from . import constructions, recognition
from .automata import _final, _readout, accept_value_normalized
from .exactnum import RationalParseError, parse_rational, render_rational, state_vector
from .fileformat import dumps_automaton, load_automaton, load_counter_spec
from .quantum import DEFAULT_KAPPA, qfa_accept, qfa_final_density
from .recognition import BUILTIN_ORACLES, SweepReport, _extremes, _scanned, _verdicts, dfa_oracle

USAGE_ERROR = 2
CLAIM_FAILED = 1


def _rational_arg(text: str) -> Fraction:
    try:
        return parse_rational(text)
    except RationalParseError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _kappa_arg(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value >= 0):
        raise argparse.ArgumentTypeError(f"kappa must be a finite number >= 0, got {text!r}")
    return value


def _render_value(value, kappa: float) -> str:
    if isinstance(value, Fraction):
        return render_rational(value)
    # Floats are rounded to the comparison tolerance so reports do not
    # pretend to more precision than the channel checks guarantee.
    digits = max(1, round(-math.log10(kappa))) if kappa > 0 else 15
    return f"{value:.{digits}f}"


def _print_violations(violations) -> int:
    for line in violations:
        print(line)
    if violations:
        print(f"invalid: {len(violations)} violation(s)")
        return CLAIM_FAILED
    print("ok")
    return 0


def cmd_validate(args) -> int:
    machine = load_automaton(args.path)
    if machine.kind == "qfa":
        return _print_violations(machine.violations(args.kappa))
    return _print_violations(machine.violations())


def cmd_run(args) -> int:
    machine = load_automaton(args.path)
    w = args.input
    if args.normalized:
        if machine.kind != "afa":
            raise ValueError("--normalized applies to affine machines only")
        print("value " + render_rational(accept_value_normalized(machine, w)))
        return 0
    # Both lines before any output, so a failing readout leaves stdout empty.
    if machine.kind == "qfa":
        # The value a sweep reports, read off the accepting block; the
        # whole density only for the final line.
        value = qfa_accept(machine, w)
        final = qfa_final_density(machine, w).diagonal().tolist()
        if not all(map(math.isfinite, final)):
            raise ValueError(f"the density after {w!r} is not finite: the machine's channels are not valid")
    else:
        state = _final(machine, w)
        final, value = state_vector(state), _readout(machine, state)
    print("final " + " ".join(_render_value(x, args.kappa) for x in final))
    print("value " + _render_value(value, args.kappa))
    return 0


def _resolve_oracle(spec: str):
    if spec in BUILTIN_ORACLES:
        return BUILTIN_ORACLES[spec]()
    machine = load_automaton(spec)
    try:
        return dfa_oracle(machine)
    except ValueError as exc:
        raise ValueError(f"{spec}: {exc}") from None


_REPORT_HEADER = "string\tvalue\tmember\tagrees\n"
_AGREES = {"agree": "1", "disagree": "0", "indeterminate": "?"}


def _row_tail(value, member: bool, verdict: str, kappa: float) -> str:
    """A report row after its string: value, membership and agreement."""
    return f"\t{_render_value(value, kappa)}\t{int(member)}\t{_AGREES[verdict]}\n"


def _render_aggregates(report: SweepReport, strings: int) -> str:
    """What follows the rows of a report over ``strings`` strings: a blank
    line, the aggregates, then one line per counterexample."""

    def extreme(value):
        return "-" if value is None else _render_value(value, report.kappa)

    lines = [
        "",
        f"mode\t{report.mode}",
        f"cutpoint\t{render_rational(report.cutpoint)}",
        f"maxlen\t{report.maxlen}",
        f"strings\t{strings}",
        f"counterexamples\t{len(report.counterexamples)}",
        f"indeterminate\t{len(report.indeterminate)}",
        f"min_member_value\t{extreme(report.min_member_value)}",
        f"max_nonmember_value\t{extreme(report.max_nonmember_value)}",
    ]
    if report.mode == "isolation":
        # Width between the two populations; twice the isolation radius
        # when the cutpoint sits midway between them.
        lines.append(f"gap\t{extreme(report.gap)}")
    lines += (f"counterexample\t{w}" for w in report.counterexamples)
    return "\n".join(lines) + "\n"


def render_report(report: SweepReport) -> str:
    """Tab-separated sweep report: one row per string, then aggregates."""
    rows = [_REPORT_HEADER]
    rows += (r.string + _row_tail(r.value, r.member, r.verdict, report.kappa) for r in report.records)
    rows.append(_render_aggregates(report, len(report.records)))
    return "".join(rows)


#: The most report rows ``afa sweep`` joins into one string before writing it.
_ROWS_PER_WRITE = 1 << 12


def cmd_sweep(args) -> int:
    machine = load_automaton(args.path)
    oracle = _resolve_oracle(args.oracle)
    mode, maxlen, kappa = args.mode, args.maxlen, args.kappa
    cutpoint, entries, blocks = _verdicts(machine, args.cutpoint, mode, oracle, maxlen, kappa)
    # The report of render_report(sweep(...)), without a record per string.
    # tails[i] is the row tail of entries[i], rendered once, before the
    # first chunk that uses it; a chunk's rows are joined at C level from
    # its strings and their tails. The chunks are kept and written at the
    # end, so a sweep that fails part-way writes nothing.
    tails: list[str] = []
    counterexamples: list[str] = []
    indeterminate: list[str] = []
    parts = [_REPORT_HEADER]
    strings = 0
    for words, ids in _scanned(entries, blocks, _ROWS_PER_WRITE, counterexamples, indeterminate):
        tails += (_row_tail(*entry, kappa) for entry in entries[len(tails) :])
        parts.append("".join(map(operator.add, words, map(tails.__getitem__, ids))))
        strings += len(ids)
    # The rows are rendered already: the report holds only the aggregates.
    low, high = _extremes(entries)
    report = SweepReport(mode, cutpoint, maxlen, kappa, (), tuple(counterexamples), tuple(indeterminate), low, high)
    parts.append(_render_aggregates(report, strings))
    _write(parts, args.out)
    return 0 if report.ok else CLAIM_FAILED


# name -> (input loader, input count, required flags, construction); the
# construction takes the loaded inputs, then the flag values, and refuses
# a machine of a kind it does not start from.
_CONSTRUCTIONS = {
    "shift-interior": (load_automaton, 1, ("from_cutpoint", "to_cutpoint"), constructions.shift_interior),
    "shift-zero": (load_automaton, 1, ("to_cutpoint",), lambda m, lam: constructions.shift_extreme(m, "zero", lam)),
    "shift-one": (load_automaton, 1, ("to_cutpoint",), lambda m, lam: constructions.shift_extreme(m, "one", lam)),
    "pfa-to-nafa": (load_automaton, 1, (), constructions.exclusive_pfa_to_nafa),
    "afa-to-nqfa": (load_automaton, 1, (), constructions.afa_to_nqfa),
    "tensor": (load_automaton, 2, (), constructions.tensor),
    "counters": (load_counter_spec, 1, (), constructions.compile_blind_counters),
}


def cmd_construct(args) -> int:
    kind = args.construction
    load, count, flags, build = _CONSTRUCTIONS[kind]
    if len(args.inputs) != count:
        raise ValueError(f"{kind} takes {count} input file(s)")
    values = [getattr(args, flag) for flag in flags]
    for flag, value in zip(flags, values):
        if value is None:
            raise ValueError(f"{kind} needs --{flag.replace('_', '-')}")
    _write([dumps_automaton(build(*map(load, args.inputs), *values))], args.out)
    return 0


def cmd_zoo(args) -> int:
    params = {}
    if args.name == "m2_eq":
        if args.x is None:
            raise ValueError("m2_eq needs --x")
        params["x"] = args.x
    elif args.x is not None:
        raise ValueError(f"--x applies to m2_eq only, not {args.name}")
    _write([dumps_automaton(constructions.zoo(args.name, **params))], args.out)
    return 0


def _write(texts: list[str], out) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as handle:
            handle.writelines(texts)
    else:
        sys.stdout.writelines(texts)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="afa",
        description="Evaluate, check and construct affine, probabilistic and quantum finite automata.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a machine file's matrix invariants")
    p.add_argument("path")
    p.add_argument("--kappa", type=_kappa_arg, default=DEFAULT_KAPPA)
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("run", help="evaluate one input string")
    p.add_argument("path")
    p.add_argument("--input", default="", help="input string (default: empty)")
    p.add_argument("--normalized", action="store_true", help="use the renormalizing affine semantics")
    p.add_argument("--kappa", type=_kappa_arg, default=DEFAULT_KAPPA)
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("sweep", help="compare a machine against an oracle on all short strings")
    p.add_argument("path")
    p.add_argument("--cutpoint", type=_rational_arg, required=True)
    p.add_argument("--mode", choices=recognition.MODES, default="cutpoint")
    p.add_argument("--oracle", required=True, help="eq, lapins, abseq, or a dfa file path")
    p.add_argument("--maxlen", type=int, required=True)
    p.add_argument("--kappa", type=_kappa_arg, default=DEFAULT_KAPPA)
    p.add_argument("--out", help="write the report here instead of stdout")
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("construct", help="derive a new machine file")
    p.add_argument("construction", choices=list(_CONSTRUCTIONS))
    p.add_argument("inputs", nargs="+", help="input machine file(s)")
    p.add_argument("--from-cutpoint", dest="from_cutpoint", type=_rational_arg)
    p.add_argument("--to-cutpoint", dest="to_cutpoint", type=_rational_arg)
    p.add_argument("--out", help="write the machine here instead of stdout")
    p.set_defaults(fn=cmd_construct)

    p = sub.add_parser("zoo", help="emit a reference machine")
    p.add_argument("name", choices=list(constructions.ZOO_NAMES))
    p.add_argument("--x", type=_rational_arg, help="scale for m2_eq")
    p.add_argument("--out", help="write the machine here instead of stdout")
    p.set_defaults(fn=cmd_zoo)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help; keep both.
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except (OSError, ValueError, OverflowError) as exc:
        # FormatError is a ValueError; OverflowError is an exact value past
        # float range. Other ArithmeticErrors are bugs and stay visible.
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
