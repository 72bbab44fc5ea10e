"""The benchmark's three workloads.

Each workload is one closed-loop caller in one process:

- ``__init__(seed, workdir)`` makes the inputs from the seed, without afalib;
- ``setup(afalib)`` builds or writes every machine and oracle the rounds
  use (timed as set-up, together with the import of afalib);
- ``operations()`` lists one round: the same operations every round,
  as ``(key, callable)`` pairs in a seeded order; the runner times each;
- ``check(outputs)`` compares a round's outputs, keyed like the
  operations, with computations made apart from afalib (``reference``)
  and returns a ``Tally``. An operation that raised has the exception
  as its output and fails every string it covers.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from pathlib import Path

import numpy as np

from reference import (
    FINALS,
    M2_SCALE,
    MEMBERS,
    PlainMachine,
    count_strings,
    sign,
    strings,
    zoo_value,
)


@dataclass
class Tally:
    """String evaluations attempted and failed; ``wrong`` counts the failures
    that are not the known fault kept in ``quantum-nondet``."""

    attempted: int = 0
    failed: int = 0
    wrong: int = 0

    def add(self, attempted: int, failed: int = 0, wrong: int = 0) -> None:
        self.attempted += attempted
        self.failed += failed
        self.wrong += wrong

    def merge(self, other: "Tally") -> None:
        self.add(other.attempted, other.failed, other.wrong)


def sample_strings(rng: random.Random, alphabet, maxlen: int, k: int) -> list[str]:
    return ["".join(rng.choice(alphabet) for _ in range(rng.randint(0, maxlen))) for _ in range(k)]


# ---------------------------------------------------------------------------
# zoo-cli


BALANCE_SPEC = """\
kind counters
states only
alphabet a b
initial only
accepting only
counters 1
scale 2

transition only a only
transition only b only
increment only a 1
increment only b -1
"""

# machine, mode, cutpoint, oracle, maxlen
ZOO_SWEEPS = (
    ("m1_eq", "isolation", "5/6", "eq", 12),
    ("m2_eq", "cutpoint", "1/2", "eq", 11),
    ("abs_eq", "equality", "1/2", "abseq", 10),
    ("lapins", "cutpoint", "1/2", "lapins", 6),
    ("balance", "cutpoint", "1/2", "eq", 12),
)
ORACLE_ALPHABETS = {"eq": "ab", "abseq": "ab", "lapins": "abc"}
REPORT_HEADER = "string\tvalue\tmember\tagrees"
RATIONAL_AGGREGATES = ("cutpoint", "min_member_value", "max_nonmember_value", "gap")


def _extreme(text: str):
    return None if text == "-" else Fraction(text)


def check_report(sweep, rc, text: str) -> Tally:
    """Check one ``afa sweep --out`` report against the closed forms.

    Every row must list the next string in length-lexicographic order,
    the closed-form value exactly, the benchmark's own membership and an
    agreement; a bad row fails that string. A non-zero exit, a wrong row
    count or aggregate lines that do not match the rows fail every string.
    """
    name, mode, cutpoint, oracle, maxlen = sweep
    alphabet = ORACLE_ALPHABETS[oracle]
    member = MEMBERS[oracle]
    total = count_strings(len(alphabet), maxlen)
    if not isinstance(text, str) or rc != 0:
        return Tally(total, total, total)
    body, _, tail = text.partition("\n\n")
    rows = body.split("\n")
    if rows[0] != REPORT_HEADER or len(rows) - 1 != total:
        return Tally(total, total, total)
    bad = 0
    member_values, nonmember_values = [], []
    for w, row in zip(strings(alphabet, maxlen), rows[1:]):
        fields = row.split("\t")
        try:
            string, value, flag, agrees = fields[0], Fraction(fields[1]), *fields[2:]
        except (ValueError, ZeroDivisionError, IndexError):  # unparsable value, or not four fields
            bad += 1
            continue
        (member_values if flag == "1" else nonmember_values).append(value)
        bad += (string, value, flag, agrees) != (w, zoo_value(name, w), str(int(member(w))), "1")
    low = min(member_values, default=None)
    high = max(nonmember_values, default=None)
    want = {
        "mode": mode,
        "cutpoint": Fraction(cutpoint),
        "maxlen": str(maxlen),
        "strings": str(total),
        "counterexamples": "0",
        "indeterminate": "0",
        "min_member_value": low,
        "max_nonmember_value": high,
    }
    if mode == "isolation":
        want["gap"] = None if low is None or high is None else low - high
    try:
        got = {
            key: _extreme(text) if key in RATIONAL_AGGREGATES else text
            for key, _, text in (line.partition("\t") for line in tail.splitlines())
        }
    except (ValueError, ZeroDivisionError):
        return Tally(total, total, total)
    if got != want:
        return Tally(total, total, total)
    return Tally(total, bad, bad)


class ZooCli:
    """``afa zoo`` / ``afa construct counters`` then ``afa sweep --out`` on five machines."""

    name = "zoo-cli"
    modules = ("afalib", "afalib.cli")

    def __init__(self, seed: int, workdir):
        self.rng = random.Random(seed)  # orders the sweeps of each round
        self.dir = workdir
        self.spec = workdir / "balance.cm"
        self.spec.write_text(BALANCE_SPEC, encoding="utf-8")
        self.checked: dict = {}  # (sweep, exit code, report text) -> Tally

    def _path(self, name: str, suffix: str) -> str:
        return str(self.dir / f"{name}.{suffix}")

    def setup(self, afalib) -> None:
        self.main = afalib.cli.main
        commands = [["zoo", name, "--out", self._path(name, "afa")] for name in ("m1_eq", "abs_eq", "lapins")]
        commands.append(["zoo", "m2_eq", "--x", str(M2_SCALE), "--out", self._path("m2_eq", "afa")])
        commands.append(["construct", "counters", str(self.spec), "--out", self._path("balance", "afa")])
        for argv in commands:
            rc = self.main(argv)
            if rc != 0:
                raise RuntimeError(f"afa {' '.join(argv)} exited with {rc}")

    def operations(self) -> list:
        ops = []
        for sweep in self.rng.sample(ZOO_SWEEPS, len(ZOO_SWEEPS)):
            name, mode, cutpoint, oracle, maxlen = sweep
            argv = [
                "sweep", self._path(name, "afa"),
                "--mode", mode, "--cutpoint", cutpoint, "--oracle", oracle,
                "--maxlen", str(maxlen), "--out", self._path(name, "tsv"),
            ]
            ops.append((sweep, partial(self.main, argv)))
        return ops

    def check(self, outputs: dict) -> Tally:
        tally = Tally()
        for sweep, rc in outputs.items():
            # Each report is read and removed, so a sweep that writes
            # nothing cannot pass on the previous round's file.
            path = Path(self._path(sweep[0], "tsv"))
            try:
                text = path.read_text(encoding="utf-8")
                path.unlink()
            except OSError:
                text = None
            key = (sweep, rc, text)
            if key not in self.checked:
                self.checked[key] = check_report(sweep, rc, text)
            tally.merge(self.checked[key])
        return tally


# ---------------------------------------------------------------------------
# no-reuse


AFA_CASES = ((3, 8),) * 4 + ((6, 6),) * 2  # states, maxlen of the equivalence check
PFA_CASES = ((3, 8),) * 4 + ((4, 7),) * 2  # states, maxlen of the zero-set sweep
CUTPOINTS = tuple(Fraction(k, 6) for k in range(1, 6))
LONG_LENGTHS = (40, 60, 80, 100, 120)
LONG_STRINGS = (("m1_eq", "ab", 2), ("m2_eq", "ab", 2), ("abs_eq", "ab", 2), ("lapins", "abc", 1))
SAMPLE = 8  # strings per random machine checked with the plain evaluator


class NoReuse:
    """Random machines through ``shift_interior`` and ``exclusive_pfa_to_nafa``,
    and per-string ``accept_value`` on long strings: every string reaches a
    distinct state vector. Many small machines per round keep the cost of
    a round close to the same from seed to seed."""

    name = "no-reuse"
    modules = ("afalib", "afalib.rand")

    def __init__(self, seed: int, workdir):
        self.seed = seed
        rng = random.Random(seed)
        self.long = {
            name: ["".join(rng.choice(alphabet) for _ in range(n)) for n in LONG_LENGTHS * copies]
            for name, alphabet, copies in LONG_STRINGS
        }
        self.order = random.Random(seed + 1)
        self.sample_rng = random.Random(seed + 2)
        self.first = None  # (outputs, Tally) of the first round

    def setup(self, afalib) -> None:
        self.afalib = afalib
        rng = random.Random(self.seed)  # the same machines at every set-up
        self.shifted = []
        for n, maxlen in AFA_CASES:
            machine = afalib.rand.random_afa(rng, n)
            lam1, lam2 = rng.sample(CUTPOINTS, 2)
            self.shifted.append((machine, lam1, afalib.shift_interior(machine, lam1, lam2), lam2, maxlen))
        self.exclusive = []
        for n, maxlen in PFA_CASES:
            pfa = afalib.rand.random_pfa(rng, n)
            self.exclusive.append((pfa, afalib.exclusive_pfa_to_nafa(pfa), maxlen))
        self.zoo = {name: afalib.zoo(name, **({"x": M2_SCALE} if name == "m2_eq" else {})) for name in self.long}

    def operations(self) -> list:
        A = self.afalib
        ops = [
            (("equivalence", i), partial(A.equivalence_check, m, lam1, s, lam2, maxlen))
            for i, (m, lam1, s, lam2, maxlen) in enumerate(self.shifted)
        ]
        ops += [
            (("zero-set", i), lambda q=q, maxlen=maxlen: list(A.prefix_values(q, maxlen)))
            for i, (_, q, maxlen) in enumerate(self.exclusive)
        ]
        for name, ws in self.long.items():
            machine = self.zoo[name]
            ops.append((("value", name), lambda m=machine, ws=ws: [A.accept_value(m, w) for w in ws]))
            ops.append((("normalized", name), lambda m=machine, ws=ws: [A.accept_value_normalized(m, w) for w in ws]))
        return self.order.sample(ops, len(ops))

    def check(self, outputs: dict) -> Tally:
        if self.first is not None and outputs == self.first[0]:
            tally = Tally()
            tally.merge(self.first[1])
            return tally
        tally = self._check(outputs)
        if self.first is None:
            self.first = (outputs, tally)
        return tally

    def _check(self, outputs: dict) -> Tally:
        tally = Tally()
        for i, (machine, lam1, shifted, lam2, maxlen) in enumerate(self.shifted):
            report = outputs[("equivalence", i)]
            total = count_strings(len(machine.alphabet), maxlen)
            if isinstance(report, Exception) or report.maxlen != maxlen:
                tally.add(total, total, total)
                continue
            bad = len(report.violations) + len(report.indeterminate)
            plain, plain_shifted = PlainMachine(machine), PlainMachine(shifted)
            for w in sample_strings(self.sample_rng, machine.alphabet, maxlen, SAMPLE):
                bad += sign(plain.value(w) - lam1) != sign(plain_shifted.value(w) - lam2)
            tally.add(total, bad, bad)
        for i, (pfa, _, maxlen) in enumerate(self.exclusive):
            values = outputs[("zero-set", i)]
            total = count_strings(len(pfa.alphabet), maxlen)
            if isinstance(values, Exception) or [w for w, _ in values] != list(strings(pfa.alphabet, maxlen)):
                tally.add(total, total, total)
                continue
            probabilities = PlainMachine(pfa).values(maxlen)
            bad = 0
            for w, value in values:
                # exclusive_pfa_to_nafa: value |1-2p| / (|1-2p| + 2p), zero exactly at p = 1/2
                p = probabilities[w]
                gap = abs(1 - 2 * p)
                bad += value != gap / (gap + 2 * p) or (value == 0) != (p == Fraction(1, 2))
            tally.add(total, bad, bad)
        for name, ws in self.long.items():
            values, normalized = outputs[("value", name)], outputs[("normalized", name)]
            if isinstance(values, Exception) or isinstance(normalized, Exception):
                tally.add(2 * len(ws), 2 * len(ws), 2 * len(ws))
                continue
            bad = sum(v != zoo_value(name, w) for w, v in zip(ws, values))
            bad += sum(u != v for u, v in zip(normalized, values))
            plain = PlainMachine(self.zoo[name])
            for i in self.sample_rng.sample(range(len(ws)), 2):
                bad += plain.value(ws[i]) != values[i]
            tally.add(2 * len(ws), bad, bad)
        return tally


# ---------------------------------------------------------------------------
# quantum-nondet


QUANTUM_SWEEPS = (("m1_eq", "ab", 14), ("abs_eq", "ab", 12), ("lapins", "abc", 7))
REL_TOL = 1e-9  # qfa_accept * l_w^2 against the exact accepting mass
ZERO_TOL = 1e-12  # the same, where the exact mass is 0
QUANTUM_SAMPLE = 8


class QuantumNondet:
    """``afa_to_nqfa`` of three zoo machines, swept in ``nondet`` mode.

    The oracle is "exact affine value > 0" by the closed forms. Strings
    the float lane leaves ``indeterminate`` count as failed; the count is
    the same every round because machines and strings do not depend on
    the seed.
    """

    name = "quantum-nondet"
    modules = ("afalib",)

    def __init__(self, seed: int, workdir):
        self.rng = random.Random(seed)  # orders the sweeps of each round
        self.sample_rng = random.Random(seed + 1)
        self.expected = {}
        self.zero_value = {}
        for name, alphabet, maxlen in QUANTUM_SWEEPS:
            ws = list(strings(alphabet, maxlen))
            self.expected[name] = ws
            self.zero_value[name] = frozenset(w for w in ws if zoo_value(name, w) == 0)
        self.sampled = False

    def setup(self, afalib) -> None:
        self.afalib = afalib
        self.machines = {}
        for name, _, maxlen in QUANTUM_SWEEPS:
            machine = afalib.zoo(name)
            zeros = self.zero_value[name]
            oracle = afalib.LanguageOracle(f"{name}>0", machine.alphabet, lambda w, zeros=zeros: w not in zeros)
            self.machines[name] = (machine, afalib.afa_to_nqfa(machine), oracle, maxlen)

    def operations(self) -> list:
        sweep = self.afalib.sweep
        return [
            (name, partial(sweep, qfa, 0, "nondet", oracle, maxlen))
            for name, (_, qfa, oracle, maxlen) in self.rng.sample(sorted(self.machines.items()), len(self.machines))
        ]

    def check(self, outputs: dict) -> Tally:
        tally = Tally()
        for name, report in outputs.items():
            expected = self.expected[name]
            total = len(expected)
            if isinstance(report, Exception) or [r.string for r in report.records] != expected:
                tally.add(total, total, total)
                continue
            disagree = len(report.counterexamples)
            tally.add(total, disagree + len(report.indeterminate), disagree)
        if not self.sampled:
            self.sampled = True
            bad = self.check_sample()
            tally.add(0, bad, bad)
        return tally

    def check_sample(self) -> int:
        """Seeded strings: qfa_accept * l_w^2 against the sum of v_k^2 over accepting k."""
        bad = 0
        for name, alphabet, maxlen in QUANTUM_SWEEPS:
            machine, qfa, _, _ = self.machines[name]
            # l = max(1, largest singular value) per symbol, as afa_to_nqfa documents
            scale = {
                sym: max(1.0, float(np.linalg.norm(np.array(mat.tolists(), dtype=float), 2)))
                for sym, mat in machine.transitions.items()
            }
            final, accepting = FINALS[name]
            for w in sample_strings(self.sample_rng, alphabet, maxlen, QUANTUM_SAMPLE):
                lw = scale["cent"] * scale["dollar"]
                for sym in w:
                    lw *= scale[sym]
                v = final(w)
                exact = float(sum(v[k] * v[k] for k in accepting))
                got = self.afalib.qfa_accept(qfa, w) * lw * lw
                bad += not abs(got - exact) <= (REL_TOL * exact if exact else ZERO_TOL)
        return bad


WORKLOADS = {cls.name: cls for cls in (ZooCli, NoReuse, QuantumNondet)}
