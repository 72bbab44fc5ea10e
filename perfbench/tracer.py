"""Per-layer tracing from outside the program.

``Tracer.install`` wraps the afalib functions named in ``TARGETS`` in
every loaded afalib module that binds them (and ``Mat.apply`` on its
class); ``uninstall`` puts the originals back. Each wrapped call, and
each ``next()`` on a wrapped generator, is one span: name, start, end
and the index of the span that was open when it began. Spans stay in
memory (up to ``SPAN_CAP`` of them; totals count every span) and are
written out once, at the end of a run.

Totals are kept per phase: ``take()`` returns them and starts afresh, so
the benchmark can read one set-up or one round at a time.
"""

from __future__ import annotations

import inspect
import sys
from array import array
from collections import Counter
from statistics import median
from time import perf_counter

# (layer, module, attribute); "Mat.apply" is a method on its class.
TARGETS = (
    ("cli", "afalib.cli", "render_report"),
    ("fileformat", "afalib.fileformat", "load_automaton"),
    ("fileformat", "afalib.fileformat", "load_counter_spec"),
    *(
        ("constructions", "afalib.constructions", name)
        for name in (
            "zoo",
            "m1_eq",
            "m2_eq",
            "abs_eq",
            "lapins",
            "tensor",
            "shift_interior",
            "shift_extreme",
            "exclusive_pfa_to_nafa",
            "afa_to_nqfa",
            "compile_blind_counters",
        )
    ),
    ("exactnum", "afalib.exactnum", "Mat.apply"),
    ("automata", "afalib.automata", "prefix_values"),
    ("automata", "afalib.automata", "accept_value"),
    ("automata", "afalib.automata", "accept_value_normalized"),
    ("recognition", "afalib.recognition", "sweep"),
    ("recognition", "afalib.recognition", "equivalence_check"),
    ("recognition", "afalib.recognition", "oracle_eval"),
    ("quantum", "afalib.quantum", "apply_channel"),
    ("quantum", "afalib.quantum", "qfa_prefix_values"),
)

SPAN_CAP = 200_000

# Per-layer metrics and their units, in report order.
LAYER_METRICS = {
    "cli.render_report_s": "s",
    "fileformat.load_s": "s",
    "constructions.build_s": "s",
    "exactnum.apply_calls": "count",
    "exactnum.apply_s": "s",
    "exactnum.apply_distinct": "count",
    "exactnum.apply_useful_ratio": "ratio",
    "automata.prefix_values_s": "s",
    "automata.enum_self_s": "s",
    "automata.accept_value_s": "s",
    "automata.normalized_s": "s",
    "recognition.sweep_self_s": "s",
    "recognition.oracle_calls": "count",
    "recognition.oracle_s": "s",
    "quantum.apply_channel_calls": "count",
    "quantum.apply_channel_s": "s",
    "quantum.enum_self_s": "s",
}

_DONE = object()


class Tracer:
    def __init__(self):
        self.names = [f"{module.rsplit('.', 1)[-1]}.{attr}" for _, module, attr in TARGETS]
        self.layers = [layer for layer, _, _ in TARGETS]
        self.spans = 0
        self.stack: list[list] = []  # [name id, span index, start, time in children]
        self.active = Counter()  # open spans per layer
        # Stored spans, one array per field.
        self.span_name = array("i")
        self.span_index = array("q")
        self.span_parent = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self._patches: list[tuple[object, str, object]] = []
        self._reset()

    def _reset(self):
        n = len(TARGETS)
        self.calls = [0] * n
        self.inclusive = [0.0] * n
        self.self_time = [0.0] * n
        self.outer = Counter()  # time in spans with no open span of the same layer above
        self.applied: list = []  # (matrix, vector) per Mat.apply, counted after the phase

    # -- spans ---------------------------------------------------------------

    def _enter(self, nid: int) -> list:
        frame = [nid, self.spans, 0.0, 0.0]
        self.spans += 1
        self.stack.append(frame)
        self.active[self.layers[nid]] += 1
        frame[2] = perf_counter()
        return frame

    def _exit(self, frame: list) -> None:
        end = perf_counter()
        nid, index, start, children = frame
        duration = end - start
        self.stack.pop()
        self.calls[nid] += 1
        self.inclusive[nid] += duration
        self.self_time[nid] += duration - children
        layer = self.layers[nid]
        self.active[layer] -= 1
        if not self.active[layer]:
            self.outer[layer] += duration
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent[3] += duration
        if index < SPAN_CAP:
            self.span_name.append(nid)
            self.span_index.append(index)
            self.span_parent.append(parent[1] if parent is not None else -1)
            self.span_start.append(start)
            self.span_end.append(end)

    def _wrap(self, nid: int, fn):
        tracer = self

        if inspect.isgeneratorfunction(fn):

            def traced_generator(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    frame = tracer._enter(nid)
                    try:
                        item = next(it, _DONE)
                    finally:
                        tracer._exit(frame)
                    if item is _DONE:
                        return
                    yield item

            return traced_generator

        if fn.__qualname__ == "Mat.apply":

            def traced_apply(mat, v):
                tracer.applied.append((mat, v))
                frame = tracer._enter(nid)
                try:
                    return fn(mat, v)
                finally:
                    tracer._exit(frame)

            return traced_apply

        def traced(*args, **kwargs):
            frame = tracer._enter(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._exit(frame)

        return traced

    # -- patching ------------------------------------------------------------

    def install(self) -> None:
        """Wrap every target in the afalib modules loaded now."""
        modules = [m for name, m in sys.modules.items() if name == "afalib" or name.startswith("afalib.")]
        for nid, (_, module_name, attr) in enumerate(TARGETS):
            module = sys.modules.get(module_name)
            if module is None:
                continue
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[method]
                self._patch(cls, method, self._wrap(nid, original))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(nid, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)

    def _patch(self, owner, key: str, wrapper) -> None:
        self._patches.append((owner, key, vars(owner)[key]))
        setattr(owner, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    # -- results -------------------------------------------------------------

    def take(self) -> dict[str, float]:
        """Per-layer metrics of the phase since the last call; then reset."""
        ids = {name: nid for nid, name in enumerate(self.names)}

        def incl(name):
            return self.inclusive[ids[name]]

        def selft(name):
            return self.self_time[ids[name]]

        def calls(name):
            return self.calls[ids[name]]

        distinct = len({(id(mat), tuple(v)) for mat, v in self.applied})
        out = {
            "cli.render_report_s": incl("cli.render_report"),
            "fileformat.load_s": float(self.outer["fileformat"]),
            "constructions.build_s": float(self.outer["constructions"]),
            "exactnum.apply_calls": calls("exactnum.Mat.apply"),
            "exactnum.apply_s": incl("exactnum.Mat.apply"),
            "exactnum.apply_distinct": distinct,
            "automata.prefix_values_s": incl("automata.prefix_values"),
            "automata.enum_self_s": selft("automata.prefix_values"),
            "automata.accept_value_s": incl("automata.accept_value"),
            "automata.normalized_s": incl("automata.accept_value_normalized"),
            # Sweep bookkeeping includes the oracle, which runs inside it.
            "recognition.sweep_self_s": selft("recognition.sweep")
            + selft("recognition.equivalence_check")
            + incl("recognition.oracle_eval"),
            "recognition.oracle_calls": calls("recognition.oracle_eval"),
            "recognition.oracle_s": incl("recognition.oracle_eval"),
            "quantum.apply_channel_calls": calls("quantum.apply_channel"),
            "quantum.apply_channel_s": incl("quantum.apply_channel"),
            "quantum.enum_self_s": selft("quantum.qfa_prefix_values"),
        }
        self._reset()
        return out

    def write(self, path) -> None:
        """Write the stored spans as tab-separated text, one per line."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("span\tparent\tname\tstart_s\tend_s\n")
            for nid, index, parent, start, end in zip(
                self.span_name, self.span_index, self.span_parent, self.span_start, self.span_end
            ):
                handle.write(f"{index}\t{parent}\t{self.names[nid]}\t{start:.9f}\t{end:.9f}\n")


def summarize(setups: list[dict], rounds: list[dict]) -> dict[str, float]:
    """Layer metrics of one pass: the median set-up plus the median round.

    ``exactnum.apply_useful_ratio`` is distinct products over all
    products of that pass (0 when there were none).
    """
    out = {}
    for name in LAYER_METRICS:
        if name != "exactnum.apply_useful_ratio":
            out[name] = median(p[name] for p in setups) + median(p[name] for p in rounds)
    calls = out["exactnum.apply_calls"]
    out["exactnum.apply_useful_ratio"] = out["exactnum.apply_distinct"] / calls if calls else 0.0
    return {name: out[name] for name in LAYER_METRICS}
