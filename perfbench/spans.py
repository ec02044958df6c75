"""Timing spans around qsearch's public entry points, installed from outside.

The tracer replaces each traced function on its module, on every module
that bound it with ``from ... import`` (``peephole_cancel`` lives in
``circuit`` and is also bound in ``cli`` and ``families``; ``census`` also in
``cli`` and ``sim``) and on the package namespace, so no call path bypasses
the span.  Spans stay in memory as ``[name, parent, request, start, end,
error]`` lists whose index is their id; ``write`` dumps them at the end.

The work counters attached to spans are computed from each call's
arguments and result (widths, instruction counts, shot counts); they are
labelled computed, not measured.
"""
from __future__ import annotations

import functools
import json
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

NAME, PARENT, REQUEST, START, END, ERROR = range(6)

AMP_BYTES = 32  # one complex128 read plus one write per amplitude per gate


def _instrs(circuit) -> int:
    return len(circuit.instructions)


def _amp_gates(circuit, shots: int = 1) -> int:
    return shots * _instrs(circuit) << circuit.n_qubits


def _noisy_counts(args, kwargs, result) -> dict:
    circuit = args[0] if args else kwargs["circuit"]
    shots = args[2] if len(args) > 2 else kwargs["shots"]
    amp = _amp_gates(circuit, shots)
    return {"shots": shots, "amp_gates": amp, "bytes_computed": amp * AMP_BYTES}


def _report_bytes(args, kwargs, result) -> dict:
    path = args[1] if len(args) > 1 else kwargs["path"]
    return {"bytes": Path(path).stat().st_size}


# (layer, module, attribute path, counter function or None)
TARGETS = (
    ("cli.main", "qsearch.cli", "main", None),
    ("cli.write_report", "qsearch.cli", "write_report", _report_bytes),
    ("families.build", "qsearch.families", "build",
     lambda a, k, r: {"instrs_out": _instrs(r)}),
    ("synth.lower", "qsearch.synth", "lower",
     lambda a, k, r: {"instrs_out": _instrs(r)}),
    ("circuit.peephole_cancel", "qsearch.circuit", "peephole_cancel",
     lambda a, k, r: {"removed": _instrs(a[0]) - _instrs(r)}),
    ("circuit.census", "qsearch.circuit", "census",
     lambda a, k, r: {"twoq": r.two_qubit_count}),
    ("sim.run_exact", "qsearch.sim", "run_exact",
     lambda a, k, r: {"amp_gates": _amp_gates(a[0])}),
    ("sim.run_noisy", "qsearch.sim", "run_noisy", _noisy_counts),
    ("sim.Distribution.marginal", "qsearch.sim", "Distribution.marginal", None),
    ("analysis.compile_metrics", "qsearch.analysis", "compile_metrics", None),
    ("analysis.relabel_average", "qsearch.analysis", "relabel_average", None),
    ("qasm.serialize", "qsearch.qasm", "serialize",
     lambda a, k, r: {"bytes": len(r.encode())}),
)

LAYERS = tuple(t[0] for t in TARGETS)


class Tracer:
    """Collects spans and counters while its wrappers are installed."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.request = 0
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, layer: str, fn, count):
        spans, stack, counters = self.spans, self._stack, self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [layer, stack[-1] if stack else None, self.request, perf_counter(), 0.0, False]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                rec[ERROR] = True
                raise
            finally:
                rec[END] = perf_counter()
                stack.pop()
            if count is not None:
                for key, value in count(args, kwargs, result).items():
                    counters[f"{layer}.{key}"] += value
            return result

        return traced

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "qsearch" or name.startswith("qsearch."))]
        for layer, module_name, attr, count in TARGETS:
            owner = sys.modules[module_name]
            *outer, leaf = attr.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, leaf)
            wrapper = self._wrap(layer, original, count)
            bindings = {(owner, leaf)}
            for module in modules:
                for key, value in vars(module).items():
                    if value is original:
                        bindings.add((module, key))
            for target, key in bindings:
                self._patches.append((target, key, original))
                setattr(target, key, wrapper)

    def uninstall(self) -> None:
        for target, key, original in reversed(self._patches):
            setattr(target, key, original)
        self._patches.clear()

    def write(self, path: Path, header: dict) -> None:
        fields = ["name", "parent", "request", "start", "end", "error"]
        path.write_text(json.dumps({**header, "fields": fields, "spans": self.spans}) + "\n")


def covered(interval: tuple[float, float], children: list[tuple[float, float]]) -> float:
    """Length of the part of ``interval`` that the union of ``children`` covers."""
    lo, hi = interval
    clipped = sorted((max(s, lo), min(e, hi)) for s, e in children if min(e, hi) > max(s, lo))
    total = 0.0
    cur_s = cur_e = None
    for s, e in clipped:
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for rec in spans:
        if rec[PARENT] is not None:
            children[rec[PARENT]].append((rec[START], rec[END]))
    return [
        (rec[END] - rec[START]) - covered((rec[START], rec[END]), children.get(i, []))
        for i, rec in enumerate(spans)
    ]


def layer_totals(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per layer: calls, summed self time, errors and summed duration."""
    totals = {layer: {"calls": 0, "self_s": 0.0, "errors": 0, "total_s": 0.0} for layer in LAYERS}
    for rec, own in zip(spans, self_times(spans)):
        row = totals[rec[NAME]]
        row["calls"] += 1
        row["self_s"] += own
        row["errors"] += int(rec[ERROR])
        row["total_s"] += rec[END] - rec[START]
    return totals
