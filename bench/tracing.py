"""Spans around the calls into regencode's layers, for the traced run only.

`Tracer.install` wraps every public module-level function of the layer
modules and rebinds each module attribute that holds one, including names
imported by value elsewhere (`verifier._reconstruct`, `constructions.repair`,
`dss.mat_inv`). Only the traced process is affected; nothing under `src/` is
edited. Class methods are not wrapped, so `FieldSpec.mul` runs at full speed
and is timed by `gf_micro` instead.

A span is [name id, start ns, end ns, parent span index, job id, outer],
where `outer` is true when no span of the same layer encloses it. Spans stay
in memory until the pass ends (`end_pass`); the worker writes the first
pass's spans out when the run ends. A few spans carry notes (matrix sizes, symbols moved,
checks); the time spent taking a note is recorded as a `trace.observe` child
span so it is excluded from the enclosing layer's self time.
"""

from __future__ import annotations

import functools
import inspect
import json
import statistics
import sys
import time

LAYERS = ("cli", "tradeoff", "constructions", "dss", "gf", "verifier")
SOLVE_CALLS = {"dss.reconstruct", "dss.repair", "gf.mat_solve", "gf.mat_rank"}


def _matrix_note(args, kwargs, result):
    a = args[0] if args else kwargs["A"]
    return {
        "rows": a.rows,
        "entries": a.rows * a.cols,
        "nonzeros": sum(len(row) - row.count(0) for row in a.data),
    }


def _generator_note(args, kwargs, result):
    gens = result.node_gens
    return {
        "entries": sum(g.rows * g.cols for g in gens),
        "nonzeros": sum(len(row) - row.count(0) for g in gens for row in g.data),
    }


def _repair_note(args, kwargs, result):
    return {"moved": result[1].total}


def _checks_note(args, kwargs, result):
    return {"checks": result.checks_run["total"]}


# Notes are taken on outer spans only; constructions notes read the finished code.
NOTES = {
    "gf.mat_solve": _matrix_note,
    "dss.repair": _repair_note,
    "verifier.measure_and_compare": _checks_note,
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list] = []
        self.notes: dict[int, dict] = {}
        self.job = -1
        self._stack: list[int] = []
        self._depth = {layer: 0 for layer in LAYERS}
        self._observe_id = self._name_id("trace.observe")

    def _name_id(self, name: str) -> int:
        self.names.append(name)
        return len(self.names) - 1

    def wrap(self, name: str, fn, note=None):
        name_id = self._name_id(name)
        layer = name.split(".")[0]
        spans, stack, depth, notes = self.spans, self._stack, self._depth, self.notes
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            outer = depth[layer] == 0
            span = [name_id, 0, 0, stack[-1] if stack else -1, self.job, outer]
            spans.append(span)
            stack.append(index)
            depth[layer] += 1
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                depth[layer] -= 1
                stack.pop()
            if note is not None and outer:
                start = clock()
                notes[index] = note(args, kwargs, result)
                spans.append(
                    [self._observe_id, start, clock(), span[3], self.job, True]
                )
            return result

        return traced

    def install(self):
        """Wrap the layers' public functions in every loaded regencode module."""
        wrapped = {}
        for layer in LAYERS:
            module = sys.modules[f"regencode.{layer}"]
            for attr, value in vars(module).items():
                if (
                    attr.startswith("_")
                    or not inspect.isfunction(value)
                    or value.__module__ != module.__name__
                ):
                    continue
                name = f"{layer}.{attr}"
                note = _generator_note if layer == "constructions" else NOTES.get(name)
                wrapped[id(value)] = (value, self.wrap(name, value, note))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "regencode" and not mod_name.startswith("regencode."):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrapped.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])

    def end_pass(self) -> tuple[dict, list]:
        """Per-layer metrics of the spans recorded since the last call, and the spans.

        The tracer then starts afresh, so memory holds at most one pass of spans.
        """
        metrics = self._metrics()
        spans = self.spans[:]
        self.spans.clear()
        self.notes.clear()
        return metrics, spans

    def dump(self, path, spans: list, jobs: list) -> None:
        with open(path, "w") as fh:
            json.dump({"names": self.names, "jobs": jobs, "spans": spans}, fh)

    def _metrics(self) -> dict:
        names, spans = self.names, self.spans
        children = [0] * len(spans)
        for s in spans:
            if s[3] >= 0:
                children[s[3]] += s[2] - s[1]
        calls: dict[str, int] = {}
        incl: dict[str, int] = {}
        self_ns: dict[str, int] = {}
        layer_calls: dict[str, int] = {}
        layer_outer: dict[str, int] = {}
        layer_self: dict[str, int] = {}
        solves_from_verifier = 0
        mat = {"entries": 0, "nonzeros": 0, "rows": 0}
        gen = {"entries": 0, "nonzeros": 0}
        moved = checks = 0
        for i, (name_id, start, end, parent, _job, outer) in enumerate(spans):
            name = names[name_id]
            layer = name.split(".")[0]
            dur = end - start
            own = dur - children[i]
            calls[name] = calls.get(name, 0) + 1
            incl[name] = incl.get(name, 0) + dur
            self_ns[name] = self_ns.get(name, 0) + own
            layer_calls[layer] = layer_calls.get(layer, 0) + 1
            layer_self[layer] = layer_self.get(layer, 0) + own
            if outer:
                layer_outer[layer] = layer_outer.get(layer, 0) + dur
            if name in SOLVE_CALLS and parent >= 0 and names[spans[parent][0]].startswith("verifier."):
                solves_from_verifier += 1
            note = self.notes.get(i)
            if note is None:
                continue
            if name == "gf.mat_solve":
                mat["entries"] += note["entries"]
                mat["nonzeros"] += note["nonzeros"]
                mat["rows"] = max(mat["rows"], note["rows"])
            elif layer == "constructions":
                gen["entries"] += note["entries"]
                gen["nonzeros"] += note["nonzeros"]
            elif name == "dss.repair":
                moved += note["moved"]
            elif name == "verifier.measure_and_compare":
                checks += note["checks"]

        def s(ns):
            return ns / 1e9

        return {
            "gf.mat_solve.calls": calls.get("gf.mat_solve", 0),
            "gf.mat_solve.s": s(incl.get("gf.mat_solve", 0)),
            "gf.mat_solve.entries": mat["entries"],
            "gf.mat_solve.nonzeros": mat["nonzeros"],
            "gf.mat_solve.density": mat["nonzeros"] / mat["entries"] if mat["entries"] else 0.0,
            "gf.mat_solve.max_rows": mat["rows"],
            "constructions.build_s": s(layer_outer.get("constructions", 0)),
            "constructions.gen_entries": gen["entries"],
            "constructions.gen_nonzeros": gen["nonzeros"],
            "constructions.gen_density": gen["nonzeros"] / gen["entries"] if gen["entries"] else 0.0,
            "dss.encode.s": s(incl.get("dss.encode", 0)),
            "dss.reconstruct.calls": calls.get("dss.reconstruct", 0),
            "dss.reconstruct.self_s": s(self_ns.get("dss.reconstruct", 0)),
            "dss.repair.calls": calls.get("dss.repair", 0),
            "dss.repair.self_s": s(self_ns.get("dss.repair", 0)),
            "dss.symbols_moved": moved,
            "verifier.checks": checks,
            "verifier.solves_per_check": solves_from_verifier / checks if checks else 0.0,
            "verifier.self_s": s(layer_self.get("verifier", 0)),
            "tradeoff.calls": layer_calls.get("tradeoff", 0),
            "tradeoff.s": s(layer_outer.get("tradeoff", 0)),
            "cli.self_s": s(layer_self.get("cli", 0)),
            "cli.decimal_str.calls": calls.get("cli.decimal_str", 0),
            "cli.decimal_str.s": s(incl.get("cli.decimal_str", 0)),
        }


# Counters that must repeat exactly for one workload and seed.
EXACT = (
    "gf.mat_solve.calls",
    "gf.mat_solve.entries",
    "gf.mat_solve.nonzeros",
    "gf.mat_solve.max_rows",
    "constructions.gen_entries",
    "constructions.gen_nonzeros",
    "dss.reconstruct.calls",
    "dss.repair.calls",
    "dss.symbols_moved",
    "verifier.checks",
    "tradeoff.calls",
    "cli.decimal_str.calls",
)


def gf_micro(field, repeats: int = 5) -> dict:
    """ns per `mul` and per `inv` over all nonzero elements; median of repeats."""
    elems = range(1, field.order)
    mul, inv = field.mul, field.inv
    mul_ns, inv_ns = [], []
    for _ in range(repeats):
        start = time.perf_counter_ns()
        for a in elems:
            for b in elems:
                mul(a, b)
        mul_ns.append((time.perf_counter_ns() - start) / len(elems) ** 2)
        start = time.perf_counter_ns()
        for _ in range(20):
            for a in elems:
                inv(a)
        inv_ns.append((time.perf_counter_ns() - start) / (20 * len(elems)))
    return {"gf.mul_ns": statistics.median(mul_ns), "gf.inv_ns": statistics.median(inv_ns)}
