"""Spans around the calls into each bsol layer, and the metrics made from them.

A span is recorded by replacing a function with a wrapper under the name
its caller looks it up by: bsol.limits.inf_move is the murep move as
limits calls it, orbit._KERNEL.census_levels is the kernel as orbit calls
it.  Nothing inside src/ changes.  Spans are [name, start, end, parent,
data]; times come from time.perf_counter, which is CLOCK_MONOTONIC on
Linux and so comparable between the processes of one machine.
"""

from __future__ import annotations

import functools
import json
import time
from pathlib import Path


def _kernel_data(args, result):
    sizes, capped = result
    return {"states": sum(sizes), "levels": len(sizes), "peak": max(sizes, default=0),
            "capped": bool(capped), "budget": args[1]}


def _orbit_data(args, result):
    return {"states": result.size}


def _system_data(args, result):
    return {"unknowns": result.n, "aux": len(result.aux)}


def _gcd_data(args, result):
    return {"nontrivial": result.degree > 0}


def _targets():
    """(owner, attribute, span name, data function) for every traced call."""
    from bsol import cli, golden, limits, murep, orbit, polyrat

    handlers = [n for n in vars(cli) if n.startswith(("_cmd_", "_verify_"))]
    return [
        (getattr(orbit, "_KERNEL", None), "census_levels", "kernel.census_levels", _kernel_data),
        (orbit, "c_ratio_probe", "orbit.c_ratio_probe", None),
        (orbit, "orbit_size", "orbit.orbit_size", None),
        (orbit, "d_series", "orbit.d_series", None),
        (orbit, "build_orbit", "orbit.build_orbit", _orbit_data),
        (orbit, "stabilized_h_series", "orbit.stabilized_h_series", None),
        (orbit, "forest_identity_check", "orbit.forest_identity_check", None),
        (orbit, "predecessors", "partitions.predecessors", None),
        (orbit, "forward_move", "partitions.forward_move", None),
        (limits, "recurrent_element", "murep.recurrent_element", None),
        (murep, "recurrent_elements", "murep.recurrent_elements", None),
        (limits, "inf_move", "murep.inf_move", None),
        (limits, "drop_head", "murep.drop_head", None),
        (limits, "detect_fuse", "fuse.detect_fuse", None),
        (limits, "u_poly", "fuse.u_poly", None),
        (limits, "v_norm", "fuse.v_norm", None),
        (cli, "u_poly", "fuse.u_poly", None),
        (cli, "v_norm", "fuse.v_norm", None),
        (limits, "h_limit", "limits.h_limit", None),
        (limits, "assemble_system", "limits.assemble_system", _system_data),
        (limits, "solve_system", "limits.solve_system", None),
        (limits, "reduce_system", "limits.reduce_system", None),
        (limits, "f_poly", "limits.f_poly", None),
        (limits, "p_poly", "limits.p_poly", None),
        (limits, "h_poly", "limits.h_poly", None),
        (limits, "verify_tree_isomorphism", "limits.verify_tree_isomorphism", None),
        (limits, "verify_same_denominator", "limits.verify_same_denominator", None),
        (polyrat, "poly_gcd", "polyrat.poly_gcd", _gcd_data),
        (polyrat, "poly_divexact", "polyrat.poly_divexact", None),
        (polyrat.RatFn, "__init__", "polyrat.RatFn", None),
        (golden, "size_rows", "golden.size_rows", None),
        (golden, "h_table", "golden.h_table", None),
        (golden, "h_series_forms", "golden.h_series_forms", None),
        (golden, "dual_pairs", "golden.dual_pairs", None),
        (cli, "run", "cli.run", None),
    ] + [(cli, n, "cli.handler", None) for n in handlers]


class Tracer:
    """Wraps the traced calls while installed; keeps the spans in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def span(self, name: str, start: float, end: float, data=None) -> int:
        """Record a span measured by the caller, under the current parent."""
        self.spans.append([name, start, end, self._stack[-1] if self._stack else -1, data])
        return len(self.spans) - 1

    def open(self, name: str) -> int:
        idx = self.span(name, time.perf_counter(), 0.0)
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, original, name, data_fn):
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            idx = tracer.open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.close(idx)
            if data_fn is not None:
                tracer.spans[idx][4] = data_fn(args, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every target that this version of bsol has."""
        for owner, attr, name, data_fn in _targets():
            original = getattr(owner, attr, None)
            if original is None:
                continue
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, data_fn))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def adopt(self, spans: list[list], parent: int) -> None:
        """Append spans recorded by a child process under one of ours."""
        base = len(self.spans)
        for name, start, end, par, data in spans:
            self.spans.append([name, start, end, parent if par < 0 else par + base, data])


def dump(spans: list[list], path: Path) -> None:
    Path(path).write_text(json.dumps(spans))


# --- per-layer metrics --------------------------------------------------------


def layer(name: str) -> str:
    return name.split(".", 1)[0]


LAYERS = ("kernel", "orbit", "partitions", "murep", "fuse", "limits", "polyrat", "golden", "cli")


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Counts, busy and self times per layer.

    busy time adds up the outermost spans of a name (or layer), so nested
    calls are not counted twice; self time is a span's duration minus the
    spans directly under it.
    """
    n = len(spans)
    dur = [s[2] - s[1] for s in spans]
    child = [0.0] * n
    for i, s in enumerate(spans):
        if s[3] >= 0:
            child[s[3]] += dur[i]

    def ancestors(i):
        p = spans[i][3]
        while p >= 0:
            yield spans[p][0]
            p = spans[p][3]

    calls: dict[str, int] = {}
    busy: dict[str, float] = {}
    self_s: dict[str, float] = {}
    for i, (name, _, _, _, _) in enumerate(spans):
        calls[name] = calls.get(name, 0) + 1
        names = set(ancestors(i))
        if name not in names:
            busy[name] = busy.get(name, 0.0) + dur[i]
        lay = layer(name)
        if lay not in {layer(a) for a in names}:
            busy[lay] = busy.get(lay, 0.0) + dur[i]
        self_s[lay] = self_s.get(lay, 0.0) + dur[i] - child[i]
        self_s[name] = self_s.get(name, 0.0) + dur[i] - child[i]

    def data(name):
        return [s[4] for s in spans if s[0] == name and s[4] is not None]

    kernel = data("kernel.census_levels")
    capped = [d for d in kernel if d["capped"]]
    states = sum(d["states"] for d in kernel)
    gcds = data("polyrat.poly_gcd")
    systems = data("limits.assemble_system")
    stabilized = sum(
        1 for i, s in enumerate(spans)
        if s[0] == "kernel.census_levels" and "orbit.stabilized_h_series" in set(ancestors(i))
    )
    startup = sum(
        spans[i][1] - spans[s[3]][1]
        for i, s in enumerate(spans)
        if s[0] == "cli.run" and s[3] >= 0 and spans[s[3]][0] == "cli.process"
    )
    out = {
        "kernel.calls": calls.get("kernel.census_levels", 0),
        "kernel.states": states,
        "kernel.levels": sum(d["levels"] for d in kernel),
        "kernel.peak_frontier": max((d["peak"] for d in kernel), default=0),
        "kernel.busy_s": busy.get("kernel", 0.0),
        "kernel.states_per_s": states / busy["kernel"] if busy.get("kernel") else 0.0,
        "kernel.capped_calls": len(capped),
        "kernel.capped_states": sum(d["budget"] + 1 for d in capped),
        "orbit.build_orbit.states": sum(d["states"] for d in data("orbit.build_orbit")),
        "orbit.build_orbit.busy_s": busy.get("orbit.build_orbit", 0.0),
        "orbit.stabilized.censuses": stabilized,
        "partitions.predecessors.calls": calls.get("partitions.predecessors", 0),
        "partitions.predecessors.busy_s": busy.get("partitions.predecessors", 0.0),
        "murep.recurrent_elements.calls": calls.get("murep.recurrent_elements", 0),
        "murep.inf_move.calls": calls.get("murep.inf_move", 0),
        "murep.inf_move.busy_s": busy.get("murep.inf_move", 0.0),
        "fuse.detect_fuse.calls": calls.get("fuse.detect_fuse", 0),
        "fuse.detect_fuse.busy_s": busy.get("fuse.detect_fuse", 0.0),
        "limits.assemble.busy_s": busy.get("limits.assemble_system", 0.0),
        "limits.unknowns": sum(d["unknowns"] for d in systems),
        "limits.aux_classes": sum(d["aux"] for d in systems),
        "limits.solve.busy_s": busy.get("limits.solve_system", 0.0),
        "limits.solve.self_s": self_s.get("limits.solve_system", 0.0),
        "limits.reduce.busy_s": busy.get("limits.reduce_system", 0.0),
        "polyrat.gcd.calls": len(gcds),
        "polyrat.gcd.busy_s": busy.get("polyrat.poly_gcd", 0.0),
        "polyrat.gcd.nontrivial_ratio": (
            sum(d["nontrivial"] for d in gcds) / len(gcds) if gcds else 0.0
        ),
        "polyrat.divexact.calls": calls.get("polyrat.poly_divexact", 0),
        "polyrat.divexact.busy_s": busy.get("polyrat.poly_divexact", 0.0),
        "polyrat.ratfn.calls": calls.get("polyrat.RatFn", 0),
        "golden.load_s": busy.get("golden", 0.0),
        "cli.commands": calls.get("cli.process", 0),
        "cli.startup_s": startup,
        "cli.handler_s": busy.get("cli.handler", 0.0),
    }
    for lay in LAYERS:
        out[f"{lay}.self_s"] = self_s.get(lay, 0.0)
    out["trace.spans"] = n
    return out
