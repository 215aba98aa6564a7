"""In-memory span tracing around the public functions of the trimag modules.

The package modules import functions by name (``from .cubic import
cardano_roots``), so a wrapper only sees a call if it is bound under that
name in the module that makes the call.  :meth:`Tracer.install` therefore
rebinds the name in every package module that holds the original function,
the defining module included, and :meth:`Tracer.uninstall` puts the
originals back.

A span is one call: name, start, end, parent span and op id.  Spans stay in
parallel lists until the run ends; :meth:`Tracer.dump` writes them out.
"""

from __future__ import annotations

import functools
import json
import math
import time
from collections import defaultdict
from pathlib import Path

# (module, function) of every wrapped boundary; its span is "module.function",
# and figures.generate spans get the figure argument appended at call time
BOUNDARIES = (
    ("cubic", "cardano_roots"),
    ("cubic", "match_to_previous"),
    ("core", "locate_ep3"),
    ("core", "eigenvalues_on_manifold"),
    ("sensing", "central_branch"),
    ("sensing", "exact_eigenshift"),
    ("sensing", "sensitivity_report"),
    ("spectrum", "total_output"),
    ("spectrum", "total_output_spectrum"),
    ("spectrum", "find_dip"),
    ("spectrum", "spectrum_dip"),
    ("spectrum", "trace_to_csv"),
    ("figures", "generate"),
    ("cli", "main"),
)

CONSUMERS = ("trimag", "trimag.cubic", "trimag.core", "trimag.sensing",
             "trimag.spectrum", "trimag.figures", "trimag.cli")


def self_times(starts, ends, parents) -> list[float]:
    """Duration of each span minus the part of it covered by its children.

    Children of one span may overlap each other in general, so the covered
    part is the length of the union of their intervals, clipped to the
    parent's own interval.
    """
    children = defaultdict(list)
    for i, p in enumerate(parents):
        if p >= 0:
            children[p].append((starts[i], ends[i]))
    out = []
    for i, (s, e) in enumerate(zip(starts, ends)):
        covered, reach = 0.0, s
        for cs, ce in sorted(children.get(i, ())):
            cs, ce = max(cs, reach), min(ce, e)
            if ce > cs:
                covered += ce - cs
                reach = ce
        out.append((e - s) - covered)
    return out


class Tracer:
    """Records spans and boundary counts while installed."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.op_ids: list[int] = []
        self.failed: set[int] = set()
        self.counts: dict[str, float] = defaultdict(float)
        self.op_id = -1
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ recording

    def begin_op(self, op_id: int) -> None:
        self.op_id = op_id

    def _wrap(self, fn, span_name):
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name = span_name
            if span_name == "figures.generate":
                name = f"figures.generate.{args[0] if args else kwargs['figure']}"
            elif span_name == "spectrum.total_output":
                omega = args[2] if len(args) > 2 else kwargs["omega"]
                tracer.counts["spectrum.total_output.points"] += _size(omega)
            idx = len(tracer.names)
            tracer.names.append(name)
            tracer.parents.append(tracer._stack[-1] if tracer._stack else -1)
            tracer.op_ids.append(tracer.op_id)
            tracer.ends.append(math.nan)
            tracer._stack.append(idx)
            tracer.starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.failed.add(idx)
                raise
            finally:
                tracer.ends[idx] = clock()
                tracer._stack.pop()
            if span_name == "spectrum.total_output_spectrum":
                tracer.counts["spectrum.pole_points"] += int(result.pole_mask.sum())
            elif span_name == "spectrum.find_dip":
                trace = args[0] if args else kwargs["trace"]
                if result.dip_value_db <= trace.floor_db:
                    tracer.counts["spectrum.floor_clamped_dips"] += 1
            return result

        return traced

    def install(self) -> None:
        """Rebind every boundary function in each package module holding it."""
        import importlib

        modules = [importlib.import_module(m) for m in CONSUMERS]
        for mod_name, fn_name in BOUNDARIES:
            original = getattr(importlib.import_module(f"trimag.{mod_name}"),
                               fn_name)
            wrapper = self._wrap(original, f"{mod_name}.{fn_name}")
            for mod in modules:
                if getattr(mod, fn_name, None) is original:
                    self._saved.append((mod, fn_name, original))
                    setattr(mod, fn_name, wrapper)

    def uninstall(self) -> None:
        for mod, fn_name, original in reversed(self._saved):
            setattr(mod, fn_name, original)
        self._saved.clear()

    # ------------------------------------------------------------ reporting

    def layer_metrics(self, ops: int) -> dict[str, float]:
        """Per-layer totals of the traced window, divided by the op count."""
        ops = max(ops, 1)
        selfs = self_times(self.starts, self.ends, self.parents)
        calls = defaultdict(int)
        busy = defaultdict(float)
        own = defaultdict(float)
        failed = defaultdict(int)
        for i, name in enumerate(self.names):
            calls[name] += 1
            busy[name] += self.ends[i] - self.starts[i]
            own[name] += selfs[i]
            if i in self.failed:
                failed[name] += 1

        def parent_name(i):
            p = self.parents[i]
            return self.names[p] if p >= 0 else ""

        ramp_solves = sum(1 for i, n in enumerate(self.names)
                          if n == "cubic.cardano_roots"
                          and parent_name(i) == "sensing.central_branch")
        shifts = calls["sensing.central_branch"] - failed["sensing.central_branch"]
        refine_evals = sum(1 for i, n in enumerate(self.names)
                           if n == "spectrum.total_output"
                           and parent_name(i) == "spectrum.find_dip")
        figure_spans = [n for n in calls if n.startswith("figures.generate.")]

        out = {}
        for mod_name, fn_name in BOUNDARIES:
            name = f"{mod_name}.{fn_name}"
            if name == "figures.generate":
                continue
            out[f"{name}.calls"] = calls[name] / ops
            out[f"{name}.busy_ms"] = busy[name] * 1e3 / ops
            out[f"{name}.self_ms"] = own[name] * 1e3 / ops
            out[f"{name}.failed"] = failed[name] / ops
        for fig in ("fig2", "fig3c", "fig3d", "fig3f", "fig4"):
            out[f"figures.generate.{fig}.busy_ms"] = (
                busy[f"figures.generate.{fig}"] * 1e3 / ops)
        out["figures.self_ms"] = sum(own[n] for n in figure_spans) * 1e3 / ops
        out["sensing.solves_per_shift"] = ramp_solves / shifts if shifts else 0.0
        out["spectrum.refine_evals_per_dip"] = (
            refine_evals / calls["spectrum.find_dip"]
            if calls["spectrum.find_dip"] else 0.0)
        out["spectrum.total_output.points"] = (
            self.counts["spectrum.total_output.points"] / ops)
        out["spectrum.pole_points"] = self.counts["spectrum.pole_points"] / ops
        out["spectrum.floor_clamped_dips"] = (
            self.counts["spectrum.floor_clamped_dips"] / ops)
        return out

    def dump(self, path: Path) -> None:
        """Write every span as columns of one JSON object."""
        path.write_text(json.dumps({
            "name": self.names, "start": self.starts, "end": self.ends,
            "parent": self.parents, "op": self.op_ids,
            "failed": sorted(self.failed)}))


def _size(omega) -> int:
    shape = getattr(omega, "shape", ())
    return int(math.prod(shape)) if shape else 1
