"""Span tracing for the benchmark's traced runs.

Run as a script, this starts one traced command: it imports harnack_lab,
wraps the calls from one module into the next (the table TARGETS), runs a
CLI command or a library call (lib_call.py), and writes every span to a
JSON file when the command ends:

    PYTHONPATH=src python3 perfbench/tracer.py --spans FILE --mode spans \
        cli log-harnack --config exp.ini --threads 1
    PYTHONPATH=src python3 perfbench/tracer.py --spans FILE --mode alloc \
        lib --system ... (lib_call.py arguments)

A span is (id, parent id, name, start, end, thread CPU seconds, attrs).
Spans stay in memory until the command ends. --mode alloc wraps only the
batch kernels and runs each kernel call under tracemalloc, which roughly
doubles the kernel's time; its spans give peak allocations, not times.

A target whose module or attribute no longer exists is listed under
"absent" in the span file instead of failing the run, so renaming or
merging an internal function turns its layer's metrics absent.

The benchmark's parent process imports this module only for traced runs,
and uses layer_metrics() to turn span files into per-layer metrics; that
part needs the standard library only.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import importlib
import itertools
import json
import os
import statistics
import sys
import threading
import time
import tracemalloc
from typing import Callable, Dict, List, Optional, Tuple


def _arg(args, kwargs, pos, name):
    if name in kwargs:
        return kwargs[name]
    return args[pos] if len(args) > pos else None


def _shape_attrs(noise) -> dict:
    """Batch width and step count of a time-major (n_T, B, d) noise array."""
    shape = getattr(noise, "shape", None)
    if not shape or len(shape) < 2:
        return {}
    return {"paths": int(shape[1]), "steps": int(shape[0])}


class Recorder:
    """Collects spans; one instance per traced process."""

    def __init__(self, alloc: bool = False):
        self.alloc = alloc
        self.spans: List[list] = []
        self.absent: List[str] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def current(self) -> Optional[int]:
        st = self._stack()
        return st[-1] if st else None

    def call(self, name: str, fn: Callable, args, kwargs, parent=None,
             before=None, after=None, probe=False):
        stack = self._stack()
        sid = next(self._ids)
        if parent is None and stack:
            parent = stack[-1]
        attrs = {}
        if before is not None:
            try:
                attrs.update(before(args, kwargs))
            except (TypeError, IndexError, AttributeError, KeyError, ValueError):
                pass
        probe = probe and self.alloc and not tracemalloc.is_tracing()
        if probe:
            tracemalloc.start()
        stack.append(sid)
        c0 = time.thread_time()
        t0 = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            c1 = time.thread_time()
            stack.pop()
            if probe:
                attrs["peak_bytes"] = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
            self.spans.append([sid, parent, name, t0, t1, c1 - c0, attrs or None])
        if after is not None:
            try:
                attrs.update(after(args, kwargs, out))
            except (TypeError, IndexError, AttributeError, KeyError, ValueError):
                pass
            self.spans[-1][6] = attrs or None
        return out

    def wrap(self, name: str, fn: Callable, before=None, after=None, probe=False):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, args, kwargs, before=before, after=after, probe=probe)
        return wrapper

    def dump(self, path: str, extra: dict) -> None:
        with open(path, "w") as fh:
            json.dump(dict(extra, absent=self.absent, spans=self.spans), fh)


# ---- wrapping the package -------------------------------------------------

def _system_wrapper(rec: Recorder, fn: Callable) -> Callable:
    """builtin_system whose coefficient callables are traced."""
    @functools.wraps(fn)
    def builtin_system(*args, **kwargs):
        cs = fn(*args, **kwargs)
        repl = {f: rec.wrap("coefficients." + f, getattr(cs, f))
                for f in ("sigma", "sigma_inv", "z_drift", "b_delay")
                if callable(getattr(cs, f, None))}
        try:
            return dataclasses.replace(cs, **repl)
        except TypeError:
            return cs
    return builtin_system


def _map_wrapper(rec: Recorder, fn: Callable) -> Callable:
    """map_chunks that records the map and, as its children, every chunk,
    whichever worker thread runs it."""
    @functools.wraps(fn)
    def map_chunks(chunk_fn, n_total, *args, **kwargs):
        parent = rec.current()

        def traced_chunk(a, b):
            return rec.call("_parallel.chunk", chunk_fn, (a, b), {}, parent=parent,
                            before=lambda _a, _k: {"paths": b - a})
        return fn(traced_chunk, n_total, *args, **kwargs)
    return rec.wrap("_parallel.map_chunks", map_chunks)


def _euler_before(args, kwargs):
    return _shape_attrs(_arg(args, kwargs, 3, "noise"))


def _coupled_before(args, kwargs):
    attrs = _shape_attrs(_arg(args, kwargs, 5, "noise"))
    attrs["measure"] = _arg(args, kwargs, 6, "measure")
    attrs["seg_gap"] = bool(kwargs.get("want_seg_gap", False))
    return attrs


def _coupled_after(args, kwargs, out):
    return {"unmerged": int((~out["merged"]).sum())}


def _csv_after(args, kwargs, out):
    path = _arg(args, kwargs, 0, "path")
    return {"rows": len(_arg(args, kwargs, 2, "rows")), "bytes": os.path.getsize(path)}


# (span name, module, attribute path, keyword options). Kernels appear
# twice: once as the estimators call them for Monte Carlo chunks, once as
# the single-path simulators in their own module call them.
TARGETS = [
    ("integrator.noise", "harnack_lab.integrator", "NoiseStream.batch",
     dict(before=lambda a, k: {"paths": int(_arg(a, k, 2, "n_paths")),
                               "steps": int(_arg(a, k, 3, "n_steps"))})),
    ("integrator.euler", "harnack_lab.estimators", "_simulate_batch",
     dict(before=_euler_before, probe=True)),
    ("integrator.euler", "harnack_lab.integrator", "_simulate_batch",
     dict(before=_euler_before, probe=True)),
    ("coupling.kernel", "harnack_lab.estimators", "_coupled_batch",
     dict(before=_coupled_before, after=_coupled_after, probe=True)),
    ("coupling.kernel", "harnack_lab.coupling", "_coupled_batch",
     dict(before=_coupled_before, after=_coupled_after, probe=True)),
    ("coefficients.builtin_system", "harnack_lab.cli", "builtin_system", dict(system=True)),
    ("coefficients.builtin_system", "harnack_lab.coefficients", "builtin_system", dict(system=True)),
    ("coefficients.audit", "harnack_lab.cli", "audit_assumptions", {}),
    ("bounds.H_T", "harnack_lab.estimators", "bound_H_T", {}),
    ("bounds.H_T", "harnack_lab.cli", "bound_H_T", {}),
    ("bounds.Phi_p", "harnack_lab.estimators", "bound_Phi_p", {}),
    ("bounds.Phi_p", "harnack_lab.cli", "bound_Phi_p", {}),
    ("estimators.entry", "harnack_lab.cli", "estimate_entropy_Q", {}),
    ("estimators.entry", "harnack_lab.cli", "estimate_martingale_mean", {}),
    ("estimators.entry", "harnack_lab.cli", "check_log_harnack", {}),
    ("estimators.entry", "harnack_lab.cli", "check_power_harnack", {}),
    ("estimators.entry", "harnack_lab.cli", "sample_stationary_segments", {}),
    ("estimators.entry", "harnack_lab.estimators", "estimate_exp_functional", {}),
    ("_parallel.map_chunks", "harnack_lab.estimators", "map_chunks", dict(map=True)),
    ("segment_paths.build", "harnack_lab.segment_paths", "SegmentPath.__init__", {}),
    ("cli.parse_config", "harnack_lab.cli", "parse_config", {}),
    ("cli.write_csv", "harnack_lab.cli", "_write_csv", dict(after=_csv_after)),
]


def install(rec: Recorder, alloc_only: bool) -> None:
    """Wrap every target that exists; list the others as absent."""
    for name, modname, attrpath, opts in TARGETS:
        if alloc_only and not opts.get("probe"):
            continue
        where = f"{modname}.{attrpath}"
        try:
            owner = importlib.import_module(modname)
            *path, attr = attrpath.split(".")
            for part in path:
                owner = getattr(owner, part)
            fn = getattr(owner, attr)
        except (ImportError, AttributeError):
            rec.absent.append(where)
            continue
        if not callable(fn):
            rec.absent.append(where)
            continue
        if opts.get("system"):
            wrapped = _system_wrapper(rec, fn)
        elif opts.get("map"):
            wrapped = _map_wrapper(rec, fn)
        else:
            wrapped = rec.wrap(name, fn, before=opts.get("before"),
                               after=opts.get("after"), probe=opts.get("probe", False))
        setattr(owner, attr, wrapped)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="run one command with span tracing")
    ap.add_argument("--spans", required=True, help="span file to write")
    ap.add_argument("--mode", choices=("spans", "alloc"), default="spans")
    ap.add_argument("kind", choices=("cli", "lib"))
    ap.add_argument("args", nargs=argparse.REMAINDER)
    ns = ap.parse_args(argv)

    t0 = time.perf_counter()
    import harnack_lab  # noqa: F401  (timed: the import is part of set-up)
    import_s = time.perf_counter() - t0

    rec = Recorder(alloc=ns.mode == "alloc")
    install(rec, alloc_only=ns.mode == "alloc")
    if ns.kind == "cli":
        from harnack_lab.cli import run_command
        rc = rec.call("cli.run_command", run_command, (ns.args,), {})
    else:
        import lib_call
        rc = rec.call("cli.run_command", lib_call.run, (ns.args,), {})
    rec.dump(ns.spans, {"import_s": import_s, "mode": ns.mode})
    return rc


# ---- turning span files into per-layer metrics (parent side) ---------------

def _union_length(intervals) -> float:
    total, end = 0.0, None
    for a, b in sorted(intervals):
        if end is None or a > end:
            total += b - a
            end = b
        elif b > end:
            total += b - end
            end = b
    return total


def _self_times(spans) -> Dict[int, float]:
    """Duration of each span minus the part of it its children cover."""
    kids: Dict[int, list] = {}
    for s in spans:
        if s[1] is not None:
            kids.setdefault(s[1], []).append((s[3], s[4]))
    out = {}
    for s in spans:
        t0, t1 = s[3], s[4]
        cover = [(max(a, t0), min(b, t1)) for a, b in kids.get(s[0], []) if b > t0 and a < t1]
        out[s[0]] = (t1 - t0) - _union_length(cover)
    return out


# per-layer metric -> the span names it is made from
METRIC_SOURCES = {
    "integrator.noise_s": ["integrator.noise"],
    "integrator.noise_paths": ["integrator.noise"],
    "integrator.euler_s": ["integrator.euler"],
    "integrator.path_steps": ["integrator.euler"],
    "integrator.peak_alloc_mb": ["integrator.euler"],
    "coupling.kernel_q_s": ["coupling.kernel"],
    "coupling.kernel_p_s": ["coupling.kernel"],
    "coupling.kernel_seg_gap_s": ["coupling.kernel"],
    "coupling.pair_steps": ["coupling.kernel"],
    "coupling.peak_alloc_mb": ["coupling.kernel"],
    "coupling.unmerged": ["coupling.kernel"],
    "coefficients.sigma_s": ["coefficients.builtin_system"],
    "coefficients.drift_s": ["coefficients.builtin_system"],
    "coefficients.calls": ["coefficients.builtin_system"],
    "coefficients.audit_s": ["coefficients.audit"],
    "bounds.h_t_s": ["bounds.H_T"],
    "bounds.phi_p_s": ["bounds.Phi_p"],
    "estimators.self_s": ["estimators.entry", "_parallel.map_chunks"],
    "estimators.chunks": ["_parallel.map_chunks"],
    "estimators.paths": ["_parallel.map_chunks"],
    "parallel.map_s": ["_parallel.map_chunks"],
    "parallel.chunk_busy_s": ["_parallel.map_chunks"],
    "parallel.concurrency": ["_parallel.map_chunks"],
    "segment_paths.build_s": ["segment_paths.build"],
    "segment_paths.segments_built": ["segment_paths.build"],
    "cli.import_s": [],
    "cli.parse_s": ["cli.parse_config"],
    "cli.csv_write_s": ["cli.write_csv"],
    "cli.csv_bytes": ["cli.write_csv"],
    "cli.csv_rows": ["cli.write_csv"],
}


def _load(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def layer_metrics(span_files: List[str], parallel_files: List[str],
                  alloc_files: List[str]) -> Tuple[Dict[str, float], List[str]]:
    """Per-layer metrics of one workload pass.

    span_files: one file per command of the traced 1-thread pass (times
    and counts); parallel_files: the traced 2-thread pass (map time and
    chunk CPU time); alloc_files: the tracemalloc pass (peak allocations).
    Times and counts are totals over the pass, except cli.import_s and
    cli.parse_s, which are per process (median), as setup_s is;
    trace.spans counts the spans of the 1-thread pass. Also returns the
    metrics whose layer could not be wrapped.
    """
    m = {k: 0.0 for k in METRIC_SOURCES}
    m["trace.spans"] = 0.0
    imports, parses = [], []
    absent = set()
    for path in span_files:
        data = _load(path)
        absent.update(data["absent"])
        imports.append(data["import_s"])
        spans = data["spans"]
        m["trace.spans"] += len(spans)
        own = _self_times(spans)
        parse_s = 0.0
        for s in spans:
            sid, _, name, t0, t1, cpu, attrs = s
            attrs = attrs or {}
            dur = t1 - t0
            if name == "integrator.noise":
                m["integrator.noise_s"] += dur
                m["integrator.noise_paths"] += attrs.get("paths", 0)
            elif name == "integrator.euler":
                m["integrator.euler_s"] += dur
                m["integrator.path_steps"] += attrs.get("paths", 0) * attrs.get("steps", 0)
            elif name == "coupling.kernel":
                if attrs.get("seg_gap"):
                    m["coupling.kernel_seg_gap_s"] += dur
                elif attrs.get("measure") == "P":
                    m["coupling.kernel_p_s"] += dur
                else:
                    m["coupling.kernel_q_s"] += dur
                m["coupling.pair_steps"] += attrs.get("paths", 0) * attrs.get("steps", 0)
                m["coupling.unmerged"] += attrs.get("unmerged", 0)
            elif name.startswith("coefficients.") and name != "coefficients.audit":
                key = "coefficients.sigma_s" if name.startswith("coefficients.sigma") \
                    else "coefficients.drift_s"
                m[key] += dur
                m["coefficients.calls"] += 1
            elif name == "coefficients.audit":
                m["coefficients.audit_s"] += dur
            elif name == "bounds.H_T":
                m["bounds.h_t_s"] += dur
            elif name == "bounds.Phi_p":
                m["bounds.phi_p_s"] += dur
            elif name in ("estimators.entry", "_parallel.chunk"):
                # a chunk's own time is the estimators' closure (test
                # function, reductions), not the map machinery
                m["estimators.self_s"] += own[sid]
                if name == "_parallel.chunk":
                    m["estimators.chunks"] += 1
                    m["estimators.paths"] += attrs.get("paths", 0)
            elif name == "segment_paths.build":
                m["segment_paths.build_s"] += dur
                m["segment_paths.segments_built"] += 1
            elif name == "cli.parse_config":
                parse_s += dur
            elif name == "cli.write_csv":
                m["cli.csv_write_s"] += dur
                m["cli.csv_bytes"] += attrs.get("bytes", 0)
                m["cli.csv_rows"] += attrs.get("rows", 0)
        parses.append(parse_s)
    for path in parallel_files:
        for s in _load(path)["spans"]:
            if s[2] == "_parallel.map_chunks":
                m["parallel.map_s"] += s[4] - s[3]
            elif s[2] == "_parallel.chunk":
                m["parallel.chunk_busy_s"] += s[5]
    if m["parallel.map_s"] > 0:
        m["parallel.concurrency"] = m["parallel.chunk_busy_s"] / m["parallel.map_s"]
    for path in alloc_files:
        for s in _load(path)["spans"]:
            peak = (s[6] or {}).get("peak_bytes")
            if peak is None:
                continue
            key = "integrator.peak_alloc_mb" if s[2] == "integrator.euler" \
                else "coupling.peak_alloc_mb"
            m[key] = max(m[key], peak / 2 ** 20)
    m["cli.import_s"] = statistics.median(imports)
    m["cli.parse_s"] = statistics.median(parses)
    return m, absent_metrics(absent)


def absent_metrics(absent_targets) -> List[str]:
    """Metrics none of whose source targets could be wrapped."""
    present = {name for name, mod, attr, _ in TARGETS
               if f"{mod}.{attr}" not in absent_targets}
    return sorted(k for k, srcs in METRIC_SOURCES.items()
                  if srcs and not present.intersection(srcs))


if __name__ == "__main__":
    sys.exit(main())
