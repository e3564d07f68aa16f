"""End-to-end and per-layer benchmark of harnack-lab's verification workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the repository root is the parent of this directory and
the package is taken from its src/ (PYTHONPATH), so nothing is installed.
Every command of the workload runs in its own child process, once at
--threads 1 and once at --threads 2, and each output CSV is checked
against independent oracles (checks.py, oracle_values.py); the two thread
counts must give byte-identical CSVs.

--trace 0 reports the end-to-end metrics (wall_s, wall_2t_s, peak_rss_mb,
peak_rss_2t_mb, setup_s); --trace 1 reports the per-layer metrics from
span-traced passes (tracer.py) and the tracing overhead. The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
The line before it ("record ...") holds the run's provenance and the
per-command figures.

This process deliberately stays free of numpy: on Linux a child's peak
RSS as reported by wait4 includes the peak RSS of its parent at spawn time.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional

import checks
import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
PYTHON = sys.executable
THREADS = (1, 2)
SETUP_PROBES = 8
RUN_DEADLINE_S = 170.0
CLI_MAIN = ("import sys; from harnack_lab.cli import main; "
            "sys.argv[0] = 'harnack-lab'; main()")


def git_sha() -> str:
    """HEAD of the checkout's git repository, or 'unknown' outside one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


class Runner:
    """Spawns the children of one run, one at a time, and keeps the tally
    of attempted and failed operations."""

    def __init__(self, work: Path, started: float):
        self.work = work
        self.deadline = started + RUN_DEADLINE_S
        env = dict(os.environ)
        src = str(ROOT / "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        env.pop("HARNACK_LAB_THREADS", None)
        self.env = env
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []     # operations that did not complete
        self.problems: List[str] = []     # completed operations with wrong output
        self.per_command: Dict[str, Dict[str, list]] = {}
        self._n = 0

    def spawn(self, argv: List[str]):
        """Run one child to completion, its output to a log file; returns
        (wall seconds, peak RSS MB, exit status, log path)."""
        self._n += 1
        log = self.work / f"child-{self._n}.log"
        with open(log, "wb") as fh:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=fh, stderr=subprocess.STDOUT,
                                    env=self.env, cwd=str(ROOT))
            timer = threading.Timer(max(self.deadline - time.monotonic(), 1.0), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return wall, usage.ru_maxrss / 1024.0, proc.returncode, log

    def out_of_time(self) -> bool:
        return time.monotonic() >= self.deadline

    def fail(self, what: str) -> None:
        self.failed += 1
        self.failures.append(what)

    def run_step(self, step: wl.Step, cfg: Path, threads: int, label: str,
                 expected: dict, trace_mode: Optional[str] = None,
                 spans: Optional[Path] = None):
        """Run one step; returns (wall, rss, csv text or None)."""
        out = self.work / "out" / label / f"{step.tag}-t{threads}"
        if step.command == "lib":
            args = [*wl.lib_args(step), "--threads", str(threads), "--out", str(out)]
            plain = [PYTHON, str(HERE / "lib_call.py"), *args]
            kind = "lib"
        else:
            args = [step.command, "--config", str(cfg), "--out", str(out),
                    "--threads", str(threads)]
            plain = [PYTHON, "-c", CLI_MAIN, *args]
            kind = "cli"
        argv = plain if trace_mode is None else [
            PYTHON, str(HERE / "tracer.py"), "--spans", str(spans), "--mode", trace_mode,
            kind, *args]
        self.attempted += 1
        wall, rss, rc, log = self.spawn(argv)
        what = f"{label}/{step.tag} --threads {threads}"
        try:
            text = (out / step.csv_name).read_text()
        except OSError:
            self.fail(f"{what}: exit {rc}, no CSV; " + log.read_text()[-400:])
            return wall, rss, None
        want_rc = checks.expected_exit(step, text)
        if rc != want_rc:
            self.fail(f"{what}: exit {rc}, verdicts imply {want_rc}; " + log.read_text()[-400:])
            return wall, rss, None
        self.problems += [f"{what}: {p}" for p in checks.check(step, text, expected)]
        return wall, rss, text

    def compare(self, what: str, a: Optional[str], b: Optional[str]) -> None:
        """One operation: two CSVs that must be byte-identical."""
        self.attempted += 1
        if a is None or b is None:
            self.fail(f"{what}: missing output")
        elif a != b:
            self.fail(f"{what}: CSVs differ")


def run_pass(runner: Runner, steps, cfgs, expected, label: str,
             threads_list=THREADS, trace_mode=None, span_dir: Optional[Path] = None,
             before_child=None):
    """One pass over the workload's steps at each thread count, interleaved
    step by step. Returns per-thread wall sum, peak RSS and CSV texts."""
    res = {t: {"wall": 0.0, "rss": 0.0, "csv": {}, "spans": []} for t in threads_list}
    for step in steps:
        for t in threads_list:
            if before_child is not None:
                before_child()
            spans = None
            if span_dir is not None:
                spans = span_dir / f"{label}-{step.tag}-t{t}.json"
            wall, rss, text = runner.run_step(step, cfgs[step.tag], t, label,
                                              expected[step.tag], trace_mode, spans)
            res[t]["wall"] += wall
            res[t]["rss"] = max(res[t]["rss"], rss)
            res[t]["csv"][step.tag] = text
            if spans is not None:
                res[t]["spans"].append(str(spans))
            if trace_mode is None:
                rec = runner.per_command.setdefault(step.tag, {})
                rec.setdefault(f"wall_{t}t", []).append(round(wall, 4))
                rec.setdefault(f"rss_{t}t_mb", []).append(round(rss, 1))
    return res


def measured_run(runner: Runner, steps, cfgs, expected, seconds: float) -> dict:
    """End-to-end metrics: whole passes until the passes have taken at
    least the run length, medians over the passes. A set-up probe runs
    before every child, so the set-up samples spread over the whole run;
    topped up to SETUP_PROBES at the end."""
    setup_cfg = cfgs[steps[0].tag]
    setups = []

    def probe():
        runner.attempted += 1
        wall, _, rc, log = runner.spawn([PYTHON, str(HERE / "setup_probe.py"), str(setup_cfg)])
        if rc != 0:
            runner.fail(f"setup probe exit {rc}: " + log.read_text()[-400:])
        setups.append(wall)

    passes = []
    t_start = time.perf_counter()
    while not passes or (time.perf_counter() - t_start < seconds and not runner.out_of_time()):
        res = run_pass(runner, steps, cfgs, expected, f"pass{len(passes)}", before_child=probe)
        for step in steps:
            runner.compare(f"pass{len(passes)}/{step.tag} threads 1 vs 2",
                           res[1]["csv"][step.tag], res[2]["csv"][step.tag])
        passes.append(res)
    while len(setups) < SETUP_PROBES:
        probe()

    def med(key, t):
        return statistics.median(p[t][key] for p in passes)

    metrics = {
        "wall_s": (med("wall", 1), "s"),
        "wall_2t_s": (med("wall", 2), "s"),
        "peak_rss_mb": (med("rss", 1), "MB"),
        "peak_rss_2t_mb": (med("rss", 2), "MB"),
        "setup_s": (statistics.median(setups), "s"),
    }
    return {"metrics": metrics, "passes": len(passes), "setup_walls": [round(s, 4) for s in setups]}


def traced_run(runner: Runner, steps, cfgs, expected, trace_dir: Path) -> dict:
    """Per-layer metrics from span-traced passes (see tracer.layer_metrics),
    with the tracing overhead measured against an untraced pass."""
    import tracer

    base = run_pass(runner, steps, cfgs, expected, "untraced", threads_list=(1,))
    spans = run_pass(runner, steps, cfgs, expected, "spans", threads_list=(1,),
                     trace_mode="spans", span_dir=trace_dir)
    par = run_pass(runner, steps, cfgs, expected, "spans2t", threads_list=(2,),
                   trace_mode="spans", span_dir=trace_dir)
    alloc = run_pass(runner, steps, cfgs, expected, "alloc", threads_list=(1,),
                     trace_mode="alloc", span_dir=trace_dir)
    for step in steps:
        a = base[1]["csv"][step.tag]
        runner.compare(f"{step.tag} traced vs untraced", a, spans[1]["csv"][step.tag])
        runner.compare(f"{step.tag} threads 1 vs 2 (traced)", a, par[2]["csv"][step.tag])
        runner.compare(f"{step.tag} tracemalloc vs untraced", a, alloc[1]["csv"][step.tag])

    layers, absent = tracer.layer_metrics(spans[1]["spans"], par[2]["spans"], alloc[1]["spans"])
    layers["trace.overhead_pct"] = 100.0 * (spans[1]["wall"] / base[1]["wall"] - 1.0)
    metrics = {k: (v, unit_of(k)) for k, v in layers.items()}
    return {"metrics": metrics, "absent_metrics": absent,
            "untraced_wall_s": round(base[1]["wall"], 4),
            "traced_wall_s": round(spans[1]["wall"], 4), "trace_dir": str(trace_dir)}


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_pct"):
        return "%"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith("concurrency"):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=wl.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=14.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not 0 <= args.seed < 2 ** 62:
        ap.error("--seed must lie in [0, 2**62)")

    if not (ROOT / "src" / "harnack_lab" / "__init__.py").is_file():
        print(f"perfbench: no harnack_lab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    started = time.monotonic()
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    runner = Runner(work, started)
    try:
        _, _, rc, log = runner.spawn([PYTHON, str(HERE / "oracle_values.py"),
                                         "--workload", args.workload, "--seed", str(args.seed)])
        if rc != 0:
            print("perfbench: oracle process failed:\n" + log.read_text(), file=sys.stderr)
            return 1
        oracle = json.loads(log.read_text().splitlines()[-1])
        steps = wl.steps(args.workload, args.seed)
        cfgs = {}
        for step in steps:
            cfgs[step.tag] = work / f"{step.tag}.ini"
            cfgs[step.tag].write_text(wl.config_text(step))

        if args.trace:
            trace_dir = WORK / "trace" / args.workload
            shutil.rmtree(trace_dir, ignore_errors=True)
            trace_dir.mkdir(parents=True)
            result = traced_run(runner, steps, cfgs, oracle["expected"], trace_dir)
        else:
            result = measured_run(runner, steps, cfgs, oracle["expected"], args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if runner.attempted == runner.failed:
        print("perfbench: every operation failed:\n  " + "\n  ".join(runner.failures[:5]),
              file=sys.stderr)
        return 1
    for line in runner.failures + runner.problems:
        print("problem: " + line, file=sys.stderr)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "attempted": runner.attempted, "failed": runner.failed,
        "failures": runner.failures[:20], "problems": runner.problems[:20],
        "cpu_count": os.cpu_count(), "python": oracle["python"], "numpy": oracle["numpy"],
        "git_sha": git_sha(), "run_s": round(time.monotonic() - started, 2),
        "per_command": runner.per_command,
        **{k: v for k, v in result.items() if k != "metrics"},
    }
    print("record " + json.dumps(record))
    print(json.dumps({
        "correct": not runner.problems,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
