"""affinespde benchmark: four CLI workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  One client runs one CLI command at a
time, each in a fresh process (closed loop, no threads of its own), through
``affinespde.cli.main`` exactly as a user's ``affinespde`` call does.  Passes
over the workload's commands repeat until the command processes have taken
S seconds; every output is checked (checks.py).  The last stdout line is
one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer metrics
of a traced run (spans.py) plus the tracing overhead.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time

from spans import PEAK_SPANS  # imports no numpy, so this process stays small

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench-work")

CERTIFIED = ("hjmm-linear", "hjmm-levy", "transport-1d",
             "transport-mortality-2d", "cable", "heat-disk", "hermite",
             "laguerre", "term-structure-2")
NEGATIVE = ("neg-gauss-taylor", "neg-rational-taylor")
ENSEMBLE_PATHS = 20000
VERIFY_REFINE = 2

MAX_RUN_S = 150.0        # never start a pass that could end past this
COMMAND_TIMEOUT_S = 120
SETUP_SAMPLES = 9        # fewest import times behind setup_s

# Per-layer metrics.  Each span gives <name>_s (outermost calls, total) and
# <name>.self_s (total minus the time of its traced children).
TIME_SPANS = (
    "cli.run_analyze", "cli.run_simulate", "cli.run_verify",
    "config.load_config", "config.build_runtime",
    "config.build_scenario_realization", "hjmm.product_closure",
    "realization.invariant_span", "realization.solve_psi",
    "realization.reconstruct", "realization.simulate_ensemble",
    "levy.sample_increment_ensemble", "levy.write_increments_csv",
    "operators.operator_matrix", "oracle.write_grid_path",
    "oracle.write_coordinate_csv", "oracle.solve_spde_grid",
    "oracle.solve_spde_modal", "oracle.modal_path_to_grid",
    "oracle.compare_paths", "oracle.foliation_distance",
)
CALL_COUNTS = ("funalg.shift", "funalg.multiply", "funalg.differentiate")
# Exact counters (unit, how obtained); each must repeat exactly between passes.
COUNTERS = {
    "oracle.write_grid_path.bytes": ("bytes", "file size after each call"),
    "oracle.grid_cells": ("count", "computed: sum of (n_t+1) x state size "
                                   "of every oracle solve"),
    "realization.invariant_span.dim": ("count", "sum of returned closure "
                                                "dimensions"),
    "levy.paths": ("count", "noise paths sampled"),
    "cli.artifact_bytes": ("bytes", "computed: size of all files a command "
                                    "writes"),
}
TRACE_TIMES = ("trace.untraced_wall_s", "trace.traced_wall_s",
               "trace.overhead_s", "trace.top_level_s")


def per_layer_metrics() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    out = []
    for span in TIME_SPANS:
        out += [(f"{span}_s", "s", "lower"), (f"{span}.self_s", "s", "lower")]
    out += [(f"{span}.calls", "count", "lower") for span in CALL_COUNTS]
    out += [(f"{span}.peak_alloc_mb", "MB", "lower") for span in PEAK_SPANS]
    out += [(name, unit, "lower") for name, (unit, _) in COUNTERS.items()]
    out += [(name, "s", "lower") for name in TRACE_TIMES]
    return out


END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB"),
              ("ok_frac", "ratio"), ("verify_pass_frac", "ratio"))


# ---------------------------------------------------------------------------
# workloads


def workload_commands(name: str, seed: int) -> list[dict]:
    """The workload's commands for one pass; --seed picks the order and the
    noise seed of every simulate/verify call."""
    rng = random.Random(seed)
    if name == "analyze-all":
        scen = list(CERTIFIED + NEGATIVE)
        rng.shuffle(scen)
        return [{"kind": "analyze", "scenario": s,
                 "argv": ["analyze", "--config", s]} for s in scen]
    if name == "curve-sim":
        return [{"kind": "simulate", "scenario": "hjmm-linear", "paths": 1,
                 "argv": ["simulate", "--config", "hjmm-linear",
                          "--seed", str(seed)]}]
    if name == "mc-ensemble":
        return [{"kind": "simulate", "scenario": "heat-disk",
                 "paths": ENSEMBLE_PATHS,
                 "argv": ["simulate", "--config", "heat-disk", "--seed",
                          str(seed), "--paths", str(ENSEMBLE_PATHS)]}]
    if name == "verify-refine2":
        scen = list(CERTIFIED)
        rng.shuffle(scen)
        return [{"kind": "verify", "scenario": s,
                 "argv": ["verify", "--config", s, "--refine",
                          str(VERIFY_REFINE), "--seed", str(seed)]}
                for s in scen]
    raise SystemExit(f"unknown workload {name!r}")


WORKLOADS = ("analyze-all", "curve-sim", "mc-ensemble", "verify-refine2")


# ---------------------------------------------------------------------------
# one command in a fresh process


def run_command(argv: list[str], out_dir: str, trace: int) -> dict:
    """Spawn child.py for one CLI call; return its record plus the process's
    peak RSS (from wait4) and the stderr tail on failure."""
    os.makedirs(out_dir, exist_ok=True)
    result = os.path.join(out_dir, ".record.json")
    log = os.path.join(out_dir, ".stderr.txt")
    env = {k: v for k, v in os.environ.items() if k != "AFFINESPDE_OUT"}
    cmd = [sys.executable, os.path.join(HERE, "child.py"), result,
           str(trace), "--", *argv, "--out", out_dir]
    start = time.perf_counter()
    with open(log, "w") as err:
        proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL, stderr=err,
                                cwd=out_dir, env=env)
    # Block in wait4 (no polling next to the command); SIGALRM kills a
    # command that hangs, and wait4 then returns.
    previous = signal.signal(signal.SIGALRM, lambda *_: proc.kill())
    signal.alarm(COMMAND_TIMEOUT_S)
    try:
        _pid, status, usage = os.wait4(proc.pid, 0)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    proc.returncode = os.waitstatus_to_exitcode(status)
    record = {"rc": proc.returncode, "rss_mb": usage.ru_maxrss / 1024.0,
              "proc_s": time.perf_counter() - start}
    try:
        with open(result) as fh:
            child = json.load(fh)
        os.remove(result)
    except (OSError, ValueError):
        record["error"] = "no record (child crashed or timed out)"
    else:
        if child.pop("rc") != record["rc"]:
            record["error"] = "process exit differs from main()'s return"
        record.update(child)
    with open(log) as fh:
        tail = fh.read()[-2000:]
    os.remove(log)
    if tail.strip():
        record["stderr"] = tail
    return record


def import_time(out_dir: str) -> float | None:
    """Import time of affinespde.cli in a `--help` call, which pays the
    same set-up as every CLI call; None (reported) if the import fails."""
    rec = run_command(["--help"], out_dir, 0)
    if "import_s" not in rec:
        print("import of affinespde.cli failed:\n" + rec.get("stderr", ""),
              file=sys.stderr)
        return None
    return rec["import_s"]


def artifact_digests(out_dir: str) -> dict[str, str]:
    out = {}
    for fname in sorted(os.listdir(out_dir)):
        h = hashlib.sha256()
        with open(os.path.join(out_dir, fname), "rb") as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):
                h.update(block)
        out[fname] = h.hexdigest()
    return out


def artifact_bytes(out_dir: str) -> int:
    return sum(os.path.getsize(os.path.join(out_dir, f))
               for f in os.listdir(out_dir))


def run_pass(commands: list[dict], pass_dir: str, trace: int, checker,
             seed: int, first_digests: dict | None) -> list[dict]:
    """One pass over the workload.  The first pass is checked against the
    reference; later passes must reproduce its artifacts byte for byte."""
    records = []
    for i, cmd in enumerate(commands):
        out_dir = os.path.join(pass_dir, f"{i:02d}-{cmd['scenario']}")
        rec = run_command(cmd["argv"], out_dir, trace)
        rec["label"] = f"{cmd['kind']} {cmd['scenario']}"
        rec["artifact_bytes"] = artifact_bytes(out_dir)
        digests = artifact_digests(out_dir)
        if first_digests is None:
            rec["problems"] = checker.ask({"op": "check", "cmd": cmd,
                                           "out": out_dir, "rc": rec["rc"],
                                           "seed": seed})
            rec["digests"] = digests
        elif digests != first_digests[rec["label"]]:
            rec["problems"] = ["artifacts differ from the first pass"]
        else:
            rec["problems"] = []
        if "error" in rec:
            rec["problems"].append(rec["error"])
        rec["verdict_pass"] = rec["rc"] == 0
        shutil.rmtree(out_dir)
        records.append(rec)
    return records


# ---------------------------------------------------------------------------
# metrics


def pass_summary(records: list[dict]) -> dict:
    """End-to-end figures of one pass, and the summed trace when traced."""
    out = {"wall_s": sum(r.get("main_s", 0.0) for r in records),
           "rss_mb": max(r["rss_mb"] for r in records),
           "artifact_bytes": sum(r["artifact_bytes"] for r in records)}
    if all("trace" in r for r in records):
        spans: dict[str, dict] = {}
        counters = {"cli.artifact_bytes": out["artifact_bytes"]}
        root = 0.0
        for r in records:
            t = r["trace"]
            root += t["root_s"]
            for k, v in t["counters"].items():
                counters[k] = counters.get(k, 0) + v
            for name, s in t["spans"].items():
                acc = spans.setdefault(name, {"calls": 0, "total_s": 0.0,
                                              "self_s": 0.0,
                                              "peak_alloc_mb": 0.0})
                acc["calls"] += s["calls"]
                acc["total_s"] += s["total_s"]
                acc["self_s"] += s["self_s"]
                acc["peak_alloc_mb"] = max(acc["peak_alloc_mb"],
                                           s.get("peak_alloc_mb", 0.0))
        for name, acc in spans.items():
            counters[f"{name}.calls"] = acc["calls"]
        out.update(spans=spans, counters=counters, root_s=root)
    return out


def layer_metrics(timed: list[dict], peaked: list[dict],
                  untraced_wall: float) -> dict:
    """Times from the traced passes without tracemalloc, peaks from those
    with it; medians over passes."""
    med = statistics.median

    def span_stat(passes, name, key):
        return med(p["spans"].get(name, {}).get(key, 0.0) for p in passes)

    counts = timed[0]["counters"]
    values = {}
    for span in TIME_SPANS:
        values[f"{span}_s"] = span_stat(timed, span, "total_s")
        values[f"{span}.self_s"] = span_stat(timed, span, "self_s")
    for span in CALL_COUNTS:
        values[f"{span}.calls"] = counts.get(f"{span}.calls", 0)
    for span in PEAK_SPANS:
        values[f"{span}.peak_alloc_mb"] = span_stat(peaked, span,
                                                    "peak_alloc_mb")
    for name in COUNTERS:
        values[name] = counts.get(name, 0)
    traced_wall = med(p["wall_s"] for p in timed)
    values["trace.untraced_wall_s"] = untraced_wall
    values["trace.traced_wall_s"] = traced_wall
    values["trace.overhead_s"] = traced_wall - untraced_wall
    values["trace.top_level_s"] = med(p["root_s"] for p in timed)
    units = {name: unit for name, unit, _ in per_layer_metrics()}
    return {k: {"value": v, "unit": units[k]} for k, v in values.items()}


class Checker:
    """checks.py in its own process, started while this one is small.

    The peak RSS that wait4 reports for a child includes the parent's peak
    at fork, so this process never loads numpy or reads artifacts itself."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "checks.py"), SRC],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def ask(self, request: dict):
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("output checker exited")
        return json.loads(line)

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "affinespde", "cli.py")):
        print(f"no affinespde sources under {SRC}", file=sys.stderr)
        return 2
    loadavg = os.getloadavg()
    commands = workload_commands(args.workload, args.seed)
    run_dir = os.path.join(WORK, f"{args.workload}-{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    checker = Checker()
    try:
        info = checker.ask({"op": "machine"})
        info["machine"]["loadavg_start"] = list(loadavg)
        # Untimed warm-up: byte-compiles the package on a fresh checkout.
        if import_time(os.path.join(run_dir, "warmup")) is None:
            return 3
        # Trace levels per pass: 0 untraced, 1 spans, 2 spans + tracemalloc
        # peaks.  A traced run starts untraced, then alternates 1 and 2.
        runs: dict[int, list] = {0: [], 1: [], 2: []}
        first = None
        start = time.perf_counter()
        measured = longest = 0.0
        while True:
            level = 0
            if args.trace and first is not None:
                level = 1 if len(runs[1]) <= len(runs[2]) else 2
            t0 = time.perf_counter()
            n = sum(map(len, runs.values()))
            recs = run_pass(commands, os.path.join(run_dir, f"p{n}"), level,
                            checker, args.seed, first)
            longest = max(longest, time.perf_counter() - t0)
            if first is None:
                first = {r["label"]: r["digests"] for r in recs}
            runs[level].append(recs)
            # --seconds counts command time; output checks come on top.
            measured += sum(r["proc_s"] for r in recs)
            enough = measured >= args.seconds and (
                not args.trace or (runs[1] and runs[2]))
            if enough or time.perf_counter() - start + longest > MAX_RUN_S:
                break
        # Runs with few commands are topped up with `--help` calls, which
        # pay the same import, so that setup_s is a median of several.
        setup = [r["import_s"] for recs in runs[0] for r in recs
                 if "import_s" in r]
        while not args.trace and len(setup) < SETUP_SAMPLES:
            setup.append(import_time(os.path.join(run_dir,
                                                  f"setup{len(setup)}")))
            if setup[-1] is None:
                return 3
    finally:
        checker.close()
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:
            pass

    every = [r for recs in runs[0] + runs[1] + runs[2] for r in recs]
    failed = [r for r in every if r["problems"]]
    for r in failed:
        print(f"FAILED {r['label']}: exit {r['rc']}: "
              + "; ".join(r["problems"]), file=sys.stderr)
        if r.get("stderr"):
            print(r["stderr"], file=sys.stderr)
    correct = not failed
    summaries = [pass_summary(recs) for recs in runs[0]]
    if args.trace:
        if not runs[1] or not runs[2]:
            print(f"no time for both traced passes within {MAX_RUN_S} s",
                  file=sys.stderr)
            return 4
        timed = [pass_summary(recs) for recs in runs[1]]
        peaked = [pass_summary(recs) for recs in runs[2]]
        counters = [t["counters"] for t in timed + peaked]
        if any(c != counters[0] for c in counters):
            print("exact counters differ between traced passes: "
                  + "; ".join(json.dumps(c, sort_keys=True) for c in counters),
                  file=sys.stderr)
            correct = False
        metrics = layer_metrics(timed, peaked, statistics.median(
            s["wall_s"] for s in summaries))
    else:
        med = statistics.median
        metrics = {
            "setup_s": med(setup),
            "wall_s": med(s["wall_s"] for s in summaries),
            "peak_rss_mb": med(s["rss_mb"] for s in summaries),
            "ok_frac": (len(every) - len(failed)) / len(every),
            "verify_pass_frac": sum(r["verdict_pass"] for r in every)
            / len(every),
        }
        units = dict(END_TO_END)
        metrics = {k: {"value": v, "unit": units[k]}
                   for k, v in metrics.items()}

    per_command: dict[str, list] = {}
    for r in every:
        per_command.setdefault(r["label"], []).append(
            [round(r.get("main_s", float("nan")), 4),
             round(r.get("cpu_s", float("nan")), 4), r["rc"],
             round(r["rss_mb"], 1)])
    print(json.dumps({**info, "workload": args.workload,
                      "seed": args.seed, "passes": len(runs[0]),
                      "traced_passes": [len(runs[1]), len(runs[2])],
                      "per_command": per_command}))
    for name, m in metrics.items():
        note = COUNTERS.get(name, (None, ""))[1]
        print(f"{name:44s} {m['value']:>16.6g} {m['unit']:6s} {note}")
    print(json.dumps({"correct": correct, "attempted": len(every),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
