"""The partalg benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all [--seed N] [--seconds S]

A run builds the workload's seeded job list, then repeats it in a closed
loop (one caller, one process) for --seconds, checking every result. The
last stdout line is one JSON object with the keys correct, attempted,
failed and metrics: the end_to_end metrics of BENCHMARK.json with
--trace 0, its per_layer metrics with --trace 1. A --trace 1 run adds
traced passes after the untraced ones and writes their spans under
perfbench/out/. --all runs every workload both ways, prints every metric
with its unit and checks that each layer is exercised (or bypassed) on the
workload README.md names for it.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import speed
import tracer as tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOAD_NAMES = ("verify-k2", "k3-span", "seqmodel-k3", "cli-small")
HARD_LIMIT_S = 150.0  # whole run, set-up included; ops unfinished by then count as failed
SETUP_PROBES = 10  # fresh processes timed for setup_s, after one discarded warm-up
TRACED_SHARE = 0.25  # traced passes run for this share of --seconds, at least one pass
CLI_CALLS = 100  # untraced CLI calls per run at least, so cli.call_s.p90 has ten samples beyond it
SPEED_SHARE = 0.35  # speed readings take this share of the time spent on ops, read between ops

# Layers each workload must call (self-test of --all), and layers it must
# bypass. Names are span names from tracer.py.
EXERCISED = {
    "verify-k2": (
        "centralizer.rank_of_rows",
        "centralizer.commutant_of_diagrams",
        "centralizer.commutant_of_perms",
        "centralizer.span_rank",
        "centralizer.perm_span_dim",
        "rep.matrix",
        "rep.perm_matrix",
        "diagram.enumerate_diagrams",
    ),
    "k3-span": (
        "centralizer.rank_of_rows",
        "centralizer.commutant_of_perms",
        "centralizer.span_rank",
        "rep.matrix",
        "rep.perm_matrix",
        "diagram.enumerate_diagrams",
        "diagram.concat",
        "diagram.multiply",
    ),
    "seqmodel-k3": (
        "seqmodel.l1_truncated_norm",
        "seqmodel.linf_matrix_norm",
        "seqmodel.classify_column_finite",
        "seqmodel.act_on_invariants",
        "rep.matrix",
    ),
    "cli-small": ("cli.parse", "cli.execute"),
}
BYPASSED = {
    "verify-k2": ("seqmodel.l1_truncated_norm", "seqmodel.linf_matrix_norm", "cli.parse"),
    "seqmodel-k3": ("centralizer.rank_of_rows",),
}
# Where the time goes, as README.md states it: the span with the largest self
# time, and the module with more than half of all traced self time.
LARGEST_SELF = {"verify-k2": "centralizer.rank_of_rows"}
MAJORITY_MODULE = {"seqmodel-k3": "seqmodel"}


class RunTimeout(BaseException):
    """Raised from SIGALRM at the hard limit; not an Exception, so partalg's handlers pass it on."""


def _alarm(signum, frame):
    raise RunTimeout


@dataclass
class Pass:
    wall: float = 0.0  # seconds spent on the ops and their checks, speed readings left out
    refs: list[float] = field(default_factory=list)  # speed readings taken during the pass
    seconds: list[float] = field(default_factory=list)  # per finished op
    ok: list[bool] = field(default_factory=list)
    results: list[object] = field(default_factory=list)
    complete: bool = True


def run_pass(jobs, tracer, run_base: int) -> Pass:
    """One closed-loop pass over the job list; a timeout leaves the rest unfinished.

    After each op the reference loop runs until the readings' total time is
    SPEED_SHARE of the op time so far. The readings stay out of the pass time,
    and they sit next to the work they speak for.
    """
    p = Pass()
    t0 = time.perf_counter()
    try:
        for i, job in enumerate(jobs):
            if tracer is not None:
                tracer.run = run_base + i
            s = time.perf_counter()
            try:
                result = job.run(tracer)
                ok = bool(job.check(result))
            except (Exception, SystemExit) as err:  # a failing op is counted, not fatal
                result, ok = repr(err), False
            p.seconds.append(time.perf_counter() - s)
            p.ok.append(ok)
            p.results.append(result)
            s = time.perf_counter()
            while sum(p.refs) < SPEED_SHARE * (s - t0):
                p.refs.append(speed.reference_s())
            t0 += time.perf_counter() - s
        p.wall = time.perf_counter() - t0
    except RunTimeout:
        p.complete = False
        p.wall = time.perf_counter() - t0
    return p


def scaled_pass_s(passes: list[Pass]) -> float:
    """Mean time of a complete pass, at the reference speed of the run's mean reading."""
    walls = [p.wall for p in passes if p.complete] or [passes[-1].wall]
    return speed.scaled(statistics.fmean(walls), mean_ref_s(passes))


def mean_ref_s(passes: list[Pass]) -> float:
    return statistics.fmean([r for p in passes for r in p.refs] or [speed.REF_S])


def measure(jobs, seconds: float, tracer=None, min_passes: int = 1) -> list[Pass]:
    """Passes until `seconds` have gone; the hard limit ends the run with an incomplete pass."""
    passes: list[Pass] = []
    start = time.perf_counter()
    try:
        while True:
            gc.collect()
            passes.append(run_pass(jobs, tracer, len(passes) * len(jobs)))
            if not passes[-1].complete:
                return passes
            if len(passes) >= min_passes and time.perf_counter() - start >= seconds:
                return passes
    except RunTimeout:  # between passes: the next pass counts as started and unfinished
        passes.append(Pass(complete=False))
        return passes


def setup_s(workload: str, seed: int) -> float:
    """Mean time to import partalg and build the inputs in a fresh process, at the reference speed.

    A speed reading precedes each probe. The first probe fills bytecode caches and is discarded.
    """
    cmd = [sys.executable, str(HERE / "run.py"), "--probe-setup", "--workload", workload, "--seed", str(seed)]
    samples, refs = [], []
    for i in range(SETUP_PROBES + 1):
        ref = speed.reference_s()
        proc = subprocess.run(cmd, cwd=ROOT, stdin=subprocess.DEVNULL, capture_output=True, text=True, check=True)
        if i:
            samples.append(float(proc.stdout.split()[-1]))
            refs.append(ref)
    return speed.scaled(statistics.fmean(samples), statistics.fmean(refs))


def peak_rss_mb(jobs) -> float:
    """The workload's own peak: the CLI children's on cli-small, this process's otherwise.

    The set-up probes are children too, so RUSAGE_CHILDREN would report them.
    """
    clis = {job.cli for job in jobs if job.cli is not None}
    kib = max(c.peak_kib for c in clis) if clis else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return kib / 1024


def end_to_end(jobs, passes: list[Pass], setup: float, attempted: int, failed: int) -> dict:
    return {
        "wall_s": (scaled_pass_s(passes), "s"),
        "setup_s": (setup, "s"),
        "peak_rss_mb": (peak_rss_mb(jobs), "MB"),
        "ok_frac": ((attempted - failed) / attempted, "ratio"),
    }


def per_layer(jobs, untraced: list[Pass], traced: list[Pass], tracer) -> dict:
    npass = len(traced)
    out = {}
    summary = tracing.summarize(tracer.spans)
    for name in tracing.span_names():
        agg = summary.get(name, {"s": 0.0, "self_s": 0.0, "calls": 0})
        out[f"{name}.s"] = (agg["s"] / npass, "s")
        out[f"{name}.self_s"] = (agg["self_s"] / npass, "s")
        out[f"{name}.calls"] = (agg["calls"] / npass, "count")
    for name in tracing.COUNTERS:
        out[name] = (tracer.counts.get(name, 0) / npass, "count")
    for module in tracing.MODULES:
        own = sum(agg["self_s"] for name, agg in summary.items() if name.startswith(module + "."))
        out[f"{module}.self_s"] = (own / npass, "s")

    calls = [s for p in untraced for job, s in zip(jobs, p.seconds) if job.cli is not None]
    in_process = defaultdict(float)  # parse + execute per traced CLI call, by run id
    for name, start, end, parent, run in tracer.spans:
        if name in ("cli.parse", "cli.execute") and parent is None and jobs[run % len(jobs)].cli is not None:
            in_process[run] += end - start
    p50 = statistics.median(calls) if calls else 0.0
    out["cli.call_s.p50"] = (p50, "s")
    out["cli.call_s.p90"] = (statistics.quantiles(calls, n=10)[8] if len(calls) > 1 else p50, "s")
    out["cli.startup_s"] = (p50 - statistics.median(in_process.values()) if in_process else 0.0, "s")

    untraced_wall = scaled_pass_s(untraced)
    traced_wall = scaled_pass_s(traced)
    out["trace.untraced_wall_s"] = (untraced_wall, "s")
    out["trace.traced_wall_s"] = (traced_wall, "s")
    out["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    out["trace.spans"] = (len(tracer.spans) / npass, "count")
    out["speed.ref_s"] = (mean_ref_s(untraced + traced), "s")
    return out


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() or "unknown"


def stamp(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "commit": git_commit(),
        "src_sha256": source_digest(),
    }


def run_one(args) -> int:
    signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, HARD_LIMIT_S)
    jobs: list = []
    try:
        setup = 0.0 if args.trace else setup_s(args.workload, args.seed)
        import workloads  # imports partalg, so only after main() put src/ on the path

        jobs = workloads.build(args.workload, args.seed)
        cli_jobs = sum(job.cli is not None for job in jobs)
        untraced = measure(jobs, args.seconds, min_passes=-(-CLI_CALLS // cli_jobs) if cli_jobs else 1)
        passes = list(untraced)
        traced: list[Pass] = []
        if args.trace and untraced[-1].complete:
            tracer = tracing.Tracer()
            tracer.install()
            try:
                traced = measure(jobs, args.seconds * TRACED_SHARE, tracer)
            finally:
                tracer.uninstall()
            passes += traced
    except RunTimeout:  # measure() catches its own, so this is set-up: every op counts as unfinished
        print(f"perfbench: set-up did not finish within {HARD_LIMIT_S:.0f} s", file=sys.stderr)
        attempted = max(len(jobs), 1)
        print(json.dumps({"correct": False, "attempted": attempted, "failed": attempted, "metrics": {}}))
        return 0
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)

    attempted = len(jobs) * len(passes)
    failures = [job.label for p in passes for job, ok in zip(jobs, p.ok) if not ok]
    failures += [f"{job.label} (unfinished)" for p in passes for job in jobs[len(p.ok) :]]
    # A traced op must return exactly what the untraced one did.
    failures += [
        f"{job.label} (traced result differs)"
        for p in traced
        for job, ok, got, want in zip(jobs, p.ok, p.results, untraced[0].results)
        if ok and got != want
    ]
    failed = len(failures)
    for label in failures[:10]:
        print(f"perfbench: failed op: {label}", file=sys.stderr)

    if args.trace:
        metrics = per_layer(jobs, untraced, traced, tracer) if traced else {}
    else:
        metrics = end_to_end(jobs, untraced, setup, attempted, failed)
    result = {
        "correct": failed == 0 and bool(metrics),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    info = stamp(args)
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "stamp": info,
        "result": result,
        "pass_walls": [[p.wall, p.complete] for p in untraced],
        "traced_pass_walls": [p.wall for p in traced],
        "speed_readings": [p.refs for p in untraced + traced],
        "ops_per_pass": len(jobs),
        "failed_ops": failures,
    }
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    if traced:
        t0 = tracer.spans[0][1] if tracer.spans else 0.0
        spans = [
            {"name": n, "start": s - t0, "end": e - t0, "parent": parent, "run": run}
            for n, s, e, parent, run in tracer.spans
        ]
        (OUT / f"{tag}-spans.json").write_text(json.dumps({"stamp": info, "spans": spans}) + "\n")
    print("stamp " + json.dumps(info))
    print(json.dumps(result))
    return 0


def run_all(seed: int, seconds: int) -> int:
    """Every workload with tracing off and on, every metric with its unit, and the layer self-test."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ok = True
    layers = {}
    for workload in WORKLOAD_NAMES:
        for trace in (0, 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed)]
            cmd += ["--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, stdin=subprocess.DEVNULL, capture_output=True, text=True)
            if proc.returncode:
                print(f"FAIL {workload} trace={trace}: exit {proc.returncode}\n{proc.stderr}")
                ok = False
                continue
            res = json.loads(proc.stdout.splitlines()[-1])
            declared = {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}
            if set(res["metrics"]) != declared:
                print(f"FAIL {workload} trace={trace}: metrics differ from BENCHMARK.json: "
                      f"{sorted(set(res['metrics']) ^ declared)}")
                ok = False
            ok = ok and res["correct"]
            print(f"== {workload} trace={trace} correct={res['correct']} "
                  f"attempted={res['attempted']} failed={res['failed']}")
            for name, m in res["metrics"].items():
                print(f"   {name:48s} {m['value']:14.6g} {m['unit']}")
            if trace:
                layers[workload] = {k: m["value"] for k, m in res["metrics"].items()}

    for workload, metrics in layers.items():
        for name in EXERCISED.get(workload, ()):
            if metrics.get(f"{name}.calls", 0) <= 0:
                print(f"FAIL {workload}: {name} was never called")
                ok = False
        for name in BYPASSED.get(workload, ()):
            if metrics.get(f"{name}.calls", 0) != 0:
                print(f"FAIL {workload}: {name} should be bypassed")
                ok = False
        selfs = {k[: -len(".self_s")]: v for k, v in metrics.items() if k.endswith(".self_s") and k.count(".") == 2}
        top = sorted(selfs.items(), key=lambda kv: -kv[1])[:3]
        modules = {k: v for k, v in metrics.items() if k.endswith(".self_s") and k.count(".") == 1}
        total = sum(modules.values()) or 1.0
        print(f"== {workload} largest self times: " + ", ".join(f"{k} {v:.3f} s" for k, v in top))
        print(f"   self time by module: " + ", ".join(
            f"{k[: -len('.self_s')]} {100 * v / total:.0f}%" for k, v in sorted(modules.items(), key=lambda kv: -kv[1])))
        if workload in LARGEST_SELF and top[0][0] != LARGEST_SELF[workload]:
            print(f"FAIL {workload}: largest self time is {top[0][0]}, not {LARGEST_SELF[workload]}")
            ok = False
        module = MAJORITY_MODULE.get(workload)
        if module and metrics[f"{module}.self_s"] <= total / 2:
            print(f"FAIL {workload}: {module} has {100 * metrics[f'{module}.self_s'] / total:.0f}% of the self time")
            ok = False
    print("self-test " + ("PASS" if ok else "FAIL"))
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=5)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--all", action="store_true", help="run every workload with tracing off and on")
    ap.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "partalg" / "__init__.py").is_file():
        print(f"perfbench: no partalg sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.all:
        return run_all(args.seed, args.seconds)
    if args.workload is None:
        ap.error("--workload is required")
    if args.probe_setup:
        t0 = time.perf_counter()
        import workloads

        workloads.build(args.workload, args.seed)
        print(time.perf_counter() - t0)
        return 0
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
