"""Benchmark of the acx4 library and CLI.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; acx4 is imported from its src/ directory.
Set-up times a fresh interpreter importing acx4.cli plus the building of
the workload's inputs, several times.  Golden jobs then warm the process,
and rounds of jobs run back to back, one caller in one process, until S
seconds have passed; every job is checked against an independent
reference outside the timed region.  With --trace 1 every job runs twice,
untraced and then traced, and the per-layer metrics come from the traced
spans.  The last line of standard output is one JSON object; the lines
before it, and .bench_out/result-*.json, give the same figures with their
context.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import defaultdict
from contextlib import nullcontext
from pathlib import Path

from spans import JOB, NAME, VALUE, Tracer, loglog_slope

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
BENCHMARK_FILE = ROOT / "BENCHMARK.json"

SETUP_REPEATS = 9
CLI_COMMANDS = ("generate", "validate", "convert", "invariants", "minimize",
                "replay", "equiv", "classify", "render")
KEPT_FAILURES = 20


def import_seconds() -> float:
    """Wall time of a fresh interpreter that imports acx4.cli from src/.

    The interpreter runs isolated and without site, so the figure is the
    interpreter's own start plus acx4's imports, not what site-packages
    happen to load.
    """
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import acx4.cli"
    t0 = time.perf_counter()
    # no timeout: with one, subprocess polls the child in steps of up to
    # 50 ms, which would quantize the figure
    subprocess.run([sys.executable, "-I", "-S", "-c", code], check=True,
                   stdin=subprocess.DEVNULL)
    return time.perf_counter() - t0


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least ten samples beyond it; the
    median when there are fewer than twenty samples."""
    if n < 20:
        return 50
    return math.floor(100 * (n - 10) / n)


def nearest_rank(sorted_values, p: int) -> float:
    return sorted_values[max(0, math.ceil(p * len(sorted_values) / 100) - 1)]


class Tally:
    """Jobs attempted and failed, and (job, wall ms) of each passing job."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.jobs = []
        self.timed_s = 0.0

    def fail(self, what: str, messages):
        self.failed += 1
        if len(self.failures) < KEPT_FAILURES:
            self.failures.append({"job": what, "why": list(messages)})


def run_job(wl, x, tally: Tally, tracer=None, golden=None) -> float:
    """Time one job, check it outside the timing, and record the outcome.

    A job that raises or fails a check counts as failed; neither stops the
    run.  Returns the job's wall time in seconds.
    """
    tally.attempted += 1
    what = repr(getattr(x, "params", x))
    with tracer.installed() if tracer else nullcontext():
        t0 = time.perf_counter()
        try:
            result = wl.job(x)
            error = None
        except Exception:
            error = traceback.format_exc(limit=-3)
        elapsed = time.perf_counter() - t0
    if error:
        tally.fail(what, [f"job raised: {error}"])
        return elapsed
    try:
        problems = wl.check(x, result)
        if golden is not None and wl.digest(x, result) != golden:
            problems.append("digest differs from golden.json")
    except Exception:
        problems = [f"check raised: {traceback.format_exc(limit=-3)}"]
    if problems:
        tally.fail(what, problems)
    else:
        tally.jobs.append((what, elapsed * 1e3))
    return elapsed


def environment(seed: int) -> dict:
    commit = ""
    # only the checkout's own repository: git would otherwise report any
    # repository that happens to enclose an exported tree
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=30, stdin=subprocess.DEVNULL).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "host": platform.node(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "commit": commit or "unknown",
        "seed": seed,
    }


def setup(wl, seed: int, workdir: Path):
    """Build the inputs SETUP_REPEATS times, each beside a fresh import.

    The first import only fills the bytecode cache and is not counted.
    Returns the last inputs and the medians in seconds.
    """
    import_seconds()
    imports, builds, totals = [], [], []
    for i in range(SETUP_REPEATS):
        t_import = import_seconds()
        rep_dir = workdir / f"setup-{i}"
        rep_dir.mkdir()
        t0 = time.perf_counter()
        inputs = wl.build(seed, rep_dir)
        t_build = time.perf_counter() - t0
        imports.append(t_import)
        builds.append(t_build)
        totals.append(t_import + t_build)
    return inputs, {"setup_s": statistics.median(totals),
                    "import_s": statistics.median(imports),
                    "inputs_s": statistics.median(builds)}


def layer_metrics(tracer, set_up: dict, overhead: float) -> dict:
    """Per-layer figures from the traced spans of one run."""
    own = tracer.self_times()
    ms = defaultdict(float)
    calls = defaultdict(int)
    points = defaultdict(list)
    values = defaultdict(list)
    per_job = defaultdict(lambda: [0, 0.0])
    for s, t in zip(tracer.spans, own):
        name = s[NAME]
        ms[name] += t / 1e6
        calls[name] += 1
        if s[VALUE] is not None:
            values[name].append(s[VALUE])
            points[name].append((s[VALUE], t))
        if name in ("torusgraph.blow_up_graph", "torusgraph.blow_down_graph"):
            per_job[s[JOB]][0] += 1
            per_job[s[JOB]][1] += t
    jobs = len({s[JOB] for s in tracer.spans}) or 1
    moves = sum(values["reduction.reduce_to_minimal"])
    rewrites = sum(n for n, _ in per_job.values())

    m = {}

    def put(name, value, unit):
        m[name] = {"value": value, "unit": unit}

    for name in ("generate.gen_random_family", "reduction.reduce_to_minimal",
                 "reduction.replay", "multifan.validate_family",
                 "multifan.canonical_form", "invariants.chi_y_report",
                 "serialize.emit_document", "serialize.parse_document",
                 "torusgraph.family_to_graph", "torusgraph.blow_up_graph",
                 "torusgraph.blow_down_graph", "torusgraph.graph_to_family",
                 "torusgraph.validate_graph",
                 "render.svg", "render.dot", "render.tikz", "classify"):
        put(name + ".ms", ms[name], "ms")
    put("reduction.moves", moves / jobs, "moves/job")
    put("reduction.us_per_move",
        ms["reduction.reduce_to_minimal"] * 1e3 / moves if moves else 0.0, "us")
    put("reduction.exponent",
        loglog_slope(points["reduction.reduce_to_minimal"]), "1")
    put("reduction.replay.exponent", loglog_slope(points["reduction.replay"]), "1")
    put("generate.exponent",
        loglog_slope(points["generate.gen_random_family"]), "1")
    put("serialize.bytes_out", sum(values["serialize.emit_document"]) / jobs,
        "B/job")
    put("serialize.bytes_in", sum(values["serialize.parse_document"]) / jobs,
        "B/job")
    put("torusgraph.rewrites", rewrites / jobs, "count/job")
    put("torusgraph.exponent", loglog_slope(per_job.values()), "1")
    for cmd in CLI_COMMANDS:
        put(f"cli.{cmd}.ms", ms["cli." + cmd], "ms")
        put(f"cli.{cmd}.calls", calls["cli." + cmd], "count")
    put("cli.exit_nonzero",
        sum(1 for s in tracer.spans
            if s[NAME].startswith("cli.") and s[VALUE]), "count")
    put("setup.import_ms", set_up["import_s"] * 1e3, "ms")
    put("setup.inputs_ms", set_up["inputs_s"] * 1e3, "ms")
    put("trace.overhead_frac", overhead, "frac")
    return m


def run_workload(wl, seed: int, seconds: float, trace: bool,
                 out_dir: Path) -> dict:
    """One measured run; returns the full record of it."""
    import workloads

    out_dir.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{wl.name}-", dir=out_dir))
    try:
        inputs, set_up = setup(wl, seed, workdir)
        golden = workloads.load_golden().get(wl.name, {})
        warm, plain, traced = Tally(), Tally(), Tally()
        for x in inputs.golden:
            run_job(wl, x, warm,
                    golden=golden.get(workloads.key_of(workloads.params_of(x)), ""))
        tracer = Tracer(workloads.span_targets()) if trace else None
        start = time.perf_counter()
        rounds = 0
        while True:
            for x in wl.round(inputs, rounds):
                plain.timed_s += run_job(wl, x, plain)
                if tracer:
                    tracer.job = traced.attempted
                    run_job(wl, x, traced, tracer)
            rounds += 1
            if time.perf_counter() - start >= seconds:
                break
        wall_s = time.perf_counter() - start
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    tallies = (warm, plain, traced)
    attempted = sum(t.attempted for t in tallies)
    failed = sum(t.failed for t in tallies)
    times = sorted(ms for _, ms in plain.jobs)
    p = tail_percentile(len(times))
    record = {
        "workload": wl.name,
        "trace": int(trace),
        "seconds": seconds,
        "environment": environment(seed),
        "sizes": wl.sizes,
        "inputs_digest": inputs.digest(wl),
        "rounds": rounds,
        "wall_s": wall_s,
        "attempted": attempted,
        "failed": failed,
        "golden_failed": warm.failed,
        "failed_frac": failed / attempted,
        "failures": [f for t in tallies for f in t.failures],
        "samples": len(times),
        "tail_percentile": p,
        "setup": set_up,
        "jobs_ms": plain.jobs,
    }
    if trace:
        base = statistics.median(times) if times else 0.0
        overhead = (statistics.median(ms for _, ms in traced.jobs) / base - 1
                    if base and traced.jobs else 0.0)
        record["metrics"] = layer_metrics(tracer, set_up, overhead)
        tracer.dump(out_dir / f"spans-{wl.name}-seed{seed}.jsonl")
    else:
        record["metrics"] = {
            "job_ms_p50": {"value": statistics.median(times) if times else 0.0,
                           "unit": "ms"},
            "job_ms_tail": {"value": nearest_rank(times, p) if times else 0.0,
                            "unit": "ms"},
            "jobs_per_s": {"value": len(times) / plain.timed_s, "unit": "1/s"},
            "peak_rss_mib": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "unit": "MiB"},
            "setup_s": {"value": set_up["setup_s"], "unit": "s"},
        }
    path = out_dir / f"result-{wl.name}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    return record


def report_lines(record: dict) -> list[str]:
    """Human-readable lines: context, then every metric with its unit."""
    env = record["environment"]
    lines = [
        f"# workload {record['workload']}  seed {env['seed']}  "
        f"trace {record['trace']}  python {env['python']}  host {env['host']}  "
        f"nproc {env['nproc']}  commit {env['commit']}",
        f"# sizes {json.dumps(record['sizes'], sort_keys=True)}  "
        f"inputs {record['inputs_digest'][:16]}",
        f"# {record['rounds']} rounds, {record['samples']} timed jobs, "
        f"{record['wall_s']:.1f} s",
    ]
    for name, m in record["metrics"].items():
        extra = ""
        if name == "job_ms_p50":
            extra = f"  (n={record['samples']})"
        elif name == "job_ms_tail":
            extra = f"  (p{record['tail_percentile']}, n={record['samples']})"
        lines.append(f"{name} = {m['value']:.6g} {m['unit']}{extra}")
    lines.append(f"failed_frac = {record['failed_frac']:.6g} frac  "
                 f"({record['failed']}/{record['attempted']})")
    for f in record["failures"]:
        lines.append(f"# FAILED {f['job']}: {'; '.join(f['why'])}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "acx4" / "__init__.py").is_file():
        print(f"bench: no acx4 sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]()
    record = run_workload(wl, args.seed, args.seconds, bool(args.trace), OUT_DIR)
    for line in report_lines(record):
        print(line)
    ok = record["failed"] == 0
    print(json.dumps({
        "correct": ok,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
