"""fairsort benchmark: one workload, one seed, one process, one client thread.

    python3 perfbench/run.py --workload offline-probe --seed 1 --seconds 30 --trace 0

Run it from a source checkout: the package is imported from the checkout's
``src`` directory, never from an installed copy.  The workload's set-up is
repeated several times and timed as ``setup_s``, then its main call is
repeated until ``--seconds`` have passed, with a round of set-ups before
each pass so that set-up is sampled across the whole run.  Every pass is
checked for correct output (see ``workloads.py``).  Times are on the client thread's
CPU clock; the wall-clock median of the main call is printed beside them.

With ``--trace 0`` the end-to-end metrics are reported, untraced.  With
``--trace 1`` untraced and traced passes alternate; the per-layer metrics
come from the traced passes, and ``trace.overhead_s`` is the traced minus
the untraced median ``cpu_s``.

Lines starting with ``#`` describe the machine, the sample counts and the
output digest; ``metric`` lines give every metric with its unit; the last
line is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  Every value is a median over the run's passes.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench-work"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}

# each round of set-ups repeats it at least once and for at least this long
SETUP_SECONDS = 0.2


def machine() -> dict:
    cpu = platform.processor()
    with contextlib.suppress(OSError), open("/proc/cpuinfo", encoding="utf-8") as fh:
        models = [line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")]
        cpu = models[0] if models else cpu
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def setup_round(bench, times: list[float]):
    """Run the set-up repeatedly for SETUP_SECONDS, timing each; return its data."""
    deadline = time.perf_counter() + SETUP_SECONDS
    while True:
        start = time.thread_time()
        data = bench.setup()
        times.append(time.thread_time() - start)
        if time.perf_counter() >= deadline:
            return data


def measure(bench, data, seconds: float, trace: bool, setup_times: list[float]):
    """Repeat the main call until ``seconds`` pass.

    Returns the untraced passes, the traced passes with their timers, and the
    peak resident memory in MB of one set-up round plus one pass: later
    set-up rounds allocate on top of the heap a pass leaves behind, so the
    process peak is read before they start.
    """
    from layers import LayerTimer

    plain, traced = [], []
    deadline = time.perf_counter() + seconds
    while not plain or time.perf_counter() < deadline:
        if plain:
            data = setup_round(bench, setup_times)
        plain.append(bench.run_pass(data))
        if len(plain) == 1:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if trace:
            timer = LayerTimer()
            with timer.installed():
                outcome = bench.run_pass(data)
            traced.append((outcome, timer))
    return plain, traced, peak_rss_mb


def request_percentiles(passes) -> tuple[list[float], list[float], int]:
    """Per-pass p50 and p99 request times in ms, and the samples behind each."""
    if passes[0].request_ms:
        # a request is one online step
        p50, p99 = zip(*(np.percentile(p.request_ms, [50, 99]).tolist() for p in passes))
        return list(p50), list(p99), len(passes[0].request_ms)
    # the caller makes one request per pass, the offline call or the CLI run,
    # so the percentiles are over all passes
    p50, p99 = np.percentile([p.cpu_s * 1e3 for p in passes], [50, 99]).tolist()
    return [p50], [p99], len(passes)


def end_to_end(passes, setup_s: float, peak_rss_mb: float) -> tuple[dict, int]:
    """End-to-end metrics over untraced passes, and the samples per percentile."""
    p50, p99, samples = request_percentiles(passes)
    lists = sum(p.lists for p in passes)
    values = {
        "setup_s": setup_s,
        "cpu_s": statistics.median(p.cpu_s for p in passes),
        "lists_per_s": statistics.median(p.lists / p.cpu_s for p in passes),
        "request_p50_ms": statistics.median(p50),
        "request_p99_ms": statistics.median(p99),
        "peak_rss_mb": peak_rss_mb,
        "floor_pass_frac": 1 - sum(p.failed for p in passes) / lists,
        "avg_ndcg": statistics.median(p.avg_ndcg for p in passes),
        "dpf": statistics.median(p.dpf for p in passes),
    }
    return values, samples


def per_layer(plain, traced, rows_per_load: int) -> dict:
    from layers import layer_metrics

    runs = [layer_metrics(timer, rows_per_load) for _, timer in traced]
    values = {name: statistics.median(run[name] for run in runs) for name in runs[0]}
    values["harness.out_bytes"] = statistics.median(p.out_bytes for p, _ in traced)
    values["trace.overhead_s"] = (
        statistics.median(p.cpu_s for p, _ in traced)
        - statistics.median(p.cpu_s for p in plain)
    )
    return values


def main(argv: list[str] | None = None) -> int:
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true",
                        help="shrink the workload to smoke-test size")
    args = parser.parse_args(argv)

    workdir = WORKDIR / f"{args.workload}-{os.getpid()}"
    try:
        bench = workloads.WORKLOADS[args.workload](args.seed, args.small, workdir)
        setup_times = []
        data = setup_round(bench, setup_times)
        bench.prepare(data)
        plain, traced, peak_rss_mb = measure(
            bench, data, args.seconds, bool(args.trace), setup_times
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        # succeeds only once no other run is using the directory
        with contextlib.suppress(OSError):
            WORKDIR.rmdir()

    passes = plain + [p for p, _ in traced]
    attempted = sum(p.lists for p in passes)
    failed = sum(p.failed for p in passes)
    digests = sorted({p.digest for p in passes})
    problems = []
    if failed:
        problems.append(f"{failed} of {attempted} lists failed the output gate")
    if len(digests) != 1:
        problems.append("passes disagree on the output digest")
    samples = {"setup_repeats": len(setup_times), "passes": len(plain)}
    if args.trace:
        for _, timer in traced:
            missing = [layer for layer in bench.layers if timer.calls[layer] == 0]
            if missing:
                problems.append(f"traced layers recorded no calls: {missing}")
            if timer.over_bound:
                problems.append(f"{timer.over_bound} searches exceeded the probe bound")
                failed += timer.over_bound
        samples["traced_passes"] = len(traced)
        values = per_layer(plain, traced, bench.rows_per_load)
        names = [m["name"] for m in SPEC["per_layer"]]
    else:
        values, samples["request_percentile_samples"] = end_to_end(
            plain, statistics.median(setup_times), peak_rss_mb
        )
        names = [m["name"] for m in SPEC["end_to_end"]]

    print(f"# workload {args.workload} seed {args.seed} trace {args.trace}")
    print(f"# machine {json.dumps(machine())}")
    print(f"# samples {json.dumps(samples)}")
    print(f"# output_sha256 {digests[0]}")
    print(f"# wall_clock_s {statistics.median(p.wall_s for p in plain)!r}")
    p50, p99, _ = request_percentiles(plain)
    per_pass = {"cpu_s": [p.cpu_s for p in plain], "request_p50_ms": p50, "request_p99_ms": p99}
    print(f"# per_pass {json.dumps(per_pass)}")
    print(f"metric floor_violation_frac {failed / attempted!r} frac")
    for name in names:
        print(f"metric {name} {values[name]!r} {UNITS[name]}")
    for problem in problems:
        print(f"error: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": UNITS[name]} for name in names},
    }))
    return 0


if __name__ == "__main__":
    if not (SRC / "fairsort" / "__init__.py").is_file():
        print(f"error: no fairsort sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import fairsort

    if Path(fairsort.__file__).resolve().parent != SRC / "fairsort":
        print(f"error: imported fairsort from {fairsort.__file__}, not {SRC}", file=sys.stderr)
        raise SystemExit(2)
    raise SystemExit(main())
