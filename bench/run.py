#!/usr/bin/env python3
"""Benchmark of the macroreal workbench: three workloads, one process each.

Usage, from the root of a checkout::

    python3 bench/run.py --workload protocol --seed 1 --seconds 20 --trace 0

The run sets up its inputs several times, repeats the workload's pass until
``--seconds`` have elapsed, checks the outputs and prints, as its last line,
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics of ``BENCHMARK.json`` with ``--trace 0``, its
per-layer metrics with ``--trace 1``.  A machine record, the per-pass times
and (traced) the spans and counters go to ``.bench_out/``.
"""

import os

# Pin BLAS/OpenMP pools before numpy loads: one thread each, so the only
# parallelism is the workbench's own ``--threads 2``.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

from tracing import COUNT_NAMES, SPAN_NAMES, Tracer, instrument, span_cost_s  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 5


def _fresh_import_s() -> float:
    """Seconds for a fresh interpreter to start and import the workbench.

    This is the part of set-up that a process pays once; timing it in a
    child, once per set-up, lets ``setup_s`` be a median like the rest.
    No timeout: with one, ``subprocess`` polls the child every 50 ms, and
    the time read would be rounded up to that step.
    """
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", f"import sys; sys.path.insert(0, {str(SRC)!r}); import macroreal.cli"],
        check=True, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
    )
    return time.perf_counter() - start


def _machine_record() -> dict:
    import numpy
    import scipy

    import macroreal

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    commit = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            ref = ref_file.read_text().strip() if ref_file.is_file() else None
        commit = ref
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "macroreal": macroreal.__version__,
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "loadavg_at_start": list(os.getloadavg()),
        "disk_free_bytes": shutil.disk_usage(ROOT).free,
        "thread_env": {var: os.environ[var] for var in THREAD_VARS},
    }


def _host_probe() -> float:
    """Seconds for a fixed pure-Python loop: tracks how fast the host is right now.

    Recorded at the start and end of every run, outside the measured region,
    so that runs made while the host was slow can be told apart.
    """
    start = time.perf_counter()
    total = 0
    for i in range(1_000_000):
        total += i * i
    return time.perf_counter() - start


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _layer_metrics(tracer, traced_s: float, untraced_s: float, extras: dict,
                   span_cost: float) -> dict:
    """Every per-layer metric of one traced pass; zero where a layer did not run."""
    table = tracer.summary()
    metrics = {}
    for name in SPAN_NAMES:
        row = table.get(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        for stat in ("calls", "s", "self_s"):
            metrics[f"{name}.{stat}"] = row[stat]
    for name in COUNT_NAMES:
        metrics[name] = tracer.counts.get(name, 0)
    for layer, seconds in tracer.layer_self().items():
        metrics[f"{layer}.self_s"] = seconds
    metrics.update(tracer.values)
    metrics.setdefault("hvmodels.findings_max_excess", 0.0)
    metrics.setdefault("multiphoton.chi2", 0.0)
    calls = metrics["analysis.count_sub_run.calls"]
    metrics["analysis.nopeak_frac"] = metrics["analysis.nopeak"] / calls if calls else 0.0
    certs = metrics["hvmodels.certificates"]
    metrics["hvmodels.evals_per_certificate"] = metrics["hvmodels.evals"] / certs if certs else 0.0
    metrics["simulate.dataset_mb"] = extras.get("simulate.dataset_mb", 0.0)
    top = tracer.top_level_s()
    metrics["trace.wall_s"] = traced_s
    metrics["trace.untraced_wall_s"] = untraced_s
    metrics["trace.overhead_s"] = traced_s - untraced_s
    metrics["trace.spans"] = len(tracer.spans)
    metrics["trace.overhead_est_s"] = len(tracer.spans) * span_cost
    metrics["trace.top_spans_s"] = top
    metrics["trace.unspanned_s"] = traced_s - top
    return metrics


def _self_time_table(summary: dict, layer_self: dict) -> str:
    lines = [f"{'span':<40} {'calls':>7} {'s':>10} {'self_s':>10}"]
    for name in sorted(summary, key=lambda n: -summary[n]["self_s"]):
        row = summary[name]
        lines.append(f"{name:<40} {row['calls']:>7} {row['s']:>10.4f} {row['self_s']:>10.4f}")
    lines.append("")
    lines.append("layer self time: " + ", ".join(f"{k} {v:.4f} s" for k, v in layer_self.items()))
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="smoke: tiny inputs for the benchmark's own tests")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    if not (SRC / "macroreal" / "__init__.py").is_file():
        print(f"error: no macroreal sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import macroreal

    if Path(macroreal.__file__).resolve().parent != SRC / "macroreal":
        print(f"error: imported macroreal from {macroreal.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    machine = _machine_record()
    probes = [_host_probe()]

    ops = workloads.Ops()
    workload = workloads.WORKLOADS[args.workload](
        args.seed, args.size, OUT / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    )
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "size": args.size, "machine": machine}
    import_times, setup_times, passes, traced, layer_runs = [], [], [], [], []
    try:
        for _ in range(SETUP_REPEATS):
            import_times.append(ops.call("fresh import", _fresh_import_s))
            t0 = time.perf_counter()
            workload.setup(ops)
            setup_times.append(time.perf_counter() - t0)

        def one_pass(tracer=None):
            """Time one pass; checks and clean-up run after the clock stops."""
            output, t0 = None, time.perf_counter()
            try:
                if tracer is None:
                    output = workload.run_pass(ops, lambda name: nullcontext())
                else:
                    with instrument(tracer):
                        output = workload.run_pass(ops, tracer.span)
            except workloads.OpFailed:
                pass
            elapsed = time.perf_counter() - t0
            if output is not None:
                try:
                    workload.after_pass(ops, output)
                except workloads.OpFailed:
                    pass
                except Exception as exc:  # a broken output is a failed check
                    ops.check(f"{args.workload} outputs", False, repr(exc))
            return elapsed

        span_cost = span_cost_s() if args.trace else 0.0
        start = time.perf_counter()
        while True:
            passes.append(one_pass())
            if args.trace:
                tracer = Tracer()
                traced.append(one_pass(tracer))
                layer_runs.append(
                    _layer_metrics(tracer, traced[-1], passes[-1], workload.extras, span_cost)
                )
                record.setdefault("traces", []).append(tracer.to_dict())
                print(_self_time_table(tracer.summary(), tracer.layer_self()))
            elapsed = time.perf_counter() - start
            # Start another round only if it should end within half a round
            # of the deadline.
            if elapsed + 0.5 * elapsed / len(passes) >= args.seconds:
                break
    except workloads.OpFailed:
        pass  # set-up failed, so no pass ran and the run is incorrect
    finally:
        shutil.rmtree(workload.workdir, ignore_errors=True)
    peak_rss = _peak_rss_mb()
    probes.append(_host_probe())

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    values = {}
    if args.trace:
        wanted = spec["per_layer"]
        if layer_runs:
            values = {name: statistics.median(run[name] for run in layer_runs)
                      for name in layer_runs[0]}
    else:
        wanted = spec["end_to_end"]
        if passes:
            values = {
                "setup_s": statistics.median(i + s for i, s in zip(import_times, setup_times)),
                "wall_s": statistics.median(passes),
                "peak_rss_mb": peak_rss,
            }
    # Without a pass there is nothing to report, and the run is incorrect.
    metrics = {m["name"]: {"value": float(values[m["name"]] if values else 0.0), "unit": m["unit"]}
               for m in wanted}
    record.update(setup={"import_s": import_times, "inputs_s": setup_times},
                  host_probe_s=probes, loadavg_at_end=list(os.getloadavg()),
                  passes_s=passes, traced_passes_s=traced, extras=workload.extras,
                  notes=workload.notes, failures=ops.failures, op_seconds=ops.seconds,
                  metrics=metrics)
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=str)
    )
    print(json.dumps({"machine": machine, "notes": workload.notes}, default=str))
    result = {
        "correct": ops.failed == 0 and bool(passes),
        "attempted": max(ops.attempted, 1),
        "failed": ops.failed if passes else max(ops.failed, 1),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
