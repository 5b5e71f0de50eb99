"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload sweep-lambda-convnet --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation.
``--trace 1`` first runs the workload untraced (for the tracing overhead),
then again with spans around every layer's public entry points, and prints
the per-layer metrics.  Every line before the last is a human-readable
report; the last line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is non-zero when an output check
fails.
"""

from __future__ import annotations

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_ROOT = ROOT / ".perfbench_work"
TRACE_ROOT = ROOT / ".perfbench_traces"

#: How each per-layer metric (``--trace 1``) is computed.  ``calls`` and
#: ``self`` read the totals of the span named by the metric's prefix;
#: ``layer`` is a figure the workload took from results or runtime counters;
#: ``derived`` is computed from several spans in :func:`per_layer`.  Names and
#: units come from BENCHMARK.json, which must list exactly these metrics.
PER_LAYER = {
    "nn.lowrank_conv.fwd.calls": "calls",
    "nn.lowrank_conv.fwd.self_s": "self",
    "nn.lowrank_conv.bwd.calls": "calls",
    "nn.lowrank_conv.bwd.self_s": "self",
    "nn.conv.fwd.calls": "calls",
    "nn.conv.fwd.self_s": "self",
    "nn.conv.bwd.calls": "calls",
    "nn.conv.bwd.self_s": "self",
    "nn.pool.fwd.calls": "calls",
    "nn.pool.fwd.self_s": "self",
    "nn.pool.bwd.calls": "calls",
    "nn.pool.bwd.self_s": "self",
    "nn.linear.calls": "calls",
    "nn.linear.self_s": "self",
    "trainer.step.calls": "calls",
    "trainer.step.self_s": "self",
    "trainer.eval.self_s": "self",
    "optim.step.self_s": "self",
    "core.group_lasso.self_s": "self",
    "core.group_delete.self_s": "self",
    "core.rank_clip.calls": "calls",
    "core.rank_clip.self_s": "self",
    "hardware.mapper.plan.self_s": "self",
    "hardware.routing.analyze.self_s": "self",
    "hardware.routing.cache_hit_ratio": "layer",
    "experiments.baseline_s": "layer",
    "experiments.points_s": "layer",
    "graph.node.self_s": "self",
    "runner.point.self_s": "self",
    "runner.map_points.wall_s": "derived",
    "runner.worker_busy_s": "derived",
    "runner.pool_efficiency": "derived",
    "sim.program.self_s": "self",
    "sim.predict.calls": "calls",
    "sim.predict.self_s": "self",
    "sim.samples": "layer",
    "sim.tile_mvms": "layer",
    "sim.adc_conversions": "layer",
    "serving.submit.self_s": "self",
    "serving.cache.get.self_s": "self",
    "serving.queue_wait_p50_ms": "layer",
    "serving.queue_wait_p99_ms": "layer",
    "serving.service_p50_ms": "layer",
    "serving.batch_size_mean": "layer",
    "serving.batches": "layer",
    "serving.rejected": "layer",
    "serving.cache.hit_ratio": "layer",
    "serving.generator_late_p99_ms": "layer",
    "store.write.calls": "calls",
    "store.write.self_s": "self",
    "store.read.calls": "calls",
    "store.read.self_s": "self",
    "store.reused_points": "layer",
    "scheduler.node.busy_s": "derived",
    "scheduler.idle_s": "derived",
    "scheduler.queue_wait_p50_s": "derived",
    "unattributed_s": "derived",
    "trace_overhead_ratio": "derived",
}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale",
        default=None,
        help="experiment scale of the sweep workloads (default: small); "
        "the smoke test passes tiny",
    )
    parser.add_argument(
        "--record-references",
        action="store_true",
        help="store this seed's sweep/job results as the reference outputs",
    )
    return parser.parse_args(argv)


# ------------------------------------------------------------------ machine
def machine_record() -> dict:
    """Cores, BLAS library and threads, start method, python and numpy."""
    import ctypes
    import multiprocessing
    import platform

    import numpy

    blas = "unknown"
    try:
        config = numpy.show_config(mode="dicts")
        info = config["Build Dependencies"]["blas"]
        blas = f"{info.get('name')} {info.get('version', '')}".strip()
    except (TypeError, KeyError, AttributeError):
        pass
    threads = None
    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for library in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(library))
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            function = getattr(handle, symbol, None)
            if function is not None:
                function.restype = ctypes.c_int
                function.argtypes = []
                threads = int(function())
                break
        if threads is not None:
            break
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {
        "nproc": cores,
        "blas": blas,
        "blas_threads": threads if threads is not None else "unknown",
        "start_method": multiprocessing.get_start_method(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def peak_rss_mb() -> float:
    import resource

    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------- running
def run_workload(args, workloads, work_dir: Path, *, recorder=None, setup_repeats=None):
    context = workloads.Context(
        seed=args.seed,
        seconds=args.seconds,
        scale=args.scale,
        work_dir=work_dir,
        recorder=recorder,
        record_references=args.record_references,
    )
    if setup_repeats is not None:
        context.setup_repeats = setup_repeats
    function = workloads.WORKLOADS[args.workload]
    if recorder is None:
        return context, function(context)
    with recorder.span("bench"):
        outcome = function(context)
    return context, outcome


IMPORT_PROBE = (
    "import time; started = time.perf_counter(); "
    "import numpy, repro.experiments, repro.scheduler, repro.serving; "
    "print(time.perf_counter() - started)"
)


def import_seconds(in_process: float, repeats: int) -> float:
    """Median import time: this process's own plus ``repeats - 1`` fresh interpreters."""
    samples = [in_process]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for _ in range(repeats - 1):
        probe = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE],
            env=env,
            capture_output=True,
            text=True,
            check=True,
            timeout=120,
        )
        samples.append(float(probe.stdout.split()[-1]))
    return statistics.median(samples)


def load_metric_units() -> dict:
    """``{"end_to_end": {name: unit}, "per_layer": {name: unit}}`` from BENCHMARK.json."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        benchmark = json.load(handle)
    return {
        group: {entry["name"]: entry["unit"] for entry in benchmark[group]}
        for group in ("end_to_end", "per_layer")
    }


def end_to_end(outcome, import_s: float) -> dict:
    return {
        "setup_s": import_s + statistics.median(outcome.setup_s),
        "run_s": statistics.median(outcome.unit_s),
        "latency_p50_ms": outcome.latency_p50_ms,
        "goodput_per_s": outcome.goodput_per_s,
        "peak_rss_mb": peak_rss_mb(),
    }


def per_layer(recorder, context, outcome, untraced) -> tuple:
    """Per-layer metrics per unit of work, plus the attribution lines."""
    from tracing import layer_totals, union_seconds

    spans = recorder.spans
    units = len(outcome.unit_s)
    totals = layer_totals(spans)
    main = layer_totals(spans, pid=recorder.main_pid, tid=recorder.main_tid)

    def span_value(name: str, field: str) -> float:
        return totals.get(name, {}).get(field, 0.0) / units

    values = {}
    for metric, kind in PER_LAYER.items():
        span = metric.rsplit(".", 1)[0]
        if kind == "calls":
            values[metric] = span_value(span, "calls")
        elif kind == "self":
            values[metric] = span_value(span, "self_s")
        elif kind == "layer":
            values[metric] = float(outcome.layers.get(metric, 0.0))

    busy = sum(
        end - start
        for pid, _, name, start, end, _ in spans
        if name == "runner.point" and pid != recorder.main_pid
    ) / units
    workers = max([value for label, value, _ in recorder.marks if label == "pool_workers"] or [0])
    pool_wall = values["runner.map_points.wall_s"] = span_value("runner.map_points", "total_s")
    values["runner.worker_busy_s"] = busy
    values["runner.pool_efficiency"] = busy / (workers * pool_wall) if pool_wall else 0.0

    # Graph nodes also run inside execute_spec; only a JobScheduler's count.
    nodes = [(start, end) for _, _, name, start, end, _ in spans if name == "graph.node"]
    if nodes and "scheduler.run" in totals:
        values["scheduler.node.busy_s"] = sum(end - start for start, end in nodes) / units
        values["scheduler.idle_s"] = max(
            0.0, (sum(outcome.unit_s) - union_seconds(nodes)) / units
        )
        starts = [(value, at) for label, value, at in recorder.marks if label == "node_start"]
        waits = []
        for job_id, submitted_at in context.submitted:
            later = [at for job, at in starts if job == job_id and at >= submitted_at]
            if later:
                waits.append(min(later) - submitted_at)
        values["scheduler.queue_wait_p50_s"] = statistics.median(waits) if waits else 0.0
    else:
        for metric in ("scheduler.node.busy_s", "scheduler.idle_s", "scheduler.queue_wait_p50_s"):
            values[metric] = 0.0

    root = main["bench"]
    wall = root["total_s"]
    unattributed = root["self_s"]
    bench_self = sum(v["self_s"] for k, v in main.items() if k.startswith("bench."))
    layer_self = sum(v["self_s"] for k, v in main.items() if not k.startswith("bench"))
    concurrent = sum(
        v["self_s"] for k, v in totals.items()
    ) - sum(v["self_s"] for v in main.values())
    values["unattributed_s"] = unattributed / units
    values["trace_overhead_ratio"] = statistics.median(outcome.unit_s) / statistics.median(
        untraced.unit_s
    )
    lines = [
        f"attribution (main thread, whole traced run): wall {wall:.4f} s = "
        f"layer self {layer_self:.4f} s + benchmark phases {bench_self:.4f} s + "
        f"unattributed {unattributed:.4f} s (residual {wall - layer_self - bench_self - unattributed:+.2e} s)",
        f"concurrent layer self time in other threads and pool workers: {concurrent:.4f} s",
        f"per-layer values are per unit of work ({units} unit(s) in the traced run)",
    ]
    return values, lines


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import numpy  # noqa: F401
    import repro.experiments  # noqa: F401
    import repro.scheduler  # noqa: F401
    import repro.serving  # noqa: F401

    import_s = time.perf_counter() - PROCESS_START
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(
            f"error: unknown workload {args.workload!r}; expected one of {sorted(workloads.WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    if args.seconds <= 0 or args.seed < 0:
        print("error: --seconds must be positive and --seed non-negative", file=sys.stderr)
        return 2

    units = load_metric_units()
    if set(units["per_layer"]) != set(PER_LAYER):
        print("error: BENCHMARK.json per_layer metrics differ from the ones run.py computes",
              file=sys.stderr)
        return 2
    work_dir = WORK_ROOT / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    work_dir.mkdir(parents=True)
    try:
        return _measure(args, workloads, work_dir, import_s, units)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass


def _measure(args, workloads, work_dir: Path, import_s: float, units: dict) -> int:
    machine = machine_record()
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("machine: " + " ".join(f"{key}={value}" for key, value in machine.items()))

    if args.trace == 0:
        _, outcome = run_workload(args, workloads, work_dir / "run")
        import_s = import_seconds(import_s, workloads.SETUP_REPEATS)
        values = end_to_end(outcome, import_s)
        metrics = {name: (values[name], unit) for name, unit in units["end_to_end"].items()}
        attempted, failed = outcome.attempted, outcome.failed
        report_rows = _report_rows(outcome, metrics, attempted, failed, outcome.notes)
    else:
        from tracing import SpanRecorder, install_layer_wrappers, remove_wrappers

        # Half the time traced, then half untraced as the overhead baseline:
        # the untraced pass runs warm, so the ratio errs towards overhead.
        args.seconds /= 2.0
        spill = work_dir / "spill"
        spill.mkdir()
        recorder = SpanRecorder(spill)
        patches = install_layer_wrappers(recorder)
        try:
            context, outcome = run_workload(
                args, workloads, work_dir / "traced", recorder=recorder, setup_repeats=1
            )
        finally:
            remove_wrappers(patches)
        _, untraced = run_workload(args, workloads, work_dir / "untraced", setup_repeats=1)
        recorder.merge_worker_spans()
        TRACE_ROOT.mkdir(exist_ok=True)
        trace_path = TRACE_ROOT / f"{args.workload}-seed{args.seed}.spans.jsonl"
        recorder.write(trace_path)
        values, lines = per_layer(recorder, context, outcome, untraced)
        metrics = {name: (values[name], unit) for name, unit in units["per_layer"].items()}
        attempted = untraced.attempted + outcome.attempted
        failed = untraced.failed + outcome.failed
        report_rows = [f"layer {name:<34} {value:.6g} {unit}" for name, (value, unit) in metrics.items()]
        report_rows += lines + [f"spans written to {trace_path.relative_to(ROOT)}"]
        report_rows += _report_rows(outcome, {}, attempted, failed, outcome.notes + untraced.notes)

    for row in report_rows:
        print(row)
    correct = failed == 0
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0 if correct else 1


def _report_rows(outcome, metrics, attempted: int, failed: int, notes: list) -> list:
    """Human-readable rows: guarded metrics, the workload's own, the checks."""
    rows = [f"e2e   {name:<28} {value:.6g} {unit}" for name, (value, unit) in metrics.items()]
    for name, (value, unit, note) in outcome.report.items():
        shown = "inf" if math.isinf(value) else f"{value:.6g}"
        rows.append(f"wl    {name:<28} {shown} {unit}" + (f"   ({note})" if note else ""))
    share = failed / attempted if attempted else 0.0
    rows.append(f"wl    {'failed_share':<28} {share:.6g}   ({failed} of {attempted} failed)")
    rows += [f"check {note}" for note in notes]
    return rows


if __name__ == "__main__":
    sys.exit(main())
