"""Sweep-throughput benchmark: the parallel sweep engine vs the serial path.

Measures one multi-point λ group-deletion sweep (the Figure 8 workload shape)
from a shared trained baseline under three execution policies:

* ``reference`` — ``SweepEngine.reference()``: the pre-engine behaviour
  (serial points, flat per-group Lasso, per-point inline evaluation, no
  routing memoization).
* ``serial`` — the default engine with one worker: vectorized crossbar group
  Lasso, memoized routing analysis, stripped unobserved evaluations, batched
  final evaluation.
* ``parallel`` — the same engine fanned over two worker processes.

Also times the batched multi-network evaluator against K independent
``predict`` calls on the finished point networks.  The acceptance bar is a
≥ 2× wall-clock speedup of the parallel engine over the reference sweep with
bit-identical serial↔parallel results; numbers land in
``benchmark.extra_info`` and in ``BENCH_sweeps.json`` via
``benchmarks/run_benchmarks.py``.

The benchmark runs the fast in-repo MLP workload at the ``tiny`` scale so
the reference configuration stays affordable inside CI; the speedup sources
(regularizer vectorization, record-step memoization, evaluation batching)
are scale-independent.

:func:`collect_policy_stats` separately times the ``figure7`` preset (ConvNet
ε sweep, SMALL scale) serial vs ``workers=2`` — the point phase, where the
pool runs — so a parallel engine slower than the serial one shows up in the
``BENCH_sweeps.json`` trajectory.  It takes about a minute and runs from
``benchmarks/run_benchmarks.py --suite sweeps`` only, not under pytest.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from bench_utils import run_once
from repro.experiments import (
    REGISTRY,
    ExperimentContext,
    SweepEngine,
    convnet_workload,
    execute_spec,
    lenet_workload,
    mlp_workload,
    spec_for_workload,
    train_baseline,
)
from repro.nn.batched import batched_evaluate
from repro.nn.metrics import accuracy
from repro.utils import blas

STRENGTHS = [0.005, 0.01, 0.02, 0.04, 0.06, 0.08]
EVAL_NETWORKS = 4
EVAL_SAMPLES = 512


def collect_sweep_stats():
    """Sweep timings/speedups as a flat dict (shared with run_benchmarks)."""
    workload = mlp_workload("tiny")
    network, baseline_accuracy, setup = train_baseline(workload)
    context = ExperimentContext(workload, setup, network)

    def timed(engine):
        spec = spec_for_workload(
            "sweep",
            workload,
            method="group_deletion",
            grid=STRENGTHS,
            include_small_matrices=True,
            engine=engine,
        )
        start = time.perf_counter()
        sweep = execute_spec(spec, context=context).result
        return sweep, time.perf_counter() - start

    reference_sweep, t_reference = timed(SweepEngine.reference())
    serial_sweep, t_serial = timed(SweepEngine(workers=1))
    parallel_sweep, t_parallel = timed(SweepEngine(workers=2))

    # Correctness gates: parallelism must not change a single bit, and the
    # engine must report the same wire counts as the reference path.
    assert serial_sweep.points == parallel_sweep.points
    for fast, slow in zip(serial_sweep.points, reference_sweep.points):
        assert fast.wire_fractions == slow.wire_fractions

    # Batched multi-network evaluation vs K independent forward passes, on
    # same-architecture LeNet networks like the finished points of a Figure
    # 6-8 sweep (the convolutional first layer is where the shared-im2col
    # batching pays).
    lenet = lenet_workload("tiny")
    networks = [point_network(lenet, seed) for seed in range(EVAL_NETWORKS)]
    rng = np.random.default_rng(0)
    inputs = rng.standard_normal(
        (EVAL_SAMPLES, 1, lenet.scale.image_size, lenet.scale.image_size)
    )
    targets = rng.integers(0, 10, EVAL_SAMPLES)
    t_individual = _best_of(
        lambda: [
            float(accuracy(n.predict(inputs, batch_size=256), targets))
            for n in networks
        ]
    )
    t_batched = _best_of(lambda: batched_evaluate(networks, inputs, targets))

    return {
        "points": len(STRENGTHS),
        "routing_cache_hits": serial_sweep.routing_cache_stats.get("hits", 0),
        "routing_cache_misses": serial_sweep.routing_cache_stats.get("misses", 0),
        "reference_s": t_reference,
        "serial_engine_s": t_serial,
        "parallel_engine_s": t_parallel,
        "serial_speedup": t_reference / t_serial,
        "parallel_speedup": t_reference / t_parallel,
        "eval_individual_ms": 1e3 * t_individual,
        "eval_batched_ms": 1e3 * t_batched,
        "eval_batched_speedup": t_individual / t_batched,
    }


def collect_policy_stats(repeats: int = 3):
    """figure7 (SMALL) point-phase time, serial vs ``workers=2``, median of ``repeats``.

    Both policies reuse one trained baseline and alternate run by run, so
    machine drift hits them alike.  The parallel points must equal the
    serial ones bit for bit.
    """
    workload = convnet_workload("small")
    network, baseline_accuracy, setup = train_baseline(workload)
    context = ExperimentContext(
        workload=workload,
        setup=setup,
        baseline_network=network,
        baseline_accuracy=baseline_accuracy,
    )
    points_s = {1: [], 2: []}
    payloads = {}
    for _ in range(repeats):
        for workers in points_s:
            spec = REGISTRY.get("figure7", scale="small", workers=workers)
            run = execute_spec(spec, context=context)
            points_s[workers].append(run.timings["points_s"])
            payloads[workers] = run.result.to_payload()
    assert payloads[1] == payloads[2]
    serial, parallel = (statistics.median(points_s[w]) for w in (1, 2))
    return {
        "cores": blas.cpu_count(),
        "blas_threads": blas.blas_threads(),
        "figure7_points": len(spec.grid),
        "figure7_serial_points_s": serial,
        "figure7_parallel_points_s": parallel,
        "figure7_parallel_speedup": serial / parallel,
    }


def point_network(workload, seed):
    """A finished sweep-point-like network (shared architecture, own weights)."""
    from repro.core.conversion import convert_to_lowrank

    return convert_to_lowrank(workload.build(seed))


def _best_of(func, repeats: int = 3) -> float:
    func()
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        func()
        times.append(time.perf_counter() - start)
    return min(times)


def _check_shape(stats):
    # The tentpole acceptance bar: the parallel engine at 2 workers must beat
    # the serial pre-engine sweep by at least 2x wall-clock.
    assert stats["parallel_speedup"] >= 2.0, stats
    assert stats["serial_speedup"] >= 2.0, stats
    # Batched evaluation of same-architecture conv networks must beat (or at
    # worst match) K independent forwards; the observed band is 1.2-1.5x.
    assert stats["eval_batched_speedup"] >= 1.0, stats


def test_sweep_throughput(benchmark):
    stats = run_once(benchmark, collect_sweep_stats)
    _check_shape(stats)
    benchmark.extra_info.update(
        {k: round(v, 4) if isinstance(v, float) else v for k, v in stats.items()}
    )
