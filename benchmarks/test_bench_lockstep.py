"""Lockstep-training throughput benchmark: stacked λ-point training vs serial.

Measures the 6-point λ group-deletion sweep behind Figure 8 under the two
execution policies of the default engine:

* ``points`` — the serial per-point engine path (one network trains at a
  time; the PR-2 baseline).
* ``lockstep`` — ``SweepEngine(mode="lockstep")``: all six λ-points train as
  one stacked program (im2col shared across points, one ``(K, out, in)``
  batched matmul per weighted layer, stacked-state SGD, per-point-λ group
  Lasso, and the first weighted layer's input gradient — which no parameter
  consumes — skipped entirely).

The acceptance bar is a ≥ 2× wall-clock speedup of the lockstep λ-point
training phase over the serial per-point path with **bit-identical** final
accuracies and group norms; the end-to-end sweep (which adds the shared
rank-clipping preamble and the batched final evaluation, identical under both
policies) is reported alongside with a softer bar.  Numbers land in
``benchmark.extra_info`` and in ``BENCH_lockstep.json`` via
``benchmarks/run_benchmarks.py --suite lockstep``.

The benchmark pins the regime the lockstep mode is built for (see the
quickstart: 1-core boxes, identical-shape λ grids): the LeNet workload at the
``tiny`` preset with small (8-sample) mini-batches, where per-point
iterations are far too small to saturate the core and the sweep's wall-clock
is dominated by per-iteration kernel and dispatch overhead the stack
amortizes across K points.  Records run at the ``small`` preset's cadence
(every 40 iterations), and both policies are warmed once and timed
best-of-``REPEATS`` (the PR-1 lesson: first-touch page faults and allocator
growth otherwise dominate sub-second measurements).
"""

from __future__ import annotations

import copy
import time

import numpy as np

from bench_utils import run_once
from repro.core import GroupDeletionConfig, RankClippingConfig, RankClipper
from repro.core.conversion import convert_to_lowrank
from repro.core.groups import derive_network_groups, matrix_group_norms
from repro.experiments import (
    ExperimentContext,
    SweepEngine,
    execute_spec,
    get_scale,
    lenet_workload,
    spec_for_workload,
    train_baseline,
)
from repro.experiments.runner import StrengthPointTask

STRENGTHS = [0.005, 0.01, 0.02, 0.04, 0.06, 0.08]
BENCH_SCALE = get_scale("tiny").with_overrides(batch_size=8, record_interval=40)
REPEATS = 3


def _network_group_norms(network):
    norms = {}
    for matrix in derive_network_groups(network, include_small_matrices=True):
        row_norms, col_norms = matrix_group_norms(matrix.values(), matrix.plan)
        norms[matrix.name] = np.concatenate([row_norms.ravel(), col_norms.ravel()])
    return norms


def collect_lockstep_stats():
    """Lockstep-vs-serial timings/speedups as a flat dict (shared with run_benchmarks)."""
    workload = lenet_workload(BENCH_SCALE)
    network, baseline_accuracy, setup = train_baseline(workload)
    scale = workload.scale
    layer_order = list(workload.clippable_layers)

    # Shared preamble (identical under both policies): one rank-clipped
    # starting network for every λ point.
    serial_engine = SweepEngine()
    lockstep_engine = SweepEngine(mode="lockstep")
    clipped = convert_to_lowrank(copy.deepcopy(network), layers=layer_order)
    clip_config = RankClippingConfig(
        tolerance=0.03,
        clip_interval=scale.clip_interval,
        max_iterations=scale.clip_iterations,
        layers=tuple(layer_order),
    )
    RankClipper(clip_config).run(
        clipped, serial_engine.shared_setup(setup).trainer_factory
    )

    def make_tasks(engine):
        return [
            StrengthPointTask(
                index=index,
                strength=float(strength),
                network=copy.deepcopy(clipped),
                setup=engine.point_setup(setup, index),
                config=GroupDeletionConfig(
                    strength=float(strength),
                    iterations=scale.deletion_iterations,
                    finetune_iterations=scale.finetune_iterations,
                    include_small_matrices=True,
                ),
                record_interval=scale.record_interval,
            )
            for index, strength in enumerate(STRENGTHS)
        ]

    # λ-point training phase, interleaved best-of-REPEATS per policy (the
    # deep copies in make_tasks are excluded from the timed region; both
    # policies would pay them identically).  One untimed warmup run per
    # policy keeps allocator growth and first-touch faults out of the band.
    serial_engine.run_strength_points(make_tasks(serial_engine))
    lockstep_engine.run_strength_points(make_tasks(lockstep_engine))
    serial_times, lockstep_times = [], []
    serial_outcomes = lockstep_outcomes = None
    for _ in range(REPEATS):
        tasks = make_tasks(serial_engine)
        start = time.perf_counter()
        serial_outcomes = serial_engine.run_strength_points(tasks)
        serial_times.append(time.perf_counter() - start)
        tasks = make_tasks(lockstep_engine)
        start = time.perf_counter()
        lockstep_outcomes = lockstep_engine.run_strength_points(tasks)
        lockstep_times.append(time.perf_counter() - start)

    # Correctness gates: the lockstep stack must not change a single bit of
    # any point's result — wire counts, routing areas, held-out accuracies
    # and every group norm of the finished networks.
    for serial_point, lockstep_point in zip(serial_outcomes, lockstep_outcomes):
        assert serial_point.wire_fractions == lockstep_point.wire_fractions
        assert (
            serial_point.routing_area_fractions
            == lockstep_point.routing_area_fractions
        )
    serial_accuracies = serial_engine.evaluate_networks(
        [outcome.network for outcome in serial_outcomes], setup
    )
    lockstep_accuracies = lockstep_engine.evaluate_networks(
        [outcome.network for outcome in lockstep_outcomes], setup
    )
    assert serial_accuracies == lockstep_accuracies
    for serial_point, lockstep_point in zip(serial_outcomes, lockstep_outcomes):
        serial_norms = _network_group_norms(serial_point.network)
        lockstep_norms = _network_group_norms(lockstep_point.network)
        for name, values in serial_norms.items():
            np.testing.assert_array_equal(values, lockstep_norms[name])

    # End-to-end sweep (adds the shared clip preamble + batched evaluation).
    spec = spec_for_workload(
        "sweep",
        workload,
        method="group_deletion",
        grid=STRENGTHS,
        include_small_matrices=True,
        engine=serial_engine,
    )
    context = ExperimentContext(workload, setup, network)
    start = time.perf_counter()
    serial_sweep = execute_spec(spec, context=context).result
    sweep_serial_s = time.perf_counter() - start
    start = time.perf_counter()
    lockstep_sweep = execute_spec(
        spec.with_updates(engine=lockstep_engine), context=context
    ).result
    sweep_lockstep_s = time.perf_counter() - start
    assert serial_sweep.points == lockstep_sweep.points

    serial_s = min(serial_times)
    lockstep_s = min(lockstep_times)
    return {
        "points": len(STRENGTHS),
        "serial_points_s": serial_s,
        "lockstep_points_s": lockstep_s,
        "lockstep_speedup": serial_s / lockstep_s,
        "sweep_serial_s": sweep_serial_s,
        "sweep_lockstep_s": sweep_lockstep_s,
        "sweep_speedup": sweep_serial_s / sweep_lockstep_s,
        "routing_cache_hits": lockstep_sweep.routing_cache_stats.get("hits", 0),
    }


def _check_shape(stats):
    # The tentpole acceptance bar: lockstep training of the 6-point λ grid
    # must beat the serial per-point engine path by at least 2x wall-clock.
    assert stats["lockstep_speedup"] >= 2.0, stats
    # End-to-end the sweep keeps most of that (the shared clip preamble and
    # the batched evaluation are identical under both policies).
    assert stats["sweep_speedup"] >= 1.4, stats


def test_lockstep_throughput(benchmark):
    stats = run_once(benchmark, collect_lockstep_stats)
    _check_shape(stats)
    benchmark.extra_info.update(
        {k: round(v, 4) if isinstance(v, float) else v for k, v in stats.items()}
    )
