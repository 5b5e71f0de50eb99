"""Figure 6: remaining ranks of LeNet's conv layers versus tolerable error ε.

Paper reference: as ε grows from 0 to 0.2 the remaining ranks of conv1 /
conv2 fall from their original 20 / 50 towards 4 / 6 while accuracy stays
above ~99 % (dropping only slightly at the largest tolerances).

Shape to verify: ranks are non-increasing in ε for every clipped layer and
the accuracy degradation over the sweep is modest.
"""

from bench_utils import run_once
from repro.experiments import ExperimentContext, execute_spec, spec_for_workload

TOLERANCES = [0.01, 0.05, 0.15, 0.25]


def test_figure6_ranks_vs_tolerance(benchmark, lenet_baseline):
    workload, network, accuracy, setup = lenet_baseline
    sweep = run_once(
        benchmark,
        execute_spec,
        spec_for_workload("sweep", workload, method="rank_clipping", grid=TOLERANCES),
        context=ExperimentContext(workload, setup, network, accuracy),
    ).result
    print()
    print(sweep.format_table())

    # Each ε point is an independent training run, so ranks can jitter by a
    # unit between neighbouring points; the end-to-end trend must still be
    # downward for every layer and strictly downward for at least one.
    first, last = sweep.points[0], sweep.points[-1]
    for layer in workload.clippable_layers:
        assert last.ranks[layer] <= first.ranks[layer], (
            f"ranks of {layer} should not grow with epsilon: "
            f"{sweep.ranks_series(layer)}"
        )
    assert any(last.ranks[n] < first.ranks[n] for n in first.ranks)
    # Gentle tolerances retain accuracy (the paper's ε ≤ 0.05 regime).
    gentle = [p.accuracy for p in sweep.points if p.tolerance <= 0.05]
    assert min(gentle) >= sweep.baseline_accuracy - 0.10
