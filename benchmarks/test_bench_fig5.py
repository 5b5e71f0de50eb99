"""Figure 5: percentage of deleted routing wires and accuracy during deletion.

Paper reference: starting from the rank-clipped LeNet, the deleted-wire
percentage of conv2_u / fc1_u / fc1_v / fc2_u rises over training (up to
93.9 % for fc1_v) while fine-tuning restores the baseline 99.1 % accuracy.

Shape to verify: the deleted fraction is non-decreasing over most of the run,
ends substantially above zero for at least one matrix, and accuracy after the
deletion phase remains close to the starting accuracy.
"""

import numpy as np

from bench_utils import run_once
from repro.experiments import ExperimentContext, execute_spec, spec_for_workload

STRENGTH = 0.04


def test_figure5_deletion_trace(benchmark, lenet_baseline):
    workload, network, accuracy, setup = lenet_baseline
    series = run_once(
        benchmark,
        execute_spec,
        spec_for_workload(
            "figure5", workload, strength=STRENGTH, include_small_matrices=True
        ),
        context=ExperimentContext(workload, setup, network),
    ).result
    print()
    print(series.format_series())

    final = series.final_deleted_fractions()
    assert final, "no matrices were traced"
    assert max(final.values()) > 0.1, "group Lasso deleted almost nothing"

    # Deleted fractions trend upward: the final value is at least the initial.
    for name, trace in series.deleted_wire_fraction.items():
        assert trace[-1] >= trace[0] - 1e-9, name

    accuracies = [a for a in series.accuracy if a is not None]
    assert accuracies, "accuracy was not recorded"
    assert np.max(accuracies) >= accuracies[0] - 0.05
