"""Figure 8: remaining routing wires and routing area versus classification error
(ConvNet), swept over the group-Lasso strength λ.

Paper reference: with growing λ (and therefore growing classification error,
17.5 %–20 %), the remaining routing wires of conv1 / conv2 / conv3 / fc1 fall
towards 56–7 % and the corresponding routing areas towards 56.25 % / 7.64 % /
21.44 % / 31.64 % at 1.5 % accuracy loss.

Shape to verify: averaged over the matrices, stronger λ leaves fewer wires;
routing area equals the square of the wire fraction; accuracy degrades
gracefully (not catastrophically) across the sweep.
"""

import numpy as np

from bench_utils import run_once
from repro.experiments import ExperimentContext, execute_spec, spec_for_workload

STRENGTHS = [0.01, 0.03, 0.06]


def test_figure8_routing_vs_error(benchmark, convnet_baseline):
    workload, network, accuracy, setup = convnet_baseline
    sweep = run_once(
        benchmark,
        execute_spec,
        spec_for_workload(
            "sweep",
            workload,
            method="group_deletion",
            grid=STRENGTHS,
            include_small_matrices=True,
        ),
        context=ExperimentContext(workload, setup, network),
    ).result
    print()
    print(sweep.format_table())

    mean_wires = [np.mean(list(p.wire_fractions.values())) for p in sweep.points]
    assert mean_wires[-1] <= mean_wires[0] + 1e-9, mean_wires
    assert mean_wires[-1] < 1.0, "the strongest lambda deleted nothing"

    for point in sweep.points:
        for name, wire in point.wire_fractions.items():
            assert point.routing_area_fractions[name] == wire**2
    # Accuracy should not collapse to chance anywhere in the sweep.
    assert max(p.error for p in sweep.points) < 0.6
