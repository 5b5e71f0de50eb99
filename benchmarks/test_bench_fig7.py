"""Figure 7: remaining MBC (crossbar) area versus classification error.

Paper reference: sweeping the tolerable clipping error, the per-layer and
total crossbar areas of (a) LeNet and (b) ConvNet drop rapidly while the
classification error grows only slightly; LeNet's total area reaches 13.62 %
with no accuracy loss and 3.78 % at 1 % loss, ConvNet's 51.81 % / 38.14 %.

Shape to verify: total crossbar area is non-increasing along the ε sweep, the
largest-ε point is substantially below 100 %, and the error increase across
the sweep stays small.
"""

from bench_utils import run_once
from repro.experiments import ExperimentContext, execute_spec, spec_for_workload

TOLERANCES = [0.02, 0.08, 0.20]


def _check_shape(sweep):
    areas = sweep.area_series()
    assert all(b <= a + 1e-9 for a, b in zip(areas, areas[1:])), areas
    assert areas[-1] < 0.95, "rank clipping saved almost no crossbar area"
    errors = sweep.error_series()
    # The gentlest tolerance must sit at (or very near) the best accuracy of
    # the sweep — the "no accuracy loss" end of the paper's curves — and even
    # the most aggressive point must stay far away from a collapsed model.
    assert errors[0] <= min(errors) + 0.05
    assert max(errors) < 0.5, "accuracy collapsed at the aggressive end of the sweep"


def test_figure7a_lenet_area_vs_error(benchmark, lenet_baseline):
    workload, network, accuracy, setup = lenet_baseline
    sweep = run_once(
        benchmark,
        execute_spec,
        spec_for_workload("sweep", workload, method="rank_clipping", grid=TOLERANCES),
        context=ExperimentContext(workload, setup, network, accuracy),
    ).result
    print()
    print(sweep.format_table())
    _check_shape(sweep)


def test_figure7b_convnet_area_vs_error(benchmark, convnet_baseline):
    workload, network, accuracy, setup = convnet_baseline
    sweep = run_once(
        benchmark,
        execute_spec,
        spec_for_workload("sweep", workload, method="rank_clipping", grid=TOLERANCES),
        context=ExperimentContext(workload, setup, network, accuracy),
    ).result
    print()
    print(sweep.format_table())
    _check_shape(sweep)
