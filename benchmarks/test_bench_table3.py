"""Table 3: MBC sizes and remaining routing wires in big layers.

Paper reference (full scale): after group connection deletion without
accuracy loss, the remaining routing wires per big matrix are

* LeNet:   conv2_u 47.5 %, fc1_u 24.8 %, fc1_v 6.7 %, fc_last 18.0 %
  (layer-wise average routing area 8.1 %)
* ConvNet: conv1_u 83.3 %, conv2_u 40.5 %, conv3_u 74.4 %, fc_last 81.9 %
  (mean wires 70.03 %, layer-wise routing area 52.06 %)

The benchmark regenerates the same rows on the scaled-down synthetic
workloads.  Shape to verify: a substantial fraction of wires is deleted,
routing area shrinks quadratically with the wire fraction, and accuracy stays
close to the baseline after fine-tuning.
"""

from bench_utils import run_once
from repro.experiments import ExperimentContext, execute_spec, spec_for_workload

#: Group-Lasso strengths tuned for the short SMALL-scale runs: strong enough
#: to drive groups to zero within a few hundred iterations, weak enough for
#: fine-tuning to recover accuracy.
LENET_STRENGTH = 0.04
CONVNET_STRENGTH = 0.04


def _check_shape(result):
    assert result.rows, "no big matrices were selected for deletion"
    # Some routing wires are deleted overall.
    assert result.mean_wire_fraction() < 1.0
    # Routing area is the square of the wire fraction, so it shrinks faster.
    assert result.mean_routing_area_fraction() <= result.mean_wire_fraction() + 1e-12
    # Accuracy stays within a few points of the baseline after fine-tuning.
    assert result.final_accuracy >= result.baseline_accuracy - 0.08


def test_table3_lenet(benchmark, lenet_baseline):
    workload, network, accuracy, setup = lenet_baseline
    result = run_once(
        benchmark,
        execute_spec,
        spec_for_workload(
            "table3", workload, strength=LENET_STRENGTH, include_small_matrices=True
        ),
        context=ExperimentContext(workload, setup, network, accuracy),
    ).result
    print()
    print(result.format_table())
    _check_shape(result)


def test_table3_convnet(benchmark, convnet_baseline):
    workload, network, accuracy, setup = convnet_baseline
    result = run_once(
        benchmark,
        execute_spec,
        spec_for_workload(
            "table3", workload, strength=CONVNET_STRENGTH, include_small_matrices=True
        ),
        context=ExperimentContext(workload, setup, network, accuracy),
    ).result
    print()
    print(result.format_table())
    _check_shape(result)
