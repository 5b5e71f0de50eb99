"""Ablation: SVD versus PCA as the low-rank backend of rank clipping.

Paper reference: "Instead of PCA, when SVD is applied, the whole crossbar
area can also be reduced to 32.97 % (55.64 %) for LeNet (ConvNet), which
indicates SVD is inferior to PCA."

Two checks:

1. Closed form — with the paper's PCA ranks the crossbar area is 13.62 % /
   51.81 %, i.e. better (smaller) than the SVD numbers quoted above.
2. Measured — running rank clipping with the SVD backend on the scaled-down
   LeNet workload still reduces crossbar area while retaining accuracy
   (the two backends coincide on uncentered data, so at this scale they give
   similar ranks; the benchmark verifies the SVD path is functional).
"""

from bench_utils import run_once
from repro.experiments import (
    PAPER_HEADLINE,
    ExperimentContext,
    execute_spec,
    spec_for_workload,
)
from repro.hardware import network_area_fraction


def test_svd_ablation(benchmark, lenet_baseline):
    workload, network, accuracy, setup = lenet_baseline
    result = run_once(
        benchmark,
        execute_spec,
        spec_for_workload("table1", workload, lowrank_method="svd"),
        context=ExperimentContext(workload, setup, network, accuracy),
    ).result
    print()
    print(result.format_table())

    # Closed-form comparison against the paper's quoted SVD numbers.
    assert (
        PAPER_HEADLINE["lenet_crossbar_area_percent"]
        < PAPER_HEADLINE["lenet_svd_crossbar_area_percent"]
    )
    assert (
        PAPER_HEADLINE["convnet_crossbar_area_percent"]
        < PAPER_HEADLINE["convnet_svd_crossbar_area_percent"]
    )

    # Measured: the SVD-clipped network still saves area without losing accuracy.
    clipped = result.row("Rank clipping")
    area = network_area_fraction(
        workload.layer_shapes,
        {name: clipped.ranks.get(name) for name in workload.layer_shapes},
    )
    print(f"SVD-clipped crossbar area: {area:.2%}")
    assert area < 1.0
    assert clipped.accuracy >= result.row("Original").accuracy - 0.05
