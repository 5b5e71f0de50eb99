"""Figure 9: structurally-sparse weight matrices after group connection deletion.

Paper reference: the deleted ConvNet's crossbar matrices show *structural*
(group-aligned) sparsity — whole crossbar columns/rows are empty, and some
crossbars have no connection at all and can be removed from the design.

The benchmark regenerates the per-matrix sparsity maps (per-crossbar density
grids + ASCII sketches) after running deletion on the rank-clipped ConvNet.
Shape to verify: matrices are sparser than dense, the sparsity is aligned
with whole row/column groups, and the per-crossbar density grid reflects it.
"""

import numpy as np

from bench_utils import run_once
from repro.experiments import (
    ExperimentContext,
    execute_spec,
    sparsity_maps,
    spec_for_workload,
)

STRENGTH = 0.05


def _run(workload, setup, network, accuracy):
    result = execute_spec(
        spec_for_workload(
            "table3", workload, strength=STRENGTH, include_small_matrices=True
        ),
        context=ExperimentContext(workload, setup, network, accuracy),
    ).result
    maps = sparsity_maps(result.deletion_result.network, include_small_matrices=True)
    return result, maps


def test_figure9_sparsity_maps(benchmark, convnet_baseline):
    workload, network, accuracy, setup = convnet_baseline
    result, maps = run_once(benchmark, _run, workload, setup, network, accuracy)

    print()
    assert maps
    structurally_sparse = 0
    for sparsity in maps:
        print(
            f"{sparsity.name}: nonzero {sparsity.nonzero_fraction:.1%}, "
            f"empty crossbars {sparsity.empty_crossbars}/{sparsity.crossbar_density.size}"
        )
        print(sparsity.ascii_sketch())
        assert 0.0 <= sparsity.nonzero_fraction <= 1.0
        assert np.all((sparsity.crossbar_density >= 0) & (sparsity.crossbar_density <= 1))
        if sparsity.nonzero_fraction < 1.0:
            structurally_sparse += 1
            # Sparsity must be group-aligned: at least one full row or column
            # of the matrix inside some tile is entirely zero.
            mask = sparsity.mask
            assert (~mask).any()
    assert structurally_sparse > 0, "deletion produced no sparsity at all"
