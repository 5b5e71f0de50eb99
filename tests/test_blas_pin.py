"""BLAS thread pinning in sweep pool workers.

Every sweep pool worker caps its BLAS threads at ``cores // workers`` while
the parent keeps its own count.  Where no OpenBLAS thread control resolves,
pools run unpinned — one warning per process, one counter tick per pool —
and results stay bit-identical to serial.
"""

import multiprocessing as mp

import pytest

from repro.experiments import ExperimentSpec, SweepEngine, execute_spec, resilience
from repro.obs import MetricsRegistry, Observability
from repro.utils import blas

FAST = dict(
    baseline_iterations=60,
    clip_interval=10,
    deletion_iterations=20,
    finetune_iterations=10,
    record_interval=10,
    eval_interval=20,
    batch_size=24,
)


def sweep_spec(**overrides) -> ExperimentSpec:
    spec = ExperimentSpec(
        kind="sweep",
        method="rank_clipping",
        workload="mlp",
        scale="tiny",
        scale_overrides=FAST,
        grid=(0.05, 0.3),
        name="blas-pin-sweep",
    )
    return spec.with_updates(**overrides) if overrides else spec


def pin_warnings(caplog):
    return [
        record
        for record in caplog.records
        if record.name == "repro.experiments.resilience" and "OpenBLAS" in record.message
    ]


@pytest.mark.skipif(blas.resolve() is None, reason="no OpenBLAS thread control")
class TestPinnedPool:
    @pytest.mark.parametrize("method", ["fork", "spawn"])
    def test_workers_run_capped_threads_and_parent_keeps_its_own(self, method):
        if method not in mp.get_all_start_methods():
            pytest.skip(f"start method {method!r} unavailable")
        before = blas.blas_threads()
        engine = SweepEngine(workers=2, start_method=method)
        with resilience._make_pool(engine, 2) as pool:
            seen = [pool.submit(blas.blas_threads) for _ in range(4)]
            seen = [future.result(timeout=60) for future in seen]
        assert seen == [max(1, blas.cpu_count() // 2)] * 4
        assert blas.blas_threads() == before

    def test_single_worker_pool_keeps_every_core(self):
        with resilience._make_pool(SweepEngine(workers=2), 1) as pool:
            assert pool.submit(blas.blas_threads).result(timeout=60) == blas.cpu_count()


class TestMissingBlasControl:
    def test_unpinned_pool_warns_once_counts_and_matches_serial(self, monkeypatch, caplog):
        monkeypatch.setattr(blas, "resolve", lambda: None)
        monkeypatch.setattr(resilience, "_blas_warned", False)
        assert blas.blas_threads() is None
        assert blas.set_blas_threads(1) is False

        obs = Observability(metrics=MetricsRegistry())
        parallel = execute_spec(sweep_spec(workers=2), obs=obs)
        # The unsupervised fan-out builds its pool through the same path.
        assert SweepEngine(workers=2).map_points(abs, [-1, -2]) == [1, 2]
        serial = execute_spec(sweep_spec(workers=1))

        assert parallel.result.to_payload() == serial.result.to_payload()
        assert obs.metrics.snapshot()["counters"]["runner.blas_pin_unavailable"] == 1
        assert len(pin_warnings(caplog)) == 1
