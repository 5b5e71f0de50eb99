"""Tests for the declarative experiment spec layer.

Covers the ``ExperimentScale.with_overrides`` validation fix, spec
validation, dict/JSON round-tripping, loading engine dicts that still carry
the retired engine switches, fingerprint stability (including across
processes and a pinned table of every registry preset's fingerprints),
point-fingerprint invariance to execution policy, and the
planner's expansion, and end-to-end execution: a prebuilt-baseline
``ExperimentContext`` reproduces a self-trained run, and the serial /
parallel / lockstep engine policies stay bit-identical through
``execute_spec``.
"""

import json
import os
import subprocess
import sys
from dataclasses import fields as dataclass_fields
from pathlib import Path

import pytest

from repro.exceptions import ConfigurationError, ExperimentError
from repro.experiments import (
    REGISTRY,
    TINY,
    ExperimentContext,
    ExperimentSpec,
    SweepEngine,
    baseline_fingerprint,
    build_plan,
    execute_spec,
    mlp_workload,
    point_fingerprint,
    spec_for_workload,
    train_baseline,
)
from repro.experiments.spec import RETIRED_ENGINE_FIELDS

_SRC = Path(__file__).resolve().parents[1] / "src"

FAST = dict(train_samples=120, test_samples=48, baseline_iterations=30)

#: ``FAST`` plus short clipping / deletion phases, for specs that execute.
RUN_FAST = dict(
    FAST,
    clip_iterations=20,
    clip_interval=10,
    deletion_iterations=20,
    finetune_iterations=10,
    record_interval=10,
    eval_interval=20,
    batch_size=24,
)

#: One (kind, method, fields) case per paper deliverable kind.
EXECUTION_CASES = [
    pytest.param("table1", "rank_clipping", {}, id="table1"),
    pytest.param(
        "table3",
        "group_deletion",
        dict(strength=0.05, include_small_matrices=True),
        id="table3",
    ),
    pytest.param("figure3", "rank_clipping", {}, id="figure3"),
    pytest.param(
        "figure5",
        "group_deletion",
        dict(strength=0.05, include_small_matrices=True),
        id="figure5",
    ),
    pytest.param("sweep", "rank_clipping", dict(grid=(0.05, 0.3)), id="sweep-eps"),
    pytest.param(
        "sweep",
        "group_deletion",
        dict(grid=(0.01, 0.08), include_small_matrices=True),
        id="sweep-lambda",
    ),
]


#: ``(spec, plan, baseline, point)`` fingerprints of every registry preset at
#: every scale, where ``point`` is ``point_fingerprint(spec, 0, grid[0] or
#: None)``.  Stored artifacts, journals and queued jobs are addressed by these
#: values; a change here strands every existing store.
GOLDEN_FINGERPRINTS = {
    ("baseline", "tiny"): ("7cf482008bbbe5b3", "7cf482008bbbe5b3", "82094e141df03220", "9a2c1860ea78d9ff"),
    ("baseline", "small"): ("4ea1a8cb271f77d2", "4ea1a8cb271f77d2", "521a70b3cc8ce297", "cd6959797fd7ae19"),
    ("baseline", "paper"): ("51c1a57995cdc909", "51c1a57995cdc909", "a8ef187f1682444c", "60c9612d4515dfc4"),
    ("table1", "tiny"): ("c65138634738540e", "c65138634738540e", "803231004d72f96b", "13759022e9476130"),
    ("table1", "small"): ("67aad655590821d6", "67aad655590821d6", "c32d2915361f2481", "cab3643e765c2068"),
    ("table1", "paper"): ("ed4cb6d92e3e5703", "ed4cb6d92e3e5703", "be65a1b0e08ca790", "c89381b98d914796"),
    ("table3", "tiny"): ("bf5ea703d08d312b", "bf5ea703d08d312b", "803231004d72f96b", "35625e544d985778"),
    ("table3", "small"): ("73bdf5f3c8db58b5", "73bdf5f3c8db58b5", "c32d2915361f2481", "10a69560ec39de13"),
    ("table3", "paper"): ("5504a967ac463ca9", "5504a967ac463ca9", "be65a1b0e08ca790", "0c963c249de7d78f"),
    ("figure3", "tiny"): ("0e9b0d2f3bf3cfa3", "0e9b0d2f3bf3cfa3", "803231004d72f96b", "6de499e0042051e4"),
    ("figure3", "small"): ("3bf0cbf9e011c9ad", "3bf0cbf9e011c9ad", "c32d2915361f2481", "4c11904bde79bab0"),
    ("figure3", "paper"): ("221d004b8c8af098", "221d004b8c8af098", "be65a1b0e08ca790", "62b1565942fd313c"),
    ("figure5", "tiny"): ("30c60cfb3e7476cc", "30c60cfb3e7476cc", "803231004d72f96b", "88e2ccdf45c894e3"),
    ("figure5", "small"): ("52f096fed76d3782", "52f096fed76d3782", "c32d2915361f2481", "ef4af2f34ab3aca8"),
    ("figure5", "paper"): ("7c571eb6229c9b33", "7c571eb6229c9b33", "be65a1b0e08ca790", "f8ce494677d2c2af"),
    ("figure6", "tiny"): ("3ede3adf4d2877c7", "3ede3adf4d2877c7", "803231004d72f96b", "bd3665b24f2fc90f"),
    ("figure6", "small"): ("407cbb1c621f7791", "407cbb1c621f7791", "c32d2915361f2481", "d62b1906dfd4f200"),
    ("figure6", "paper"): ("8af542f20e8ec611", "8af542f20e8ec611", "be65a1b0e08ca790", "5ec25bed034ebe67"),
    ("figure7", "tiny"): ("769701313d1f54f0", "769701313d1f54f0", "61fad6af364803ae", "8646587e67f6b0a1"),
    ("figure7", "small"): ("6726ad5f03c9f9e3", "6726ad5f03c9f9e3", "303505cf5810282a", "d77e1a5fd417e7f1"),
    ("figure7", "paper"): ("ddf8018a175134a1", "ddf8018a175134a1", "c1abaab5be3c326e", "e6e5e93e5525af97"),
    ("figure8", "tiny"): ("0c2fe9f6e46f1298", "0c2fe9f6e46f1298", "61fad6af364803ae", "aad4a8ad281bd12d"),
    ("figure8", "small"): ("fb6f4f262c587177", "fb6f4f262c587177", "303505cf5810282a", "eb007cfe30df8af8"),
    ("figure8", "paper"): ("900d7093d1c75a97", "900d7093d1c75a97", "c1abaab5be3c326e", "51e3f4cb1f1661b3"),
    ("headline", "tiny"): ("970fc7cff689a658", "970fc7cff689a658", "82094e141df03220", "7bdda81c2b4535b7"),
    ("headline", "small"): ("ccd41d90ddab34c0", "ccd41d90ddab34c0", "521a70b3cc8ce297", "7bdda81c2b4535b7"),
    ("headline", "paper"): ("dd0edf29a28d3505", "dd0edf29a28d3505", "a8ef187f1682444c", "7bdda81c2b4535b7"),
    ("figure_hw", "tiny"): ("75ca80a74193da2a", "75ca80a74193da2a", "803231004d72f96b", "b193424a5a11ade5"),
    ("figure_hw", "small"): ("7be253a167013565", "7be253a167013565", "c32d2915361f2481", "3b34e3cd243e4e76"),
    ("figure_hw", "paper"): ("f7f6794e0b9126fd", "f7f6794e0b9126fd", "be65a1b0e08ca790", "be87fca6c4062d59"),
    ("figure_hw_baseline", "tiny"): ("07bef65ab2a063b1", "07bef65ab2a063b1", "803231004d72f96b", "882de1768d9a1073"),
    ("figure_hw_baseline", "small"): ("979ebdd329ce0ab4", "979ebdd329ce0ab4", "c32d2915361f2481", "ab2c1d0c9cd2cd42"),
    ("figure_hw_baseline", "paper"): ("4f7a858d30727de8", "4f7a858d30727de8", "be65a1b0e08ca790", "5b5447b79433dfb9"),
}


@pytest.fixture(scope="module")
def fast_workload():
    return mlp_workload(TINY.with_overrides(**RUN_FAST))


@pytest.fixture(scope="module")
def fast_baseline(fast_workload):
    network, accuracy, setup = train_baseline(fast_workload)
    return network, accuracy, setup


class TestScaleOverrides:
    def test_known_overrides_apply(self):
        scale = TINY.with_overrides(train_samples=10, seed=3)
        assert scale.train_samples == 10
        assert scale.seed == 3
        assert scale.name == TINY.name

    def test_unknown_key_raises_value_error_listing_fields(self):
        """Regression: unknown keys used to surface as an opaque TypeError."""
        with pytest.raises(ValueError) as excinfo:
            TINY.with_overrides(train_sample=10)  # typo'd field
        message = str(excinfo.value)
        assert "train_sample" in message
        assert "train_samples" in message  # the valid fields are listed
        assert "batch_size" in message

    def test_overrides_still_validate(self):
        with pytest.raises(ConfigurationError):
            TINY.with_overrides(train_samples=0)


class TestSpecValidation:
    def test_unknown_kind(self):
        with pytest.raises(ExperimentError):
            ExperimentSpec(kind="table9")

    def test_sweep_requires_grid(self):
        with pytest.raises(ExperimentError):
            ExperimentSpec(kind="sweep")

    def test_non_sweep_forbids_grid(self):
        with pytest.raises(ExperimentError):
            ExperimentSpec(kind="table1", grid=(0.1,))

    def test_method_must_match_kind(self):
        with pytest.raises(ExperimentError):
            ExperimentSpec(kind="table1", method="group_deletion")

    def test_default_method_per_kind(self):
        assert ExperimentSpec(kind="table1").method == "rank_clipping"
        assert ExperimentSpec(kind="table3").method == "group_deletion"
        assert ExperimentSpec(kind="sweep", grid=(0.1,)).method == "rank_clipping"
        assert ExperimentSpec(kind="headline").method == "baseline"

    def test_value_validation(self):
        with pytest.raises(ExperimentError):
            ExperimentSpec(kind="table1", tolerance=1.5)
        with pytest.raises(ExperimentError):
            ExperimentSpec(kind="table3", strength=-0.1)
        with pytest.raises(ExperimentError):
            ExperimentSpec(kind="table1", lowrank_method="qr")

    def test_name_defaults_to_kind(self):
        assert ExperimentSpec(kind="figure3").name == "figure3"
        assert ExperimentSpec(kind="figure3", name="mine").name == "mine"

    def test_scale_overrides_mapping_normalized(self):
        spec = ExperimentSpec(kind="baseline", scale_overrides={"seed": 3, "batch_size": 8})
        assert spec.scale_overrides == (("batch_size", 8), ("seed", 3))

    def test_engine_mapping_coerced(self):
        spec = ExperimentSpec(kind="baseline", engine={"workers": 2, "mode": "points"})
        assert isinstance(spec.engine, SweepEngine)
        assert spec.engine.workers == 2


class TestRoundTrip:
    def specs(self):
        return [
            ExperimentSpec(kind="table1", workload="lenet", scale="small"),
            ExperimentSpec(
                kind="sweep",
                method="group_deletion",
                workload="mlp",
                scale="tiny",
                scale_overrides=FAST,
                grid=(0.01, 0.08),
                include_small_matrices=True,
                seed=7,
                engine=SweepEngine(workers=2, per_point_seed=True),
                name="roundtrip",
            ),
            ExperimentSpec(kind="headline"),
        ]

    def test_to_dict_from_dict_equality(self):
        for spec in self.specs():
            assert ExperimentSpec.from_dict(spec.to_dict()) == spec

    def test_json_round_trip(self):
        for spec in self.specs():
            assert ExperimentSpec.from_dict(json.loads(spec.to_json())) == spec

    def test_from_dict_unknown_field(self):
        payload = ExperimentSpec(kind="table1").to_dict()
        payload["grids"] = [0.1]
        with pytest.raises(ExperimentError) as excinfo:
            ExperimentSpec.from_dict(payload)
        assert "grids" in str(excinfo.value)

    def test_from_dict_requires_kind(self):
        with pytest.raises(ExperimentError):
            ExperimentSpec.from_dict({"workload": "mlp"})

    def test_engine_round_trip(self):
        engine = SweepEngine(workers=3, mode="lockstep", per_point_seed=True)
        assert SweepEngine.from_dict(engine.as_dict()) == engine
        with pytest.raises(ConfigurationError):
            SweepEngine.from_dict({"turbo": True})


#: The four engine switches older releases serialized, at their only values.
RETIRED_ENGINE_PAYLOAD = {
    "batched_eval": True,
    "memoize_routing": True,
    "structured_lasso": True,
    "inline_training_eval": False,
}


class TestRetiredEngineFields:
    """Engine dicts written while the retired switches existed still load."""

    def test_pin_matches_the_retired_defaults(self):
        assert dict(RETIRED_ENGINE_FIELDS) == RETIRED_ENGINE_PAYLOAD

    def test_engine_has_only_execution_policy_fields(self):
        assert [f.name for f in dataclass_fields(SweepEngine)] == [
            "workers", "per_point_seed", "start_method", "mode", "retry",
        ]

    def test_pinned_values_are_dropped(self):
        engine = SweepEngine(workers=2, mode="lockstep")
        old_payload = {**engine.as_dict(), **RETIRED_ENGINE_PAYLOAD}
        assert SweepEngine.from_dict(old_payload) == engine

    @pytest.mark.parametrize("field", sorted(RETIRED_ENGINE_PAYLOAD))
    def test_other_values_raise_naming_the_field(self, field):
        old_payload = {**RETIRED_ENGINE_PAYLOAD, field: not RETIRED_ENGINE_PAYLOAD[field]}
        with pytest.raises(ConfigurationError, match=field):
            SweepEngine.from_dict(old_payload)

    def test_old_spec_payload_keeps_its_fingerprints(self):
        """Queued jobs and CLI spec files hold ``ExperimentSpec.to_dict`` output."""
        spec = REGISTRY.get("figure8", scale="small")
        old_payload = spec.to_dict()
        old_payload["engine"] = {**old_payload["engine"], **RETIRED_ENGINE_PAYLOAD}
        loaded = ExperimentSpec.from_dict(old_payload)
        assert loaded == spec
        assert loaded.fingerprint() == "fb6f4f262c587177"
        assert point_fingerprint(loaded, 0, loaded.grid[0]) == "eb007cfe30df8af8"

    def test_retired_fields_are_not_settable(self):
        spec = ExperimentSpec(kind="sweep", grid=(0.1,))
        with pytest.raises(ExperimentError, match="structured_lasso"):
            spec.with_updates(structured_lasso=True)


class TestFingerprints:
    def test_name_is_excluded(self):
        spec = ExperimentSpec(kind="table1")
        renamed = spec.with_updates(name="other")
        assert spec.fingerprint() == renamed.fingerprint()

    def test_content_changes_fingerprint(self):
        spec = ExperimentSpec(kind="sweep", grid=(0.1, 0.2))
        assert spec.fingerprint() != spec.with_updates(grid=(0.1, 0.3)).fingerprint()
        assert spec.fingerprint() != spec.with_updates(workload="lenet").fingerprint()
        assert spec.fingerprint() != spec.with_updates(workers=2).fingerprint()

    def test_stable_across_processes(self):
        """The fingerprint must be a pure content hash, not id/hash-seeded."""
        spec = ExperimentSpec(
            kind="sweep",
            method="group_deletion",
            workload="mlp",
            scale="tiny",
            scale_overrides={"train_samples": 99},
            grid=(0.01, 0.05),
        )
        code = (
            "import json, sys\n"
            "from repro.experiments import ExperimentSpec, point_fingerprint\n"
            "spec = ExperimentSpec.from_dict(json.loads(sys.argv[1]))\n"
            "print(spec.fingerprint())\n"
            "print(point_fingerprint(spec, 1, 0.05))\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = str(_SRC) + os.pathsep + env.get("PYTHONPATH", "")
        env["PYTHONHASHSEED"] = "12345"  # prove hash randomization is irrelevant
        result = subprocess.run(
            [sys.executable, "-c", code, json.dumps(spec.to_dict())],
            capture_output=True,
            text=True,
            check=True,
            env=env,
        )
        child_spec_fp, child_point_fp = result.stdout.split()
        assert child_spec_fp == spec.fingerprint()
        assert child_point_fp == point_fingerprint(spec, 1, 0.05)

    def test_point_fingerprint_ignores_execution_policy(self):
        """workers/mode are bit-identical — points must be shareable."""
        base = ExperimentSpec(kind="sweep", method="group_deletion", grid=(0.01, 0.08))
        for overrides in (dict(workers=4), dict(mode="lockstep")):
            other = base.with_updates(**overrides)
            assert point_fingerprint(base, 0, 0.01) == point_fingerprint(other, 0, 0.01)
        # ...but result-affecting engine fields do participate.
        seeded = base.with_updates(per_point_seed=True)
        assert point_fingerprint(base, 0, 0.01) != point_fingerprint(seeded, 0, 0.01)

    def test_point_fingerprint_ignores_grid_context(self):
        """A value shared by two grids must map to one point artifact."""
        narrow = ExperimentSpec(kind="sweep", grid=(0.1, 0.2))
        wide = ExperimentSpec(kind="sweep", grid=(0.1, 0.2, 0.4))
        assert point_fingerprint(narrow, 1, 0.2) == point_fingerprint(wide, 1, 0.2)
        assert point_fingerprint(narrow, 0, 0.1) != point_fingerprint(narrow, 1, 0.2)

    def test_point_index_only_matters_with_per_point_seed(self):
        spec = ExperimentSpec(kind="sweep", grid=(0.1, 0.2))
        assert point_fingerprint(spec, 0, 0.2) == point_fingerprint(spec, 1, 0.2)
        seeded = spec.with_updates(per_point_seed=True)
        assert point_fingerprint(seeded, 0, 0.2) != point_fingerprint(seeded, 1, 0.2)

    def test_lambda_sweep_points_ignore_irrelevant_knobs(self):
        spec = ExperimentSpec(kind="sweep", method="group_deletion", grid=(0.05,))
        assert point_fingerprint(spec, 0, 0.05) == point_fingerprint(
            spec.with_updates(strength=0.9), 0, 0.05
        )
        # The shared clipping phase's ε and low-rank backend do matter.
        assert point_fingerprint(spec, 0, 0.05) != point_fingerprint(
            spec.with_updates(tolerance=0.1), 0, 0.05
        )
        assert point_fingerprint(spec, 0, 0.05) != point_fingerprint(
            spec.with_updates(lowrank_method="svd"), 0, 0.05
        )

    def test_epsilon_sweep_points_ignore_tolerance_field(self):
        """Each ε comes from the grid; the spec's tolerance field is unread."""
        spec = ExperimentSpec(kind="sweep", method="rank_clipping", grid=(0.05,))
        assert point_fingerprint(spec, 0, 0.05) == point_fingerprint(
            spec.with_updates(tolerance=0.5), 0, 0.05
        )
        # The clipping backend does matter for ε points.
        assert point_fingerprint(spec, 0, 0.05) != point_fingerprint(
            spec.with_updates(lowrank_method="svd"), 0, 0.05
        )

    def test_baseline_fingerprint_scope(self):
        spec = ExperimentSpec(kind="sweep", grid=(0.1,))
        assert baseline_fingerprint(spec) == baseline_fingerprint(
            spec.with_updates(grid=(0.4,), tolerance=0.2, workers=3)
        )
        assert baseline_fingerprint(spec) != baseline_fingerprint(
            spec.with_updates(seed=9)
        )
        assert baseline_fingerprint(spec) != baseline_fingerprint(
            spec.with_updates(workload="lenet")
        )

    @pytest.mark.parametrize(
        "name, scale", sorted(GOLDEN_FINGERPRINTS), ids=lambda value: value
    )
    def test_preset_fingerprints_are_pinned(self, name, scale):
        spec = REGISTRY.get(name, scale=scale)
        value = spec.grid[0] if spec.grid else None
        assert (
            spec.fingerprint(),
            build_plan(spec).fingerprint,
            baseline_fingerprint(spec),
            point_fingerprint(spec, 0, value),
        ) == GOLDEN_FINGERPRINTS[(name, scale)]

    def test_golden_table_covers_every_preset(self):
        assert {name for name, _ in GOLDEN_FINGERPRINTS} == set(REGISTRY.names())
        assert len(GOLDEN_FINGERPRINTS) == 3 * len(REGISTRY)


class TestWorkloadAdapters:
    def test_spec_for_workload_preset_scale(self):
        workload = mlp_workload("tiny")
        spec = spec_for_workload("table1", workload)
        assert spec.workload == "mlp-blobs"
        assert spec.scale == "tiny"
        assert spec.scale_overrides == ()
        assert spec.resolved_scale() == TINY

    def test_spec_for_workload_overridden_scale(self):
        scale = TINY.with_overrides(train_samples=99, seed=5)
        workload = mlp_workload(scale)
        spec = spec_for_workload("baseline", workload)
        assert dict(spec.scale_overrides) == {"train_samples": 99, "seed": 5}
        assert spec.resolved_scale() == scale

    def test_resolved_workload_matches(self):
        spec = ExperimentSpec(kind="baseline", workload="mlp", scale="tiny")
        workload = spec.resolved_workload()
        assert workload.name == "mlp-blobs"
        assert workload.scale == TINY

    def test_with_updates_routes_engine_fields(self):
        spec = ExperimentSpec(kind="table1")
        updated = spec.with_updates(workers=2, tolerance=0.1)
        assert updated.engine.workers == 2
        assert updated.tolerance == 0.1
        with pytest.raises(ExperimentError) as excinfo:
            spec.with_updates(nonsense=1)
        assert "nonsense" in str(excinfo.value)


class TestBuildPlan:
    def test_sweep_plan(self):
        spec = ExperimentSpec(
            kind="sweep", method="group_deletion", grid=(0.01, 0.08), name="plan-test"
        )
        plan = build_plan(spec)
        assert [point.value for point in plan.points] == [0.01, 0.08]
        assert [point.label for point in plan.points] == ["lambda=0.01", "lambda=0.08"]
        assert plan.execution == "serial"
        assert len({point.fingerprint for point in plan.points}) == 2
        assert build_plan(spec.with_updates(workers=2)).execution == "parallel"
        assert build_plan(spec.with_updates(mode="lockstep")).execution == "lockstep"
        assert "plan-test" in plan.describe()

    def test_single_kind_plan(self):
        plan = build_plan(ExperimentSpec(kind="table1"))
        assert len(plan.points) == 1
        assert plan.points[0].value is None
        assert plan.execution == "serial"

    def test_epsilon_sweep_keeps_points_path(self):
        spec = ExperimentSpec(kind="sweep", method="rank_clipping", grid=(0.1,), engine=SweepEngine(mode="lockstep"))
        assert build_plan(spec).execution == "serial"


class TestPrebuiltBaseline:
    """A baseline passed through the context changes nothing in the result."""

    @pytest.mark.parametrize("kind, method, fields", EXECUTION_CASES)
    def test_matches_self_trained_baseline(
        self, kind, method, fields, fast_workload, fast_baseline
    ):
        network, accuracy, setup = fast_baseline
        spec = spec_for_workload(kind, fast_workload, method=method, **fields)
        context = ExperimentContext(fast_workload, setup, network, accuracy)
        prebuilt = execute_spec(spec, context=context)
        self_trained = execute_spec(spec)  # trains its own (deterministic) baseline
        assert prebuilt.result.to_payload() == self_trained.result.to_payload()


class TestEngineModesUnderPlanner:
    """Serial / parallel / lockstep stay bit-identical through the spec path."""

    def test_lambda_sweep_policies_bit_identical(self, fast_workload, fast_baseline):
        network, accuracy, setup = fast_baseline
        spec = spec_for_workload(
            "sweep",
            fast_workload,
            method="group_deletion",
            grid=(0.01, 0.08),
            include_small_matrices=True,
        )
        context = ExperimentContext(
            workload=fast_workload, setup=setup, baseline_network=network
        )
        serial = execute_spec(spec, context=context)
        parallel = execute_spec(spec.with_updates(workers=2), context=context)
        lockstep = execute_spec(spec.with_updates(mode="lockstep"), context=context)
        assert serial.result.points == parallel.result.points
        assert serial.result.points == lockstep.result.points
        assert (
            serial.result.baseline_accuracy
            == parallel.result.baseline_accuracy
            == lockstep.result.baseline_accuracy
        )

    def test_epsilon_sweep_workers_bit_identical(self, fast_workload, fast_baseline):
        network, accuracy, setup = fast_baseline
        spec = spec_for_workload(
            "sweep",
            fast_workload,
            method="rank_clipping",
            grid=(0.05, 0.3),
            engine=SweepEngine(per_point_seed=True),
        )
        context = ExperimentContext(
            workload=fast_workload,
            setup=setup,
            baseline_network=network,
            baseline_accuracy=accuracy,
        )
        serial = execute_spec(spec, context=context)
        parallel = execute_spec(spec.with_updates(workers=2), context=context)
        assert serial.result.points == parallel.result.points
