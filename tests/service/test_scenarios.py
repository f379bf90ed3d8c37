"""Scenario registry: validation and cache-key parity with the engine."""

import dataclasses

import pytest

from repro.engine import ExperimentEngine, SweepSpec, content_key, sweeps
from repro.errors import AllocationError, ConfigurationError, InvalidJobRequest
from repro.service import SCENARIOS, job_content_key, resolve_scenario

SNOWBALL = "ST-Ericsson A9500 (Snowball)"


class TestResolution:
    def test_unknown_scenario_lists_what_exists(self):
        with pytest.raises(InvalidJobRequest, match="squares"):
            resolve_scenario("nope")

    def test_non_string_names_are_rejected_not_crashed(self):
        with pytest.raises(InvalidJobRequest):
            resolve_scenario({"name": "squares"})

    def test_every_scenario_has_a_class_and_a_picklable_worker(self):
        import pickle

        for scenario in SCENARIOS.values():
            assert scenario.scenario_class
            pickle.dumps(scenario.worker)  # forked attempts require it


class TestValidation:
    def test_squares_builds_key_and_point(self):
        key, point = resolve_scenario("squares").build({"x": 7})
        assert key == {"experiment": "service-squares"}
        assert point == {"x": 7}

    def test_unknown_parameter_is_rejected(self):
        with pytest.raises(InvalidJobRequest, match="does not accept"):
            resolve_scenario("squares").build({"x": 1, "cores": 4})

    def test_missing_required_parameter_is_rejected(self):
        with pytest.raises(InvalidJobRequest, match="requires parameter 'x'"):
            resolve_scenario("squares").build({})

    def test_bool_is_not_an_int(self):
        with pytest.raises(InvalidJobRequest, match="must be int"):
            resolve_scenario("squares").build({"x": True})

    def test_wrong_type_reports_what_arrived(self):
        with pytest.raises(InvalidJobRequest, match="got str"):
            resolve_scenario("squares").build({"x": "9"})

    def test_cluster_defaults_match_the_batch_figures(self):
        _, point = resolve_scenario("cluster-elapsed").build(
            {"app": "linpack", "cores": 4}
        )
        assert point["num_nodes"] == 96
        assert point["seed"] == 7
        assert point["app_args"] == {}

    def test_negative_sleep_is_rejected(self):
        with pytest.raises(InvalidJobRequest, match=">= 0"):
            resolve_scenario("sleepy").build({"duration_s": -1.0})

    def test_magicfilter_shape_must_be_three_ints(self):
        with pytest.raises(InvalidJobRequest, match="nx, ny, nz"):
            resolve_scenario("magicfilter").build(
                {"machine": SNOWBALL, "shape": [32, 32], "unroll": 2}
            )

    @pytest.mark.parametrize("name, params", [
        ("cluster-elapsed", {"app": "hpl", "cores": 4}),
        ("cluster-energy", {"app": "hpl", "cores": 4}),
        ("magicfilter", {"machine": "snowball", "unroll": 2}),
        ("page-alloc", {"machine": "nope"}),
        ("trace-analysis", {"app": "linpack"}),
    ])
    def test_unknown_machine_and_app_names_are_rejected(self, name, params):
        with pytest.raises(InvalidJobRequest, match="must be one of"):
            resolve_scenario(name).build(params)

    def test_param_order_does_not_change_the_key(self):
        scenario = resolve_scenario("cluster-elapsed")
        a = job_content_key(scenario, {"app": "linpack", "cores": 4})
        b = job_content_key(scenario, {"cores": 4, "app": "linpack"})
        assert a[2] == b[2]


class TestRangeChecks:
    """A submission is refused exactly when its worker would raise, so a
    range error is a 400 at submission and never a failed job."""

    @pytest.mark.parametrize("name, params, worker_error", [
        ("magicfilter", {"machine": SNOWBALL, "unroll": 2, "shape": [1, 1, 1]}, None),
        ("magicfilter", {"machine": SNOWBALL, "unroll": 2, "shape": [0, 0, 0]}, ConfigurationError),
        ("magicfilter", {"machine": SNOWBALL, "unroll": 2, "shape": [8, -1, 8]}, ConfigurationError),
        ("cluster-elapsed", {"app": "linpack", "cores": 4, "num_nodes": 2}, None),
        ("cluster-elapsed", {"app": "linpack", "cores": 5, "num_nodes": 2}, ConfigurationError),
        ("cluster-elapsed", {"app": "linpack", "cores": 0}, ConfigurationError),
        ("cluster-energy", {"app": "linpack", "cores": 1, "num_nodes": 1}, None),
        ("cluster-energy", {"app": "linpack", "cores": 0}, ConfigurationError),
        ("cluster-energy", {"app": "linpack", "cores": 1, "num_nodes": 0}, ConfigurationError),
        # The app_args each app takes in x4.
        ("cluster-elapsed", {"app": "specfem3d", "app_args": {"timesteps": 10}, "cores": 4, "num_nodes": 2}, None),
        ("cluster-energy", {"app": "bigdft", "app_args": {"scf_iterations": 4}, "cores": 4, "num_nodes": 2}, None),
        ("cluster-elapsed", {"app": "linpack", "app_args": {"bogus": 1}, "cores": 4, "num_nodes": 4}, TypeError),
        ("cluster-energy", {"app": "bigdft", "app_args": {"timesteps": 10}, "cores": 4, "num_nodes": 4}, TypeError),
        ("page-alloc", {"machine": SNOWBALL, "fragmentation": 1, "array_bytes": 1 << 16}, None),
        ("page-alloc", {"machine": SNOWBALL, "fragmentation": 1.5, "array_bytes": 1 << 16}, ConfigurationError),
        ("page-alloc", {"machine": SNOWBALL, "fragmentation": -0.25, "array_bytes": 1 << 16}, ConfigurationError),
        ("page-alloc", {"machine": SNOWBALL, "array_bytes": 4}, None),
        ("page-alloc", {"machine": SNOWBALL, "array_bytes": 3}, ConfigurationError),
        ("page-alloc", {"machine": SNOWBALL, "array_bytes": 0}, ConfigurationError),
        ("page-alloc", {"machine": SNOWBALL, "array_bytes": 1 << 30}, AllocationError),
    ], ids=[
        "unit-shape", "zero-shape", "negative-shape",
        "full-cluster", "cores-past-capacity", "elapsed-no-cores",
        "one-core", "energy-no-cores", "no-nodes",
        "specfem-timesteps", "bigdft-scf-iterations",
        "unknown-app-arg", "another-apps-arg",
        "full-fragmentation", "fragmentation-high", "fragmentation-low",
        "one-element-array", "sub-element-array", "empty-array",
        "array-past-memory",
    ])
    def test_rejected_exactly_when_the_worker_would_fail(
        self, name, params, worker_error
    ):
        scenario = resolve_scenario(name)
        _, unchecked = dataclasses.replace(scenario, check=None).build(params)
        if worker_error is None:
            scenario.build(params)
            scenario.worker(unchecked)
        else:
            with pytest.raises(InvalidJobRequest, match="must be"):
                scenario.build(params)
            with pytest.raises(worker_error):
                scenario.worker(unchecked)

    def test_integral_fragmentation_keys_like_the_float(self):
        scenario = resolve_scenario("page-alloc")
        a = job_content_key(scenario, {"machine": SNOWBALL, "fragmentation": 1})
        b = job_content_key(
            scenario, {"machine": SNOWBALL, "fragmentation": 1.0}
        )
        assert a[1]["fragmentation"] == 1.0
        assert a[2] == b[2]


class TestEngineKeyParity:
    """The tentpole's interop contract: a service submission and the
    equivalent batch sweep point address the *same* cache entry."""

    def parity(self, name, params, sweep_key):
        scenario = resolve_scenario(name)
        material, point, digest = job_content_key(scenario, params)
        spec = SweepSpec("parity", lambda p: None, [point], key=sweep_key)
        engine_material = ExperimentEngine.point_key(spec, point)
        assert material == engine_material
        assert digest == content_key(engine_material)

    def test_chaos_squares(self, tmp_path):
        self.parity(
            "chaos-squares",
            {"x": 3, "state_dir": str(tmp_path), "faults": {}},
            {"experiment": "chaos-squares"},
        )

    def test_cluster_elapsed(self):
        # The exact key shape run_replicated_times builds for figure 3.
        self.parity(
            "cluster-elapsed",
            {"app": "linpack", "cores": 8},
            {
                "experiment": "cluster-elapsed",
                "app": "linpack",
                "app_args": {},
                "num_nodes": 96,
            },
        )

    def test_cluster_energy(self):
        self.parity(
            "cluster-energy",
            {"app": "bigdft", "cores": 8, "app_args": {"scf_iterations": 4}},
            {
                "experiment": "cluster-energy",
                "app": "bigdft",
                "app_args": {"scf_iterations": 4},
                "num_nodes": 96,
            },
        )

    def test_magicfilter(self):
        self.parity(
            "magicfilter",
            {"machine": "Intel Xeon X5550", "unroll": 6},
            {
                "experiment": "magicfilter",
                "machine": "Intel Xeon X5550",
                "shape": [32, 32, 32],
            },
        )

    def test_page_alloc(self):
        self.parity(
            "page-alloc",
            {"machine": SNOWBALL, "fragmentation": 0.25},
            {
                "experiment": "page-alloc",
                "machine": SNOWBALL,
                "array_bytes": 8 << 20,
            },
        )


def _builder_cases(state_dir):
    """Record name -> (batch builder run on one point, the equivalent
    service submission)."""
    return {
        "cluster-elapsed": (
            lambda engine: sweeps.run_replicated_times(
                engine, "linpack", counts=[2], num_nodes=2, seeds=[7]
            ),
            {"app": "linpack", "cores": 2, "num_nodes": 2},
        ),
        "cluster-energy": (
            lambda engine: sweeps.run_replicated_energy(
                engine, "linpack", counts=[2], num_nodes=2, seeds=[7]
            ),
            {"app": "linpack", "cores": 2, "num_nodes": 2},
        ),
        "magicfilter": (
            lambda engine: sweeps.run_magicfilter_sweep(
                engine, "Intel Xeon X5550", unrolls=[4], shape=(8, 8, 8)
            ),
            {"machine": "Intel Xeon X5550", "shape": [8, 8, 8], "unroll": 4},
        ),
        "page-alloc": (
            lambda engine: sweeps.run_page_alloc_sweep(
                engine, machine=SNOWBALL, fragmentations=[0.25], seeds=[3],
                array_bytes=16 << 10,
            ),
            {
                "machine": SNOWBALL, "fragmentation": 0.25, "seed": 3,
                "array_bytes": 16 << 10,
            },
        ),
        "chaos-squares": (
            lambda engine: sweeps.run_chaos_sweep(
                engine, xs=[3], state_dir=state_dir
            ),
            {"x": 3, "state_dir": state_dir},
        ),
    }


class TestBuilderKeyParity:
    """The batch builder and the service derive each shared record's
    key the same way: the point a builder computes is the cache entry
    the equivalent submission addresses."""

    @pytest.mark.parametrize("name", [
        "cluster-elapsed", "cluster-energy", "magicfilter", "page-alloc",
        "chaos-squares",
    ])
    def test_builder_point_key_is_the_submission_key(self, name, tmp_path):
        build, params = _builder_cases(str(tmp_path))[name]
        engine = ExperimentEngine(cache=None)
        build(engine)
        (record,) = engine.manifests[-1].points
        assert record.key == job_content_key(resolve_scenario(name), params)[2]
