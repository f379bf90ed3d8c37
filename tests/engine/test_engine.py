"""ExperimentEngine: fan-out, determinism, memoization, manifests."""

from pathlib import Path

import pytest

from repro.engine import (
    ExperimentEngine,
    ResultCache,
    SweepSpec,
    load_manifests,
)
from repro.engine.sweeps import Experiment
from repro.errors import EngineError


def _square(params):
    """Picklable worker for process-pool runs."""
    return {"y": params["x"] ** 2}


def _square_and_mark(params):
    """Worker that leaves one marker file per actual execution."""
    mark_dir = Path(params["mark_dir"])
    mark_dir.mkdir(parents=True, exist_ok=True)
    (mark_dir / f"{params['x']}.ran").touch()
    return {"y": params["x"] ** 2}


def _spec(n=6):
    return SweepSpec(
        "squares", _square, [{"x": x} for x in range(n)],
        key={"experiment": "squares"},
    )


class TestSpec:
    def test_rejects_empty_points(self):
        with pytest.raises(EngineError, match="no points"):
            SweepSpec("empty", _square, [])

    def test_rejects_empty_name(self):
        with pytest.raises(EngineError, match="non-empty name"):
            SweepSpec("", _square, [{"x": 1}])

    def test_jobs_must_be_positive(self):
        with pytest.raises(EngineError, match="jobs"):
            ExperimentEngine(jobs=0)


class TestDeterminism:
    def test_parallel_matches_serial_exactly(self, tmp_path):
        serial = ExperimentEngine(cache=ResultCache(tmp_path / "a"), jobs=1)
        parallel = ExperimentEngine(cache=ResultCache(tmp_path / "b"), jobs=4)
        run_s = serial.run(_spec())
        run_p = parallel.run(_spec())
        assert run_s.values == run_p.values
        assert run_p.manifest.executor == "process"
        # the deterministic manifest serialization is byte-identical
        assert run_s.manifest.to_json(deterministic=True) == \
            run_p.manifest.to_json(deterministic=True)

    def test_results_align_with_points_in_submission_order(self, tmp_path):
        engine = ExperimentEngine(jobs=4)
        run = engine.run(_spec(n=12))
        assert [v["y"] for v in run.values] == [x ** 2 for x in range(12)]
        assert [p["x"] for p, _ in run] == list(range(12))

    def test_closure_worker_runs_forked(self):
        offset = 10
        spec = SweepSpec(
            "closure", lambda p: {"y": p["x"] + offset},
            [{"x": x} for x in range(4)],
        )
        run = ExperimentEngine(jobs=4).run(spec)
        assert run.manifest.executor == "process"
        assert [v["y"] for v in run.values] == [10, 11, 12, 13]


class TestMemoization:
    def test_warm_rerun_recomputes_nothing(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        marks = tmp_path / "marks"
        spec = SweepSpec(
            "marked", _square_and_mark,
            [{"x": x, "mark_dir": str(marks)} for x in range(5)],
            key={"experiment": "marked"},
        )
        cold = ExperimentEngine(cache=cache, jobs=1)
        run_cold = cold.run(spec)
        assert (run_cold.manifest.hits, run_cold.manifest.misses) == (0, 5)
        assert len(list(marks.glob("*.ran"))) == 5

        for mark in marks.glob("*.ran"):
            mark.unlink()
        warm = ExperimentEngine(cache=cache, jobs=4)
        run_warm = warm.run(spec)
        assert (run_warm.manifest.hits, run_warm.manifest.misses) == (5, 0)
        assert list(marks.glob("*.ran")) == []       # zero recompute
        assert run_warm.values == run_cold.values
        assert run_warm.manifest.executor == "serial"  # nothing pending

    def test_extending_a_sweep_computes_only_new_points(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        ExperimentEngine(cache=cache).run(_spec(n=4))
        run = ExperimentEngine(cache=cache).run(_spec(n=6))
        assert (run.manifest.hits, run.manifest.misses) == (4, 2)

    def test_sweep_name_does_not_affect_cache_identity(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        first = SweepSpec("one-label", _square, [{"x": 2}], key={"k": 1})
        second = SweepSpec("another-label", _square, [{"x": 2}], key={"k": 1})
        ExperimentEngine(cache=cache).run(first)
        run = ExperimentEngine(cache=cache).run(second)
        assert run.manifest.hits == 1

    def test_key_change_invalidates(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        ExperimentEngine(cache=cache).run(
            SweepSpec("s", _square, [{"x": 2}], key={"seed": 1})
        )
        run = ExperimentEngine(cache=cache).run(
            SweepSpec("s", _square, [{"x": 2}], key={"seed": 2})
        )
        assert run.manifest.misses == 1

    def test_one_point_record_memoizes_whole_computations(self, tmp_path):
        """An order-dependent protocol is one point: cached as a unit,
        and run in-process even with a pool (the closure's counter
        would not move in a forked child)."""
        cache = ResultCache(tmp_path / "cache")
        calls = {"n": 0}

        def curve(params):
            calls["n"] += 1
            return {"curve": [1, 2, 3]}

        record = Experiment("curve", {})
        engine = ExperimentEngine(cache=cache, jobs=8)
        for _ in range(2):
            run = record.run(engine, curve, [{"seed": 2}], label="curve")
            assert run.values == ({"curve": [1, 2, 3]},)
            assert run.manifest.executor == "serial"
        assert calls["n"] == 1
        assert (engine.total_hits, engine.total_misses) == (1, 1)


class TestManifests:
    def test_summary_reports_counts(self):
        engine = ExperimentEngine()
        run = engine.run(_spec(n=3))
        assert run.manifest.summary() == \
            "[engine] squares: 3 points | hits 0 | misses 3 | jobs 1"

    def test_manifest_saved_and_loadable(self, tmp_path):
        engine = ExperimentEngine(manifest_dir=tmp_path / "manifests")
        engine.run(_spec(n=3))
        saved = load_manifests(tmp_path / "manifests")
        assert len(saved) == 1
        assert saved[0]["sweep"] == "squares"
        assert saved[0]["misses"] == 3
        assert len(saved[0]["points"]) == 3

    def test_rerun_overwrites_instead_of_accumulating(self, tmp_path):
        engine = ExperimentEngine(manifest_dir=tmp_path / "manifests")
        engine.run(_spec(n=3))
        engine.run(_spec(n=3))
        assert len(load_manifests(tmp_path / "manifests")) == 1

    def test_echo_prints_summary_line(self):
        lines = []
        engine = ExperimentEngine(echo=lines.append)
        engine.run(_spec(n=2))
        assert lines == [
            "[engine] squares: 2 points | hits 0 | misses 2 | jobs 1"
        ]

    def test_wall_times_recorded_for_computed_points(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        engine = ExperimentEngine(cache=cache)
        run = engine.run(_spec(n=2))
        assert all(p.wall_seconds >= 0.0 for p in run.manifest.points)
        warm = ExperimentEngine(cache=cache).run(_spec(n=2))
        assert all(p.wall_seconds == 0.0 for p in warm.manifest.points)
        assert warm.manifest.busy_seconds == 0.0
