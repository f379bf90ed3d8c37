"""Every engine computation is one ``Experiment`` record.

Each sweep the bundle runs names a module-level ``*_point`` worker of
:mod:`repro.engine.sweeps`, so a wrapper installed on that attribute is
what runs and every computation is a point a planner can list, and its
key carries the record's ``experiment`` name.  The records that took
over hand-built sweep keys keep those keys, so a cache an older
checkout filled still hits; FIG4's keys changed once, with its name,
when its payload gained each delayed instance's ``ranks_delayed``.
"""

import json
from pathlib import Path

from repro.cli import PINNED_ARTEFACTS, main
from repro.engine import ExperimentEngine, sweeps
from repro.service.scenarios import SCENARIOS, job_content_key

GOLDEN_REPORT = Path(__file__).resolve().parents[1] / "golden" / (
    "fig4_trace_report.json"
)


def test_every_bundle_sweep_is_a_record_point(tmp_path, capsys, monkeypatch):
    seen = []
    run = ExperimentEngine.run

    def spy(engine, spec):
        seen.append(spec)
        return run(engine, spec)

    monkeypatch.setattr(ExperimentEngine, "run", spy)
    assert main([
        "reproduce-all", "--quick", "--out", str(tmp_path / "bundle"),
    ]) == 0
    capsys.readouterr()
    # table2 is the one pinned artefact that runs no sweep.
    assert {spec.name.split("/")[0] for spec in seen} == (
        set(PINNED_ARTEFACTS) - {"table2"}
    )
    for spec in seen:
        worker = spec.worker
        assert worker.__module__ == "repro.engine.sweeps", spec.name
        assert worker.__name__.endswith("_point"), spec.name
        assert getattr(sweeps, worker.__name__) is worker, spec.name
        assert "experiment" in spec.key, spec.name


def test_fig4_keeps_its_keys(monkeypatch):
    monkeypatch.setattr(sweeps, "fig4_point", lambda params: {})
    engine = ExperimentEngine()
    sweeps.run_fig4(engine, seed=7)
    assert [point.key for point in engine.manifests[-1].points] == [
        # commodity switches
        "11dbc36fdd751c5f845d51cb2d0d76cd4ab172e35560f5db3615c7a2e6fbf3cb",
        # upgraded switches
        "cf9bca12b51e5edf597943511a18e930bd1d0e5bf591d5727479c375c59e1657",
    ]


def test_fig4_trace_report_and_trace_analysis_read_one_run():
    """``repro fig4``'s commodity job, ``trace-report`` and the
    service's ``trace-analysis`` default are one simulated run."""
    commodity = dict(sweeps.run_fig4(ExperimentEngine(), seed=7))[False]
    golden = json.loads(GOLDEN_REPORT.read_text(encoding="utf-8"))
    scenario = SCENARIOS["trace-analysis"]
    _, point, key = job_content_key(
        scenario, {"app": "bigdft", "num_ranks": 36, "seed": 7}
    )
    assert point == job_content_key(scenario, {})[1]
    analysis = scenario.worker(point)
    assert commodity["elapsed_s"] == golden["runtime_s"] == (
        analysis["runtime_s"]
    ) == 42.566414921441186
    # A cache or journal an older checkout wrote still hits.
    assert key == (
        "e95adee29015e698eb191bbe799da8bae0621212e219ebe1ca0cb6e9e8593763"
    )
    assert job_content_key(
        scenario, {"app": "specfem3d", "num_ranks": 4, "seed": 7}
    )[2] == "93bdacbca9be2fa1ab876b34cca106a4a1eb43a80d65dd35b79b001bc84881bd"
