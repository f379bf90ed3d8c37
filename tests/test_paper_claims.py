"""Replay every quantitative claim of the paper (the scorecard)."""

import pytest

from repro.cli import main
from repro.engine import ExperimentEngine, sweeps
from repro.errors import ConfigurationError
from repro.paper import ALL_CLAIMS, audit, claim_by_id, paper_values


@pytest.fixture(scope="module")
def values():
    """The claims' values at the default seed, computed once."""
    return paper_values(ExperimentEngine(), 7)


class TestRegistry:
    def test_claims_cover_every_section(self):
        sections = {claim.section for claim in ALL_CLAIMS}
        assert {"I", "III-C", "IV", "V-A-2", "V-A-3", "V-B", "VI-A"} <= sections

    def test_claim_ids_unique(self):
        ids = [claim.claim_id for claim in ALL_CLAIMS]
        assert len(set(ids)) == len(ids)

    def test_lookup(self):
        claim = claim_by_id("table2.linpack.ratio")
        assert claim.expected == 38.7
        with pytest.raises(ConfigurationError):
            claim_by_id("nope")

    def test_every_claim_quotes_the_paper(self):
        for claim in ALL_CLAIMS:
            assert len(claim.statement) > 10, claim.claim_id


@pytest.mark.parametrize("claim", ALL_CLAIMS, ids=lambda c: c.claim_id)
def test_claim_reproduces(claim, values):
    result = claim.check(values)
    assert result.passed, result.describe()


def test_audit_runs_everything(values):
    results = audit(values)
    assert len(results) == len(ALL_CLAIMS)
    assert all(r.passed for r in results), "\n".join(
        r.describe() for r in results if not r.passed
    )


# ---------------------------------------------------------------------------
# `repro claims` reads the artefacts' own engine records.
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def claims_cache(tmp_path_factory):
    """One cache shared by the CLI runs below (they only read it faster)."""
    return str(tmp_path_factory.mktemp("claims-cache"))


def _claims(cache, *flags):
    """Run ``repro claims`` and return its exit code."""
    return main(["claims", "--cache-dir", cache, *flags])


def test_claims_run_the_artefact_records_and_reuse_the_cache(
    claims_cache, capsys, monkeypatch
):
    seen = []
    run = ExperimentEngine.run

    def spy(engine, spec):
        result = run(engine, spec)
        seen.append((spec, result.manifest))
        return result

    monkeypatch.setattr(ExperimentEngine, "run", spy)
    assert _claims(claims_cache) == 0
    cold = capsys.readouterr().out
    assert {spec.key["experiment"] for spec, _ in seen} == {
        sweeps.CLUSTER_ELAPSED.name, sweeps.FIG4.name, sweeps.FIG5.name,
        sweeps.VARIANT_GRID.name, sweeps.MAGICFILTER.name,
    }
    for spec, _ in seen:
        worker = spec.worker
        assert worker.__module__ == "repro.engine.sweeps", spec.name
        assert worker.__name__.endswith("_point"), spec.name
    sweep_names = [spec.name for spec, _ in seen]

    seen.clear()
    assert _claims(claims_cache) == 0
    assert capsys.readouterr().out == cold
    assert [spec.name for spec, _ in seen] == sweep_names
    assert all(manifest.misses == 0 for _, manifest in seen)


def test_a_cold_run_simulates_only_the_commodity_figure_4_job(capsys):
    assert main(["claims", "--no-cache"]) == 0
    assert "[engine] fig4: 1 points | hits 0 | misses 1" in capsys.readouterr().err


def test_an_unmeasurable_claim_fails_with_its_reason(claims_cache, capsys):
    # Seed 1 draws no degraded 16 KB sample: the Figure 5 factor has
    # no degraded mode to divide by.
    assert _claims(claims_cache, "--seed", "1") == 1
    captured = capsys.readouterr()
    rows = [line for line in captured.out.splitlines() if line.startswith("[")]
    assert sum(row.startswith("[PASS]") for row in rows) == 25
    failed = [row.split()[1] for row in rows if row.startswith("[FAIL]")]
    assert failed == ["fig5.bimodal", "fig5.degraded-factor", "fig5.consecutive"]
    assert "fig5.degraded-factor (§V-A-2): expected 4.7 (±25%), not measurable:" \
        in captured.out


def test_claims_count_passes_over_seeds(claims_cache, capsys):
    # Seeds 7 and 8; seed 8 draws no degraded sample.
    assert _claims(claims_cache, "--seeds", "2") == 1
    out = capsys.readouterr().out
    ids = {claim.claim_id for claim in ALL_CLAIMS}
    rows = {
        fields[0]: fields[2:]
        for fields in map(str.split, out.splitlines())
        if fields and fields[0] in ids
    }
    assert len(rows) == len(ALL_CLAIMS)
    assert rows["fig5.bimodal"] == ["1/2", "8"]
    assert rows["table2.linpack.ratio"] == ["2/2", "-"]
    assert "25/28 paper claims reproduced at every seed" in out
