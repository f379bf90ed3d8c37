"""The paper's quantitative claims, as executable checks.

Each :class:`Claim` carries the paper section, the (para)quoted
statement, an expected value with tolerance, and a measurement that
reads its value from :func:`paper_values`: one dict, built at one seed
by the functions the artefacts' own commands call (Table II's rows,
the Figure 3–7 engine sweeps), so a claim checks what ``repro fig3``
… ``fig7`` print and reuses every point the engine cache holds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Mapping

from repro.arch import EXYNOS5_DUAL, SNOWBALL_A9500, TEGRA2_NODE, XEON_X5550
from repro.arch.isa import Precision
from repro.core.stats import is_bimodal
from repro.energy import table2_rows
from repro.engine import sweeps
from repro.engine.engine import ExperimentEngine
from repro.errors import ConfigurationError, UnmeasurableClaim
from repro.kernels.magicfilter import sweet_spot
from repro.top500 import project_exaflop, required_efficiency_factor

_XEON, _SNOWBALL, _TEGRA2 = XEON_X5550.name, SNOWBALL_A9500.name, TEGRA2_NODE.name


def paper_values(engine: ExperimentEngine, seed: int) -> dict[str, Any]:
    """Every value the claims read, at *seed*.

    Keys: ``table2`` (name -> row), ``fig3`` (app -> parallel
    efficiency at the curve's largest core count), ``fig4`` (the
    commodity-switch job), ``fig5`` (the measurement set), ``fig6``
    (machine -> bandwidth grid) and ``fig7`` (machine -> unroll ->
    cycles).  Each comes from the engine points its artefact runs, at
    full scale.
    """
    fig3 = {}
    for _, app, _, full_counts, baseline in sweeps.FIG3_CURVES:
        cores = full_counts[-1]
        fig3[app] = sweeps.run_replicated_speedups(
            engine, app, counts=[baseline, cores],
            num_nodes=sweeps.FIG3_NUM_NODES, seeds=[seed],
            baseline_cores=baseline, label=f"fig3/{app}",
        )[cores][0] / cores
    [(_, fig4)] = sweeps.run_fig4(engine, seed=seed, variants=(False,))
    return {
        "table2": table2_rows(),
        "fig3": fig3,
        "fig4": fig4,
        "fig5": sweeps.run_fig5(engine, seed=seed),
        "fig6": {
            machine: sweeps.run_fig6_grid(engine, machine, seed=seed)
            for machine in sweeps.FIG6_MACHINES
        },
        "fig7": {
            machine: {
                unroll: counters.cycles for unroll, counters in
                sweeps.run_magicfilter_sweep(engine, machine).items()
            }
            for machine in sweeps.FIG7_MACHINES
        },
    }


# ---------------------------------------------------------------------------
# Claim machinery.
# ---------------------------------------------------------------------------

Values = Mapping[str, Any]


@dataclass(frozen=True)
class Claim:
    """One quantitative statement of the paper."""

    claim_id: str
    section: str
    statement: str
    expected: float
    rel_tolerance: float
    #: The measured value; a predicate claim returns a bool (1 or 0).
    measure: Callable[[Values], float]

    def check(self, values: Values) -> "ClaimResult":
        """Measure from *values* and compare against the expectation;
        a value the run cannot give is a failure that says why."""
        try:
            measured = float(self.measure(values))
        except UnmeasurableClaim as error:
            return ClaimResult(self, None, False, reason=str(error))
        if self.expected == 0:
            passed = abs(measured) <= self.rel_tolerance
        else:
            passed = (
                abs(measured - self.expected)
                <= abs(self.expected) * self.rel_tolerance
            )
        return ClaimResult(claim=self, measured=measured, passed=passed)


@dataclass(frozen=True)
class ClaimResult:
    """Outcome of replaying one claim."""

    claim: Claim
    measured: float | None
    passed: bool
    reason: str | None = None

    def describe(self) -> str:
        """One-line audit row."""
        flag = "PASS" if self.passed else "FAIL"
        outcome = (
            f"measured {self.measured:g}" if self.reason is None
            else f"not measurable: {self.reason}"
        )
        return (
            f"[{flag}] {self.claim.claim_id} (§{self.claim.section}): "
            f"expected {self.claim.expected:g} "
            f"(±{self.claim.rel_tolerance:.0%}), {outcome}"
        )


def _table2_ratio(name: str) -> Callable[[Values], float]:
    return lambda values: values["table2"][name].ratio


def _table2_energy(name: str) -> Callable[[Values], float]:
    return lambda values: values["table2"][name].energy_ratio


def _fig5_at_16k(values: Values, **factors: Any) -> list[float]:
    return [
        s.value for s in values["fig5"].where(array_bytes=16 * 1024, **factors)
    ]


def _fig5_degraded_factor(values: Values) -> float:
    nominal = _fig5_at_16k(values, degraded=False)
    degraded = _fig5_at_16k(values, degraded=True)
    if not nominal or not degraded:
        raise UnmeasurableClaim(
            f"{len(degraded)} of the {len(nominal) + len(degraded)} "
            "16 KB samples are degraded; the factor needs both modes"
        )
    return (sum(nominal) / len(nominal)) / (sum(degraded) / len(degraded))


def _fig5_consecutive(values: Values) -> bool:
    seq = [s.sequence for s in values["fig5"] if s.factors["degraded"]]
    adjacent = sum(1 for a, b in zip(seq, seq[1:]) if b == a + 1)
    return adjacent / max(1, len(seq)) > 0.8


ALL_CLAIMS: tuple[Claim, ...] = (
    # --- §I motivation ---------------------------------------------------
    Claim(
        "intro.efficiency-factor", "I",
        "efficiency of supercomputers need to be increased by a factor of 25",
        25.0, 0.08,
        lambda values: required_efficiency_factor(),
    ),
    Claim(
        "intro.exaflop-year", "I",
        "break the exaflops barrier by the projected year of 2018",
        2018.0, 0.002,
        lambda values: project_exaflop("top").exaflop_year,
    ),
    # --- Table II ----------------------------------------------------------
    Claim("table2.linpack.ratio", "III-C",
          "LINPACK ratio 38.7", 38.7, 0.06, _table2_ratio("LINPACK")),
    Claim("table2.linpack.energy", "III-C",
          "running LINPACK costs the same energy", 1.0, 0.1,
          _table2_energy("LINPACK")),
    Claim("table2.coremark.ratio", "III-C",
          "CoreMark ratio 7.1", 7.1, 0.06, _table2_ratio("CoreMark")),
    Claim("table2.coremark.energy", "III-C",
          "CoreMark: energy 5 times lower", 0.2, 0.3,
          _table2_energy("CoreMark")),
    Claim("table2.stockfish.ratio", "III-C",
          "StockFish ratio 20.2", 20.2, 0.06, _table2_ratio("StockFish")),
    Claim("table2.stockfish.energy", "III-C",
          "StockFish: half the energy", 0.5, 0.2, _table2_energy("StockFish")),
    Claim("table2.specfem.ratio", "III-C",
          "SPECFEM3D ratio 7.9", 7.9, 0.06, _table2_ratio("SPECFEM3D")),
    Claim("table2.specfem.energy", "III-C",
          "SPECFEM3D: energy 5 times lower", 0.2, 0.3,
          _table2_energy("SPECFEM3D")),
    Claim("table2.bigdft.ratio", "III-C",
          "BigDFT ratio 23.2", 23.2, 0.06, _table2_ratio("BigDFT")),
    Claim("table2.bigdft.energy", "III-C",
          "BigDFT: half the energy", 0.6, 0.2, _table2_energy("BigDFT")),
    # --- Figure 3 ----------------------------------------------------------
    Claim(
        "fig3a.linpack-efficiency-100", "IV",
        "LINPACK close to 80% efficiency for 100 cores",
        0.8, 0.12,
        lambda values: values["fig3"]["linpack"],
    ),
    Claim(
        "fig3b.specfem-efficiency-192", "IV",
        "SPECFEM3D strong scaling with an efficiency of 90%",
        0.9, 0.1,
        lambda values: values["fig3"]["specfem3d"],
    ),
    Claim(
        "fig3c.bigdft-drops", "IV",
        "BigDFT's efficiency drops rapidly (below 60% by 36 cores)",
        1.0, 0.0,
        lambda values: values["fig3"]["bigdft"] < 0.6,
    ),
    # --- Figure 4 ----------------------------------------------------------
    Claim(
        "fig4.most-delayed", "IV",
        "most of these collective communications are longer and delayed",
        1.0, 0.0,
        lambda values: (
            values["fig4"]["delayed"] > 0.5 * values["fig4"]["instances"]),
    ),
    Claim(
        "fig4.partial-delays", "IV",
        "in some cases all the nodes are delayed while in other, only part",
        1.0, 0.0,
        lambda values: len(set(values["fig4"]["ranks_delayed"])) > 1,
    ),
    # --- Figure 5 ----------------------------------------------------------
    Claim(
        "fig5.bimodal", "V-A-2",
        "2 modes of execution can be observed",
        1.0, 0.0,
        lambda values: is_bimodal(_fig5_at_16k(values), ratio=2.5),
    ),
    Claim(
        "fig5.degraded-factor", "V-A-2",
        "degraded bandwidth values that are almost 5 times lower",
        4.7, 0.25,
        _fig5_degraded_factor,
    ),
    Claim(
        "fig5.consecutive", "V-A-2",
        "all degraded measures occurred consecutively",
        1.0, 0.0,
        _fig5_consecutive,
    ),
    # --- Figure 6 ----------------------------------------------------------
    Claim(
        "fig6.double-width-doubles", "V-A-3",
        "increasing element size from 32 to 64 bits practically doubles "
        "the bandwidths on both architectures",
        2.0, 0.25,
        lambda values: sum(
            grid[(64, 1)] / grid[(32, 1)] for grid in values["fig6"].values()
        ) / 2.0,
    ),
    Claim(
        "fig6.arm-best-64-unrolled", "V-A-3",
        "the best configuration on ARM is obtained when using 64 bits "
        "and loop unrolling",
        1.0, 0.0,
        lambda values: max(
            values["fig6"][_SNOWBALL], key=values["fig6"][_SNOWBALL].get
        ) == (64, 8),
    ),
    Claim(
        "fig6.arm-128-detrimental", "V-A-3",
        "on ARM loop unrolling may even dramatically degrade performance "
        "(128-bit variant)",
        1.0, 0.0,
        lambda values: (
            values["fig6"][_SNOWBALL][(128, 8)]
            < values["fig6"][_SNOWBALL][(128, 1)]),
    ),
    Claim(
        "fig6.xeon-monotone", "V-A-3",
        "on Nehalem unrolling loops and vectorizing both constantly "
        "improve performance",
        1.0, 0.0,
        lambda values: all(
            values["fig6"][_XEON][(bits, 8)]
            >= values["fig6"][_XEON][(bits, 1)] * 0.99
            for bits in (32, 64, 128)),
    ),
    # --- Figure 7 ----------------------------------------------------------
    Claim(
        "fig7.nehalem-sweet-spot", "V-B",
        "sweet spot [4:12] range on Nehalem",
        1.0, 0.0,
        lambda values: sweet_spot(values["fig7"][_XEON]) == list(range(4, 13)),
    ),
    Claim(
        "fig7.tegra2-sweet-spot", "V-B",
        "smaller on Tegra2 (the [4:7] range)",
        1.0, 0.0,
        lambda values: sweet_spot(values["fig7"][_TEGRA2]) == [4, 5, 6, 7],
    ),
    Claim(
        "fig7.tegra2-unroll12-growth", "V-B",
        "on Tegra2 the total number of cycles significantly grows when "
        "unrolling too much (unroll=12)",
        1.0, 0.0,
        lambda values: (
            values["fig7"][_TEGRA2][12]
            > 1.8 * min(values["fig7"][_TEGRA2].values())),
    ),
    # --- §VI perspectives ----------------------------------------------------
    Claim(
        "vi.exynos-envelope", "VI-A",
        "a peak performance of about a 100 GFLOPS for a power "
        "consumption of 5 Watts",
        100.0, 0.2,
        lambda values: (
            EXYNOS5_DUAL.peak_flops_with_accelerator(Precision.SINGLE) / 1e9),
    ),
)


def claim_by_id(claim_id: str) -> Claim:
    """Look up one claim."""
    for claim in ALL_CLAIMS:
        if claim.claim_id == claim_id:
            return claim
    raise ConfigurationError(
        f"unknown claim {claim_id!r}; known: {[c.claim_id for c in ALL_CLAIMS]}"
    )


def audit(
    values: Values, claims: tuple[Claim, ...] = ALL_CLAIMS
) -> list[ClaimResult]:
    """Replay claims against :func:`paper_values` and return their
    results (failures included)."""
    return [claim.check(values) for claim in claims]
