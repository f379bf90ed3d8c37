"""Ablation X4 — §IV's closing caution, quantified: "the node power
efficiency is likely to be counterbalanced by the network
inefficiency".

Measures energy-to-solution across strong-scaling sweeps of SPECFEM3D
(scales cleanly — fabric power amortizes) and BigDFT (incast collapse
makes energy U-shaped with an optimum well below the largest run).
The sweeps are ``repro x4``'s records at seed 7."""

from repro.core.report import render_table
from repro.engine.sweeps import run_replicated_energy

STUDIES = (
    ("SPECFEM3D", "specfem3d", {"timesteps": 10}, [8, 16, 32, 64]),
    ("BigDFT", "bigdft", {"scf_iterations": 4}, [4, 8, 16, 24, 36]),
)


def _study(engine):
    """``name -> {cores: payload}`` for both codes."""
    study = {}
    for name, app, app_args, counts in STUDIES:
        grid = run_replicated_energy(
            engine, app, counts=counts, num_nodes=96, seeds=[7],
            app_args=app_args,
        )
        study[name] = {cores: values[0] for cores, values in grid.items()}
    return study


def test_x4_energy_at_scale(benchmark, artefact, engine):
    study = benchmark.pedantic(lambda: _study(engine), rounds=1, iterations=1)
    specfem, bigdft = study["SPECFEM3D"], study["BigDFT"]
    specfem_energy = {cores: run["energy_j"] for cores, run in specfem.items()}
    bigdft_energy = {cores: run["energy_j"] for cores, run in bigdft.items()}
    optimum = min(bigdft_energy, key=bigdft_energy.get)

    artefact(
        "X4 — energy to solution at scale (Tibidabo)",
        render_table(
            "node vs network counterbalance",
            ["code", "cores", "time (s)", "energy (J)", "net power"],
            [
                [name, cores, f"{run['elapsed_s']:.1f}",
                 f"{run['energy_j']:,.0f}",
                 f"{run['network_power_fraction']:.0%}"]
                for name, runs in study.items()
                for cores, run in runs.items()
            ],
        )
        + f"\n\nBigDFT energy optimum: {optimum} cores "
        "(beyond it, incast burns joules)",
    )

    # Clean scaling: energy does not explode with cores.
    assert specfem_energy[64] < specfem_energy[8] * 1.6
    # Congested scaling: U-shaped, optimum strictly below 36 cores.
    assert optimum < 36
    assert bigdft_energy[36] > bigdft_energy[optimum]
    # At small scale the fabric dominates the power budget (the
    # "network inefficiency" side of the trade).
    fractions = {
        cores: run["network_power_fraction"] for cores, run in specfem.items()
    }
    assert fractions[8] > 0.5
    assert fractions[64] < fractions[8]
