"""Characterized models for the full Mont-Blanc portfolio (Table I).

The paper details two of the eleven selected applications (SPECFEM3D,
BigDFT) and motivates the rest as "state of the art HPC codes currently
running on national HPC facilities".  This module gives every remaining
Table I code a *characterized* performance model: precision, arithmetic
intensity, and — decisive for Tibidabo, per §IV — its dominant
communication pattern.  Halo-exchange codes inherit SPECFEM3D's clean
scaling; transpose/all-to-all codes inherit BigDFT's incast exposure;
tree and Monte-Carlo codes sit in between.

The characterizations are drawn from each code's published domain
behaviour (a structured-grid weather model halo-exchanges; a plane-wave
DFT code transposes; a Barnes-Hut-style Coulomb solver reduces along a
tree; Monte-Carlo folding is embarrassingly parallel).  They are
deliberately coarse: the point is pattern-level placement on the
paper's scaling spectrum, not per-code calibration.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.apps.base import RunResult, ScalableAppModel
from repro.apps.bigdft import BigDFT
from repro.apps.specfem3d import Specfem3D
from repro.arch.cpu import MachineModel
from repro.arch.isa import Precision
from repro.cluster.cluster import ClusterModel
from repro.cluster.mpi import MpiRank, RankProgram
from repro.errors import ConfigurationError


class CommPattern(enum.Enum):
    """Dominant communication structure of a code."""

    HALO_EXCHANGE = "halo-exchange"        # structured/unstructured grids
    TRANSPOSE_ALLTOALL = "alltoall"        # spectral / plane-wave codes
    TREE_REDUCTION = "tree-reduction"      # hierarchical N-body
    PARTICLE_EXCHANGE = "particle"         # PIC / MPC particle migration
    EMBARRASSING = "embarrassing"          # Monte-Carlo ensembles


@dataclass(frozen=True)
class WorkloadCharacter:
    """Coarse characterization of one application."""

    code: str
    domain: str
    precision: Precision
    #: Total useful flops of the reference strong-scaling instance.
    total_flops: float
    #: Fraction of peak the kernels sustain (vectorizability proxy).
    kernel_efficiency: float
    #: DRAM bytes per flop on a single node (arithmetic-intensity
    #: inverse); drives the memory-bound share of node time.
    bytes_per_flop: float
    #: Dominant communication pattern.
    pattern: CommPattern
    #: Communication volume knob (pattern-specific meaning: halo bytes
    #: per neighbour at P=1-equivalent, alltoall total volume, ...).
    comm_volume_bytes: float
    #: Iterations / timesteps of the reference instance.
    steps: int
    #: Per-rank load imbalance (1.0 = perfectly balanced).
    imbalance: float = 1.0

    def __post_init__(self) -> None:
        if self.total_flops <= 0 or self.steps < 1:
            raise ConfigurationError(f"{self.code}: invalid workload size")
        if not 0.0 < self.kernel_efficiency <= 1.0:
            raise ConfigurationError(f"{self.code}: efficiency must be in (0, 1]")
        if self.bytes_per_flop < 0 or self.comm_volume_bytes < 0:
            raise ConfigurationError(f"{self.code}: negative traffic")
        if self.imbalance < 1.0:
            raise ConfigurationError(f"{self.code}: imbalance must be >= 1")


@dataclass
class CharacterizedApp(ScalableAppModel):
    """A generic app model driven by a :class:`WorkloadCharacter`."""

    character: WorkloadCharacter = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.character is None:
            raise ConfigurationError("a CharacterizedApp needs a character")
        self.name = self.character.code
        self.metric_name = "s"
        self.higher_is_better = False

    # -- single node -------------------------------------------------------

    def run(self, machine: MachineModel, cores: int | None = None) -> RunResult:
        """Roofline-style single-node execution of the instance."""
        used = self._resolve_cores(machine, cores)
        character = self.character
        rate = (
            machine.peak_flops(character.precision, used)
            * character.kernel_efficiency
        )
        compute = character.total_flops / rate
        stream = (
            character.total_flops * character.bytes_per_flop
            / machine.memory.sustained_bandwidth
        )
        elapsed = max(compute, stream) + min(compute, stream) * 0.3
        return self._result(machine, used, elapsed, elapsed)

    # -- cluster -----------------------------------------------------------

    def _rank_rate(self, cluster: ClusterModel) -> float:
        character = self.character
        return (
            cluster.node.core.peak_flops(character.precision)
            * character.kernel_efficiency
        )

    def rank_program(self, cluster: ClusterModel, num_ranks: int):
        """One rank of the strong-scaling run, per pattern."""
        character = self.character
        rate = self._rank_rate(cluster)
        work_per_step = character.total_flops / character.steps / num_ranks / rate

        def program(rank: MpiRank) -> RankProgram:
            size = rank.size
            heavy = rank.rank % 2 == 0
            imbalance = character.imbalance if heavy else 1.0
            for step in range(character.steps):
                yield rank.compute(work_per_step * imbalance, label="compute")
                if size == 1:
                    continue
                yield from self._communicate(rank, step)

        return program

    def _communicate(self, rank: MpiRank, step: int) -> RankProgram:
        character = self.character
        size = rank.size
        if character.pattern is CommPattern.HALO_EXCHANGE:
            surface = max(
                64, int(character.comm_volume_bytes / size ** (2.0 / 3.0))
            )
            stride = max(1, round(size ** (1.0 / 3.0)))
            peers = []
            seen = {rank.rank}
            for offset in (1, -1, stride, -stride, stride * stride, -stride * stride):
                peer = (rank.rank + offset) % size
                if peer not in seen:
                    peers.append(peer)
                    seen.add(peer)
            for peer in peers:
                yield rank.send(
                    peer, surface, tag=("halo", step, rank.rank), label="halo"
                ).as_nonblocking()
            for peer in peers:
                yield rank.recv(peer, tag=("halo", step, peer), label="halo")
        elif character.pattern is CommPattern.TRANSPOSE_ALLTOALL:
            pair = int(character.comm_volume_bytes / size**2)
            yield from rank.alltoallv([pair] * size)
        elif character.pattern is CommPattern.TREE_REDUCTION:
            nbytes = int(character.comm_volume_bytes / size)
            yield from rank.reduce(0, max(64, nbytes))
            yield from rank.bcast(0, max(64, nbytes))
        elif character.pattern is CommPattern.PARTICLE_EXCHANGE:
            migrating = max(64, int(character.comm_volume_bytes / size))
            left, right = (rank.rank - 1) % size, (rank.rank + 1) % size
            yield rank.send(
                right, migrating, tag=("mig", step, rank.rank), label="particles"
            ).as_nonblocking()
            yield rank.recv(left, tag=("mig", step, left), label="particles")
        elif character.pattern is CommPattern.EMBARRASSING:
            if step == character.steps - 1:
                yield from rank.allreduce(4096)
        else:  # pragma: no cover - enum is closed
            raise ConfigurationError(f"unknown pattern {character.pattern}")


#: The nine Table I codes the paper does not model in detail.  Flops
#: totals are sized so a full Tibidabo-scale run takes simulated
#: minutes; efficiencies/intensities follow each domain's folklore.
PORTFOLIO_CHARACTERS: tuple[WorkloadCharacter, ...] = (
    WorkloadCharacter(
        code="YALES2", domain="Combustion", precision=Precision.DOUBLE,
        total_flops=4e11, kernel_efficiency=0.18, bytes_per_flop=0.9,
        pattern=CommPattern.HALO_EXCHANGE, comm_volume_bytes=6e6, steps=20,
        imbalance=1.1,
    ),
    WorkloadCharacter(
        code="EUTERPE", domain="Fusion", precision=Precision.DOUBLE,
        total_flops=5e11, kernel_efficiency=0.25, bytes_per_flop=0.4,
        pattern=CommPattern.PARTICLE_EXCHANGE, comm_volume_bytes=4e8, steps=25,
        imbalance=1.3,
    ),
    WorkloadCharacter(
        code="MP2C", domain="Multi-particle Collision", precision=Precision.DOUBLE,
        total_flops=3e11, kernel_efficiency=0.3, bytes_per_flop=0.3,
        pattern=CommPattern.PARTICLE_EXCHANGE, comm_volume_bytes=2e8, steps=30,
    ),
    WorkloadCharacter(
        code="Quantum Expresso", domain="Electronic Structure",
        precision=Precision.DOUBLE,
        # Plane-wave DFT: every SCF iteration transposes the full FFT
        # grids — the heaviest all-to-all volume in the portfolio.
        total_flops=4e11, kernel_efficiency=0.35, bytes_per_flop=0.25,
        pattern=CommPattern.TRANSPOSE_ALLTOALL, comm_volume_bytes=4.0e9, steps=10,
    ),
    WorkloadCharacter(
        code="PEPC", domain="Coulomb & Gravitational Forces",
        precision=Precision.DOUBLE,
        total_flops=5e11, kernel_efficiency=0.28, bytes_per_flop=0.2,
        pattern=CommPattern.TREE_REDUCTION, comm_volume_bytes=3e8, steps=15,
        imbalance=1.2,
    ),
    WorkloadCharacter(
        code="SMMP", domain="Protein Folding", precision=Precision.DOUBLE,
        total_flops=2e11, kernel_efficiency=0.4, bytes_per_flop=0.05,
        pattern=CommPattern.EMBARRASSING, comm_volume_bytes=4e3, steps=10,
    ),
    WorkloadCharacter(
        code="PorFASI", domain="Protein Folding", precision=Precision.DOUBLE,
        total_flops=2.5e11, kernel_efficiency=0.38, bytes_per_flop=0.05,
        pattern=CommPattern.EMBARRASSING, comm_volume_bytes=4e3, steps=12,
    ),
    WorkloadCharacter(
        code="COSMO", domain="Weather Forecast", precision=Precision.SINGLE,
        total_flops=8e11, kernel_efficiency=0.22, bytes_per_flop=0.8,
        pattern=CommPattern.HALO_EXCHANGE, comm_volume_bytes=8e6, steps=24,
    ),
    WorkloadCharacter(
        code="BQCD", domain="Particle Physics", precision=Precision.DOUBLE,
        total_flops=7e11, kernel_efficiency=0.32, bytes_per_flop=0.5,
        pattern=CommPattern.HALO_EXCHANGE, comm_volume_bytes=5e6, steps=40,
    ),
)


def portfolio_apps() -> dict[str, CharacterizedApp]:
    """One :class:`CharacterizedApp` per remaining Table I code."""
    return {
        character.code: CharacterizedApp(character=character)
        for character in PORTFOLIO_CHARACTERS
    }


def character_by_code(code: str) -> WorkloadCharacter:
    """Look up one characterization."""
    for character in PORTFOLIO_CHARACTERS:
        if character.code.lower() == code.lower():
            return character
    raise ConfigurationError(
        f"no characterization for {code!r}; known: "
        f"{[c.code for c in PORTFOLIO_CHARACTERS]}"
    )


@dataclass(frozen=True)
class PortfolioVerdict:
    """Scaling verdict for one code on the cluster."""

    code: str
    pattern: CommPattern
    efficiency: float
    cores: int

    @property
    def scales(self) -> bool:
        """The §IV viability bar: ≥60 % efficiency at the test scale."""
        return self.efficiency >= 0.6


def portfolio_scaling_report(
    cluster: ClusterModel, *, cores: int = 32, baseline: int = 2
) -> list[PortfolioVerdict]:
    """Strong-scale all eleven Table I codes and report who survives.

    The nine characterized codes run first, then SPECFEM3D and BigDFT
    at reduced instances, all on *cluster*.  The paper's premise: "In
    order to be viable the approach needs applications to scale."
    Halo/particle/Monte-Carlo codes should pass on Tibidabo;
    transpose-bound codes should show the BigDFT syndrome.
    """
    if cores <= baseline:
        raise ConfigurationError("cores must exceed the baseline")
    codes = [(app, app.character.pattern) for app in portfolio_apps().values()]
    codes += [
        (Specfem3D(timesteps=8), CommPattern.HALO_EXCHANGE),
        (BigDFT(scf_iterations=4), CommPattern.TRANSPOSE_ALLTOALL),
    ]
    verdicts = []
    for app, pattern in codes:
        base_time = app.run_cluster(cluster, baseline)
        # Figure 3's normalization, in the same float order.
        speedup = baseline * base_time / app.run_cluster(cluster, cores)
        verdicts.append(
            PortfolioVerdict(
                code=app.name,
                pattern=pattern,
                efficiency=speedup / cores,
                cores=cores,
            )
        )
    return verdicts
