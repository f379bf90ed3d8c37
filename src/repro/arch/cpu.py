"""Core, memory and machine models.

A :class:`MachineModel` is the static hardware description every
simulator in this library consumes: the analytic single-node
performance models (Table II), the cache simulator (Figures 5/6), the
magicfilter counter model (Figure 7) and the cluster simulator (Figures
3/4) all read their hardware parameters from here.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.arch.cache import CacheGeometry
from repro.arch.isa import ISA, Precision
from repro.arch.registers import RegisterClass, RegisterFile
from repro.errors import ConfigurationError
from repro.units import GiB, MiB


@dataclass(frozen=True)
class CoreModel:
    """Per-core execution resources.

    Attributes:
        name: micro-architecture name (e.g. ``"Nehalem"``).
        frequency_hz: core clock.
        issue_width: maximum instructions issued per cycle.
        fp_pipes: concurrent floating-point/vector pipes (Nehalem has
            separate SSE multiply and add ports -> 2; Cortex-A9 -> 1).
        int_ops_per_cycle: sustained simple-integer-op throughput.
        load_store_units: concurrent L1 access ports.
        branch_predictor_accuracy: fraction of branches predicted.
        branch_miss_penalty_cycles: pipeline refill cost.
        out_of_order: whether the core reorders around misses.
        mem_parallelism: outstanding misses the core can overlap
            (memory-level parallelism; hides DRAM latency when > 1).
        sustained_ipc: realistic instructions-per-cycle on integer-ish
            loop code (below ``issue_width`` because of dependences).
        load_width_bits: widest single load the memory pipeline
            executes in one cycle (128 for Nehalem SSE, 64 for the
            Cortex-A9's NEON/VFP path).
        overlap_factor: fraction of memory supply time the core hides
            under computation (high for aggressive out-of-order cores,
            low for the A9's shallow miss queue).
        isa: instruction set (carries vector extension).
        registers: architectural register files by class.
    """

    name: str
    frequency_hz: float
    issue_width: int
    fp_pipes: int
    int_ops_per_cycle: float
    load_store_units: int
    branch_predictor_accuracy: float
    branch_miss_penalty_cycles: int
    out_of_order: bool
    mem_parallelism: float
    isa: ISA
    sustained_ipc: float = 1.5
    load_width_bits: int = 64
    overlap_factor: float = 0.5
    registers: dict[RegisterClass, RegisterFile] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.frequency_hz <= 0:
            raise ConfigurationError(f"{self.name}: frequency must be positive")
        if self.issue_width < 1 or self.fp_pipes < 1 or self.load_store_units < 1:
            raise ConfigurationError(f"{self.name}: widths must be >= 1")
        if not 0.0 <= self.branch_predictor_accuracy <= 1.0:
            raise ConfigurationError(
                f"{self.name}: branch predictor accuracy must be in [0, 1]"
            )
        if self.mem_parallelism < 1.0:
            raise ConfigurationError(f"{self.name}: mem_parallelism must be >= 1")
        if self.sustained_ipc <= 0 or self.sustained_ipc > self.issue_width:
            raise ConfigurationError(
                f"{self.name}: sustained_ipc must be in (0, issue_width]"
            )
        if self.load_width_bits not in (32, 64, 128, 256):
            raise ConfigurationError(
                f"{self.name}: unsupported load width {self.load_width_bits}"
            )
        if not 0.0 <= self.overlap_factor <= 1.0:
            raise ConfigurationError(
                f"{self.name}: overlap_factor must be in [0, 1]"
            )

    @property
    def cycle_time_s(self) -> float:
        """Seconds per core cycle."""
        return 1.0 / self.frequency_hz

    def peak_flops(self, precision: Precision) -> float:
        """Per-core peak flop/s for *precision*."""
        return self.frequency_hz * self.isa.peak_flops_per_cycle(
            precision, self.fp_pipes
        )

    def register_file(self, reg_class: RegisterClass) -> RegisterFile:
        """Return the register file of one class, raising if absent."""
        if reg_class not in self.registers:
            raise ConfigurationError(
                f"{self.name} has no {reg_class.value} register file"
            )
        return self.registers[reg_class]

    def cycles_to_seconds(self, cycles: float) -> float:
        """Convert a cycle count to seconds at this core's clock."""
        return cycles / self.frequency_hz

    def branch_cost_cycles(self, branches: float, *, taken_entropy: float = 1.0) -> float:
        """Expected misprediction cycles for *branches* dynamic branches.

        ``taken_entropy`` scales how predictable the branch stream is
        (0 = perfectly predictable regardless of predictor, 1 = the
        predictor's nominal accuracy applies).
        """
        if branches < 0:
            raise ConfigurationError("branch count cannot be negative")
        miss_rate = (1.0 - self.branch_predictor_accuracy) * taken_entropy
        return branches * miss_rate * self.branch_miss_penalty_cycles


@dataclass(frozen=True)
class MemoryModel:
    """DRAM subsystem description.

    Attributes:
        technology: marketing name, e.g. ``"DDR3-1333 x3"``.
        total_bytes: installed capacity.
        latency_ns: random-access (unloaded) latency.
        peak_bandwidth: theoretical peak in bytes/s.
        stream_efficiency: fraction of the peak achievable by a
            streaming kernel (the usual STREAM-vs-peak ratio).
    """

    technology: str
    total_bytes: int
    latency_ns: float
    peak_bandwidth: float
    stream_efficiency: float

    def __post_init__(self) -> None:
        if self.total_bytes <= 0 or self.peak_bandwidth <= 0 or self.latency_ns <= 0:
            raise ConfigurationError(f"{self.technology}: memory parameters must be positive")
        if not 0.0 < self.stream_efficiency <= 1.0:
            raise ConfigurationError(
                f"{self.technology}: stream_efficiency must be in (0, 1]"
            )

    @property
    def sustained_bandwidth(self) -> float:
        """Achievable streaming bandwidth in bytes/s."""
        return self.peak_bandwidth * self.stream_efficiency


@dataclass(frozen=True)
class AcceleratorModel:
    """An integrated GPU usable for general-purpose compute.

    Only the envelope matters for the paper's Perspectives section
    (§VI): the Mali-T604 in the Exynos 5 Dual brings the SoC to
    "about a 100 GFLOPS for a power consumption of 5 Watts".
    """

    name: str
    peak_sp_flops: float
    peak_dp_flops: float

    def __post_init__(self) -> None:
        if self.peak_sp_flops <= 0 or self.peak_dp_flops < 0:
            raise ConfigurationError(f"{self.name}: invalid peak throughput")


@dataclass(frozen=True)
class MachineModel:
    """A complete node: cores, cache hierarchy, memory, power envelope.

    ``caches`` is ordered from L1 outward.  Levels with ``shared=True``
    exist once per machine; private levels are replicated per core.

    ``tdp_watts`` follows the paper's energy accounting: the *board*
    envelope (2.5 W for the USB-powered Snowball) or the CPU TDP (95 W
    for the Xeon X5550) — the paper's deliberately "rough model".
    """

    name: str
    core: CoreModel
    num_cores: int
    caches: tuple[CacheGeometry, ...]
    memory: MemoryModel
    tdp_watts: float
    page_size: int = 4096
    hyperthreading: bool = False
    accelerator: AcceleratorModel | None = None

    def __post_init__(self) -> None:
        if self.num_cores < 1:
            raise ConfigurationError(f"{self.name}: need at least one core")
        if self.tdp_watts <= 0:
            raise ConfigurationError(f"{self.name}: TDP must be positive")
        if not self.caches:
            raise ConfigurationError(f"{self.name}: need at least one cache level")
        sizes = [c.size_bytes for c in self.caches]
        if sizes != sorted(sizes):
            raise ConfigurationError(
                f"{self.name}: cache levels must be ordered smallest (L1) outward"
            )

    @property
    def frequency_hz(self) -> float:
        """Core clock frequency."""
        return self.core.frequency_hz

    def cache(self, name: str) -> CacheGeometry:
        """Look up one cache level by name (e.g. ``"L1d"``)."""
        for level in self.caches:
            if level.name == name:
                return level
        raise ConfigurationError(
            f"{self.name} has no cache level {name!r}; "
            f"available: {[c.name for c in self.caches]}"
        )

    @property
    def l1(self) -> CacheGeometry:
        """Innermost cache level."""
        return self.caches[0]

    @property
    def last_level(self) -> CacheGeometry:
        """Outermost cache level."""
        return self.caches[-1]

    def peak_flops(self, precision: Precision, cores: int | None = None) -> float:
        """Machine peak flop/s using *cores* cores (default: all)."""
        used = self.num_cores if cores is None else cores
        if not 1 <= used <= self.num_cores:
            raise ConfigurationError(
                f"{self.name}: cores must be in [1, {self.num_cores}], got {used}"
            )
        return used * self.core.peak_flops(precision)

    def energy_joules(self, seconds: float) -> float:
        """Energy consumed over *seconds* under the TDP power model."""
        if seconds < 0:
            raise ConfigurationError("duration cannot be negative")
        return self.tdp_watts * seconds

    def peak_flops_with_accelerator(self, precision: Precision) -> float:
        """Machine peak flop/s including the integrated GPU, if any."""
        total = self.peak_flops(precision)
        if self.accelerator is not None:
            if precision is Precision.SINGLE:
                total += self.accelerator.peak_sp_flops
            else:
                total += self.accelerator.peak_dp_flops
        return total

    def gflops_per_watt(
        self, precision: Precision, *, include_accelerator: bool = False
    ) -> float:
        """Peak energy efficiency in GFLOPS/W (the Green500 metric)."""
        if include_accelerator:
            peak = self.peak_flops_with_accelerator(precision)
        else:
            peak = self.peak_flops(precision)
        return peak / 1e9 / self.tdp_watts

    def describe(self) -> str:
        """One-paragraph hardware summary."""
        cache_text = ", ".join(
            f"{c.name} {c.size_bytes // 1024}KB"
            + ("/shared" if c.shared else "")
            for c in self.caches
        )
        mem_gib = self.memory.total_bytes / GiB
        if mem_gib >= 1:
            mem_text = f"{mem_gib:.0f} GiB"
        else:
            mem_text = f"{self.memory.total_bytes / MiB:.0f} MiB"
        return (
            f"{self.name}: {self.num_cores}x {self.core.name} @ "
            f"{self.core.frequency_hz / 1e9:g} GHz, {cache_text}, "
            f"{mem_text} {self.memory.technology}, TDP {self.tdp_watts:g} W"
        )
