"""BigDFT's *magicfilter* convolution: executable kernel + counter model.

The magicfilter "performs the electronic potential computation via a
three-dimensional convolution [that] can be decomposed as three
successive applications of a basic operation" — a 16-tap 1-D
convolution swept along each axis (§V-B).  The paper's auto-tuning tool
generates the kernel "with unrolling varying from 1 (no unrolling) to
12" and benchmarks each variant with PAPI counters; Figure 7 plots
cycles and cache accesses per variant on Nehalem and Tegra2.

Two layers live here:

* the **executable kernel** (:func:`magicfilter_1d`,
  :func:`apply_magicfilter_3d`, and the unroll-parameterized
  :func:`magicfilter_1d_unrolled` the generator emits) — all variants
  compute identical results, which the tests assert, exactly the
  correctness contract of the paper's generator;
* the **counter model** (:class:`MagicFilterBenchmark`) — predicts
  ``PAPI_TOT_CYC`` and ``PAPI_L1_DCA`` per variant from the register
  file, FPU pipeline and reuse structure.

Counter-model mechanisms (constants calibrated to Figure 7's shapes):

* *register capacity*: the data register file holds ``2`` values per
  unrolled output (accumulator + window share) plus the filter
  coefficients; coefficients that no longer fit are re-fetched every
  element — the access 'staircase' (from unroll≈5 on Tegra2's 16
  VFPv3-D16 registers, unroll≈8-9 on Nehalem's 32-double XMM file);
* *accumulator spilling*: outputs beyond capacity spill mid-chain; on
  the in-order VFP each reload stalls the multiply-accumulate chain,
  which is why Tegra2's cycles "significantly grow" at unroll 12;
* *chain-latency hiding*: unrolling provides independent accumulation
  chains, so cycles fall steeply at small unroll and saturate at the
  FPU's throughput limit.

The filter taps are a synthetic normalized 16-tap low-pass filter (the
original BigDFT Daubechies magic-filter coefficients are not needed:
only the tap *count* affects performance shape; DESIGN.md records the
substitution).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from repro.arch.cpu import MachineModel
from repro.arch.isa import Precision
from repro.arch.registers import RegisterClass
from repro.errors import ConfigurationError
from repro.kernels.counters import CounterSet

#: Number of filter taps (the BigDFT magic filter's length).
MAGICFILTER_LENGTH = 16

#: Unroll range the paper's generator produced.
UNROLL_RANGE = tuple(range(1, 13))


def _default_taps() -> tuple[float, ...]:
    """Synthetic normalized 16-tap low-pass filter (documented stand-in
    for the BigDFT magic-filter coefficients): a Hamming-windowed
    sinc."""
    last = MAGICFILTER_LENGTH - 1
    center = last / 2.0
    taps = []
    for n in range(MAGICFILTER_LENGTH):
        window = 0.54 - 0.46 * math.cos(2.0 * math.pi * n / last)
        # The centre falls between two taps, so the sinc never sees 0.
        x = math.pi * ((n - center) / 3.0)
        taps.append(window * (math.sin(x) / x))
    total = math.fsum(taps)
    return tuple(tap / total for tap in taps)


MAGICFILTER_TAPS = _default_taps()


# ---------------------------------------------------------------------------
# Executable kernel
# ---------------------------------------------------------------------------


def _line(values: Iterable[float], what: str) -> list[float]:
    """*values* as a non-empty list of floats, or a typed error."""
    try:
        line = [float(v) for v in values]
    except TypeError:
        raise ConfigurationError(
            f"{what} must be a 1-D sequence of numbers"
        ) from None
    if not line:
        raise ConfigurationError(f"{what} must be non-empty")
    return line


def magicfilter_1d(
    data: Sequence[float], taps: Sequence[float] | None = None
) -> list[float]:
    """Periodic 16-tap convolution of one line.

    Output element ``i`` is ``sum_k taps[k] * data[(i + k - L//2) % n]``
    — the periodic boundary BigDFT's wavelet basis uses.  Tap-outer:
    each tap adds one shifted copy of the whole line.
    """
    taps = _line(MAGICFILTER_TAPS if taps is None else taps, "taps")
    data = _line(data, "data")
    n = len(data)
    offset = len(taps) // 2
    result = [0.0] * n
    for k, coefficient in enumerate(taps):
        shift = (k - offset) % n
        shifted = data[shift:] + data[:shift]
        result = [r + coefficient * d for r, d in zip(result, shifted)]
    return result


def magicfilter_1d_unrolled(
    data: Sequence[float],
    taps: Sequence[float] | None = None,
    *,
    unroll: int = 1,
) -> list[float]:
    """The generator's unrolled 1-D variant (reference semantics).

    Processes ``unroll`` outputs per outer iteration, exactly like the
    paper's generated C/Fortran variants; all unroll degrees compute
    the same values (the tests assert this against
    :func:`magicfilter_1d`).
    """
    if unroll < 1:
        raise ConfigurationError(f"unroll must be >= 1, got {unroll}")
    taps = _line(MAGICFILTER_TAPS if taps is None else taps, "taps")
    data = _line(data, "data")
    n = len(data)
    offset = len(taps) // 2
    out: list[float] = []
    for i in range(0, n, unroll):
        block = min(unroll, n - i)
        # One unrolled body: `block` accumulators advance together.
        accumulators = [0.0] * block
        for k, coefficient in enumerate(taps):
            for u in range(block):
                accumulators[u] += coefficient * data[(i + u + k - offset) % n]
        out.extend(accumulators)
    return out


def apply_magicfilter_3d(
    volume: Sequence[Sequence[Sequence[float]]],
    taps: Sequence[float] | None = None,
) -> list[list[list[float]]]:
    """The full 3-D magicfilter: three successive 1-D sweeps.

    This is the decomposition the paper describes — the separable 3-D
    convolution computed as one 1-D pass per axis.  *volume* is nested
    lists indexed ``[x][y][z]``, and so is the result.
    """
    shape = []
    probe = volume
    while isinstance(probe, (list, tuple)):
        shape.append(len(probe))
        probe = probe[0] if probe else None
    if len(shape) != 3 or 0 in shape:
        raise ConfigurationError(
            f"expected a non-empty 3-D volume, got shape {shape}"
        )
    result = volume
    for _ in range(3):
        # Rotate the outermost axis innermost (out[y][z][x] = in[x][y][z])
        # and filter along it; three turns restore the [x][y][z] order.
        result = [
            [magicfilter_1d(line, taps) for line in zip(*plane, strict=True)]
            for plane in zip(*result, strict=True)
        ]
    return result


# ---------------------------------------------------------------------------
# Counter model
# ---------------------------------------------------------------------------

#: Data registers held live per unrolled output (accumulator + window
#: share).
_LIVE_PER_UNROLL = 2

#: Extra accesses one spilled value costs per produced element
#: (store + reload at each of ~4 touches).
_SPILL_ACCESSES_PER_VALUE = 8.0

#: Per-L1-access stall on an in-order FPU pipeline vs an aggressive
#: out-of-order core.
_ACCESS_STALL_IN_ORDER = 2.0
_ACCESS_STALL_OOO = 0.25

#: Chain stall when a spilled accumulator sits in the MAC chain: the
#: whole 16-tap chain waits on reloads (cycles per tap per spilled
#: output).
_SPILL_CHAIN_STALL_SLOW = 8.0
_SPILL_CHAIN_STALL_FAST = 1.0

#: Dependence latencies of one multiply-accumulate: the A9's VFP is not
#: pipelined for doubles; Nehalem's separate SSE mul/add ports hide
#: most of theirs.
_CHAIN_LATENCY_SLOW = 10.0
_CHAIN_LATENCY_FAST = 2.5

#: Loop-control instructions per unrolled body.
_LOOP_OVERHEAD_INSTRUCTIONS = 6.0


def sweet_spot(
    cycles: Mapping[int, float], *, tolerance: float = 0.3
) -> list[int]:
    """Unroll degrees whose cycle count is within *tolerance* of the
    optimum (per element or per run: the scale cancels).

    The paper's reading of Figure 7: "the sweet spot area where loop
    unrolling is beneficial and does not incur a too high number of
    cache accesses" — [4:12] on Nehalem, only [4:7] on Tegra2.
    """
    if not cycles:
        raise ConfigurationError("need at least one unroll degree")
    if tolerance < 0:
        raise ConfigurationError("tolerance cannot be negative")
    best = min(cycles.values())
    return sorted(u for u, c in cycles.items() if c <= best * (1.0 + tolerance))


@dataclass(frozen=True)
class VariantCost:
    """Per-element cost of one unroll variant."""

    unroll: int
    cycles_per_element: float
    accesses_per_element: float
    coefficients_resident: int
    spilled_outputs: float


@dataclass
class MagicFilterBenchmark:
    """Auto-tuning benchmark for the magicfilter on one machine.

    ``problem_shape`` is the 3-D volume the paper's harness filters;
    counters scale with its element count times three sweeps.
    """

    machine: MachineModel
    problem_shape: tuple[int, int, int] = (32, 32, 32)
    taps: int = MAGICFILTER_LENGTH
    _cost_cache: dict[int, VariantCost] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        if any(n <= 0 for n in self.problem_shape):
            raise ConfigurationError(
                f"problem shape must be positive, got {self.problem_shape}"
            )
        if self.taps < 2:
            raise ConfigurationError(f"need at least 2 taps, got {self.taps}")

    # -- hardware-derived parameters ------------------------------------

    def _register_capacity(self) -> int:
        """Doubles the data register file can hold."""
        registers = self.machine.core.registers
        reg_file = registers.get(
            RegisterClass.VECTOR, registers.get(RegisterClass.FLOAT)
        )
        if reg_file is None:
            reg_file = registers[RegisterClass.GENERAL]
        return reg_file.capacity(64)

    def _dp_lanes(self) -> int:
        """Independent double-precision lanes one vector op advances."""
        vector = self.machine.core.isa.vector
        if vector is None or not vector.supports_double:
            return 1
        return max(1, vector.datapath_bits // 64)

    def _flops_per_cycle(self) -> float:
        return self.machine.core.isa.peak_flops_per_cycle(
            Precision.DOUBLE, self.machine.core.fp_pipes
        )

    # -- the model -------------------------------------------------------

    def variant_cost(self, unroll: int) -> VariantCost:
        """Per-element cycles and cache accesses of one unroll variant."""
        if unroll < 1:
            raise ConfigurationError(f"unroll must be >= 1, got {unroll}")
        cached = self._cost_cache.get(unroll)
        if cached is not None:
            return cached

        capacity = self._register_capacity()
        taps = self.taps

        # Coefficients keep whatever capacity the unrolled data leaves.
        resident = min(taps, max(0, capacity - _LIVE_PER_UNROLL * unroll - 2))
        refetch = taps - resident

        # Outputs whose accumulators no longer fit spill mid-chain.
        spilled = max(0.0, _LIVE_PER_UNROLL * unroll - (capacity - 2))
        spill_accesses = _SPILL_ACCESSES_PER_VALUE * spilled / unroll

        window_loads = taps / unroll + 1.0
        accesses = window_loads + 1.0 + refetch + spill_accesses

        flops_throughput = self._flops_per_cycle()
        slow_fpu = flops_throughput < 2.0
        latency = _CHAIN_LATENCY_SLOW if slow_fpu else _CHAIN_LATENCY_FAST
        lanes = self._dp_lanes()
        per_flop = max(latency / (unroll * lanes), 1.0 / flops_throughput)
        chain = 2.0 * taps * per_flop

        stall = _ACCESS_STALL_IN_ORDER if slow_fpu else _ACCESS_STALL_OOO
        spill_stall = (
            _SPILL_CHAIN_STALL_SLOW if slow_fpu else _SPILL_CHAIN_STALL_FAST
        )
        spill_chain = spilled / unroll * taps * spill_stall

        overhead = (
            _LOOP_OVERHEAD_INSTRUCTIONS / unroll / self.machine.core.sustained_ipc
        )
        cycles = chain + accesses * stall + spill_chain + overhead

        cost = VariantCost(
            unroll=unroll,
            cycles_per_element=cycles,
            accesses_per_element=accesses,
            coefficients_resident=resident,
            spilled_outputs=spilled,
        )
        self._cost_cache[unroll] = cost
        return cost

    @property
    def elements_per_sweep(self) -> int:
        """Output elements of one 1-D sweep over the volume."""
        n1, n2, n3 = self.problem_shape
        return n1 * n2 * n3

    def counters(self, unroll: int) -> CounterSet:
        """PAPI counters for the full 3-D filter at one unroll degree."""
        cost = self.variant_cost(unroll)
        elements = 3 * self.elements_per_sweep  # three 1-D sweeps
        counters = CounterSet()
        counters.record("PAPI_TOT_CYC", cost.cycles_per_element * elements)
        counters.record("PAPI_L1_DCA", cost.accesses_per_element * elements)
        counters.record("PAPI_FP_OPS", 2.0 * self.taps * elements)
        line = self.machine.l1.line_bytes
        counters.record("PAPI_L1_DCM", elements * 2.0 * 8.0 / line)
        counters.record(
            "PAPI_TOT_INS",
            (cost.accesses_per_element + 2.0 * self.taps + 2.0) * elements,
        )
        return counters

    def sweep(self, unrolls: tuple[int, ...] = UNROLL_RANGE) -> dict[int, CounterSet]:
        """Benchmark all unroll variants (the paper's tuning harness)."""
        return {u: self.counters(u) for u in unrolls}

    def sweet_spot(
        self, unrolls: tuple[int, ...] = UNROLL_RANGE, *, tolerance: float = 0.3
    ) -> list[int]:
        """:func:`sweet_spot` of this machine's per-element cycles."""
        cycles = {u: self.variant_cost(u).cycles_per_element for u in unrolls}
        return sweet_spot(cycles, tolerance=tolerance)

    def best_unroll(self, unrolls: tuple[int, ...] = UNROLL_RANGE) -> int:
        """The cycle-optimal unroll degree."""
        costs = {u: self.variant_cost(u).cycles_per_element for u in unrolls}
        return min(costs, key=costs.get)
