"""Statistics for performance measurements.

Beyond the usual summaries, this module implements the two analyses the
paper leans on:

* :func:`detect_modes` — 1-D mode detection used to expose the *bimodal*
  bandwidth distribution under real-time scheduling (Figure 5a: a
  nominal mode and a degraded mode ~5x lower);
* :func:`exponential_fit` — log-linear least squares used to fit the
  Top500 growth curve and project the exaflop year (Figure 1).

It also carries the replication layer behind the §V-A-1 discipline
that single runs lie: :func:`bootstrap_ci` (seeded percentile
bootstrap), :func:`mann_whitney` and :func:`permutation_test`
(distribution-free significance), :func:`summarize_replicates` (the
per-point :class:`ReplicateSummary` every multi-seed sweep reports),
and :func:`compare_replicates` (the verdict behind ``repro compare``).
Everything is seeded and pure Python, so the same inputs produce the
same bytes on any machine — a requirement for the golden-pinned
multi-seed artefacts and the reproduce-all bundle.

Edge-case contract (pinned by ``tests/core/test_stats.py``): an empty
sample always raises :class:`~repro.errors.ConfigurationError`; a
single observation or a constant series yields a *degenerate* interval
``(value, value)`` rather than an error, because a replicate count of
one is a legitimate (if uninformative) sweep configuration.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class SummaryStats:
    """Five-number-style summary of a sample of observations."""

    count: int
    mean: float
    std: float
    minimum: float
    maximum: float
    median: float

    @property
    def cv(self) -> float:
        """Coefficient of variation (std / |mean|); 0 for a zero mean."""
        if self.mean == 0:
            return 0.0
        return self.std / abs(self.mean)


def summarize(values: Sequence[float]) -> SummaryStats:
    """Compute a :class:`SummaryStats` over a non-empty sequence."""
    if not values:
        raise ConfigurationError("cannot summarize an empty sample")
    n = len(values)
    mean = sum(values) / n
    ordered = sorted(values)
    if n > 1 and ordered[0] != ordered[-1]:
        var = sum((v - mean) ** 2 for v in values) / (n - 1)
    else:
        # A constant sample has zero spread by definition; the two-pass
        # formula can say otherwise when sum(values)/n rounds away from
        # the common value (e.g. three copies of a float whose triple is
        # not representable).
        var = 0.0
    mid = n // 2
    if n % 2:
        median = ordered[mid]
    else:
        median = 0.5 * (ordered[mid - 1] + ordered[mid])
    return SummaryStats(
        count=n,
        mean=mean,
        std=math.sqrt(var),
        minimum=ordered[0],
        maximum=ordered[-1],
        median=median,
    )


@dataclass(frozen=True)
class Mode:
    """One detected mode of a 1-D sample."""

    center: float
    count: int
    members: tuple[float, ...]


#: The smallest gap, as a fraction of the value above it, that
#: separates two modes: a spread of a few percent (scheduler jitter)
#: stays one mode.
MODE_MIN_RELATIVE_GAP = 0.1


def detect_modes(
    values: Sequence[float], *, separation: float = 2.0
) -> list[Mode]:
    """Detect well-separated modes in a 1-D sample.

    The algorithm sorts the values and cuts the sorted sequence at
    each gap that is both *wide* — more than ``separation`` times the
    median inter-point gap and 5% of the data range, or more than 45%
    of the range — and *relatively large*: more than
    :data:`MODE_MIN_RELATIVE_GAP` of the value above it.  It is
    designed for the paper's Figure 5a use case — distinguishing a
    nominal bandwidth mode from a degraded mode several times lower —
    not for general density estimation.

    Returns modes sorted by descending center.
    """
    if not values:
        raise ConfigurationError("cannot detect modes of an empty sample")
    if separation <= 0:
        raise ConfigurationError(f"separation must be positive, got {separation}")
    ordered = sorted(values)
    if len(ordered) == 1:
        return [Mode(center=ordered[0], count=1, members=(ordered[0],))]

    gaps = [b - a for a, b in zip(ordered, ordered[1:])]
    positive_gaps = sorted(g for g in gaps if g > 0)
    if not positive_gaps:
        # All values identical: a single degenerate mode.
        return [Mode(center=ordered[0], count=len(ordered), members=tuple(ordered))]
    median_gap = positive_gaps[len(positive_gaps) // 2]
    # A cut also requires the gap to be a meaningful fraction of the
    # data range, so near-duplicate clusters are not shattered.
    data_range = ordered[-1] - ordered[0]
    threshold = max(separation * median_gap, 0.05 * data_range)
    # A gap spanning nearly half the whole range is wide even when
    # duplicates skew the median-gap estimate.
    dominant_gap = 0.45 * data_range

    clusters: list[list[float]] = [[ordered[0]]]
    for gap, value in zip(gaps, ordered[1:]):
        wide = gap > threshold or gap > dominant_gap
        if wide and gap > MODE_MIN_RELATIVE_GAP * abs(value):
            clusters.append([value])
        else:
            clusters[-1].append(value)

    modes = [
        Mode(
            center=sum(cluster) / len(cluster),
            count=len(cluster),
            members=tuple(cluster),
        )
        for cluster in clusters
    ]
    modes.sort(key=lambda m: -m.center)
    return modes


def is_bimodal(values: Sequence[float], *, ratio: float = 2.0) -> bool:
    """Return True if the sample splits into modes whose centers differ
    by at least *ratio*.

    This is the acceptance predicate for the Figure 5 reproduction: the
    paper reports a degraded mode "almost 5 times lower" than the
    nominal one.
    """
    modes = [m for m in detect_modes(values) if m.count >= 2]
    if len(modes) < 2:
        return False
    highest, lowest = modes[0].center, modes[-1].center
    return lowest > 0 and highest / lowest >= ratio


@dataclass(frozen=True)
class LinearFit:
    """Least-squares line ``y = slope * x + intercept``."""

    slope: float
    intercept: float
    r_squared: float

    def predict(self, x: float) -> float:
        """Evaluate the fitted line at *x*."""
        return self.slope * x + self.intercept


def linear_fit(xs: Sequence[float], ys: Sequence[float]) -> LinearFit:
    """Ordinary least squares fit of ``ys`` against ``xs``."""
    if len(xs) != len(ys):
        raise ConfigurationError(
            f"x and y lengths differ: {len(xs)} vs {len(ys)}"
        )
    if len(xs) < 2:
        raise ConfigurationError("need at least two points for a linear fit")
    n = len(xs)
    mean_x = sum(xs) / n
    mean_y = sum(ys) / n
    sxx = sum((x - mean_x) ** 2 for x in xs)
    if sxx == 0:
        raise ConfigurationError("all x values identical; fit is degenerate")
    sxy = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    slope = sxy / sxx
    intercept = mean_y - slope * mean_x
    ss_tot = sum((y - mean_y) ** 2 for y in ys)
    ss_res = sum((y - (slope * x + intercept)) ** 2 for x, y in zip(xs, ys))
    r_squared = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return LinearFit(slope=slope, intercept=intercept, r_squared=r_squared)


@dataclass(frozen=True)
class ExponentialFit:
    """Fit of ``y = a * growth**(x - x0)`` via log-linear least squares."""

    x0: float
    a: float
    growth: float
    r_squared: float

    def predict(self, x: float) -> float:
        """Evaluate the fitted exponential at *x*."""
        return self.a * self.growth ** (x - self.x0)

    def solve_for(self, y: float) -> float:
        """Return the *x* at which the fit reaches *y* (inverse predict)."""
        if y <= 0 or self.a <= 0 or self.growth <= 0 or self.growth == 1.0:
            raise ConfigurationError("exponential fit cannot be inverted")
        return self.x0 + math.log(y / self.a) / math.log(self.growth)


def exponential_fit(xs: Sequence[float], ys: Sequence[float]) -> ExponentialFit:
    """Fit an exponential growth curve through positive observations.

    Used to reproduce Figure 1: Top500 aggregate performance grows
    exponentially; the fit projects when the exaflop threshold falls.
    """
    if any(y <= 0 for y in ys):
        raise ConfigurationError("exponential fit requires strictly positive y values")
    x0 = min(xs) if xs else 0.0
    shifted = [x - x0 for x in xs]
    log_ys = [math.log(y) for y in ys]
    line = linear_fit(shifted, log_ys)
    return ExponentialFit(
        x0=x0,
        a=math.exp(line.intercept),
        growth=math.exp(line.slope),
        r_squared=line.r_squared,
    )


def geometric_mean(values: Sequence[float]) -> float:
    """Geometric mean of strictly positive values."""
    if not values:
        raise ConfigurationError("cannot take the geometric mean of an empty sample")
    if any(v <= 0 for v in values):
        raise ConfigurationError("geometric mean requires strictly positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))


# ---------------------------------------------------------------------------
# Replication statistics (multi-seed rigor)
# ---------------------------------------------------------------------------


def stable_seed(*parts: object) -> int:
    """A deterministic 63-bit seed derived from *parts* by content.

    Used to seed per-point bootstrap/permutation RNGs from textual
    labels (``stable_seed("fig3", "linpack", 16)``), so resampling is
    reproducible across processes and machines without threading a
    seed through every call site.
    """
    digest = hashlib.sha256(
        "\x1f".join(str(part) for part in parts).encode("utf-8")
    ).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def _percentile(ordered: Sequence[float], q: float) -> float:
    """Linear-interpolation percentile of an already-sorted sample."""
    if not 0.0 <= q <= 1.0:
        raise ConfigurationError(f"percentile must be in [0, 1], got {q}")
    position = q * (len(ordered) - 1)
    low = int(math.floor(position))
    high = int(math.ceil(position))
    if low == high:
        return ordered[low]
    weight = position - low
    return ordered[low] * (1.0 - weight) + ordered[high] * weight


def bootstrap_ci(
    values: Sequence[float],
    *,
    confidence: float = 0.95,
    resamples: int = 1999,
    seed: int = 0,
    statistic: Callable[[Sequence[float]], float] | None = None,
) -> tuple[float, float]:
    """Seeded percentile-bootstrap confidence interval.

    Resamples *values* with replacement ``resamples`` times, evaluates
    *statistic* (default: the mean) on each resample, and returns the
    central ``confidence`` percentile interval, widened if necessary to
    include the whole-sample statistic — so the documented invariant
    *the interval always brackets the point estimate* holds even for
    tiny skewed samples.  Deterministic given ``seed``.

    n = 1 and constant series short-circuit to the degenerate interval
    ``(value, value)``.
    """
    if not values:
        raise ConfigurationError("cannot bootstrap an empty sample")
    if not 0.0 < confidence < 1.0:
        raise ConfigurationError(
            f"confidence must be in (0, 1), got {confidence}"
        )
    if resamples < 1:
        raise ConfigurationError(f"resamples must be >= 1, got {resamples}")
    stat = statistic if statistic is not None else (
        lambda sample: sum(sample) / len(sample)
    )
    point = stat(values)
    if len(set(values)) == 1:
        # Degenerate interval, still widened to bracket the point
        # estimate: mean([v, v, v]) can land one ulp off v.
        constant = float(values[0])
        return (min(constant, point), max(constant, point))
    rng = random.Random(seed)
    n = len(values)
    estimates = sorted(
        stat([values[rng.randrange(n)] for _ in range(n)])
        for _ in range(resamples)
    )
    alpha = (1.0 - confidence) / 2.0
    low = _percentile(estimates, alpha)
    high = _percentile(estimates, 1.0 - alpha)
    return (min(low, point), max(high, point))


def _phi(z: float) -> float:
    """Standard normal CDF."""
    return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))


@dataclass(frozen=True)
class MannWhitneyResult:
    """Outcome of a two-sided Mann-Whitney U rank test."""

    u: float
    n_a: int
    n_b: int
    p_value: float


def mann_whitney(a: Sequence[float], b: Sequence[float]) -> MannWhitneyResult:
    """Two-sided Mann-Whitney U test via the tie-corrected normal
    approximation (continuity-corrected).

    Distribution-free, which matters for the bimodal timing
    distributions the paper warns about (§V-A-1): a t-test on a
    two-mode sample is meaningless, a rank test is not.  With very
    small samples (n < ~4 per side) the normal approximation cannot
    reach small p-values — by design, single runs can never be
    declared significantly different.
    """
    if not a or not b:
        raise ConfigurationError("mann_whitney needs two non-empty samples")
    n_a, n_b = len(a), len(b)
    pooled = sorted(
        [(value, 0) for value in a] + [(value, 1) for value in b]
    )
    ranks: list[float] = [0.0] * len(pooled)
    tie_term = 0.0
    index = 0
    while index < len(pooled):
        stop = index
        while stop + 1 < len(pooled) and pooled[stop + 1][0] == pooled[index][0]:
            stop += 1
        average_rank = (index + stop) / 2.0 + 1.0
        for position in range(index, stop + 1):
            ranks[position] = average_rank
        ties = stop - index + 1
        tie_term += ties**3 - ties
        index = stop + 1
    rank_sum_a = sum(
        rank for rank, (_, group) in zip(ranks, pooled) if group == 0
    )
    u = rank_sum_a - n_a * (n_a + 1) / 2.0
    mu = n_a * n_b / 2.0
    n = n_a + n_b
    variance = (n_a * n_b / 12.0) * (
        (n + 1) - tie_term / (n * (n - 1))
    ) if n > 1 else 0.0
    if variance <= 0.0:
        # Every pooled value identical: no evidence of any difference.
        return MannWhitneyResult(u=u, n_a=n_a, n_b=n_b, p_value=1.0)
    z = (abs(u - mu) - 0.5) / math.sqrt(variance)
    p = 2.0 * (1.0 - _phi(max(z, 0.0)))
    return MannWhitneyResult(
        u=u, n_a=n_a, n_b=n_b, p_value=min(1.0, max(0.0, p))
    )


@dataclass(frozen=True)
class PermutationResult:
    """Outcome of a seeded two-sided permutation test."""

    observed: float
    p_value: float
    resamples: int
    seed: int


def permutation_test(
    a: Sequence[float],
    b: Sequence[float],
    *,
    resamples: int = 999,
    seed: int = 0,
) -> PermutationResult:
    """Two-sided permutation test on the difference of means.

    Pools both samples, re-splits ``resamples`` times under the null
    (labels are exchangeable), and reports the add-one-corrected
    p-value ``(1 + #{|diff*| >= |diff|}) / (resamples + 1)`` — never
    exactly zero, deterministic given ``seed``.
    """
    if not a or not b:
        raise ConfigurationError(
            "permutation_test needs two non-empty samples"
        )
    if resamples < 1:
        raise ConfigurationError(f"resamples must be >= 1, got {resamples}")
    n_a = len(a)
    pooled = list(a) + list(b)
    observed = sum(a) / n_a - sum(b) / len(b)
    rng = random.Random(seed)
    at_least_as_extreme = 0
    for _ in range(resamples):
        rng.shuffle(pooled)
        mean_a = sum(pooled[:n_a]) / n_a
        mean_b = sum(pooled[n_a:]) / (len(pooled) - n_a)
        if abs(mean_a - mean_b) >= abs(observed):
            at_least_as_extreme += 1
    return PermutationResult(
        observed=observed,
        p_value=(1 + at_least_as_extreme) / (resamples + 1),
        resamples=resamples,
        seed=seed,
    )


@dataclass(frozen=True)
class ReplicateSummary:
    """Per-point aggregation of one multi-seed replicate series.

    This is the record every multi-seed sweep reports per point and
    the unit the ``fig3_multiseed`` golden pins: location (mean,
    median), spread (std, cv), the seeded-bootstrap confidence
    interval, and the §V-A-1 bimodality flag from
    :func:`detect_modes`.  ``values`` keeps the raw replicates in seed
    order so downstream significance tests (``repro compare``) never
    need the original runs.
    """

    count: int
    mean: float
    std: float
    cv: float
    minimum: float
    maximum: float
    median: float
    ci_low: float
    ci_high: float
    confidence: float
    bimodal: bool
    values: tuple[float, ...]

    @property
    def ci_half_width(self) -> float:
        """Half the confidence interval's width."""
        return (self.ci_high - self.ci_low) / 2.0

    def to_dict(self) -> dict[str, object]:
        """The canonical JSON-able form (sorted keys when dumped)."""
        return {
            "count": self.count,
            "mean": self.mean,
            "std": self.std,
            "cv": self.cv,
            "min": self.minimum,
            "max": self.maximum,
            "median": self.median,
            "ci": [self.ci_low, self.ci_high],
            "confidence": self.confidence,
            "bimodal": self.bimodal,
            "values": list(self.values),
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "ReplicateSummary":
        """Rebuild a summary from :meth:`to_dict` output."""
        try:
            ci = payload["ci"]
            return cls(
                count=int(payload["count"]),            # type: ignore[arg-type]
                mean=float(payload["mean"]),            # type: ignore[arg-type]
                std=float(payload["std"]),              # type: ignore[arg-type]
                cv=float(payload["cv"]),                # type: ignore[arg-type]
                minimum=float(payload["min"]),          # type: ignore[arg-type]
                maximum=float(payload["max"]),          # type: ignore[arg-type]
                median=float(payload["median"]),        # type: ignore[arg-type]
                ci_low=float(ci[0]),                    # type: ignore[index]
                ci_high=float(ci[1]),                   # type: ignore[index]
                confidence=float(payload["confidence"]),  # type: ignore[arg-type]
                bimodal=bool(payload["bimodal"]),
                values=tuple(
                    float(v) for v in payload["values"]  # type: ignore[union-attr]
                ),
            )
        except (KeyError, TypeError, ValueError, IndexError) as error:
            raise ConfigurationError(
                f"not a replicate summary: {error!r}"
            ) from error


def summarize_replicates(
    values: Sequence[float],
    *,
    confidence: float = 0.95,
    seed: int = 0,
    resamples: int = 1999,
    bimodal_ratio: float = 2.0,
) -> ReplicateSummary:
    """Aggregate one point's replicate series into a
    :class:`ReplicateSummary`.

    The interval is the seeded :func:`bootstrap_ci`; ``bimodal`` is
    :func:`is_bimodal` with the Figure-5 separation ratio.  n = 1
    yields the explicit degenerate summary (std 0, CI = (v, v)) —
    never an error, never a silently-NaN field.
    """
    if not values:
        raise ConfigurationError("cannot summarize an empty replicate series")
    stats = summarize(values)
    ci_low, ci_high = bootstrap_ci(
        values, confidence=confidence, resamples=resamples, seed=seed
    )
    return ReplicateSummary(
        count=stats.count,
        mean=float(stats.mean),
        std=float(stats.std),
        cv=float(stats.cv),
        minimum=float(stats.minimum),
        maximum=float(stats.maximum),
        median=float(stats.median),
        ci_low=float(ci_low),
        ci_high=float(ci_high),
        confidence=confidence,
        bimodal=is_bimodal(values, ratio=bimodal_ratio),
        values=tuple(float(v) for v in values),
    )


@dataclass(frozen=True)
class SampleComparison:
    """Verdict on whether two replicate series differ significantly.

    ``significant`` requires *both* the rank test and the permutation
    test to reject at ``alpha`` — a deliberately conservative AND, so
    a CI gate built on it (``repro compare``) only trips
    on drift that two independent distribution-free tests agree on.
    """

    a: ReplicateSummary
    b: ReplicateSummary
    alpha: float
    mann_whitney_p: float
    permutation_p: float

    @property
    def relative_change(self) -> float:
        """Signed relative change of the mean, b versus a."""
        if self.a.mean == self.b.mean:
            return 0.0
        if self.a.mean == 0.0:
            return math.inf
        return (self.b.mean - self.a.mean) / abs(self.a.mean)

    @property
    def significant(self) -> bool:
        """Whether both tests reject the no-difference null."""
        return (
            self.mann_whitney_p < self.alpha
            and self.permutation_p < self.alpha
        )

    def describe(self) -> str:
        verdict = "differs" if self.significant else "within noise"
        return (
            f"{self.a.mean:.6g} -> {self.b.mean:.6g} "
            f"({self.relative_change:+.2%}), "
            f"MW p={self.mann_whitney_p:.4f}, "
            f"perm p={self.permutation_p:.4f}: {verdict}"
        )


def compare_replicates(
    a: Sequence[float],
    b: Sequence[float],
    *,
    alpha: float = 0.05,
    confidence: float = 0.95,
    seed: int = 0,
    resamples: int = 999,
) -> SampleComparison:
    """Compare two replicate series with both significance tests.

    With single-run "series" (n = 1 on either side) neither test can
    reject, so the comparison honestly reports *within noise* — the
    paper's point that one run proves nothing, made executable.
    """
    if not 0.0 < alpha < 1.0:
        raise ConfigurationError(f"alpha must be in (0, 1), got {alpha}")
    return SampleComparison(
        a=summarize_replicates(a, confidence=confidence, seed=seed),
        b=summarize_replicates(b, confidence=confidence, seed=seed),
        alpha=alpha,
        mann_whitney_p=mann_whitney(a, b).p_value,
        permutation_p=permutation_test(
            a, b, resamples=resamples, seed=seed
        ).p_value,
    )
