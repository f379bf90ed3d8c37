"""Experiment methodology layer.

The paper's central methodological lesson (§V) is that benchmarking on
low-power ARM platforms requires *systematic, randomized* experiment
design: physical page allocation and scheduler anomalies make naive
measurement loops unreproducible.  This package provides the pieces the
rest of the library builds on:

* :mod:`repro.core.measurement` — sample containers,
* :mod:`repro.core.stats` — summary statistics, bootstrap confidence
  intervals, bimodal-mode detection and least-squares fits,
* :mod:`repro.core.experiment` — randomized factorial experiment plans
  (the §V-A protocol :class:`repro.kernels.MemBench` runs),
* :mod:`repro.core.artifacts` — measurement sets to and from JSON
  records,
* :mod:`repro.core.report` — ASCII tables and series for regenerating
  the paper's artefacts.

Sweeps themselves run through :class:`repro.engine.ExperimentEngine`.
"""

from repro.core.artifacts import (
    measurements_from_records,
    measurements_to_records,
)
from repro.core.experiment import ExperimentPlan, Factor, Trial
from repro.core.measurement import MeasurementSet, Sample
from repro.core.stats import (
    SummaryStats,
    detect_modes,
    exponential_fit,
    linear_fit,
    summarize,
)
from repro.core.report import Table, render_series, render_table

__all__ = [
    "ExperimentPlan",
    "Factor",
    "MeasurementSet",
    "Sample",
    "SummaryStats",
    "Table",
    "Trial",
    "detect_modes",
    "exponential_fit",
    "linear_fit",
    "measurements_from_records",
    "measurements_to_records",
    "render_series",
    "render_table",
    "summarize",
]
