"""Artifact export: measurement sets to and from JSON records.

:func:`repro.engine.sweeps.fig5_point` and
:func:`~repro.engine.sweeps.variant_grid_point` cache their
measurement sets as :func:`measurements_to_records`' plain list, so a
cache read parses them once.
"""

from __future__ import annotations

import json
from typing import Any

from repro.core.measurement import MeasurementSet
from repro.errors import ConfigurationError


def _jsonable(level: Any) -> Any:
    """A factor level as ``json.dumps(..., default=str)`` writes it."""
    if level is None or isinstance(level, (str, int, float)):
        return level
    return json.loads(json.dumps(level, default=str))


def measurements_to_records(results: MeasurementSet) -> list[dict[str, Any]]:
    """A measurement set as a JSON-able list of sample records; a
    factor level JSON cannot hold is kept as its ``str()``."""
    if len(results) == 0:
        raise ConfigurationError("cannot export an empty measurement set")
    return [
        {
            "sequence": sample.sequence,
            "metric": sample.metric,
            "value": sample.value,
            "factors": {
                name: _jsonable(level) for name, level in sample.factors.items()
            },
        }
        for sample in results
    ]


def measurements_from_records(records: Any) -> MeasurementSet:
    """Rebuild a set from :func:`measurements_to_records` output."""
    if not isinstance(records, list):
        raise ConfigurationError("measurement records must be a list")
    results = MeasurementSet()
    for entry in records:
        try:
            results.record(entry["metric"], float(entry["value"]),
                           **entry.get("factors", {}))
        except (KeyError, TypeError, ValueError, AttributeError) as error:
            raise ConfigurationError(f"malformed sample {entry!r}") from error
    return results
