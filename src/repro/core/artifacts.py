"""Artifact export: measurement sets to and from JSON.

:func:`repro.engine.sweeps.variant_grid_point` caches its measurement
sets through this round trip.
"""

from __future__ import annotations

import json

from repro.core.measurement import MeasurementSet
from repro.errors import ConfigurationError


def measurements_to_json(results: MeasurementSet) -> str:
    """Render a measurement set as a JSON list of sample objects."""
    if len(results) == 0:
        raise ConfigurationError("cannot export an empty measurement set")
    payload = [
        {
            "sequence": sample.sequence,
            "metric": sample.metric,
            "value": sample.value,
            "factors": dict(sample.factors),
        }
        for sample in results
    ]
    return json.dumps(payload, indent=2, default=str)


def measurements_from_json(text: str) -> MeasurementSet:
    """Parse :func:`measurements_to_json` output back into a set."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as error:
        raise ConfigurationError(f"malformed measurement JSON: {error}") from error
    if not isinstance(payload, list):
        raise ConfigurationError("measurement JSON must be a list")
    results = MeasurementSet()
    for entry in payload:
        try:
            results.record(entry["metric"], float(entry["value"]),
                           **entry.get("factors", {}))
        except (KeyError, TypeError, ValueError) as error:
            raise ConfigurationError(f"malformed sample {entry!r}") from error
    return results
