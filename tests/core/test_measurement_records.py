"""Measurement sets as JSON records: what the fig5/fig6 points cache."""

import enum
import json

import pytest

from repro.core.artifacts import (
    measurements_from_records,
    measurements_to_records,
)
from repro.core.measurement import MeasurementSet
from repro.errors import ConfigurationError


def test_records_survive_a_json_round_trip():
    original = MeasurementSet()
    original.record("bandwidth", 1.5e9, array_bytes=1024, degraded=False)
    original.record("bandwidth", 0.9e9, array_bytes=2048, degraded=True)
    records = json.loads(json.dumps(measurements_to_records(original)))
    back = measurements_from_records(records)
    assert [(s.metric, s.value, dict(s.factors), s.sequence) for s in back] == [
        (s.metric, s.value, dict(s.factors), s.sequence) for s in original
    ]


def test_non_json_factor_levels_are_kept_as_their_str():
    class Policy(enum.Enum):
        FIFO = "fifo"

    results = MeasurementSet()
    results.record("bandwidth", 1.0, policy=Policy.FIFO, shape=(2, 3))
    records = measurements_to_records(results)
    assert records[0]["factors"] == {"policy": "Policy.FIFO", "shape": [2, 3]}


@pytest.mark.parametrize("records", [
    {"metric": "x", "value": 1.0},
    [{"metric": "x"}],
    ["not a record"],
    [{"metric": "x", "value": "fast"}],
])
def test_malformed_records_are_rejected(records):
    with pytest.raises(ConfigurationError):
        measurements_from_records(records)
