"""Tests for repro.core.artifacts (JSON record export)."""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.artifacts import (
    measurements_from_records,
    measurements_to_records,
)
from repro.core.measurement import MeasurementSet
from repro.errors import ConfigurationError


def _sample_set() -> MeasurementSet:
    results = MeasurementSet()
    results.record("bandwidth", 1.5e9, array_bytes=1024, stride=1)
    results.record("bandwidth", 0.9e9, array_bytes=2048, stride=1)
    results.record("latency", 42.0, array_bytes=1024)
    return results


def _json_roundtrip(results: MeasurementSet) -> MeasurementSet:
    """Records through JSON text and back, as a cache entry holds them."""
    text = json.dumps(measurements_to_records(results))
    return measurements_from_records(json.loads(text))


class TestJsonRoundtrip:
    def test_roundtrip_preserves_everything(self):
        original = _sample_set()
        back = _json_roundtrip(original)
        assert len(back) == len(original)
        for a, b in zip(original, back):
            assert a.metric == b.metric
            assert a.value == b.value
            assert dict(a.factors) == dict(b.factors)
            assert a.sequence == b.sequence

    def test_malformed_json_rejected(self):
        with pytest.raises(ConfigurationError):
            measurements_from_records(json.loads('{"a": 1}'))
        with pytest.raises(ConfigurationError):
            measurements_from_records(json.loads('[{"metric": "x"}]'))

    @settings(max_examples=25, deadline=None)
    @given(st.lists(
        st.tuples(st.sampled_from(["bw", "lat"]),
                  st.floats(-1e9, 1e9, allow_nan=False),
                  st.integers(0, 10_000)),
        min_size=1, max_size=20,
    ))
    def test_property_json_roundtrip(self, rows):
        original = MeasurementSet()
        for metric, value, factor in rows:
            original.record(metric, value, size=factor)
        back = _json_roundtrip(original)
        assert [s.value for s in back] == [s.value for s in original]
