"""Tests for repro.kernels.counters."""

import pytest

from repro.errors import ConfigurationError
from repro.kernels.counters import SUPPORTED_EVENTS, CounterSet


class TestCounterSet:
    def test_record_and_read(self):
        counters = CounterSet()
        counters.record("PAPI_TOT_CYC", 100.0)
        counters.record("PAPI_TOT_CYC", 50.0)
        assert counters.read("PAPI_TOT_CYC") == 150.0

    def test_unknown_event_rejected(self):
        counters = CounterSet()
        with pytest.raises(ConfigurationError):
            counters.record("PAPI_MADE_UP", 1.0)
        with pytest.raises(ConfigurationError):
            counters.read("PAPI_MADE_UP")

    def test_uncollected_event_rejected(self):
        with pytest.raises(ConfigurationError, match="not collected"):
            CounterSet().read("PAPI_TOT_CYC")

    def test_negative_increment_rejected(self):
        with pytest.raises(ConfigurationError):
            CounterSet().record("PAPI_TOT_CYC", -1.0)

    def test_shorthands(self):
        counters = CounterSet({"PAPI_TOT_CYC": 10.0, "PAPI_L1_DCA": 4.0})
        assert counters.cycles == 10.0
        assert counters.cache_accesses == 4.0

    def test_per_normalization(self):
        counters = CounterSet({"PAPI_TOT_CYC": 100.0})
        assert counters.per(50).cycles == 2.0
        with pytest.raises(ConfigurationError):
            counters.per(0)

    def test_collected_lists_events(self):
        counters = CounterSet({"PAPI_TOT_CYC": 1.0})
        assert counters.collected() == ("PAPI_TOT_CYC",)

    def test_all_supported_events_accepted(self):
        counters = CounterSet()
        for event in SUPPORTED_EVENTS:
            counters.record(event, 1.0)
        assert len(counters.collected()) == len(SUPPORTED_EVENTS)
