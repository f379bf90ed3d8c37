"""The windowed buddy allocator behaves exactly like the eager one.

``benchmarks/_legacy_alloc.py`` freezes the allocator whose
``fragment`` drew every frame of the pool before the first allocation.
The current one draws a window of ``2**max_order`` frames only when an
allocation, a free or a count reaches it.  Each example boots both on
the same pool, churn and seed, replays one random sequence of
allocations and frees, and compares what every step returned: the
frames, or the type of the error.  Messages are not compared, because
the out-of-memory message changed on purpose.

``free_frames`` is read only after the last step.  Reading it lays out
every window, which would hide a laziness bug in the steps before it.
"""

import random
import sys
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, strategies as st

from repro.errors import AllocationError
from repro.osmodel.page_allocator import BuddyAllocator, PageAllocation

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "benchmarks"))

from _legacy_alloc import BuddyAllocator as EagerBuddyAllocator  # noqa: E402


@st.composite
def scenarios(draw):
    max_order = draw(st.sampled_from([0, 3, 10]))
    window = 1 << max_order
    total_frames = draw(st.one_of(
        st.integers(1, window),  # at most one window
        st.integers(1, 4 * window + 100),  # mostly not a multiple of one
    ))
    churn = draw(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)))
    seed = draw(st.integers(0, 2**16))
    # Mostly small requests, which leave windows undrawn between steps;
    # up to twice the pool, so that some requests run out of memory.
    pages = st.one_of(st.integers(1, 8), st.integers(1, 2 * total_frames))
    operations = draw(st.lists(
        st.one_of(
            st.tuples(st.just("allocate"), pages),
            st.tuples(st.just("free"), st.integers(0, 63)),
            # Any frame, pinned, allocated or free: an error or not, both
            # allocators must agree.
            st.tuples(st.just("free-frame"), st.integers(0, total_frames - 1)),
            # A freed frame must wait behind the boot blocks not drawn yet.
            st.tuples(st.just("allocate-free"), st.integers(1, 8)),
        ),
        min_size=10,
        max_size=60,
    ))
    return max_order, total_frames, churn, seed, operations


def replay(allocator_cls, max_order, total_frames, churn, seed, operations):
    allocator = allocator_cls(total_frames, max_order=max_order)
    allocator.fragment(churn, random.Random(seed))
    live: list[PageAllocation] = []
    outcomes = []
    for kind, argument in operations:
        try:
            if kind == "allocate":
                allocation = allocator.allocate(argument)
                live.append(allocation)
                outcomes.append(allocation.frames)
            elif kind == "allocate-free":
                allocation = allocator.allocate(argument)
                allocator.free(allocation)
                outcomes.append(allocation.frames)
            elif kind == "free":
                if live:
                    allocator.free(live.pop(argument % len(live)))
                outcomes.append("freed")
            else:
                allocator.free(PageAllocation((argument,), allocator.page_size))
                outcomes.append("freed")
        except AllocationError as error:
            outcomes.append(type(error).__name__)
    outcomes.append(allocator.free_frames)
    return outcomes


@given(scenarios())
def test_windowed_allocator_matches_the_eager_one(scenario):
    assert replay(BuddyAllocator, *scenario) == replay(
        EagerBuddyAllocator, *scenario
    )
