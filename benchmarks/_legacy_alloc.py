"""Frozen eager buddy allocator, kept as oracle and benchmark baseline.

This is ``repro.osmodel.page_allocator.BuddyAllocator`` exactly as it
shipped before the pool became windowed: ``fragment`` draws one
``rng.random()`` for every frame of the machine, builds the pinned and
free sets and sorts every free frame, all before the first allocation.
``tests/properties/test_page_allocator_equivalence.py`` checks the
current allocator against it operation by operation, and
``benchmarks/bench_core.py`` times a fragmented boot on both and
records the ``osmodel_boot`` speedup ratio.  Do not modernize this
file; its eager boot is the baseline.
"""

from __future__ import annotations

import random

from repro.errors import AllocationError, ConfigurationError
from repro.osmodel.page_allocator import PageAllocation


class _OrderedSet:
    """Insertion-ordered set with O(1) add / remove / pop-front.

    Backed by a dict; used for the buddy free lists so coalescing stays
    O(1) even with hundreds of thousands of frames.
    """

    def __init__(self) -> None:
        self._items: dict[int, None] = {}

    def __len__(self) -> int:
        return len(self._items)

    def __contains__(self, item: int) -> bool:
        return item in self._items

    def add(self, item: int) -> None:
        self._items[item] = None

    def discard(self, item: int) -> None:
        self._items.pop(item, None)

    def pop_front(self) -> int:
        item = next(iter(self._items))
        del self._items[item]
        return item


class BuddyAllocator:
    """Binary-buddy allocator over a physical frame pool.

    Single-page requests are served from the free lists lowest-order
    first; multi-page user allocations are composed page by page (as
    anonymous mmap does), so they are consecutive only when the free
    pool happens to be.
    """

    def __init__(
        self, total_frames: int, *, page_size: int = 4096, max_order: int = 10
    ) -> None:
        if total_frames <= 0:
            raise ConfigurationError(
                f"total_frames must be positive, got {total_frames}"
            )
        if page_size <= 0 or page_size & (page_size - 1):
            raise ConfigurationError(
                f"page_size must be a power of two, got {page_size}"
            )
        if max_order < 0:
            raise ConfigurationError(f"max_order must be >= 0, got {max_order}")
        self.total_frames = total_frames
        self.page_size = page_size
        self.max_order = max_order
        # free_lists[order] holds base frames of free blocks of 2**order pages.
        self._free_lists: list[_OrderedSet] = [
            _OrderedSet() for _ in range(max_order + 1)
        ]
        self._allocated: set[int] = set()
        self._rebuild_free_lists(free_frames=None)

    def _rebuild_free_lists(self, free_frames: set[int] | None) -> None:
        """Greedily cover the free frames with maximal buddy blocks.

        ``free_frames=None`` means every frame is free (fresh boot).
        """
        self._free_lists = [_OrderedSet() for _ in range(self.max_order + 1)]
        if free_frames is None:
            self._cover_range(0, self.total_frames)
            return
        # Find maximal runs of consecutive free frames, cover each with
        # aligned buddy blocks.
        ordered = sorted(free_frames)
        index = 0
        while index < len(ordered):
            start = ordered[index]
            end = start + 1
            index += 1
            while index < len(ordered) and ordered[index] == end:
                end += 1
                index += 1
            self._cover_range(start, end)

    def _cover_range(self, start: int, end: int) -> None:
        """Cover ``[start, end)`` with maximal aligned buddy blocks."""
        frame = start
        while frame < end:
            order = self.max_order
            while order > 0 and (
                frame % (1 << order) != 0 or frame + (1 << order) > end
            ):
                order -= 1
            self._free_lists[order].add(frame)
            frame += 1 << order

    @property
    def free_frames(self) -> int:
        """Number of currently free frames."""
        return self.total_frames - len(self._allocated)

    def _split_down(self, order: int, target: int) -> int:
        """Split a free block of *order* down to *target*, returning the base."""
        base = self._free_lists[order].pop_front()
        while order > target:
            order -= 1
            buddy = base + (1 << order)
            self._free_lists[order].add(buddy)
        return base

    def _allocate_block(self, order: int) -> int:
        for available in range(order, self.max_order + 1):
            if len(self._free_lists[available]):
                return self._split_down(available, order)
        raise AllocationError(
            f"out of physical memory: no free block of order {order} "
            f"({self.free_frames} frames free, but fragmented)"
        )

    def allocate(self, num_pages: int) -> PageAllocation:
        """Allocate *num_pages* frames, one order-0 block per page.

        Mirrors anonymous user memory: each page fault grabs one frame,
        so contiguity depends entirely on free-pool state.
        """
        if num_pages <= 0:
            raise ConfigurationError(f"num_pages must be positive, got {num_pages}")
        frames: list[int] = []
        try:
            for _ in range(num_pages):
                frame = self._allocate_block(0)
                self._allocated.add(frame)
                frames.append(frame)
        except AllocationError:
            for frame in frames:
                self._free_frame(frame)
            raise
        return PageAllocation(frames=tuple(frames), page_size=self.page_size)

    def _free_frame(self, frame: int) -> None:
        if frame not in self._allocated:
            raise AllocationError(f"double free of frame {frame}")
        self._allocated.remove(frame)
        # Coalesce with the buddy while possible.
        order = 0
        base = frame
        while order < self.max_order:
            buddy = base ^ (1 << order)
            if buddy in self._free_lists[order]:
                self._free_lists[order].discard(buddy)
                base = min(base, buddy)
                order += 1
            else:
                break
        self._free_lists[order].add(base)

    def free(self, allocation: PageAllocation) -> None:
        """Return an allocation's frames to the free pool."""
        for frame in allocation.frames:
            self._free_frame(frame)

    def fragment(self, churn: float, rng: random.Random) -> None:
        """Fragment the free pool by pinning random frames as allocated.

        Models a system that has run for a while: a ``0.45 * churn``
        fraction of frames is held by other processes and the page
        cache, scattered uniformly, so runs of free frames are short
        and multi-page allocations come out non-consecutive.
        ``churn=0`` leaves the allocator pristine.  Must be called
        before any allocation.
        """
        if not 0.0 <= churn <= 1.0:
            raise ConfigurationError(f"churn must be in [0, 1], got {churn}")
        if self._allocated:
            raise AllocationError("fragment() must run before any allocation")
        if churn == 0.0:
            return
        pinned_fraction = 0.45 * churn
        pinned = {
            frame
            for frame in range(self.total_frames)
            if rng.random() < pinned_fraction
        }
        self._allocated = pinned
        free = set(range(self.total_frames)) - pinned
        self._rebuild_free_lists(free_frames=free)
