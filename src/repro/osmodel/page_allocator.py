"""Simulated physical page allocation.

The paper's §V-A-1 finding, in the authors' words: "In some cases,
nonconsecutive pages in physical memory for array size around 32KB
(the size of L1 cache) are allocated, which causes much more cache
misses [...].  Furthermore, during one experiment run, OS was likely to
reuse the same pages, as we did malloc/free repeatedly for each array."

Two pieces model this:

* :class:`BuddyAllocator` — a binary-buddy physical frame allocator.
  On a freshly booted (unfragmented) system it returns consecutive
  frames; after churn (:meth:`BuddyAllocator.fragment`) allocations of
  several pages are scattered, exactly the run-to-run difference the
  paper observed.
* :class:`ReusingPageAllocator` — wraps any allocator with a per-size
  quick-list so a ``free`` followed by an equal-sized ``allocate``
  returns the *same frames*, reproducing the paper's within-run
  stability ("array started from the same physical memory location for
  each set of measurements").
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass

from repro.errors import AllocationError, ConfigurationError


class AllocationPattern(enum.Enum):
    """Qualitative shape of a multi-page allocation."""

    CONSECUTIVE = "consecutive"
    FRAGMENTED = "fragmented"


@dataclass(frozen=True)
class PageAllocation:
    """A set of physical frames backing one virtual allocation.

    ``frames[i]`` is the physical frame number of the i-th virtual
    page.
    """

    frames: tuple[int, ...]
    page_size: int

    def __post_init__(self) -> None:
        if not self.frames:
            raise ConfigurationError("an allocation needs at least one frame")
        if len(set(self.frames)) != len(self.frames):
            raise AllocationError(f"duplicate frames in allocation: {self.frames}")

    @property
    def num_pages(self) -> int:
        """Number of pages in the allocation."""
        return len(self.frames)

    @property
    def pattern(self) -> AllocationPattern:
        """CONSECUTIVE iff the frames are strictly sequential."""
        consecutive = all(
            b == a + 1 for a, b in zip(self.frames, self.frames[1:])
        )
        return (
            AllocationPattern.CONSECUTIVE
            if consecutive
            else AllocationPattern.FRAGMENTED
        )

    def physical_address(self, virtual_offset: int) -> int:
        """Translate a byte offset within the allocation to a physical
        byte address."""
        if virtual_offset < 0 or virtual_offset >= self.num_pages * self.page_size:
            raise AllocationError(
                f"offset {virtual_offset} outside allocation of "
                f"{self.num_pages} pages"
            )
        page_index, page_offset = divmod(virtual_offset, self.page_size)
        return self.frames[page_index] * self.page_size + page_offset


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

    Each order's free list is kept in two insertion-ordered parts: the
    *boot* blocks laid out when the pool was set up, in ascending
    address order, then the *later* blocks made by splits and frees.
    A fragmented pool is laid out one window of ``2**max_order`` frames
    at a time, only when an allocation, a free or a count reaches it
    (see :meth:`fragment`).
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
        # _boot[order] / _later[order] hold base frames of free blocks of
        # 2**order pages; the order's free list is _boot then _later.
        self._boot: list[_OrderedSet] = [
            _OrderedSet() for _ in range(max_order + 1)
        ]
        self._later: list[_OrderedSet] = [
            _OrderedSet() for _ in range(max_order + 1)
        ]
        # Allocated and pinned frames of the windows laid out so far.
        self._allocated: set[int] = set()
        # The pool below _drawn is laid out; fragment() draws the rest.
        self._drawn = total_frames
        self._rng: random.Random | None = None
        self._pinned_fraction = 0.0
        self._cover_range(0, total_frames)

    def _cover_range(self, start: int, end: int) -> None:
        """Cover ``[start, end)`` with maximal aligned boot blocks."""
        frame = start
        while frame < end:
            # The largest order that both the frame's alignment and the
            # room left in the range allow.
            order = min(
                self.max_order,
                (end - frame).bit_length() - 1,
                (frame & -frame).bit_length() - 1 if frame else self.max_order,
            )
            self._boot[order].add(frame)
            frame += 1 << order

    def _draw_window(self) -> None:
        """Pin the next window's frames, one draw per frame in ascending
        order, and cover its free runs with boot blocks.

        No buddy block crosses a window boundary, so covering the pool
        window by window lays out the same blocks, in the same order, as
        covering it at once.
        """
        start = self._drawn
        end = min(start + (1 << self.max_order), self.total_frames)
        draw, pinned_fraction = self._rng.random, self._pinned_fraction
        run_start = start
        for frame in range(start, end):
            if draw() < pinned_fraction:
                self._allocated.add(frame)
                self._cover_range(run_start, frame)
                run_start = frame + 1
        self._cover_range(run_start, end)
        self._drawn = end

    def _draw_to(self, frame_count: int) -> None:
        """Lay out windows until the first *frame_count* frames are."""
        while self._drawn < min(frame_count, self.total_frames):
            self._draw_window()

    @property
    def free_frames(self) -> int:
        """Number of currently free frames (lays out the whole pool)."""
        self._draw_to(self.total_frames)
        return self.total_frames - len(self._allocated)

    def _take_block(self, order: int) -> int | None:
        """Pop the front of *order*'s free list, or None if it is empty.

        The front is the lowest boot block, which may sit in a window
        not yet laid out; only when no boot block of this order is left
        anywhere is it the oldest later block.
        """
        boot = self._boot[order]
        while not boot and self._drawn < self.total_frames:
            self._draw_window()
        if boot:
            return boot.pop_front()
        later = self._later[order]
        return later.pop_front() if later else None

    def _take_frame(self) -> int | None:
        """One frame from the smallest free block, splitting it down."""
        for order in range(self.max_order + 1):
            base = self._take_block(order)
            if base is not None:
                while order > 0:
                    order -= 1
                    self._later[order].add(base + (1 << order))
                return base
        return None

    def allocate(self, num_pages: int) -> PageAllocation:
        """Allocate *num_pages* frames, one order-0 block per page.

        Mirrors anonymous user memory: each page fault grabs one frame,
        so contiguity depends entirely on free-pool state.
        """
        if num_pages <= 0:
            raise ConfigurationError(f"num_pages must be positive, got {num_pages}")
        frames: list[int] = []
        for _ in range(num_pages):
            frame = self._take_frame()
            if frame is None:
                for taken in frames:
                    self._free_frame(taken)
                raise AllocationError(
                    f"out of physical memory: {num_pages} pages requested, "
                    f"{self.free_frames} frames free"
                )
            self._allocated.add(frame)
            frames.append(frame)
        return PageAllocation(frames=tuple(frames), page_size=self.page_size)

    def _free_frame(self, frame: int) -> None:
        # A pinned frame may be freed too, so lay out its window first.
        self._draw_to(frame + 1)
        if frame not in self._allocated:
            raise AllocationError(f"double free of frame {frame}")
        self._allocated.remove(frame)
        # Coalesce with the buddy while possible; a buddy shares the
        # frame's window, so it is laid out already.
        order = 0
        base = frame
        while order < self.max_order:
            buddy = base ^ (1 << order)
            if buddy in self._boot[order]:
                self._boot[order].discard(buddy)
            elif buddy in self._later[order]:
                self._later[order].discard(buddy)
            else:
                break
            base = min(base, buddy)
            order += 1
        self._later[order].add(base)

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

        Each frame takes one ``rng.random()`` draw, in ascending frame
        order, but a window of ``2**max_order`` frames is drawn only
        when it is first needed.  So *rng* must be private to this
        allocator, and a boot costs what its allocations touch rather
        than the size of the machine.
        """
        if not 0.0 <= churn <= 1.0:
            raise ConfigurationError(f"churn must be in [0, 1], got {churn}")
        self._draw_to(self.total_frames)
        if self._allocated:
            raise AllocationError("fragment() must run before any allocation")
        if churn == 0.0:
            return
        self._boot = [_OrderedSet() for _ in range(self.max_order + 1)]
        self._later = [_OrderedSet() for _ in range(self.max_order + 1)]
        self._drawn = 0
        self._rng = rng
        self._pinned_fraction = 0.45 * churn


class ReusingPageAllocator:
    """Quick-list wrapper reproducing the paper's within-run page reuse.

    A freed allocation is cached by page count; the next request of the
    same size gets the identical frames back.  Consequence (observed in
    the paper): samples *within* a run share one physical layout — good
    or bad — while different runs (different allocator states) diverge.
    """

    def __init__(self, backing: BuddyAllocator) -> None:
        self._backing = backing
        self._quick_lists: dict[int, list[PageAllocation]] = {}

    @property
    def page_size(self) -> int:
        """Page size of the backing allocator."""
        return self._backing.page_size

    def allocate(self, num_pages: int) -> PageAllocation:
        """Allocate, preferring a cached same-size allocation."""
        cached = self._quick_lists.get(num_pages)
        if cached:
            return cached.pop()
        return self._backing.allocate(num_pages)

    def free(self, allocation: PageAllocation) -> None:
        """Cache the allocation for reuse instead of really freeing it."""
        self._quick_lists.setdefault(allocation.num_pages, []).append(allocation)

    def drain(self) -> None:
        """Really release all cached allocations (end of process)."""
        for cached in self._quick_lists.values():
            for allocation in cached:
                self._backing.free(allocation)
        self._quick_lists.clear()


def boot_allocator(
    total_frames: int,
    *,
    page_size: int = 4096,
    fragmentation: float = 0.0,
    seed: int = 0,
) -> ReusingPageAllocator:
    """Build the allocator state of one 'booted system' (one run).

    ``fragmentation`` in [0, 1] controls how churned the free pool is;
    the seed makes each simulated boot reproducible.  Different seeds
    model the paper's run-to-run divergence.
    """
    backing = BuddyAllocator(total_frames, page_size=page_size)
    backing.fragment(fragmentation, random.Random(seed))
    return ReusingPageAllocator(backing)
