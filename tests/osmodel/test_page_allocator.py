"""Tests for repro.osmodel.page_allocator (§V-A-1 substrate)."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.arch import SNOWBALL_A9500
from repro.engine.sweeps import page_alloc_point
from repro.errors import AllocationError, ConfigurationError
from repro.osmodel.page_allocator import (
    AllocationPattern,
    BuddyAllocator,
    PageAllocation,
    ReusingPageAllocator,
    boot_allocator,
)
from repro.osmodel.system import OSModel


class TestPageAllocation:
    def test_consecutive_pattern(self):
        alloc = PageAllocation(frames=(4, 5, 6), page_size=4096)
        assert alloc.pattern is AllocationPattern.CONSECUTIVE

    def test_fragmented_pattern(self):
        alloc = PageAllocation(frames=(4, 9, 6), page_size=4096)
        assert alloc.pattern is AllocationPattern.FRAGMENTED

    def test_physical_address_translation(self):
        alloc = PageAllocation(frames=(10, 3), page_size=4096)
        assert alloc.physical_address(0) == 10 * 4096
        assert alloc.physical_address(4096 + 7) == 3 * 4096 + 7

    def test_out_of_range_offset_rejected(self):
        alloc = PageAllocation(frames=(1,), page_size=4096)
        with pytest.raises(AllocationError):
            alloc.physical_address(4096)

    def test_duplicate_frames_rejected(self):
        with pytest.raises(AllocationError):
            PageAllocation(frames=(1, 1), page_size=4096)


class TestBuddyAllocator:
    def test_fresh_boot_allocates_consecutive(self):
        """Pristine free pool -> consecutive frames (the 'good' runs)."""
        buddy = BuddyAllocator(1024)
        alloc = buddy.allocate(13)
        assert alloc.pattern is AllocationPattern.CONSECUTIVE
        assert alloc.frames[0] == 0

    def test_fragmented_boot_scatters(self):
        """Churned free pool -> non-consecutive frames (the 'bad' runs)."""
        buddy = BuddyAllocator(4096)
        buddy.fragment(0.8, random.Random(3))
        alloc = buddy.allocate(13)
        assert alloc.pattern is AllocationPattern.FRAGMENTED

    def test_free_returns_frames(self):
        buddy = BuddyAllocator(64)
        before = buddy.free_frames
        alloc = buddy.allocate(8)
        assert buddy.free_frames == before - 8
        buddy.free(alloc)
        assert buddy.free_frames == before

    def test_double_free_detected(self):
        buddy = BuddyAllocator(64)
        alloc = buddy.allocate(2)
        buddy.free(alloc)
        with pytest.raises(AllocationError):
            buddy.free(alloc)

    def test_exhaustion_raises_and_rolls_back(self):
        buddy = BuddyAllocator(16)
        buddy.allocate(10)
        free_before = buddy.free_frames
        with pytest.raises(AllocationError):
            buddy.allocate(7)
        assert buddy.free_frames == free_before  # partial grab rolled back

    def test_coalescing_restores_large_blocks(self):
        buddy = BuddyAllocator(1024)
        allocations = [buddy.allocate(1) for _ in range(1024)]
        for alloc in allocations:
            buddy.free(alloc)
        big = buddy.allocate(1024)
        assert big.pattern is AllocationPattern.CONSECUTIVE

    def test_fragment_after_allocation_rejected(self):
        buddy = BuddyAllocator(64)
        buddy.allocate(1)
        with pytest.raises(AllocationError):
            buddy.fragment(0.5, random.Random(0))

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ConfigurationError):
            BuddyAllocator(0)
        with pytest.raises(ConfigurationError):
            BuddyAllocator(64, page_size=3000)
        with pytest.raises(ConfigurationError):
            BuddyAllocator(64).allocate(0)
        with pytest.raises(ConfigurationError):
            BuddyAllocator(64).fragment(1.5, random.Random(0))

    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(64, 512),
        st.lists(st.integers(1, 16), min_size=1, max_size=12),
        st.floats(0.0, 0.9),
        st.integers(0, 10),
    )
    def test_property_no_frame_allocated_twice(self, frames, sizes, churn, seed):
        buddy = BuddyAllocator(frames)
        buddy.fragment(churn, random.Random(seed))
        live: set[int] = set()
        for size in sizes:
            try:
                alloc = buddy.allocate(size)
            except AllocationError:
                break
            overlap = live & set(alloc.frames)
            assert not overlap, f"frames {overlap} handed out twice"
            live |= set(alloc.frames)
            assert all(0 <= f < frames for f in alloc.frames)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(64, 512), st.integers(0, 5))
    def test_property_alloc_free_preserves_frame_count(self, frames, seed):
        buddy = BuddyAllocator(frames)
        rng = random.Random(seed)
        allocations = []
        for _ in range(10):
            try:
                allocations.append(buddy.allocate(rng.randint(1, 8)))
            except AllocationError:
                break
        rng.shuffle(allocations)
        for alloc in allocations:
            buddy.free(alloc)
        assert buddy.free_frames == frames


class TestReusingPageAllocator:
    def test_same_size_gets_same_frames_back(self):
        """The paper's within-run quirk: 'OS was likely to reuse the
        same pages, as we did malloc/free repeatedly'."""
        reusing = ReusingPageAllocator(BuddyAllocator(1024))
        first = reusing.allocate(8)
        reusing.free(first)
        second = reusing.allocate(8)
        assert second.frames == first.frames

    def test_different_size_misses_the_quick_list(self):
        reusing = ReusingPageAllocator(BuddyAllocator(1024))
        first = reusing.allocate(8)
        reusing.free(first)
        other = reusing.allocate(4)
        assert other.frames != first.frames

    def test_drain_releases_to_backing(self):
        backing = BuddyAllocator(64)
        reusing = ReusingPageAllocator(backing)
        alloc = reusing.allocate(8)
        reusing.free(alloc)
        assert backing.free_frames == 64 - 8  # still held by quick list
        reusing.drain()
        assert backing.free_frames == 64


class TestBootAllocator:
    def test_seeded_boots_are_reproducible(self):
        a = boot_allocator(2048, fragmentation=0.7, seed=9).allocate(13)
        b = boot_allocator(2048, fragmentation=0.7, seed=9).allocate(13)
        assert a.frames == b.frames

    def test_different_seeds_give_different_layouts(self):
        """Run-to-run divergence: same experiment, different physical
        placement — the §V-A-1 irreproducibility."""
        layouts = {
            boot_allocator(2048, fragmentation=0.7, seed=s).allocate(13).frames
            for s in range(5)
        }
        assert len(layouts) > 1

    def test_zero_fragmentation_always_consecutive(self):
        for seed in range(3):
            alloc = boot_allocator(2048, fragmentation=0.0, seed=seed).allocate(13)
            assert alloc.pattern is AllocationPattern.CONSECUTIVE


class CountingRandom(random.Random):
    """A Random that counts its ``random()`` draws."""

    def __init__(self, seed):
        super().__init__(seed)
        self.draws = 0

    def random(self):
        self.draws += 1
        return super().random()


SNOWBALL_FRAMES = SNOWBALL_A9500.memory.total_bytes // SNOWBALL_A9500.page_size

#: Frames of the 8-page (32 KiB) array of each X1 boot: the Snowball at
#: fragmentation 0.85, seeds 0-5, as the eager allocator laid them out.
X1_FRAMES = [
    (2, 6, 13, 14, 21, 24, 33, 34),
    (1, 2, 12, 17, 18, 21, 22, 25),
    (6, 10, 18, 22, 25, 34, 43, 44),
    (1, 3, 4, 7, 14, 20, 36, 42),
    (2, 5, 8, 10, 15, 18, 21, 24),
    (7, 10, 12, 19, 20, 22, 24, 27),
]


class TestWindowedPool:
    """A fragmented pool is drawn one window of 2**max_order frames at a
    time, only where allocations reach, with the eager pool's result."""

    @pytest.mark.parametrize("seed", range(6))
    def test_x1_boots_keep_their_frames(self, seed):
        os_model = OSModel.boot(SNOWBALL_A9500, fragmentation=0.85, seed=seed)
        assert os_model.allocator.allocate(8).frames == X1_FRAMES[seed]

    def test_x1_boot_draws_one_window(self):
        rng = CountingRandom(0)
        buddy = BuddyAllocator(SNOWBALL_FRAMES)
        buddy.fragment(0.85, rng)
        assert rng.draws == 0
        assert buddy.allocate(8).frames == X1_FRAMES[0]
        assert rng.draws == 1024  # the eager pool drew all 203,776

    def test_freeing_a_pinned_frame_in_an_undrawn_window(self):
        """The eager pool let a pinned frame be freed; so does this one,
        after it draws the windows up to that frame."""
        reference = BuddyAllocator(4096, max_order=3)
        reference.fragment(1.0, random.Random(5))
        free = set(reference.allocate(reference.free_frames).frames)
        # The last pinned frame that starts its window of 8.
        pinned = max(f for f in set(range(4096)) - free if f % 8 == 0)
        rng = CountingRandom(5)
        buddy = BuddyAllocator(4096, max_order=3)
        buddy.fragment(1.0, rng)
        buddy.free(PageAllocation((pinned,), 4096))
        assert rng.draws == (pinned // 8 + 1) * 8
        with pytest.raises(AllocationError, match="double free"):
            buddy.free(PageAllocation((pinned,), 4096))

    def test_second_fragment_counts_pins_in_undrawn_windows(self):
        """fragment() must run before any allocation, and frames pinned
        by an earlier fragment() count even where nothing drew them."""
        buddy = BuddyAllocator(4096)
        buddy.fragment(0.5, random.Random(0))
        with pytest.raises(AllocationError, match="before any allocation"):
            buddy.fragment(0.5, random.Random(1))

    def test_out_of_memory_names_request_and_free_frames(self):
        buddy = BuddyAllocator(16)
        buddy.allocate(10)
        with pytest.raises(
            AllocationError,
            match=r"^out of physical memory: 7 pages requested, 6 frames free$",
        ):
            buddy.allocate(7)


class TestPageAllocPointValues:
    """``page_alloc_point`` values on every machine, as the eager
    allocator produced them (bit for bit)."""

    @pytest.mark.parametrize("machine, fragmentation, seed, array_bytes, gb_per_s", [
        ("ST-Ericsson A9500 (Snowball)", 0.85, 0, 32 << 10, 0.7963104283486391),
        ("ST-Ericsson A9500 (Snowball)", 0.85, 2, 32 << 10, 0.7713569454264848),
        ("ST-Ericsson A9500 (Snowball)", 0.05, 4, 256 << 10, 0.7258649891121088),
        ("NVIDIA Tegra2 (Tibidabo node)", 0.85, 0, 32 << 10, 0.7963104283486391),
        ("NVIDIA Tegra2 (Tibidabo node)", 0.05, 4, 256 << 10, 0.7258649891121088),
        ("Samsung Exynos 5 Dual", 0.85, 0, 32 << 10, 2.785198976029825),
        ("Samsung Exynos 5 Dual", 0.85, 2, 32 << 10, 2.8286457102340252),
        ("Samsung Exynos 5 Dual", 0.05, 4, 256 << 10, 2.7639722863746043),
        ("Intel Xeon X5550", 0.85, 0, 32 << 10, 7.274858370775508),
        ("Intel Xeon X5550", 0.05, 4, 256 << 10, 6.685610576423624),
    ])
    def test_values_are_unchanged(
        self, machine, fragmentation, seed, array_bytes, gb_per_s
    ):
        point = page_alloc_point({
            "machine": machine, "fragmentation": fragmentation,
            "seed": seed, "array_bytes": array_bytes,
        })
        assert point == {"gb_per_s": gb_per_s}
