import pytest

from capheap.bench import Workload, Xorshift64, emit_csv, run_workload
from capheap.registry import ALLOCATOR_NAMES, create


def strip_elapsed(result):
    return result._replace(elapsed_ns=0)


class TestWorkloadValidation:
    def test_churn_needs_size(self):
        with pytest.raises(ValueError):
            Workload.churn(100, 0)

    def test_randsize_needs_ordered_sizes(self):
        with pytest.raises(ValueError):
            Workload.randsize(100, 1, 64, 16)

    def test_randsize_needs_positive_seed(self):
        with pytest.raises(ValueError):
            Workload.randsize(100, 0, 16, 64)

    @pytest.mark.parametrize("seed", [2**64, 2**64 + 1, 2**65])
    def test_randsize_refuses_seeds_past_64_bits(self, seed):
        # a seed the generator would truncate, to 0 for a multiple of 2**64
        with pytest.raises(ValueError, match="seed of at most 2\\*\\*64 - 1"):
            Workload.randsize(100, seed, 16, 64)

    def test_op_count_positive(self):
        with pytest.raises(ValueError):
            Workload.reallocramp(0)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="^unknown workload kind 'nope'$"):
            Workload("nope", 1)

    def test_descriptor_records_seed(self):
        w = Workload.randsize(10, 42, 16, 64)
        assert "seed=42" in w.describe()


def test_xorshift_is_deterministic():
    a = Xorshift64(99)
    b = Xorshift64(99)
    assert [a.next() for _ in range(10)] == [b.next() for _ in range(10)]


def test_xorshift_rejects_zero_seed():
    with pytest.raises(ValueError):
        Xorshift64(0)


@pytest.mark.parametrize("seed", [2**64, 2**65, -1])
def test_xorshift_rejects_seeds_outside_64_bits(seed):
    with pytest.raises(ValueError, match="seed must be in"):
        Xorshift64(seed)


def test_xorshift_accepts_the_largest_seed():
    rng = Xorshift64(2**64 - 1)
    assert len({rng.next() for _ in range(8)}) == 8


class TestChurn:
    def test_bump_touches_exactly_ops_times_size(self):
        # oracle: cursor arithmetic, no reuse
        result = run_workload(create("bump-alloc-cheri"), Workload.churn(1000, 32))
        assert result.peak_touched_bytes == 1000 * 32
        assert result.ops_completed == 1000
        assert result.oom_count == 0

    def test_freelist_peak_bounded_by_window(self):
        # oracle: 64 live blocks of (32 payload + 8 header) plus slack
        result = run_workload(create("dlmalloc-cheribuild"), Workload.churn(1000, 32))
        assert result.peak_touched_bytes <= 65 * (32 + 8) + 64

    def test_slab_peak_bounded_by_one_slab(self):
        result = run_workload(create("snmalloc-repo"), Workload.churn(1000, 32))
        assert result.peak_touched_bytes <= 4096

    def test_peak_live_is_window_times_size(self):
        result = run_workload(create("bump-alloc-cheri"), Workload.churn(1000, 32))
        assert result.peak_live_bytes == 65 * 32


class TestRandsize:
    def test_equal_seeds_give_identical_metrics(self):
        w = Workload.randsize(500, 7, 16, 128)
        a = run_workload(create("jemalloc"), w)
        b = run_workload(create("jemalloc"), w)
        assert strip_elapsed(a) == strip_elapsed(b)

    def test_different_seeds_differ(self):
        a = run_workload(create("jemalloc"), Workload.randsize(500, 7, 16, 128))
        b = run_workload(create("jemalloc"), Workload.randsize(500, 8, 16, 128))
        assert a.peak_live_bytes != b.peak_live_bytes


class TestReallocRamp:
    def test_final_live_size_matches_ramp(self):
        result = run_workload(create("libmalloc-simple"), Workload.reallocramp(100))
        assert result.peak_live_bytes == 16 + 100 * 16
        assert result.ops_completed == 100

    def test_bump_oom_is_recorded_not_fatal(self):
        result = run_workload(create("bump-alloc-cheri", heap_size=1 << 14), Workload.reallocramp(100))
        assert result.oom_count > 0
        assert result.ops_completed + result.oom_count == 100

    def test_slab_class_ceiling_records_oom(self):
        result = run_workload(create("snmalloc-repo"), Workload.reallocramp(300))
        # growth beyond the 4096-byte class cannot be served
        assert result.oom_count == 300 - 255
        assert result.ops_completed == 255

    @pytest.mark.parametrize("name", ["bump-alloc-cheri", "jemalloc", "snmalloc-repo"])
    def test_first_malloc_out_of_memory_is_recorded_not_fatal(self, name):
        # a 16-byte heap: the free list's one chunk holds 8 bytes, no slab
        # fits, and the bump cursor is already at the end
        alloc = create(name, heap_size=16)
        if name.startswith("bump"):
            alloc.malloc(16)
        result = run_workload(alloc, Workload.reallocramp(3))
        assert strip_elapsed(result) == (name, "reallocramp;ops=3", 0, 0, 0, 0, 1)


class TestCsv:
    def test_one_result_two_lines(self):
        result = run_workload(create("jemalloc"), Workload.churn(10, 32))
        lines = emit_csv([result]).decode("utf-8").strip().splitlines()
        assert len(lines) == 2

    def test_seven_columns_on_every_line(self):
        results = [
            run_workload(create(name), Workload.randsize(50, 3, 16, 64))
            for name in ALLOCATOR_NAMES
        ]
        for line in emit_csv(results).decode("utf-8").strip().splitlines():
            assert len(line.split(",")) == 7

    def test_empty_results_rejected(self):
        with pytest.raises(ValueError):
            emit_csv([])


@pytest.mark.parametrize("reusing", ["dlmalloc-cheribuild", "jemalloc", "libmalloc-simple",
                                     "snmalloc-cheribuild", "snmalloc-repo"])
@pytest.mark.parametrize("bump", ["bump-alloc-cheri", "bump-alloc-nocheri"])
def test_reusing_allocators_touch_less_than_bump_on_churn(reusing, bump):
    w = Workload.churn(256, 32)
    reuse_peak = run_workload(create(reusing), w).peak_touched_bytes
    bump_peak = run_workload(create(bump), w).peak_touched_bytes
    assert reuse_peak < bump_peak
