"""The whole trait space: every record an engine accepts behaves as its
traits say, and every other record is refused at construction.

A record is a free validation (which picks the engine) and four
booleans: ``narrow_bounds``, ``deferred_free``, ``strips_exec`` and
``realloc_grows_in_place``; ``double_free_detect`` is derived.  Of the
64 records, 20 build: bump with either validation it implements and
neither deferred frees nor in-place growth (8), free list with narrowed
bounds and no deferral (4), and slab with narrowed bounds (8).
"""

import itertools

import pytest

from capheap.allocator_api import AllocatorTraits, FreeValidation
from capheap.attacks import ATTACK_IDS, predicted_row, run_attack
from capheap.engines import BumpAllocator, FreeListAllocator, SlabAllocator
from capheap.registry import TRAITS, engine_for
from capheap.tagged_memory import TaggedHeap

HEAP = 1 << 16


def record(validation, narrow, deferred, strips, grows):
    name = f"{validation.value}-n{narrow:d}d{deferred:d}x{strips:d}g{grows:d}"
    return AllocatorTraits(name, narrow, deferred, strips, validation, grows)


def bits(traits):
    return (
        traits.narrow_bounds, traits.deferred_free, traits.strips_exec,
        traits.realloc_grows_in_place,
    )


RECORDS = [
    record(v, *flags) for v in FreeValidation for flags in itertools.product((False, True), repeat=4)
]


def build(traits):
    return engine_for(traits)(TaggedHeap(HEAP), traits)


def accepts(traits):
    try:
        build(traits)
    except ValueError:
        return False
    return True


ACCEPTED = [t for t in RECORDS if accepts(t)]
BY_NAME = pytest.mark.parametrize("traits", ACCEPTED, ids=lambda t: t.name)


def test_twenty_of_sixty_four_records_build():
    assert len(RECORDS) == 64
    assert len(ACCEPTED) == 20
    assert [engine_for(t) for t in ACCEPTED].count(BumpAllocator) == 8
    assert [engine_for(t) for t in ACCEPTED].count(FreeListAllocator) == 4
    assert [engine_for(t) for t in ACCEPTED].count(SlabAllocator) == 8


def test_the_canonical_records_are_accepted_records():
    accepted = {record(t.free_validation, *bits(t)) for t in ACCEPTED}
    assert all(record(t.free_validation, *bits(t)) in accepted for t in TRAITS.values())


@pytest.mark.parametrize(
    "traits, message",
    [
        (record(FreeValidation.NONE, True, True, False, False),
         "BumpAllocator cannot honour deferred_free=True"),
        (record(FreeValidation.ALLOC_LOG, False, False, False, True),
         "BumpAllocator cannot honour realloc_grows_in_place=True"),
        (record(FreeValidation.INLINE_HEADER, False, False, True, False),
         "FreeListAllocator cannot honour narrow_bounds=False"),
        (record(FreeValidation.INLINE_HEADER, True, True, True, False),
         "FreeListAllocator cannot honour deferred_free=True"),
        (record(FreeValidation.METADATA_LOOKUP, False, True, False, True),
         "SlabAllocator cannot honour narrow_bounds=False"),
    ],
)
def test_an_ignored_trait_value_is_refused(traits, message):
    with pytest.raises(ValueError) as exc:
        build(traits)
    assert str(exc.value) == message


def test_an_engine_refuses_a_validation_it_does_not_implement():
    traits = TRAITS["jemalloc"]
    with pytest.raises(ValueError) as exc:
        BumpAllocator(TaggedHeap(HEAP), traits)
    assert str(exc.value) == "BumpAllocator does not implement InlineHeader validation"


def test_double_free_detect_is_derived():
    for traits in RECORDS:
        assert traits.double_free_detect is (traits.free_validation is FreeValidation.ALLOC_LOG)
    with pytest.raises(TypeError):
        AllocatorTraits("seven", True, False, False, FreeValidation.ALLOC_LOG, True, False)


@BY_NAME
def test_probed_row_equals_predicted_row(traits):
    row = tuple(run_attack(attack, build(traits)).outcome for attack in ATTACK_IDS)
    assert row == predicted_row(traits)


@BY_NAME
def test_returned_bounds_follow_narrow_bounds(traits):
    """Narrowed: each capability spans its own block (the request rounded
    to its granule or size class, plus a free-list header), and blocks
    are disjoint.  Otherwise: the whole region."""
    alloc = build(traits)
    caps = [alloc.malloc(24) for _ in range(3)]
    for cap in caps:
        assert cap.base <= cap.address and cap.address + 24 <= cap.top
        if traits.narrow_bounds:
            assert cap.length <= 40
        else:
            assert (cap.base, cap.top) == (0, HEAP)
    if traits.narrow_bounds:
        spans = sorted((cap.base, cap.top) for cap in caps)
        assert all(top <= base for (_, top), (base, _) in zip(spans, spans[1:]))


@pytest.mark.parametrize(
    "traits", [t for t in ACCEPTED if engine_for(t) is SlabAllocator], ids=lambda t: t.name
)
def test_slab_deferral_is_observable(traits):
    """A deferred free leaves the slot taken until the next malloc."""
    alloc = build(traits)
    cap = alloc.malloc(32)
    alloc.free(cap)
    assert alloc.occupancy(cap.address) is traits.deferred_free
    alloc.malloc(64)  # another size class, so the slot is not retaken
    assert alloc.occupancy(cap.address) is False
