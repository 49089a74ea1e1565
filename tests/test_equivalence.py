"""Observable results pinned before the fast paths went in.

The free-list scan reads headers straight from the heap bytes and the
engine writes them in place, the free list keeps an occurrence-counted
index, slabs are slotted records with a byte slot map and a per-class
map of open slabs, capabilities carry their permissions as plain ints,
and client capabilities are derived in one construction.  None of these
may move a placement, a fault, a granule tag or a rendered string, so
every expectation below is a literal (or a SHA-256 of a long trace)
that was recorded by running these exact sequences on the engines as
they were beforehand.
A corrupt free-list header, which used to trip an ``assert``, is now an
``AllocError`` of kind ``CorruptHeader``; the placements around it are
the recorded ones.  The free list's first fit now comes from a class
byte per listed slot kept behind a heap write barrier; the ``bench``
traffic and the engine header write over a listed forged header were
recorded on the scanning engine before it went in.  A chunk walk that
overshoots the heap's end, which used to return a short list, now
raises ``CorruptHeader``.
"""

import hashlib
import json
import os
import random
import struct
import subprocess
import sys
from pathlib import Path

import pytest

import capheap
from capheap import engines
from capheap.allocator_api import AllocError, AllocErrorKind
from capheap.bench import Workload, run_workload
from capheap.capability import PERM_ALL, PERM_NONE, CapFault, Capability, FaultKind, Perm, make_root
from capheap.engines import CHUNK_HEADER_SIZE, CHUNK_MAGIC, SLAB_SIZE
from capheap.registry import ALLOCATOR_NAMES, TRAITS, create
from capheap.tagged_memory import TaggedHeap

FREE_LIST_NAMES = ("dlmalloc-cheribuild", "jemalloc", "libmalloc-simple")


def first_fits(names):
    """``(name, scan_limit)`` runs: each of ``names`` as shipped, then each
    free-list configuration with the class index on from the first malloc
    (``_SCAN_LIMIT`` 0), which must give the same results."""
    return [pytest.param(name, None, id=name) for name in names] + [
        pytest.param(name, 0, id=f"{name}-indexed") for name in FREE_LIST_NAMES
    ]


def limit_scan(monkeypatch, scan_limit):
    if scan_limit is not None:
        monkeypatch.setattr(engines, "_SCAN_LIMIT", scan_limit)


_HEADER = struct.Struct("<IHBB")


def attempt(fn, *args, full=False):
    """Run one call; return it rendered as a comparable string (a fault by
    its kind, or with ``full`` by its whole text), and the capability it
    returned (None for anything else)."""
    try:
        result = fn(*args)
    except (AllocError, CapFault) as exc:
        return f"{type(exc).__name__}:{exc if full else exc.kind.value}", None
    if isinstance(result, Capability):
        return result.describe(), result
    return repr(result), None


def outcome(fn, *args):
    return attempt(fn, *args)[0]


def forge(alloc, cap, size, status):
    """Write a well-formed chunk header through ``cap``, as a client can."""
    header = _HEADER.pack(size, CHUNK_MAGIC, status, 0)
    alloc.heap.store(cap, cap.address - CHUNK_HEADER_SIZE, header)


def stale_forged_header(name):
    """Forge a 4096-byte free header through a stale capability."""
    alloc = create(name)
    a = alloc.malloc(32)
    b = alloc.malloc(32)
    alloc.free(b)
    forge(alloc, b, 4096, 0)
    out = [a.describe(), b.describe()]
    c = alloc.malloc(1000)
    out.append(c.describe())
    for size in (3000, 2048, 16, 5000):
        out.append(outcome(alloc.malloc, size))
    out.append(outcome(alloc.free, c))
    out.append(outcome(alloc.malloc, 1000))
    return out


def live_forged_header(name):
    """Forge a 4096-byte header through a live capability, then free it."""
    alloc = create(name)
    a = alloc.malloc(32)
    b = alloc.malloc(32)
    forge(alloc, a, 4096, 1)
    out = [outcome(alloc.free, a)]
    for size in (1000, 4000, 32):
        out.append(outcome(alloc.malloc, size))
    out.append(outcome(alloc.realloc, b, 64))
    return out


def absorb_forged_header(name):
    """Grow a block over a neighbour whose stale header was forged."""
    alloc = create(name)
    a = alloc.malloc(32)
    b = alloc.malloc(32)
    alloc.free(b)
    forge(alloc, b, 4096, 0)
    out = [outcome(alloc.realloc, a, 1000)]
    for size in (2000, 16):
        out.append(outcome(alloc.malloc, size))
    return out


# Placements are the same on all three configurations; only the
# permission byte differs (jemalloc and libmalloc-simple strip EXEC).
STALE_FORGED = [
    "cap(tag=1,base=0,top=40,addr=8,perms={})",
    "cap(tag=1,base=40,top=80,addr=48,perms={})",
    "cap(tag=1,base=40,top=1056,addr=48,perms={})",
    "cap(tag=1,base=1056,top=4072,addr=1064,perms={})",
    "cap(tag=1,base=80,top=2136,addr=88,perms={})",
    "cap(tag=1,base=4072,top=4096,addr=4080,perms={})",
    "cap(tag=1,base=2136,top=7152,addr=2144,perms={})",
    "None",
    "cap(tag=1,base=40,top=1056,addr=48,perms={})",
]
LIVE_FORGED = [
    "None",
    "cap(tag=1,base=0,top=1016,addr=8,perms={})",
    "cap(tag=1,base=80,top=4088,addr=88,perms={})",
    "cap(tag=1,base=1016,top=1056,addr=1024,perms={})",
    "cap(tag=1,base=1056,top=1128,addr=1064,perms={})",
]
ABSORB_FORGED_MOVES = [
    "cap(tag=1,base=40,top=1056,addr=48,perms={})",
    "cap(tag=1,base=1056,top=3064,addr=1064,perms={})",
    "cap(tag=1,base=0,top=40,addr=8,perms={})",
]
ABSORB_FORGED_GROWS = [
    "cap(tag=1,base=0,top=1016,addr=8,perms={})",
    "cap(tag=1,base=1016,top=3024,addr=1024,perms={})",
    "cap(tag=1,base=3024,top=3048,addr=3032,perms={})",
]


def expected(template, name):
    perms = "0x2f" if TRAITS[name].strips_exec else "0x3f"
    return [line.format(perms) for line in template]


@pytest.mark.parametrize("name, scan_limit", first_fits(FREE_LIST_NAMES))
def test_forged_free_header_through_stale_capability(name, scan_limit, monkeypatch):
    limit_scan(monkeypatch, scan_limit)
    got = stale_forged_header(name)
    assert got[2].startswith("cap(tag=1,base=40,top=1056,addr=48,")
    assert got == expected(STALE_FORGED, name)


@pytest.mark.parametrize("name, scan_limit", first_fits(FREE_LIST_NAMES))
def test_forged_header_through_live_capability(name, scan_limit, monkeypatch):
    limit_scan(monkeypatch, scan_limit)
    assert live_forged_header(name) == expected(LIVE_FORGED, name)


@pytest.mark.parametrize("name, scan_limit", first_fits(FREE_LIST_NAMES))
def test_realloc_over_forged_header(name, scan_limit, monkeypatch):
    limit_scan(monkeypatch, scan_limit)
    grows = TRAITS[name].realloc_grows_in_place
    template = ABSORB_FORGED_GROWS if grows else ABSORB_FORGED_MOVES
    assert absorb_forged_header(name) == expected(template, name)


def moving_realloc_over_forged_header(name):
    """Forge a 4096-byte free header through a stale capability, then
    realloc the first block to 1000 bytes.  Where the block moves, the
    new block's zeroed tail lands on a header still on the free list."""
    alloc = create(name)
    a = alloc.malloc(32)
    b = alloc.malloc(32)
    alloc.free(b)
    forge(alloc, b, 4096, 0)
    return alloc, alloc.realloc(a, 1000)


@pytest.mark.parametrize("name, scan_limit", first_fits(FREE_LIST_NAMES))
def test_corrupt_free_list_header_is_classified(name, scan_limit, monkeypatch):
    limit_scan(monkeypatch, scan_limit)
    alloc, moved = moving_realloc_over_forged_header(name)
    if TRAITS[name].realloc_grows_in_place:
        # libmalloc-simple grows in place over the forged chunk, so no
        # header is zeroed and malloc keeps its recorded placement
        assert (moved.base, moved.top) == (0, 1016)
        assert outcome(alloc.malloc, 5000) == expected(
            ["cap(tag=1,base=80,top=5096,addr=88,perms={})"], name
        )[0]
    else:
        assert (moved.base, moved.top) == (40, 1056)
        with pytest.raises(AllocError) as exc:
            alloc.malloc(5000)
        assert exc.value.kind is AllocErrorKind.CORRUPT_HEADER
        assert str(exc.value) == "CorruptHeader: free list entry at 80"
    with pytest.raises(AllocError) as exc:
        alloc.chunks()
    assert exc.value.kind is AllocErrorKind.CORRUPT_HEADER
    assert str(exc.value) == "CorruptHeader: tiling broken at 4144"


@pytest.mark.parametrize("name", FREE_LIST_NAMES)
def test_chunk_walk_past_heap_end_is_bounds_fault(name):
    alloc = create(name, heap_size=4096)
    a = alloc.malloc(32)
    # the walk lands on 4090, so the next header read straddles the end
    forge(alloc, a, 4090 - CHUNK_HEADER_SIZE, 1)
    with pytest.raises(CapFault) as exc:
        alloc.chunks()
    assert exc.value.kind is FaultKind.BOUNDS_VIOLATION
    assert str(exc.value) == "BoundsViolation: [4090, 4098) outside [0, 4096)"


@pytest.mark.parametrize("name", FREE_LIST_NAMES)
def test_header_read_past_heap_end_is_bounds_fault(name):
    alloc = create(name, heap_size=4096)
    with pytest.raises(CapFault) as exc:
        alloc._read_header(4092)
    assert exc.value.kind is FaultKind.BOUNDS_VIOLATION
    assert str(exc.value) == "BoundsViolation: [4092, 4100) outside [0, 4096)"


MASKS = [
    PERM_NONE,
    Perm.LOAD,
    Perm.STORE,
    Perm.LOAD | Perm.STORE,
    Perm.LOAD | Perm.EXEC,
    Perm.STORE | Perm.STORE_CAP,
    PERM_ALL & ~Perm.EXEC,
    PERM_ALL,
    Perm(0x15),
]

RENDERED = [
    ("cap(tag=1,base=16,top=48,addr=24,perms=0x00)", "10000000300000001800000000000000"),
    ("cap(tag=1,base=16,top=48,addr=24,perms=0x01)", "10000000300000001800000001000000"),
    ("cap(tag=1,base=16,top=48,addr=24,perms=0x02)", "10000000300000001800000002000000"),
    ("cap(tag=1,base=16,top=48,addr=24,perms=0x03)", "10000000300000001800000003000000"),
    ("cap(tag=1,base=16,top=48,addr=24,perms=0x11)", "10000000300000001800000011000000"),
    ("cap(tag=1,base=16,top=48,addr=24,perms=0x0a)", "1000000030000000180000000a000000"),
    ("cap(tag=1,base=16,top=48,addr=24,perms=0x2f)", "1000000030000000180000002f000000"),
    ("cap(tag=1,base=16,top=48,addr=24,perms=0x3f)", "1000000030000000180000003f000000"),
    ("cap(tag=1,base=16,top=48,addr=24,perms=0x15)", "10000000300000001800000015000000"),
]


def render_masks():
    """describe() and the stored granule for each mask, on a tiny heap."""
    heap = TaggedHeap(64)
    root = make_root(64)
    out = []
    for mask in MASKS:
        cap = root.set_bounds(16, 32).set_address(24).and_perms(mask)
        heap.store_cap(root, 32, cap)
        out.append((cap.describe(), heap.data[32:48].hex()))
    return out


def test_describe_and_store_cap_bytes_for_perm_masks():
    assert render_masks() == RENDERED


def test_permission_violation_message_text():
    root = make_root(64)
    with pytest.raises(CapFault) as exc:
        root.and_perms(Perm.LOAD).check_access(0, 1, Perm.STORE)
    assert str(exc.value) == "PermissionViolation: missing <Perm.STORE: 2>"
    with pytest.raises(CapFault) as exc:
        root.and_perms(Perm.STORE).check_access(0, 1, Perm.LOAD | Perm.STORE)
    assert str(exc.value) == "PermissionViolation: missing <Perm.LOAD: 1>"
    with pytest.raises(CapFault) as exc:
        root.and_perms(Perm.LOAD).check_access(0, 16, Perm.STORE | Perm.STORE_CAP)
    assert str(exc.value) == f"PermissionViolation: missing {Perm.STORE | Perm.STORE_CAP!r}"


def traffic_digest(name):
    """SHA-256 over a seeded malloc/free/realloc stream that also writes,
    reads back and frees some blocks twice in a row, on a small heap so
    the out-of-memory paths run too."""
    rng = random.Random(f"equivalence:{name}")
    alloc = create(name, heap_size=1 << 16)
    h = hashlib.sha256()
    live = []
    for step in range(3000):
        if step % 750 == 0:
            alloc.reset()
            live = []
        roll = rng.random()
        if roll < 0.5 or not live:
            size = rng.randint(1, 600)
            got, cap = attempt(alloc.malloc, size)
            if cap is not None:
                live.append((cap, size))
        elif roll < 0.75:
            cap, _ = live.pop(rng.randrange(len(live)))
            got = outcome(alloc.free, cap)
            if rng.random() < 0.2:
                got += outcome(alloc.free, cap)
        elif roll < 0.9:
            old, _ = live.pop(rng.randrange(len(live)))
            size = rng.randint(1, 900)
            got, cap = attempt(alloc.realloc, old, size)
            if cap is not None:
                live.append((cap, size))
        else:
            cap, size = live[rng.randrange(len(live))]
            got = outcome(alloc.heap.store, cap, cap.address, bytes([step & 0xFF]) * size)
            got += outcome(alloc.heap.load, cap, cap.address, size)
        h.update(got.encode() + b"\n")
    h.update(alloc.heap.snapshot())
    return h.hexdigest()


TRAFFIC = {
    "bump-alloc-cheri": "9f69f7dea1c76b412c1774377a9c635220bf9ca7dded97f75d12257db3e65ff1",
    "bump-alloc-nocheri": "2b232957a4d269131dc6b97fdc03c98d8c3350100442b349a5f1ac93505e7d58",
    "dlmalloc-cheribuild": "df1350452746023626ab5bc98179abe73152b0fc15d08b3fd101c79e2f5ee24d",
    "jemalloc": "31fbab7c9ee6f68956b1d5c83917558a782b3b72283d859f7126f20aedfe6165",
    "libmalloc-simple": "2192dc9ee89b7128ae2712c7a5d4638b9ff26b31d82aef6fa102dc52b04b2a54",
    "snmalloc-cheribuild": "03556c418782192a128ba26e4ff3a2daf299ae3a1674c03c4a7c8f44cfb108ef",
    "snmalloc-repo": "98b202603e2f394bdd3d8455c01cedf9d6223b7085a11aca8dddd021bd4eef84",
}


@pytest.mark.parametrize("name, scan_limit", first_fits(ALLOCATOR_NAMES))
def test_seeded_traffic_digest(name, scan_limit, monkeypatch):
    limit_scan(monkeypatch, scan_limit)
    assert traffic_digest(name) == TRAFFIC[name]


SLAB_NAMES = ("snmalloc-cheribuild", "snmalloc-repo")


def slab_traffic_digest(name):
    """SHA-256 over a seeded slab-heavy stream: sizes 1..4096, reallocs
    up to 4096, frees aimed at the earliest live block once later slabs
    exist, interior-address and wild frees, double frees (deferred ones
    flush at the next malloc or realloc) and a reset() halfway through.
    The heap holds 32 slabs, so carving runs out too.  Ends with every
    slot's occupancy bit and the heap snapshot."""
    rng = random.Random(f"slab-equivalence:{name}")
    alloc = create(name, heap_size=32 * SLAB_SIZE)
    h = hashlib.sha256()
    live = []
    for step in range(6000):
        if step == 3000:
            alloc.reset()
            live = []
        roll = rng.random()
        if roll < 0.4 or not live:
            size = rng.randint(1, 64) if rng.random() < 0.5 else rng.randint(1, 4096)
            got, cap = attempt(alloc.malloc, size)
            if cap is not None:
                got += outcome(alloc.heap.store, cap, cap.address, bytes([step & 0xFF]) * size)
                live.append((cap, size))
        elif roll < 0.55:
            cap, _ = live.pop(rng.randrange(len(live)))
            got = outcome(alloc.free, cap)
            if rng.random() < 0.2:
                got += outcome(alloc.free, cap)
        elif roll < 0.65:
            # the lowest live block sits in an early slab
            low = min(range(len(live)), key=lambda i: live[i][0].address)
            cap, _ = live.pop(low)
            got = outcome(alloc.free, cap)
        elif roll < 0.8:
            old, _ = live.pop(rng.randrange(len(live)))
            size = rng.randint(1, 4096)
            got, cap = attempt(alloc.realloc, old, size)
            if cap is not None:
                live.append((cap, size))
        elif roll < 0.9:
            cap, _ = live[rng.randrange(len(live))]
            inside = cap.address + rng.randrange(cap.top - cap.address)
            got = outcome(alloc.free, cap.set_address(inside))
        else:
            got = outcome(alloc.free, alloc.region.set_address(rng.randrange(alloc.heap.size)))
        h.update(got.encode() + b"\n")
    h.update(outcome(alloc.malloc, 16).encode())
    for addr in range(0, alloc.heap.size, 16):
        try:
            bit = alloc.occupancy(addr)
        except ValueError:  # past the last carved slab
            break
        h.update(b"1" if bit else b"0")
    h.update(alloc.heap.snapshot())
    return h.hexdigest()


SLAB_TRAFFIC = {
    "snmalloc-cheribuild": "47d9feb4455b2ea805e598dece838c699c152e86641b5a7c44f0b96eeb017fe4",
    "snmalloc-repo": "38ef7a1454d6d7d97163f97cd625dde7a442750f6e927f444140a56c265c77bb",
}


@pytest.mark.parametrize("name", SLAB_NAMES)
def test_slab_traffic_digest(name):
    assert slab_traffic_digest(name) == SLAB_TRAFFIC[name]


def duplicate_relink(name):
    """A moving realloc through a stale capability lists its free chunk
    a second time; the later mallocs show which copy each one takes."""
    alloc = create(name)
    a = alloc.malloc(32)
    b = alloc.malloc(32)
    alloc.free(a)
    out = [outcome(alloc.realloc, a, 1000)]
    x = alloc.malloc(32)
    out += [x.describe(), outcome(alloc.free, x)]
    out += [outcome(alloc.malloc, 32), outcome(alloc.malloc, 32)]
    out.append(repr(alloc.chunks()))
    return b, out


# x and y both take the chunk at 0, listed twice by the moving realloc;
# z comes from the tail.  The three configurations agree but for EXEC.
DUPLICATE_RELINK = [
    "cap(tag=1,base=80,top=1096,addr=88,perms={})",
    "cap(tag=1,base=0,top=40,addr=8,perms={})",
    "None",
    "cap(tag=1,base=0,top=40,addr=8,perms={})",
    "cap(tag=1,base=1096,top=1136,addr=1104,perms={})",
    "[(0, 32, 1), (40, 32, 1), (80, 1008, 1), (1096, 32, 1), (1136, 1047432, 0)]",
]


@pytest.mark.parametrize("name, scan_limit", first_fits(FREE_LIST_NAMES))
def test_duplicate_relink(name, scan_limit, monkeypatch):
    limit_scan(monkeypatch, scan_limit)
    b, out = duplicate_relink(name)
    assert b.describe() == expected(["cap(tag=1,base=40,top=80,addr=48,perms={})"], name)[0]
    assert out == expected(DUPLICATE_RELINK, name)


@pytest.mark.parametrize("name", ALLOCATOR_NAMES)
def test_returned_capabilities_carry_int_perms(name):
    alloc = create(name)
    caps = [alloc.malloc(48), alloc.malloc(200)]
    caps.append(alloc.realloc(caps[0], 400))
    caps.append(alloc.region.and_perms(Perm.LOAD))
    alloc.heap.store_cap(alloc.region, 0, caps[1])
    caps.append(alloc.heap.load_cap(alloc.region, 0))
    for cap in caps:
        assert type(cap.perms) is int
    assert type(make_root(64).perms) is int
    assert TRAITS[name].strips_exec == (not caps[0].perms & Perm.EXEC)


def straddling_header(name):
    """A header forged at 108, which straddles granules 6 and 7: its size
    goes in with a plain store, and its magic, status and reserved bytes
    are the low bytes of a capability's base stored into granule 7,
    which tags it.  Freeing at 116 makes the engine rewrite that
    header; granule 7 is re-tagged the same way before a malloc takes
    the forged chunk and rewrites it again."""
    alloc = create(name)
    c = alloc.malloc(60000)
    alloc.heap.store(c, 108, struct.pack("<I", 32))
    alloc.heap.store_cap(c, 112, c.set_bounds(CHUNK_MAGIC, 16))

    def state():
        tagged = [i for i, tag in enumerate(alloc.heap.tags) if tag]
        digest = hashlib.sha256(alloc.heap.snapshot()).hexdigest()
        return tagged, list(alloc._free_list), digest

    out = [state()]
    alloc.free(c.set_address(116))
    out.append(state())
    alloc.heap.store_cap(c, 112, c.set_bounds(CHUNK_MAGIC, 16))
    out.append(state())
    out.append(alloc.malloc(16).describe())
    out.append(state())
    return out


STRADDLING_SNAPSHOTS = {
    "dlmalloc-cheribuild": (
        "8509ab1b942c5988ff89955e3fe2056e59d02dbdd315f47dc4998c7c40c37ce0",
        "bf8f9d28c6b57018276342044f8614386eb171e433ecf610edc9921364270e2c",
    ),
    "jemalloc": (
        "de24f72985ce59d946440b4fba6971a10b8711f244df041f3cefc3b4b200fb70",
        "f8a52d29eb10a59fc9e168cc5defab1c2244a1a49f5aad20cd64a59f3f6aa2b3",
    ),
    "libmalloc-simple": (
        "de24f72985ce59d946440b4fba6971a10b8711f244df041f3cefc3b4b200fb70",
        "f8a52d29eb10a59fc9e168cc5defab1c2244a1a49f5aad20cd64a59f3f6aa2b3",
    ),
}


@pytest.mark.parametrize("name, scan_limit", first_fits(FREE_LIST_NAMES))
def test_straddling_header_write_clears_both_granules(name, scan_limit, monkeypatch):
    limit_scan(monkeypatch, scan_limit)
    (tags0, list0, _), after_free, (tags1, _, _), cap, after_malloc = straddling_header(name)
    freed, taken = STRADDLING_SNAPSHOTS[name]
    assert (tags0, list0) == ([7], [60008])
    assert after_free == ([], [108, 60008], freed)
    assert tags1 == [7]
    assert cap == expected(["cap(tag=1,base=108,top=148,addr=116,perms={})"], name)[0]
    assert after_malloc == ([], [60008], taken)


def rounding_traffic_digest(name):
    """SHA-256 over a seeded stream with ``rounding_bounds=True``: about
    half the requests are above 4096 bytes, so client capabilities take
    the rounding branch, and the heap (256 KiB and 48 bytes, so its end
    is not 32-byte aligned) fills, so rounded bounds also run past its
    end.  Faults are hashed with their full text."""
    rng = random.Random(f"rounding:{name}")
    alloc = create(name, heap_size=(1 << 18) + 48, rounding_bounds=True)
    h = hashlib.sha256()
    live = []

    def request():
        return rng.randint(1, 600) if rng.random() < 0.5 else rng.randint(4097, 40000)

    for step in range(1500):
        if step % 250 == 0:
            alloc.reset()
            live = []
        roll = rng.random()
        if roll < 0.5 or not live:
            size = request()
            got, cap = attempt(alloc.malloc, size, full=True)
            if cap is not None:
                live.append((cap, size))
        elif roll < 0.75:
            cap, _ = live.pop(rng.randrange(len(live)))
            got = attempt(alloc.free, cap, full=True)[0]
            if rng.random() < 0.2:
                got += attempt(alloc.free, cap, full=True)[0]
        elif roll < 0.9:
            old, _ = live.pop(rng.randrange(len(live)))
            size = request()
            got, cap = attempt(alloc.realloc, old, size, full=True)
            if cap is not None:
                live.append((cap, size))
        else:
            cap, size = live[rng.randrange(len(live))]
            fill = bytes([step & 0xFF]) * size
            got = attempt(alloc.heap.store, cap, cap.address, fill, full=True)[0]
            read = attempt(alloc.heap.load, cap, cap.address, size, full=True)[0]
            got += hashlib.sha256(read.encode()).hexdigest()
        h.update(got.encode() + b"\n")
    h.update(alloc.heap.snapshot())
    return h.hexdigest()


ROUNDING_TRAFFIC = {
    "bump-alloc-cheri": "7285effe743daeaa5f3667484c0a2afcbee81e0df1c635fb2aa92531328bf06f",
    "bump-alloc-nocheri": "c3dd21d7a18ab8b310295a0bed62576db15ff8ba3807521460e4afd89912fbd8",
    "dlmalloc-cheribuild": "a6c4a4e38e00990fa777faed84ebe941ffac18324a54b50a567794142ccd6dd5",
    "jemalloc": "9f0b7ba25d02a4909cc3f9625fb959ca94ef075d27a54a12e84b7e78871d1060",
    "libmalloc-simple": "457b616ed2a1ac48bb7165b12ca8a5d5365a81b71e2ee3f3652771765cfdb221",
    "snmalloc-cheribuild": "682b48dfb3d73b7ab31b5c049fa12189a1f5bbd8004aa5d1cfc2984898285a18",
    "snmalloc-repo": "3aa49709a2aab00b114dba91eccd68f59f1a4515e80f5748e3e54a69009eb10d",
}


@pytest.mark.parametrize("name, scan_limit", first_fits(ALLOCATOR_NAMES))
def test_rounding_traffic_digest(name, scan_limit, monkeypatch):
    limit_scan(monkeypatch, scan_limit)
    assert rounding_traffic_digest(name) == ROUNDING_TRAFFIC[name]


@pytest.mark.parametrize("name", FREE_LIST_NAMES + ("bump-alloc-cheri",))
def test_rounded_request_at_heap_end_text(name):
    """A block that ends at an unaligned heap end rounds its top past it.
    The fault comes from the derivation, before the engine commits the
    block, so the heap stays empty and the next request takes its start."""
    alloc = create(name, heap_size=8208, rounding_bounds=True)
    with pytest.raises(CapFault) as exc:
        alloc.malloc(8192 if name in FREE_LIST_NAMES else 8200)
    assert exc.value.kind is FaultKind.MONOTONICITY_VIOLATION
    assert str(exc.value) == "MonotonicityViolation: [0, 8256) escapes parent [0, 8208)"
    if name in FREE_LIST_NAMES:
        assert alloc.chunks() == [(0, 8200, 0)]
        assert alloc._free_list == [0]
        cap = alloc.malloc(16)
        assert (cap.base, cap.top, cap.address) == (0, 24, 8)
        assert alloc.chunks() == [(0, 16, 1), (24, 8176, 0)]
    else:
        assert alloc._cursor == 0
        cap = alloc.malloc(16)
        assert (cap.base, cap.top, cap.address) == (0, 16, 0)
        assert alloc._cursor == 16


_OPTIMIZED_DIGESTS = """
import json, sys
import test_equivalence as t
print(json.dumps({
    "optimize": sys.flags.optimize,
    "traffic": {name: t.traffic_digest(name) for name in t.ALLOCATOR_NAMES},
    "rounding": {name: t.rounding_traffic_digest(name) for name in t.ALLOCATOR_NAMES},
}))
"""


def test_optimized_interpreter_reproduces_the_digests():
    """``python -O`` drops every ``assert``: replaying the traffic digests
    in such an interpreter shows no engine result leans on one."""
    path = [str(Path(capheap.__file__).parents[1]), str(Path(__file__).parent)]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    run = subprocess.run(
        [sys.executable, "-O", "-c", _OPTIMIZED_DIGESTS],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 0, run.stderr
    got = json.loads(run.stdout)
    assert got == {"optimize": 1, "traffic": TRAFFIC, "rounding": ROUNDING_TRAFFIC}


class Recording:
    """Forwards malloc, free and realloc to an allocator and hashes what
    each call returned (a capability's ``describe()``, or ``None``) or
    the kind of the error it raised."""

    def __init__(self, alloc):
        self.alloc = alloc
        self.sha = hashlib.sha256()

    def traits(self):
        return self.alloc.traits()

    def _call(self, fn, *args):
        try:
            result = fn(*args)
        except (AllocError, CapFault) as exc:
            self.sha.update(exc.kind.value.encode() + b"\n")
            raise
        self.sha.update((result.describe() if result is not None else "None").encode() + b"\n")
        return result

    def malloc(self, size):
        return self._call(self.alloc.malloc, size)

    def free(self, cap):
        return self._call(self.alloc.free, cap)

    def realloc(self, cap, size):
        return self._call(self.alloc.realloc, cap, size)


BENCH_WORKLOADS = {
    "churn": Workload.churn(1024, 32),
    "randsize": Workload.randsize(2000, 1, 16, 512),
    "reallocramp": Workload.reallocramp(2000),
}


def bench_traffic(name, kind):
    """``run_workload`` on a fresh 1 MiB heap: its deterministic result
    fields and the SHA-256 of every call's outcome."""
    rec = Recording(create(name))
    r = run_workload(rec, BENCH_WORKLOADS[kind])
    return r.ops_completed, r.peak_live_bytes, r.peak_touched_bytes, r.oom_count, rec.sha.hexdigest()


# (ops, peak live bytes, peak touched bytes, OOMs, SHA-256 of the calls).
# dlmalloc-cheribuild differs from jemalloc only in the permission byte;
# libmalloc-simple grows reallocramp's block in place.
BENCH_TRAFFIC = {
    ("dlmalloc-cheribuild", "churn"): (1024, 2080, 2600, 0, "ffb292036388e026931e64bc0e580f71c504cd4cd0472baf2826c4bd19b0b7b8"),
    ("dlmalloc-cheribuild", "randsize"): (2000, 7877, 107034, 0, "d77d9218b60b53cc88c2b11de8a5643ee87b749a2491342b839f035f59f91c18"),
    ("dlmalloc-cheribuild", "reallocramp"): (360, 5776, 1048344, 1640, "b1309d0cab0bdd4d3e13475399533056c03dc844f406fe5f8b419ffae7b5e3e4"),
    ("jemalloc", "churn"): (1024, 2080, 2600, 0, "0dedb0909ab1a87bf5a1e830f839a9cb920dc8dc777fc2be56b685e9b667f522"),
    ("jemalloc", "randsize"): (2000, 7877, 107034, 0, "a87eeb05a5ad1a98c21a375f80e8223aa1e3889d779b2dbd5f0bebb4bef5c88d"),
    ("jemalloc", "reallocramp"): (360, 5776, 1048344, 1640, "81922daa3fe53905919a57490e74adcf3a67662ca9c5570ff6599d3cf8a6064b"),
    ("libmalloc-simple", "churn"): (1024, 2080, 2600, 0, "0dedb0909ab1a87bf5a1e830f839a9cb920dc8dc777fc2be56b685e9b667f522"),
    ("libmalloc-simple", "randsize"): (2000, 7877, 107034, 0, "a87eeb05a5ad1a98c21a375f80e8223aa1e3889d779b2dbd5f0bebb4bef5c88d"),
    ("libmalloc-simple", "reallocramp"): (2000, 32016, 32024, 0, "69a62c95731a7a700821e3c37dd66640f707d9c5a56a444f2e7f68766d29e9a1"),
}


@pytest.mark.parametrize("name, kind", sorted(BENCH_TRAFFIC))
def test_bench_workload_traffic(name, kind):
    assert bench_traffic(name, kind) == BENCH_TRAFFIC[name, kind]


def engine_write_over_forged_header(name, shift):
    """A client forges a 16-byte FREE header at 104 + ``shift`` through a
    stale capability and frees at it, which lists it.  malloc(96) then
    splits the chunk at 0 and writes the remainder's header at 104, over
    bytes of the listed forged one (for shifts -7..7), changing its size,
    its magic or both; the later mallocs show what the list makes of it."""
    alloc = create(name)
    a = alloc.malloc(600)
    alloc.free(a)
    at = 104 + shift
    alloc.heap.store(a, at, _HEADER.pack(16, CHUNK_MAGIC, 0, 0))
    out = [outcome(alloc.free, a.set_address(at + CHUNK_HEADER_SIZE)), list(alloc._free_list)]
    out += [outcome(alloc.malloc, 96), list(alloc._free_list)]
    out += [outcome(alloc.malloc, size) for size in (1000, 16, 4000, 64)]
    out.append(list(alloc._free_list))
    return out


# Shift 4: the remainder's magic and status land on the forged size, so
# the forged chunk at 108 claims 0xCA1B bytes and takes malloc(1000).
ENGINE_WRITE_SHIFT_4 = [
    "None",
    [108, 0, 616],
    "cap(tag=1,base=0,top=104,addr=8,perms={})",
    [108, 104, 616],
    "cap(tag=1,base=108,top=1124,addr=116,perms={})",
    "cap(tag=1,base=1124,top=1148,addr=1132,perms={})",
    "cap(tag=1,base=1148,top=5156,addr=1156,perms={})",
    "cap(tag=1,base=5156,top=5228,addr=5164,perms={})",
    [5228, 104, 616],
]

# SHA-256 over the outcomes for shifts -7..7, as JSON
ENGINE_WRITE_DIGESTS = {
    "dlmalloc-cheribuild": "f7960e7347333b81a7bd0a48550d0252be9bd52906f8823e5c1f60f9f5d44381",
    "jemalloc": "dc708b44c52eab1e4b031076c9405606c057924da4890aedee82ed1a5914df6e",
    "libmalloc-simple": "dc708b44c52eab1e4b031076c9405606c057924da4890aedee82ed1a5914df6e",
}


def engine_write_digest(name):
    runs = [engine_write_over_forged_header(name, shift) for shift in range(-7, 8)]
    return hashlib.sha256(json.dumps(runs).encode()).hexdigest()


@pytest.mark.parametrize("scan_limit", [None, 0], ids=["scanned", "indexed"])
@pytest.mark.parametrize("name", FREE_LIST_NAMES)
def test_engine_header_write_over_listed_forged_header(name, scan_limit, monkeypatch):
    limit_scan(monkeypatch, scan_limit)
    got = engine_write_over_forged_header(name, 4)
    perms = "0x2f" if TRAITS[name].strips_exec else "0x3f"
    assert got == [x.format(perms) if isinstance(x, str) else x for x in ENGINE_WRITE_SHIFT_4]
    assert engine_write_digest(name) == ENGINE_WRITE_DIGESTS[name]


def split_onto_a_listed_header(name):
    """Shift 0 of the fixture above, on the 8-byte grid: the remainder
    header malloc(96) writes at 104 is the listed forged chunk's own, and
    grows it from 16 to 504 bytes under the same listing.  malloc(64)
    must see 504 and take it, as a scan reading the header does."""
    alloc = create(name)
    a = alloc.malloc(600)
    alloc.free(a)
    alloc.heap.store(a, 104, _HEADER.pack(16, CHUNK_MAGIC, 0, 0))
    out = [outcome(alloc.free, a.set_address(104 + CHUNK_HEADER_SIZE)), list(alloc._free_list)]
    out += [outcome(alloc.malloc, 96), list(alloc._free_list)]
    return out + [outcome(alloc.malloc, 64), list(alloc._free_list)]


SPLIT_ONTO_A_LISTED_HEADER = [
    "None",
    [104, 0, 616],
    "cap(tag=1,base=0,top=104,addr=8,perms={})",
    [104, 104, 616],
    "cap(tag=1,base=104,top=176,addr=112,perms={})",
    [176, 104, 616],
]


@pytest.mark.parametrize("scan_limit", [None, 0], ids=["scanned", "indexed"])
@pytest.mark.parametrize("name", FREE_LIST_NAMES)
def test_engine_header_write_refiles_a_listed_chunk(name, scan_limit, monkeypatch):
    limit_scan(monkeypatch, scan_limit)
    perms = "0x2f" if TRAITS[name].strips_exec else "0x3f"
    expected = [x.format(perms) if isinstance(x, str) else x for x in SPLIT_ONTO_A_LISTED_HEADER]
    assert split_onto_a_listed_header(name) == expected


def test_chunk_walk_must_end_at_the_heap_end():
    """A LIVE header claiming 10**6 bytes, stored at 0 through the block's
    own capability, sends the walk past the end of a 16 KiB heap.  The
    walk used to stop there and return ``[(0, 1000000, 1)]``."""
    alloc = create("jemalloc", heap_size=1 << 14)
    x = alloc.malloc(32)
    alloc.heap.store(x, 0, _HEADER.pack(10**6, CHUNK_MAGIC, 1, 0))
    with pytest.raises(AllocError) as exc:
        alloc.chunks()
    assert exc.value.kind is AllocErrorKind.CORRUPT_HEADER
    assert str(exc.value) == "CorruptHeader: tiling ends at 1000008, past the heap end 16384"


def sibling_header(name, size):
    """Two listed headers in one granule: a header forged at 8, inside
    the freed chunk at 0, is freed and so listed beside it.  malloc(64)
    takes the chunk at 0 (whole for ``size`` 64, split for 600); the
    client then breaks the magic of the header at 8, which must still be
    watched, and mallocs again."""
    alloc = create(name)
    a = alloc.malloc(size)
    alloc.malloc(64)
    alloc.free(a)
    alloc.heap.store(a, 8, _HEADER.pack(16, CHUNK_MAGIC, 0, 0))
    out = [outcome(alloc.free, a.set_address(16)), list(alloc._free_list)]
    b = alloc.malloc(64)
    out += [b.describe(), list(alloc._free_list)]
    alloc.heap.store(b, 12, b"\0\0")
    out += [outcome(alloc.malloc, 16), outcome(alloc.malloc, 5000), list(alloc._free_list)]
    alloc.heap.store(b, 12, struct.pack("<H", CHUNK_MAGIC))
    out += [outcome(alloc.malloc, 16), list(alloc._free_list)]
    return out


# The broken header at 8 stops both mallocs, as a scan meets it first;
# repaired, it is taken whole.
SIBLING_600 = [
    "None",
    [8, 0, 688],
    "cap(tag=1,base=0,top=72,addr=8,perms={})",
    [8, 72, 688],
    "AllocError:CorruptHeader",
    "AllocError:CorruptHeader",
    [8, 72, 688],
    "cap(tag=1,base=8,top=32,addr=16,perms={})",
    [72, 688],
]
SIBLING = {
    64: [
        "None",
        [8, 0, 144],
        "cap(tag=1,base=0,top=72,addr=8,perms={})",
        [8, 144],
        "AllocError:CorruptHeader",
        "AllocError:CorruptHeader",
        [8, 144],
        "cap(tag=1,base=8,top=32,addr=16,perms={})",
        [144],
    ],
    600: SIBLING_600,
}


@pytest.mark.parametrize("scan_limit", [None, 0], ids=["scanned", "indexed"])
@pytest.mark.parametrize("size", [64, 600])
@pytest.mark.parametrize("name", FREE_LIST_NAMES)
def test_sibling_headers_share_a_granule(name, size, scan_limit, monkeypatch):
    limit_scan(monkeypatch, scan_limit)
    perms = "0x2f" if TRAITS[name].strips_exec else "0x3f"
    expected = [x.format(perms) if isinstance(x, str) else x for x in SIBLING[size]]
    assert sibling_header(name, size) == expected


def poisoned_at_index_start(name):
    """A chunk whose magic a client broke lies past the slot where the
    scan that starts the class index stops: 80 small chunks, then the
    64-byte chunk that malloc(32) takes, then the broken one.  The index
    must file it as poisoned, so malloc(5000) raises what a scan would."""
    alloc = create(name)
    b = alloc.malloc(64)
    c = alloc.malloc(16)
    small = [alloc.malloc(16) for _ in range(80)]
    alloc.free(c)
    alloc.heap.store(c, c.address - 4, b"\0\0")  # the magic
    alloc.free(b)
    for cap in small:
        alloc.free(cap)
    out = [outcome(alloc.malloc, 32), alloc.heap.watch is not None]
    return out + [attempt(alloc.malloc, 5000, full=True)[0], alloc._free_list[78:]]


POISONED_AT_INDEX_START = [
    "cap(tag=1,base=0,top=40,addr=8,perms={})",
    True,
    "AllocError:CorruptHeader: free list entry at 72",
    [120, 96, 40, 72, 2016],
]


@pytest.mark.parametrize("name", FREE_LIST_NAMES)
def test_index_files_a_poisoned_header_past_the_scan(name, monkeypatch):
    perms = "0x2f" if TRAITS[name].strips_exec else "0x3f"
    expected = [x.format(perms) if isinstance(x, str) else x for x in POISONED_AT_INDEX_START]
    assert poisoned_at_index_start(name) == expected
    # a scan that never starts the index meets the broken header too
    limit_scan(monkeypatch, 1000)
    assert poisoned_at_index_start(name) == expected[:1] + [False] + expected[2:]
