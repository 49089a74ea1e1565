#!/usr/bin/env python3
# The five attack probes, narrated on a few contrasting allocators.
#
# Outcome semantics used throughout this package:
#   check mark  = the attack succeeds
#   times sign  = the attack is thwarted
#   slashed o   = not applicable (the attack's precondition is absent)

from capheap import create, run_attack

def show(attack_id, allocator_name, why):
    report = run_attack(attack_id, create(allocator_name))
    print(f"{attack_id} vs {allocator_name}: {report.headline()}")
    print(f"   ({why})")
    for i, step in enumerate(report.trace):
        args = ", ".join(repr(a) for a in step.args)
        print(f"   {i:>2} {step.op}({args}) -> {step.result}")
    print()

# A1: use-after-free.  Nobody here revokes, so the stale read works
# everywhere; the probe demonstrates the shared weakness.
show("A1", "dlmalloc-cheribuild", "no revocation: the freed capability still reads")

# A2: realloc widening.  An in-place grower absorbs the freed neighbor
# without zeroing, leaking the victim's bytes through the new bounds.
show("A2", "libmalloc-simple", "in-place growth exposes the freed neighbor's bytes")
show("A2", "dlmalloc-cheribuild", "a moving realloc zeroes the tail instead")

# A3: freeing through a narrowed capability.  Inline-header engines
# must read the header through the client's capability and fault.
show("A3", "jemalloc", "header read at address-8 falls below the narrowed base")
show("A3", "snmalloc-repo", "address-keyed metadata never dereferences the capability")

# A4: double free.  Only the logging bump build detects it; deferred
# frees make the probe inapplicable.
show("A4", "bump-alloc-nocheri", "the allocation log flags the second free")
show("A4", "snmalloc-cheribuild", "frees are queued, so the probe cannot observe one")

# A5: excess permissions.  Two builds strip execute authority.
show("A5", "jemalloc", "returned capabilities carry no EXEC permission")
