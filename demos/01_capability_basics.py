#!/usr/bin/env python3
# A tour of capability values: the unit of authority everything else uses.
#
# A capability bundles bounds, a cursor address, permissions, and a
# validity tag.  You can only ever shrink what a capability lets you do.

from capheap import CapFault, Perm, make_root

# The root capability covers a whole heap with every permission.
root = make_root(64 * 1024)
print("root:", root.describe())

# Narrow it to one allocation's worth of authority.
block = root.set_bounds(128, 64)
print("block:", block.describe())

# The cursor may roam out of bounds without faulting...
roaming = block.set_address(4096)
print("roaming cursor is still tagged:", roaming.tag)

# ...because checks happen at access time, with a fixed priority:
# tag, then permission, then bounds.
try:
    roaming.check_access(4096, 8, Perm.LOAD)
except CapFault as fault:
    print("access at the cursor faults:", fault)

# Permissions only intersect, never grow.
read_only = block.and_perms(Perm.LOAD)
print("read-only perms:", Perm(read_only.perms))
try:
    read_only.check_access(128, 8, Perm.STORE)
except CapFault as fault:
    print("store through read-only:", fault)

# Derivation cannot escape the parent's range.
try:
    block.set_bounds(100, 64)
except CapFault as fault:
    print("widening attempt:", fault)

# Clearing the tag is permanent: no operation ever sets it again.
dead = block.clear_tag()
print("cleared tag propagates:", dead.set_address(130).tag)
