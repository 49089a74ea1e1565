"""The Hypothesis settings every stateful machine run shares.

Each run tries 60 derandomized examples of up to 40 steps.  The shrink
phase is left out: a failing run reports the first failing sequence it
found, unshrunk, because shrinking a machine whose write barrier was
broken took minutes.  Hypothesis has no cap on shrink steps, so the
phase goes whole.
"""

from hypothesis import Phase, settings

STATEFUL = settings(
    max_examples=60,
    stateful_step_count=40,
    deadline=None,
    derandomize=True,
    database=None,
    phases=tuple(phase for phase in Phase if phase is not Phase.shrink),
)
