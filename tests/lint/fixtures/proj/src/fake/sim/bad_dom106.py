"""DOM102 fixture: RNG taint laundered through helper calls."""

from ..helpers.entropy import reroll


def jitter_backoff(slots):
    spread = reroll()
    return slots + spread
