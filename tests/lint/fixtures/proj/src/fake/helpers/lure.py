"""Wall-clock laundering helpers (bad_dom105.py's supply chain).

This module is *not* in sim-packages, so DOM101 has no opinion about
its own clock read — which is the whole point: the read hides here,
two call hops away from the sim code that consumes it.
"""

import time


def read_clock():
    return time.time()


def jittered_now():
    base = read_clock()
    return base + 0.5
