"""DOM101 fixture: wall-clock taint arrives through two call hops.

Nothing in this file touches ``time`` — there is no direct read to
flag.  The dataflow engine must follow
``jittered_now -> read_clock -> time.time()`` to flag the call.
"""

from ..helpers.lure import jittered_now


def stamp_frame(frame):
    frame_time = jittered_now()
    return frame, frame_time
