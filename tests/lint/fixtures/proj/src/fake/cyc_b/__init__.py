"""Other half of the cycle: a lazy import back, under a DOM201 comment.

An inline ``disable=DOM201`` is how the historical ``topology ->
sched`` cycle once survived.  Layering findings ignore such comments,
so the edge closing the loop is still a DOM201 finding.
"""


def ping():
    return 1


def boot():
    from ..cyc_a import pong  # dominolint: disable=DOM201
    return pong()
