"""One half of the cycle fixture: a table-legal edge to cyc_b."""

from ..cyc_b import ping


def pong():
    return ping() + 1
