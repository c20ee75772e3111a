"""A ``disable=DOM201`` comment does not excuse a layering edge.

Were it honoured, ``leak`` would reach everything ``sim`` reaches
(telemetry, helpers) although its layers row allows nothing; the
edge stays a DOM201 finding instead.
"""

from ..sim import good  # dominolint: disable=DOM201


def peek():
    return good.due(0.0, 0.0)
