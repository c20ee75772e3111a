"""Shared benchmark configuration.

Every bench regenerates one of the paper's tables/figures.  The
simulations are deterministic and expensive, so each bench executes
its workload exactly once (``rounds=1``) — the benchmark timer then
records how long regenerating that result takes, and the assertions
check the paper's *shape* (who wins, by roughly what factor, where
crossovers fall).

Run with::

    pytest benchmarks/ --benchmark-only

Benches whose workload is a sweep honour ``SWEEP_WORKERS`` (worker
processes per sweep; default 0 = serial in-process) — results are
byte-identical either way, only the wall clock moves.
"""

import os
import sys

import pytest


@pytest.fixture
def once(benchmark):
    """Run a workload exactly once under the benchmark timer."""

    def runner(fn, *args, **kwargs):
        return benchmark.pedantic(fn, args=args, kwargs=kwargs,
                                  rounds=1, iterations=1, warmup_rounds=0)

    return runner


@pytest.fixture
def sweep_workers():
    """Worker-pool size for sweep-shaped benches (0 = serial)."""
    return int(os.environ.get("SWEEP_WORKERS", "0"))


@pytest.fixture
def count_calls():
    """``count_calls(fn)`` runs ``fn()`` and returns ``(calls, result)``.

    ``calls`` is the number of Python function calls the run made on
    this thread (``sys.setprofile`` "call" events; builtins are not
    counted).  It depends on the code path only, not on the machine or
    its load, so a ratio of two counts can gate a cost that a ratio of
    two wall times on a shared box cannot.
    """

    def run(fn):
        calls = 0

        def profile(frame, event, arg):
            nonlocal calls
            if event == "call":
                calls += 1

        sys.setprofile(profile)
        try:
            result = fn()
        finally:
            sys.setprofile(None)
        return calls, result

    return run
