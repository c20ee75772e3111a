"""Logging for the reproduction: stderr diagnostics, stdout untouched.

Library and experiment *diagnostics* (progress lines, recoverable
oddities) go through here instead of bare ``print``; experiment
*reports* — the paper tables themselves — stay on stdout by design,
so ``python -m repro.experiments > report.txt`` keeps working.

Loggers are namespaced under ``repro`` and write to stderr.  Nothing
is configured at import time beyond attaching one stderr handler to
the ``repro`` root logger (idempotent), so applications embedding the
package can reconfigure freely via the stdlib ``logging`` API.
"""

from __future__ import annotations

import logging
import os
import sys

ROOT = "repro"

#: Environment knob: REPRO_LOG=DEBUG python -m repro.experiments ...
LEVEL_ENV = "REPRO_LOG"


def _root_logger() -> logging.Logger:
    logger = logging.getLogger(ROOT)
    if not logger.handlers:
        handler = logging.StreamHandler(sys.stderr)
        handler.setFormatter(
            logging.Formatter("[%(name)s] %(levelname)s %(message)s"))
        logger.addHandler(handler)
        logger.propagate = False
        level = os.environ.get(LEVEL_ENV, "INFO").upper()
        logger.setLevel(getattr(logging, level, logging.INFO))
    return logger


def get_logger(name: str = "") -> logging.Logger:
    """Namespaced logger: ``get_logger("experiments")`` ->
    ``repro.experiments`` writing to stderr."""
    root = _root_logger()
    if not name:
        return root
    return root.getChild(name)
