"""Centralized scheduling: strict schedules, RAND."""

from .rand_scheduler import RandScheduler
from .strict_schedule import StrictSchedule

__all__ = ["RandScheduler", "StrictSchedule"]
