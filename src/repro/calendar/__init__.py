"""Advance-reservation calendar: reservations, availability, queries."""

from repro.calendar.reservation import Reservation
from repro.calendar.timeline import StepFunction
from repro.calendar.calendar import ProbedCount, ResourceCalendar

__all__ = ["ProbedCount", "Reservation", "StepFunction", "ResourceCalendar"]
