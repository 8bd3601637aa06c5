"""Exception hierarchy for the CO protocol implementation."""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this package."""


class ConfigurationError(ReproError, ValueError):
    """A protocol or experiment configuration is invalid."""


class ProtocolError(ReproError, RuntimeError):
    """An engine invariant was violated (always a bug, never a network event).

    PDU loss, reordering and duplication are normal inputs handled by the
    protocol; this exception is reserved for states the algorithm proves
    unreachable (e.g. accepting a PDU whose sequence number is not ``REQ``).
    """


class DeliveryOrderError(ReproError, AssertionError):
    """A verification oracle found a causality or FIFO violation.

    Raised by :mod:`repro.ordering.checker` when asked to *assert* (rather
    than report) the paper's log properties.
    """


class IncompleteRecordingError(ReproError, ValueError):
    """A run was handed to the verification oracle on a log that keeps no
    per-PDU records (a bounded ``FlightRecorder``).

    A check over it would pass vacuously, and whatever the ring shed would
    read as undelivered messages and broken causal chains, so
    :func:`repro.ordering.checker.verify_run` refuses instead of reporting
    either.
    """
