"""Exception types shared across the package.

Two families: value errors for bad inputs caught at operation boundaries,
and runtime errors for failures talking to a sequence-model backend.
"""

from __future__ import annotations


class DriftbeamError(Exception):
    """Base class for every error raised by this package."""


class PreconditionError(DriftbeamError, ValueError):
    """An operation was called with structurally invalid inputs (empty
    collections, out-of-range parameters, mismatched shapes)."""


class NumericInputError(DriftbeamError, ValueError):
    """A numeric input was NaN or infinite. Non-finite values are rejected
    eagerly at every boundary; a single NaN silently corrupts every
    downstream argmax and softmax, so nothing is allowed to propagate."""


class DatasetError(DriftbeamError, ValueError):
    """A dataset file is malformed; the message names the offending line."""


class TransportError(DriftbeamError, RuntimeError):
    """A backend call failed (network, timeout) after exhausting retries."""


class ProtocolError(DriftbeamError, RuntimeError):
    """A backend reply was malformed: missing logprobs, token-count
    mismatch, or a fixture with no entry for the requested prefix.
    Never silently coerced."""


class DecodeStalledError(DriftbeamError, RuntimeError):
    """The decode loop could not produce a single candidate."""
