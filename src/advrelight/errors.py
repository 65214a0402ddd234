"""Exception types raised across the package, and the one rule that names an input in them."""

from __future__ import annotations

import contextlib


class AdvRelightError(Exception):
    """Base class for all package-specific errors."""


class NonUnitNormalError(AdvRelightError, ValueError):
    """A normal vector deviates from unit length beyond tolerance."""


class EmptyMaskError(AdvRelightError, ValueError):
    """An operation requires at least one masked pixel."""


class DegenerateLightError(AdvRelightError, ValueError):
    """The denominator shading was floored on most of the masked region."""


class SingularFitError(AdvRelightError, ValueError):
    """Least-squares light estimation hit a rank-deficient system."""

    def __init__(self, rank: int):
        self.rank = rank
        super().__init__(f"rank-deficient lighting system (rank {rank} < 9)")


class CapabilityError(AdvRelightError, RuntimeError):
    """The embedder does not support the requested operation."""


class ProtocolError(AdvRelightError, RuntimeError):
    """The external embedding endpoint violated the line protocol."""


class ProtocolTimeoutError(ProtocolError):
    """The external embedding endpoint did not answer in time."""


class DivergenceError(AdvRelightError, RuntimeError):
    """Training produced a non-finite loss."""

    def __init__(self, epoch: int, batch: int):
        self.epoch = epoch
        self.batch = batch
        super().__init__(f"non-finite loss in epoch {epoch}, batch {batch}")


class NoLightError(AdvRelightError, ValueError):
    """A lighting map carries no positive signal to extract feedback from."""


class NonConvergenceError(AdvRelightError, RuntimeError):
    """The light-recurrence loop hit its iteration budget; carries the trace."""

    def __init__(self, trace):
        self.trace = trace
        super().__init__(f"recurrence loop did not converge ({len(trace)} iterations recorded)")


class EvaluationError(AdvRelightError, RuntimeError):
    """Embedding failures collected while scoring a similarity matrix."""

    def __init__(self, failures):
        self.failures = tuple(failures)
        summary = "; ".join(f"{side}[{idx}]: {msg}" for side, idx, msg in self.failures[:5])
        more = "" if len(self.failures) <= 5 else f" (+{len(self.failures) - 5} more)"
        super().__init__(f"{len(self.failures)} embedding failures: {summary}{more}")


class ManifestError(AdvRelightError, ValueError):
    """A dataset manifest violates its schema."""


class ScenarioError(AdvRelightError, ValueError):
    """A phy-sim scenario file violates its schema."""


class DegenerateLabelsError(AdvRelightError, ValueError):
    """Ground truth contains only one class; ROC/AUC is undefined."""


@contextlib.contextmanager
def blamed_on(prefix, *kinds, error=ValueError, keep=()):
    """Re-raises a ``kinds`` fault (ValueError by default) of the input ``prefix`` names as
    ``error("<prefix>: <detail>")``; a KeyError's detail is ``missing key <key>``. A ``keep``
    fault passes through unchanged."""
    try:
        yield
    except keep:
        raise
    except (kinds or ValueError) as exc:
        detail = f"missing key {exc}" if isinstance(exc, KeyError) else str(exc)
        raise error(f"{prefix}: {detail}") from exc
