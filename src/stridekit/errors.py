"""Exception hierarchy. Every library-raised error derives from StridekitError."""

from __future__ import annotations

import pickle


class StridekitError(Exception):
    pass


# -- series construction / validation ----------------------------------------

class NonMonotonicIndex(StridekitError):
    pass


class LengthMismatch(StridekitError):
    pass


class ReservedCharacterInName(StridekitError):
    pass


class EmptyName(StridekitError):
    pass


class KindMismatch(StridekitError):
    pass


class TooShort(StridekitError):
    pass


class DuplicateSeriesName(StridekitError):
    pass


class UnknownSeries(StridekitError):
    pass


# -- segmentation ------------------------------------------------------------

class NonPositiveWindow(StridekitError):
    pass


class NonPositiveStride(StridekitError):
    pass


class EmptySeries(StridekitError):
    pass


class DisjointSpans(StridekitError):
    pass


# -- feature registry / extraction -------------------------------------------

class DuplicateFeature(StridekitError):
    pass


class InvalidDescriptor(StridekitError):
    pass


class EmptyAxis(StridekitError):
    pass


class MalformedName(StridekitError):
    pass


class UnknownColumn(StridekitError):
    pass


class FunctionFailure(StridekitError):
    """Pickles with its ``__cause__``, which exception pickling drops, so a
    failure sent from a worker process keeps it; a cause that does not
    pickle or unpickle is dropped alone."""

    def __reduce__(self):
        try:
            cause = pickle.dumps(self.__cause__)
        except Exception:
            cause = None
        return _function_failure, (type(self), self.args, cause), self.__dict__ or None


def _function_failure(cls, args, cause):
    failure = cls(*args)
    try:
        failure.__cause__ = pickle.loads(cause) if cause else None
    except Exception:
        pass
    return failure


class NonFloatOutput(StridekitError):
    pass


class UnknownBuiltin(StridekitError):
    pass


class BadParam(StridekitError):
    pass


# -- processing pipelines ----------------------------------------------------

class StepFailure(StridekitError):
    pass


class DynamicStepUnresolvable(StridekitError):
    pass


# -- chunking ----------------------------------------------------------------

class BadSpec(StridekitError):
    pass


# -- io / config -------------------------------------------------------------

class ParseError(StridekitError):
    def __init__(self, message: str, row: int | None = None):
        if row is not None:
            message = f"row {row}: {message}"
        super().__init__(message)
        self.row = row


class DuplicateHeader(StridekitError):
    pass


class ConfigError(StridekitError):
    pass


class IoError(StridekitError):
    """File could not be read or written (wraps the OS-level failure)."""
