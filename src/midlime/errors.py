"""Exception types shared across the package.

The CLI maps these onto exit codes (see ``midlime.cli``); library callers can
catch the base classes per subsystem.
"""

from __future__ import annotations


class MidlimeError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(MidlimeError):
    """Invalid or inconsistent configuration value."""


# --- audio I/O ---------------------------------------------------------------

class AudioIOError(MidlimeError):
    """Base class for WAV read/write failures."""


class WavDecodeError(AudioIOError):
    """Malformed WAV container; ``chunk`` names the offending chunk."""

    def __init__(self, message: str, chunk: str | None = None):
        super().__init__(message)
        self.chunk = chunk


class UnsupportedFormatError(AudioIOError):
    """WAV codec or channel layout outside the supported subset."""


# --- DSP / numerics -----------------------------------------------------------

class InputTooShortError(MidlimeError):
    """Signal shorter than one analysis frame."""


class ScaleMismatchError(MidlimeError):
    """Spectrogram handed to an operation expecting the other scale."""


class ShapeMismatchError(MidlimeError):
    """Array dimensions inconsistent with the operation's contract."""


class RankDeficiencyError(MidlimeError):
    """Surrogate normal matrix is singular; use ridge>0 or more samples."""


# --- segmentation -------------------------------------------------------------

class InputTooSmallError(MidlimeError):
    """Image has fewer pixels than the minimum segment size."""


# --- predictor gateway --------------------------------------------------------

class PredictorError(MidlimeError):
    """Base class for black-box predictor failures."""


class SpawnError(PredictorError):
    """External predictor process could not be started."""


class ProtocolError(PredictorError):
    """Child emitted a line that is not a valid protocol message."""

    def __init__(self, message: str, line: str | None = None):
        super().__init__(message)
        self.line = line


class ProtocolVersionError(ProtocolError):
    """Child speaks a different protocol version."""


class CapabilitiesError(PredictorError):
    """Capabilities message failed validation; ``field`` names the culprit."""

    def __init__(self, message: str, field: str | None = None):
        super().__init__(message)
        self.field = field


class TransportError(PredictorError):
    """Request/response bookkeeping broke down (lost id, child exit, ...)."""


class PredictorTimeoutError(PredictorError):
    """Child did not answer within the configured timeout."""


class PredictionValueError(PredictorError):
    """Child returned a non-finite prediction; ``index`` is the batch item."""

    def __init__(self, message: str, index: int | None = None):
        super().__init__(message)
        self.index = index


# --- explanations -------------------------------------------------------------

class ComparabilityError(MidlimeError):
    """Explanations of different targets cannot be compared."""


# --- pipeline -----------------------------------------------------------------

class StageError(MidlimeError):
    """Pipeline stage failure; carries the stage name, chains the cause."""

    def __init__(self, stage: str, cause: BaseException):
        super().__init__(f"stage '{stage}' failed: {cause}")
        self.stage = stage
        self.cause = cause

    def __reduce__(self):
        # The default rebuilds from `args`, the one message string.
        return type(self), (self.stage, self.cause)
