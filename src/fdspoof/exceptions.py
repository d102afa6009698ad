"""Exception types shared across the toolkit.

Every error raised on a per-record basis during corpus processing derives from
:class:`FdspoofError`, so batch drivers can distinguish recoverable skips from
programming errors.
"""


class FdspoofError(Exception):
    """Base class for all toolkit errors."""


class SettingError(ValueError):
    """A configuration value that its validator rejects (a usage error)."""


# audio_io
class UnsupportedFormat(FdspoofError):
    """File is not an uncompressed linear-PCM waveform we can read."""


class ChannelError(FdspoofError):
    """Audio has more than one channel."""


class RateError(FdspoofError):
    """Sample rate differs from the required 16 kHz."""


class EmptySignal(FdspoofError):
    """No usable samples (empty, or all-zero)."""


# segmentation
class TooShort(FdspoofError):
    """Buffer shorter than one analysis window."""


class ViewMismatch(FdspoofError):
    """Segment view does not belong to the buffer or is out of bounds."""


# cepstral / features
class InsufficientData(FdspoofError):
    """Not enough samples for a single analysis frame."""


class InsufficientDigits(FdspoofError):
    """Too few non-zero values to form a digit distribution; the message names
    the short cell by frequency, base and quantization step."""


# forest
class EmptyDataset(FdspoofError):
    """Training data empty or otherwise unusable."""


class LayoutMismatch(FdspoofError):
    """Feature layouts of two datasets / models disagree."""


# asvspoof
class ParseError(FdspoofError):
    """Malformed protocol, feature CSV or model file."""


class DegenerateProtocol(FdspoofError):
    """Protocol lacks bonafide or spoof entries."""


class MissingAudio(FdspoofError):
    """Referenced audio file not found (an error, never a silent skip)."""


# firsim
class DesignFailure(FdspoofError):
    """Equiripple exchange did not produce a usable filter."""
