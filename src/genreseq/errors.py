"""Exception types shared across the package."""


class GenreSeqError(Exception):
    """Base class for all library errors."""


class UnknownGenre(GenreSeqError):
    """A genre name outside the fixed 19-genre alphabet."""


class EmptyGenreList(GenreSeqError):
    """A movie was given with no genre names at all."""


class EmptyGenreSupport(GenreSeqError):
    """A genre vector with no set bits where at least one is required."""


class MalformedRow(GenreSeqError):
    """A CSV row that cannot be parsed; carries its 1-based line number."""

    def __init__(self, line_number: int, message: str):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


class RatingOutOfRange(GenreSeqError):
    """A rating outside the valid [0.5, 5.0] range."""


class InvalidSpec(GenreSeqError):
    """An invalid synthetic-data specification."""


class TooFewUsers(GenreSeqError):
    """More clusters requested than rating profiles available."""


class ShapeMismatch(GenreSeqError):
    """Array arguments whose shapes do not agree with the network parameters."""


class EmptyDataset(GenreSeqError):
    """Training requested on a dataset with no samples."""


class LengthMismatch(GenreSeqError):
    """Prediction and target collections of different sizes."""


class NonFinitePrediction(GenreSeqError):
    """Predictions holding NaN or infinite values; carries how many."""

    def __init__(self, count: int, total: int):
        super().__init__(f"{count} of {total} predictions are not finite")
        self.count = count
