"""Exception hierarchy shared by all airnoise modules.

Parse errors carry a 1-based line number (the header is line 1) so that a
failing input file can be fixed without guessing.
"""

from __future__ import annotations


class AirnoiseError(Exception):
    """Base class for all errors raised by this package."""


# --- ingest -------------------------------------------------------------

class MalformedRow(AirnoiseError):
    def __init__(self, line: int, reason: str):
        self.line = line
        self.reason = reason
        super().__init__(f"line {line}: {reason}")


class RangeViolation(AirnoiseError):
    def __init__(self, line: int, field: str, value, bounds: str):
        self.line = line
        self.field = field
        self.value = value
        super().__init__(f"line {line}: {field}={value!r} outside {bounds}")


class DuplicateKey(AirnoiseError):
    def __init__(self, line: int, key):
        self.line = line
        self.key = key
        super().__init__(f"line {line}: duplicate key {key!r}")


# --- acoustics / generic numeric ---------------------------------------

class EmptyInput(AirnoiseError):
    pass


# --- fusion --------------------------------------------------------------

class AmbiguousMapping(AirnoiseError):
    pass


class UnknownTract(AirnoiseError, KeyError):
    """A terminal names a tract that is not in tracts.csv (still a KeyError,
    as it was before it became an AirnoiseError)."""

    def __str__(self) -> str:
        return Exception.__str__(self)  # KeyError would quote the message


class MissingPopulation(AirnoiseError):
    def __init__(self, pairs):
        self.pairs = list(pairs)
        shown = ", ".join(f"({t}, {h})" for t, h in self.pairs[:5])
        more = "" if len(self.pairs) <= 5 else f" and {len(self.pairs) - 5} more"
        super().__init__(f"population missing for {shown}{more}")


class MissingWeather(AirnoiseError):
    def __init__(self, hour):
        self.hour = hour
        super().__init__(f"no weather record for hour {hour}")


# --- exposure -------------------------------------------------------------

class NegativeValue(AirnoiseError):
    pass


class GridMismatch(AirnoiseError):
    pass


class InsufficientData(AirnoiseError):
    pass


# --- gbm -------------------------------------------------------------------

class TooFewRows(AirnoiseError):
    pass


class NonFiniteFeature(AirnoiseError):
    pass


class NonFiniteTarget(AirnoiseError):
    pass


class MissingFeature(AirnoiseError):
    def __init__(self, name: str):
        self.name = name
        super().__init__(f"row is missing feature {name!r}")


# --- shapley ---------------------------------------------------------------

class UnknownFeature(AirnoiseError):
    def __init__(self, name):
        self.name = name
        super().__init__(f"unknown feature {name!r}")


class TooManyFeatures(AirnoiseError):
    pass


# --- validation -------------------------------------------------------------

class UnmappedTract(AirnoiseError):
    pass


class LengthMismatch(AirnoiseError):
    pass


class ZeroVariance(AirnoiseError):
    pass


class NonPositiveValue(AirnoiseError):
    pass


class WrongLength(AirnoiseError):
    pass


# --- synth / config -----------------------------------------------------------

class InvalidConfig(AirnoiseError):
    pass


class UsageError(AirnoiseError):
    """A malformed flag or configuration value; the CLI exits with status 2."""


class MalformedConfig(UsageError, InvalidConfig):
    """A config-file line that is not ``key = value`` with a known key (a usage
    error, and still the InvalidConfig it was before)."""
