"""Exception types shared across the package."""

from contextlib import contextmanager


class DiscinfoError(Exception):
    """Base class for every error raised by this package."""


class ZeroProbabilityEvent(DiscinfoError):
    """Conditioning on (or tying to) an outcome combination with zero mass."""


class NonPositiveProbability(DiscinfoError):
    """Information content requested for a value <= 0."""


class SupportMismatch(DiscinfoError):
    """The right-hand distribution is zero somewhere the left one has mass."""


class UnknownVariable(DiscinfoError):
    """An expression refers to a variable or binding that cannot be resolved."""


class MissingQDistribution(DiscinfoError):
    """An expression uses the letter ``q`` but no second distribution was given."""


class ZeroEvidence(DiscinfoError):
    """Observed data has probability zero under every hypothesis."""


class MalformedInput(DiscinfoError, ValueError):
    """A JSON document whose structure is not the documented one."""


@contextmanager
def malformed_input(what: str):
    """Report a wrong-shaped document (a number where a list belongs, a
    missing key, ...) as :class:`MalformedInput` instead of the bare error
    that indexing it raised."""
    try:
        yield
    except (TypeError, KeyError, AttributeError, IndexError) as exc:
        raise MalformedInput(f"malformed {what} JSON: {type(exc).__name__}: {exc}") from None


class InvalidIndex(DiscinfoError, ValueError):
    """An input or label, given by position or by name, that the model lacks."""


class BatchTooLarge(DiscinfoError):
    """A joint batch score would enumerate too many label configurations."""


class CounterexampleMismatch(DiscinfoError):
    """A built-in reference witness did not reproduce its expected values."""
