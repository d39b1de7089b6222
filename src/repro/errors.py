"""Exception hierarchy for the SABER reproduction.

All library errors derive from :class:`SaberError` so that callers can
catch library failures without masking programming errors.  The field
rules at the end are the one place that decides what a setting accepts.
"""

import dataclasses
import math
import numbers
import threading


class SaberError(Exception):
    """Base class for all errors raised by this library."""


class SchemaError(SaberError):
    """A schema definition or schema lookup is invalid."""


class ExpressionError(SaberError):
    """An expression references unknown columns or mixes invalid types."""


class WindowError(SaberError):
    """A window definition is invalid (e.g. non-positive size or slide)."""


class QueryError(SaberError):
    """A query is malformed (operator/window/stream-function mismatch)."""


class BuilderError(QueryError):
    """A fluent :class:`~repro.api.Stream` plan is invalid.

    Raised at *build time* (or at the offending chain step) so that plan
    errors surface before any data is dispatched.  Subclasses
    :class:`QueryError`: a bad plan is a bad query.
    """


class SessionError(SaberError):
    """A :class:`~repro.api.SaberSession` operation is invalid.

    Covers lifecycle misuse (submitting after the run started, running a
    closed session) and stream-registry failures (unresolvable sources).
    """


class ValidationError(SessionError):
    """A source or sink fails the connector SPI contract.

    Raised eagerly — at ``register_stream``/``submit`` time — so a
    malformed source is reported by stream name instead of failing deep
    inside dispatch.  Subclasses :class:`SessionError`: registering a
    bad source is a session misuse.
    """


class BufferError_(SaberError):
    """A circular buffer operation failed (overflow, bad pointer)."""


class BackpressureError(BufferError_):
    """Ingress exceeded capacity under the ``error`` backpressure policy.

    Raised by bounded ingress queues (push/socket sources) and by the
    dispatcher when a circular input buffer has no room and the engine's
    :class:`~repro.io.BackpressurePolicy` says to fail fast instead of
    blocking or shedding.  Subclasses :class:`BufferError_` so callers of
    the pre-SPI overflow behaviour keep working.
    """


class EndOfStream(SaberError):
    """A finite source is exhausted (connector SPI control flow).

    Raised by :meth:`~repro.io.SourceConnector.next_tuples` when fewer
    tuples than requested remain; ``remainder`` carries the final short
    batch (possibly ``None``/empty).  The dispatcher turns it into a
    final short task and marks the query's stream done, which is what
    lets finite streams complete their query handles.
    """

    def __init__(self, remainder=None) -> None:
        super().__init__("end of stream")
        #: the final partial batch (fewer tuples than requested), or None.
        self.remainder = remainder


class IngestInterrupted(SaberError):
    """A blocking source pull was interrupted by an engine stop request.

    Not an error condition: the dispatcher treats it as "stop now, keep
    the stream position" — pulled-but-unconsumed data stays staged in the
    dispatcher, so a later run resumes without loss.
    """


class DispatchError(SaberError):
    """The dispatcher could not create a query task."""


class SchedulingError(SaberError):
    """The scheduler was invoked with an inconsistent state."""


class ExecutionError(SaberError):
    """A query task failed during execution."""


class CQLSyntaxError(SaberError):
    """A CQL query string could not be parsed."""


class SimulationError(SaberError):
    """The discrete-event simulation reached an inconsistent state."""


# -- field rules ---------------------------------------------------------------
# A rule is ``rule(value, name, error)``: it returns ``value`` or raises
# ``error("<name> must be …")``, refusing NaN, ±inf, bools for numbers and
# the wrong type.  Config dataclasses declare one per field (``checked``)
# and apply them with ``check_fields``; plain constructors call them.

#: ``dataclasses.field(metadata=...)`` key that holds a field's rule.
RULE = "rule"
#: the largest integer a setting may take: counts and sizes end up in
#: int64 numpy arithmetic (ring positions, task ids, seeds).
INT64_MAX = 2**63 - 1


def checked(default, rule):
    """A dataclass field whose value ``rule`` validates."""
    return dataclasses.field(default=default, metadata={RULE: rule})


def check_fields(obj, error):
    """Apply every field's declared rule to a dataclass instance."""
    owner = type(obj).__name__
    for field in dataclasses.fields(obj):
        field.metadata[RULE](getattr(obj, field.name), f"{owner}.{field.name}", error)


def _rule(accepts, what):
    def rule(value, name, error=ValidationError):
        if not accepts(value):
            raise error(f"{name} must be {what}, got {value!r}")
        return value

    return rule


def _number(value, kind):
    return isinstance(value, kind) and not isinstance(value, bool)


def int_range(low, high, what=None):
    """An integer in ``[low, high]``."""
    return _rule(
        lambda v: _number(v, numbers.Integral) and low <= v <= high,
        what or f"an integer in [{low}, {high}]",
    )


positive_int = int_range(1, INT64_MAX, "a positive 64-bit integer")
non_negative_int = int_range(0, INT64_MAX, "a non-negative 64-bit integer")
port = int_range(0, 65535)
positive_finite = _rule(
    lambda v: _number(v, numbers.Real) and 0 < v < math.inf, "positive and finite"
)
non_negative_finite = _rule(
    lambda v: _number(v, numbers.Real) and 0 <= v < math.inf, "non-negative and finite"
)
#: a wait the engine hands to ``threading`` (which caps timeouts).
wait_seconds = _rule(
    lambda v: _number(v, numbers.Real) and 0 < v <= threading.TIMEOUT_MAX,
    f"positive and at most {threading.TIMEOUT_MAX:.0f} s",
)
#: a generator's tuples per timestamp unit: it divides int64 positions.
tuple_rate = _rule(
    lambda v: _number(v, numbers.Real) and 0 < v <= INT64_MAX, "positive and at most 2**63 - 1"
)


def instance_of(cls):
    """An instance of ``cls``."""
    return _rule(lambda v: isinstance(v, cls), f"a {cls.__name__}")


boolean = instance_of(bool)


def optional(rule):
    """``None`` (the setting is off) or a value ``rule`` accepts."""
    return lambda value, name, error=ValidationError: (
        None if value is None else rule(value, name, error)
    )


def choice(values):
    """One of the strings ``values``."""

    def rule(value, name, error=ValidationError):
        if isinstance(value, str) and value in values:
            return value
        options = ", ".join(map(repr, values))
        field = name.rsplit(".", 1)[-1]
        raise error(f"{name} must be one of {options}; unknown {field} {value!r}")

    return rule
