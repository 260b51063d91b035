"""Exception hierarchy shared across the package, and the one runner of column batches."""

import numpy as np


def shown(value, form=repr):
    """``form(value)`` for a message: past 60 characters, its first 60 and its
    length, so that a value from outside quotes in one short line at any size;
    an int past Python's digit limit for ``str``, its approximate digit count."""
    try:
        text = form(value)
    except ValueError:  # only an int past that limit: ``form`` is repr or str
        return f"an int of about {int(value.bit_length() * 0.30103) + 1} digits"
    return text if len(text) <= 60 else f"{text[:60]}... ({len(text)} chars)"


class FinslerError(Exception):
    """Base class for all errors raised by this package; ``columns``, if a check of a
    batch set it, masks the batch's columns that failed it, each failing alone too."""

    def __init__(self, *args, columns=None):
        super().__init__(*args)
        self.columns = columns


def marked(exc, columns):
    """``exc``, its ``columns`` set to the boolean mask ``columns``."""
    exc.columns = np.asarray(columns, dtype=bool)
    return exc


def at_first(values, bad):
    """For a message: ``values`` at the first column where ``bad`` holds, a float as it is,
    so that a one-column batch names what its column names alone."""
    return np.ravel(values)[np.argmax(bad)] if np.ndim(values) else values


def outcome(fn, *args):
    """``fn(*args)``, or the exception it raises."""
    try:
        return fn(*args)
    except Exception as exc:  # noqa: BLE001 - the caller raises or records it
        return exc


def by_columns(batch, cols, alone=None):
    """``batch(cols)``, one result per column (a list, or an array with the columns
    first) of the index array ``cols``, or ``arange(cols)`` for a count.

    If it raises, the columns its fault names (``columns``), or else all, are
    marked: the columns before the first marked one run as one batch, each
    marked column alone (``alone``, default ``batch``; it may record its
    error), and the other columns as one batch, each batch by the same rule.
    An error raised is the first failing column's alone, naming the columns
    known to fail."""
    cols = cols if isinstance(cols, np.ndarray) else np.arange(cols)
    try:
        return batch(cols)
    except Exception as exc:  # noqa: BLE001 - each column then raises what it raises alone
        known = np.asarray(getattr(exc, "columns", None), dtype=bool)
        if not len(cols):
            raise
    known = known if known.shape == cols.shape and known.any() else np.zeros(len(cols), bool)
    todo = known if known.any() else ~known
    first, pieces = todo.argmax(), []
    for pos, one in [(np.arange(first), False), *(([p], True) for p in np.flatnonzero(todo)),
                     (first + np.flatnonzero(~todo[first:]), False)]:
        try:
            if len(pos):
                pieces.append((pos, (alone or batch)(cols[pos]) if one
                               else by_columns(batch, cols[pos], alone)))
        except Exception as err:  # noqa: BLE001 - raised naming this batch's failing columns
            lifted = known.copy()
            lifted[pos if one else np.asarray(pos)[err.columns]] = True
            raise marked(err, lifted)
    order = np.argsort(np.concatenate([pos for pos, _ in pieces]))
    if isinstance(pieces[0][1], np.ndarray):
        return np.concatenate([out for _, out in pieces])[order]
    items = [item for _, out in pieces for item in out]
    return [items[k] for k in order]


class DomainError(FinslerError):
    """Input lies outside the mathematical domain of an operation."""


class ArityError(FinslerError):
    """Elementary-function tag applied to the wrong number of arguments."""


class EvaluationError(FinslerError):
    """A user-supplied field raised while being sampled on a stencil."""


class ExprSyntaxError(FinslerError):
    """Malformed expression text; carries the character offset of the failure."""

    def __init__(self, message, offset):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class UnknownIdentifier(FinslerError):
    """Expression references a name that was not declared."""

    def __init__(self, name, offset=None):
        super().__init__(f"unknown identifier {shown(name)}")
        self.name = name
        self.offset = offset


class UnboundVariable(FinslerError):
    """Expression evaluated without a binding for one of its variables."""


class SingularMetric(FinslerError):
    """Riemannian metric matrix failed its positive-definiteness check."""


class SingularG(FinslerError):
    """Fundamental tensor g_ij is not positive definite at (x, y)."""


class DimensionMismatch(FinslerError):
    """Vector or tensor dimensions disagree."""


class DimensionError(FinslerError):
    """Operation only defined in a specific dimension (e.g. surfaces)."""


class ZeroNorm(FinslerError):
    """The one-form has (numerically) zero length where a positive length is required."""


class ZeroVector(DomainError):
    """A nonzero tangent vector is required."""


class DegenerateDenominator(FinslerError):
    """phi - s*phi' or Delta degenerated below tolerance."""


class NonPositivePhi(FinslerError):
    """phi positivity requirement violated on the admissible interval."""


class WrongPhiVariant(FinslerError):
    """Operation requires a specific phi family (e.g. Randers only)."""


class SingularDirectionInQuadrature(FinslerError):
    """Unit-ball quadrature hit a persistently singular direction."""


class DegenerateFlag(FinslerError):
    """Flag-curvature denominator is numerically zero."""


class EmptyGrid(FinslerError):
    """Classifier called with no sample points."""


class AllSamplesSingular(FinslerError):
    """Every sampled direction was singular for the metric."""


class RankDeficient(FinslerError):
    """Least-squares design matrix is rank deficient."""


class MissingReports(FinslerError):
    """Trichotomy verdict requested before its prerequisite predicates."""


class UnknownName(FinslerError):
    """No catalog entry with the requested name."""


class ParamOutOfRange(FinslerError):
    """Catalog parameter outside its documented range."""


class UnknownQuantity(FinslerError):
    """Table command asked for a quantity it does not know."""


class FastWind(FinslerError):
    """Zermelo wind reaches or exceeds unit h-length."""


class ConfigError(FinslerError):
    """Invalid run configuration; message names the offending field."""
