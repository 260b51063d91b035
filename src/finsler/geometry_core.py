"""Riemannian side of the (alpha, beta) data.

Metric and one-form evaluation, Christoffel symbols, the covariant derivative
of the one-form, and the symmetric/antisymmetric split with all of its index
raisings, at one point or a ``(P, n)`` stack; nothing here keeps state between
calls.  ``MetricSpec.a_at`` and ``b_at`` evaluate a whole stack (a stencil's,
or a grid's) in one call of a spec declared ``stacked``, and one call per row
otherwise.  A command computes its sample set as one stack and hands each
reader its point's row (``BetaCalculus.rows``, ``grid_calculus``).
"""

from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import islice
from typing import Callable, Optional

import numpy as np

from .errors import DimensionMismatch, DomainError, SingularMetric, ZeroNorm
from .jets import base_derivative


@dataclass(frozen=True)
class ChartDomain:
    """Axis-aligned sampling box with an optional membership predicate."""

    lo: tuple
    hi: tuple
    predicate: Optional[Callable] = None

    def contains(self, x):
        x = np.asarray(x, dtype=float)
        if np.any(x < np.asarray(self.lo)) or np.any(x > np.asarray(self.hi)):
            return False
        return self.predicate(x) if self.predicate is not None else True

    def grid(self, counts, margin=0.0):
        """Cartesian interior grid, box shrunk by ``margin`` on every side."""
        lo = np.asarray(self.lo, dtype=float) + margin
        hi = np.asarray(self.hi, dtype=float) - margin
        axes = [np.linspace(lo[i], hi[i], counts[i]) for i in range(len(lo))]
        pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(lo))
        # the box as one mask, the predicate only on the points inside it
        pts = pts[~((pts < np.asarray(self.lo)) | (pts > np.asarray(self.hi))).any(axis=1)]
        return [p for p in pts if self.predicate is None or self.predicate(p)]


#: the largest |a_ij| or |b_i| a metric may take: the fiber jets multiply two
#: entries by small factors, and past the float range's square root, 1.3e154,
#: that product overflows to an inf or a NaN
MAX_ENTRY = 1e150


@dataclass(eq=False, frozen=True)
class MetricSpec:
    """Riemannian metric a_ij(x) and one-form b_i(x) on an n-dimensional chart.

    ``a`` and ``b_form`` take one point ``(n,)`` and return ``(n, n)`` and
    ``(n,)``.  ``stacked=True`` declares that they also take a ``(P, n)``
    stack (coordinate k is ``x[..., k]``) and return ``(P, n, n)`` and
    ``(P, n)``, each row with the bytes of its point's one-point call.
    ``a_at`` and ``b_at`` call a stacked spec once per stack and any other
    once per row: an output's shape cannot tell them apart.  An entry past
    ``MAX_ENTRY``, an inf among them, raises :class:`DomainError`, and an a(x)
    that is not symmetric to the roundoff of its largest entry
    :class:`SingularMetric`.
    """

    n: int
    a: Callable  # x -> (n, n) symmetric positive-definite matrix
    b_form: Callable  # x -> (n,) covector
    chart_domain: ChartDomain
    name: str = "custom"
    stacked: bool = False

    def a_at(self, x):
        a = self._evaluate(self.a, "a", x, (self.n, self.n))
        tol = 1e-12 * max(a.max(initial=0.0), -a.min(initial=0.0))
        if any(np.abs(a[..., i, j] - a[..., j, i]).max(initial=0.0) > tol
               for i, j in zip(*_lower_triangle(self.n))):
            raise SingularMetric("a(x) is not symmetric")
        return a

    def b_at(self, x):
        return self._evaluate(self.b_form, "b", x, (self.n,))

    def _evaluate(self, field, name, x, shape):
        x = np.asarray(x, dtype=float)
        if x.ndim > 1 and not self.stacked:  # one call per row, each checked alone
            return np.array([self._evaluate(field, name, p, shape) for p in x])
        v = np.asarray(field(x), dtype=float, order="C")
        if v.shape != x.shape[:-1] + shape:
            raise DimensionMismatch(f"{name}(x) has shape {v.shape}, "
                                    f"expected {x.shape[:-1] + shape}")
        # fmax and fmin skip a NaN: it passes, for the readers' own finite checks
        if np.fmax.reduce(v, axis=None, initial=0.0) > MAX_ENTRY \
                or np.fmin.reduce(v, axis=None, initial=0.0) < -MAX_ENTRY:
            raise DomainError(f"{name}(x) has the entry {float(v[np.abs(v) > MAX_ENTRY][0])!r}, "
                              f"past the bound {MAX_ENTRY:g} of a metric's entries")
        return v


def _inverse_cholesky(a, what="a_ij"):
    """L^-1 for a = L L^T, L lower triangular; a stack of matrices gives a stack.

    An entry of L^-1 past ``MAX_ENTRY ** 0.5``, so of a^-1 past ``MAX_ENTRY``
    (an eigenvalue of ``a`` near 0 on the float range's scale), is a singular
    ``a`` too.
    """
    try:
        chol = np.linalg.cholesky(a)
    except np.linalg.LinAlgError as exc:
        raise SingularMetric(f"{what} is not positive definite") from exc
    inv = np.linalg.inv(chol)
    if np.any(np.abs(inv) > MAX_ENTRY ** 0.5):
        raise SingularMetric(f"{what} is singular within the float range")
    return inv


def _inverse_spd(a, what="a_ij"):
    """Inverse of a symmetric positive-definite matrix, or of a stack of them."""
    inv_chol = _inverse_cholesky(a, what)
    return inv_chol.swapaxes(-1, -2) @ inv_chol


@lru_cache(maxsize=None)
def _lower_triangle(n):
    """Row and column indices below the diagonal of an n x n matrix, once per n."""
    return np.tril_indices(n, -1)


def _at(field, x):
    """``field`` at one point ``(n,)``, or stacked over the rows of a ``(P, n)`` stack:
    the row map of the one-form's length, which takes one point."""
    return field(x) if x.ndim == 1 else np.array([field(p) for p in x])


def _metric_derivative(m: MetricSpec, x):
    """da[..., k, i, j] = d a_ij / d x^k at ``x`` or a ``(P, n)`` stack, points first;
    the upper triangle is mirrored so an a(x) symmetric only to roundoff gives
    a symmetric da."""
    da = np.moveaxis(base_derivative(m.a_at, x), -1, -3)
    rows, cols = _lower_triangle(m.n)
    da[..., rows, cols] = da[..., cols, rows]
    return da


def christoffels(m: MetricSpec, x, a_inv=None, da=None):
    """Levi-Civita connection of alpha at ``x`` or a ``(P, n)`` stack; ``a_inv`` is
    a(x)^-1 and ``da`` its ``_metric_derivative``, if at hand."""
    x = np.asarray(x, dtype=float)
    if a_inv is None:
        a_inv = _inverse_spd(m.a_at(x))
    n = m.n
    if da is None:
        da = _metric_derivative(m, x)
    # term[..., m, j, k] = da[j, m, k] + da[k, m, j] - da[m, j, k]
    da_j = da.swapaxes(-3, -2)
    term = da_j + da_j.swapaxes(-2, -1) - da
    acc = 0.0  # gamma^i_jk = a^im term_mjk / 2, summed in the order of m
    for mm in range(n):
        acc = acc + a_inv[..., :, mm, None, None] * term[..., None, mm, :, :]
    return 0.5 * acc


@dataclass
class BetaCalculus:
    """One-form calculus at a point, covariant derivative and its r/s split; every
    field but ``n`` has a leading P axis when computed at a ``(P, n)`` stack."""

    x: np.ndarray
    n: int
    a: np.ndarray
    a_inv: np.ndarray
    gamma: np.ndarray  # gamma[i, j, k]
    b_i: np.ndarray
    b_up: np.ndarray
    b2: float
    b: float
    bij: np.ndarray  # covariant derivative b_{i;j}
    r: np.ndarray  # symmetric part
    s: np.ndarray  # antisymmetric part
    r_i: np.ndarray
    s_i: np.ndarray
    s_up: np.ndarray  # s^i_j
    da: np.ndarray  # da[k, i, j] = d a_ij / d x^k
    db: np.ndarray  # db[i, j] = d b_i / d x^j

    def row(self, k):
        """Point ``k`` of a stack, as a one-point call gives it: the ``k``-th of ``rows``."""
        return next(islice(self.rows(), range(len(self.b))[k], None))

    def rows(self):
        """Every point of a stack in order, each as ``row`` gives it: the
        fields' rows zipped, not indexed one point at a time."""
        names = [key for key in vars(self) if key != "n"]
        columns = [value if value.ndim > 1 else value.tolist()  # b2, b: floats
                   for value in map(vars(self).get, names)]
        for values in zip(*columns):
            yield BetaCalculus(n=self.n, **dict(zip(names, values)))

    @classmethod
    def stack(cls, rows):
        """One-point calculi as one stack, each field's rows with their bits: ``rows`` undone."""
        return cls(n=rows[0].n, **{key: np.array([vars(bc)[key] for bc in rows])
                                   for key in vars(rows[0]) if key != "n"})


def beta_derivatives(m: MetricSpec, x) -> BetaCalculus:
    """Covariant derivative of the one-form and its full index menagerie, at one
    point or at a ``(P, n)`` stack, each row with the bits of its point alone."""
    x = np.asarray(x, dtype=float)
    if not len(x):
        raise DomainError("beta_derivatives needs at least one point, got an empty stack")
    a = m.a_at(x)
    a_inv = _inverse_spd(a)
    da = _metric_derivative(m, x)
    gamma = christoffels(m, x, a_inv, da)
    b_i = m.b_at(x)
    db = base_derivative(m.b_at, x)  # db[..., i, j] = d b_i / d x^j, points first
    bij = db - np.einsum("...k,...kij->...ij", b_i, gamma)
    bji = bij.swapaxes(-1, -2)
    r = 0.5 * (bij + bji)
    s = 0.5 * (bij - bji)
    b_up = (a_inv @ b_i[..., None])[..., 0]
    b2 = (b_i[..., None, :] @ b_up[..., None])[..., 0, 0]
    b = np.sqrt(np.where(b2 < 0.0, 0.0, b2))  # max(b2, 0.0), which keeps a -0.0
    if x.ndim == 1:  # one point keeps Python floats
        b2, b = float(b2), float(b)
    return BetaCalculus(x=x, n=m.n, a=a, a_inv=a_inv, gamma=gamma, b_i=b_i,
                        b_up=b_up, b2=b2, b=b, bij=bij, r=r, s=s,
                        r_i=(b_up[..., None, :] @ r)[..., 0, :],
                        s_i=(b_up[..., None, :] @ s)[..., 0, :], s_up=a_inv @ s,
                        da=da, db=db)


#: points per stacked pass of ``grid_calculus``: its stencil holds 4 n points per point
_GRID_CHUNK = 1024


def grid_calculus(m: MetricSpec, points):
    """Each point's beta calculus, from one stacked pass per chunk of the points.

    Where a chunk's pass raises, each of its points is computed alone, once,
    as the reader reaches it, and a point that raises alone gives the
    exception itself: its reader raises it where it needs the calculus
    (``table``, or a bundle's ``bc``), as a one-point call would.
    """
    for start in range(0, len(points), _GRID_CHUNK):
        chunk = points[start:start + _GRID_CHUNK]
        try:
            stack = beta_derivatives(m, np.array(chunk))
        except Exception:  # noqa: BLE001 - each point then raises what it raises alone
            for x in chunk:
                try:
                    bc = beta_derivatives(m, x)
                except Exception as exc:  # noqa: BLE001 - handed to the reader, which raises it
                    bc = exc
                yield bc
        else:
            yield from stack.rows()


def beta_norm_gradient_check(m: MetricSpec, bc: BetaCalculus):
    """Residual of d|beta|/dx^i = (r_i + s_i)/|beta|, componentwise, at ``bc``'s one point."""
    if bc.b <= 1e-12:
        raise ZeroNorm("one-form has zero length at this point")

    def norm(xp):  # |beta|_alpha at xp
        a_inv = _inverse_spd(m.a_at(xp))
        b_i = m.b_at(xp)
        return float(np.sqrt(max(b_i @ a_inv @ b_i, 0.0)))

    return base_derivative(partial(_at, norm), bc.x) - (bc.r_i + bc.s_i) / bc.b


# Called nowhere in the package: perfbench/tracer.py traces this name and its
# test checks that it is bound; it goes with that tracer (ROADMAP item 1).
def beta_at(m: MetricSpec, x) -> BetaCalculus:
    """``beta_derivatives`` at one point."""
    return beta_derivatives(m, x)
