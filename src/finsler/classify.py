"""Metric-level predicates and the trichotomy verdict.

Every predicate returns a ``Verdict`` carrying its max residual, the threshold
it was compared against and the number of samples used — never a bare boolean.
The final verdict is decided by a fixed priority ladder so reports are
deterministic.
"""

import json
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import (AllSamplesSingular, DegenerateFlag, DomainError,
                     EmptyGrid, EvaluationError, FinslerError, MissingReports,
                     RankDeficient, WrongPhiVariant, by_columns)
from .finsler_metric import fsq_jet, fundamental
from .geometry_core import BetaCalculus, MetricSpec, beta_derivatives
from .phi_families import PhiFamily, _q_series
from .series import over_columns
# curvature_bundle calls riemann_flag; perfbench/tests/test_tracer.py requires it bound here
from .spray_curvature import (curvature_bundle, landsberg, ln_sigma_gradient,  # noqa: F401
                              riemann_flag, s_curvature_def, spray_data)

#: default thresholds per predicate family
TOL_TENSOR = 1e-6
TOL_S = 1e-5
TOL_DUAL_ROUTE = 1e-4
TOL_UNICORN = 1e-3  # rms of the unicorn fit

#: the classification's grid points per axis: a coarser grid can be
#: radius-symmetric and mask a non-constant one-form length
PER_AXIS = 3

VERDICTS = ("RiemannianIsotropic", "LocallyMinkowskiLike", "UnicornCase",
            "NotGeneralizedBerwald", "SNonzero", "Inconclusive")


@dataclass(frozen=True)
class Verdict:
    """A boolean conclusion together with the evidence that produced it."""

    value: bool
    residual: float
    threshold: float
    n_samples: int
    error: Optional[str] = None  # why the predicate could not be evaluated

    @classmethod
    def errored(cls, threshold, exc):
        """A predicate that raised: false, with no residual, carrying the error text."""
        return cls(False, math.nan, threshold, 0, f"{type(exc).__name__}: {exc}")

    def __post_init__(self):
        # a numpy comparison yields numpy.bool, which __bool__ may not return
        object.__setattr__(self, "value", bool(self.value))
        object.__setattr__(self, "residual", float(self.residual))
        object.__setattr__(self, "threshold", float(self.threshold))

    def __bool__(self):
        return self.value

    def as_dict(self):
        if self.error is not None:
            return {"verdict": None, "error": self.error,
                    "threshold": self.threshold, "n_samples": self.n_samples}
        return {"verdict": self.value, "residual": self.residual,
                "threshold": self.threshold, "n_samples": self.n_samples}


@dataclass(frozen=True)
class UnicornFit:
    k: float
    q: float
    rms: float

    def as_dict(self):
        return {"k": self.k, "q": self.q, "rms": self.rms}


@dataclass
class ClassificationReport:
    """All predicate verdicts, the optional unicorn fit and the final verdict."""

    metric_name: str
    predicates: dict  # name -> Verdict
    verdict: str
    unicorn: Optional[UnicornFit] = None
    grid_meta: dict = field(default_factory=dict)
    reason: Optional[str] = None  # why the verdict is Inconclusive, if a predicate errored

    def to_json(self):
        doc = {
            "metric": self.metric_name,
            "verdict": self.verdict,
            "predicates": {k: v.as_dict() for k, v in self.predicates.items()},
            "grid": self.grid_meta,
        }
        if self.unicorn is not None:
            doc["unicorn_fit"] = self.unicorn.as_dict()
        if self.reason is not None:
            doc["reason"] = self.reason
        return json.dumps(doc, indent=2, sort_keys=True)


def default_grid(m: MetricSpec, per_axis=3, margin=0.05):
    """Interior sampling grid of the chart domain, ``per_axis`` points per axis.

    The box shrinks on every side by ``margin`` times its shortest side.
    """
    lo = np.asarray(m.chart_domain.lo, dtype=float)
    hi = np.asarray(m.chart_domain.hi, dtype=float)
    grid = m.chart_domain.grid([per_axis] * m.n,
                               margin=float(np.min(hi - lo)) * margin)
    if not grid:
        raise EmptyGrid("no sample points inside the chart domain")
    return grid


def default_directions(n, count=16, seed=42):
    """Unit directions: an offset fan for n=2, seeded sphere points for n>=3."""
    if n == 2:
        ang = 0.1 + np.arange(count) * (2.0 * math.pi / count)
        return np.column_stack([np.cos(ang), np.sin(ang)])
    rng = np.random.default_rng(seed)
    v = rng.normal(size=(count, n))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def _admissible_dirs(f, bc, dirs):
    """Directions whose s = beta/alpha stays inside the regular cone at ``bc``'s point."""
    alpha = np.sqrt(np.einsum("ki,ij,kj->k", dirs, bc.a, dirs))
    return dirs[f.admissible((dirs @ bc.b_i) / alpha)]


# the predicates read the beta calculus of a (P, n) stack of sample points, P >= 1
def is_generalized_berwald(calc: BetaCalculus, tol=TOL_TENSOR) -> Verdict:
    """True iff the one-form length is constant across the sample points."""
    residual = float(np.max(np.abs(calc.b - calc.b[0])))
    return Verdict(residual < tol * max(1.0, calc.b[0]), residual, tol, len(calc.b))


def killing_constant_length(calc: BetaCalculus, tol=TOL_TENSOR) -> Verdict:
    """True iff r_ij = 0 and s_i = 0 at every sample point."""
    residual = max(float(np.max(np.abs(calc.r))), float(np.max(np.abs(calc.s_i))))
    return Verdict(residual < tol, residual, tol, len(calc.b))


def randers_s0_shortcut(calc: BetaCalculus, f: PhiFamily, tol=TOL_TENSOR) -> Verdict:
    """Randers-only S = 0 criterion: r_ij + b_i s_j + b_j s_i = 0."""
    if f.variant != "randers":
        raise WrongPhiVariant(
            f"shortcut applies to the Randers family only, got {f.variant!r}")
    b, s = calc.b_i, calc.s_i  # np.outer per point, as a broadcast product
    residual = float(np.max(np.abs(calc.r + b[:, :, None] * s[:, None, :]
                                   + s[:, :, None] * b[:, None, :])))
    return Verdict(residual < tol, residual, tol, len(calc.b))


def _sample_norms(m, f, calc, Y, grad, owner):
    """Max-norms of B, L, D, S and C per pair, each direction scaled to F = 1.

    ``calc`` is the calculus of a point stack, and direction ``Y[j]`` sits at
    its point ``owner[j]`` (``pair_columns``) with the gradient ``grad[j]``
    of ln sigma.
    """
    Y = Y / np.sqrt(fsq_jet(m, f, calc.x, Y, 0, owner).value)[..., None]
    fd = fundamental(m, f, calc.x, Y, owner)  # first: a failing sample raises what it does
    sd = spray_data(m, f, calc.x, Y, calc, owner)
    S = s_curvature_def(m, f, calc.x, Y, grad, sd, calc)
    return np.column_stack([np.abs(np.reshape(T, (len(Y), -1))).max(axis=-1)
                            for T in (sd.B, landsberg(fd, sd.B), sd.D, S, fd.C)])


#: (point, direction) pairs per jet batch of ``curvature_flags`` and of
#: ``report``'s records (``cli.cmd_report``)
_PAIR_CHUNK = 1024


def _grid_norms(m, f, calc, samples):
    """``_sample_norms`` rows of every (point, direction) pair of ``samples``,
    point-major, from one jet batch per ``_PAIR_CHUNK`` pairs (``by_columns``)."""
    owner = np.concatenate([np.full(len(usable), k) for k, usable, _ in samples])
    Y = np.concatenate([usable for _, usable, _ in samples])
    # each pair's gradient of ln sigma, zero where sigma failed at its point
    grad = np.concatenate([np.zeros_like(usable) if g is None else np.tile(g, (len(usable), 1))
                           for _, usable, g in samples])
    sigma_ok = np.concatenate([np.full(len(usable), g is not None) for _, usable, g in samples])

    def norms(part):
        out = _sample_norms(m, f, calc, Y[part], grad[part], owner[part])
        out[~sigma_ok[part], 3] = 0.0  # S where sigma failed
        return out.tolist()

    rows = []
    for start in range(0, len(Y), _PAIR_CHUNK):
        rows += by_columns(lambda k: norms(start + k), min(_PAIR_CHUNK, len(Y) - start))
    return rows


def _flag_curvatures(m, f, bc, Y):
    """|K| per direction of Y (through ``by_columns``); a direction without a usable
    flag alone gives none."""
    def alone(k):
        try:
            return [abs(curvature_bundle(m, f, bc.x, Y[k[0]], bc=bc).K)]
        except (DomainError, DegenerateFlag, EvaluationError):
            return [None]

    ks = by_columns(lambda k: np.abs(curvature_bundle(m, f, bc.x, Y[k], bc=bc).K).tolist(),
                    len(Y), alone) if len(Y) else []
    return [K for K in ks if K is not None]


def curvature_flags(m: MetricSpec, f: PhiFamily, calc: BetaCalculus, dirs) -> dict:
    """Berwald / Landsberg / Douglas / S-zero / Riemannian verdicts.

    ``calc`` is the beta calculus of the sample points, a ``(P, n)`` stack.
    Directions are normalized to F = 1 before evaluation so the max-norms are
    scale-invariant; directions outside the regular cone of almost-regular
    families are dropped, each point keeping its own admissible set.  Every
    (point, direction) pair of the grid goes through one jet batch per
    ``_PAIR_CHUNK`` pairs; if one raises, ``by_columns`` redoes alone only
    the pairs its fault names, so an error is the one raised alone.
    Where sigma fails, ``s_zero`` is an errored verdict carrying the first
    failure, and the other verdicts stand.
    """
    samples = []  # (point index, admissible directions, ln sigma gradient or None)
    sigma_error = None
    for k, bc in enumerate(calc.rows()):
        usable = _admissible_dirs(f, bc, np.asarray(dirs, dtype=float))
        if not len(usable):
            continue
        try:
            grad = ln_sigma_gradient(m, f, bc.x, bc)
        except FinslerError as exc:
            grad, sigma_error = None, sigma_error or exc
        samples.append((k, usable, grad))
    if not samples:
        raise AllSamplesSingular("every grid x direction sample was inadmissible")
    rows = _grid_norms(m, f, calc, samples)
    out = {}  # each column's maximum; fmax skips a NaN, as max() does
    for name, r in zip(("berwald", "landsberg", "douglas", "s_zero", "riemannian"),
                       np.fmax.reduce(np.array(rows), axis=0, initial=0.0)):
        t = TOL_S if name == "s_zero" else TOL_TENSOR
        out[name] = Verdict(r < t, r, t, len(rows))
    if sigma_error is not None:
        out["s_zero"] = Verdict.errored(TOL_S, sigma_error)
    return out


def unicorn_fit(f_or_samples, b) -> UnicornFit:
    """Least-squares fit of Q(s) against the basis {s, sqrt(b^2 - s^2)}.

    Accepts either a PhiFamily (Q sampled at 20 points of its Taylor data, at
    least 5 % inside the regular cone) or a pair of arrays (s values, Q values).
    """
    if isinstance(f_or_samples, PhiFamily):
        half = 0.999 * min(b, f_or_samples.b0) * (1.0 - max(0.05, f_or_samples.delta))
        s = np.linspace(-half, half, 20)
        q = over_columns(lambda v: _q_series(f_or_samples, v, 0).value, s)
    else:
        s, q = (np.asarray(v, dtype=float) for v in f_or_samples)
    if len(s) < 2:
        raise RankDeficient("need at least two distinct s samples")
    design = np.column_stack([s, np.sqrt(np.maximum(b * b - s * s, 0.0))])
    if np.linalg.matrix_rank(design, tol=1e-10) < 2:
        raise RankDeficient("unicorn design matrix is rank deficient")
    coef, _, _, _ = np.linalg.lstsq(design, q, rcond=None)
    rms = float(np.sqrt(np.mean((design @ coef - q) ** 2)))
    return UnicornFit(k=float(coef[0]), q=float(coef[1]), rms=rms)


def theorem11_verdict(reports: dict, unicorn: Optional[UnicornFit] = None,
                      flag_zero: Optional[Verdict] = None):
    """Trichotomy decision from the predicate verdicts, in fixed priority order.

    Returns the verdict and, when it is ``Inconclusive`` because the ``gb``
    or ``s_zero`` rung errored, why; else None.
    """
    for key in ("gb", "s_zero"):
        if key not in reports:
            raise MissingReports(f"verdict requires the {key!r} predicate")
    for key, failed in (("gb", "NotGeneralizedBerwald"), ("s_zero", "SNonzero")):
        if reports[key].error is not None:
            return "Inconclusive", f"{key} could not be evaluated: {reports[key].error}"
        if not reports[key]:
            return failed, None
    if reports.get("riemannian"):
        return "RiemannianIsotropic", None
    if reports.get("berwald") and flag_zero:
        return "LocallyMinkowskiLike", None
    if (reports.get("killing_cl") and unicorn is not None
            and unicorn.rms < TOL_UNICORN):
        return "UnicornCase", None
    return "Inconclusive", None


def classify_metric(m: MetricSpec, f: PhiFamily, dirs=None) -> ClassificationReport:
    """Run every predicate on a ``PER_AXIS`` grid and assemble the report.

    The grid's beta calculus is one stacked pass, redone through ``by_columns``
    if it raises, so the error is the one the first failing point raises alone.
    """
    grid = np.array(default_grid(m, PER_AXIS))
    if dirs is None:
        dirs = default_directions(m.n)
    calc = by_columns(lambda k: beta_derivatives(m, grid[k]), len(grid),
                      lambda k: [beta_derivatives(m, grid[k[0]])])
    calc = calc if isinstance(calc, BetaCalculus) else BetaCalculus.stack(calc)  # when redone
    preds = {
        "gb": is_generalized_berwald(calc),
        "killing_cl": killing_constant_length(calc),
    }
    preds.update(curvature_flags(m, f, calc, dirs))
    unicorn = None
    flag_zero = None
    if preds["gb"] and preds["s_zero"]:
        if preds["berwald"] and m.n == 2:  # a flag curvature needs n = 2
            ks = [K for bc in map(calc.row, range(min(3, len(grid)))) for K in
                  _flag_curvatures(m, f, bc, _admissible_dirs(f, bc, np.asarray(dirs))[:4])]
            if ks:
                kmax = max(ks)
                flag_zero = Verdict(kmax < TOL_S * 10, kmax, TOL_S * 10, len(ks))
        if preds["killing_cl"]:
            b = float(calc.b[0])
            if b > 1e-8:
                try:
                    unicorn = unicorn_fit(f, b)
                except RankDeficient:
                    unicorn = None
    verdict, reason = theorem11_verdict(preds, unicorn=unicorn, flag_zero=flag_zero)
    meta = {"per_axis": PER_AXIS, "n_points": len(grid),
            "n_directions": int(np.asarray(dirs).shape[0])}
    return ClassificationReport(metric_name=m.name, predicates=preds,
                                verdict=verdict, unicorn=unicorn,
                                grid_meta=meta, reason=reason)
