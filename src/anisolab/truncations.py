"""Truncated test-function builders a_k, b_k and their structural identities.

For a level k and a power alpha > p_N - 1, the pair interpolates the pure
powers t^((1-alpha)/2) and t^(-alpha) by linear pieces on [0, 1/k), keeping
both functions positive, decreasing, and C^1 across the knot t = 1/k.

Three properties are load-bearing downstream, and `verify_properties`
decides each in closed form:

  (a) a_k(t)^2 >= t * b_k(t) everywhere, with equality on t >= 1/k;
  (b) a_k^p |a_k'|^(2-p) + b_k^p |b_k'|^(1-p) <= C * t^(p-alpha-1) per axis
      power p, for a finite C that does not depend on k;
  (c) a_k'(t)^2 = ((alpha-1)^2 / (4*alpha)) * |b_k'(t)| as an exact identity
      on both pieces.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from . import grid
from .errors import ValidationError
from .exponents import ExponentData

IDENTITY_TOL = 1e-12
_CELLS = 2 ** 14  # the partition of s = k t in [0, 1] that encloses property (b)


@dataclass(frozen=True)
class TruncationPair:
    """Level-k truncation with power alpha, one row per function in `rows`.

    `exponents` optionally carries the anisotropy vector, validated as
    `ExponentData.from_p` does, so alpha can be validated against p_N - 1
    and property (b) evaluated per axis.
    """

    k: int
    alpha: float
    exponents: tuple[float, ...] | None = None

    def __post_init__(self):
        if int(self.k) != self.k or self.k < 1:
            raise ValidationError(f"k must be a positive integer, got {self.k}")
        object.__setattr__(self, "k", int(self.k))
        if self.exponents is not None:
            exps = ExponentData.from_p(self.exponents).p
            object.__setattr__(self, "exponents", exps)
            if not self.alpha > exps[-1] - 1:
                raise ValidationError(f"alpha = {self.alpha} must exceed p_N - 1 = {exps[-1] - 1}")
        if not 1 < self.alpha < math.inf:
            raise ValidationError(f"alpha must be finite and > 1 (p_i >= 2), got {self.alpha}")
        try:
            finite = all(math.isfinite(x) for row in self.rows.values() for x in row)
        except OverflowError:
            finite = False
        if not finite:
            raise ValidationError(
                f"k = {self.k}, alpha = {self.alpha}: the linear-piece coefficients "
                "overflow a float"
            )
        if 1.0 + self.alpha == self.alpha:
            raise ValidationError(
                f"k = {self.k}, alpha = {self.alpha}: 1 + alpha rounds to alpha, so the "
                "linear pieces in floats are not the pair's"
            )

    @property
    def knot(self) -> float:
        return 1.0 / self.k

    @property
    def rows(self) -> dict[str, tuple[float, float, float, float]]:
        """(slope, intercept, coefficient, power) of a_k, b_k, a_k' and b_k':
        the value is slope * t + intercept on [0, 1/k) and
        coefficient * t^power beyond.  A derivative's linear piece is the
        constant slope of its function."""
        al, k = self.alpha, self.k
        a_slope = 0.5 * (1.0 - al) * k ** (0.5 * (al + 1.0))
        b_slope = -al * k ** (al + 1.0)
        return {
            "a": (a_slope, 0.5 * (1.0 + al) * k ** (0.5 * (al - 1.0)), 1.0, 0.5 * (1.0 - al)),
            "b": (b_slope, (1.0 + al) * k ** al, 1.0, -al),
            "a'": (0.0, a_slope, 0.5 * (1.0 - al), -0.5 * (1.0 + al)),
            "b'": (0.0, b_slope, -al, -al - 1.0),
        }

    @property
    def derivative_ratio(self) -> float:
        """The exact constant (alpha-1)^2/(4*alpha) of property (c)."""
        return 0.25 * (self.alpha - 1.0) * ((self.alpha - 1.0) / self.alpha)


def _evaluate(tp: TruncationPair, name: str, t):
    """Row `name` of `tp` at t >= 0; a scalar t gives a float.  The knot
    value is taken from the power piece."""
    slope, icept, coef, power = tp.rows[name]
    arr = np.asarray(t, dtype=float)
    if np.any(arr < 0):
        raise ValidationError("truncations are defined for t >= 0 only")
    linear = arr < tp.knot
    # each piece is evaluated only where it is taken, so neither overflows
    values = np.where(linear, slope * np.where(linear, arr, 0.0) + icept,
                      coef * np.where(linear, 1.0, arr) ** power)
    return float(values) if np.ndim(t) == 0 else values


def a_eval(tp: TruncationPair, t):
    """a_k(t): linear on [0, 1/k), t^((1-alpha)/2) beyond."""
    return _evaluate(tp, "a", t)


def a_prime(tp: TruncationPair, t):
    """a_k'(t); the knot value is taken from the power piece."""
    return _evaluate(tp, "a'", t)


def b_eval(tp: TruncationPair, t):
    """b_k(t): linear on [0, 1/k), t^(-alpha) beyond."""
    return _evaluate(tp, "b", t)


def b_prime(tp: TruncationPair, t):
    """b_k'(t); the knot value is taken from the power piece."""
    return _evaluate(tp, "b'", t)


@dataclass
class PropertyViolation:
    prop: str
    value: float  # the checked number
    bound: float  # the bound it exceeds


@dataclass
class TruncationPropertyReport:
    ok: bool
    knot_gaps: dict[str, float]  # per row of `TruncationPair.rows`
    max_a_deviation: float
    max_c_deviation: float
    growth_constants: dict[float, float] = field(default_factory=dict)
    violations: list[PropertyViolation] = field(default_factory=list)

    def to_dict(self) -> dict:
        # knotGapA, knotGapB, knotGapAPrime, knotGapBPrime
        knot_gaps = {"knotGap" + n.upper().replace("'", "Prime"): g
                     for n, g in self.knot_gaps.items()}
        return grid.report_dict(self, knot_gaps=None, prop="property") | knot_gaps


def _gap(lhs: float, rhs: float) -> float:
    """The relative float gap of the identity lhs = rhs, for rhs != 0."""
    return abs(lhs - rhs) / abs(rhs)


def _growth_bounds(alpha: float, powers) -> dict[float, float]:
    """Per axis power p, a certified upper bound of property (b)'s sup over
    t > 0 of (a^p |a'|^(2-p) + b^p |b'|^(1-p)) / t^(p-alpha-1), for every k.

    After t = s/k and x = 1 - s the ratio is R = s^(alpha+1-p)
    [A^p ((alpha-1)/2)^(2-p) + B^p alpha^(1-p)], A = 1 + (alpha-1) x/2,
    B = 1 + alpha x, on the linear piece, and the constant R(s = 1) beyond.
    The cells of [0, 1] are `_CELLS` uniform in s merged with `_CELLS`
    geometric in x from 1e-4/alpha to 1, which resolve the peak near s = 1
    that a large alpha makes.  On each cell [s0, s1] the power of s
    increases while A and B decrease, so s1's power times s0's bracket
    bounds R; the last cell's bound is at least R(1).  The products are
    taken in log space, log1p of x, and each cell's bound is raised by 64
    ulps of its largest log term.  It lies within 0.1% of the sup for
    p <= 5.5, alpha < p + 8, and within 1% up to alpha = 1e15.
    """
    c_a, c_b = 0.5 * (alpha - 1.0), alpha  # |a'| and |b'| at t = 1
    x = np.sort(np.concatenate([np.linspace(0.0, 1.0, _CELLS + 1),
                                np.geomspace(1e-4 / alpha, 1.0, _CELLS, endpoint=False)]))
    log_s = np.log1p(-x[:-1])  # at each cell's larger s
    log_a, log_b = np.log1p(c_a * x[1:]), np.log1p(alpha * x[1:])  # at its smaller s
    up = 64.0 * np.finfo(float).eps  # the margin, relative to each log term
    bounds = {}
    for p in powers:
        q = alpha + 1.0 - p  # > 0, as alpha > p_N - 1
        power = ((1.0 - up) * q) * log_s  # log_s <= 0
        log_ca, log_cb = (2.0 - p) * math.log(c_a), (1.0 - p) * math.log(c_b)
        with np.errstate(over="ignore"):  # an overflow gives inf, a violation
            cells = sum(np.exp(power + ((1.0 + up) * p) * log_f + (log_c + up * (1.0 + abs(log_c))))
                        for log_f, log_c in ((log_a, log_ca), (log_b, log_cb)))
        bounds[p] = float(np.max(cells))
    return bounds


def verify_properties(tp: TruncationPair) -> TruncationPropertyReport:
    """Decide properties (a), (b), (c) and knot continuity in closed form.

    Knot continuity compares both pieces of each row at 1/k.  After t = s/k
    the linear pieces are a = k^((alpha-1)/2) (a1 s + a0) and
    b = k^alpha (b1 s + b0), and (a) and (c) are identities: (a) is
    a^2 - t b = k^(alpha-1) (1+alpha)^2 (1 - s)^2 / 4 >= 0, coefficient by
    coefficient, and a^2 = t b on the power piece; (c) is
    a_slope^2 = ratio * |b_slope|, and ((alpha-1)/2)^2 = ratio * alpha with
    matching exponents beyond.  The number checked against `IDENTITY_TOL`
    is each identity's relative float evaluation error.  (b) is
    `_growth_bounds` for the powers of `tp.exponents`, each to be finite.
    """
    rows, k, al = tp.rows, tp.k, tp.alpha
    violations: list[PropertyViolation] = []

    def check(prop: str, value: float, bound: float = IDENTITY_TOL) -> float:
        if not value <= bound:  # a NaN fails too
            violations.append(PropertyViolation(prop, value, bound))
        return value

    # a function's gap is relative to its power piece, a derivative's to
    # its linear piece
    knot = tp.knot
    gaps = {}
    for name, (slope, icept, coef, power) in rows.items():
        lin, pw = slope * knot + icept, coef * knot ** power
        scale = abs(lin if "'" in name else pw)
        gaps[name] = check(f"knot-{name}", abs(lin - pw) / max(1.0, scale))

    ((a_slope, a_icept, a_coef, a_pow), (b_slope, b_icept, b_coef, b_pow),
     (*_, da_coef, da_pow), (*_, db_coef, db_pow)) = rows.values()
    ka, kb = k ** (0.5 * (al - 1.0)), k ** al
    a1, a0, b1, b0 = a_slope / (k * ka), a_icept / ka, b_slope / (k * kb), b_icept / kb
    q, ratio = 0.25 * (1.0 + al) * (1.0 + al), tp.derivative_ratio
    # np.max, unlike max, keeps a NaN gap of an overflowing product
    max_a = check("a", float(np.max([
        _gap(a1 * a1 - b1, q), _gap(2.0 * a1 * a0 - b0, -2.0 * q), _gap(a0 * a0, q),
        _gap(a_coef * a_coef, b_coef), _gap(2.0 * a_pow, 1.0 + b_pow)])))
    # on the linear piece a' and b' are the slopes a1 and b1, scaled
    max_c = check("c", float(np.max([
        _gap(a1 * a1, ratio * abs(b1)), _gap(da_coef * da_coef, ratio * abs(db_coef)),
        _gap(2.0 * da_pow, db_pow)])))

    # (b) holds with any finite C
    growth = _growth_bounds(al, tp.exponents or ())
    for c in growth.values():
        check("b", c, sys.float_info.max)

    return TruncationPropertyReport(not violations, gaps, max_a, max_c, growth, violations)
