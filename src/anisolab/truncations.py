"""Truncated test-function builders a_k, b_k and their structural identities.

For a level k and a power alpha > p_N - 1, the pair interpolates the pure
powers t^((1-alpha)/2) and t^(-alpha) by linear pieces on [0, 1/k), keeping
both functions positive, decreasing, and C^1 across the knot t = 1/k.

Three properties are machine-checkable and load-bearing downstream:

  (a) a_k(t)^2 >= t * b_k(t) everywhere, with equality on t >= 1/k;
  (b) a_k^p |a_k'|^(2-p) + b_k^p |b_k'|^(1-p) <= C * t^(p-alpha-1) per axis
      power p, for some finite C;
  (c) a_k'(t)^2 = ((alpha-1)^2 / (4*alpha)) * |b_k'(t)| as an exact identity
      on both pieces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import grid
from .errors import ValidationError
from .exponents import ExponentData

IDENTITY_TOL = 1e-12


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

    # the linear pieces a_slope * t + a_icept of a_k and b_slope * t + b_icept of b_k
    a_slope = property(lambda self: self.rows["a"][0])
    a_icept = property(lambda self: self.rows["a"][1])
    b_slope = property(lambda self: self.rows["b"][0])
    b_icept = property(lambda self: self.rows["b"][1])

    @property
    def derivative_ratio(self) -> float:
        """The exact constant (alpha-1)^2/(4*alpha) of property (c)."""
        return (self.alpha - 1.0) ** 2 / (4.0 * self.alpha)


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


def _log_abs(tp: TruncationPair, name: str, t: np.ndarray) -> np.ndarray:
    """log |row `name`| of `tp` at t > 0, taken piece by piece, so that it
    is finite where the value itself under- or overflows a float."""
    slope, icept, coef, power = tp.rows[name]
    linear = t < tp.knot
    return np.where(linear, np.log(np.abs(slope * np.where(linear, t, 0.0) + icept)),
                    math.log(abs(coef)) + power * np.log(np.where(linear, 1.0, t)))


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


def default_samples(tp: TruncationPair, n: int = 1000, t_max: float = 10.0) -> np.ndarray:
    """Sample grid covering both pieces, the knot, a near-zero point, and a
    large-t proxy 100 * t_max; sorted ascending.  An n outside 1..MAX_NODES
    or a proxy that is not finite and > 0 is a ValidationError."""
    if not 1 <= n <= grid.MAX_NODES:
        raise ValidationError(f"n = {n}: the sample count must lie in 1..{grid.MAX_NODES}")
    proxy = t_max * 100.0
    if not 0 < proxy < math.inf:
        raise ValidationError(f"t_max = {t_max}: the large-t proxy {proxy} must be finite and > 0")
    lin_part = np.linspace(0.0, tp.knot, max(n // 4, 8), endpoint=False)
    pow_part = np.geomspace(tp.knot, t_max, max(n - len(lin_part) - 2, 8))
    pts = np.concatenate(([1e-12], lin_part, [tp.knot], pow_part, [proxy]))
    return np.unique(pts)


@dataclass
class PropertyViolation:
    prop: str
    t: float
    lhs: float
    rhs: float


@dataclass
class TruncationPropertyReport:
    ok: bool
    knot_gaps: dict[str, float]  # per row of `TruncationPair.rows`
    max_c_deviation: float
    min_a_margin: float
    max_power_equality_gap: float
    growth_constants: dict[float, float] = field(default_factory=dict)
    violations: list[PropertyViolation] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            # knotGapA, knotGapB, knotGapAPrime, knotGapBPrime
            **{"knotGap" + n.upper().replace("'", "Prime"): g for n, g in self.knot_gaps.items()},
            "maxCDeviation": self.max_c_deviation,
            "minAMargin": self.min_a_margin,
            "maxPowerEqualityGap": self.max_power_equality_gap,
            "growthConstants": {str(p): v for p, v in self.growth_constants.items()},
            "violations": [
                {"property": v.prop, "t": v.t, "lhs": v.lhs, "rhs": v.rhs}
                for v in self.violations
            ],
        }


def _worst(name: str, badness, t, lhs, rhs, violations: list) -> float:
    """The largest `badness` over the samples; a value above `IDENTITY_TOL`
    records its sample as a violation of property `name`."""
    worst = float(np.max(badness))
    if worst > IDENTITY_TOL:
        i = int(np.argmax(badness))
        violations.append(PropertyViolation(name, float(t[i]), float(lhs[i]), float(rhs[i])))
    return worst


def verify_properties(tp: TruncationPair, samples=None) -> TruncationPropertyReport:
    """Check properties (a), (b), (c) plus knot continuity on a sample grid.

    (c) is asserted as an exact identity (relative tolerance
    `IDENTITY_TOL`) on both pieces; (a) is asserted everywhere with exact
    equality on the power piece; (b) is reported per axis power of
    `tp.exponents` as a sup of the normalized ratio, only required to be
    finite over the sampled range.
    """
    if samples is None:
        samples = default_samples(tp)
    t = np.asarray(samples, dtype=float)
    if np.any(t < 0):
        raise ValidationError("samples must be >= 0")
    if t.size == 0:
        raise ValidationError("need at least one sample")
    if tp.exponents and not np.any(t > 0):
        raise ValidationError("property (b) needs a sample t > 0")

    violations: list[PropertyViolation] = []

    a, b, ap, bp = (_evaluate(tp, name, t) for name in ("a", "b", "a'", "b'"))

    # knot continuity: both pieces of each row evaluated exactly at 1/k; a
    # function's gap is relative to its power piece, a derivative's to its
    # linear piece
    knot = tp.knot
    gaps = {}
    for name, (slope, icept, coef, power) in tp.rows.items():
        lin, pw = slope * knot + icept, coef * knot ** power
        gaps[name] = abs(lin - pw) / max(1.0, abs(lin if name.endswith("'") else pw))
        if gaps[name] > IDENTITY_TOL:
            violations.append(PropertyViolation(f"knot-{name}", knot, gaps[name], IDENTITY_TOL))

    # property (c): a'(t)^2 == ratio * |b'(t)|, relative to the local scale
    ap2, rbp = ap ** 2, tp.derivative_ratio * np.abs(bp)
    max_c = _worst("c", np.abs(ap2 - rbp) / np.maximum(1.0, rbp), t, ap2, rbp, violations)

    # property (a): a^2 >= t*b, equality on the power piece
    a2, tb = a ** 2, t * b
    rel_margin = (a2 - tb) / np.maximum(1.0, a2)
    min_margin = -_worst("a", -rel_margin, t, a2, tb, violations)
    on_power = t >= knot
    max_eq_gap = 0.0
    if np.any(on_power):
        max_eq_gap = _worst("a-equality", np.abs(rel_margin[on_power]), t[on_power],
                            a2[on_power], tb[on_power], violations)

    # property (b): sup over t > 0 of the normalized growth ratio, per axis,
    # in log space: b_k' underflows at large t and the normalization
    # t^(p_i - alpha - 1) overflows at small t
    growth: dict[float, float] = {}
    t_pos = t[t > 0]
    log_t = np.log(t_pos)
    la, lb, lap, lbp = (_log_abs(tp, name, t_pos) for name in ("a", "b", "a'", "b'"))
    for p_i in tp.exponents or ():
        log_num = np.logaddexp(p_i * la + (2.0 - p_i) * lap, p_i * lb + (1.0 - p_i) * lbp)
        sup = float(np.exp(np.max(log_num - (p_i - tp.alpha - 1.0) * log_t)))
        growth[p_i] = sup
        if not np.isfinite(sup):
            violations.append(PropertyViolation("b", float("nan"), sup, float("inf")))

    return TruncationPropertyReport(
        ok=not violations,
        knot_gaps=gaps,
        max_c_deviation=max_c,
        min_a_margin=min_margin,
        max_power_equality_gap=max_eq_gap,
        growth_constants=growth,
        violations=violations,
    )
