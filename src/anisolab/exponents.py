"""Critical exponents, parameter regions, and hypothesis certification.

Everything here is exact closed-form arithmetic on the anisotropy vector
p = (p_1 <= ... <= p_N) and on the problem parameters (delta, gamma) or M.
The derived scalars feed the nonexistence experiments in `stability` and
the existence machinery in `solver`:

    pbar   harmonic mean of the p_i
    pstar  N*pbar/(N - pbar), defined only for pbar < N
    q      arithmetic mean of the p_i
    l1     (p_N - q)/2, lower endpoint of every beta window
    l2     2*delta/(N(q-1)) - (q-1)/2, upper endpoint (mixed-power problems)
    l3     2/(M*N(q-1)) - (q-1)/2, upper endpoint (exponential problems)

plus the open regions A, B, C, I, J whose membership decides which
nonexistence case (if any) applies to a parameter point.

The region endpoints, the beta window and the decay threshold are computed
in exact rationals from `Fraction` copies of the float inputs (every float
is a binary rational), so that a point on an endpoint is never admitted by
round-off; they become floats only in reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Callable, NamedTuple

from .errors import (
    HypothesisNotApplicableError,
    HypothesisViolatedError,
    OutOfWindowError,
    UndefinedExponentError,
    ValidationError,
)

# the candidate beta lies this fraction of the window below its upper endpoint
_BETA_ENDPOINT_OFFSET = 1e-6


def harmonic_mean(p) -> float:
    """Harmonic mean of a positive vector: N / sum(1/p_i), N = len(p)."""
    p = tuple(float(x) for x in p)
    if not p:
        raise ValidationError("harmonic mean of an empty vector")
    if any(x <= 0 for x in p):
        raise ValidationError("harmonic mean needs strictly positive entries")
    return len(p) / sum(1.0 / x for x in p)


@dataclass(frozen=True)
class ExponentData:
    """Anisotropy vector with its derived scalar exponents."""

    p: tuple[float, ...]
    N: int
    pbar: float
    pstar: float | None
    q: float

    @classmethod
    def from_p(cls, p) -> "ExponentData":
        p = tuple(float(x) for x in p)
        if not p:
            raise ValidationError("empty exponent vector")
        if not all(math.isfinite(x) for x in p):
            raise ValidationError("every p_i must be finite")
        if any(x < 2.0 for x in p):
            raise ValidationError("every p_i must be >= 2")
        if any(a > b for a, b in zip(p, p[1:])):
            raise ValidationError("p must be sorted ascending")
        n = len(p)
        pbar = harmonic_mean(p)
        pstar = n * pbar / (n - pbar) if pbar < n else None
        return cls(p=p, N=n, pbar=pbar, pstar=pstar, q=sum(p) / n)

    @property
    def p_max(self) -> float:
        return self.p[-1]


def sobolev_exponent(e: ExponentData) -> float:
    """N*pbar/(N - pbar); only defined in the regime pbar < N."""
    if e.pstar is None:
        raise UndefinedExponentError(
            f"pbar = {e.pbar} >= N = {e.N}: the embedding exponent is not defined; "
            "use the r-parameterized thresholds instead"
        )
    return e.pstar


@dataclass(frozen=True)
class MixedPower:
    """Nonlinearity -(u^-delta + u^-gamma) with 0 < delta <= gamma."""

    delta: float
    gamma: float

    def __post_init__(self):
        if not (0 < self.delta <= self.gamma < math.inf):
            raise ValidationError(
                "mixed-power parameters need 0 < delta <= gamma < inf, "
                f"got ({self.delta}, {self.gamma})"
            )


@dataclass(frozen=True)
class ExpSingular:
    """Nonlinearity -e^(1/u); `cap` is the assumed upper bound M on candidates."""

    cap: float

    def __post_init__(self):
        if not 0 < self.cap < math.inf:
            raise ValidationError(f"cap M must be positive and finite, got {self.cap}")


@dataclass(frozen=True)
class ProblemSpec:
    kind: MixedPower | ExpSingular
    exponents: ExponentData


@dataclass(frozen=True)
class Interval:
    """Open interval with exact rational endpoints; `upper` may be math.inf.
    Endpoints are never members: a float is compared with them exactly."""

    lower: Fraction
    upper: Fraction | float

    def contains(self, x: float) -> bool:
        return self.lower < x < self.upper


class ApplicableTheorem(Enum):
    """Which certified nonexistence case a parameter point falls under.

    THM3_2: mixed power, candidates 0 < u <= 1, 1 <= delta < gamma, delta in A∩I
    THM3_3: mixed power, candidates u >= 1, 0 < delta < gamma, delta in A, gamma in I∩[1,inf)
    THM3_4: mixed power, candidates u > 0, 1 <= delta = gamma in A∩I
    THM3_5: exponential, candidates 0 < u <= M, M in J
    """

    THM3_2 = "Thm3_2"
    THM3_3 = "Thm3_3"
    THM3_4 = "Thm3_4"
    THM3_5 = "Thm3_5"
    NONE = "None"


class Hypotheses(NamedTuple):
    """What a certified case assumes: its problem kind, whether its cutoff
    power E is built from gamma (else from delta, or from 1 for the
    exponential problem), and its candidate range as a pointwise test of
    u(x), given the spec (closed ends get a 1e-12 slack)."""

    kind: type
    use_gamma: bool
    in_range: Callable


HYPOTHESES = {
    ApplicableTheorem.THM3_2: Hypotheses(
        MixedPower, False, lambda u, _: (u > 0) & (u <= 1 + 1e-12)
    ),
    ApplicableTheorem.THM3_3: Hypotheses(MixedPower, True, lambda u, _: u >= 1 - 1e-12),
    ApplicableTheorem.THM3_4: Hypotheses(MixedPower, False, lambda u, _: u > 0),
    ApplicableTheorem.THM3_5: Hypotheses(
        ExpSingular, False, lambda u, spec: (u > 0) & (u <= spec.kind.cap + 1e-12)
    ),
}


def _float(x: Fraction, name: str) -> float:
    """The exact threshold `x` rounded to a float; a ValidationError when it
    lies beyond the float range (for a huge p_i or delta, or a tiny cap)."""
    try:
        return float(x)
    except OverflowError as exc:
        raise ValidationError(f"the threshold {name} lies beyond the float range") from exc


def _exact(e: ExponentData) -> tuple[tuple[Fraction, ...], int, Fraction]:
    """p, N and q = mean(p) as exact rationals."""
    p = tuple(Fraction(p_i) for p_i in e.p)
    return p, e.N, sum(p) / e.N


def region_A(e: ExponentData) -> Interval:
    p, n, q = _exact(e)
    return Interval(n * (q - 1) * (p[-1] - 1) / 4, math.inf)


def region_B(e: ExponentData) -> Interval:
    p, n, q = _exact(e)
    return Interval(Fraction(0), 4 / (n * (q - 1) * (p[-1] - 1)))


def region_C(e: ExponentData) -> Interval:
    _, n, q = _exact(e)
    if n == 1:
        return Interval(Fraction(0), math.inf)
    return Interval(Fraction(0), 4 / (n * (n - 1) * (q - 1)))


def region_I_axis_bounds(e: ExponentData) -> tuple[Fraction | None, ...]:
    """Per-axis lower endpoints of I_i; None where the denominator degenerates."""
    p, n, q = _exact(e)
    bounds = []
    for p_i in p:
        den = p_i * (n * (q - 1) + 4) - n ** 2 * (q - 1)
        if den <= 0:
            bounds.append(None)
        else:
            bounds.append(n ** 2 * (q - 1) * (p_i - 1) / den)
    return tuple(bounds)


def region_I(e: ExponentData) -> Interval | None:
    """Intersection of the per-axis intervals; None when any axis degenerates."""
    bounds = region_I_axis_bounds(e)
    if any(b is None for b in bounds):
        return None
    return Interval(max(bounds), math.inf)


def region_J(e: ExponentData) -> Interval:
    b, c = region_B(e), region_C(e)
    return Interval(max(b.lower, c.lower), min(b.upper, c.upper))


def beta_window(spec: ProblemSpec) -> tuple[Fraction, Fraction]:
    """(l1, l2) for mixed-power problems, (l1, l3) for exponential ones, as
    exact rationals.

    An empty window (upper <= lower) is returned as-is, never raised.
    """
    e = spec.exponents
    p, n, q = _exact(e)
    if q <= 1:
        raise ValidationError(f"window endpoints need q > 1, got q = {e.q}")
    l1 = (p[-1] - q) / 2
    if isinstance(spec.kind, MixedPower):
        upper = 2 * Fraction(spec.kind.delta) / (n * (q - 1)) - (q - 1) / 2
    else:
        upper = 2 / (Fraction(spec.kind.cap) * n * (q - 1)) - (q - 1) / 2
    return l1, upper


def lhs_power(beta: float, spec: ProblemSpec, use_gamma: bool = False) -> float:
    """Total power E carried by the cutoff quotient (psi/u)^E."""
    e = spec.exponents
    if isinstance(spec.kind, MixedPower):
        s = spec.kind.gamma if use_gamma else spec.kind.delta
        return 2.0 * beta + s + e.q - 1.0
    return 2.0 * beta + e.q


def theta_exponents(
    beta: float, spec: ProblemSpec, i: int, use_gamma: bool = False
) -> tuple[float, float]:
    """Conjugate pair (theta_i, theta_i') for axis i at the given beta.

    theta_i = E/(2*beta + q - p_i) where E is the total cutoff power; the
    conjugate satisfies 1/theta + 1/theta' = 1 exactly.  Requires beta > l1.
    """
    p, _, q = _exact(spec.exponents)
    l1 = (p[-1] - q) / 2
    if not beta > l1:
        raise OutOfWindowError(f"beta = {beta} must exceed l1 = {float(l1)}")
    # 2 beta + q - p_i in exact rationals, so that beta > l1 keeps it positive
    den = float(2 * (Fraction(beta) - l1) + (p[-1] - p[i]))
    big_e = lhs_power(beta, spec, use_gamma=use_gamma)
    return big_e / den, big_e / (big_e - den)


def decay_exponents(
    beta: float, spec: ProblemSpec, use_gamma: bool = False
) -> tuple[float, ...]:
    """Per-axis radial decay exponents N - p_i * theta_i' at the given beta.

    All-negative decay is what makes the radius sweep contradict stability.
    """
    e = spec.exponents
    return tuple(
        e.N - e.p[i] * theta_exponents(beta, spec, i, use_gamma=use_gamma)[1]
        for i in range(e.N)
    )


def decay_threshold(spec: ProblemSpec, use_gamma: bool = False) -> Fraction:
    """The exact beta_0 above which every decay exponent is negative.

    With E = 2 beta + s + q - 1 (s = gamma or delta, s = 1 for the
    exponential problem) the conjugate is theta_i' = E/(s + p_i - 1), so
    N - p_i theta_i' < 0 exactly when
    beta > (N (s + p_i - 1)/p_i - (s + q - 1))/2; beta_0 is the largest of
    these, (N - q)/2 for the exponential problem.
    """
    p, n, q = _exact(spec.exponents)
    if isinstance(spec.kind, MixedPower):
        s = Fraction(spec.kind.gamma if use_gamma else spec.kind.delta)
    else:
        s = Fraction(1)
    return (max(n * (s + p_i - 1) / p_i for p_i in p) - (s + q - 1)) / 2


def select_beta(spec: ProblemSpec) -> tuple[float, tuple[float, ...]]:
    """The beta and decay exponents `region_memberships` selects; refused
    when no certified case applies."""
    report = region_memberships(spec)
    if report.theoremApplicable is ApplicableTheorem.NONE:
        raise HypothesisNotApplicableError(
            "no certified hypothesis set holds at this parameter point"
        )
    return report.selectedBeta, report.decayExponents


@dataclass(frozen=True)
class IntegrabilityThresholds:
    """Integrability exponents the weight g must meet.

    m_exist and m_bounded are set in the pbar < N regime.  For pbar >= N,
    existence needs any m > 1 and boundedness needs m above r/(r - p_N) for
    some r > p_N; `high_mean_threshold` evaluates that curve.
    """

    m_exist: float | None
    m_bounded: float | None
    pbar: float
    p_max: float
    N: int

    def high_mean_threshold(self, r: float) -> float:
        if self.pbar < self.N:
            raise UndefinedExponentError("r-parameterized threshold applies only for pbar >= N")
        if not r > self.p_max:
            raise ValidationError(f"need r > p_N = {self.p_max}, got r = {r}")
        return r / (r - self.p_max)


def integrability_thresholds(e: ExponentData) -> IntegrabilityThresholds:
    if e.pstar is not None:
        m_exist = e.pstar / (e.pstar - 1.0)
        m_bounded = e.pstar / (e.pstar - e.pbar)
    else:
        m_exist = None
        m_bounded = None
    return IntegrabilityThresholds(
        m_exist=m_exist, m_bounded=m_bounded, pbar=e.pbar, p_max=e.p_max, N=e.N
    )


@dataclass(frozen=True)
class ThresholdReport:
    """Structured outcome of hypothesis certification at one parameter point."""

    l1: float
    l2: float | None
    l3: float | None
    regionA: Interval
    regionB: Interval
    regionC: Interval
    regionI: Interval | None
    regionI_axis_bounds: tuple[Fraction | None, ...]
    regionJ: Interval
    delta_in_A: bool | None
    delta_in_I: bool | None
    gamma_in_I: bool | None
    cap_in_B: bool | None
    cap_in_C: bool | None
    cap_in_J: bool | None
    betaWindow: tuple[float, float]
    selectedBeta: float | None
    decayExponents: tuple[float, ...] | None
    theoremApplicable: ApplicableTheorem

    def to_flat_dict(self) -> dict:
        """Flat key-value document; infinite endpoints serialize as None."""

        def num(x, name: str):
            return None if x is None or x == math.inf else _float(x, name)

        def iv(region: Interval | None, prefix: str, **members):
            out = {
                f"{prefix}.lower": num(region.lower, f"{prefix}.lower") if region else None,
                f"{prefix}.upper": num(region.upper, f"{prefix}.upper") if region else None,
            }
            for key, val in members.items():
                out[f"{prefix}.{key}"] = val
            return out

        doc: dict = {"l1": self.l1}
        if self.l2 is not None:
            doc["l2"] = self.l2
        if self.l3 is not None:
            doc["l3"] = self.l3
        doc.update(iv(self.regionA, "regionA", member=self.delta_in_A))
        doc.update(iv(self.regionB, "regionB", member=self.cap_in_B))
        doc.update(iv(self.regionC, "regionC", member=self.cap_in_C))
        doc.update(
            iv(
                self.regionI,
                "regionI",
                member=self.delta_in_I,
                memberGamma=self.gamma_in_I,
            )
        )
        doc["regionI.axisBounds"] = [num(b, "regionI.axisBounds")
                                     for b in self.regionI_axis_bounds]
        doc.update(iv(self.regionJ, "regionJ", member=self.cap_in_J))
        doc["betaWindow.lower"] = self.betaWindow[0]
        doc["betaWindow.upper"] = self.betaWindow[1]
        doc["selectedBeta"] = self.selectedBeta
        doc["decayExponents"] = (
            list(self.decayExponents) if self.decayExponents is not None else None
        )
        doc["theoremApplicable"] = self.theoremApplicable.value
        return doc


def region_memberships(spec: ProblemSpec) -> ThresholdReport:
    """Compute every region endpoint, membership, and the applicable case.

    Every case is decided at one candidate beta, just below the upper
    endpoint of the window, where the decay exponents are most negative.
    When a case applies, the candidate is selected and its decay exponents
    are recorded; otherwise those fields are None.  A certified point whose
    candidate does not lie in (max(l1, beta_0), upper), beta_0 the
    `decay_threshold`, raises HypothesisViolatedError.  For Thm3_2, Thm3_4
    (Thm3_5), delta in A∩I (cap in J) is exactly max(l1, beta_0) < l2
    (< l3), so that interval is not empty, but it may be too narrow to hold
    the candidate.
    """
    e = spec.exponents
    a, b, c, j = region_A(e), region_B(e), region_C(e), region_J(e)
    i_int = region_I(e)
    i_bounds = region_I_axis_bounds(e)
    exact_l1, exact_upper = beta_window(spec)
    l1, upper = _float(exact_l1, "betaWindow.lower"), _float(exact_upper, "betaWindow.upper")
    candidate = upper - _BETA_ENDPOINT_OFFSET * (upper - l1)

    thm = ApplicableTheorem.NONE
    if isinstance(spec.kind, MixedPower):
        d, g = spec.kind.delta, spec.kind.gamma
        delta_in_a = a.contains(d)
        delta_in_i = i_int.contains(d) if i_int is not None else False
        gamma_in_i = i_int.contains(g) if i_int is not None else False
        cap_in_b = cap_in_c = cap_in_j = None
        l2, l3 = upper, None
        if d >= 1 and delta_in_a and delta_in_i:
            thm = ApplicableTheorem.THM3_4 if d == g else ApplicableTheorem.THM3_2
        elif d < g and g >= 1 and delta_in_a and gamma_in_i:
            # For u >= 1 the estimate carries the conjugates built from gamma
            # while the window comes from delta, so membership alone does not
            # decide the sign of the decay.
            if candidate > decay_threshold(spec, use_gamma=True):
                thm = ApplicableTheorem.THM3_3
    else:
        delta_in_a = delta_in_i = gamma_in_i = None
        cap_in_b = b.contains(spec.kind.cap)
        cap_in_c = c.contains(spec.kind.cap)
        cap_in_j = j.contains(spec.kind.cap)
        l2, l3 = None, upper
        if cap_in_j:
            thm = ApplicableTheorem.THM3_5

    beta = decay = None
    if thm is not ApplicableTheorem.NONE:
        use_gamma = HYPOTHESES[thm].use_gamma
        if not max(exact_l1, decay_threshold(spec, use_gamma)) < candidate < exact_upper:
            raise HypothesisViolatedError(
                f"no admissible beta found in ({l1}, {upper}) although case {thm.value} applies"
            )
        beta, decay = candidate, decay_exponents(candidate, spec, use_gamma=use_gamma)

    return ThresholdReport(
        l1=l1,
        l2=l2,
        l3=l3,
        regionA=a,
        regionB=b,
        regionC=c,
        regionI=i_int,
        regionI_axis_bounds=i_bounds,
        regionJ=j,
        delta_in_A=delta_in_a,
        delta_in_I=delta_in_i,
        gamma_in_I=gamma_in_i,
        cap_in_B=cap_in_b,
        cap_in_C=cap_in_c,
        cap_in_J=cap_in_j,
        betaWindow=(l1, upper),
        selectedBeta=beta,
        decayExponents=decay,
        theoremApplicable=thm,
    )
