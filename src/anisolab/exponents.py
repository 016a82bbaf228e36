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

The region endpoints, the beta window, the decay threshold and the
beta-dependent exponents (E, theta_i, theta_i', the decay exponents) are
computed in exact rationals from `ExponentData.exact`, one `Fraction` view
of the float inputs (every float is a binary rational), so that a point on
an endpoint is never admitted by round-off; each is rounded to a float once.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Callable, NamedTuple

from .errors import HypothesisNotApplicableError, ValidationError

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
        # pstar = N pbar/(N - pbar) = N/(sum_i 1/p_i - 1), exact and rounded
        # once: the float form cancels as pbar nears N, and a float pbar
        # rounds up to N on some points just inside the regime
        excess = sum(1 / Fraction(x) for x in p) - 1
        try:
            pstar = float(n / excess) if excess > 0 else None
        except OverflowError:  # an excess below N/1.8e308, as p = (2, 2, 1e308) gives
            pstar = None
        return cls(p=p, N=n, pbar=harmonic_mean(p), pstar=pstar, q=sum(p) / n)

    @property
    def p_max(self) -> float:
        return self.p[-1]

    @functools.cached_property
    def exact(self) -> tuple[tuple[Fraction, ...], int, Fraction]:
        """p, N and q = mean(p) as exact rationals."""
        p = tuple(Fraction(p_i) for p_i in self.p)
        return p, self.N, sum(p) / self.N

    @functools.cached_property
    def inverse_sum(self) -> Fraction:
        """S = sum_i 1/p_i = N/pbar as an exact rational."""
        return sum(1 / p_i for p_i in self.exact[0])


def sobolev_exponent(e: ExponentData) -> float:
    """N*pbar/(N - pbar); only defined in the regime pbar < N, and as a float
    only below the float range."""
    if e.pstar is None:
        raise ValidationError(
            f"pbar = {e.pbar} is not below N = {e.N} in exact arithmetic, or "
            "N*pbar/(N - pbar) overflows a float: the embedding exponent is not defined; "
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
    """The exact value `x` rounded to a float, once; a ValidationError when
    it lies beyond the float range (for a huge p_i or delta, or a tiny cap)."""
    try:
        return float(x)
    except OverflowError as exc:
        raise ValidationError(f"{name} lies beyond the float range") from exc


def regions(e: ExponentData) -> tuple[dict[str, Interval | None], tuple[Fraction | None, ...]]:
    """The open regions A, B, C, I, J by name, and the per-axis lower
    endpoints of I.  An endpoint is None where its denominator degenerates,
    and I is None when any is."""
    p, n, q = e.exact
    nq = n * (q - 1)
    i_bounds = tuple(
        n * nq * (p_i - 1) / den if (den := p_i * (nq + 4) - n * nq) > 0 else None
        for p_i in p
    )
    b_upper = 4 / (nq * (p[-1] - 1))
    c_upper = 4 / ((n - 1) * nq) if n > 1 else math.inf
    return {
        "A": Interval(nq * (p[-1] - 1) / 4, math.inf),
        "B": Interval(Fraction(0), b_upper),
        "C": Interval(Fraction(0), c_upper),
        "I": None if None in i_bounds else Interval(max(i_bounds), math.inf),
        "J": Interval(Fraction(0), min(b_upper, c_upper)),
    }, i_bounds


def beta_window(spec: ProblemSpec) -> tuple[Fraction, Fraction]:
    """(l1, l2) for mixed-power problems, (l1, l3) for exponential ones, as
    exact rationals.

    An empty window (upper <= lower) is returned as-is, never raised.
    """
    p, n, q = spec.exponents.exact
    l1 = (p[-1] - q) / 2
    if isinstance(spec.kind, MixedPower):
        upper = 2 * Fraction(spec.kind.delta) / (n * (q - 1)) - (q - 1) / 2
    else:
        upper = 2 / (Fraction(spec.kind.cap) * n * (q - 1)) - (q - 1) / 2
    return l1, upper


def cutoff_rates(spec: ProblemSpec,
                 use_gamma: bool = False) -> tuple[Fraction, tuple[Fraction, ...]]:
    """The shift s + q - 1 of the cutoff power E = 2 beta + s + q - 1 and
    the per-axis rates c_i = p_i/(s + p_i - 1), as exact rationals; s is
    gamma (`use_gamma`) or delta, and 1 for the exponential problem.

    The conjugate of theta_i = E/(2 beta + q - p_i) is
    theta_i' = E/(s + p_i - 1), so p_i theta_i' = c_i E and the decay
    exponent N - p_i theta_i' = N - c_i E.  Every float of `lhs_power`,
    `theta_exponents`, `axis_powers` and `decay_exponents` is one of these
    exact values rounded once.
    """
    p, _, q = spec.exponents.exact
    s = (Fraction(spec.kind.gamma if use_gamma else spec.kind.delta)
         if isinstance(spec.kind, MixedPower) else Fraction(1))
    return s + q - 1, tuple(p_i / (s + p_i - 1) for p_i in p)


def _cutoff_power(beta: float, spec: ProblemSpec,
                  use_gamma: bool) -> tuple[Fraction, tuple[Fraction, ...]]:
    """The exact E at beta > l1, where E > p_N + s - 1 > 0, and the rates."""
    p, _, q = spec.exponents.exact
    if not (p[-1] - q) / 2 < beta < math.inf:
        raise ValidationError(
            f"beta = {beta} must be finite and exceed l1 = {float((p[-1] - q) / 2)}")
    shift, rates = cutoff_rates(spec, use_gamma)
    return 2 * Fraction(beta) + shift, rates


def lhs_power(beta: float, spec: ProblemSpec, use_gamma: bool = False) -> float:
    """Total power E carried by the cutoff quotient (psi/u)^E.  Requires beta > l1."""
    return _float(_cutoff_power(beta, spec, use_gamma)[0], "the cutoff power E")


def theta_exponents(beta: float, spec: ProblemSpec, i: int,
                    use_gamma: bool = False) -> tuple[float, float]:
    """Conjugate pair (theta_i, theta_i') for axis i at the given beta.

    theta_i = E/(2*beta + q - p_i) where E is the total cutoff power; the
    conjugate satisfies 1/theta + 1/theta' = 1 exactly.  Requires beta > l1.
    """
    big_e, rates = _cutoff_power(beta, spec, use_gamma)
    conj = rates[i] * big_e / spec.exponents.exact[0][i]
    return (_float(conj / (conj - 1), "the exponent theta_i"),
            _float(conj, "the exponent theta_i'"))


def axis_powers(beta: float, spec: ProblemSpec, use_gamma: bool = False) -> tuple[float, ...]:
    """Per-axis powers p_i * theta_i' = c_i E of |D_i psi| in the cutoff
    estimate at the given beta.  Requires beta > l1."""
    big_e, rates = _cutoff_power(beta, spec, use_gamma)
    return tuple(_float(c_i * big_e, "the power p_i theta_i'") for c_i in rates)


def decay_exponents(beta: float, spec: ProblemSpec, use_gamma: bool = False) -> tuple[float, ...]:
    """Per-axis radial decay exponents N - p_i * theta_i' at the given beta.

    All-negative decay is what makes the radius sweep contradict stability.
    Requires beta > l1.
    """
    big_e, rates = _cutoff_power(beta, spec, use_gamma)
    exact = [spec.exponents.N - c_i * big_e for c_i in rates]
    # a nonzero exponent that rounds to zero keeps its sign, as the smallest float
    return tuple(_float(d, "a decay exponent") or (math.copysign(math.ulp(0.0), d) if d else 0.0)
                 for d in exact)


def decay_threshold(spec: ProblemSpec, use_gamma: bool = False) -> Fraction:
    """The exact beta_0 above which every decay exponent is negative.

    N - c_i E < 0 exactly when E > N/c_i, so
    beta_0 = (N/min_i c_i - (s + q - 1))/2 in the terms of `cutoff_rates`:
    (N - q)/2 for the exponential problem, where every c_i is 1.
    """
    shift, rates = cutoff_rates(spec, use_gamma)
    return (spec.exponents.N / min(rates) - shift) / 2


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

    m_exist and m_bounded are set where pstar is (pbar < N).  For pbar >= N,
    existence needs any m > 1 and boundedness needs m above r/(r - p_N) for
    some r > p_N; `high_mean_threshold` evaluates that curve.
    """

    m_exist: float | None
    m_bounded: float | None
    pbar: float
    p_max: float
    N: int

    def high_mean_threshold(self, r: float) -> float:
        if self.m_exist is not None:
            raise ValidationError("r-parameterized threshold applies only for pbar >= N")
        if not r > self.p_max:
            raise ValidationError(f"need r > p_N = {self.p_max}, got r = {r}")
        return r / (r - self.p_max)


def integrability_thresholds(e: ExponentData) -> IntegrabilityThresholds:
    if e.pstar is not None:
        # pbar = N/S and pstar = N/(S - 1) for S = sum_i 1/p_i, so pstar/(pstar - 1)
        # = N/(N + 1 - S) and pstar/(pstar - pbar) = S, exact and rounded once
        s = e.inverse_sum
        m_exist, m_bounded = float(e.N / (e.N + 1 - s)), float(s)
    else:
        m_exist = None
        m_bounded = None
    return IntegrabilityThresholds(
        m_exist=m_exist, m_bounded=m_bounded, pbar=e.pbar, p_max=e.p_max, N=e.N
    )


# The parameter each region tests, by the suffix of its report key: a
# field of the problem kind, so a membership is None for the other kind.
MEMBERSHIPS = {
    "A": {"member": "delta"},
    "B": {"member": "cap"},
    "C": {"member": "cap"},
    "I": {"member": "delta", "memberGamma": "gamma"},
    "J": {"member": "cap"},
}


@dataclass(frozen=True)
class ThresholdReport:
    """Structured outcome of hypothesis certification at one parameter point.

    `regions` maps each region name of `MEMBERSHIPS` to its interval (I may
    be None) and `members` maps (parameter, region name) to whether the
    parameter lies in the region."""

    l1: float
    l2: float | None
    l3: float | None
    regions: dict[str, Interval | None]
    regionI_axis_bounds: tuple[Fraction | None, ...]
    members: dict[tuple[str, str], bool | None]
    betaWindow: tuple[float, float]
    selectedBeta: float | None
    decayExponents: tuple[float, ...] | None
    theoremApplicable: ApplicableTheorem

    def to_flat_dict(self) -> dict:
        """Flat key-value document; infinite endpoints serialize as None."""

        def num(x, name: str):
            return None if x is None or x == math.inf else _float(x, f"the threshold {name}")

        doc: dict = {"l1": self.l1}
        if self.l2 is not None:
            doc["l2"] = self.l2
        if self.l3 is not None:
            doc["l3"] = self.l3
        for name, tests in MEMBERSHIPS.items():
            region = self.regions[name]
            for end in ("lower", "upper"):
                key = f"region{name}.{end}"
                doc[key] = None if region is None else num(getattr(region, end), key)
            for suffix, param in tests.items():
                doc[f"region{name}.{suffix}"] = self.members[param, name]
        doc["regionI.axisBounds"] = [num(b, "regionI.axisBounds")
                                     for b in self.regionI_axis_bounds]
        doc["betaWindow.lower"] = self.betaWindow[0]
        doc["betaWindow.upper"] = self.betaWindow[1]
        doc["selectedBeta"] = self.selectedBeta
        doc["decayExponents"] = (
            list(self.decayExponents) if self.decayExponents is not None else None
        )
        doc["theoremApplicable"] = self.theoremApplicable.value
        return doc


def _admissible_beta(thm: ApplicableTheorem, candidate: float, lower: Fraction,
                     upper: Fraction) -> float:
    """The first float strictly inside the exact window (lower, upper) of case
    `thm`: the candidate, else the float `_BETA_ENDPOINT_OFFSET` of
    (lower, upper) below its upper end, else the float nearest the window's
    midpoint, which lies inside whenever any float does.  A window that holds
    no float is a HypothesisNotApplicableError."""
    top = float(upper)
    for beta in (candidate, top - _BETA_ENDPOINT_OFFSET * (top - float(lower)),
                 float((lower + upper) / 2)):
        if lower < beta < upper:
            return beta
    raise HypothesisNotApplicableError(
        f"case {thm.value} applies, but its exact beta window ({lower}, {upper}) "
        "holds no float"
    )


def region_memberships(spec: ProblemSpec) -> ThresholdReport:
    """Compute every region endpoint, membership, and the applicable case.

    Every case is decided at one candidate beta, just below the upper
    endpoint of the window, where the decay exponents are most negative.
    When a case applies, a beta in its exact window (max(l1, beta_0), upper),
    beta_0 the `decay_threshold`, is selected by `_admissible_beta` and its
    decay exponents are recorded; otherwise those fields are None.  For
    Thm3_2, Thm3_4 (Thm3_5), delta in A∩I (cap in J) is exactly
    max(l1, beta_0) < l2 (< l3), so that window is not empty, but it may
    hold no float: a HypothesisNotApplicableError.
    """
    ivs, i_bounds = regions(spec.exponents)
    members = {}
    for name, tests in MEMBERSHIPS.items():
        for param in tests.values():
            x = getattr(spec.kind, param, None)
            members[param, name] = (
                None if x is None else ivs[name] is not None and ivs[name].contains(x)
            )
    exact_l1, exact_upper = beta_window(spec)
    l1 = _float(exact_l1, "the threshold betaWindow.lower")
    upper = _float(exact_upper, "the threshold betaWindow.upper")
    candidate = upper - _BETA_ENDPOINT_OFFSET * (upper - l1)

    thm = ApplicableTheorem.NONE
    if isinstance(spec.kind, MixedPower):
        d, g = spec.kind.delta, spec.kind.gamma
        l2, l3 = upper, None
        if d >= 1 and members["delta", "A"] and members["delta", "I"]:
            thm = ApplicableTheorem.THM3_4 if d == g else ApplicableTheorem.THM3_2
        elif d < g and g >= 1 and members["delta", "A"] and members["gamma", "I"]:
            # For u >= 1 the estimate carries the conjugates built from gamma
            # while the window comes from delta, so membership alone does not
            # decide the sign of the decay.
            if candidate > decay_threshold(spec, use_gamma=True):
                thm = ApplicableTheorem.THM3_3
    else:
        l2, l3 = None, upper
        if members["cap", "J"]:
            thm = ApplicableTheorem.THM3_5

    beta = decay = None
    if thm is not ApplicableTheorem.NONE:
        use_gamma = HYPOTHESES[thm].use_gamma
        lower = max(exact_l1, decay_threshold(spec, use_gamma))
        beta = _admissible_beta(thm, candidate, lower, exact_upper)
        decay = decay_exponents(beta, spec, use_gamma=use_gamma)

    return ThresholdReport(
        l1=l1, l2=l2, l3=l3, regions=ivs, regionI_axis_bounds=i_bounds, members=members,
        betaWindow=(l1, upper), selectedBeta=beta, decayExponents=decay, theoremApplicable=thm,
    )
