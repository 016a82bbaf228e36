"""Threshold algebra against independent rational arithmetic, plus the
window/membership properties."""

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, reject, settings, strategies as st

from anisolab.errors import (
    HypothesisNotApplicableError,
    OutOfWindowError,
    UndefinedExponentError,
    ValidationError,
)
from anisolab.exponents import (
    ApplicableTheorem,
    ExponentData,
    ExpSingular,
    MixedPower,
    ProblemSpec,
    beta_window,
    decay_exponents,
    decay_threshold,
    harmonic_mean,
    integrability_thresholds,
    region_memberships,
    regions,
    select_beta,
    sobolev_exponent,
    theta_exponents,
)

TOL = 1e-12


# --- independent rational oracle -------------------------------------------

def frac_harmonic(p):
    return len(p) / sum(Fraction(1, 1) / Fraction(x) for x in p)


def frac_i_bound(pi, n, q):
    """The lower endpoint of I along an axis of power pi, None where its
    denominator is not positive."""
    den = Fraction(pi) * (n * (q - 1) + 4) - n * n * (q - 1)
    return n * n * (q - 1) * (Fraction(pi) - 1) / den if den > 0 else None


def frac_thresholds(p):
    """All derived scalars for an exponent vector of ints or floats (both
    exact binary rationals), in exact rationals."""
    n = len(p)
    pbar = frac_harmonic(p)
    q = sum(Fraction(x) for x in p) / n
    out = {
        "pbar": pbar,
        "q": q,
        "l1": (Fraction(p[-1]) - q) / 2,
        "A_lower": n * (q - 1) * (Fraction(p[-1]) - 1) / 4,
        "B_upper": 4 / (n * (q - 1) * (Fraction(p[-1]) - 1)),
        "I_bounds": [frac_i_bound(pi, n, q) for pi in p],
    }
    if n > 1:
        out["C_upper"] = Fraction(4, n * (n - 1)) / (q - 1)
    if pbar < n:
        pstar = n * pbar / (n - pbar)
        out["pstar"] = pstar
        out["m_exist"] = pstar / (pstar - 1)
        out["m_bounded"] = pstar / (pstar - pbar)
    return out


def frac_l2(p, delta):
    n = len(p)
    q = sum(Fraction(x) for x in p) / n
    return 2 * Fraction(delta) / (n * (q - 1)) - (q - 1) / 2


def frac_l3(p, m):
    n = len(p)
    q = sum(Fraction(x) for x in p) / n
    return Fraction(2) / (Fraction(m) * n * (q - 1)) - (q - 1) / 2


# --- harmonic mean and derived scalars --------------------------------------

def test_harmonic_mean_examples():
    assert harmonic_mean([2, 2, 2]) == pytest.approx(2.0, abs=TOL)
    assert harmonic_mean([2, 3, 4]) == pytest.approx(36 / 13, abs=TOL)
    assert harmonic_mean([2, 2]) == pytest.approx(2.0, abs=TOL)


def test_harmonic_mean_rejects_bad_input():
    with pytest.raises(ValidationError):
        harmonic_mean([])
    with pytest.raises(ValidationError):
        harmonic_mean([2.0, -1.0])


def test_exponent_data_234():
    e = ExponentData.from_p([2, 3, 4])
    oracle = frac_thresholds([2, 3, 4])
    assert e.pbar == pytest.approx(float(oracle["pbar"]), abs=TOL)
    assert e.q == pytest.approx(float(oracle["q"]), abs=TOL)
    assert e.pstar == pytest.approx(float(oracle["pstar"]), abs=1e-11)
    assert sobolev_exponent(e) == e.pstar


def test_exponent_data_validation():
    with pytest.raises(ValidationError):
        ExponentData.from_p([3, 2])
    with pytest.raises(ValidationError):
        ExponentData.from_p([1.5, 2.0])
    with pytest.raises(ValidationError):
        ExponentData.from_p([])
    for p in ([math.nan, 2.0], [2.0, math.inf], [2.0, math.nan, 3.0]):
        with pytest.raises(ValidationError, match="every p_i must be finite"):
            ExponentData.from_p(p)


def test_problem_kinds_refuse_infinite_parameters():
    with pytest.raises(ValidationError):
        MixedPower(1.0, math.inf)
    with pytest.raises(ValidationError):
        MixedPower(math.inf, math.inf)
    with pytest.raises(ValidationError):
        ExpSingular(math.inf)


def test_sobolev_exponent_examples():
    assert sobolev_exponent(ExponentData.from_p([2, 2, 2])) == pytest.approx(6.0, abs=TOL)
    with pytest.raises(UndefinedExponentError):
        sobolev_exponent(ExponentData.from_p([3, 3]))  # pbar = 3 >= N = 2


# --- windows -----------------------------------------------------------------

def test_beta_window_examples():
    e = ExponentData.from_p([2, 3, 4])
    l1, l2 = beta_window(ProblemSpec(kind=MixedPower(10, 10), exponents=e))
    assert l1 == pytest.approx(0.5, abs=TOL)
    assert l2 == pytest.approx(float(frac_l2([2, 3, 4], 10)), abs=TOL)
    assert l2 == pytest.approx(7 / 3, abs=TOL)

    l1e, l3 = beta_window(ProblemSpec(kind=ExpSingular(0.2), exponents=e))
    assert l1e == pytest.approx(0.5, abs=TOL)
    assert l3 == pytest.approx(float(frac_l3([2, 3, 4], Fraction(1, 5))), abs=TOL)
    assert l3 == pytest.approx(2 / 3, abs=TOL)


def test_beta_window_empty_is_reported_not_raised():
    e = ExponentData.from_p([3, 3, 3])
    l1, l2 = beta_window(ProblemSpec(kind=MixedPower(3, 3), exponents=e))
    assert l1 == pytest.approx(0.0, abs=TOL)
    assert l2 == pytest.approx(0.0, abs=TOL)  # 6/6 - 1 = 0: empty window


# --- regions -----------------------------------------------------------------

def test_regions_234():
    e = ExponentData.from_p([2, 3, 4])
    oracle = frac_thresholds([2, 3, 4])
    ivs, bounds = regions(e)
    assert ivs["A"].lower == pytest.approx(4.5, abs=TOL)
    assert ivs["A"].lower == pytest.approx(float(oracle["A_lower"]), abs=TOL)
    for got, want in zip(bounds, oracle["I_bounds"]):
        assert got == pytest.approx(float(want), abs=TOL)
    assert bounds[0] == pytest.approx(9.0, abs=TOL)
    assert bounds[1] == pytest.approx(3.0, abs=TOL)
    assert bounds[2] == pytest.approx(54 / 22, abs=TOL)
    assert ivs["I"].lower == pytest.approx(9.0, abs=TOL)
    assert ivs["B"].upper == pytest.approx(2 / 9, abs=TOL)
    assert ivs["C"].upper == pytest.approx(1 / 3, abs=TOL)
    assert ivs["J"].upper == pytest.approx(2 / 9, abs=TOL)


def test_region_I_degenerate_denominator():
    # N(q-1)+4 small vs N^2(q-1): need p_i(N(q-1)+4) <= N^2(q-1);
    # p=(2,2,8): q=4, per-axis denominator for p=2: 2*13-18*... = 2*(3*3+4)-9*3=26-27<0
    e = ExponentData.from_p([2, 2, 8])
    ivs, bounds = regions(e)
    assert bounds[0] is None
    assert ivs["I"] is None
    spec = ProblemSpec(kind=MixedPower(100.0, 100.0), exponents=e)
    assert region_memberships(spec).theoremApplicable is ApplicableTheorem.NONE


def test_boundary_membership_is_excluded():
    ivs, _ = regions(ExponentData.from_p([2, 3, 4]))
    assert not ivs["A"].contains(4.5)
    assert ivs["A"].contains(4.5 + 1e-9)
    # the endpoint is the rational 2/9; the float 2 / 9 lies 1.2e-17 below it
    assert not ivs["J"].contains(Fraction(2, 9))
    assert ivs["J"].contains(2 / 9)


def float_below(x: Fraction) -> float:
    """The largest float strictly below x."""
    f = float(x)
    return f if Fraction(f) < x else math.nextafter(f, -math.inf)


def float_above(x: Fraction) -> float:
    """The smallest float strictly above x."""
    f = float(x)
    return f if Fraction(f) > x else math.nextafter(f, math.inf)


_ENDPOINTS = {
    "A": (lambda o: o["A_lower"], "lower"),
    "I": (lambda o: max(o["I_bounds"]), "lower"),
    "B": (lambda o: o["B_upper"], "upper"),
    "C": (lambda o: o["C_upper"], "upper"),
    "J": (lambda o: min(o["B_upper"], o["C_upper"]), "upper"),
}


# float arithmetic gave A = (1.3124999999999998, inf) for an endpoint 21/16,
# I = (2.9999999999999987, inf) for 3, and the floats nearest 2/3 and 4/3 as
# the upper endpoints of B, C and J, which put the float next to each
# endpoint on the wrong side
@pytest.mark.parametrize("name, p", [
    ("A", [2.0, 2.0, 2.5]),
    ("I", [2.5, 2.5, 3.0]),
    ("B", [2.0, 3.0]),
    ("C", [2.0, 3.0]),
    ("J", [2.0, 3.0]),
])
def test_region_endpoint_membership_is_exact(name, p):
    endpoint, side = _ENDPOINTS[name]
    interval = regions(ExponentData.from_p(p))[0][name]
    x = endpoint(frac_thresholds(p))
    below, above = float_below(x), float_above(x)
    assert not interval.contains(x)
    if side == "lower":
        assert not interval.contains(below) and interval.contains(above)
    else:
        assert interval.contains(below) and not interval.contains(above)


# --- memberships and theorem selection ---------------------------------------

def test_applicability_examples():
    e = ExponentData.from_p([2, 3, 4])
    rep = region_memberships(ProblemSpec(kind=MixedPower(10, 10), exponents=e))
    assert rep.theoremApplicable is ApplicableTheorem.THM3_4
    assert rep.members["delta", "A"] and rep.members["delta", "I"]

    rep2 = region_memberships(ProblemSpec(kind=ExpSingular(0.2), exponents=e))
    assert rep2.theoremApplicable is ApplicableTheorem.THM3_5
    assert rep2.members["cap", "J"]

    # delta < gamma with both in range: the bounded-by-one case wins
    rep3 = region_memberships(ProblemSpec(kind=MixedPower(10, 11), exponents=e))
    assert rep3.theoremApplicable is ApplicableTheorem.THM3_2

    # the u >= 1 case lives where delta < 1 blocks the bounded-by-one case:
    # delta in A, gamma in I with the gamma-family decay turning negative
    e2 = ExponentData.from_p([2.0, 2.2])
    rep4 = region_memberships(ProblemSpec(kind=MixedPower(0.9, 1.5), exponents=e2))
    assert rep4.theoremApplicable is ApplicableTheorem.THM3_3
    assert all(d < 0 for d in rep4.decayExponents)

    # stated gamma-case hypotheses alone do not certify the contradiction
    # here: the gamma-family decay stays positive inside the delta-window
    rep4b = region_memberships(ProblemSpec(kind=MixedPower(5, 11), exponents=e))
    assert rep4b.theoremApplicable is ApplicableTheorem.NONE

    rep5 = region_memberships(ProblemSpec(kind=MixedPower(5, 5), exponents=e))
    assert rep5.theoremApplicable is ApplicableTheorem.NONE


def test_flat_dict_round_trip_keys():
    e = ExponentData.from_p([2, 3, 4])
    doc = region_memberships(ProblemSpec(kind=MixedPower(10, 10), exponents=e)).to_flat_dict()
    assert doc["theoremApplicable"] == "Thm3_4"
    assert doc["l1"] == pytest.approx(0.5)
    assert doc["regionA.upper"] is None  # +inf serializes as null
    assert doc["regionI.axisBounds"][0] == pytest.approx(9.0)
    assert doc["betaWindow.upper"] == pytest.approx(7 / 3)


# each membership key of the report: the parameter it tests and its region
_MEMBER_KEYS = {
    "regionA.member": ("delta", "A"),
    "regionB.member": ("cap", "B"),
    "regionC.member": ("cap", "C"),
    "regionI.member": ("delta", "I"),
    "regionI.memberGamma": ("gamma", "I"),
    "regionJ.member": ("cap", "J"),
}


@settings(max_examples=200, deadline=None)
@given(
    p=st.lists(st.integers(8, 32).map(lambda k: k / 4), min_size=1, max_size=3).map(sorted),
    delta=st.floats(0.05, 100.0),
    gamma_extra=st.one_of(st.just(0.0), st.floats(0.0, 50.0)),
    cap=st.one_of(st.none(), st.floats(1e-3, 2.0)),
)
@example(p=[2.0, 3.0, 4.0], delta=4.5, gamma_extra=0.0, cap=None)  # on the lower end of A
@example(p=[2.0, 3.0, 4.0], delta=9.0, gamma_extra=0.0, cap=None)  # on the lower end of I
@example(p=[2.0, 3.0, 4.0], delta=10.0, gamma_extra=0.0, cap=2 / 9)  # below the upper end of J
@example(p=[2.0, 2.0, 8.0], delta=100.0, gamma_extra=0.0, cap=None)  # I degenerate
@example(p=[2.0, 3.0, 6.0], delta=10.0, gamma_extra=0.0, cap=None)  # an I_i denominator is 0
@example(p=[3.0], delta=10.0, gamma_extra=0.0, cap=0.5)  # N = 1: C is unbounded
def test_flat_dict_matches_the_rational_oracle(p, delta, gamma_extra, cap):
    """Every region endpoint of the report is the float of the exact
    oracle, and every membership is the exact comparison of the parameter
    with the oracle's endpoints."""
    kind = MixedPower(delta, delta + gamma_extra) if cap is None else ExpSingular(cap)
    try:
        doc = region_memberships(ProblemSpec(kind=kind, exponents=ExponentData.from_p(p)))
    except HypothesisNotApplicableError:
        reject()  # no report: the certified case's window holds no float
    doc = doc.to_flat_dict()
    oracle = frac_thresholds(p)
    i_bounds = oracle["I_bounds"]
    c_upper = oracle.get("C_upper")  # absent for N = 1
    ends = {
        "A": (oracle["A_lower"], None),
        "B": (Fraction(0), oracle["B_upper"]),
        "C": (Fraction(0), c_upper),
        "I": (None if None in i_bounds else max(i_bounds), None),
        "J": (Fraction(0), min(oracle["B_upper"], c_upper or oracle["B_upper"])),
    }

    def as_float(x):
        return None if x is None else float(x)

    region_keys = {k for k in doc if k.startswith("region")}
    assert region_keys == {f"region{r}.{end}" for r in ends for end in ("lower", "upper")} | {
        "regionI.axisBounds"} | set(_MEMBER_KEYS)
    for name, (lower, upper) in ends.items():
        assert doc[f"region{name}.lower"] == as_float(lower), name
        assert doc[f"region{name}.upper"] == as_float(upper), name
    assert doc["regionI.axisBounds"] == [as_float(b) for b in i_bounds]

    tested = {"cap": cap} if cap is not None else {"delta": delta, "gamma": delta + gamma_extra}
    for key, (param, name) in _MEMBER_KEYS.items():
        lower, upper = ends[name]
        x = tested.get(param)
        expected = None if x is None else (
            lower is not None and lower < Fraction(x) and (upper is None or Fraction(x) < upper)
        )
        assert doc[key] is expected, (key, x, lower, upper)


def test_region_I_zero_denominator_is_degenerate():
    # p = (2, 3, 6): the axis-0 denominator 2 (3 (q - 1) + 4) - 9 (q - 1) is 0
    e = ExponentData.from_p([2, 3, 6])
    doc = region_memberships(ProblemSpec(kind=MixedPower(50, 50), exponents=e)).to_flat_dict()
    assert doc["regionI.axisBounds"][0] is None
    assert doc["regionI.lower"] is None and doc["regionI.member"] is False
    assert doc["theoremApplicable"] == "None"


# --- conjugate exponents ------------------------------------------------------

def test_theta_examples():
    e = ExponentData.from_p([2, 3, 4])
    spec = ProblemSpec(kind=MixedPower(10, 10), exponents=e)
    beta = 7 / 3
    th0, tp0 = theta_exponents(beta, spec, 0)
    assert tp0 == pytest.approx(50 / 33, abs=TOL)
    _, tp2 = theta_exponents(beta, spec, 2)
    assert tp2 == pytest.approx(50 / 39, abs=TOL)
    assert 1 / th0 + 1 / tp0 == pytest.approx(1.0, abs=TOL)


def test_theta_symmetric_case():
    # when 2*beta + q - p_i equals delta + p_i - 1 both exponents are 2
    e = ExponentData.from_p([2, 3, 4])
    beta = 1.4
    p_i = e.p[0]
    delta = 2 * beta + e.q - 2 * p_i + 1
    assert delta > 0
    spec = ProblemSpec(kind=MixedPower(delta, delta), exponents=e)
    th, tp = theta_exponents(beta, spec, 0)
    assert th == pytest.approx(2.0, abs=TOL)
    assert tp == pytest.approx(2.0, abs=TOL)


def test_theta_out_of_window():
    e = ExponentData.from_p([2, 3, 4])
    spec = ProblemSpec(kind=MixedPower(10, 10), exponents=e)
    with pytest.raises(OutOfWindowError):
        theta_exponents(0.5, spec, 0)  # beta = l1 exactly


@settings(max_examples=100, deadline=None)
@given(
    p=st.lists(st.floats(2.0, 8.0), min_size=1, max_size=3).map(sorted),
    delta=st.floats(0.5, 50.0),
    frac=st.floats(1e-3, 1.0 - 1e-3),
)
# beta = 5.6e-17 above l1 = 0: 2*beta + q - p_i rounds to 0 when summed left to right
@example(p=[2.0, 2.0], delta=0.5000000000000001, frac=0.5)
def test_conjugacy_property(p, delta, frac):
    e = ExponentData.from_p(p)
    spec = ProblemSpec(kind=MixedPower(delta, delta + 1.0), exponents=e)
    l1, l2 = beta_window(spec)
    upper = l2 if l2 > l1 else l1 + 1.0
    beta = l1 + frac * (upper - l1)
    if beta <= l1:
        return
    for i in range(e.N):
        th, tp = theta_exponents(beta, spec, i)
        assert 1 / th + 1 / tp == pytest.approx(1.0, abs=TOL)
        zh, zp = theta_exponents(beta, spec, i, use_gamma=True)
        assert 1 / zh + 1 / zp == pytest.approx(1.0, abs=TOL)
    spec_e = ProblemSpec(kind=ExpSingular(0.1), exponents=e)
    for i in range(e.N):
        th, tp = theta_exponents(beta, spec_e, i)
        assert 1 / th + 1 / tp == pytest.approx(1.0, abs=TOL)


# --- window ordering and monotonicity ----------------------------------------

@settings(max_examples=100, deadline=None)
@given(
    p=st.lists(st.floats(2.0 + 1e-6, 8.0), min_size=2, max_size=3).map(sorted),
    delta=st.floats(1e-3, 100.0),
)
def test_window_ordering_iff_A(p, delta):
    e = ExponentData.from_p(p)
    spec = ProblemSpec(kind=MixedPower(delta, delta), exponents=e)
    l1, l2 = beta_window(spec)
    region_a = regions(e)[0]["A"]
    in_a = region_a.contains(delta)
    assert in_a == (l2 > l1 and l2 > 0), (delta, l1, l2, region_a)


@settings(max_examples=100, deadline=None)
@given(
    p=st.lists(st.floats(2.0 + 1e-6, 8.0), min_size=2, max_size=3).map(sorted),
    cap=st.floats(1e-4, 10.0),
)
def test_window_ordering_J(p, cap):
    e = ExponentData.from_p(p)
    spec = ProblemSpec(kind=ExpSingular(cap), exponents=e)
    l1, l3 = beta_window(spec)
    if regions(e)[0]["J"].contains(cap):
        assert l3 > l1 and l3 > 0


def test_l2_increasing_l3_decreasing():
    e = ExponentData.from_p([2, 3, 4])
    l2s = [
        beta_window(ProblemSpec(kind=MixedPower(d, d), exponents=e))[1]
        for d in [1.0, 2.0, 5.0, 10.0, 20.0]
    ]
    assert all(a < b for a, b in zip(l2s, l2s[1:]))
    l3s = [
        beta_window(ProblemSpec(kind=ExpSingular(m), exponents=e))[1]
        for m in [0.05, 0.1, 0.2, 0.5]
    ]
    assert all(a > b for a, b in zip(l3s, l3s[1:]))


# --- beta selection -----------------------------------------------------------

def test_select_beta_examples():
    e = ExponentData.from_p([2, 3, 4])
    beta, decay = select_beta(ProblemSpec(kind=MixedPower(10, 10), exponents=e))
    assert 0.5 < beta < 7 / 3
    assert all(d < 0 for d in decay)
    # independent evaluation at beta = l2 - 1e-6*(l2-l1)
    expect = decay_exponents(beta, ProblemSpec(kind=MixedPower(10, 10), exponents=e))
    assert decay == expect
    # limits at the endpoint, exact rationals: (-1/33, -7/6, -83/39)
    limit = [-1 / 33, -7 / 6, -83 / 39]
    for d, lim in zip(decay, limit):
        assert d == pytest.approx(lim, abs=1e-5)

    beta_e, decay_e = select_beta(ProblemSpec(kind=ExpSingular(0.2), exponents=e))
    assert all(d == pytest.approx(3 - 2 * beta_e - 3, abs=TOL) for d in decay_e)
    assert max(decay_e) < 0
    assert decay_e[0] == pytest.approx(-4 / 3, abs=1e-5)


def test_select_beta_near_region_boundary():
    e = ExponentData.from_p([2, 3, 4])
    beta, decay = select_beta(ProblemSpec(kind=MixedPower(9 + 1e-3, 9 + 1e-3), exponents=e))
    assert all(d < 0 for d in decay)
    assert decay[0] > -1e-3  # barely inside: first axis decay close to zero


def test_select_beta_refuses_when_not_applicable():
    e = ExponentData.from_p([2, 3, 4])
    with pytest.raises(HypothesisNotApplicableError):
        select_beta(ProblemSpec(kind=MixedPower(5, 5), exponents=e))


def test_endpoint_blowup_on_I_boundary():
    # delta exactly on the axis-0 lower bound of I: decay_0 -> 0 as beta -> l2
    e = ExponentData.from_p([2, 3, 4])
    delta = regions(e)[1][0]
    spec = ProblemSpec(kind=MixedPower(delta, delta), exponents=e)
    l1, l2 = beta_window(spec)
    beta = l2 - 1e-9 * (l2 - l1)
    decay = decay_exponents(beta, spec)
    assert abs(decay[0]) < 1e-6


@settings(max_examples=60, deadline=None)
@given(
    p=st.lists(st.floats(2.0, 6.0), min_size=2, max_size=3).map(sorted),
    delta=st.floats(1.0, 200.0),
    gamma_extra=st.floats(0.0, 50.0),
)
# delta on the open lower endpoint 3 of I, which float arithmetic put at
# 2.9999999999999987: Thm3_4 was admitted and no beta had negative decay
@example(p=[2.5, 2.5, 3.0], delta=3.0, gamma_extra=0.0)
def test_consistency_applicable_implies_selectable(p, delta, gamma_extra):
    e = ExponentData.from_p(p)
    spec = ProblemSpec(kind=MixedPower(delta, delta + gamma_extra), exponents=e)
    rep = region_memberships(spec)
    if rep.theoremApplicable is not ApplicableTheorem.NONE:
        beta, decay = select_beta(spec)
        assert all(d < 0 for d in decay)
        assert rep.selectedBeta == beta


@settings(max_examples=150, deadline=None)
@given(
    p=st.lists(st.floats(2.0, 6.0), min_size=1, max_size=3).map(sorted),
    delta=st.floats(0.05, 60.0),
    gamma_extra=st.one_of(st.just(0.0), st.floats(0.0, 30.0)),
    cap=st.floats(1e-3, 2.0),
)
@example(p=[2.0, 2.2], delta=0.9, gamma_extra=0.6, cap=0.2)  # Thm3_3 and Thm3_5
# Thm3_5 holds one float below the J endpoint 2/9, but its window holds no float
@example(p=[2.0, 3.0, 4.0], delta=10.0, gamma_extra=0.0, cap=0.2222222222222222)
def test_select_beta_is_the_report_selection(p, delta, gamma_extra, cap):
    e = ExponentData.from_p(p)
    for kind in (MixedPower(delta, delta + gamma_extra), ExpSingular(cap)):
        spec = ProblemSpec(kind=kind, exponents=e)
        try:
            rep = region_memberships(spec)
        except HypothesisNotApplicableError as exc:
            with pytest.raises(HypothesisNotApplicableError) as raised:
                select_beta(spec)
            assert str(raised.value) == str(exc)
            continue
        if rep.theoremApplicable is ApplicableTheorem.NONE:
            assert rep.selectedBeta is None and rep.decayExponents is None
            with pytest.raises(HypothesisNotApplicableError):
                select_beta(spec)
        else:
            assert select_beta(spec) == (rep.selectedBeta, rep.decayExponents)



@settings(max_examples=300, deadline=None)
@given(
    p=st.lists(st.floats(2.0, 6.0), min_size=1, max_size=3).map(sorted),
    exponential=st.booleans(),
    gamma_extra=st.one_of(st.just(0.0), st.floats(0.0, 30.0)),
    ulps=st.one_of(st.integers(0, 64), st.integers(0, 2 ** 36)),
)
# the window (2.00000225, 2.000003) is above the candidate 2.0000015
@example(p=[2.0, 3.0, 4.0], exponential=False, gamma_extra=0.0, ulps=5066549581)
# the candidate's offset 1e-6 * (upper - l1) is below one ulp of upper
@example(p=[2.0, 3.0, 4.0], exponential=True, gamma_extra=0.0, ulps=80064)
# the window holds no float
@example(p=[2.0, 3.0, 4.0], exponential=True, gamma_extra=0.0, ulps=0)
def test_selected_beta_lies_in_the_exact_window_near_region_ends(p, exponential,
                                                                 gamma_extra, ulps):
    """delta `ulps` floats above the lower end of A∩I, or cap `ulps` floats
    below the upper end of J: a certified point selects a beta strictly
    inside its exact window (max(l1, beta_0), upper), or refuses a window
    that holds no float; HypothesisViolatedError never escapes."""
    e = ExponentData.from_p(p)
    ivs = regions(e)[0]
    if exponential:
        end = float(ivs["J"].upper)
        kind = ExpSingular(end - ulps * math.ulp(end))
    else:
        if ivs["I"] is None:
            reject()
        end = float(max(ivs["A"].lower, ivs["I"].lower))
        delta = end + ulps * math.ulp(end)
        kind = MixedPower(delta, delta + gamma_extra)
    spec = ProblemSpec(kind=kind, exponents=e)
    try:
        rep = region_memberships(spec)
    except HypothesisNotApplicableError as exc:
        assert "holds no float" in str(exc)
        return
    if rep.theoremApplicable is ApplicableTheorem.NONE:
        assert rep.selectedBeta is None
        return
    l1, upper = beta_window(spec)
    use_gamma = rep.theoremApplicable is ApplicableTheorem.THM3_3
    assert max(l1, decay_threshold(spec, use_gamma)) < rep.selectedBeta < upper


@settings(max_examples=150, deadline=None)
@given(
    p=st.lists(st.floats(2.0, 6.0), min_size=1, max_size=3).map(sorted),
    delta=st.floats(0.05, 60.0),
    gamma_extra=st.one_of(st.just(0.0), st.floats(0.0, 30.0)),
    cap=st.floats(1e-3, 2.0),
    offset=st.one_of(st.floats(-20.0, 20.0), st.floats(-1e-6, 1e-6)),
)
def test_decay_threshold_decides_the_decay_sign(p, delta, gamma_extra, cap, offset):
    """beta > beta_0 exactly when every float decay exponent at beta is
    negative, away from rounding distance of beta_0; beta_0 = (N - q)/2 for
    the exponential problem."""
    e = ExponentData.from_p(p)
    exp_spec = ProblemSpec(kind=ExpSingular(cap), exponents=e)
    q = sum(Fraction(p_i) for p_i in e.p) / e.N
    assert decay_threshold(exp_spec) == (e.N - q) / 2
    mixed = ProblemSpec(kind=MixedPower(delta, delta + gamma_extra), exponents=e)
    for spec, use_gamma in ((mixed, False), (mixed, True), (exp_spec, False)):
        beta_0 = decay_threshold(spec, use_gamma)
        l1 = beta_window(spec)[0]
        beta = float(beta_0) + offset
        if not beta > l1:
            beta = float(l1) + abs(offset)
        if not beta > l1 or abs(beta - beta_0) <= 1e-9 * max(1, abs(beta_0)):
            continue
        decay = decay_exponents(beta, spec, use_gamma=use_gamma)
        assert (beta > beta_0) == all(d < 0 for d in decay), (beta, beta_0, decay)


# --- integrability thresholds --------------------------------------------------

def test_integrability_examples():
    e = ExponentData.from_p([2, 3, 4])
    oracle = frac_thresholds([2, 3, 4])
    thr = integrability_thresholds(e)
    assert thr.m_exist == pytest.approx(float(oracle["m_exist"]), abs=TOL)
    assert thr.m_exist == pytest.approx(36 / 35, abs=TOL)
    assert thr.m_bounded == pytest.approx(13 / 12, abs=TOL)

    e222 = ExponentData.from_p([2, 2, 2])
    thr2 = integrability_thresholds(e222)
    assert thr2.m_exist == pytest.approx(6 / 5, abs=TOL)
    assert thr2.m_bounded == pytest.approx(3 / 2, abs=TOL)

    e_high = ExponentData.from_p([3, 3])  # pbar = 3 >= N = 2
    thr3 = integrability_thresholds(e_high)
    assert thr3.m_exist is None and thr3.m_bounded is None
    assert thr3.high_mean_threshold(2 * 3.0) == pytest.approx(2.0, abs=TOL)
    with pytest.raises(ValidationError):
        thr3.high_mean_threshold(3.0)
