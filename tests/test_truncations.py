"""Piecewise truncation values against hand-evaluated linear pieces, plus the
three structural identities."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from anisolab.errors import ValidationError
from anisolab.truncations import (
    TruncationPair,
    a_eval,
    a_prime,
    b_eval,
    b_prime,
    verify_properties,
)

TOL = 1e-12


@pytest.fixture
def tp23():
    return TruncationPair(k=2, alpha=3.0)


def test_a_values_k2_alpha3(tp23):
    # linear piece is 4*(1 - t) on [0, 1/2); power piece t^-1 beyond
    assert a_eval(tp23, 1.0) == pytest.approx(1.0, abs=TOL)
    assert a_eval(tp23, 0.0) == pytest.approx(4.0, abs=TOL)
    assert a_eval(tp23, 0.25) == pytest.approx(3.0, abs=TOL)
    assert a_eval(tp23, 0.5) == pytest.approx(2.0, abs=TOL)


def test_b_values_k2_alpha3(tp23):
    # linear piece is 48*(2/3 - t) on [0, 1/2); power piece t^-3 beyond
    assert b_eval(tp23, 1.0) == pytest.approx(1.0, abs=TOL)
    assert b_eval(tp23, 0.5) == pytest.approx(8.0, abs=TOL)
    assert b_eval(tp23, 0.0) == pytest.approx(32.0, abs=TOL)


def test_negative_argument_rejected(tp23):
    with pytest.raises(ValidationError):
        a_eval(tp23, -0.1)
    with pytest.raises(ValidationError):
        b_prime(tp23, np.array([0.5, -1.0]))


def test_pair_validation():
    with pytest.raises(ValidationError):
        TruncationPair(k=0, alpha=3.0)
    with pytest.raises(ValidationError):
        TruncationPair(k=2, alpha=1.0)
    with pytest.raises(ValidationError):
        TruncationPair(k=2, alpha=2.5, exponents=(2, 3, 4))  # needs > p_N - 1 = 3


@pytest.mark.parametrize("k, alpha, exponents", [
    (2, math.inf, None),
    (2, 4.0, (2.0, math.nan)),  # max() skips a NaN that is not first
    (2, 4.0, (math.nan, 2.0)),
    (2, 4.0, (2.0, math.inf)),
    (2, 4.0, ()),
    (2, 1e308, None),  # k ** alpha raises OverflowError
    (1000, 150.0, None),
    (3, 700.0, None),
    (2, 1022.0, None),  # -alpha * k ** (alpha + 1) rounds to -inf silently
])
def test_pair_refuses_non_finite_or_overflowing_values(k, alpha, exponents):
    # an empty vector is refused by `ExponentData.from_p`, as in `thresholds`
    with pytest.raises(ValidationError, match="empty" if exponents == () else "finite|overflow"):
        TruncationPair(k=k, alpha=alpha, exponents=exponents)


def test_largest_pairs_verify():
    # the linear-piece coefficients of these pairs are just below the
    # float limit; the evaluation stays finite on both pieces
    for k, alpha in ((2, 1000.0), (1000, 100.0)):
        report = verify_properties(TruncationPair(k=k, alpha=alpha))
        assert report.ok, report.violations


def test_derivative_pieces_k2_alpha3(tp23):
    # constant-derivative linear pieces: a' = -4, |b'| = 48, ratio 1/3
    assert a_prime(tp23, 0.1) == pytest.approx(-4.0, abs=TOL)
    assert b_prime(tp23, 0.1) == pytest.approx(-48.0, abs=TOL)
    assert a_prime(tp23, 0.1) ** 2 / abs(b_prime(tp23, 0.1)) == pytest.approx(1 / 3, abs=TOL)
    assert tp23.derivative_ratio == pytest.approx(1 / 3, abs=TOL)


def test_one_sided_derivatives_agree_at_knot(tp23):
    knot = tp23.knot
    # linear-piece slope equals the power-piece derivative at the knot
    assert tp23.rows["a"][0] == pytest.approx(
        0.5 * (1 - tp23.alpha) * knot ** (-0.5 * (1 + tp23.alpha)), rel=TOL
    )
    assert tp23.rows["b"][0] == pytest.approx(-tp23.alpha * knot ** (-tp23.alpha - 1), rel=TOL)


def test_property_a_examples(tp23):
    # equality on the power piece
    assert a_eval(tp23, 1.0) ** 2 == pytest.approx(1.0 * b_eval(tp23, 1.0), abs=TOL)
    # strict inequality on the linear piece: a^2 = 9 >= t*b = 5 at t = 1/4
    assert a_eval(tp23, 0.25) ** 2 == pytest.approx(9.0, abs=TOL)
    assert 0.25 * b_eval(tp23, 0.25) == pytest.approx(5.0, abs=TOL)


def test_verify_properties_k2_alpha3():
    report = verify_properties(TruncationPair(k=2, alpha=3.0, exponents=(2.0, 3.0)))
    assert report.ok, report.violations
    assert report.max_a_deviation <= TOL
    assert report.max_c_deviation <= TOL
    assert all(np.isfinite(v) for v in report.growth_constants.values())
    doc = report.to_dict()
    assert doc["ok"] and doc["violations"] == []


@settings(max_examples=60, deadline=None)
@given(
    k=st.integers(1, 50),
    alpha=st.floats(3.0 + 1e-6, 12.0),
)
def test_properties_random_pairs(k, alpha):
    report = verify_properties(TruncationPair(k=k, alpha=alpha, exponents=(2.0, 3.0, 4.0)))
    assert report.ok, report.violations


def test_monotone_limit_to_pure_power():
    # for fixed t > 0, b_k(t) increases to t^-alpha once 1/k < t
    alpha = 4.0
    t = 0.37
    prev = -np.inf
    for k in (1, 2, 4, 8, 16):
        val = b_eval(TruncationPair(k=k, alpha=alpha), t)
        assert val >= prev - 1e-15
        prev = val
    assert prev == pytest.approx(t ** -alpha, rel=TOL)
    # and the limit is attained exactly once the knot passes t
    assert b_eval(TruncationPair(k=3, alpha=alpha), t) == t ** -alpha


def test_growth_constant_matches_power_piece_closed_form():
    # on the power piece the normalized ratio is constant:
    # ((alpha-1)/2)^(2-p) + alpha^(1-p)
    tp = TruncationPair(k=3, alpha=5.0)
    t = np.geomspace(1 / 3, 50.0, 200)
    for p in (2.0, 3.0, 4.0):
        num = a_eval(tp, t) ** p * np.abs(a_prime(tp, t)) ** (2 - p) + b_eval(
            tp, t
        ) ** p * np.abs(b_prime(tp, t)) ** (1 - p)
        ratio = num / t ** (p - tp.alpha - 1)
        expected = ((tp.alpha - 1) / 2) ** (2 - p) + tp.alpha ** (1 - p)
        assert np.max(np.abs(ratio - expected)) <= 1e-10 * expected


def test_growth_ratio_prints_no_overflow_warning_for_large_alpha():
    # s^(alpha + 1 - p_i) underflows near s = 0 for large alpha; the
    # bound is taken from log terms and prints no warning
    tp = TruncationPair(k=2, alpha=40.0, exponents=(2.0, 3.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = verify_properties(tp)
    assert report.ok, report.violations
    assert all(0.0 < v < math.inf for v in report.growth_constants.values())


def _sampled_sup(tp, p, n=2_000_000):
    """The sup of property (b)'s ratio over n points of the linear piece,
    where a' and b' are constant, and 200 of the power piece, through the
    public evaluators."""
    def ratio(t, a_p, b_p):
        num = (a_eval(tp, t) ** p * np.abs(a_p) ** (2 - p)
               + b_eval(tp, t) ** p * np.abs(b_p) ** (1 - p))
        return np.max(num / t ** (p - tp.alpha - 1))

    linear = tp.knot * np.arange(1, n + 1) / (n + 1)
    power = tp.knot * np.geomspace(1.0, 1e3, 200)
    return float(max(ratio(linear, a_prime(tp, 0.0), b_prime(tp, 0.0)),
                     ratio(power, a_prime(tp, power), b_prime(tp, power))))


def _sampled_sup_near_one(alpha, p, n=2_000_000):
    """The sup of property (b)'s ratio over s = 1 and n points s = 1 - x,
    x geometric from 1e-6/alpha to 1, where a large alpha puts its peak:
    R = s^(alpha+1-p) [A^p ((alpha-1)/2)^(2-p) + B^p alpha^(1-p)] with
    A = 1 + (alpha-1) x/2 and B = 1 + alpha x, evaluated by log1p of x, as
    the public evaluators lose x to cancellation once alpha is large."""
    x = np.concatenate([[0.0], np.geomspace(1e-6 / alpha, 1.0, n, endpoint=False)])
    log_s = (alpha + 1.0 - p) * np.log1p(-x)
    terms = [p * np.log1p(0.5 * (alpha - 1.0) * x) + (2.0 - p) * math.log(0.5 * (alpha - 1.0)),
             p * np.log1p(alpha * x) + (1.0 - p) * math.log(alpha)]
    return float(np.max(np.exp(log_s + terms[0]) + np.exp(log_s + terms[1])))


@settings(max_examples=10, deadline=None)
@given(k=st.integers(1, 40), p_alpha=st.sampled_from([2.0, 3.0, 4.0, 5.5]).flatmap(
    lambda p: st.tuples(st.just(p), st.floats(p - 1.0, p + 8.0, exclude_min=True,
                                              exclude_max=True)
                        | st.floats(math.log10(p + 8.0), 15.0).map(lambda e: 10.0 ** e))))
def test_growth_constant_is_a_tight_upper_bound(k, p_alpha):
    # C bounds the sampled sup from above, by at most 0.1% for alpha < p + 8
    # and 1% up to alpha = 1e15 (there with k = 1: larger k overflow), and
    # after t = s/k it does not depend on k
    p, alpha = p_alpha
    if alpha < p + 8.0:
        tp = TruncationPair(k=k, alpha=alpha, exponents=(p,))
        sup, excess, ks = _sampled_sup(tp, p), 1.001, (1, 2, 7, 40)
    else:
        tp = TruncationPair(k=1, alpha=alpha, exponents=(p,))
        sup, excess, ks = _sampled_sup_near_one(alpha, p), 1.01, (1,)
    c = verify_properties(tp).growth_constants[p]
    assert sup <= c <= excess * sup
    for other in ks:
        same = TruncationPair(k=other, alpha=tp.alpha, exponents=(p,))
        assert verify_properties(same).growth_constants[p] == c


def test_alpha_where_one_plus_alpha_rounds_to_alpha_is_refused():
    # at alpha = 1e16 the linear piece of b at the knot, -alpha + (1 + alpha),
    # cancelled to 0: knot gaps of 1.0, a FAIL for a valid pair
    assert verify_properties(TruncationPair(k=1, alpha=2.0 ** 53 - 1.0, exponents=(2.0, 3.0))).ok
    for alpha in (2.0 ** 53, 1e16, 1e200):
        with pytest.raises(ValidationError, match="1 \\+ alpha rounds to alpha"):
            TruncationPair(k=1, alpha=alpha)


def test_growth_constant_k2_alpha4_p4():
    # the 2e6-point sup is 3.3323189; a 1000-point sample read 3.3322482,
    # below it
    c = verify_properties(TruncationPair(k=2, alpha=4.0, exponents=(4.0,))).growth_constants[4.0]
    assert 3.3323189 <= c <= 3.3357
