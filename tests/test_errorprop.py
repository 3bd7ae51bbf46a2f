import math

import numpy as np
import pytest

from symbound.analyzer import dim_bounded_discrete
from symbound.errorprop import (
    ErrorModel,
    SingularResolvent,
    closed_form_error,
    error_bounded,
    iterate_error,
)
from symbound.mat2 import Mat2
from symbound.verify import random_elliptic_model


def test_pure_accumulation():
    m = ErrorModel(Mat2.identity(), (1.0, 0.0), (0.0, 0.0))
    assert iterate_error(m, 5) == (5.0, 0.0)
    assert iterate_error(m, 0) == (0.0, 0.0)


def test_homogeneous_case_is_matrix_power():
    s = Mat2(1.0, -1.0, 1.0, 0.0)
    y0 = (0.3, -0.7)
    m = ErrorModel(s, (0.0, 0.0), y0)
    for n in (0, 1, 6, 17, 100):
        expected = s.power(n).apply(y0)
        got = iterate_error(m, n)
        assert math.hypot(got[0] - expected[0], got[1] - expected[1]) <= 1e-12
        closed = closed_form_error(m, n)
        assert math.hypot(closed[0] - expected[0], closed[1] - expected[1]) <= 1e-12


def test_iterate_matches_closed_form_small_case():
    m = ErrorModel(Mat2(1.0, -1.0, 1.0, 0.0), (0.01, 0.0), (0.0, 0.0))
    yi = iterate_error(m, 6)
    yc = closed_form_error(m, 6)
    assert math.hypot(yi[0] - yc[0], yi[1] - yc[1]) <= 1e-12


def test_closed_form_equals_iteration_on_random_elliptic_models():
    rng = np.random.default_rng(53)
    for _ in range(300):
        m = random_elliptic_model(rng)
        n = int(rng.integers(1, 1001))
        yi = iterate_error(m, n)
        yc = closed_form_error(m, n)
        gap = math.hypot(yi[0] - yc[0], yi[1] - yc[1])
        assert gap <= 1e-9 * (1.0 + math.hypot(*yi))


def test_closed_form_equals_iteration_long_horizon():
    rng = np.random.default_rng(59)
    for _ in range(50):
        m = random_elliptic_model(rng)
        yi = iterate_error(m, 10_000)
        yc = closed_form_error(m, 10_000)
        gap = math.hypot(yi[0] - yc[0], yi[1] - yc[1])
        assert gap <= 1e-9 * (1.0 + math.hypot(*yi))


def test_singular_resolvent_on_shear():
    m = ErrorModel(Mat2(1.0, 1.0, 0.0, 1.0), (0.1, 0.0), (0.0, 0.0))
    with pytest.raises(SingularResolvent):
        closed_form_error(m, 10)
    with pytest.raises(SingularResolvent):
        error_bounded(m)
    # iteration still works and accumulates linearly in the shear direction
    y = iterate_error(m, 10)
    assert abs(y[0] - 1.0) <= 1e-12 and y[1] == 0.0


def test_singular_resolvent_boundary_is_sharp():
    # companion matrices [[t, -1], [1, 0]] have det 1 and trace t
    for delta in (0.0, 5e-13):
        m = ErrorModel(Mat2(2.0 + delta, -1.0, 1.0, 0.0), (0.1, 0.2), (0.0, 0.0))
        with pytest.raises(SingularResolvent):
            closed_form_error(m, 3)
    m = ErrorModel(Mat2(2.0 + 1e-11, -1.0, 1.0, 0.0), (0.1, 0.2), (0.0, 0.0))
    closed_form_error(m, 3)


def test_elliptic_is_always_bounded():
    rng = np.random.default_rng(61)
    for _ in range(50):
        m = random_elliptic_model(rng)
        result = error_bounded(m)
        assert result.bounded and "elliptic" in result.reason


def test_hyperbolic_split_by_initial_error():
    s = Mat2(2.0, 0.0, 0.0, 0.5)
    assert not error_bounded(ErrorModel(s, (0.0, 0.0), (1.0, 0.0)))
    res = error_bounded(ErrorModel(s, (0.0, 0.0), (0.0, 1.0)))
    assert res.bounded and "contracting" in res.reason


@pytest.mark.parametrize("trace", [2.0 + 1e-11, 2.0 - 1e-11, -2.0 + 1e-11, -2.0 - 1e-11])
@pytest.mark.parametrize("on_line", [True, False])
def test_the_trace_band_about_2_uses_analyze_bounded_subspace(trace, on_line):
    # companion matrix, det 1: inside the DECISION_TOL band about |tr S| = 2
    # dim_bounded_discrete reads S as a shear, whose bounded subspace is a line
    s = Mat2(trace, -1.0, 1.0, 0.0)
    subspace = dim_bounded_discrete(s)
    assert subspace.dim == 1
    ((u1, u2),) = subspace.basis
    y0 = (3.0 * u1, 3.0 * u2) if on_line else (u1 - u2, u2 + u1)
    # eta = 0 makes c = 0, so Y0 - c is y0
    assert error_bounded(ErrorModel(s, (0.0, 0.0), y0)).bounded is on_line


def test_minus_identity_is_bounded():
    m = ErrorModel(Mat2(-1.0, 0.0, 0.0, -1.0), (0.1, 0.1), (0.5, 0.5))
    assert error_bounded(m).bounded


def test_negative_shear_boundedness_depends_on_kernel():
    s = Mat2(-1.0, 1.0, 0.0, -1.0)
    # xi = y0 - c;  c = (I - S)^-1 eta with eta = 0 is 0, so xi = y0
    on_line = error_bounded(ErrorModel(s, (0.0, 0.0), (1.0, 0.0)))
    assert on_line.bounded
    off_line = error_bounded(ErrorModel(s, (0.0, 0.0), (0.0, 1.0)))
    assert not off_line.bounded


def test_rejects_non_unimodular_matrix():
    with pytest.raises(ValueError):
        ErrorModel(Mat2(2.0, 0.0, 0.0, 2.0), (0.0, 0.0), (1.0, 0.0))


def test_elliptic_trajectory_respects_conditioning_bound():
    """sup_n ||Y_n|| <= kappa ||Y0 - c|| + ||c|| with kappa the eigenbasis
    condition number, checked over 10^5 steps with a vectorized iteration."""
    rng = np.random.default_rng(67)
    for _ in range(6):
        m = random_elliptic_model(rng)
        s = np.array([[m.s.a11, m.s.a12], [m.s.a21, m.s.a22]])
        eigvals, eigvecs = np.linalg.eig(s)
        basis = np.column_stack([eigvecs[:, 0].real, eigvecs[:, 0].imag])
        kappa = np.linalg.cond(basis)
        c = np.linalg.solve(np.eye(2) - s, np.array(m.eta))
        xi = np.array(m.y0) - c
        bound = kappa * np.linalg.norm(xi) + np.linalg.norm(c)
        y = np.array(m.y0)
        eta = np.array(m.eta)
        sup = np.linalg.norm(y)
        for _ in range(100_000):
            y = s @ y + eta
            sup = max(sup, np.linalg.norm(y))
        assert sup <= bound * (1.0 + 1e-9)
