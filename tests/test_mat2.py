import numpy as np
import pytest

from symbound.mat2 import UNIMODULARITY, Mat2, normalized, unimodularity_lost
from symbound.schemes import Scheme, guarded_s_body


def _to_np(m: Mat2):
    return np.array([[m.a11, m.a12], [m.a21, m.a22]])


def _rand(rng):
    return Mat2(*map(float, rng.uniform(-3.0, 3.0, 4)))


def test_arithmetic_against_numpy():
    rng = np.random.default_rng(3)
    for _ in range(200):
        a, b = _rand(rng), _rand(rng)
        assert np.allclose(_to_np(a @ b), _to_np(a) @ _to_np(b), rtol=0, atol=1e-14)
        assert np.allclose(_to_np(a - b), _to_np(a) - _to_np(b))
        assert abs(a.det - np.linalg.det(_to_np(a))) <= 1e-12 * (1 + a.frobenius_sq)
        assert a.trace == _to_np(a).trace()


def test_solve():
    rng = np.random.default_rng(5)
    for _ in range(100):
        m = _rand(rng)
        if abs(m.det) < 1e-3:
            continue
        b = tuple(map(float, rng.uniform(-2, 2, 2)))
        x = m.solve(b)
        got = m.apply(x)
        assert abs(got[0] - b[0]) <= 1e-10 and abs(got[1] - b[1]) <= 1e-10


def test_singular_solve_raises():
    with pytest.raises(ZeroDivisionError):
        Mat2(1.0, 2.0, 2.0, 4.0).solve((1.0, 0.0))


def test_power_binary_exponentiation():
    rng = np.random.default_rng(9)
    m = Mat2(0.9, -0.4, 0.4, 0.9)
    for n in (0, 1, 2, 7, 31, 100):
        assert np.allclose(
            _to_np(m.power(n)), np.linalg.matrix_power(_to_np(m), n), atol=1e-10
        )
    with pytest.raises(ValueError):
        m.power(-1)


def test_normalized_sign_convention():
    assert normalized((0.0, -2.0)) == (0.0, 1.0)
    assert normalized((-3.0, 0.0)) == (1.0, -0.0)
    u = normalized((1.0, 1.0))
    assert abs(u[0] ** 2 + u[1] ** 2 - 1.0) < 1e-15
    with pytest.raises(ValueError):
        normalized((0.0, 0.0))


def test_sum_and_scalar_product_raise_type_error():
    # the tuple would concatenate or repeat; Mat2 names scale and the
    # entrywise spelling instead
    m = Mat2(1.0, 2.0, 3.0, 4.0)
    with pytest.raises(TypeError, match="entries one by one"):
        m + m
    with pytest.raises(TypeError, match="entries one by one"):
        (1.0, 2.0) + m
    with pytest.raises(TypeError, match="scale"):
        m * 2
    with pytest.raises(TypeError, match="scale"):
        2.0 * m
    # unpacking and rebuilding the entries are unaffected
    assert tuple(m) == (1.0, 2.0, 3.0, 4.0) and (*m, 5.0)[4] == 5.0


def test_immutable_hashable_and_equal_by_entries():
    m = Mat2(1.0, 2.0, 3.0, 4.0)
    with pytest.raises(AttributeError):
        m.a11 = 5.0
    assert Mat2(1.0, 0.0, 0.0, 1.0) == Mat2.identity()
    assert m == Mat2(1.0, 2.0, 3.0, 4.0)
    assert m != Mat2(1.0, 2.0, 3.0, -4.0)
    assert hash(m) == hash(Mat2(1.0, 2.0, 3.0, 4.0))
    assert hash(Mat2(1.0, 0.0, 0.0, 1.0)) == hash(Mat2.identity())
    assert len({m, Mat2(1.0, 2.0, 3.0, 4.0), Mat2.identity()}) == 2


def test_unimodularity_lost_is_det_and_frobenius_sq_on_floats_and_arrays():
    rng = np.random.default_rng(5)
    ms = [_rand(rng) for _ in range(50)] + [Mat2(2.0, 1.0, 1.0, 1.0), Mat2(1.0, 1e-9, 0.0, 1.0)]
    for tol in (1e-10, 1e-9, 0.5):
        for m in ms:
            want = (m.det, abs(m.det - 1.0) > tol * (1.0 + m.frobenius_sq))
            assert unimodularity_lost(*m, tol) == want
        det, lost = unimodularity_lost(*np.array(ms).T, tol)
        assert det.tolist() == [m.det for m in ms]
        assert lost.tolist() == [unimodularity_lost(*m, tol)[1] for m in ms]


def test_the_propagator_guard_inlines_the_unimodularity_text():
    # one definition: the text unimodularity_lost runs is the guard's
    text = UNIMODULARITY.substitute(tol="UNIMODULAR_TOL")
    for scheme in Scheme:
        assert text in guarded_s_body(scheme, "return False", 0)
