import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ellipkinc

from capsym import oracles


def test_unit_sphere_area_known_dimensions():
    assert oracles.unit_sphere_area(2) == pytest.approx(2 * math.pi, rel=1e-15)
    assert oracles.unit_sphere_area(3) == pytest.approx(4 * math.pi, rel=1e-15)
    assert oracles.unit_sphere_area(4) == pytest.approx(2 * math.pi**2, rel=1e-15)


def test_unit_sphere_area_rejects_low_dimension():
    with pytest.raises(ValueError):
        oracles.unit_sphere_area(1)


def test_ball_capacity_values():
    assert oracles.ball_capacity(3, 1.0) == pytest.approx(4 * math.pi, rel=1e-15)
    assert oracles.ball_capacity(3, 2.0) == pytest.approx(8 * math.pi, rel=1e-15)
    assert oracles.ball_capacity(4, 1.0) == pytest.approx(4 * math.pi**2, rel=1e-15)


def test_radial_potential_basic_values():
    u, _, _ = oracles.radial_potential(3, 1.0, [2.0, 0.0, 0.0])
    assert u == pytest.approx(0.5, rel=1e-15)
    u, Du, _ = oracles.radial_potential(3, 1.0, [0.0, 1.0, 0.0])
    assert u == pytest.approx(1.0)
    assert np.linalg.norm(Du) == pytest.approx(1.0, rel=1e-14)  # (n-2)/R
    for n in (3, 4, 5, 6):
        x = np.zeros(n)
        x[0] = 1.5
        u, _, _ = oracles.radial_potential(n, 1.5, x)
        assert u == pytest.approx(1.0)


def test_radial_potential_rejects_interior_point():
    with pytest.raises(ValueError):
        oracles.radial_potential(3, 1.0, [0.5, 0.0, 0.0])


def test_radial_potential_harmonic_at_random_points():
    rng = np.random.default_rng(1)
    for n in (3, 4, 5, 6):
        for _ in range(200):
            x = rng.normal(size=n)
            x *= rng.uniform(1.0, 50.0) / np.linalg.norm(x)
            _, _, D2u = oracles.radial_potential(n, 1.0, x)
            assert abs(np.trace(D2u)) <= 1e-12 * np.abs(D2u).max()


def test_radial_potential_asymptotic_capacity():
    # u(x) |x|^(n-2) (n-2) omega_n -> Cap
    for n in (3, 4, 5):
        x = np.zeros(n)
        x[0] = 1e6
        u, _, _ = oracles.radial_potential(n, 1.0, x)
        val = u * 1e6 ** (n - 2) * (n - 2) * oracles.unit_sphere_area(n)
        assert val == pytest.approx(oracles.ball_capacity(n, 1.0), rel=1e-10)


def test_radial_v_fields_quadratic():
    v, Dv, D2v = oracles.radial_v_fields(3, 1.0, [1.7, -0.3, 0.4])
    assert np.allclose(D2v, 2.0 * np.eye(3), atol=0)
    x = np.array([3.0, 0.0, 0.0, 0.0, 0.0])
    v, _, _ = oracles.radial_v_fields(5, 1.0, x)
    assert v == pytest.approx(9.0, rel=1e-15)
    xb = np.array([2.0, 0.0, 0.0])
    v, _, _ = oracles.radial_v_fields(3, 2.0, xb)
    assert v == pytest.approx(1.0)


def test_radial_v_fields_solve_auxiliary_pde():
    # Lap v - (n/2) |Dv|^2 / v = 0 exactly
    rng = np.random.default_rng(2)
    for n in range(3, 9):
        for _ in range(50):
            x = rng.normal(size=n)
            x *= rng.uniform(1.0, 10.0) / np.linalg.norm(x)
            v, Dv, D2v = oracles.radial_v_fields(n, 1.0, x)
            res = np.trace(D2v) - (n / 2.0) * (Dv @ Dv) / v
            assert abs(res) <= 1e-12 * abs(np.trace(D2v))


def test_ellipsoid_capacity_sphere_reduction():
    assert oracles.ellipsoid_capacity(1, 1, 1) == pytest.approx(4 * math.pi, rel=1e-15)
    assert oracles.ellipsoid_capacity(2, 2, 2) == pytest.approx(8 * math.pi, rel=1e-15)


def _simpson(f, m):
    x = np.linspace(0.0, 1.0, m + 1)
    y = f(x)
    h = x[1] - x[0]
    return h / 3.0 * (y[0] + y[-1] + 4 * y[1:-1:2].sum() + 2 * y[2:-1:2].sum())


def _simpson_ellipsoid_capacity(a, b, c, m=20000):
    # brute-force composite Simpson: split at s = 1, invert the tail with
    # s = 1/q^2 so both halves are smooth on [0, 1]
    head = _simpson(
        lambda s: 1.0 / np.sqrt((a * a + s) * (b * b + s) * (c * c + s)), m
    )
    tail = _simpson(
        lambda q: 2.0 / np.sqrt((1 + a * a * q * q) * (1 + b * b * q * q) * (1 + c * c * q * q)),
        m,
    )
    return 8 * math.pi / (head + tail)


def test_ellipsoid_capacity_against_independent_quadratures():
    # frozen from the Simpson oracle before the main build
    simpson = _simpson_ellipsoid_capacity(2.0, 1.0, 1.0)
    assert simpson == pytest.approx(16.527174043, abs=1e-6)
    assert oracles.ellipsoid_capacity(2.0, 1.0, 1.0) == pytest.approx(simpson, rel=1e-7)


@pytest.mark.parametrize("a, c", [(2.0, 1.0), (3.0, 1.0), (5.0, 2.0), (1.1, 1.0), (100.0, 1.0)])
def test_ellipsoid_capacity_against_the_spheroid_forms(a, c):
    focal = math.sqrt(a * a - c * c)
    prolate = 4 * math.pi * focal / math.acosh(a / c)
    oblate = 4 * math.pi * focal / math.acos(c / a)
    assert oracles.ellipsoid_capacity(a, c, c) == pytest.approx(prolate, rel=2e-15)
    assert oracles.ellipsoid_capacity(a, a, c) == pytest.approx(oblate, rel=2e-15)


@pytest.mark.parametrize("a, b, c", [(3.0, 2.0, 1.0), (5.0, 4.0, 0.5), (1.2, 1.1, 1.0)])
def test_ellipsoid_capacity_against_legendres_form(a, b, c):
    # I = 2 F(phi, m) / sqrt(a^2 - c^2), cos(phi) = c/a, m = (a^2 - b^2)/(a^2 - c^2)
    focal = math.sqrt(a * a - c * c)
    F = float(ellipkinc(math.acos(c / a), (a * a - b * b) / (a * a - c * c)))
    assert oracles.ellipsoid_capacity(a, b, c) == pytest.approx(4 * math.pi * focal / F,
                                                                rel=2e-15)


_AXES = st.tuples(*[st.floats(0.1, 10.0)] * 3)


@settings(max_examples=100, deadline=None)
@given(axes=_AXES, k=st.integers(-900, 900))
def test_ellipsoid_capacity_scales_exactly_by_powers_of_two(axes, k):
    scaled = oracles.ellipsoid_capacity(*(math.ldexp(x, k) for x in axes))
    assert scaled == math.ldexp(oracles.ellipsoid_capacity(*axes), k)


@settings(max_examples=50, deadline=None)
@given(axes=_AXES)
def test_ellipsoid_capacity_is_symmetric_in_the_axes(axes):
    cap = oracles.ellipsoid_capacity(*axes)
    for perm in itertools.permutations(axes):
        assert oracles.ellipsoid_capacity(*perm) == pytest.approx(cap, rel=1e-15)


@settings(max_examples=50, deadline=None)
@given(axes=_AXES, t=st.sampled_from([1e-150, 1e-20, 1e-6, 1e3, 1e150]))
def test_ellipsoid_capacity_is_homogeneous(axes, t):
    assert oracles.ellipsoid_capacity(*(t * x for x in axes)) == \
        pytest.approx(t * oracles.ellipsoid_capacity(*axes), rel=1e-15, abs=0)


def test_ellipsoid_capacity_of_axis_ratio_1e300():
    # 4 pi sqrt(a^2 - c^2) / acosh(a/c) at a = 1e300, c = 1, by mpmath at 40
    # digits: the unit axes' squares at the largest axis's scale would vanish
    assert oracles.ellipsoid_capacity(1e300, 1.0, 1.0) == \
        pytest.approx(1.8173448873772313755e298, rel=1e-15, abs=0)


# axis ratios whose squares span more than the float range, the last one
# beyond 2^2046, and a capacity that overflows
@pytest.mark.parametrize("axes", [(1e300, 1e-10, 1e-10), (1e308, 1e308, 1e308),
                                  (1e308, 1.0, 5e-324)])
def test_ellipsoid_capacity_beyond_the_float_range(axes):
    with pytest.raises(ArithmeticError, match="float range") as exc:
        oracles.ellipsoid_capacity(*axes)
    assert type(exc.value) is ArithmeticError


# capacities below the normal range, which a subnormal would carry with
# lost digits (4 pi 1e-320 came back 1.3e-5 relative off)
@pytest.mark.parametrize("capacity", [lambda: oracles.ball_capacity(3, 1e-320),
                                      lambda: oracles.ellipsoid_capacity(1e-320, 1e-320, 1e-320)],
                         ids=["ball", "ellipsoid"])
def test_subnormal_capacity_is_beyond_the_float_range(capacity):
    with pytest.raises(ArithmeticError, match="float range") as exc:
        capacity()
    assert type(exc.value) is ArithmeticError


def test_ellipsoid_capacity_keeps_its_bits_above_the_normal_range():
    assert oracles.ellipsoid_capacity(1e-300, 1e-300, 1e-300) == 1.2566370614359174e-299
    assert oracles.ellipsoid_capacity(2.0, 1.0, 1.0) == 16.527174043782797


def test_ellipsoid_capacity_rejects_bad_axes():
    with pytest.raises(ValueError):
        oracles.ellipsoid_capacity(0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        oracles.ellipsoid_capacity(1.0, -2.0, 1.0)
