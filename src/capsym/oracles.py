"""Closed-form reference solutions for the exterior potential problem.

Everything here is analytic: radial potentials around balls, exact
capacities of balls and triaxial ellipsoids, and the dimensional constant
omega_n.  These values serve as ground truth for the mesh/BEM machinery,
so all derivatives are hand-derived closed forms (never finite
differences) and omega_n is built from exact half-integer Gamma products.
"""

from __future__ import annotations

import math
import warnings

import numpy as np


def _gamma_half_integer(m: int) -> float:
    """Gamma(m/2) for integer m >= 1 via the half-integer recursion.

    Gamma(k) = (k-1)! and Gamma(k + 1/2) = (2k)!/(4^k k!) sqrt(pi),
    assembled as an exact product so no general Gamma routine is needed.
    """
    if m < 1:
        raise ValueError(f"need m >= 1, got {m}")
    if m % 2 == 0:
        return float(math.factorial(m // 2 - 1))
    # m odd: Gamma(1/2) = sqrt(pi), then Gamma(x+1) = x Gamma(x)
    val = math.sqrt(math.pi)
    x = 0.5
    while x < m / 2 - 0.25:
        val *= x
        x += 1.0
    return val


def unit_sphere_area(n: int) -> float:
    """Surface area omega_n of the unit sphere in R^n.

    omega_n = 2 pi^(n/2) / Gamma(n/2); omega_3 = 4 pi.
    """
    if n < 2:
        raise ValueError(f"dimension must be >= 2, got {n}")
    return 2.0 * math.pi ** (n / 2.0) / _gamma_half_integer(n)


def ball_capacity(n: int, R: float) -> float:
    """Electrostatic capacity of the ball of radius R in R^n, n >= 3.

    Equals (n-2) omega_n R^(n-2); for n = 3 this is 4 pi R.  Raises
    ArithmeticError when that underflows to 0 or is not finite.
    """
    if n < 3:
        raise ValueError(f"capacity requires n >= 3, got {n}")
    if R <= 0:
        raise ValueError(f"radius must be positive, got {R}")
    cap = (n - 2) * unit_sphere_area(n) * R ** (n - 2)
    if not 0.0 < cap < math.inf:
        raise ArithmeticError(f"ball capacity {cap} for n={n}, R={R} is beyond the float range")
    return cap


def radial_potential(n: int, R: float, x) -> tuple[float, np.ndarray, np.ndarray]:
    """Capacitary potential of the ball: u(x) = (R/|x|)^(n-2).

    Returns (u, Du, D2u) at an exterior point x (|x| >= R), with the
    gradient and Hessian as exact analytic derivatives.  u is harmonic
    in the exterior, equals 1 on |x| = R and decays to 0 at infinity.
    """
    if n < 3:
        raise ValueError(f"radial potential requires n >= 3, got {n}")
    if R <= 0:
        raise ValueError(f"radius must be positive, got {R}")
    x = np.asarray(x, dtype=float)
    if x.shape != (n,):
        raise ValueError(f"point must have dimension {n}, got shape {x.shape}")
    r = float(np.linalg.norm(x))
    if r < R * (1.0 - 1e-12):
        raise ValueError(f"point with |x| = {r} lies inside the ball of radius {R}")
    m = n - 2
    u = (R / r) ** m
    # Du = -m R^m r^(-n) x;  D2u = m R^m r^(-n) (n x x^T / r^2 - I)
    c = m * R**m * r ** (-n)
    Du = -c * x
    D2u = c * (n * np.outer(x, x) / r**2 - np.eye(n))
    return u, Du, D2u


def radial_v_fields(n: int, R: float, x) -> tuple[float, np.ndarray, np.ndarray]:
    """The transformed field v = u^(-2/(n-2)) for the ball: v = (|x|/R)^2.

    Exactly quadratic, so D2v = (2/R^2) I for every exterior point and
    every n -- the rigidity case of the Newton inequality.
    """
    if n < 3:
        raise ValueError(f"v-transform requires n >= 3, got {n}")
    if R <= 0:
        raise ValueError(f"radius must be positive, got {R}")
    x = np.asarray(x, dtype=float)
    if x.shape != (n,):
        raise ValueError(f"point must have dimension {n}, got shape {x.shape}")
    r2 = float(x @ x)
    if r2 < (R * (1.0 - 1e-12)) ** 2:
        raise ValueError(f"point with |x| = {math.sqrt(r2)} lies inside the ball of radius {R}")
    v = r2 / R**2
    Dv = (2.0 / R**2) * x
    D2v = (2.0 / R**2) * np.eye(n)
    return v, Dv, D2v


def ellipsoid_capacity(a: float, b: float, c: float) -> float:
    """Capacity in R^3 of the solid ellipsoid with semi-axes a, b, c.

    Classical closed form 8 pi / I with
        I = int_0^inf ds / sqrt((a^2+s)(b^2+s)(c^2+s)),
    evaluated by adaptive quadrature after the substitution s = t/(1-t)
    which maps the infinite tail onto [0, 1).  Reduces to 4 pi R for
    a = b = c = R.
    """
    if min(a, b, c) <= 0:
        raise ValueError(f"semi-axes must be positive, got ({a}, {b}, {c})")
    # imported here, so that the commands that never call this load no scipy
    from scipy.integrate import IntegrationWarning, quad

    def integrand(t: float) -> float:
        s = t / (1.0 - t)
        jac = 1.0 / (1.0 - t) ** 2
        return jac / math.sqrt((a * a + s) * (b * b + s) * (c * c + s))

    with warnings.catch_warnings():
        # at epsrel = 1e-12 quad can report hitting the roundoff limit
        # even though the achieved error estimate is well inside our check
        warnings.simplefilter("ignore", IntegrationWarning)
        val, err = quad(integrand, 0.0, 1.0, epsabs=1e-12, epsrel=1e-12, limit=200)
    if err > 1e-8 * max(val, 1.0):
        raise ArithmeticError(f"ellipsoid integral did not converge: residual estimate {err}")
    return 8.0 * math.pi / val
