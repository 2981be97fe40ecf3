"""Finite-difference verification of the differential identities behind the
symmetry argument.

Test functions carry closed-form value/gradient/Hessian; anything of
third order (divergences of composite fields) is taken by central
differences of the composed field, so residuals decay at O(h^2).  The
level-set identities need no third derivatives and are checked in closed
form; the quadratic coefficient whose roots select the two useful
exponents is handled in exact rational arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Callable, Iterable

import numpy as np

from . import symfun
from .oracles import ball_capacity, radial_v_fields, unit_sphere_area


@dataclass(frozen=True)
class TestFunction:
    """Smooth scalar field with closed-form derivatives up to order two.

    `positive` must hold wherever the function is used with fractional
    powers.  `check_consistency` compares the hand-derived gradient and
    Hessian with central differences of the value; `run_suite` calls it at
    the first point of each dimension, so a typo there fails fast.
    """

    name: str
    n: int
    value: Callable[[np.ndarray], float]
    gradient: Callable[[np.ndarray], np.ndarray]
    hessian: Callable[[np.ndarray], np.ndarray]
    positive: bool = False

    def check_consistency(self, x) -> None:
        """Verify gradient/Hessian against central differences of the value."""
        h, tol = 1e-5, 1e-4
        x = np.asarray(x, dtype=float)
        g = np.asarray(self.gradient(x), dtype=float)
        Hm = np.asarray(self.hessian(x), dtype=float)
        scale_g = max(1.0, float(np.max(np.abs(g))))
        scale_h = max(1.0, float(np.max(np.abs(Hm))))
        for j in range(self.n):
            fd_g = _central_partial(self.value, x, j, h)
            if abs(fd_g - g[j]) > tol * scale_g:
                raise ValueError(f"{self.name}: gradient component {j} inconsistent with FD")
            fd_h = _central_partial(lambda y: np.asarray(self.gradient(y)), x, j, h)
            if np.max(np.abs(fd_h - Hm[:, j])) > tol * scale_h:
                raise ValueError(f"{self.name}: Hessian column {j} inconsistent with FD")


def standard_test_functions(n: int, rng=None) -> list[TestFunction]:
    """The battery used by the identity suite in dimension n."""
    if rng is None:
        rng = np.random.default_rng(7)

    funcs = [
        TestFunction(
            "one_plus_r2", n,
            value=lambda x: 1.0 + float(x @ x),
            gradient=lambda x: 2.0 * x,
            hessian=lambda x: 2.0 * np.eye(len(x)),
            positive=True,
        ),
        TestFunction(
            "r4", n,
            value=lambda x: float(x @ x) ** 2,
            gradient=lambda x: 4.0 * float(x @ x) * x,
            hessian=lambda x: 4.0 * float(x @ x) * np.eye(len(x)) + 8.0 * np.outer(x, x),
            positive=False,
        ),
        TestFunction(
            "exp_sin", n,
            value=lambda x: math.exp(x[0]) * math.sin(x[1]),
            gradient=lambda x: _exp_sin_grad(x),
            hessian=lambda x: _exp_sin_hess(x),
            positive=False,
        ),
        TestFunction(
            "aniso_quadric", n,
            value=lambda x: 1.0 + float(np.arange(1, len(x) + 1) @ (x * x)),
            gradient=lambda x: 2.0 * np.arange(1, len(x) + 1) * x,
            hessian=lambda x: 2.0 * np.diag(np.arange(1.0, len(x) + 1)),
            positive=True,
        ),
    ]

    # shifted-positive random cubic: c0 + b.x + x^T Q x + sum t_ijk x_i x_j x_k
    b = rng.normal(size=n)
    Q = rng.normal(size=(n, n))
    Q = 0.5 * (Q + Q.T)
    T = rng.normal(size=(n, n, n)) * 0.2
    T = (T + T.transpose(1, 0, 2) + T.transpose(2, 1, 0)
         + T.transpose(0, 2, 1) + T.transpose(1, 2, 0) + T.transpose(2, 0, 1)) / 6.0

    def cubic_val(x, b=b, Q=Q, T=T):
        return 50.0 + float(b @ x + x @ Q @ x + np.einsum("ijk,i,j,k->", T, x, x, x))

    def cubic_grad(x, b=b, Q=Q, T=T):
        return b + 2.0 * Q @ x + 3.0 * np.einsum("ijk,j,k->i", T, x, x)

    def cubic_hess(x, Q=Q, T=T):
        return 2.0 * Q + 6.0 * np.einsum("ijk,k->ij", T, x)

    funcs.append(TestFunction("random_cubic", n, cubic_val, cubic_grad, cubic_hess,
                              positive=True))
    return funcs


def _exp_sin_grad(x):
    g = np.zeros(len(x))
    g[0] = math.exp(x[0]) * math.sin(x[1])
    g[1] = math.exp(x[0]) * math.cos(x[1])
    return g


def _exp_sin_hess(x):
    H = np.zeros((len(x), len(x)))
    H[0, 0] = math.exp(x[0]) * math.sin(x[1])
    H[0, 1] = H[1, 0] = math.exp(x[0]) * math.cos(x[1])
    H[1, 1] = -math.exp(x[0]) * math.sin(x[1])
    return H


# ---------------------------------------------------------------------------
# finite-difference machinery


def _central_partial(func: Callable[[np.ndarray], np.ndarray], x: np.ndarray, j: int,
                     h: float):
    """(func(x + h e_j) - func(x - h e_j)) / 2h: the module's one stencil."""
    e = np.zeros(len(x))
    e[j] = h
    return (func(x + e) - func(x - e)) / (2.0 * h)


def _fd_divergence(field: Callable[[np.ndarray], np.ndarray], x: np.ndarray, h: float):
    """Central-difference divergence of a vector field, or of each row of a
    matrix field: sum_j d/dx_j field[..., j]."""
    total = 0.0
    for j in range(len(x)):
        total += _central_partial(field, x, j, h)[..., j]
    return total


def default_step(x) -> float:
    """FD step balancing truncation against rounding at these magnitudes."""
    return 1e-4 * (1.0 + float(np.linalg.norm(x)))


def check_div_free_s2(f: TestFunction, x, h: float) -> np.ndarray:
    """Row-wise divergence of S^2(D2f): each row is divergence-free, so the
    returned residual vector tends to 0 at O(h^2)."""
    x = np.asarray(x, dtype=float)
    return _fd_divergence(lambda y: symfun.s2_tensor(f.hessian(y)), x, h)


def _power_checks(f: TestFunction, gamma: float, v: float) -> None:
    if gamma != int(gamma):
        if not f.positive or v <= 0:
            raise ValueError(
                f"{f.name}: fractional power gamma={gamma} needs a positive function value"
            )
    elif gamma < 0 and v == 0:
        raise ValueError(f"{f.name}: negative power gamma={gamma} at a zero of the function")


def _flux_terms(v, Dv: np.ndarray, D2v, gamma: float):
    """(a, b, F): a = v^g S^2_ij v_i, b = v^(g-1)|Dv|^2 v_j and the
    divergence-form field of the symmetry proof, F = (g/2) b + a.  F is
    formed as (g/2 v^(g-1)) |Dv|^2 Dv + a, not from b, which would round
    differently: the identity suite's output stays byte-identical."""
    g2 = float(Dv @ Dv)
    a = v**gamma * (symfun.s2_tensor(D2v) @ Dv)
    b = v ** (gamma - 1) * g2 * Dv
    F = 0.5 * gamma * v ** (gamma - 1) * g2 * Dv + a
    return a, b, F


def check_identities(f: TestFunction, gamma: float, x, h: float) -> tuple[float, float, float]:
    """Residuals (rA, rB, rC) of identities A, B and C at x.  The divergences
    of a, b and F from `_flux_terms` come from one central-difference pass
    over the stacked (3, n) field, so f, Df and D2f are evaluated once at
    each of the 2n stencil points and once at x."""
    x = np.asarray(x, dtype=float)
    v = f.value(x)
    _power_checks(f, gamma, v)

    def fields(y):
        return np.stack(_flux_terms(f.value(y), np.asarray(f.gradient(y), dtype=float),
                                    f.hessian(y), gamma))

    div_a, div_b, div_F = _fd_divergence(fields, x, h)
    Dv = np.asarray(f.gradient(x), dtype=float)
    D2v = f.hessian(x)
    g2 = float(Dv @ Dv)
    lap = float(np.trace(D2v))
    s2_v = 2.0 * v**gamma * symfun.sym_elementary(D2v, 2)
    quad = symfun.s2_quadratic_form(D2v, Dv)
    rA = abs(div_a - (s2_v + gamma * v ** (gamma - 1) * quad))
    rhs_B = (1.5 * v ** (gamma - 1) * g2 * lap
             + 0.5 * (gamma - 1) * v ** (gamma - 2) * g2**2 - 0.5 * div_b)
    rB = abs(v ** (gamma - 1) * quad - rhs_B)
    rhs_C = (div_F - 1.5 * gamma * v ** (gamma - 1) * g2 * lap
             - 0.5 * gamma * (gamma - 1) * v ** (gamma - 2) * g2**2)
    rC = abs(s2_v - rhs_C)
    return rA, rB, rC


def check_identity_A(f: TestFunction, gamma: float, x, h: float) -> float:
    """Residual of: div(v^g S^2_ij v_i) = 2 v^g S_2(D2v) + g v^(g-1) S^2_ij v_i v_j."""
    return check_identities(f, gamma, x, h)[0]


def check_identity_B(f: TestFunction, gamma: float, x, h: float) -> float:
    """Residual of: v^(g-1) S^2_ij v_i v_j
    = 3/2 v^(g-1)|Dv|^2 Lap v + (g-1)/2 v^(g-2)|Dv|^4 - 1/2 div(v^(g-1)|Dv|^2 Dv)."""
    return check_identities(f, gamma, x, h)[1]


def check_identity_C(f: TestFunction, gamma: float, x, h: float) -> float:
    """Residual of the combined identity:
    2 v^g S_2(D2v) = div(g/2 v^(g-1)|Dv|^2 Dv + v^g S^2_ij v_i)
                     - 3/2 g v^(g-1)|Dv|^2 Lap v - g(g-1)/2 v^(g-2)|Dv|^4."""
    return check_identities(f, gamma, x, h)[2]


def median_order(f: TestFunction, cases: Iterable[tuple[np.ndarray, Callable[[float], object]]],
                 rel_cut: float, fault: float = 0.0) -> list[float | None]:
    """Per row, the median of log2(r(h) / r(h/2)) over `cases`, pairs (x, r) of
    a point and its FD residuals, one value per row (a scalar is one row), as
    a function of the step h = default_step(x); central differences give ~2.
    A row with r(h) < rel_cut * max(1, |f(x)|) holds exactly there, to
    roundoff, and gives no order: None for a row where every case does.
    r(h/2) is computed once per case, if any row needs it.  `fault` is added
    to every residual, to exercise the failure paths."""
    orders: list[list[float]] = []
    for x, residual in cases:
        h = default_step(x)
        r1 = np.atleast_1d(residual(h)) + fault
        orders = orders or [[] for _ in r1]
        exact = r1 < rel_cut * max(1.0, abs(f.value(x)))
        if exact.all():
            continue
        r2 = np.atleast_1d(residual(h / 2.0)) + fault
        for i in np.flatnonzero(~exact):
            if r2[i] > 0:
                orders[i].append(float(np.log2(r1[i] / r2[i])))
    return [float(np.median(row)) if row else None for row in orders]


# ---------------------------------------------------------------------------
# level-set identities (closed form, no FD)


def check_level_set_identity(f: TestFunction, x) -> tuple[float, float]:
    """Residuals of the two level-set identities at x, everything closed form.

    With H the mean curvature of the level set through x computed as
    div(Dv/|Dv|)/(n-1):
      (i)  |Dv|^2 Lap v = (n-1) H |Dv|^3 + v_i v_ij v_j
      (ii) S^2_ij v_i v_j = (n-1) H |Dv|^3
    """
    x = np.asarray(x, dtype=float)
    Dv = np.asarray(f.gradient(x), dtype=float)
    g = float(np.linalg.norm(Dv))
    if g == 0.0:
        raise ValueError(f"{f.name}: critical point, level set undefined at {x.tolist()}")
    D2v = np.asarray(f.hessian(x), dtype=float)
    lap = float(np.trace(D2v))
    wHw = float(Dv @ D2v @ Dv)
    n = f.n
    # div(Dv/|Dv|) = (Lap v - w^T D2v w / |w|^2) / |w|
    H = (lap - wHw / g**2) / g / (n - 1)
    res_pallino = abs(g**2 * lap - ((n - 1) * H * g**3 + wHw))
    res_pare = abs(symfun.s2_quadratic_form(D2v, Dv) - (n - 1) * H * g**3)
    return res_pallino, res_pare


# ---------------------------------------------------------------------------
# exact rational gamma algebra


def gamma_coefficient(n: int, gamma) -> Fraction:
    """The exponent-selection coefficient n(n-1)/4 - g(1-g)/2 + 3ng/4,
    in exact rational arithmetic."""
    if n < 3:
        raise ValueError(f"need n >= 3, got {n}")
    g = Fraction(gamma)
    return Fraction(n * (n - 1), 4) - g * (1 - g) / 2 + Fraction(3 * n, 4) * g


def gamma_roots(n: int) -> tuple[Fraction, Fraction]:
    """Exact roots of the coefficient's quadratic in gamma: (1-n, -n/2).

    Multiplying by 4: 2 g^2 + (3n-2) g + n(n-1) = 0, discriminant (n-2)^2.
    """
    if n < 3:
        raise ValueError(f"need n >= 3, got {n}")
    b = Fraction(3 * n - 2)
    disc = (n - 2) ** 2
    sq = Fraction(math.isqrt(disc))
    r1 = (-b - sq) / 4
    r2 = (-b + sq) / 4
    # r1 = 1-n, r2 = -n/2 for n >= 2; return in the conventional order
    return (min(r1, r2), max(r1, r2))


# ---------------------------------------------------------------------------
# far-sphere boundary limits


def boundary_limit_constant(n: int, capacity: float) -> float:
    """The limiting flux value 2 (n-2) omega_n (Cap/((n-2) omega_n))^((n-4)/(n-2))."""
    omega = unit_sphere_area(n)
    return 2.0 * (n - 2) * omega * (capacity / ((n - 2) * omega)) ** ((n - 4) / (n - 2))


def sphere_flux(n: int, R: float, gamma: float) -> float:
    """Flux of F = v^g S^2_ij v_i + (g/2) v^(g-1)|Dv|^2 v_j through the sphere
    of radius R about the origin, for the unit-ball oracle v = |x|^2.

    v is radial, so F(x) = phi(|x|) x and the integrand F.nu = phi(R) R is
    the same at every point of the centred sphere.  One sample at R e_1
    times the area omega_n R^(n-1) is therefore the exact flux in every
    dimension, up to the rounding of that one sample.
    """
    if R <= 0:
        raise ValueError(f"sphere radius must be positive, got {R}")
    x = np.zeros(n)
    x[0] = R
    F = _flux_terms(*radial_v_fields(n, 1.0, x), gamma)[2]
    return unit_sphere_area(n) * R ** (n - 1) * float(F[0])


def check_boundary_limits(n: int, R_list, gamma: float) -> list[tuple[float, float]]:
    """Table of (R, flux) for increasing far radii, on the unit-ball oracle
    fields: with the exponent 1-n the fluxes vanish, with -n/2 they approach
    the capacity-weighted constant."""
    rows = []
    for R in R_list:
        if R < 1.0:
            raise ValueError(f"far radius {R} is inside the domain of radius 1.0")
        rows.append((float(R), sphere_flux(n, float(R), gamma)))
    return rows


# ---------------------------------------------------------------------------
# the identity suite


@dataclass(frozen=True)
class SuiteResult:
    """Report of `run_suite`: one line per row and whether that row passed."""

    lines: tuple[str, ...]
    line_ok: tuple[bool, ...]

    @property
    def ok(self) -> bool:
        return all(self.line_ok)


def run_suite(dims, points: int, seed: int, inject_fault: bool = False) -> SuiteResult:
    """The identity suite in each dimension of `dims` at `points` points drawn
    from `seed`: FD orders of identities A, B, C and of the divergence-free
    rows of S^2 (no row where the identity is exact), level-set residuals,
    the exact gamma roots for n = 3..10 and the far-sphere flux limits.
    `inject_fault` fails every row but the gamma roots."""
    fault = 1e-3 if inject_fault else 0.0
    rows: list[tuple[str, bool]] = []

    def row(text: str, ok: bool) -> None:
        rows.append((f"{text} {'ok' if ok else 'FAIL'}", bool(ok)))

    def order_row(n: int, f: TestFunction, label: str, med: float | None) -> None:
        if med is not None:
            row(f"n={n} {f.name:>14} {label}: order {med:+.3f}", 1.8 <= med <= 2.2)

    for n in dims:
        rng = np.random.default_rng(seed)
        funcs = standard_test_functions(n, rng)
        pts = rng.uniform(0.3, 1.2, size=(points, n))
        gammas = [float(g) for g in gamma_roots(n)] + [0.0, 1.0, -2.0]
        for f in funcs:
            f.check_consistency(pts[0])
            cases = ((x, partial(check_identities, f, gamma, x)) for x in pts for gamma in gammas
                     if gamma == int(gamma) or f.positive)
            for label, med in zip(("identity_A", "identity_B", "identity_C"),
                                  median_order(f, cases, 1e-11, fault)):
                order_row(n, f, label, med)
            cases = ((x, lambda h, x=x: np.max(np.abs(check_div_free_s2(f, x, h)))) for x in pts)
            order_row(n, f, "div_free_s2", median_order(f, cases, 1e-10, fault)[0])
            # level-set identities, closed form
            worst = 0.0
            for x in pts:
                g = np.linalg.norm(np.asarray(f.gradient(x)))
                if g < 1e-8:
                    continue
                rp, rq = check_level_set_identity(f, x)
                scale = max(1.0, g**3)
                worst = max(worst, rp / scale, rq / scale)
            worst += fault
            row(f"n={n} {f.name:>14} level_set: residual {worst:.3e}", worst <= 1e-11)

    rows.append(("gamma roots (exact rational):", True))
    for n in range(3, 11):
        r1, r2 = gamma_roots(n)
        c1 = gamma_coefficient(n, r1)
        c2 = gamma_coefficient(n, r2)
        row(f"  n={n}: gamma1={r1}, gamma2={r2}, coefficients {c1},{c2}",
            c1 == 0 and c2 == 0 and r1 == 1 - n and 2 * r2 == -n)

    # far-sphere boundary limits on the unit ball (oracle fields)
    for n in dims:
        g1, g2 = gamma_roots(n)
        limit = boundary_limit_constant(n, ball_capacity(n, 1.0))
        rows1 = check_boundary_limits(n, [10.0, 100.0, 1000.0], float(g1))
        rows2 = check_boundary_limits(n, [10.0, 100.0, 1000.0], float(g2))
        g1_max = max(abs(v) for _, v in rows1)
        f1_ok = g1_max + fault <= 1e-6 * max(1.0, limit)
        f2_ok = abs(rows2[-1][1] - limit) <= 0.01 * limit and not inject_fault
        rows.append((f"n={n} boundary limits: gamma1 flux max "
                     f"{g1_max:.3e} -> 0 {'ok' if f1_ok else 'FAIL'}; "
                     f"gamma2 flux {rows2[-1][1]:.12g} vs {limit:.12g} "
                     f"{'ok' if f2_ok else 'FAIL'}", bool(f1_ok and f2_ok)))

    lines, line_ok = zip(*rows)
    return SuiteResult(lines, line_ok)
