"""Finite-difference verification of the differential identities behind the
symmetry argument.

Test functions carry closed-form value/gradient/Hessian; anything of
third order (divergences of composite fields) is taken by central
differences of the composed field, so residuals decay at O(h^2).  The
level-set identities need no third derivatives and are checked in closed
form; the quadratic coefficient whose roots select the two useful
exponents is handled in exact rational arithmetic.

The module is array code over leading axes, with one implementation and
no per-point path.  One stencil, `_stencil(x, h)`, gives the 2n points
x +- h e_j of every point for every divergence; the divergence-form field
F of the symmetry proof is written once, in `_flux_terms`; `run_suite`
runs the whole identity suite, each (n, f) in a handful of stacked calls,
and `median_order` gives the convergence order of each residual row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from . import symfun
from .oracles import ball_capacity, radial_v_fields, unit_sphere_area


@dataclass(frozen=True)
class TestFunction:
    """Smooth scalar field with closed-form derivatives up to order two.

    `value`, `gradient` and `hessian` take one point (n,) or a stack of
    points (..., n) and return shapes (...), (..., n) and (..., n, n); each
    point of a stack gets the bits of a call on that point alone.
    `positive` must hold wherever the function is used with fractional
    powers.  `check_consistency` compares the hand-derived gradient and
    Hessian with central differences of the value; `run_suite` calls it at
    the first point of each dimension, so a typo there fails fast.
    """

    name: str
    n: int
    value: Callable[[np.ndarray], np.ndarray]
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
        y = _stencil(x, h)
        fd_g = _central_partial(self.value(y), h)
        fd_h = _central_partial(np.asarray(self.gradient(y), dtype=float), h)  # row j: column j
        for j in range(self.n):
            if abs(fd_g[j] - g[j]) > tol * scale_g:
                raise ValueError(f"{self.name}: gradient component {j} inconsistent with FD")
            if np.max(np.abs(fd_h[j] - Hm[:, j])) > tol * scale_h:
                raise ValueError(f"{self.name}: Hessian column {j} inconsistent with FD")


def _constant(M, x):
    """The matrix M at every point of x (..., n), as a fresh array."""
    return np.zeros(x.shape[:-1] + M.shape) + M


def _per_element(fn, t):
    """The C library function `fn` (from `math`) at each element of t:
    numpy's vector exp rounds differently."""
    t = np.asarray(t, dtype=float)
    return np.array([fn(s) for s in t.ravel().tolist()]).reshape(t.shape)


def standard_test_functions(n: int, rng=None) -> list[TestFunction]:
    """The battery used by the identity suite in dimension n."""
    if rng is None:
        rng = np.random.default_rng(7)
    dot, matvec = symfun.dot, symfun.matvec
    eye = np.eye(n)
    weights = np.arange(1.0, n + 1)

    funcs = [
        TestFunction(
            "one_plus_r2", n,
            value=lambda x: 1.0 + dot(x, x),
            gradient=lambda x: 2.0 * x,
            hessian=lambda x: _constant(2.0 * eye, x),
            positive=True,
        ),
        TestFunction(
            "r4", n,
            value=lambda x: np.float_power(dot(x, x), 2),
            gradient=lambda x: (4.0 * dot(x, x))[..., None] * x,
            hessian=lambda x: ((4.0 * dot(x, x))[..., None, None] * eye
                               + 8.0 * (x[..., :, None] * x[..., None, :])),
            positive=False,
        ),
        TestFunction(
            "exp_sin", n,
            value=lambda x: _exp_sin(x)[0],
            gradient=_exp_sin_grad,
            hessian=_exp_sin_hess,
            positive=False,
        ),
        TestFunction(
            "aniso_quadric", n,
            value=lambda x: 1.0 + dot(weights, x * x),
            gradient=lambda x: (2.0 * weights) * x,
            hessian=lambda x: _constant(2.0 * np.diag(weights), x),
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
        cubic = np.einsum("ijk,...i,...j,...k->...", T, x, x, x)
        return 50.0 + (dot(b, x) + symfun.quadratic_form(Q, x) + cubic)

    def cubic_grad(x, b=b, Q=Q, T=T):
        return b + matvec(2.0 * Q, x) + 3.0 * np.einsum("ijk,...j,...k->...i", T, x, x)

    def cubic_hess(x, Q=Q, T=T):
        return 2.0 * Q + 6.0 * np.einsum("ijk,...k->...ij", T, x)

    funcs.append(TestFunction("random_cubic", n, cubic_val, cubic_grad, cubic_hess,
                              positive=True))
    return funcs


def _exp_sin(x):
    """e^x0 sin x1 and e^x0 cos x1."""
    e = _per_element(math.exp, x[..., 0])
    return e * _per_element(math.sin, x[..., 1]), e * _per_element(math.cos, x[..., 1])


def _exp_sin_grad(x):
    g = np.zeros(x.shape)
    g[..., 0], g[..., 1] = _exp_sin(x)
    return g


def _exp_sin_hess(x):
    es, ec = _exp_sin(x)
    H = np.zeros(x.shape + x.shape[-1:])
    H[..., 0, 0] = es
    H[..., 0, 1] = H[..., 1, 0] = ec
    H[..., 1, 1] = -es
    return H


# ---------------------------------------------------------------------------
# finite-difference machinery: every function below takes one point or a
# stack of points, with a step (and an exponent) per point


def _stencil(x: np.ndarray, h) -> np.ndarray:
    """The 2n points x + h e_j, then x - h e_j (j = 0..n-1), of the
    module's one central-difference stencil, on a new leading axis: x
    (..., n) and h (...) give (2n, ..., n)."""
    n = x.shape[-1]
    he = np.eye(n).reshape((n,) + (1,) * (x.ndim - 1) + (n,)) * np.asarray(h)[..., None]
    return np.concatenate([x + he, x - he])


def _central_partial(values: np.ndarray, h) -> np.ndarray:
    """(func(x + h e_j) - func(x - h e_j)) / 2h for every j, from func's
    values at `_stencil(x, h)`: (2n, ..., *T) gives (n, ..., *T)."""
    n = len(values) // 2
    h2 = 2.0 * np.asarray(h)
    return (values[:n] - values[n:]) / h2.reshape(h2.shape + (1,) * (values.ndim - 1 - h2.ndim))


def _fd_divergence(values: np.ndarray, h):
    """Central-difference divergence sum_j d/dx_j field[..., j] of a vector
    field, or of each row of a matrix field, from its values at
    `_stencil(x, h)`."""
    total = 0.0
    for j, partial in enumerate(_central_partial(values, h)):
        total = total + partial[..., j]
    return total


def _broadcast_points(x, *per_point):
    """x (..., n) and arrays with one value per point, broadcast to one
    stack shape."""
    x = np.asarray(x, dtype=float)
    per_point = [np.asarray(p, dtype=float) for p in per_point]
    shape = np.broadcast_shapes(x.shape[:-1], *(p.shape for p in per_point))
    return (np.broadcast_to(x, shape + x.shape[-1:]),
            *(np.broadcast_to(p, shape) for p in per_point))


def default_step(x):
    """FD step balancing truncation against rounding at these magnitudes,
    per point of x (..., n)."""
    return 1e-4 * (1.0 + np.sqrt(symfun.dot(x, x)))  # rounds as np.linalg.norm(x)


# Where the entries of S^2(D2f) are polynomials of degree <= 2, central
# differences reproduce its divergence-free rows exactly, up to the rounding
# of the difference quotients, about eps sum_j max|S^2| / h.  A residual
# below this many times that bound holds exactly.  Over seeds 0-1499 at
# n = 3-7, at h and h/2, the ratio stays below 0.79 on the battery's exact
# rows and is at least 206 on exp_sin, whose rows are not exact.
_ROUNDING_FACTOR = 16.0


def _div_free_s2(f: TestFunction, x, h):
    """Row divergences of S^2(D2f) at x (..., n) with steps h (...), and the
    rounding bound c eps sum_j max|S^2(D2f(x +- h e_j))| / h below which a
    row holds exactly (c = `_ROUNDING_FACTOR`)."""
    x, h = _broadcast_points(x, h)
    S2 = symfun.s2_tensor(f.hessian(_stencil(x, h)))
    mag = np.max(np.abs(S2), axis=(-2, -1))
    n = x.shape[-1]
    rounding = np.sum(np.maximum(mag[:n], mag[n:]), axis=0) / h
    return _fd_divergence(S2, h), _ROUNDING_FACTOR * np.finfo(float).eps * rounding


def check_div_free_s2(f: TestFunction, x, h) -> np.ndarray:
    """Row-wise divergence of S^2(D2f) at x (..., n) with steps h (...):
    each row is divergence-free, so the returned residual rows (..., n)
    tend to 0 at O(h^2)."""
    return _div_free_s2(f, x, h)[0]


def _power_checks(f: TestFunction, gamma: np.ndarray, v: np.ndarray) -> None:
    fractional = gamma != np.trunc(gamma)
    bad = fractional & ((v <= 0) | (not f.positive))
    if bad.any():
        raise ValueError(f"{f.name}: fractional power gamma={float(gamma[bad][0])} needs a "
                         "positive function value")
    bad = ~fractional & (gamma < 0) & (v == 0)
    if bad.any():
        raise ValueError(f"{f.name}: negative power gamma={float(gamma[bad][0])} at a zero "
                         "of the function")


def _flux_terms(v, Dv, D2v, gamma):
    """(a, b, F): a = v^g S^2_ij v_i, b = v^(g-1)|Dv|^2 v_j and the
    divergence-form field of the symmetry proof, F = (g/2) b + a, at one
    point or per point of a stack: v (...), Dv (..., n), D2v (..., n, n)
    and g broadcast to v.  F is formed as (g/2 v^(g-1)) |Dv|^2 Dv + a, not
    from b, which would round differently.  Powers are `np.float_power`,
    the C pow of a Python float; `np.power` may round otherwise."""
    g2 = symfun.dot(Dv, Dv)
    vg, vg1 = np.float_power(v, gamma), np.float_power(v, gamma - 1)
    a = vg[..., None] * symfun.matvec(symfun.s2_tensor(D2v), Dv)
    b = (vg1 * g2)[..., None] * Dv
    F = (0.5 * gamma * vg1 * g2)[..., None] * Dv + a
    return a, b, F


def check_identities(f: TestFunction, gamma, x, h):
    """Residuals (rA, rB, rC) of identities A, B and C at x (..., n), with
    exponents gamma and steps h broadcast against the points.  The
    divergences of a, b and F from `_flux_terms` come from one
    central-difference pass over the stacked (3, n) field: f, Df and D2f
    are evaluated once, on one stack of the 2n stencil points and x of
    every point."""
    x, gamma, h = _broadcast_points(x, gamma, h)
    y = np.concatenate([_stencil(x, h), x[None]])
    v, Dv, D2v = f.value(y), np.asarray(f.gradient(y), dtype=float), f.hessian(y)
    _power_checks(f, gamma, v[-1])
    fields = np.stack(_flux_terms(v[:-1], Dv[:-1], D2v[:-1], gamma), axis=-2)
    div_a, div_b, div_F = np.moveaxis(_fd_divergence(fields, h), -1, 0)
    v, Dv, D2v = v[-1], Dv[-1], D2v[-1]
    g2 = symfun.dot(Dv, Dv)
    g4 = np.float_power(g2, 2)
    lap = np.trace(D2v, axis1=-2, axis2=-1)
    vg, vg1, vg2 = (np.float_power(v, gamma - k) for k in range(3))
    s2_v = 2.0 * vg * symfun.sym_elementary(D2v, 2)
    quad = symfun.s2_quadratic_form(D2v, Dv)
    rA = np.abs(div_a - (s2_v + gamma * vg1 * quad))
    rhs_B = 1.5 * vg1 * g2 * lap + 0.5 * (gamma - 1) * vg2 * g4 - 0.5 * div_b
    rB = np.abs(vg1 * quad - rhs_B)
    rhs_C = div_F - 1.5 * gamma * vg1 * g2 * lap - 0.5 * gamma * (gamma - 1) * vg2 * g4
    rC = np.abs(s2_v - rhs_C)
    return rA, rB, rC


def check_identity_A(f: TestFunction, gamma, x, h):
    """Residual of: div(v^g S^2_ij v_i) = 2 v^g S_2(D2v) + g v^(g-1) S^2_ij v_i v_j."""
    return check_identities(f, gamma, x, h)[0]


def check_identity_B(f: TestFunction, gamma, x, h):
    """Residual of: v^(g-1) S^2_ij v_i v_j
    = 3/2 v^(g-1)|Dv|^2 Lap v + (g-1)/2 v^(g-2)|Dv|^4 - 1/2 div(v^(g-1)|Dv|^2 Dv)."""
    return check_identities(f, gamma, x, h)[1]


def check_identity_C(f: TestFunction, gamma, x, h):
    """Residual of the combined identity:
    2 v^g S_2(D2v) = div(g/2 v^(g-1)|Dv|^2 Dv + v^g S^2_ij v_i)
                     - 3/2 g v^(g-1)|Dv|^2 Lap v - g(g-1)/2 v^(g-2)|Dv|^4."""
    return check_identities(f, gamma, x, h)[2]


def median_order(residual: Callable, x, *per_case, fault: float = 0.0) -> list[float | None]:
    """Per row, the median of log2(r(h) / r(h/2)) over the cases, as a
    function of the step h = default_step(x); central differences give ~2.

    The cases are the points x (C, n) with the arrays `per_case` (C, ...)
    that go with them.  `residual(x, *per_case, h)` gives, for a stack of
    cases at their steps h, the residual rows (C, R) and a cut per case
    (C,): a row whose residual is below its cut holds exactly there, to
    roundoff, and gives no order; None for a row where every case does.
    One call takes r(h) of every case, and one more r(h/2) of the cases
    with a row that is not exact.  `fault` is added to every residual, to
    exercise the failure paths."""
    x = np.asarray(x, dtype=float)
    h = default_step(x)
    r1, cut = residual(x, *per_case, h)
    r1 = r1 + fault
    inexact = ~(r1 < cut[:, None])
    orders: list[float | None] = [None] * r1.shape[1]
    again = inexact.any(axis=1)
    if again.any():
        r2 = residual(x[again], *(p[again] for p in per_case), h[again] / 2.0)[0] + fault
        r1, inexact = r1[again], inexact[again]
        for i in range(len(orders)):
            use = inexact[:, i] & (r2[:, i] > 0)
            if use.any():
                orders[i] = _median(np.log2(r1[use, i] / r2[use, i]))
    return orders


def _median(a: np.ndarray) -> float:
    """The median, with the bits of np.median, which imports numpy.ma on
    its first call (1.5 MB of resident memory)."""
    a = np.sort(a)
    m = len(a) // 2
    return float(a[m] if len(a) % 2 else (a[m - 1] + a[m]) / 2.0)


# ---------------------------------------------------------------------------
# level-set identities (closed form, no FD)


def check_level_set_identity(f: TestFunction, x):
    """Residuals of the two level-set identities at x (..., n), everything
    closed form.

    With H the mean curvature of the level set through x computed as
    div(Dv/|Dv|)/(n-1):
      (i)  |Dv|^2 Lap v = (n-1) H |Dv|^3 + v_i v_ij v_j
      (ii) S^2_ij v_i v_j = (n-1) H |Dv|^3
    """
    x = np.asarray(x, dtype=float)
    Dv = np.asarray(f.gradient(x), dtype=float)
    g = np.sqrt(symfun.dot(Dv, Dv))  # rounds as np.linalg.norm(Dv)
    if np.any(g == 0.0):
        raise ValueError(f"{f.name}: critical point, level set undefined at "
                         f"{x[g == 0.0][0].tolist()}")
    D2v = np.asarray(f.hessian(x), dtype=float)
    lap = np.trace(D2v, axis1=-2, axis2=-1)
    wHw = symfun.quadratic_form(D2v, Dv)
    n = f.n
    g2, g3 = np.float_power(g, 2), np.float_power(g, 3)
    # div(Dv/|Dv|) = (Lap v - w^T D2v w / |w|^2) / |w|
    H = (lap - wHw / g2) / g / (n - 1)
    res_pallino = np.abs(g2 * lap - ((n - 1) * H * g3 + wHw))
    res_pare = np.abs(symfun.s2_quadratic_form(D2v, Dv) - (n - 1) * H * g3)
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
        gammas = np.array([float(g) for g in gamma_roots(n)] + [0.0, 1.0, -2.0])
        for f in funcs:
            f.check_consistency(pts[0])
            # every point with every exponent; fractional ones need f > 0
            gam = gammas if f.positive else gammas[gammas == np.trunc(gammas)]
            cases = np.repeat(pts, len(gam), axis=0), np.tile(gam, len(pts))

            def identities(x, gamma, h, f=f):
                return (np.stack(check_identities(f, gamma, x, h), axis=-1),
                        1e-11 * np.maximum(1.0, np.abs(f.value(x))))

            def div_free(x, h, f=f):
                div, rounding = _div_free_s2(f, x, h)
                return np.max(np.abs(div), axis=-1, keepdims=True), rounding

            for label, med in zip(("identity_A", "identity_B", "identity_C"),
                                  median_order(identities, *cases, fault=fault)):
                order_row(n, f, label, med)
            order_row(n, f, "div_free_s2", median_order(div_free, pts, fault=fault)[0])
            # level-set identities, closed form, away from critical points
            Dv = np.asarray(f.gradient(pts), dtype=float)
            g = np.sqrt(symfun.dot(Dv, Dv))
            rp, rq = check_level_set_identity(f, pts[g >= 1e-8])
            scale = np.maximum(1.0, np.float_power(g[g >= 1e-8], 3))
            worst = max(np.max(rp / scale, initial=0.0), np.max(rq / scale, initial=0.0)) + fault
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
