"""Symmetric perturbed annular domains in geodesic polar coordinates.

A domain is the region between two star-shaped radial boundaries
rho_in(Theta) < rho_out(Theta) (the inner one optional), described by a
Fourier profile in the plane or by rotation-invariant polynomial
perturbations of the direction vector for n = 3.  Declared symmetry is
checked against the group generators on a dense angular sample at
construction time; integrals over the domain use tensor quadrature that
is spectrally accurate for these smooth boundaries (per-ray
Gauss-Legendre in r, trapezoid in the periodic angle, Gauss-Legendre in
the polar cosine for n = 3).

The moment and gradient integrals here are the test-function machinery
for the annulus-comparison bound, and each reads a QuadratureGrid alone
(the grid carries its domain).  Products g(r) * monomial(X) integrate to
zero under the matching symmetry, the gradient cross terms collapse to a
radial factor times X_i X_j, and the Rayleigh quotient of g_k, the
lowest mode-k Neumann eigenfunction of the volume-matched shell extended
beyond the shell by its outer value (``extend_gk``), never exceeds the
shell eigenvalue on a symmetric domain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property

import numpy as np
from scipy.linalg.lapack import dgtsv

from .slsolver import BoundaryCondition, SLEigenpair, read_wire
from .spaceform import (
    GeometryError,
    HEMISPHERE_RADIUS,
    SpaceForm,
    _as_form,
    _gl_rule,
    annulus_volume,
    match_outer_radius,
    sin_m,
)

__all__ = [
    "SymmetryOrder",
    "SymmetryError",
    "VolumeMismatchError",
    "FourierProfile",
    "SphereProfile",
    "RadialTestFunction",
    "DomainSpec",
    "QuadratureGrid",
    "volume",
    "integrate_moment",
    "grad_pair_integral",
    "extend_gk",
    "rayleigh_gk",
    "matched_annulus",
    "inner_infimum",
    "random_spec",
    "random_family",
    "spec_to_dict",
    "spec_from_dict",
]


class SymmetryError(ValueError):
    """Declared symmetry is violated, or an operation needs more of it."""


class VolumeMismatchError(ValueError):
    """The comparison annulus does not match the domain volume."""


class SymmetryOrder(str, Enum):
    NONE = "none"
    CENTRAL = "central"
    ORDER2 = "order2"
    ORDER4 = "order4"

    def __str__(self) -> str:
        return self.value


def fourier_order(symmetry: SymmetryOrder) -> int:
    """Angular frequency divisor imposed by the symmetry in the plane."""
    return {SymmetryOrder.NONE: 1, SymmetryOrder.CENTRAL: 2,
            SymmetryOrder.ORDER2: 2, SymmetryOrder.ORDER4: 4}[symmetry]


# ---------------------------------------------------------------------------
# Boundary profiles
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FourierProfile:
    """rho(theta) = base + sum_m [a_m cos(m theta) + b_m sin(m theta)]."""

    base: float
    harmonics: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "harmonics", tuple(
            (int(m), float(a), float(b)) for (m, a, b) in self.harmonics))
        if any(m < 1 for (m, _, _) in self.harmonics):
            raise ValueError("harmonic frequencies must be >= 1")

    def at_theta(self, theta):
        theta = np.asarray(theta, dtype=float)
        rho = np.full_like(theta, self.base)
        for m, a, b in self.harmonics:
            rho += a * np.cos(m * theta) + b * np.sin(m * theta)
        return rho

    def d_theta(self, theta):
        """rho'(theta), the derivative of ``at_theta``."""
        theta = np.asarray(theta, dtype=float)
        slope = np.zeros_like(theta)
        for m, a, b in self.harmonics:
            slope += m * (b * np.cos(m * theta) - a * np.sin(m * theta))
        return slope

    def evaluate(self, omega):
        return self.at_theta(np.arctan2(omega[1], omega[0]))


def _sphere_terms():
    return {
        # signed-permutation invariant (keeps quarter-turn symmetry)
        "quartic_axes": (lambda w: w[0]**4 + w[1]**4 + w[2]**4 - 0.6, 0.4),
        "sextic_prod": (lambda w: (w[0] * w[1] * w[2])**2 - 1.0 / 105.0, 1.0 / 27.0),
        # invariant under even sign flips only
        "axis2_1": (lambda w: w[0]**2 - 1.0 / 3.0, 2.0 / 3.0),
        "axis2_2": (lambda w: w[1]**2 - 1.0 / 3.0, 2.0 / 3.0),
        "axis2_3": (lambda w: w[2]**2 - 1.0 / 3.0, 2.0 / 3.0),
        "odd_prod": (lambda w: w[0] * w[1] * w[2], 0.1925),
        # even under the antipodal map only
        "cross_12": (lambda w: w[0] * w[1], 0.5),
        "cross_13": (lambda w: w[0] * w[2], 0.5),
        "cross_23": (lambda w: w[1] * w[2], 0.5),
        # no symmetry at all (negative controls)
        "dipole_1": (lambda w: w[0], 1.0),
        "dipole_2": (lambda w: w[1], 1.0),
        "dipole_3": (lambda w: w[2], 1.0),
    }


SPHERE_TERMS = _sphere_terms()


@dataclass(frozen=True)
class SphereProfile:
    """rho(omega) = base + sum_t c_t * B_t(omega) for named sphere polynomials.

    The registry holds zero-mean polynomial perturbations of the unit
    direction vector together with their sup norms (used to scale random
    amplitudes).
    """

    base: float
    terms: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple(
            (str(name), float(c)) for (name, c) in self.terms))
        for name, _ in self.terms:
            if name not in SPHERE_TERMS:
                raise ValueError(f"unknown sphere term {name!r}")

    def evaluate(self, omega):
        omega = np.asarray(omega, dtype=float)
        rho = np.full(omega.shape[1:], self.base)
        for name, c in self.terms:
            rho = rho + c * SPHERE_TERMS[name][0](omega)
        return rho


@dataclass(frozen=True)
class RadialTestFunction:
    """Radial profile g(r) with value and derivative queries."""

    value_fn: object = field(repr=False)
    derivative_fn: object = field(repr=False)

    def value(self, r):
        return np.asarray(self.value_fn(np.asarray(r, dtype=float)), dtype=float)

    def derivative(self, r):
        return np.asarray(self.derivative_fn(np.asarray(r, dtype=float)), dtype=float)

    @staticmethod
    def constant(c: float = 1.0) -> "RadialTestFunction":
        return RadialTestFunction(
            value_fn=lambda r: np.full_like(np.asarray(r, dtype=float), c),
            derivative_fn=lambda r: np.zeros_like(np.asarray(r, dtype=float)))


# ---------------------------------------------------------------------------
# Symmetry generators and validation samples
# ---------------------------------------------------------------------------

def _quarter_turn(n: int, i: int, j: int) -> np.ndarray:
    mat = np.eye(n)
    mat[i, i] = mat[j, j] = 0.0
    mat[i, j] = -1.0
    mat[j, i] = 1.0
    return mat


def _pair_flip(n: int, i: int, j: int) -> np.ndarray:
    mat = np.eye(n)
    mat[i, i] = mat[j, j] = -1.0
    return mat


def symmetry_generators(n: int, symmetry: SymmetryOrder) -> list[np.ndarray]:
    """Matrices on the normal-coordinate chart whose invariance defines the class."""
    if symmetry is SymmetryOrder.NONE:
        return []
    if symmetry is SymmetryOrder.CENTRAL:
        return [-np.eye(n)]
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    if symmetry is SymmetryOrder.ORDER2:
        return [_pair_flip(n, i, j) for i, j in pairs]
    return [_quarter_turn(n, i, j) for i, j in pairs]


def _unit_circle_sample(count: int) -> np.ndarray:
    theta = np.linspace(0.0, 2 * math.pi, count, endpoint=False)
    return np.vstack([np.cos(theta), np.sin(theta)])


def _fibonacci_sphere(count: int) -> np.ndarray:
    i = np.arange(count)
    z = 1.0 - 2.0 * (i + 0.5) / count
    radius = np.sqrt(1.0 - z * z)
    phi = math.pi * (3.0 - math.sqrt(5.0)) * i
    return np.vstack([z, radius * np.cos(phi), radius * np.sin(phi)])


# ---------------------------------------------------------------------------
# Domain specification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DomainSpec:
    """Star-shaped domain between rho_in and rho_out with declared symmetry.

    Validation at construction: finite, positive boundaries with rho_in
    strictly inside rho_out, the spherical hemisphere bound, and the
    declared symmetry to 1e-12 on a dense angular sample.
    """

    form: SpaceForm
    n: int
    symmetry_order: SymmetryOrder
    rho_out: object
    rho_in: object = None

    def __post_init__(self):
        object.__setattr__(self, "form", _as_form(self.form))
        object.__setattr__(self, "symmetry_order", SymmetryOrder(self.symmetry_order))
        if self.n not in (2, 3):
            raise ValueError("quadrature-backed domains support n in {2, 3}")
        _validate_spec(self)

    @property
    def has_hole(self) -> bool:
        return self.rho_in is not None

    @staticmethod
    def exact_annulus(form, n: int, r1: float, r2: float,
                      symmetry: SymmetryOrder = SymmetryOrder.ORDER4) -> "DomainSpec":
        """Round shell (or ball for r1 = 0); invariant under every rotation."""
        if n == 2:
            outer = FourierProfile(r2)
            inner = FourierProfile(r1) if r1 > 0 else None
        else:
            outer = SphereProfile(r2)
            inner = SphereProfile(r1) if r1 > 0 else None
        return DomainSpec(form, n, symmetry, outer, inner)


SYMMETRY_TOLERANCE = 1e-12


def _boundary_samples(profile, omega: np.ndarray, label: str) -> np.ndarray:
    """``profile`` on the sample ``omega``, refused unless finite and positive."""
    rho = profile.evaluate(omega)
    if not np.all(np.isfinite(rho)):
        raise ValueError(f"{label} boundary must be finite")
    if not np.all(rho > 0):
        raise ValueError(f"{label} boundary must be strictly positive")
    return rho


def _validate_spec(spec: DomainSpec) -> None:
    omega = _unit_circle_sample(4096) if spec.n == 2 else _fibonacci_sphere(8192)
    rho_out = _boundary_samples(spec.rho_out, omega, "outer")
    if spec.form is SpaceForm.SPHERICAL and np.max(rho_out) > HEMISPHERE_RADIUS + 1e-12:
        raise GeometryError(
            "domain leaves the closed hemisphere: sup rho_out = "
            f"{np.max(rho_out):.6g} > pi/2")
    if spec.rho_in is not None:
        rho_in = _boundary_samples(spec.rho_in, omega, "inner")
        if not np.all(rho_out - rho_in > 0):
            raise ValueError("inner boundary must stay strictly inside the outer one")
    scale = max(1.0, float(np.max(np.abs(rho_out))))
    for gen in symmetry_generators(spec.n, spec.symmetry_order):
        mapped = gen @ omega
        for profile in (spec.rho_out, spec.rho_in):
            if profile is None:
                continue
            err = float(np.max(np.abs(profile.evaluate(mapped) - profile.evaluate(omega))))
            if not err <= SYMMETRY_TOLERANCE * scale:  # a NaN err fails too
                raise SymmetryError(
                    f"declared {spec.symmetry_order} symmetry violated by {err:.3e} "
                    "on the angular sample")


def _fminbound(f, a: float, b: float, xatol: float) -> float:
    """Least value of f found on [a, b] by Brent's bounded minimisation.

    The steps, their floating-point order and the 500-evaluation cap are
    those of scipy's ``minimize_scalar(method="bounded")``, so the value
    is bitwise scipy's ``res.fun``.
    """
    sqrt_eps = math.sqrt(2.2e-16)
    golden_mean = 0.5 * (3.0 - math.sqrt(5.0))
    fulc = a + golden_mean * (b - a)
    nfc = xf = fulc
    rat = e = 0.0
    fx = f(xf)
    num = 1
    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = sqrt_eps * abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1
    while abs(xf - xm) > tol2 - 0.5 * (b - a) and num < 500:
        golden = True
        if abs(e) > tol1:  # try a parabola through the three best points
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r, e = e, rat
            if abs(p) < abs(0.5 * q * r) and q * (a - xf) < p < q * (b - xf):
                golden = False
                rat = p / q
                x = xf + rat
                if x - a < tol2 or b - x < tol2:
                    rat = tol1 if xm >= xf else -tol1
        if golden:
            e = a - xf if xf >= xm else b - xf
            rat = golden_mean * e
        step = max(abs(rat), tol1)
        x = xf - step if rat < 0 else xf + step
        fu = f(x)
        num += 1
        if fu <= fx:
            a, b = (xf, b) if x >= xf else (a, xf)
            fulc, ffulc, nfc, fnfc, xf, fx = nfc, fnfc, xf, fx, x, fu
        else:
            a, b = (x, b) if x < xf else (a, x)
            if fu <= fnfc or nfc == xf:
                fulc, ffulc, nfc, fnfc = nfc, fnfc, x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu
        xm = 0.5 * (a + b)
        tol1 = sqrt_eps * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
    return fx


def inner_infimum(spec: DomainSpec) -> float:
    """inf rho_in (0 without a hole), refined by local optimization.

    The dense-sample argmin is polished by Brent's bounded minimisation
    (n = 2; ``_fminbound``) or Nelder-Mead in the two angles (n = 3), so
    the value is accurate well beyond the sampling resolution.  The n = 2
    minimiser repeats scipy's step for step rather than calling it, which
    keeps ``scipy.optimize`` out of every planar run while the shell
    radius r1 stays bitwise scipy's.
    """
    profile = spec.rho_in
    if profile is None:
        return 0.0
    if spec.n == 2:
        theta = np.linspace(0.0, 2 * math.pi, 4096, endpoint=False)
        t0 = theta[int(np.argmin(profile.at_theta(theta)))]
        window = 2 * math.pi / 4096 * 4
        return float(_fminbound(lambda t: float(profile.at_theta(np.array([t]))[0]),
                                t0 - window, t0 + window, 1e-12))
    # imported here: sfs reads planar domains only, so no command loads it
    from scipy import optimize

    omega = _fibonacci_sphere(16384)
    best = omega[:, int(np.argmin(profile.evaluate(omega)))]
    phi2 = math.acos(np.clip(best[0], -1, 1))
    phi3 = math.atan2(best[2], best[1])

    def objective(angles):
        p2, p3 = angles
        w = np.array([[math.cos(p2)],
                      [math.sin(p2) * math.cos(p3)],
                      [math.sin(p2) * math.sin(p3)]])
        return float(profile.evaluate(w)[0])

    res = optimize.minimize(objective, [phi2, phi3], method="Nelder-Mead",
                            options={"xatol": 1e-10, "fatol": 1e-14})
    return float(res.fun)


# ---------------------------------------------------------------------------
# Quadrature
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QuadratureGrid:
    """Tensor quadrature over the domain with the metric volume factor baked in.

    ``weight`` integrates against sin_m^{n-1}(r) dr dsigma(Theta), so
    summing it yields the domain volume; ``radius`` and ``coords`` hold
    the geodesic radius and the chart coordinates X = r * omega of every
    node.
    """

    spec: DomainSpec
    weight: np.ndarray
    radius: np.ndarray
    coords: np.ndarray

    @staticmethod
    def for_spec(spec: DomainSpec, radial_points: int = 64,
                 angular_points: tuple | int | None = None) -> "QuadratureGrid":
        """Build the grid; angular defaults are 256 nodes (n=2) or 48x96 (n=3)."""
        if spec.n == 2:
            count = 256 if angular_points is None else int(
                angular_points if not isinstance(angular_points, tuple) else angular_points[0])
            if count % 4:
                raise ValueError("angular node count must be divisible by 4")
            omega = _unit_circle_sample(count)
            ang_w = np.full(count, 2 * math.pi / count)
        else:
            polar, azimuth = (48, 96) if angular_points is None else angular_points
            if azimuth % 4:
                raise ValueError("azimuthal node count must be divisible by 4")
            u, wu = _gl_rule(int(polar))
            phi3 = np.linspace(0.0, 2 * math.pi, int(azimuth), endpoint=False)
            su = np.sqrt(1.0 - u**2)
            omega = np.empty((3, polar * azimuth))
            omega[0] = np.repeat(u, azimuth)
            omega[1] = np.repeat(su, azimuth) * np.tile(np.cos(phi3), polar)
            omega[2] = np.repeat(su, azimuth) * np.tile(np.sin(phi3), polar)
            ang_w = np.repeat(wu, azimuth) * (2 * math.pi / azimuth)

        lo = (spec.rho_in.evaluate(omega) if spec.rho_in is not None
              else np.zeros(omega.shape[1]))
        hi = spec.rho_out.evaluate(omega)
        x, w = _gl_rule(int(radial_points))
        half = 0.5 * (hi - lo)
        r = lo[:, None] + half[:, None] * (x[None, :] + 1.0)
        wr = half[:, None] * w[None, :]
        metric = sin_m(spec.form, r) ** (spec.n - 1)
        weight = (ang_w[:, None] * wr * metric).ravel()
        radius = r.ravel()
        coords = omega[:, :, None] * r[None, :, :]
        return QuadratureGrid(spec=spec, weight=weight, radius=radius,
                              coords=coords.reshape(spec.n, radius.size))

    @cached_property
    def inner_infimum(self) -> float:
        """``inner_infimum(spec)`` of the grid's domain, computed once per grid."""
        return inner_infimum(self.spec)


def volume(grid: QuadratureGrid) -> float:
    """Domain volume: the metric weight integrated over the whole grid."""
    return float(np.sum(grid.weight))


def integrate_moment(grid: QuadratureGrid, g: RadialTestFunction,
                     powers, absolute: bool = False) -> float:
    """Integral of g(r) * prod_i X_i^{p_i} over the grid's domain.

    ``powers`` lists one exponent per coordinate.  With ``absolute`` the
    integrand is replaced by its absolute value, which is the natural
    scale against which the symmetric cases vanish.
    """
    n = grid.spec.n
    powers = tuple(int(p) for p in powers)
    if len(powers) != n or any(p < 0 for p in powers):
        raise ValueError(f"powers must be {n} nonnegative exponents")
    integrand = g.value(grid.radius)
    for axis, p in enumerate(powers):
        if p:
            col = grid.coords[axis]
            for _ in range(p):  # small integer powers: multiply, don't pow
                integrand = integrand * col
    if absolute:
        integrand = np.abs(integrand)
    return float(np.dot(grid.weight, integrand))


def grad_pair_integral(grid: QuadratureGrid, g: RadialTestFunction,
                       i: int, j: int, absolute: bool = False) -> float:
    """Integral of <grad(g X_i), grad(g X_j)> for distinct axes (1-based).

    The integrand collapses to
    [((r g' + g)^2 / r^2) - g^2 / sin_m(r)^2] X_i X_j,
    which this evaluates directly on the grid.
    """
    spec = grid.spec
    if not (1 <= i <= spec.n and 1 <= j <= spec.n) or i == j:
        raise ValueError("need distinct 1-based axes i, j")
    r = grid.radius
    gv = g.value(r)
    gd = g.derivative(r)
    factor = ((r * gd + gv) ** 2 / r**2
              - gv**2 / sin_m(spec.form, r) ** 2)
    integrand = factor * grid.coords[i - 1] * grid.coords[j - 1]
    if absolute:
        integrand = np.abs(integrand)
    return float(np.dot(grid.weight, integrand))


def matched_annulus(grid: QuadratureGrid) -> tuple[float, float]:
    """Comparison shell radii: r1 = inf rho_in (0 without a hole) and the
    outer radius that matches the volume of the grid's domain."""
    spec = grid.spec
    r1 = grid.inner_infimum
    r2 = match_outer_radius(spec.form, spec.n, r1, volume(grid))
    return r1, r2


def _uniform_piece(x: np.ndarray, r):
    """Index of the piece of the uniform knots x that holds r, the last
    knot and beyond in the last piece: ``searchsorted(x, r, side="right")
    - 1`` clipped to 0..x.size - 2, found by arithmetic.  Rounding puts
    floor((r - x[0]) / h) at most one piece off, so one step each way
    corrects it."""
    last = x.size - 2
    i = np.clip(np.floor((r - x[0]) * (last + 1) / (x[-1] - x[0])).astype(int), 0, last)
    i = i - (x[i] > r)
    i = i + (x[i + 1] <= r)
    return np.clip(i, 0, last)


def _cubic_spline(x: np.ndarray, y: np.ndarray, inner_clamped: bool):
    """Evaluator of the C2 cubic spline through (x, y), x uniform with at
    least four nodes: it returns the value and first derivative at r.

    The node slopes solve scipy ``CubicSpline``'s tridiagonal system, with
    slope zero at x[-1] and, at x[0], slope zero (``inner_clamped``) or
    not-a-knot; each piece is then the cubic Hermite polynomial of its two
    nodes, evaluated by Horner's rule on the piece ``_uniform_piece``
    finds for both.
    """
    dx = np.diff(x)
    slope = np.diff(y) / dx
    # row i couples s[i-1], s[i], s[i+1]: the first and last rows are the ends
    lower = np.append(dx[1:], 0.0)
    diag = np.concatenate(([1.0], 2 * (dx[:-1] + dx[1:]), [1.0]))
    upper = np.append(0.0, dx[:-1])
    rhs = np.concatenate(([0.0], 3 * (dx[1:] * slope[:-1] + dx[:-1] * slope[1:]), [0.0]))
    if not inner_clamped:
        d = x[2] - x[0]
        diag[0], upper[0] = dx[1], d
        rhs[0] = ((dx[0] + 2 * d) * dx[1] * slope[0] + dx[0] ** 2 * slope[1]) / d
    s, info = dgtsv(lower, diag, upper, rhs)[3:]
    if info != 0:
        raise ValueError(f"spline slope system is singular (info {info})")
    t = (s[:-1] + s[1:] - 2 * slope) / dx
    c3, c2, c1, c0 = t / dx, (slope - s[:-1]) / dx - t, s[:-1], y[:-1]

    def evaluate(r):
        i = _uniform_piece(x, r)
        h = r - x[i]
        return (((c3[i] * h + c2[i]) * h + c1[i]) * h + c0[i],
                (3 * c3[i] * h + 2 * c2[i]) * h + c1[i])

    return evaluate


def _extension(pair: SLEigenpair):
    """u_k and u_k' at radii r, as ``extend_gk`` defines them, from one
    spline evaluation."""
    problem = pair.problem
    if problem.bc is not BoundaryCondition.NEUMANN or pair.j != 1:
        raise ValueError("extension is defined for (k, 1) Neumann pairs")
    r1, r2 = problem.r1, problem.r2
    inner_clamped = problem.has_inner_boundary or problem.k >= 2
    evaluate = _cubic_spline(pair.grid, pair.values, inner_clamped)
    tail = float(pair.values[-1])

    def at(r):
        if np.any(r < r1 - 1e-12):
            raise GeometryError(f"query below the inner radius {r1}")
        value, derivative = evaluate(np.clip(r, r1, r2))
        inside = r <= r2
        return np.where(inside, value, tail), np.where(inside, derivative, 0.0)

    return at


def extend_gk(pair: SLEigenpair) -> RadialTestFunction:
    """The lowest Neumann eigenfunction u_k, continued by u_k(r2) beyond r2.

    Inside the shell [r1, r2] the samples of ``pair`` are interpolated by
    a cubic spline (``_cubic_spline``), clamped where the boundary
    derivative is known to vanish and not-a-knot at the pole of a ball's
    k = 1 mode; past r2 the value is the constant u_k(r2) and the
    derivative zero.  The spline is scipy ``CubicSpline``'s, written out
    with one tridiagonal solve so that ``scipy.interpolate`` stays out of
    every run.  Queries below r1 are outside the domain of definition and
    raise GeometryError.
    """
    at = _extension(pair)
    return RadialTestFunction(value_fn=lambda r: at(r)[0],
                              derivative_fn=lambda r: at(r)[1])


def rayleigh_gk(grid: QuadratureGrid, pair: SLEigenpair) -> float:
    """Rayleigh quotient of the constant-extended lowest mode-k eigenfunction.

    ``pair`` must be the (k, 1) Neumann eigenpair, k >= 1, of the
    comparison shell that matches the volume of the grid's domain, in the
    same form and dimension, with its inner ball inside the hole; all of
    these preconditions are enforced.  On the exact shell the quotient
    equals the eigenvalue; on symmetric perturbations it cannot exceed it.
    """
    spec = grid.spec
    problem = pair.problem
    if problem.k < 1 or pair.j != 1 or problem.bc is not BoundaryCondition.NEUMANN:
        raise ValueError("need the (k, 1) Neumann pair with k >= 1")
    if problem.form is not spec.form or problem.n != spec.n:
        raise ValueError("pair and domain live on different spaces")

    if spec.has_hole:
        inf_in = grid.inner_infimum
        if problem.r1 > inf_in + 1e-9:
            raise VolumeMismatchError(
                f"inner ball radius {problem.r1:.12g} pokes out of the hole "
                f"(inf rho_in = {inf_in:.12g})")
    elif problem.r1 > 1e-12:
        raise VolumeMismatchError("hole-free domain needs an r1 = 0 comparison ball")

    target = annulus_volume(spec.form, spec.n, problem.r1, problem.r2)
    vol = volume(grid)
    if abs(vol - target) > 1e-8 * target:
        raise VolumeMismatchError(
            f"domain volume {vol:.12g} vs shell volume {target:.12g} "
            "differ beyond 1e-8 relative")

    r = grid.radius
    gv, gd = _extension(pair)(r)
    coef = problem.angular_eigenvalue
    numerator = float(np.dot(grid.weight, gd**2 + coef / sin_m(spec.form, r) ** 2 * gv**2))
    denominator = float(np.dot(grid.weight, gv**2))
    return numerator / denominator


# ---------------------------------------------------------------------------
# Random families
# ---------------------------------------------------------------------------

def _random_fourier(rng: np.random.Generator, base: float, gap: float,
                    amplitude: float, step: int, asymmetric: bool) -> FourierProfile:
    total = amplitude * gap * rng.uniform(0.5, 1.0)
    multipliers = [1, 2] if rng.uniform() < 0.5 else [1]
    freqs = [step * m for m in multipliers]
    if asymmetric:
        freqs.append(1 if step > 1 else 3)
    raw = rng.uniform(-1.0, 1.0, size=(len(freqs), 2))
    norm = np.sum(np.hypot(raw[:, 0], raw[:, 1])) + 1e-300
    raw *= total / norm
    return FourierProfile(base, tuple((f, a, b) for f, (a, b) in zip(freqs, raw)))


_CLASS_TERMS = {
    SymmetryOrder.ORDER4: ["quartic_axes", "sextic_prod"],
    SymmetryOrder.ORDER2: ["axis2_1", "axis2_2", "axis2_3", "odd_prod"],
    SymmetryOrder.CENTRAL: ["axis2_1", "axis2_2", "axis2_3",
                            "cross_12", "cross_13", "cross_23"],
    SymmetryOrder.NONE: ["dipole_1", "dipole_2", "dipole_3"],
}


def _random_sphere_profile(rng: np.random.Generator, base: float, gap: float,
                           amplitude: float, symmetry: SymmetryOrder) -> SphereProfile:
    names = list(_CLASS_TERMS[symmetry])
    count = int(rng.integers(1, min(3, len(names)) + 1))
    picked = list(rng.choice(names, size=count, replace=False))
    total = amplitude * gap * rng.uniform(0.5, 1.0)
    raw = rng.uniform(-1.0, 1.0, size=count)
    norm = sum(abs(c) * SPHERE_TERMS[nm][1] for c, nm in zip(raw, picked)) + 1e-300
    raw *= total / norm
    return SphereProfile(base, tuple(zip(picked, raw)))


def random_spec(rng: np.random.Generator, form, n: int = 2,
                symmetry: SymmetryOrder = SymmetryOrder.ORDER4,
                amplitude: float = 0.08, with_hole: bool = True) -> DomainSpec:
    """One random domain of the requested symmetry class.

    Perturbation amplitudes are scaled to a fraction ``amplitude`` of
    the gap between the mean boundaries; spherical bases stay well
    inside the hemisphere.
    """
    form = _as_form(form)
    symmetry = SymmetryOrder(symmetry)
    hi = 1.2 if form is SpaceForm.SPHERICAL else 1.35
    base_out = rng.uniform(1.0, hi)
    base_in = base_out * rng.uniform(0.32, 0.5) if with_hole else 0.0
    gap = base_out - base_in
    if n == 2:
        step = fourier_order(symmetry)
        asym = symmetry is SymmetryOrder.NONE
        outer = _random_fourier(rng, base_out, gap, amplitude, step, asym)
        inner = _random_fourier(rng, base_in, gap, amplitude, step, asym) if with_hole else None
    else:
        outer = _random_sphere_profile(rng, base_out, gap, amplitude, symmetry)
        inner = _random_sphere_profile(rng, base_in, gap, amplitude, symmetry) if with_hole else None
    return DomainSpec(form, n, symmetry, outer, inner)


def random_family(seed: int, form, n: int = 2,
                  symmetry: SymmetryOrder = SymmetryOrder.ORDER4,
                  count: int = 5, amplitude: float = 0.08) -> list[DomainSpec]:
    """Seed-determined family; holes alternate (even indices have one)."""
    rng = np.random.default_rng(seed)
    return [random_spec(rng, form, n, symmetry, amplitude, with_hole=(idx % 2 == 0))
            for idx in range(count)]


# ---------------------------------------------------------------------------
# Wire formats (planar Fourier domains)
# ---------------------------------------------------------------------------

SCHEMA_VERSION = 1

# JSON kinds of the keys of a domain, of its profiles and of their harmonics
_SPEC_KINDS = {"schema_version": (int,), "form": (str,), "n": (int,),
               "symmetry_order": (str,), "rho_out": (dict,), "rho_in": (dict, type(None))}
_PROFILE_KINDS = {"base": (int, float), "harmonics": (list,)}
_HARMONIC_KINDS = {"m": (int,), "a": (int, float), "b": (int, float)}


def spec_to_dict(spec: DomainSpec) -> dict:
    if spec.n != 2 or not isinstance(spec.rho_out, FourierProfile):
        raise ValueError("the JSON schema covers planar Fourier domains only")

    def profile_dict(profile: FourierProfile) -> dict:
        return {"base": profile.base,
                "harmonics": [{"m": m, "a": a, "b": b} for m, a, b in profile.harmonics]}

    return {
        "schema_version": SCHEMA_VERSION,
        "form": str(spec.form),
        "n": spec.n,
        "symmetry_order": str(spec.symmetry_order),
        "rho_out": profile_dict(spec.rho_out),
        "rho_in": profile_dict(spec.rho_in) if spec.rho_in is not None else None,
    }


def spec_from_dict(data) -> DomainSpec:
    """Planar Fourier domain from the wire dict, read by ``read_wire``.

    ``schema_version`` (1), ``n`` (2), ``rho_in``, ``harmonics``, ``a``
    and ``b`` may be absent.  Harmonics whose frequency is not a multiple
    of the declared symmetry order are rejected outright; the rest goes
    through the same validation as programmatic construction.
    """
    read_wire(data, _SPEC_KINDS, "spec", ("schema_version", "n", "rho_in"))
    for key, value in (("schema_version", SCHEMA_VERSION), ("n", 2)):
        if data.get(key, value) != value:
            raise ValueError(f"spec key {key}={data[key]!r} must be {value}")
    symmetry = SymmetryOrder(data["symmetry_order"])
    step = fourier_order(symmetry)

    def parse_profile(blob, label) -> FourierProfile:
        read_wire(blob, _PROFILE_KINDS, label, ("harmonics",))
        harmonics = []
        for h in blob.get("harmonics", []):
            read_wire(h, _HARMONIC_KINDS, f"{label} harmonic", ("a", "b"))
            m = h["m"]
            if m % step:
                raise ValueError(
                    f"{label} harmonic m={m} incompatible with {symmetry} symmetry "
                    f"(frequencies must be multiples of {step})")
            harmonics.append((m, float(h.get("a", 0.0)), float(h.get("b", 0.0))))
        return FourierProfile(float(blob["base"]), tuple(harmonics))

    rho_out = parse_profile(data["rho_out"], "rho_out")
    rho_in = None if data.get("rho_in") is None else parse_profile(data["rho_in"], "rho_in")
    return DomainSpec(data["form"], 2, symmetry, rho_out, rho_in)
