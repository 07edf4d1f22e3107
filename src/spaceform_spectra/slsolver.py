"""Radial Sturm-Liouville eigenproblems on geodesic annuli and balls.

Separating variables on a shell reduces the Laplacian, for each angular
mode ``k``, to the radial problem

    -u'' - (n-1) (sin_m'/sin_m) u' + k(k+n-2) / sin_m^2 u = mu u

on [r1, r2] with Neumann (u' = 0) or Dirichlet (u = 0) conditions at the
endpoints.  In divergence form this is -(w u')' + V w u = mu w u with
weight w = sin_m^{n-1} and potential V = k(k+n-2)/sin_m^2.

Discretization is a flux-form central difference on a uniform grid:
half-node weights carry the fluxes, the mass is the trapezoid rule, and
the resulting symmetric tridiagonal pencil is reduced to standard form
by the diagonal mass, a Jacobi matrix (negative off-diagonals).  Each
pair starts from a small Legendre-Galerkin solve (one dense LAPACK sygvd
of degree 24, or 3 per pair), which also gives a probe pair past the
requested ones; its eigenfunctions, sampled on grid N, are refined by
fixed-shift inverse iteration (LAPACK gtsv; Parlett, The Symmetric
Eigenvalue Problem, 1980, ch. 4) shifted by their Galerkin values, and
for Richardson climb on to 2N, interpolated linearly and shifted by
their grid-N values.  A grid N with fewer than 32 cells per start pair
is too coarse for that start and is bisected instead (Sturm sequences,
LAPACK stebz, with eigenvectors from stein).  Each step's solve also
gives the Rayleigh quotient of its vector and the residual: on grid N
under Richardson a pair stops once the Kato-Temple bound puts its value
at rounding, and on the finest grid, whose vectors are published, once
the Davis-Kahan bound puts its vector within 1e-10 of the eigenvector.
The j-th eigenvector of a Jacobi matrix has exactly j - 1 sign changes
(Gantmacher and Krein, Oscillation Matrices and Kernels, 1950), so that
count certifies each climbed index; a grid whose count fails is bisected
instead.  Every value is the Rayleigh quotient of its vector, summed in
flux form, so the Galerkin values only start the climb.  Optional
Richardson extrapolation across grids N and 2N removes the leading
O(h^2) error term.

At r1 = 0 there is no inner boundary: mode k = 0 gets a natural zero-flux
condition with an exact control-volume mass for the origin cell, while
k >= 1 pins u(0) = 0 (the indicial exponent at the regular singular
point is k, so the bounded solution vanishes).
"""

from __future__ import annotations

import warnings
from dataclasses import asdict, dataclass, fields
from enum import Enum
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import legder, legvander
from scipy.linalg import LinAlgError, eigh_tridiagonal
from scipy.linalg.lapack import dgtsv, dsygvd

from .spaceform import GeometryError, HEMISPHERE_RADIUS, SpaceForm, _as_form, _gl_rule, sin_m

__all__ = [
    "BoundaryCondition",
    "SLProblem",
    "SolverConfig",
    "SLEigenpair",
    "TridiagonalSystem",
    "ConvergenceError",
    "NoRootError",
    "NearDegeneracyWarning",
    "discretize",
    "solve",
    "locate_b",
    "read_wire",
    "problem_from_dict",
    "problem_to_dict",
    "pairs_to_dicts",
]


class ConvergenceError(RuntimeError):
    """Eigenvalue extraction failed; the message carries the diagnostics."""


class NoRootError(RuntimeError):
    """The eigenvalue could not be inverted through the radial profile."""


class NearDegeneracyWarning(UserWarning):
    """Adjacent radial eigenvalues closer than the trust threshold."""


DEGENERACY_GAP = 1e-9   # eigenvalue gap that trips NearDegeneracyWarning
_EPS = float(np.finfo(float).eps)


class BoundaryCondition(str, Enum):
    NEUMANN = "neumann"
    DIRICHLET = "dirichlet"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class SLProblem:
    """One radial eigenproblem: form, dimension, mode index, radii, BC kind."""

    form: SpaceForm
    n: int
    k: int
    r1: float
    r2: float
    bc: BoundaryCondition = BoundaryCondition.NEUMANN

    def __post_init__(self):
        object.__setattr__(self, "form", _as_form(self.form))
        object.__setattr__(self, "bc", BoundaryCondition(str(self.bc).lower()))
        if self.n < 2:
            raise ValueError("dimension n must be >= 2")
        if self.k < 0:
            raise ValueError("mode index k must be >= 0")
        if not np.isfinite([self.r1, self.r2]).all():
            raise ValueError(f"radii r1 and r2 must be finite, got [{self.r1}, {self.r2}]")
        if self.r1 < 0 or not self.r2 > self.r1:
            raise ValueError(f"need 0 <= r1 < r2, got [{self.r1}, {self.r2}]")
        if self.form is SpaceForm.SPHERICAL and self.r2 > HEMISPHERE_RADIUS + 1e-12:
            raise GeometryError("spherical problems require r2 <= pi/2")

    @property
    def angular_eigenvalue(self) -> float:
        """k(k+n-2), the eigenvalue of the round Laplacian driving the potential."""
        return float(self.k * (self.k + self.n - 2))

    @property
    def has_inner_boundary(self) -> bool:
        return self.r1 > 0.0


@dataclass(frozen=True)
class SolverConfig:
    """Grid size, Richardson switch and pair count of a radial solve.

    These defaults are the pipeline's only radial settings.  There is no
    tolerance: inverse iteration on grid N stops once its value is at
    rounding and on the finest grid once its vector is within 1e-10
    (``_inverse_iteration``), bisection runs at LAPACK's own (about
    eps * ||T||), and the accuracy of the published values comes from the
    Rayleigh refinement.  ``grid_points`` also picks the start: at least
    32 cells per start pair (``max_j + 1``) start from Galerkin pairs,
    fewer bisect grid N.
    """

    grid_points: int = 2048
    richardson: bool = True
    max_j: int = 1

    def __post_init__(self):
        if self.grid_points < 64:
            raise ValueError("grid_points must be >= 64")
        if self.max_j < 1:
            raise ValueError("max_j must be >= 1")


@dataclass(frozen=True)
class TridiagonalSystem:
    """Discrete pencil K u = mu M u on the active nodes of a uniform grid."""

    problem: SLProblem
    grid: np.ndarray          # all N+1 nodes including eliminated ones
    h: float
    diag: np.ndarray          # stiffness diagonal on active nodes
    offdiag: np.ndarray       # stiffness off-diagonal
    mass: np.ndarray          # diagonal mass on active nodes
    active_start: int
    active_stop: int          # exclusive

    def embed(self, u_active: np.ndarray) -> np.ndarray:
        """Pad active-node vectors (or columns) with the eliminated boundary zeros."""
        full = np.zeros((self.grid.size, *u_active.shape[1:]))
        full[self.active_start:self.active_stop] = u_active
        return full


def _origin_cell_mass(form: SpaceForm, n: int, h: float) -> float:
    # exact integral of sin_m^{n-1} over the half cell [0, h/2]
    x, w = _gl_rule(8)
    half = 0.25 * h
    nodes = half * (x + 1.0)
    return half * float(np.dot(w, sin_m(form, nodes) ** (n - 1)))


def discretize(problem: SLProblem, cells: int) -> TridiagonalSystem:
    """Flux-form finite-difference pencil for the radial problem.

    The grid has ``cells`` uniform cells and one node more.  Neumann
    conditions are natural (the boundary half-cells simply lose their
    outer flux); Dirichlet conditions eliminate the boundary node.
    """
    N = int(cells)
    if N < 8:
        raise ValueError("grid too coarse")
    r1, r2, n, form = problem.r1, problem.r2, problem.n, problem.form
    h = (r2 - r1) / N
    grid = r1 + h * np.arange(N + 1)
    w_half = sin_m(form, grid[:-1] + 0.5 * h) ** (n - 1)
    sm = sin_m(form, grid)
    w_node = sm ** (n - 1)

    mass = h * w_node
    mass[0] *= 0.5
    mass[-1] *= 0.5

    coef = problem.angular_eigenvalue
    potential = np.zeros(N + 1)
    if coef != 0.0:
        potential[1:] = coef / sm[1:] ** 2
        potential[0] = coef / sm[0] ** 2 if r1 > 0 else 0.0  # node dropped below

    diag = np.zeros(N + 1)
    diag[:-1] += w_half / h
    diag[1:] += w_half / h
    offdiag = -w_half / h

    inner_fixed = False
    if r1 == 0.0:
        if problem.k >= 1:
            inner_fixed = True            # u(0) = 0 from the indicial root
        else:
            mass[0] = _origin_cell_mass(form, n, h)
    elif problem.bc is BoundaryCondition.DIRICHLET:
        inner_fixed = True
    outer_fixed = problem.bc is BoundaryCondition.DIRICHLET

    diag = diag + potential * mass

    start = 1 if inner_fixed else 0
    stop = N if outer_fixed else N + 1
    if stop - start < 4:
        raise ValueError("too few active nodes after boundary elimination")
    return TridiagonalSystem(
        problem=problem,
        grid=grid,
        h=h,
        diag=diag[start:stop],
        offdiag=offdiag[start:stop - 1],
        mass=mass[start:stop],
        active_start=start,
        active_stop=stop,
    )


def _pencil_rayleigh(system: TridiagonalSystem, u: np.ndarray) -> np.ndarray:
    """(u^T K u)/(u^T M u) columnwise for mass-space vectors u.

    u^T K u is summed in flux form, sum(-offdiag * (u_{i+1} - u_i)^2) plus
    sum(row_sum * u_i^2), whose terms are nonnegative (the row sums are the
    potential and eliminated-boundary terms).  The expanded form
    diag * u^2 + 2 offdiag * u_i u_{i+1} cancels terms of size 1/h^2 and
    leaves rounding noise near 1e-10 in the lowest eigenvalues.
    """
    row_sum = system.diag.copy()
    row_sum[:-1] += system.offdiag
    row_sum[1:] += system.offdiag
    du = np.diff(u, axis=0)
    energy = (np.einsum("i,ij->j", -system.offdiag, du * du)
              + np.einsum("i,ij->j", row_sum, u * u))
    return energy / np.einsum("i,ij->j", system.mass, u * u)


def _standard_form(system: TridiagonalSystem):
    """Diagonal and off-diagonal of the mass-scaled pencil, and the scale.

    With u = scale * y and scale = M^{-1/2}, the pencil K u = mu M u becomes
    the Jacobi matrix scale K scale y = mu y, whose off-diagonals are
    negative.
    """
    scale = 1.0 / np.sqrt(system.mass)
    d = system.diag * scale**2
    e = system.offdiag * scale[:-1] * scale[1:]
    return d, e, scale


def _eigen_tridiagonal(system: TridiagonalSystem, count: int):
    """Lowest ``count`` eigenpairs of the pencil via Sturm bisection.

    ``solve`` bisects only a grid N too coarse for its Galerkin start
    pairs, and a grid whose climbed vectors fail the oscillation count.
    ``stebz`` pins the indices at LAPACK's own tolerance, about
    eps * |Gershgorin bound|, which is too coarse for the smallest modes
    on fine grids; the returned values are therefore refined to the
    Rayleigh quotient of the ``stein`` inverse-iteration eigenvector,
    which is variationally accurate to second order in the vector error.
    ``count`` is at most the grid's active nodes: ``solve`` checks that of
    every grid up front.
    """
    d, e, scale = _standard_form(system)
    try:
        vals, vecs = eigh_tridiagonal(
            d, e, select="i", select_range=(0, count - 1), lapack_driver="stebz")
    except LinAlgError as exc:  # pragma: no cover - LAPACK failure is exotic
        raise ConvergenceError(
            f"tridiagonal eigensolve failed: grid={system.grid.size - 1} "
            f"mode k={system.problem.k} bc={system.problem.bc}: {exc}") from exc
    u = vecs * scale[:, None]
    refined = _pencil_rayleigh(system, u)
    # keep the bisection ordering; the refinement is a tiny correction
    if np.any(np.diff(refined) < 0):  # pragma: no cover - would signal a defect
        raise ConvergenceError("Rayleigh refinement broke the eigenvalue ordering")
    return refined, u


def _sign_changes(v: np.ndarray) -> int:
    """Strict sign changes of the samples above 1e-9 of the largest one."""
    inner = v[np.abs(v) > 1e-9 * np.max(np.abs(v))]
    signs = np.sign(inner)
    return int(np.sum(signs[1:] * signs[:-1] < 0))


def _rayleigh_residual(shift: float, y: np.ndarray, z: np.ndarray,
                       norm: float) -> tuple[float, float]:
    """Rayleigh quotient rho of z and |A z - rho z|, for z = x / |x|,
    norm = |x| and x = (A - shift)^-1 y, without a product by A.

    (A - shift) z = y / |x|, so with c = z.y the quotient is
    rho = shift + c / |x| and the residual A z - rho z = (y - c z) / |x|.
    """
    c = float(z @ y)
    return shift + c / norm, float(np.linalg.norm(y - c * z)) / norm


def _inverse_iteration(d: np.ndarray, e: np.ndarray, shift: float,
                       y: np.ndarray, steps: int, delta: float,
                       vector: bool = False) -> np.ndarray:
    """At most ``steps`` fixed-shift inverse-iteration steps from y on the
    Jacobi matrix A = (d, e) shifted by ``shift``, each solved by LAPACK
    ``gtsv``.

    ``delta`` bounds the gap between the wanted eigenvalue and the rest
    of the spectrum from below.  The loop stops after the first step
    whose Rayleigh quotient rho and residual r (``_rayleigh_residual``)
    certify the result:
      * by default its value: the Kato-Temple bound r^2 / delta on the
        error of rho is at rounding, r^2 / delta <= eps (|rho| + delta);
      * with ``vector``, the vector itself: the Davis-Kahan bound r / delta
        on the sine of its angle to the eigenvector is at most 1e-10.
    An exactly zero pivot means the shift is an eigenvalue to working
    precision, so the current vector is kept.
    """
    shifted = d - shift
    for _ in range(steps):
        _, _, _, x, info = dgtsv(e, shifted, e, y[:, None])
        if info > 0:
            break
        norm = float(np.linalg.norm(x))
        z = x[:, 0] / norm
        rho, r = _rayleigh_residual(shift, y, z, norm)
        if (r <= 1e-10 * delta if vector
                else r * r <= _EPS * delta * (abs(rho) + delta)):
            return z
        y = z
    return y


def _climb(system: TridiagonalSystem, values: np.ndarray, starts: np.ndarray,
           steps: int, deltas: np.ndarray, vector: bool):
    """Eigenpairs of ``system`` from start values and start vectors (the
    columns of ``starts``, on its active nodes).

    Each start vector takes at most ``steps`` inverse-iteration steps
    shifted by its start value, stopping early once its Rayleigh quotient
    (or, with ``vector``, the vector itself) is certified against the gap
    in ``deltas`` (``_inverse_iteration``).  The j-th eigenvector of a
    Jacobi matrix with negative off-diagonals has exactly j - 1 sign
    changes (discrete Sturm oscillation), so that count certifies every
    index; if one fails, ``system`` is bisected instead.
    """
    d, e, scale = _standard_form(system)
    # one row per vector: the loop touches grid-sized arrays only
    rows = np.empty((values.size, d.size))
    for j, row in enumerate(rows):
        row[:] = _inverse_iteration(d, e, values[j], starts[:, j] / scale, steps,
                                    deltas[j], vector) * scale
        if _sign_changes(row) != j:
            return _eigen_tridiagonal(system, values.size)
    return _pencil_rayleigh(system, rows.T), rows.T


def _midpoints(coarse: TridiagonalSystem, u: np.ndarray,
               fine: TridiagonalSystem) -> np.ndarray:
    """Columns u on the active nodes of ``coarse``, interpolated linearly
    onto the active nodes of ``fine``, the grid of twice its cells: the
    coarse nodes are copied and each new node is the mean of its two."""
    full = coarse.embed(u)
    refined = np.empty((fine.grid.size, u.shape[1]))
    refined[::2] = full
    refined[1::2] = 0.5 * (full[:-1] + full[1:])
    return refined[fine.active_start:fine.active_stop]


_SPECTRAL_DEGREE = 24   # least Legendre degree of the start pairs; 3 per pair above 8


@lru_cache(maxsize=8)
def _legendre_tables(degree: int, cells: int):
    """P_0..P_degree and their derivatives at the degree + 8 Gauss-Legendre
    nodes, and P_0..P_degree at the cells + 1 nodes of a uniform grid, all
    on [-1, 1], with the two sets of nodes."""
    x, weights = _gl_rule(degree + 8)
    gauss = legvander(x, degree)
    slopes = gauss[:, :degree] @ legder(np.eye(degree + 1))
    nodes = np.linspace(-1.0, 1.0, cells + 1)
    tables = (gauss, slopes, nodes, legvander(nodes, degree))
    for table in tables:   # shared by every caller
        table.setflags(write=False)
    return (x, weights, *tables)


def _spectral_pairs(system: TridiagonalSystem, count: int):
    """Lowest ``count`` eigenvalues of a Legendre-Galerkin discretization
    of ``system.problem``, with the eigenfunctions sampled at the active
    nodes of ``system``.

    The basis is P_0..P_D on [r1, r2], D = max(24, 3 count), times (1 + x)
    where ``system`` eliminates the inner node and (1 - x) where it
    eliminates the outer one.  K = int w u'v' + w V u v and M = int w u v
    are summed by the (D + 8)-point Gauss-Legendre rule.  K grows like
    D^4, so the one dense solve (LAPACK sygvd) is shift-inverted,
    M c = theta (K + M) c with mu = 1/theta - 1, which keeps the low
    values to rounding (Shen, SIAM J. Sci. Comput. 15, 1994).
    """
    problem = system.problem
    cells = system.grid.size - 1
    degree = max(_SPECTRAL_DEGREE, 3 * count)
    x, weights, gauss, slopes, nodes, table = _legendre_tables(degree, cells)
    inner, outer = system.active_start, cells + 1 - system.active_stop

    def factor(t):
        return (1.0 + t) ** inner * (1.0 - t) ** outer

    half = 0.5 * (problem.r2 - problem.r1)
    sm = sin_m(problem.form, problem.r1 + half * (x + 1.0))
    measure = weights * half * sm ** (problem.n - 1)      # w dr at the Gauss nodes
    f = factor(x)
    df = inner * (1.0 - x) ** outer - outer * (1.0 + x) ** inner
    basis = f[:, None] * gauss
    derivative = (df[:, None] * gauss + f[:, None] * slopes) / half   # d/dr
    mass = (basis.T * measure) @ basis
    stiffness = ((derivative.T * measure) @ derivative
                 + (basis.T * (measure * problem.angular_eigenvalue / sm**2)) @ basis)
    theta, coef, info = dsygvd(mass, stiffness + mass)
    if info:  # pragma: no cover - K + M is positive definite
        raise ConvergenceError(f"Galerkin eigensolve failed: sygvd info={info}")
    # the largest theta are the lowest mu
    theta, coef = theta[::-1][:count], coef[:, ::-1][:, :count]
    active = slice(system.active_start, system.active_stop)
    return 1.0 / theta - 1.0, factor(nodes[active])[:, None] * (table[active] @ coef)


@dataclass(frozen=True)
class SLEigenpair:
    """One computed radial eigenpair.

    ``eigenvalue`` is the published value (Richardson-extrapolated when
    enabled); ``eigenvalue_grid`` is the raw discrete eigenvalue on the
    stored grid, which is what the discrete Rayleigh quotient reproduces.
    ``values`` carries u on the full grid, normalized so that
    trapezoid(u^2 sin_m^{n-1}) = 1 and the outermost nonzero sample is
    positive.  All pairs of one ``solve`` share one read-only ``grid``.
    """

    problem: SLProblem
    j: int
    eigenvalue: float
    eigenvalue_grid: float
    grid: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        self.grid.setflags(write=False)
        self.values.setflags(write=False)

    def sign_changes(self) -> int:
        """Strict interior sign changes of the eigenfunction samples."""
        return _sign_changes(self.values)


def _finalize_vector(system: TridiagonalSystem, u_active: np.ndarray) -> np.ndarray:
    full = system.embed(u_active)
    mass_full = np.zeros_like(full)
    mass_full[system.active_start:system.active_stop] = system.mass
    norm2 = float(np.dot(mass_full, full**2))
    full = full / np.sqrt(norm2)
    nz = np.nonzero(np.abs(full) > 1e-8 * np.max(np.abs(full)))[0]
    if nz.size and full[nz[-1]] < 0:
        full = -full
    return full


def solve(problem: SLProblem, config: SolverConfig | None = None) -> list[SLEigenpair]:
    """First ``config.max_j`` eigenpairs of the radial problem, in order.

    The start pairs, ``max_j`` of them and a probe, pair ``max_j + 1``,
    come from ``_spectral_pairs`` (Legendre-Galerkin) when N >= 32 *
    probe, the resolution a grid needs for them; the requested pairs then
    climb on grid N and, with ``config.richardson``, on to 2N (``_climb``:
    inverse iteration from the Galerkin samples on N and from the
    interpolated grid-N vectors on 2N, each index certified by its
    sign-change count, the grid bisected if one fails).  A coarser grid N
    is bisected (``_eigen_tridiagonal``) for the pairs and the probe, and
    only 2N is climbed.  Each pair's gap delta is half the distance from
    its start value to the nearest start value, the probe's for the last
    pair.  On grid N under Richardson a pair stops once its step's own
    residual r certifies its value to rounding (Kato-Temple), after at
    most 3 steps.  The finest grid's vectors are published, so there a
    pair stops once r <= 1e-10 delta certifies the vector (Davis-Kahan),
    after at most 2 steps on 2N or 3 on N without Richardson.  Each
    grid's values are the Rayleigh quotients of its vectors.  With
    Richardson the values from grids N and 2N are combined as
    (4 mu_2N - mu_N)/3, so ``eigenvalue - eigenvalue_grid`` is the
    Richardson correction (mu_2N - mu_N)/3, and the eigenvectors are
    reported on the finer grid.  A gap below ``DEGENERACY_GAP`` between
    adjacent finest-grid values, or between the start values of the last
    pair and the probe, trips a NearDegeneracyWarning, because the continuum
    eigenvalues are simple and a near-tie indicates discretization
    trouble.  The first j pairs agree, to rounding, whatever
    ``max_j >= j`` was requested.  Grid N must hold ``max_j`` pairs and
    the finest grid one more; asking for more pairs than a grid has
    active nodes is a ValueError.
    """
    config = config or SolverConfig()
    want = config.max_j
    probe = want + 1  # one more start pair for the simplicity gap check
    N = config.grid_points
    ladder = [(N, want), (2 * N, probe)] if config.richardson else [(N, probe)]
    systems = [discretize(problem, cells) for cells, _ in ladder]
    for system, (_, need) in zip(systems, ladder):
        if need > system.diag.size:
            raise ValueError(f"{need} eigenpairs asked of {system.diag.size} active nodes")

    first = systems[0]
    if N >= 32 * probe:
        # Galerkin start pairs, sampled on grid N: every grid is climbed
        vals, vecs = _spectral_pairs(first, probe)
        grid_vals, rungs = [], systems
    else:
        # grid N is too coarse for them: it is bisected, the probe with it
        # when the grid holds one
        vals, vecs = _eigen_tridiagonal(first, min(probe, first.diag.size))
        grid_vals, rungs = [vals], systems[1:]
    gaps = np.diff(vals)
    probe_gaps = gaps[want - 1:]
    # half the distance from each wanted pair to its nearest neighbour
    deltas = 0.5 * np.minimum(np.append(np.inf, gaps), np.append(gaps, np.inf))[:want]
    for system in rungs:
        starts = vecs[:, :want] if system is first else _midpoints(first, vecs[:, :want], system)
        # the finest grid's vectors are published: they stop once certified
        vals, vecs = _climb(system, vals[:want], starts, 3 if system is first else 2,
                            deltas, vector=system is systems[-1])
        grid_vals.append(vals)

    fine, vals_fine, vecs_fine = systems[-1], vals, vecs
    published = vals_fine[:want].copy()
    if config.richardson:
        published += (published - grid_vals[0][:want]) / 3.0

    gaps = np.append(np.diff(vals_fine[:want]), probe_gaps)
    if np.any(gaps <= DEGENERACY_GAP):
        j_bad = int(np.argmin(gaps)) + 1
        warnings.warn(
            f"eigenvalue gap {gaps.min():.3e} below trust threshold near j={j_bad} "
            f"(k={problem.k}, bc={problem.bc}, grid={fine.grid.size - 1})",
            NearDegeneracyWarning)

    grid = fine.grid.copy()   # one read-only copy for every pair
    return [SLEigenpair(
        problem=problem,
        j=j,
        eigenvalue=float(published[j - 1]),
        eigenvalue_grid=float(vals_fine[j - 1]),
        grid=grid,
        values=_finalize_vector(fine, vecs_fine[:, j - 1]),
    ) for j in range(1, want + 1)]


def locate_b(pair: SLEigenpair) -> float:
    """Radius b in (r1, r2) where the potential equals the first eigenvalue.

    For the lowest Neumann eigenpair of a mode k >= 1 on an annulus the
    flux (sin_m^{n-1} u')' changes sign exactly once, which forces
    mu = k(k+n-2)/sin_m(b)^2 at an interior radius b; this inverts the
    relation in closed form for ``pair.problem`` and checks the residual.
    """
    problem = pair.problem
    if problem.k < 1 or pair.j != 1:
        raise ValueError("b-location applies to the (k, 1) pair with k >= 1")
    if problem.bc is not BoundaryCondition.NEUMANN:
        raise ValueError("b-location applies to Neumann pairs")
    if not problem.has_inner_boundary:
        raise ValueError("b-location requires r1 > 0")
    mu = pair.eigenvalue
    coef = problem.angular_eigenvalue
    s2 = coef / mu
    form = problem.form
    if form is SpaceForm.SPHERICAL:
        if s2 > 1.0:
            raise NoRootError(f"sin^2(b) = {s2:.6g} > 1: eigenvalue too small")
        b = float(np.arcsin(np.sqrt(s2)))
    elif form is SpaceForm.HYPERBOLIC:
        b = float(np.arcsinh(np.sqrt(s2)))
    else:
        b = float(np.sqrt(s2))
    if not (problem.r1 < b < problem.r2):
        raise NoRootError(
            f"b={b:.12g} escaped ({problem.r1}, {problem.r2}); "
            f"mu={mu:.12g} is inconsistent with the interior characterization")
    resid = abs(mu - coef / sin_m(form, b) ** 2)
    if resid > 1e-9 * mu:
        raise NoRootError(f"residual {resid:.3e} exceeds 1e-9 * mu")  # pragma: no cover
    return b


# ---------------------------------------------------------------------------
# Wire formats
# ---------------------------------------------------------------------------

# JSON kinds of every problem key, and the keys that may be absent
_PROBLEM_KINDS = {"form": (str,), "n": (int,), "k": (int,), "r1": (int, float),
               "r2": (int, float), "bc": (str,), "grid_points": (int,),
               "max_j": (int,), "richardson": (bool,)}
_PROBLEM_OPTIONAL = ("bc", *(f.name for f in fields(SolverConfig)))
_JSON_KINDS = {dict: "object", list: "array", type(None): "null"}


def read_wire(data, kinds: dict, what: str, optional=()) -> dict:
    """``data``, refused with a ``ValueError`` naming ``what`` and the key
    unless it is a JSON object whose every key is in ``kinds``, every key
    not in ``optional`` is present, and every value's exact type (a JSON
    boolean is no integer or number) is among its key's ``kinds``."""
    if type(data) is not dict:
        raise ValueError(f"{what} must be a JSON object")
    for key in data:
        if key not in kinds:
            raise ValueError(f"unknown {what} key {key!r}")
    for key, types in kinds.items():
        if key not in data:
            if key not in optional:
                raise ValueError(f"missing {what} key {key!r}")
        elif type(data[key]) not in types:
            names = (_JSON_KINDS.get(t, t.__name__) for t in types)
            raise ValueError(f"{what} key {key}={data[key]!r} must be {' or '.join(names)}")
    return data


def problem_from_dict(data) -> tuple[SLProblem, SolverConfig]:
    """Problem + solver settings from the wire dict, read by ``read_wire``.

    Keys: form, n, k, r1, r2 and the optional bc, grid_points, max_j and
    richardson; absent solver settings take the ``SolverConfig`` defaults.
    """
    read_wire(data, _PROBLEM_KINDS, "problem", _PROBLEM_OPTIONAL)
    problem = SLProblem(form=data["form"], n=data["n"], k=data["k"],
                        r1=float(data["r1"]), r2=float(data["r2"]),
                        bc=data.get("bc", SLProblem.bc))
    config = SolverConfig(**{f.name: data[f.name] for f in fields(SolverConfig)
                             if f.name in data})
    return problem, config


def problem_to_dict(problem: SLProblem, config: SolverConfig) -> dict:
    return {
        "form": str(problem.form), "n": problem.n, "k": problem.k,
        "r1": problem.r1, "r2": problem.r2, "bc": str(problem.bc),
        **asdict(config),
    }


def pairs_to_dicts(pairs: list[SLEigenpair]) -> list[dict]:
    """Wire form of the pairs: index, eigenvalues, grid and samples."""
    return [{"j": p.j, "eigenvalue": p.eigenvalue, "eigenvalue_grid": p.eigenvalue_grid,
             "grid": p.grid.tolist(), "values": p.values.tolist()} for p in pairs]
