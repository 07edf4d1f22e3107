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
requested ones.  Each grid, N and for Richardson 2N, is climbed or
bisected by one rule.  With at least 32 cells per start pair, the
Galerkin eigenfunctions sampled on its own nodes take at most 2
fixed-shift inverse-iteration steps (LAPACK gtsv; Parlett, The
Symmetric Eigenvalue Problem, 1980, ch. 4) shifted by their Galerkin
values, each step's solve also giving its vector's residual.  A pair is
certified once the Davis-Kahan bound puts its vector within 1e-10 of
the eigenvector, and the j-th eigenvector of a Jacobi matrix has
exactly j - 1 sign changes (Gantmacher and Krein, Oscillation Matrices
and Kernels, 1950), so that count certifies its index.  A grid is
bisected instead (Sturm sequences, LAPACK stebz, with eigenvectors from
stein) when it is coarser, when the Galerkin solve gives no start
pairs, or when one of its pairs misses either certificate.  Every value
is the Rayleigh quotient of its vector (``_pencil_rayleigh``), so the
Galerkin values only start the climb.  Optional Richardson
extrapolation across grids N and 2N removes the leading O(h^2) error.

At r1 = 0 there is no inner boundary: mode k = 0 gets a natural zero-flux
condition with an exact control-volume mass for the origin cell, while
k >= 1 pins u(0) = 0 (the indicial exponent at the regular singular
point is k, so the bounded solution vanishes).
"""

from __future__ import annotations

import warnings
from dataclasses import asdict, dataclass
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
        # sin_m grows with r: the extreme weights and the largest potential
        # sit at the ends.  A term that leaves the doubles is refused here,
        # before any solve, and not warned of.
        with np.errstate(all="ignore"):
            ends = sin_m(self.form, np.array([self.r1, self.r2]))
            weights = ends ** (self.n - 1)
            potential = self.angular_eigenvalue / ends[0] ** 2
        for r, weight in zip((self.r1, self.r2), weights):
            if r > 0 and not 0 < weight < np.inf:
                raise ValueError(f"weight sin_m(r)^(n-1) = {weight:g} at r = {r:g} "
                                 "is not a positive finite double")
        if self.r1 > 0 and not np.isfinite(potential):
            raise ValueError(f"potential k(k+n-2)/sin_m(r1)^2 = {potential:g} at "
                             f"r1 = {self.r1:g} is not a finite double")

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
    tolerance: inverse iteration stops once its vector is certified within
    1e-10 (``_inverse_iteration``), bisection runs at LAPACK's own (about
    eps * ||T||), and the accuracy of the published values comes from the
    Rayleigh refinement.  ``grid_points`` also picks each grid's start: a
    grid (N, or 2N under Richardson) with at least 32 cells per start pair
    (``max_j + 1``) starts from Galerkin pairs, a coarser one is bisected.
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
    diag: np.ndarray          # stiffness diagonal on active nodes
    offdiag: np.ndarray       # stiffness off-diagonal
    mass: np.ndarray          # diagonal mass on active nodes
    active_start: int
    active_stop: int          # exclusive


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
    potential and eliminated-boundary terms).  The row sums are rebuilt
    here as diag + offdiag + offdiag, which cancels terms of size w/h: every
    value keeps an error of up to about 1e-9 relative, and the constant
    mode of a thin shell about 1e-7 (ROADMAP item 13 stores the exact row
    sums in ``discretize`` instead).
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

    ``solve`` bisects a grid too coarse for the Galerkin start pairs, or
    with none to start from, or whose climb misses a certificate.
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


def _rayleigh_residual(y: np.ndarray, z: np.ndarray, norm: float) -> float:
    """|A z - rho z| for the Rayleigh quotient rho of z = x / |x|, with
    norm = |x| and x = (A - shift)^-1 y, without a product by A.

    (A - shift) z = y / |x|, so with c = z.y the quotient is
    rho = shift + c / |x| and the residual A z - rho z = (y - c z) / |x|.
    """
    return float(np.linalg.norm(y - float(z @ y) * z)) / norm


def _inverse_iteration(d: np.ndarray, e: np.ndarray, shift: float,
                       y: np.ndarray, delta: float) -> np.ndarray | None:
    """The eigenvector of the Jacobi matrix A = (d, e) nearest ``shift``,
    from y by at most 2 fixed-shift inverse-iteration steps, each solved by
    LAPACK ``gtsv``; None if neither step certifies it.

    ``delta`` bounds the gap between the wanted eigenvalue and the rest
    of the spectrum from below, so a step whose residual r
    (``_rayleigh_residual``) meets r <= 1e-10 delta puts its vector within
    1e-10 of the eigenvector (Davis-Kahan).  A solve that under- or
    overflows certifies nothing.  An exactly zero pivot means the shift is
    an eigenvalue to working precision and gives no step, so the current
    vector is kept if one tridiagonal product shows its residual meets
    the same bound.
    """
    shifted = d - shift
    for _ in range(2):
        _, _, _, x, info = dgtsv(e, shifted, e, y[:, None])
        if info > 0:
            z = y / np.linalg.norm(y)
            az = shifted * z        # (A - shift) z, whose residual is that of A z
            az[:-1] += e * z[1:]
            az[1:] += e * z[:-1]
            return y if np.linalg.norm(az - float(z @ az) * z) <= 1e-10 * delta else None
        norm = float(np.linalg.norm(x))
        if not 0 < norm < np.inf:   # the solve left the doubles: no certificate
            return None
        z = x[:, 0] / norm
        if _rayleigh_residual(y, z, norm) <= 1e-10 * delta:
            return z
        y = z
    return None


def _climb(system: TridiagonalSystem, values: np.ndarray, starts: np.ndarray):
    """Eigenpairs of ``system`` by ``_inverse_iteration`` from start values
    and start vectors (the columns of ``starts``, on its active nodes), or
    None if one misses a certificate.

    ``values`` ends with the probe's.  Each pair's delta is half the
    distance from its start value to the nearest other one.  The j-th
    eigenvector of a Jacobi matrix with negative off-diagonals has exactly
    j - 1 sign changes (discrete Sturm oscillation), so that count
    certifies every index.
    """
    d, e, scale = _standard_form(system)
    gaps = np.diff(values)
    # half the distance from each pair to its nearest neighbour
    deltas = 0.5 * np.minimum(np.append(np.inf, gaps[:-1]), gaps)
    # one row per vector: the loop touches grid-sized arrays only
    rows = np.empty((starts.shape[1], d.size))
    for j, row in enumerate(rows):
        z = _inverse_iteration(d, e, values[j], starts[:, j] / scale, deltas[j])
        if z is None:
            return None
        row[:] = z * scale
        if _sign_changes(row) != j:
            return None
    return _pencil_rayleigh(system, rows.T), rows.T


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


def _spectral_pairs(system: TridiagonalSystem, count: int, sampled: int):
    """Lowest ``count`` eigenvalues of a Legendre-Galerkin discretization
    of ``system.problem``, with the lowest ``sampled`` eigenfunctions
    sampled at every node of ``system``'s grid (zero at the eliminated
    ones), as columns; None if the dense solve gives no such pairs.

    The basis is P_0..P_D on [r1, r2], D = max(24, 3 count), times (1 + x)
    where ``system`` eliminates the inner node and (1 - x) where it
    eliminates the outer one.  K = int w u'v' + w V u v and M = int w u v
    are summed by the (D + 8)-point Gauss-Legendre rule.  K grows like
    D^4, so the one dense solve (LAPACK sygvd) is shift-inverted,
    M c = theta (K + M) c with mu = 1/theta - 1, which keeps the low
    values to rounding (Shen, SIAM J. Sci. Comput. 15, 1994).  Where the
    weight spans tens of decades, as on a long hyperbolic interval, sygvd
    may fail or lose a wanted value (theta <= 0): then there are none.
    The Legendre table at the grid's nodes is cached: at the pipeline's
    2N = 4096 cells and D = 24 it holds 4097 x 25 doubles, about 0.8 MB.
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
    # the largest theta are the lowest mu
    theta, coef = theta[::-1][:count], coef[:, ::-1][:, :sampled]
    if info or not np.all(theta > 0):
        return None
    return 1.0 / theta - 1.0, factor(nodes)[:, None] * (table @ coef)


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
    """u on every node, zero at the eliminated ones, of unit mass norm and
    positive at its outermost nonzero sample."""
    full = np.zeros(system.grid.size)
    full[system.active_start:system.active_stop] = u_active
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

    Each grid, N and with ``config.richardson`` 2N, is climbed or
    bisected by one rule.  When the finest grid has at least 32 cells per
    start pair (``max_j`` of them and a probe, pair ``max_j + 1``), one
    Legendre-Galerkin solve (``_spectral_pairs``) gives the start pairs,
    sampled on its nodes; grid N's nodes are the even nodes of 2N.  A grid
    with that many cells is climbed (``_climb``): each pair's samples on
    its own nodes take at most 2 inverse-iteration steps shifted by its
    Galerkin value, until the residual certifies the vector within 1e-10
    (Davis-Kahan, against half the distance from its Galerkin value to
    the nearest one, the probe's for the last pair), and its sign-change
    count certifies its index.  A grid is bisected instead
    (``_eigen_tridiagonal``), for the pairs and the probe when it holds
    one, when it is coarser, when the Galerkin solve gives no start
    pairs, or when one of its pairs misses a certificate.  Each grid's
    values are the Rayleigh quotients of its vectors.  With Richardson the
    values from grids N and 2N are combined as (4 mu_2N - mu_N)/3, so
    ``eigenvalue - eigenvalue_grid`` is the Richardson correction
    (mu_2N - mu_N)/3, and the eigenvectors are reported on the finer
    grid.  A gap below ``DEGENERACY_GAP`` between adjacent finest-grid
    values, or between the last pair and the probe (their Galerkin values
    when the finest grid climbs), trips a NearDegeneracyWarning, because
    the continuum eigenvalues are simple and a near-tie indicates
    discretization trouble.  The first j pairs agree, to rounding,
    whatever ``max_j >= j`` was requested.  Grid N must hold ``max_j``
    pairs and the finest grid one more; asking for more pairs than a grid
    has active nodes is a ValueError, and so is a finest grid whose
    standard form leaves the doubles (its entries grow like 1/h^2).
    """
    config = config or SolverConfig()
    want = config.max_j
    probe = want + 1  # one more start pair for the simplicity gap check
    N = config.grid_points
    ladder = [(N, want), (2 * N, probe)] if config.richardson else [(N, probe)]
    # the finest grid's standard form holds the largest entries, of size
    # 1/h^2; one that leaves the doubles is refused here, before any solve
    with np.errstate(all="ignore"):
        systems = [discretize(problem, cells) for cells, _ in ladder]
        finite = all(np.isfinite(part).all() for part in _standard_form(systems[-1]))
    fine, fine_cells = systems[-1], ladder[-1][0]
    if not finite:
        raise ValueError(f"the pencil of an interval of width {problem.r2 - problem.r1:g} "
                         f"on {fine_cells} cells is not finite in doubles")
    for system, (_, need) in zip(systems, ladder):
        if need > system.diag.size:
            raise ValueError(f"{need} eigenpairs asked of {system.diag.size} active nodes")

    start = _spectral_pairs(fine, probe, want) if fine_cells >= 32 * probe else None
    grid_vals = []
    for system, (cells, _) in zip(systems, ladder):
        climbed = None
        if start and cells >= 32 * probe:
            start_vals, samples = start
            # the Galerkin samples at this grid's nodes, every (fine_cells / cells)-th
            own = samples[::fine_cells // cells][system.active_start:system.active_stop]
            climbed = _climb(system, start_vals, own)
        vals, vecs = climbed or _eigen_tridiagonal(system, min(probe, system.diag.size))
        grid_vals.append(vals)

    vals_fine, vecs_fine = vals, vecs
    published = vals_fine[:want].copy()
    if config.richardson:
        published += (published - grid_vals[0][:want]) / 3.0

    # a bisected finest grid holds the probe among its values; past a
    # climbed one the last gap is that of the Galerkin values
    gaps = np.diff(vals_fine)
    if vals_fine.size == want:
        gaps = np.append(gaps, np.diff(start[0][want - 1:]))
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
