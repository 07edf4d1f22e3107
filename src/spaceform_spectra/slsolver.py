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
by the diagonal mass.  Eigenvalues come from Sturm-sequence bisection
(LAPACK stebz) so the index j is unambiguous; eigenvectors come from
inverse iteration (stein).  Optional Richardson extrapolation across
grids N and 2N removes the leading O(h^2) error term.

At r1 = 0 there is no inner boundary: mode k = 0 gets a natural zero-flux
condition with an exact control-volume mass for the origin cell, while
k >= 1 pins u(0) = 0 (the indicial exponent at the regular singular
point is k, so the bounded solution vanishes).
"""

from __future__ import annotations

import warnings
from dataclasses import asdict, dataclass, fields
from enum import Enum

import numpy as np
from scipy.linalg import LinAlgError, eigh_tridiagonal

from .spaceform import GeometryError, SpaceForm, _as_form, _gl_rule, sin_m

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


DEGENERACY_GAP = 1e-9   # fine-grid eigenvalue gap that trips NearDegeneracyWarning


class BoundaryCondition(str, Enum):
    NEUMANN = "neumann"
    DIRICHLET = "dirichlet"

    def __str__(self) -> str:
        return self.value


def _as_bc(bc) -> BoundaryCondition:
    if isinstance(bc, BoundaryCondition):
        return bc
    return BoundaryCondition(str(bc).lower())


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
        object.__setattr__(self, "bc", _as_bc(self.bc))
        if self.n < 2:
            raise ValueError("dimension n must be >= 2")
        if self.k < 0:
            raise ValueError("mode index k must be >= 0")
        if self.r1 < 0 or not self.r2 > self.r1:
            raise ValueError(f"need 0 <= r1 < r2, got [{self.r1}, {self.r2}]")
        if self.form is SpaceForm.SPHERICAL and self.r2 > np.pi / 2 + 1e-12:
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
    tolerance: bisection runs at LAPACK's own (about eps * ||T||) and the
    accuracy of the published values comes from the Rayleigh refinement.
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
        """Pad an active-node vector with the eliminated boundary zeros."""
        full = np.zeros(self.grid.size)
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
    w_node = sin_m(form, grid) ** (n - 1)

    mass = h * w_node
    mass[0] *= 0.5
    mass[-1] *= 0.5

    coef = problem.angular_eigenvalue
    potential = np.zeros(N + 1)
    if coef != 0.0:
        sm = sin_m(form, grid)
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


def _eigen_tridiagonal(system: TridiagonalSystem, count: int):
    """Lowest ``count`` eigenpairs of the pencil via Sturm bisection.

    ``stebz`` pins the indices at LAPACK's own tolerance, about
    eps * |Gershgorin bound|, which is too coarse for the smallest modes
    on fine grids; the returned values are therefore refined to the
    Rayleigh quotient of the inverse-iteration eigenvector, which is
    variationally accurate to second order in the vector error.
    """
    m = system.mass
    scale = 1.0 / np.sqrt(m)
    d = system.diag * scale**2
    e = system.offdiag * scale[:-1] * scale[1:]
    if count > d.size:
        raise ValueError(f"{count} eigenpairs asked of {d.size} active nodes")
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


@dataclass(frozen=True)
class SLEigenpair:
    """One computed radial eigenpair.

    ``eigenvalue`` is the published value (Richardson-extrapolated when
    enabled); ``eigenvalue_grid`` is the raw discrete eigenvalue on the
    stored grid, which is what the discrete Rayleigh quotient reproduces.
    ``values`` carries u on the full grid, normalized so that
    trapezoid(u^2 sin_m^{n-1}) = 1 and the outermost nonzero sample is
    positive.
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
        v = self.values
        inner = v[np.abs(v) > 1e-9 * np.max(np.abs(v))]
        signs = np.sign(inner)
        return int(np.sum(signs[1:] * signs[:-1] < 0))


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

    Bisection pins each index and the Rayleigh refinement supplies the
    value; with ``config.richardson`` the values from grids N and 2N are
    combined as (4 mu_2N - mu_N)/3, so ``eigenvalue - eigenvalue_grid``
    is the Richardson correction (mu_2N - mu_N)/3, and the eigenvectors
    are reported on the finer grid.  The coarse grid N yields exactly
    ``max_j`` values; the fine grid yields one more, a probe for the gap
    check: a gap between adjacent fine-grid eigenvalues below
    ``DEGENERACY_GAP`` trips a NearDegeneracyWarning, because the
    continuum eigenvalues are simple and a near-tie indicates
    discretization trouble.  The first j pairs agree, to rounding,
    whatever ``max_j >= j`` was requested.  Asking for more pairs than
    the grid has active nodes is a ValueError.
    """
    config = config or SolverConfig()
    want = config.max_j
    probe = want + 1  # one extra on the fine grid for the simplicity gap check

    fine_N = config.grid_points * 2 if config.richardson else config.grid_points
    fine = discretize(problem, fine_N)
    vals_fine, vecs_fine = _eigen_tridiagonal(fine, probe)

    published = vals_fine[:want].copy()
    if config.richardson:
        coarse = discretize(problem, config.grid_points)
        vals_coarse, _ = _eigen_tridiagonal(coarse, want)
        published += (published - vals_coarse) / 3.0

    gaps = np.diff(vals_fine)
    if np.any(gaps <= DEGENERACY_GAP):
        j_bad = int(np.argmin(gaps)) + 1
        warnings.warn(
            f"eigenvalue gap {gaps.min():.3e} below trust threshold near j={j_bad} "
            f"(k={problem.k}, bc={problem.bc}, grid={fine_N})",
            NearDegeneracyWarning)

    pairs = []
    for j in range(1, want + 1):
        pairs.append(SLEigenpair(
            problem=problem,
            j=j,
            eigenvalue=float(published[j - 1]),
            eigenvalue_grid=float(vals_fine[j - 1]),
            grid=fine.grid.copy(),
            values=_finalize_vector(fine, vecs_fine[:, j - 1]),
        ))
    return pairs


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

# JSON type each typed wire key must carry: a JSON boolean is no integer or
# number here.  form and bc are checked by their enums.
_WIRE_TYPES = {"n": (int,), "k": (int,), "r1": (int, float), "r2": (int, float),
               "grid_points": (int,), "max_j": (int,), "richardson": (bool,)}


def problem_from_dict(data: dict) -> tuple[SLProblem, SolverConfig]:
    """Problem + solver settings from the wire dict.

    Recognized keys: form, n, k, r1, r2, bc, grid_points, max_j,
    richardson.  Unknown keys, and values of the wrong JSON kind, are
    rejected; absent solver settings take the ``SolverConfig`` defaults.
    """
    unknown = set(data) - {"form", "bc", *_WIRE_TYPES}
    if unknown:
        raise ValueError(f"unknown problem keys: {sorted(unknown)}")
    for key, types in _WIRE_TYPES.items():
        if key in data and type(data[key]) not in types:
            raise ValueError(f"problem key {key}={data[key]!r} must be "
                             f"{' or '.join(t.__name__ for t in types)}")
    try:
        problem = SLProblem(
            form=data["form"], n=data["n"], k=data["k"],
            r1=float(data["r1"]), r2=float(data["r2"]),
            bc=data.get("bc", "neumann"))
    except KeyError as exc:
        raise ValueError(f"missing problem key {exc}") from exc
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
