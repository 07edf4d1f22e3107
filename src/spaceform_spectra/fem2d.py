"""Metric-weighted P1 finite elements for planar symmetric domains.

The mesh is structured on the exact map r = rho_in(theta) + t D(theta),
D = rho_out - rho_in, of the rectangle [0, 1] x [0, 2 pi) onto the domain:
each angular ray is subdivided uniformly in t, quads are split into
triangles, and theta = 0 is identified with 2 pi.  P1 functions are linear
in (t, theta), so the mesh covers the domain exactly, curved boundaries
included, and the domain symmetry is exact on the vertex set.  The metric
dr^2 + sin_m(r)^2 dtheta^2 pulls back to a full tensor A and volume
density J = D sin_m(r) in (t, theta), which assembly integrates by
Dunavant's 7-point degree-5 rule.  Every quad splits the same way into
two triangles, so assembly computes each triangle type's element entries
as (n_radial, width) arrays and sums them straight into the seven-point
stencil of every vertex, with no per-triangle index triples.  Only the
wedge of rays that the domain's rotation symmetry (order 4, 2 or 1) turns
onto the whole mesh is integrated.

Eigenvalues come from Lanczos on the spectral transformation of the
pencil (K, M) about SHIFT, one symmetry sector at a time: the rotation
commutes with K and M, so the eigenfunctions split by the phase omega (a
root of unity of the order) the rotation puts on them, and each sector is
a problem on the wedge alone, a quarter or half of the unknowns, with its
wrap-around couplings multiplied by omega.  The lowest m eigenvalues split
about evenly over the phases, so each sector is first asked for
ceil(m / order) + 1 of them, and asked again for all of the lowest m it
could hold only when its last value lies below the m-th merged one.  The
shifted sector matrix K - SHIFT*M is Hermitian positive definite, and in
ring-major order (vertex (i, j) is row i * width + j) a band matrix: every
stencil coupling, the wrap-arounds across the wedge's edge included, lies
on one of nine diagonals within width + 1 of the diagonal, and each sector
is built as those diagonals.  Up to DIRECT_MAX_UNKNOWNS it is factored
once, K - SHIFT*M = U^H U, by banded Cholesky (LAPACK ?pbtrf) on its
upper diagonals as they stand, which needs no fill-reducing permutation
because the factor fills only the band, and Lanczos runs on the standard
Hermitian form U^-H M U^-1 (Ericsson and Ruhe, Math. Comp. 35, 1980).
Larger sectors, the finest levels, are inverted by conjugate gradients
(on a CSR copy of K - SHIFT*M) in ARPACK's shift-invert mode,
preconditioned by the same operator with its coefficients averaged over
the rays: that average is diagonalised by the Fourier transform along the
rays into tridiagonal systems across the rings, so the solve needs memory
linear in the unknowns, where the band of the factor, width + 2 numbers
per unknown, would set the run's peak.

``eigensolve`` solves one level; ``FemEigenResult.from_levels`` is the
one builder of a refinement history from such levels.
``decide`` is the one verdict rule: from a refinement history it
computes the margins, tau and observed orders of the checked indices, the
PASS/FAIL, whether refining further could still change it, and which rule
decided it.  On a holed domain the mesh covers the domain exactly and
conforming Galerkin values bound the domain's from above (min-max), so
from two levels on, finest values clearly below the shell's mu_2 decide a
PASS by that Rayleigh-Ritz bound, where ``quadrature_term`` puts the
quadrature error of the finest mesh within RITZ_ALLOWANCE; otherwise
Richardson extrapolation and its observed order decide.
``verify_theorem`` solves its levels one at a time and stops at the first
level below the cap that ``decide`` calls decided.  An observed order
needs three levels, so a ladder of three or more levels that starts at
level l >= 1 first solves the probe level l - 1.  A run that reaches the
cap reports the values a fixed ladder gives, with the probe level in
front of its history.

Hole-free domains keep the map away from the r = 0 degeneracy with a
small artificial inner circle (natural boundary condition, radius 1e-3);
shrinking it to 1e-4 moves mu_2 by less than 6e-5 relative at level 2,
below the 1e-4 floor of the reported tolerance.  Their mesh leaves that
disk out, so their values bound nothing and only Richardson decides them.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass
from typing import NamedTuple

import numpy as np
import scipy.sparse as sparse
import scipy.sparse.linalg as sparse_linalg
from scipy.linalg import lapack

from . import domains as dm
from . import slsolver
from .spaceform import SpaceForm, sin_m
from .slsolver import SLProblem, SolverConfig

__all__ = [
    "DegenerateDomainError",
    "FemConvergenceError",
    "PolarMesh",
    "FemSystem",
    "FemEigenResult",
    "LevelSolve",
    "VerifyConfig",
    "TheoremVerdict",
    "Decision",
    "generate_mesh",
    "assemble",
    "eigensolve",
    "solve_domain",
    "verify_theorem",
    "decide",
    "quadrature_term",
]

HOLE_FREE_INNER_RADIUS = 1e-3
# level-0 mesh; the angular count is a multiple of 16 at every level, so the
# quarter-turn symmetry of a domain is exact on the vertex set
LEVEL0_RADIAL, LEVEL0_ANGULAR = 12, 48
SHIFT = -0.1                 # spectral-transformation shift below the spectrum
TAU_FLOOR = 1e-4             # smallest verdict tolerance
STOP_MARGIN = 2.0            # margins beyond this many tau decide a verdict
ORDER_BAND = (1.5, 2.5)      # observed orders under which Richardson is trusted
RITZ_ALLOWANCE = 1e-5        # relative quadrature term a Rayleigh-Ritz bound carries
DIRECT_MAX_UNKNOWNS = 5000   # larger symmetry sectors are inverted by CG, not Cholesky
CG_RTOL, CG_MAXITER = 1e-12, 200   # stopping rule of those CG solves


class DegenerateDomainError(ValueError):
    """The mesh cannot resolve the gap between the boundaries."""


class FemConvergenceError(RuntimeError):
    """Eigensolve failed its residual or sanity checks."""


@dataclass(frozen=True)
class PolarMesh:
    """Vertices of the structured mesh of the chart image of the domain.

    ``vertices`` holds (r, theta) rows; vertex (i, j) of radial ring i and
    angular ray j is row ``i * n_angular + j``, and j wraps periodically.
    The triangles are implicit: every quad (i, j) splits into
    [(i, j), (i+1, j), (i+1, j+1)] and [(i, j), (i+1, j+1), (i, j+1)].
    """

    spec: dm.DomainSpec
    n_radial: int
    n_angular: int
    vertices: np.ndarray

    def __post_init__(self):
        self.vertices.setflags(write=False)

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def level(self) -> int:
        """Refinement level: n_radial is LEVEL0_RADIAL * 2**level."""
        return (self.n_radial // LEVEL0_RADIAL).bit_length() - 1

    @property
    def chart_h(self) -> float:
        """Representative chart mesh size (mean radial step)."""
        gaps = self.vertices[-self.n_angular:, 0] - self.vertices[:self.n_angular, 0]
        return float(np.mean(gaps)) / self.n_radial


def _boundaries(spec: dm.DomainSpec) -> tuple[dm.FourierProfile, dm.FourierProfile]:
    """rho_in and rho_out of the mesh: a hole-free domain's mesh starts on
    the circle of radius HOLE_FREE_INNER_RADIUS."""
    inner = spec.rho_in if spec.has_hole else dm.FourierProfile(HOLE_FREE_INNER_RADIUS)
    return inner, spec.rho_out


def generate_mesh(spec: dm.DomainSpec, level: int) -> PolarMesh:
    """Structured mesh at refinement ``level`` (each level quadruples triangles).

    Level 0 has LEVEL0_RADIAL cells along each of LEVEL0_ANGULAR rays, spaced
    uniformly between rho_in(theta) and rho_out(theta); each level doubles
    both counts.  Boundaries that touch or cross are refused; otherwise
    every chart triangle has area dtheta * (rho_out - rho_in) / (2 n_radial)
    > 0, taken on the ray of its radial edge.
    """
    if spec.n != 2:
        raise ValueError("the finite-element path is two-dimensional")
    if level < 0:
        raise ValueError("level must be >= 0")
    n_radial = LEVEL0_RADIAL * 2**level
    n_angular = LEVEL0_ANGULAR * 2**level

    theta = np.linspace(0.0, 2 * math.pi, n_angular, endpoint=False)
    inner, outer = _boundaries(spec)
    rho_in, rho_out = inner.at_theta(theta), outer.at_theta(theta)
    if np.min(rho_out - rho_in) <= 0:
        raise DegenerateDomainError("boundaries touch or cross")

    t = np.arange(n_radial + 1)[:, None] / n_radial
    r = rho_in[None, :] + t * (rho_out - rho_in)[None, :]
    vertices = np.column_stack([r.ravel(), np.tile(theta, n_radial + 1)])
    return PolarMesh(spec=spec, n_radial=n_radial, n_angular=n_angular, vertices=vertices)


@dataclass(frozen=True)
class FemSystem:
    """Stiffness and mass of a mesh, kept as stencil coefficients on one wedge.

    The domain, and with it the mesh, is invariant under the rotation by
    2 pi / ``order`` (4 for quarter-turn symmetry, 2 for half-turn or
    central symmetry, 1 without), so every vertex has the coefficients of
    its image among the first n_angular / order rays, the wedge.  The sums
    are ``_stencil_sums`` arrays over the wedge.  ``sector(k)`` restricts
    K - SHIFT*M and M to the functions the rotation multiplies by
    exp(2 pi i k / order); ``stiffness`` and ``mass`` build the full matrices.
    """

    mesh: PolarMesh
    order: int
    stiffness_sums: tuple
    mass_sums: tuple

    @property
    def n_unknowns(self) -> int:
        return self.mesh.n_vertices

    def phase(self, k: int) -> float | complex:
        """omega_k = exp(2 pi i k / order), a float exactly when it is +-1."""
        return (1.0, 1j, -1.0, -1j)[4 * k // self.order % 4]

    def sector(self, k: int) -> tuple[sparse.dia_matrix, sparse.dia_matrix]:
        """K - SHIFT*M and M on the wedge, for the functions of phase omega_k.

        omega_k = exp(2 pi i k / order) is the factor the rotation puts on
        them; a neighbour across the wedge's last ray is ray 0 turned once,
        so its coupling takes omega_k (and conj(omega_k) across ray 0).
        Both are ``_stencil_matrix`` diagonals in ring-major order, real for
        omega_k = +-1, complex Hermitian otherwise.
        """
        omega = self.phase(k)
        shifted = tuple(a - SHIFT * b for a, b in zip(self.stiffness_sums, self.mass_sums))
        return _stencil_matrix(shifted, omega), _stencil_matrix(self.mass_sums, omega)

    def _full(self, sums) -> sparse.csr_matrix:
        # the copy drops the slack tocsr leaves in buffers sized for every DIA slot
        return _stencil_matrix(np.tile(a, (1, self.order)) for a in sums).tocsr().copy()

    @property
    def stiffness(self) -> sparse.csr_matrix:
        return self._full(self.stiffness_sums)

    @property
    def mass(self) -> sparse.csr_matrix:
        return self._full(self.mass_sums)


# Dunavant's 7-point rule, exact to degree 5 (IJNME 21, 1985): barycentric
# coordinates of the points, one row each, and weights summing to 1
_SQRT15 = math.sqrt(15.0)
_DUNAVANT_POINTS = np.array(
    [[1 / 3, 1 / 3, 1 / 3]]
    + [np.roll([1 - 2 * p, p, p], k) for p in ((6 - _SQRT15) / 21, (6 + _SQRT15) / 21)
       for k in range(3)])
_DUNAVANT_WEIGHTS = np.array([9 / 40] + 3 * [(155 - _SQRT15) / 1200]
                             + 3 * [(155 + _SQRT15) / 1200])


def _pullback(form: SpaceForm, inner: dm.FourierProfile, outer: dm.FourierProfile):
    """Coefficient fields of the weak form on the map r = rho_in + t D.

    With D = rho_out - rho_in, a = dr/dtheta = rho_in' + t D' and
    s = sin_m(r), the metric dr^2 + s^2 dtheta^2 pulls back to the (t, theta)
    plane with volume density J = D s and stiffness tensor
    A = (1 / (D s)) [[a^2 + s^2, -D a], [-D a, D^2]].  Returns
    ``fields(t, theta) -> (A_tt, A_ttheta, A_thetatheta, J)``.
    """
    def fields(t, theta):
        rho_in, slope_in = inner.at_theta(theta), inner.d_theta(theta)
        gap = outer.at_theta(theta) - rho_in
        slope = slope_in + t * (outer.d_theta(theta) - slope_in)
        s = sin_m(form, rho_in + t * gap)
        density = gap * s
        return (slope * slope + s * s) / density, -slope / s, gap / s, density
    return fields


_PAIRS = [(a, b) for a in range(3) for b in range(a, 3)]


def _element_integrals(fields, t, theta, points=_DUNAVANT_POINTS, weights=_DUNAVANT_WEIGHTS):
    """Area, integral of A and mass entries of one triangle in every quad.

    ``t`` and ``theta`` hold the (t, theta) coordinates of the three
    vertices, ``t`` as (n_radial, 1) columns and ``theta`` as (1, width)
    rows; ``points`` are barycentric (Q, 3) and ``weights`` (Q,) sum to 1,
    or (R, Q) for R rules on the same points, which adds an axis of length
    R after the first to the integrals.  Every point is evaluated at once.
    Returns the areas, the (tt, ttheta, thetatheta) entries of the
    integral of A over each triangle and ``M_ab = integral of phi_a phi_b
    J`` for the local vertex pairs a <= b of ``_PAIRS``, each stacked
    along the first axis.
    """
    area = 0.5 * ((t[1] - t[0]) * (theta[2] - theta[0]) - (theta[1] - theta[0]) * (t[2] - t[0]))
    # (Q, n_radial, width) values
    a_tt, a_ttheta, a_thetatheta, density = fields(
        np.tensordot(points, np.stack(t), axes=1), np.tensordot(points, np.stack(theta), axes=1))
    tensor = np.array([area * np.tensordot(weights, field, axes=1)
                       for field in (a_tt, a_ttheta, a_thetatheta)])
    # phi_a phi_b at the points are the products of their barycentric coordinates
    products = np.array([weights * points[:, a] * points[:, b] for a, b in _PAIRS])
    return area, tensor, area * np.tensordot(products, density, axes=1)


def _element_entries(fields, t, theta) -> tuple[dict, dict]:
    """Element stiffness and mass entries of one triangle in every quad.

    P1 gradients are constant per triangle, so
    ``K_ab = grad(phi_a) . (integral of A) grad(phi_b)``; both integrals
    are Dunavant's (``_element_integrals``).  Returns two dicts keyed by
    local vertex pairs (a, b) with a <= b.
    """
    area, (w_tt, w_ttheta, w_thetatheta), mass = _element_integrals(fields, t, theta)
    # constant P1 gradients: grad lambda_a = rot(opposite edge) / (2A)
    grad_t = [(theta[(a + 1) % 3] - theta[(a + 2) % 3]) / (2 * area) for a in range(3)]
    grad_theta = [(t[(a + 2) % 3] - t[(a + 1) % 3]) / (2 * area) for a in range(3)]
    stiffness = {(a, b): grad_t[a] * grad_t[b] * w_tt
                 + (grad_t[a] * grad_theta[b] + grad_theta[a] * grad_t[b]) * w_ttheta
                 + grad_theta[a] * grad_theta[b] * w_thetatheta
                 for a, b in _PAIRS}
    return stiffness, dict(zip(_PAIRS, mass))


def _stencil_sums(t1: dict, t2: dict):
    """Sum the element entries of both triangle types into stencil coefficients.

    Quad (i, j) has corners a = (i, j), b = (i, j+1), c = (i+1, j) and
    d = (i+1, j+1); ``t1`` holds T1 = [a, c, d] and ``t2`` holds
    T2 = [a, d, b], as ``_element_entries`` returns them.  Returns the
    vertex coefficients (n_radial + 1, n_angular) and the coefficients of
    the radial edges (i, j)-(i+1, j), the angular edges (i, j)-(i, j+1)
    and the diagonal edges (i, j)-(i+1, j+1); np.roll by one angular step
    moves a quad's entry to the quad on its right.
    """
    n_radial, n_angular = t1[0, 0].shape
    vertex = np.zeros((n_radial + 1, n_angular))
    vertex[:-1] += t1[0, 0] + t2[0, 0] + np.roll(t2[2, 2], 1, axis=1)    # a, b
    vertex[1:] += t1[1, 1] + np.roll(t1[2, 2] + t2[1, 1], 1, axis=1)     # c, d
    radial = t1[0, 1] + np.roll(t2[1, 2], 1, axis=1)                     # a-c, b-d
    angular = np.zeros((n_radial + 1, n_angular))
    angular[:-1] += t2[0, 2]                                             # a-b
    angular[1:] += t1[1, 2]                                              # c-d
    diagonal = t1[0, 2] + t2[0, 1]                                       # a-d
    return vertex, radial, angular, diagonal


def _stencil_matrix(sums, omega: complex = 1.0) -> sparse.dia_matrix:
    """Hermitian DIA matrix from ``_stencil_sums``: vertex (i, j) of the
    ``width`` rays is row i * width + j, and the neighbour past the last ray
    is ray 0 turned once, its coupling multiplied by ``omega`` (by
    conj(omega) across ray 0).  So every coupling lies on diagonal 0, +-1
    (angular, and the quad diagonal past the last ray), +-(width - 1)
    (angular across ray 0), +-width (radial) or +-(width + 1) (quad
    diagonal).  DIA keeps entry (c - d, c) at column c, so the upper
    diagonal d is the array of its entries by row rolled by d, and the
    lower diagonal -d that array's conjugate as it stands.  With the sums
    of all rays and omega = 1 this is the periodic matrix of the whole mesh.
    """
    vertex, radial, angular, diagonal = sums
    n_rings, width = vertex.shape
    upper = np.array([1, width - 1, width, width + 1])
    # rows 1-4 first hold each upper diagonal d by row: entry (r, r + d) at r
    data = np.zeros((9, n_rings, width), dtype=complex if isinstance(omega, complex) else float)
    data[0] = vertex
    data[1, :, :-1] = angular[:, :-1]                  # (i, j)-(i, j+1)
    data[1, :-1, -1] = omega * diagonal[:, -1]         # (i, width-1)-(i+1, width)
    data[2, :, 0] = np.conj(omega) * angular[:, -1]    # (i, 0)-(i, -1)
    data[3, :-1] = radial                              # (i, j)-(i+1, j)
    data[4, :-1, :-1] = diagonal[:, :-1]               # (i, j)-(i+1, j+1)
    data = data.reshape(9, -1)
    np.conjugate(data[1:5], out=data[5:])
    for row, d in zip(data[1:5], upper):
        row[:] = np.roll(row, d)
    n = vertex.size
    return sparse.dia_matrix((data, np.concatenate([[0], upper, -upper])), shape=(n, n))


def assemble(mesh: PolarMesh) -> FemSystem:
    """Stiffness and mass for the weak form of ``mesh.spec`` on its exact map.

    P1 is linear in (t, theta), where r = rho_in(theta) + t D(theta) maps
    the rectangle [0, 1] x [0, 2 pi) onto the domain exactly (onto the
    domain less the disk of radius HOLE_FREE_INNER_RADIUS without a hole);
    the mesh vertex (i, j) is (t, theta) = (i / n_radial, theta_j).  The
    stiffness integrand is grad(u) . A grad(v) and the mass integrand
    u v J in the (t, theta) plane, with A and J from ``_pullback``, both
    taken by Dunavant's 7-point rule.  Neumann conditions are natural: no
    boundary terms.

    The mesh is structured, so the element entries of each of the two
    triangle types are (n_radial, width) arrays and sum directly into
    every vertex's seven stencil coefficients (itself, two radial, two
    angular and two quad-diagonal neighbours).  Only the quads of the
    wedge of the domain's rotation symmetry are integrated; the rest of
    the mesh is its turned copies (see ``FemSystem``).
    """
    order, fields, (t1, t2) = _wedge_triangles(mesh)
    k1, m1 = _element_entries(fields, *t1)
    k2, m2 = _element_entries(fields, *t2)
    return FemSystem(mesh=mesh, order=order, stiffness_sums=_stencil_sums(k1, k2),
                     mass_sums=_stencil_sums(m1, m2))


def _wedge_triangles(mesh: PolarMesh):
    """The symmetry order, the ``_pullback`` fields and the (t, theta)
    vertex coordinates of the triangles T1 = [a, c, d] and T2 = [a, d, b]
    of every quad of the wedge, as ``_element_entries`` takes them."""
    order = dm.fourier_order(mesh.spec.symmetry_order)
    width = mesh.n_angular // order
    fields = _pullback(mesh.spec.form, *_boundaries(mesh.spec))
    t = np.arange(mesh.n_radial + 1)[:, None] / mesh.n_radial
    theta = mesh.vertices[:width, 1]
    # quad corners; the rotation maps ray `width` onto ray 0 at angle 2 pi / order
    t_a, t_c = t[:-1], t[1:]
    th_a, th_b = theta[None, :], np.append(theta[1:], 2 * math.pi / order)[None, :]
    return order, fields, (((t_a, t_c, t_c), (th_a, th_a, th_b)),
                           ((t_a, t_c, t_a), (th_a, th_b, th_b)))


def _symmetric(entries, size: int) -> np.ndarray:
    """(size, size, ...) symmetric matrices from their entries a <= b, in
    row order, along the first axis of ``entries``."""
    index = {pair: k for k, pair in enumerate((a, b) for a in range(size) for b in range(a, size))}
    return np.array([[entries[index[min(a, b), max(a, b)]] for b in range(size)]
                     for a in range(size)])


def _relative_spread(x, dx) -> float:
    """Largest sqrt(trace((X^-1 dX)^2)) over symmetric positive definite
    X = ``x`` and symmetric dX = ``dx``, (k, k, ...) arrays of k = 2 or 3:
    the root sum of squares of the eigenvalues of the pencil (dX, X), so
    |v . dX v| <= spread * v . X v for every v.  X^-1 = adj(X) / det(X)
    by cofactors, elementwise over the trailing axes."""
    if len(x) == 2:
        adjugate = np.array([[x[1, 1], -x[0, 1]], [-x[1, 0], x[0, 0]]])
    else:
        adjugate = np.array([[x[(i + 1) % 3, (j + 1) % 3] * x[(i + 2) % 3, (j + 2) % 3]
                              - x[(i + 1) % 3, (j + 2) % 3] * x[(i + 2) % 3, (j + 1) % 3]
                              for i in range(3)] for j in range(3)])
    det = np.einsum("i...,i...->...", x[0], adjugate[:, 0])
    ratio = np.einsum("ij...,jk...->ik...", adjugate, dx) / det
    return float(np.sqrt(np.max(np.einsum("ij...,ji...->...", ratio, ratio))))


# the barycentric points of Dunavant's rule on a triangle and on the four
# triangles its edge midpoints cut it into, with the weights of the rule
# (row 0) and of its difference to the rule on the quarters (row 1)
_CORNERS = np.eye(3)
_MIDPOINTS = [(_CORNERS[a] + _CORNERS[b]) / 2 for a, b in ((0, 1), (1, 2), (2, 0))]
_SPLIT_POINTS = np.concatenate([_DUNAVANT_POINTS] + [
    _DUNAVANT_POINTS @ np.array(quarter)
    for quarter in ((_CORNERS[0], _MIDPOINTS[0], _MIDPOINTS[2]),
                    (_MIDPOINTS[0], _CORNERS[1], _MIDPOINTS[1]),
                    (_MIDPOINTS[2], _MIDPOINTS[1], _CORNERS[2]),
                    (_MIDPOINTS[1], _MIDPOINTS[2], _MIDPOINTS[0]))])
_SPLIT_WEIGHTS = np.array([np.concatenate([_DUNAVANT_WEIGHTS, np.zeros(28)]),
                           np.concatenate([-_DUNAVANT_WEIGHTS,
                                           np.tile(_DUNAVANT_WEIGHTS / 4, 4)])])
SPLIT_BLOCK = 1 << 16   # point values per array that ``quadrature_term`` evaluates at once


def quadrature_term(mesh: PolarMesh) -> float:
    """Estimated relative quadrature error of the eigenvalues of ``assemble(mesh)``.

    Each triangle's integrals of A and of phi_a phi_b J are taken again,
    by the same rule on the four triangles its edge midpoints cut it into;
    the difference estimates the error of the assembled ones (the finer
    rule's own error is a sixteenth of it or less once the integrands are
    resolved).  eps_K and eps_M bound the differences of the element
    matrices relative to the element matrices themselves, element by
    element (``_relative_spread``; P1 gradients are constant per
    triangle, so for the stiffness the integral of A stands in for the
    element matrix), and so bound those of the global K and M.  By
    min-max, every eigenvalue of the pencil with the finer integrals then
    lies within a factor (1 + eps_K) / (1 - eps_M) of the assembled one;
    the result is that factor less 1.  Where the integrands are not
    resolved, as A_thetatheta = D / s across the first ring of a hole
    much narrower than the ring, the term is large.  Blocks of rings keep
    the arrays at SPLIT_BLOCK values.
    """
    order, fields, triangles = _wedge_triangles(mesh)
    rows = max(1, SPLIT_BLOCK // (len(_SPLIT_POINTS) * mesh.n_angular // order))
    eps_k = eps_m = 0.0
    for t, theta in triangles:
        for start in range(0, mesh.n_radial, rows):
            block = tuple(column[start:start + rows] for column in t)
            _, tensor, mass = _element_integrals(fields, block, theta,
                                                 _SPLIT_POINTS, _SPLIT_WEIGHTS)
            # (k, k, rule, rings, rays): the rule's matrices and their differences
            tensor, mass = _symmetric(tensor, 2), _symmetric(mass, 3)
            eps_k = max(eps_k, _relative_spread(tensor[:, :, 0], tensor[:, :, 1]))
            eps_m = max(eps_m, _relative_spread(mass[:, :, 0], mass[:, :, 1]))
    return (1 + eps_k) / (1 - eps_m) - 1


class LevelSolve(NamedTuple):
    """Eigenvalues of one refinement level and the residual they passed."""

    n_unknowns: int
    h: float
    eigenvalues: tuple
    level: int
    residual: float


@dataclass(frozen=True)
class FemEigenResult:
    """Lowest eigenvalues with the refinement history behind them.

    ``levels`` holds one LevelSolve per solved level, coarsest first;
    ``eigenvalues`` are the finest-level values; ``extrapolated`` removes
    the leading O(h^2) term from the last two levels; ``est_rel_error``
    is |extrapolated - finest| / extrapolated (absolute for the zero
    mode); ``observed_order`` is the log2 ratio of the last two
    corrections when three or more levels are available, None for the
    constant mode (whose corrections are rounding noise) and wherever the
    ratio is not finite.  All of these read only the last three levels,
    so a history with a coarser level in front gives the same values.
    """

    levels: tuple
    eigenvalues: tuple
    extrapolated: tuple | None
    est_rel_error: tuple | None
    observed_order: tuple | None
    max_residual: float

    @classmethod
    def from_levels(cls, levels) -> "FemEigenResult":
        """Richardson step over a nonempty refinement history of LevelSolves."""
        finest = np.array(levels[-1].eigenvalues)
        extrapolated = est = order = None
        if len(levels) >= 2:
            coarse = np.array(levels[-2].eigenvalues)
            extra = finest + (finest - coarse) / 3.0
            scale = np.abs(extra)
            scale[0] = 1.0  # the constant mode's error is absolute
            est = tuple(float(x) for x in np.abs(extra - finest) / scale)
            extrapolated = tuple(float(x) for x in extra)
        if len(levels) >= 3:
            prev = np.array(levels[-3].eigenvalues)
            num = np.abs(prev - coarse)
            den = np.abs(coarse - finest)
            with np.errstate(divide="ignore", invalid="ignore"):
                slopes = np.log2(num / den)
            # the constant mode's corrections are rounding noise
            order = (None,) + tuple(float(s) if np.isfinite(s) else None for s in slopes[1:])
        return cls(levels=tuple(levels), eigenvalues=tuple(float(v) for v in finest),
                   extrapolated=extrapolated, est_rel_error=est, observed_order=order,
                   max_residual=max(solve.residual for solve in levels))

    def to_dict(self) -> dict:
        # a level's residual enters the report only through max_residual
        levels = [{key: value for key, value in solve._asdict().items() if key != "residual"}
                  for solve in self.levels]
        return {**asdict(self), "levels": levels}


def _upper_band(A: sparse.dia_matrix) -> np.ndarray:
    """Upper band of the Hermitian DIA matrix A in LAPACK storage: entry
    (i, j), i <= j, sits at [bandwidth + i - j, j], the column where A
    keeps it on its diagonal j - i, so each upper diagonal is copied as it
    stands.  The half-bandwidth is A's largest offset."""
    bandwidth = int(A.offsets.max())
    upper = A.offsets >= 0
    band = np.zeros((bandwidth + 1, A.shape[0]), dtype=A.dtype, order="F")
    band[bandwidth - A.offsets[upper]] = A.data[upper]
    return band


def _cholesky_factor(A: sparse.dia_matrix) -> np.ndarray:
    """Upper banded Cholesky factor U of the Hermitian positive definite
    A = U^H U (LAPACK ?pbtrf), in the band storage of ``_upper_band``.

    A sector's ring-major order is already a band of half-width width + 1,
    the wrap-arounds across the wedge's edge included (offset width - 1,
    or 1 on the diagonal edge), and the factor fills nothing outside it.
    """
    band = _upper_band(A)
    pbtrf = lapack.get_lapack_funcs("pbtrf", (band,))
    factor, info = pbtrf(band, lower=0, overwrite_ab=1)
    if info != 0:
        raise FemConvergenceError(f"banded Cholesky failed (info {info}) "
                                  f"at {A.shape[0]} unknowns")
    return factor


def _averaged_inverse(system: FemSystem, k: int):
    """Apply the inverse of sector k's K - SHIFT*M with every stencil
    coefficient replaced by its mean over the wedge's rays.

    The averaged operator commutes with the turn by one ray, so the Fourier
    transform along the rays splits it into one Hermitian tridiagonal
    system across the rings per wavenumber kappa_q = (phi + 2 pi q) / width,
    where phi = 2 pi k / order is the phase the sector gains over the wedge.
    """
    vertex, radial, angular, diagonal = (
        np.mean(a, axis=1) - SHIFT * np.mean(b, axis=1)
        for a, b in zip(system.stiffness_sums, system.mass_sums))
    n_rings, width = system.stiffness_sums[0].shape
    phi = 2 * math.pi * k / system.order
    kappa = (phi + 2 * math.pi * np.arange(width)) / width
    # unknown q * n_rings + i is ring i at wavenumber q: one tridiagonal
    # matrix whose sub-diagonal vanishes between wavenumbers
    main = vertex[None, :] + 2 * angular[None, :] * np.cos(kappa)[:, None]
    sub = np.zeros((width, n_rings), dtype=complex)
    sub[:, :-1] = radial[None, :] + diagonal[None, :] * np.exp(-1j * kappa)[:, None]
    main, sub, info = lapack.zpttrf(main.ravel(), sub.ravel()[:-1])
    if info != 0:
        raise FemConvergenceError("averaged sector operator is not positive definite")
    twist = np.exp(1j * phi * np.arange(width) / width)[:, None]
    real = isinstance(system.phase(k), float)

    def apply(b):
        spectrum = np.fft.fft(b.reshape(n_rings, width).T * twist.conj(), axis=0)
        x, _ = lapack.zpttrs(main, sub, spectrum.reshape(-1, 1), lower=1)
        x = (np.fft.ifft(x.reshape(width, n_rings), axis=0) * twist).T.ravel()
        return x.real if real else x
    return apply


def _sector_eigs(system: FemSystem, k: int, count: int) -> tuple[np.ndarray, float]:
    """Lowest ``count`` eigenvalues of sector k's pencil (K, M) and their
    worst relative residual, by Lanczos on the spectral transformation
    about SHIFT (Ericsson and Ruhe, Math. Comp. 35, 1980).

    A = K - SHIFT*M is Hermitian positive definite.  Up to
    DIRECT_MAX_UNKNOWNS it is factored once, A = U^H U, by banded Cholesky,
    and Lanczos runs on the standard Hermitian form U^-H M U^-1: its
    largest eigenvalues theta = 1 / (mu - SHIFT) belong to y = U x, at two
    triangular band solves and one product with M a step.  Above, the band,
    which grows like the unknowns to the power 3/2, would dominate the peak
    memory of the level, and conjugate gradients preconditioned by
    ``_averaged_inverse`` apply A^-1 in ARPACK's shift-invert mode instead.
    ``eigensolve`` keeps ``count`` below the sector's unknowns less one.
    """
    A, M = system.sector(k)
    n = A.shape[0]
    # a fixed start vector keeps ARPACK deterministic; it varies along the
    # rays, so no turn of a round domain's mesh leaves it invariant and
    # hides eigenvectors from it
    v0 = (1.0 + np.arange(n) / n).astype(A.dtype)
    if n <= DIRECT_MAX_UNKNOWNS:
        factor = _cholesky_factor(A)
        tbtrs = lapack.get_lapack_funcs("tbtrs", (factor,))

        def triangular(b, trans):
            # U^-1 b for trans "N", U^-H b for "C"
            x, info = tbtrs(factor, b, trans=trans)
            if info != 0:
                raise FemConvergenceError(f"banded triangular solve failed (info {info})")
            return x
        # a complex operator goes from eigsh to eigs in standard mode
        op = sparse_linalg.LinearOperator(
            (n, n), matvec=lambda y: triangular(M @ triangular(y, "N"), "C"), dtype=A.dtype)
        theta, vecs = sparse_linalg.eigsh(op, k=count, which="LM", v0=v0)
        vals, vecs = SHIFT + 1.0 / theta, triangular(vecs, "N")
    else:
        # CG's many products with A are faster on CSR than on DIA; the copy
        # drops the slack tocsr leaves in buffers sized for every DIA slot
        A = A.tocsr().copy()
        pre = sparse_linalg.LinearOperator((n, n), matvec=_averaged_inverse(system, k),
                                           dtype=A.dtype)

        def inverse(b):
            # A^-1 b by conjugate gradients to relative residual CG_RTOL
            x, info = sparse_linalg.cg(A, b, rtol=CG_RTOL, atol=0.0, M=pre,
                                       maxiter=CG_MAXITER)
            if info != 0:
                raise FemConvergenceError(f"conjugate gradients missed {CG_RTOL:g} in "
                                          f"{CG_MAXITER} steps at {n} unknowns")
            return x
        # in shift-invert mode ARPACK applies only OPinv (and M); its first
        # argument just gives the shape
        if np.iscomplexobj(A.data):
            # eigsh hands a complex pencil to eigs, whose driver then keeps M
            # in a reference cycle that outlives the call; shift-inverting
            # M^-1 K itself, (M^-1 K - SHIFT)^-1 = (K - SHIFT*M)^-1 M, leaves none
            op_inv = sparse_linalg.LinearOperator((n, n), matvec=lambda x: inverse(M @ x),
                                                  dtype=A.dtype)
            vals, vecs = sparse_linalg.eigs(op_inv, k=count, sigma=SHIFT, which="LM",
                                            v0=v0, OPinv=op_inv)
            vals = vals.real
        else:
            op_inv = sparse_linalg.LinearOperator((n, n), matvec=inverse, dtype=A.dtype)
            vals, vecs = sparse_linalg.eigsh(op_inv, k=count, M=M, sigma=SHIFT, which="LM",
                                             v0=v0, OPinv=op_inv)
    mu_ = M @ vecs
    ku = A @ vecs + SHIFT * mu_
    resid = np.linalg.norm(ku - vals[None, :] * mu_, axis=0)
    scale = np.maximum(np.linalg.norm(ku, axis=0),
                       np.abs(vals).max() * np.linalg.norm(mu_, axis=0))
    return vals, float(np.max(resid / scale))


def eigensolve(system: FemSystem, m: int = 8) -> LevelSolve:
    """Smallest ``m`` eigenvalues of one refinement level, as its LevelSolve.

    Each symmetry sector is solved on the wedge alone by Lanczos on the
    spectral transformation about SHIFT with a fixed start vector
    (``_sector_eigs``), and asked only for the eigenvalues that can reach
    the lowest m; a complex sector stands for its conjugate too.  The
    values must pass the 1e-9 residual gate and the constant-mode check.
    ``FemEigenResult.from_levels`` combines the LevelSolves of a
    refinement sequence.
    """
    if m < 2:
        raise ValueError("ask for at least two eigenvalues")
    n = system.n_unknowns
    sectors = range(system.order // 2 + 1)
    copies = [1 if isinstance(system.phase(k), float) else 2 for k in sectors]
    full = [-(-m // c) for c in copies]
    # every sector has the wedge's n / order unknowns; an m that a sector's
    # re-solve below could not hold is refused before any solve
    if max(full) >= n // system.order - 1:
        raise ValueError("need m well below the number of unknowns")

    def merged(solved):
        return np.sort([float(v) for (vals, _), c in zip(solved, copies)
                        for v in vals for _ in range(c)])
    # the lowest m split about evenly over the phases, so each sector first
    # asks for its share and one more.  Whatever a sector leaves out lies at
    # or above its last value; one whose last value is below the m-th merged
    # value may hide some of the lowest m, and is solved again for all of
    # them it could hold
    solved = [_sector_eigs(system, k, min(full[k], -(-m // system.order) + 1))
              for k in sectors]
    mth = merged(solved)[m - 1]
    solved = [_sector_eigs(system, k, full[k])
              if len(vals) < full[k] and vals.max() < mth else (vals, residual)
              for k, (vals, residual) in zip(sectors, solved)]
    vals = merged(solved)[:m]
    rel = max(residual for _, residual in solved)
    if rel > 1e-9:
        raise FemConvergenceError(
            f"eigen residual {rel:.3e} above 1e-9 at {n} unknowns")
    if abs(vals[0]) > 1e-6 * max(1.0, abs(vals[1])):
        raise FemConvergenceError(
            f"constant mode came out at {vals[0]:.3e}; assembly is suspect")
    return LevelSolve(n_unknowns=n, h=system.mesh.chart_h,
                      eigenvalues=tuple(float(v) for v in vals),
                      level=system.mesh.level, residual=rel)


def _check_ladder(levels) -> None:
    """Refuse a ladder other than one or more consecutive levels >= 0: the
    Richardson step takes each level to halve h."""
    if not levels or levels[0] < 0 or tuple(levels) != tuple(range(levels[0], levels[-1] + 1)):
        raise ValueError(f"refinement levels {tuple(levels)} must be one or more "
                         "consecutive levels >= 0")


def solve_domain(spec: dm.DomainSpec, levels=(1, 2, 3), m: int = 8) -> FemEigenResult:
    """Mesh, assemble and ``eigensolve`` the domain on every one of
    ``levels``, and combine the levels by ``FemEigenResult.from_levels``."""
    _check_ladder(levels)
    return FemEigenResult.from_levels(
        [eigensolve(assemble(generate_mesh(spec, lv)), m=m) for lv in levels])


# ---------------------------------------------------------------------------
# End-to-end comparison against the volume-matched shell
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VerifyConfig:
    """Refinement ladder and eigenvalue count of ``verify_theorem``.

    ``levels`` are consecutive ascending refinement levels >= 0; the last is
    the cap, the finest level a run may solve.  A run stops below the cap
    once its verdict is decided, and a ladder of three or more levels
    starting at l >= 1 is led by the probe level l - 1 (see
    ``verify_theorem``).  Ladders of one or two levels are solved in full.
    """

    levels: tuple = (1, 2, 3)
    m: int = 8

    def __post_init__(self):
        _check_ladder(self.levels)
        if self.m < 2:
            raise ValueError(f"m={self.m}: ask for at least two eigenvalues")


@dataclass(frozen=True)
class TheoremVerdict:
    """Comparison of the domain's low eigenvalues against its matched shell.

    ``margins``, ``tau``, ``decided_by`` and ``passed`` are the ``decide``
    of ``fem`` against ``mu_annulus`` on the ``checked_indices``; a verdict
    not ``decided`` reached the cap undecided.
    """

    spec_hash: str
    form: SpaceForm
    symmetry: dm.SymmetryOrder
    r1: float
    r2: float
    volume: float
    mu_annulus: float
    fem: FemEigenResult
    checked_indices: tuple
    margins: tuple
    tau: float
    decided_by: str | None
    passed: bool

    @property
    def decided(self) -> bool:
        return self.decided_by is not None

    def to_dict(self) -> dict:
        return {
            "spec_hash": self.spec_hash,
            "form": str(self.form),
            "symmetry_order": str(self.symmetry),
            "r1": self.r1, "r2": self.r2, "volume": self.volume,
            "mu_annulus": self.mu_annulus,
            "fem": self.fem.to_dict(),
            "checked_indices": list(self.checked_indices),
            "margins": list(self.margins),
            "tau": self.tau,
            "decided": self.decided,
            "decided_by": self.decided_by,
            "verdict": "PASS" if self.passed else "FAIL",
        }


def spec_hash(spec: dm.DomainSpec) -> str:
    payload = json.dumps(dm.spec_to_dict(spec), sort_keys=True).encode()
    return hashlib.sha256(payload).hexdigest()[:16]


class Decision(NamedTuple):
    """The verdict ``decide`` draws from one refinement history."""

    margins: tuple
    tau: float
    orders: tuple
    decided_by: str | None   # "ritz_bound" or "richardson"; None while undecided
    passed: bool

    @property
    def decided(self) -> bool:
        return self.decided_by is not None


def decide(mu_shell: float, radial: float, fem: FemEigenResult, indices, *,
           ritz: bool) -> Decision:
    """The verdict rule for mu_i(domain) <= mu_shell at the checked ``indices``.

    margin_i = (mu_shell - mu_i) / mu_shell on the extrapolated values (the
    finest level's when there is one level), and tau = max(TAU_FLOOR,
    3 * e + radial), e the largest ``fem.est_rel_error`` of a checked index
    (0 for one level) and ``radial`` the shell's relative Richardson
    correction.

    ``ritz`` says the finest level's values bound the domain's from above
    up to RITZ_ALLOWANCE, as conforming Galerkin values on a mesh that
    covers the domain exactly do by min-max (Babuska and Osborn, Eigenvalue
    Problems, 1991) once the quadrature of the element entries moves them
    by less than that (``quadrature_term``): possible for a holed domain,
    not for a hole-free one, whose mesh leaves out a small disk.  Then,
    with two or more levels, every checked finest value with
    mu_i * (1 + RITZ_ALLOWANCE) <= mu_shell * (1 - radial) is a PASS that
    refining cannot change, decided by "ritz_bound".

    Otherwise the Richardson rule: ``passed`` when an error estimate
    exists and every margin is >= -tau; ``decided``, by "richardson", when
    every margin is >= STOP_MARGIN * tau or one is <= -STOP_MARGIN * tau,
    and every observed order lies in ORDER_BAND, where the Richardson
    estimate behind tau can be trusted (Roache, Verification and
    Validation in Computational Science and Engineering, 1998).
    """
    best = fem.extrapolated or fem.eigenvalues
    est = fem.est_rel_error or tuple(0.0 for _ in best)
    tau = max(TAU_FLOOR, 3.0 * max(est[i - 1] for i in indices) + radial)
    margins = tuple((mu_shell - best[i - 1]) / mu_shell for i in indices)
    orders = tuple(fem.observed_order[i - 1] if fem.observed_order else None for i in indices)
    if ritz and len(fem.levels) >= 2 and all(
            fem.eigenvalues[i - 1] * (1 + RITZ_ALLOWANCE) <= mu_shell * (1 - radial)
            for i in indices):
        return Decision(margins, tau, orders, "ritz_bound", True)
    low, high = ORDER_BAND
    decided = (all(order is not None and low <= order <= high for order in orders)
               and (all(margin >= STOP_MARGIN * tau for margin in margins)
                    or any(margin <= -STOP_MARGIN * tau for margin in margins)))
    passed = fem.est_rel_error is not None and all(margin >= -tau for margin in margins)
    return Decision(margins, tau, orders, "richardson" if decided else None, passed)


def _ladder(levels: tuple) -> tuple:
    """``levels`` led by the probe level below them when an observed order
    needs it: three or more levels starting at level 1 or above."""
    if len(levels) >= 3 and levels[0] >= 1:
        return (levels[0] - 1, *levels)
    return tuple(levels)


def verify_theorem(spec: dm.DomainSpec, config: VerifyConfig | None = None) -> TheoremVerdict:
    """Check mu_i(domain) <= mu_2(matched shell) for the symmetry-given indices.

    Pipeline: quadrature volume -> matched shell radii -> lowest mode-1
    eigenvalue of the shell (radial solve) -> FEM eigenvalues of the
    domain, one refinement level at a time -> ``decide``.  Quarter-turn
    symmetry checks indices 2 and 3; half-turn or central symmetry checks
    index 2 only.

    Levels are solved coarsest first, each once by ``eigensolve`` and
    appended to the history, up to the cap ``config.levels[-1]``; after
    each level below the cap the run stops if ``decide`` calls the history
    so far decided.  A ladder of three or more levels starting at l >= 1
    first solves level l - 1, so the stop test can already read an
    observed order once level l + 1 is solved.  The Ritz bound is offered
    to ``decide`` for a holed domain, and a PASS it decides stands only
    if the finest mesh's ``quadrature_term`` is within RITZ_ALLOWANCE;
    otherwise the Richardson rule decides that level.
    """
    config = config or VerifyConfig()
    if spec.n != 2:
        raise ValueError("end-to-end verification runs on planar domains")
    if spec.symmetry_order is dm.SymmetryOrder.NONE:
        raise dm.SymmetryError("the comparison needs a declared symmetry class")
    indices = (2, 3) if spec.symmetry_order is dm.SymmetryOrder.ORDER4 else (2,)
    if config.m < indices[-1]:
        raise ValueError(f"m={config.m} is below the largest checked index {indices[-1]}")

    grid = dm.QuadratureGrid.for_spec(spec)
    vol = dm.volume(grid)
    r1, r2 = dm.matched_annulus(grid)

    (shell,) = slsolver.solve(SLProblem(spec.form, 2, 1, r1, r2), SolverConfig())
    mu_annulus = shell.eigenvalue
    radial = abs(shell.eigenvalue - shell.eigenvalue_grid) / shell.eigenvalue

    history = []
    for level in _ladder(config.levels):
        mesh = generate_mesh(spec, level)
        history.append(eigensolve(assemble(mesh), m=config.m))
        fem = FemEigenResult.from_levels(history)
        decision = decide(mu_annulus, radial, fem, indices, ritz=spec.has_hole)
        if decision.decided_by == "ritz_bound" and quadrature_term(mesh) > RITZ_ALLOWANCE:
            # the allowance does not cover this mesh's quadrature error
            decision = decide(mu_annulus, radial, fem, indices, ritz=False)
        if decision.decided:
            break
    return TheoremVerdict(
        spec_hash=spec_hash(spec), form=spec.form, symmetry=spec.symmetry_order,
        r1=r1, r2=r2, volume=vol, mu_annulus=mu_annulus, fem=fem,
        checked_indices=indices, margins=decision.margins, tau=decision.tau,
        decided_by=decision.decided_by, passed=decision.passed)


def convergence_table(result: FemEigenResult, label: str = "") -> str:
    """Gnuplot-ready refinement history: columns h, n_unknowns, eigenvalues.

    Whitespace-separated with a commented header; feed straight to
    ``plot "file" using 1:3`` and friends.  Extrapolated values, when
    present, follow as a final comment line.
    """
    m = len(result.eigenvalues)
    lines = [f"# {label}".rstrip(),
             "# h  n_unknowns  " + "  ".join(f"mu_{i + 1}" for i in range(m))]
    for solve in result.levels:
        lines.append("  ".join([f"{solve.h:.12g}", str(solve.n_unknowns)]
                               + [f"{v:.12g}" for v in solve.eigenvalues]))
    if result.extrapolated is not None:
        lines.append("# extrapolated:  " + "  ".join(f"{v:.12g}" for v in result.extrapolated))
    return "\n".join(lines) + "\n"
