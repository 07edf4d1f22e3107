"""Independent numerical oracles used by the test suite.

Everything in this file is deliberately written against textbook
definitions (power series, brute-force linear algebra, central finite
differences) and never calls into the package under test, so that the
tests compare two genuinely different computations.
"""

import math

import numpy as np


# ---------------------------------------------------------------------------
# Bessel functions of integer order, by power series.
# ---------------------------------------------------------------------------

def bessel_j(nu: int, x: float) -> float:
    """J_nu(x) for integer nu >= 0 via the defining power series.

    Accurate to ~1e-14 for |x| <= 20, which covers every root the tests
    bracket. Not intended for large arguments.
    """
    if nu < 0:
        raise ValueError("integer order must be >= 0")
    half = 0.5 * x
    term = half**nu / math.factorial(nu)
    total = term
    m = 0
    while True:
        m += 1
        term *= -(half * half) / (m * (m + nu))
        total += term
        if abs(term) <= 1e-18 * (abs(total) + 1e-300) or m > 200:
            return total


def bessel_j_derivative(nu: int, x: float) -> float:
    """J_nu'(x) from the recurrence 2 J_nu' = J_{nu-1} - J_{nu+1}."""
    if nu == 0:
        return -bessel_j(1, x)
    return 0.5 * (bessel_j(nu - 1, x) - bessel_j(nu + 1, x))


def bisect_root(f, lo: float, hi: float, tol: float = 1e-14) -> float:
    """Plain bisection; requires a sign change on [lo, hi]."""
    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo * fhi > 0:
        raise ValueError(f"no sign change on [{lo}, {hi}]")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fmid = f(mid)
        if fmid == 0.0 or (hi - lo) < tol:
            return mid
        if flo * fmid < 0:
            hi = mid
        else:
            lo, flo = mid, fmid
    return 0.5 * (lo + hi)


def first_bessel_zero(nu: int) -> float:
    """Smallest positive root of J_nu."""
    brackets = {0: (2.0, 3.0), 1: (3.5, 4.5), 2: (4.5, 6.0), 3: (6.0, 7.0)}
    lo, hi = brackets[nu]
    return bisect_root(lambda x: bessel_j(nu, x), lo, hi)


def first_bessel_derivative_zero(nu: int) -> float:
    """Smallest positive root of J_nu'."""
    brackets = {1: (1.5, 2.5), 2: (2.5, 3.5), 3: (4.0, 4.5)}
    lo, hi = brackets[nu]
    return bisect_root(lambda x: bessel_j_derivative(nu, x), lo, hi)


# ---------------------------------------------------------------------------
# Dimension of degree-k harmonic homogeneous polynomials, by brute force.
# ---------------------------------------------------------------------------

def _monomials(n_vars: int, degree: int):
    if n_vars == 1:
        return [(degree,)]
    out = []
    for first in range(degree + 1):
        for rest in _monomials(n_vars - 1, degree - first):
            out.append((first,) + rest)
    return out


def harmonic_dim_bruteforce(n_vars: int, degree: int) -> int:
    """dim of harmonic homogeneous polynomials of given degree in n_vars.

    Builds the matrix of the Laplacian from degree-k monomials to
    degree-(k-2) monomials and subtracts its rank from the monomial count.
    """
    cols = _monomials(n_vars, degree)
    if degree < 2:
        return len(cols)
    rows = _monomials(n_vars, degree - 2)
    row_index = {mono: i for i, mono in enumerate(rows)}
    mat = np.zeros((len(rows), len(cols)))
    for c, alpha in enumerate(cols):
        for i, a_i in enumerate(alpha):
            if a_i >= 2:
                beta = list(alpha)
                beta[i] -= 2
                mat[row_index[tuple(beta)], c] += a_i * (a_i - 1)
    return len(cols) - int(np.linalg.matrix_rank(mat))


# ---------------------------------------------------------------------------
# Finite-difference metric gradients in geodesic polar chart coordinates.
# ---------------------------------------------------------------------------

def _sin_m_value(form: str, r: float) -> float:
    if form == "spherical":
        return math.sin(r)
    if form == "hyperbolic":
        return math.sinh(r)
    return r


def metric_grad_inner_fd(form: str, f, g, r: float, angles, step: float = 1e-5) -> float:
    """<grad f, grad g> at (r, angles) for the metric dr^2 + sin_m(r)^2 g_0.

    f and g are callables of (r, angles); derivatives are central
    differences in each chart coordinate. g_0 is the round metric on the
    unit sphere in hyperspherical angles (phi_2, ..., phi_n), so the
    inverse metric weight for d/d(phi_a) is
    1 / (sin_m(r)^2 * prod_{l<a} sin(phi_l)^2).
    """
    angles = list(angles)

    def d_r(func):
        return (func(r + step, angles) - func(r - step, angles)) / (2 * step)

    def d_angle(func, a):
        up = list(angles)
        dn = list(angles)
        up[a] += step
        dn[a] -= step
        return (func(r, up) - func(r, dn)) / (2 * step)

    total = d_r(f) * d_r(g)
    sm2 = _sin_m_value(form, r) ** 2
    prod_sin2 = 1.0
    for a in range(len(angles)):
        if a > 0:
            prod_sin2 *= math.sin(angles[a - 1]) ** 2
        total += d_angle(f, a) * d_angle(g, a) / (sm2 * prod_sin2)
    return total


# ---------------------------------------------------------------------------
# Closed-form ball / annulus volumes used as quadrature oracles.
# ---------------------------------------------------------------------------

def annulus_volume_closed_form(form: str, n: int, r1: float, r2: float) -> float:
    """Closed-form shell volumes for the dimensions the tests exercise."""
    if n == 2:
        if form == "spherical":
            return 2 * math.pi * (math.cos(r1) - math.cos(r2))
        if form == "hyperbolic":
            return 2 * math.pi * (math.cosh(r2) - math.cosh(r1))
        return math.pi * (r2**2 - r1**2)
    if n == 3:
        if form == "spherical":
            return 2 * math.pi * ((r2 - math.sin(r2) * math.cos(r2)) - (r1 - math.sin(r1) * math.cos(r1)))
        if form == "hyperbolic":
            return 2 * math.pi * ((math.sinh(r2) * math.cosh(r2) - r2) - (math.sinh(r1) * math.cosh(r1) - r1))
        return 4 * math.pi / 3 * (r2**3 - r1**3)
    raise ValueError("closed forms provided for n = 2, 3 only")


# ---------------------------------------------------------------------------
# Structured polar mesh connectivity, one quad at a time.
# ---------------------------------------------------------------------------

def polar_mesh_connectivity(n_radial: int, n_angular: int):
    """(triangles, boundary_edges) of the structured polar mesh, by loops.

    Vertex (i, j) of radial ring i and angular ray j is row
    ``i * n_angular + j`` with j periodic. Each quad in (i, j) order gives
    two counterclockwise triangles in (r, theta), radial edge first; the
    boundary is the inner ring followed by the outer ring.
    """
    def vid(i, j):
        return i * n_angular + (j % n_angular)

    tris = []
    for i in range(n_radial):
        for j in range(n_angular):
            a, b = vid(i, j), vid(i, j + 1)
            c, d = vid(i + 1, j), vid(i + 1, j + 1)
            tris.append((a, c, d))
            tris.append((a, d, b))
    edges = [(vid(0, j), vid(0, j + 1)) for j in range(n_angular)]
    edges += [(vid(n_radial, j), vid(n_radial, j + 1)) for j in range(n_angular)]
    return np.array(tris, dtype=np.int64), np.array(edges, dtype=np.int64)


# ---------------------------------------------------------------------------
# Metric P1 stiffness and mass, summed one element matrix per triangle.
# ---------------------------------------------------------------------------

def triangle_coords(vertices: np.ndarray, triangles: np.ndarray) -> np.ndarray:
    """(T, 3, 2) chart coordinates of each triangle, theta unwrapped across 2 pi."""
    coords = vertices[triangles]  # advanced indexing copies
    theta = coords[:, :, 1]
    wrap = (theta.max(axis=1) - theta.min(axis=1)) > math.pi
    theta[wrap] += np.where(theta[wrap] < math.pi, 2 * math.pi, 0.0)
    return coords


def chart_areas(coords: np.ndarray) -> np.ndarray:
    """Signed (r, theta) areas of (T, 3, 2) triangle coordinates."""
    e1 = coords[:, 1] - coords[:, 0]
    e2 = coords[:, 2] - coords[:, 0]
    return 0.5 * (e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0])


def _sin_m_array(form: str, r: np.ndarray) -> np.ndarray:
    return {"euclidean": r, "spherical": np.sin(r), "hyperbolic": np.sinh(r)}[str(form)]


def element_assembly(vertices: np.ndarray, triangles: np.ndarray, form: str):
    """(K, M) as CSR matrices, from (T, 3, 3) element matrices summed as COO.

    ``vertices`` holds (r, theta) rows and ``triangles`` counterclockwise
    vertex triples; theta is unwrapped per triangle across 2 pi. Stiffness
    integrand (u_r v_r + sin_m^-2 u_t v_t) sin_m(r), mass integrand
    u v sin_m(r), both weights by the mid-edge three-point rule.
    """
    import scipy.sparse as sparse

    coords = triangle_coords(vertices, triangles)
    r_pts, t_pts = coords[:, :, 0], coords[:, :, 1]
    areas = chart_areas(coords)

    grads = np.empty_like(coords)  # (T, 3 vertices, 2 components d/dr, d/dtheta)
    for a in range(3):
        b, c = (a + 1) % 3, (a + 2) % 3
        grads[:, a, 0] = (t_pts[:, b] - t_pts[:, c]) / (2 * areas)
        grads[:, a, 1] = (r_pts[:, c] - r_pts[:, b]) / (2 * areas)

    midedge = np.array([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]])
    s_mid = _sin_m_array(form, midedge @ r_pts.T)              # (3 qpts, T)
    w_r = (areas / 3.0) * np.sum(s_mid, axis=0)
    w_t = (areas / 3.0) * np.sum(1.0 / s_mid, axis=0)
    k_elem = (grads[:, :, None, 0] * grads[:, None, :, 0] * w_r[:, None, None]
              + grads[:, :, None, 1] * grads[:, None, :, 1] * w_t[:, None, None])
    m_elem = (np.einsum("qa,qb,qt->tab", midedge, midedge, s_mid)
              * (areas / 3.0)[:, None, None])

    rows = np.repeat(triangles, 3, axis=1).ravel()
    cols = np.tile(triangles, (1, 3)).ravel()
    n = vertices.shape[0]
    stiffness = sparse.coo_matrix((k_elem.ravel(), (rows, cols)), shape=(n, n)).tocsr()
    mass = sparse.coo_matrix((m_elem.ravel(), (rows, cols)), shape=(n, n)).tocsr()
    return stiffness, mass


# ---------------------------------------------------------------------------
# Generalized eigenvalues by dense shift-invert.
# ---------------------------------------------------------------------------

def dense_shift_invert(stiffness, mass, m: int, shift: float) -> np.ndarray:
    """The ``m`` smallest eigenvalues of K u = lambda M u, from dense matrices.

    Takes the largest eigenvalues theta = 1/(lambda - shift) of the pencil
    (M, K - shift*M), which is definite for a shift below the spectrum.
    A plain ``eigh(K, M)`` is accurate only to eps * lambda_max(K, M)
    absolutely, and the r = 1e-3 inner ring of a hole-free mesh makes
    lambda_max large.
    """
    import scipy.linalg

    k_dense, m_dense = stiffness.toarray(), mass.toarray()
    n = k_dense.shape[0]
    theta = scipy.linalg.eigh(m_dense, k_dense - shift * m_dense, eigvals_only=True,
                              subset_by_index=(n - m, n - 1))
    return shift + 1.0 / theta[::-1]
