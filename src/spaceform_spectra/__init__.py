"""Spectral computations on constant-curvature space forms.

Radial Sturm-Liouville solvers, full Neumann spectra of geodesic
annuli, quadrature and orthogonality machinery for symmetric perturbed
annular domains, and a 2D metric-weighted finite-element eigensolver,
with a batch CLI (``sfs``) on top.
"""

from .spaceform import (
    GeodesicPoint,
    GeometryError,
    SpaceForm,
    UnattainableVolumeError,
    annulus_volume,
    match_outer_radius,
    sin_m,
    to_normal_coords,
    unit_sphere_area,
)
from .slsolver import (
    BoundaryCondition,
    ConvergenceError,
    NoRootError,
    SLEigenpair,
    SLProblem,
    SolverConfig,
    discretize,
    locate_b,
    solve,
)
from .spectrum import AnnulusSpectrum, CutoffTooLowError, certify_lemmas, harmonic_dim
from .spectrum import assemble as assemble_spectrum
from .domains import (
    DomainSpec,
    FourierProfile,
    QuadratureGrid,
    RadialTestFunction,
    SphereProfile,
    SymmetryOrder,
    extend_gk,
    grad_pair_integral,
    integrate_moment,
    matched_annulus,
    rayleigh_gk,
    volume,
)
from .fem2d import (
    FemEigenResult,
    PolarMesh,
    TheoremVerdict,
    VerifyConfig,
    generate_mesh,
    solve_domain,
    verify_theorem,
)

__version__ = "0.1.0"
