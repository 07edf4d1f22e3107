"""Spectral computations on constant-curvature space forms.

Radial Sturm-Liouville solvers, full Neumann spectra of geodesic
annuli, quadrature and orthogonality machinery for symmetric perturbed
annular domains, and a 2D metric-weighted finite-element eigensolver,
with a batch CLI (``sfs``) on top.

The package root re-exports nothing: callers import the modules
(``from spaceform_spectra import slsolver``), and importing one loads
only the modules it imports.
"""

__version__ = "0.1.0"
