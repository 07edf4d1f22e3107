"""Full Neumann spectrum of a geodesic shell from its radial mode spectra.

Every Neumann eigenvalue of the shell is some radial eigenvalue mu_{k,j}
counted with the multiplicity of the degree-k spherical harmonics, so the
spectrum is built by merging the mode solves over k and attaching
dim H_k to each entry.  A finite enumeration over k <= k_max, j <= j_max
is certified complete below an explicit cutoff: missed high-j values
exceed the last computed value of their mode, and missed modes k > k_max
obey mu_{k,1} > k(k+n-2)/sin_m(r2)^2 because the first eigenvalue equals
the potential at an interior radius.

``certify_lemmas`` re-derives, for a spectrum from ``assemble``, the
structural facts the assembly relies on (Neumann/Dirichlet bridge, strict
interlacing in k, monotone lowest eigenfunctions and their pointwise
comparison bound) and reports residuals at fixed tolerances, at depth
j = min(j_max, CERTIFY_J).  ``assemble`` solves at least the Neumann
pairs the checks read (j + 1 for mode 0) and the checks reuse them, so a
``spectrum --certify`` run solves each radial problem once; it adds only
the Dirichlet modes k <= 4 that its checks compare against.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import slsolver
from .slsolver import BoundaryCondition, SLProblem, SolverConfig, locate_b
from .spaceform import SpaceForm, _as_form, sin_m

__all__ = [
    "CutoffTooLowError",
    "harmonic_dim",
    "SpectrumEntry",
    "AnnulusSpectrum",
    "assemble",
    "LemmaCheck",
    "LemmaCertification",
    "certify_lemmas",
]


class CutoffTooLowError(RuntimeError):
    """More eigenvalues were requested than the enumeration certifies."""


def harmonic_dim(n: int, k: int) -> int:
    """Dimension of degree-k spherical harmonics on the (n-1)-sphere.

    C(k+n-1, n-1) - C(k+n-3, n-1), with the second term read as zero
    when its upper index goes negative; gives 1 for k = 0 and n for k = 1.
    """
    if n < 2:
        raise ValueError("ambient dimension must be >= 2")
    if k < 0:
        raise ValueError("degree must be >= 0")
    first = math.comb(k + n - 1, n - 1)
    second = math.comb(k + n - 3, n - 1) if k + n - 3 >= 0 else 0
    return first - second


@dataclass(frozen=True, order=True)
class SpectrumEntry:
    value: float
    k: int
    j: int
    multiplicity: int = field(compare=False)


@dataclass(frozen=True)
class AnnulusSpectrum:
    """Sorted Neumann spectrum of a shell with mode provenance.

    ``entries`` are sorted by value with (k, j) breaking ties; the list
    is complete below ``complete_up_to`` and entries above that cutoff
    have been dropped.  ``neumann_pairs`` maps each mode k to the
    Neumann eigenpairs ``assemble`` solved for it with ``solver_config``:
    through the first value at or above the cutoff of its turn, at least
    the pairs ``certify_lemmas`` reads, at most j_max (j_max + 1 for mode
    0 when j_max <= CERTIFY_J).  ``certify_lemmas`` reuses those pairs
    and solves anything else it reads with the same config.  Neither
    field is part of the value (``to_dict``, equality, repr).
    """

    form: SpaceForm
    n: int
    r1: float
    r2: float
    entries: tuple
    complete_up_to: float
    neumann_pairs: dict = field(default_factory=dict, compare=False, repr=False)
    solver_config: SolverConfig = field(default_factory=SolverConfig,
                                        compare=False, repr=False)

    def eigenvalues(self, count: int) -> list[float]:
        """First ``count`` >= 1 eigenvalues, each repeated with multiplicity."""
        if count < 1:
            raise ValueError(f"count must be >= 1, got {count}")
        flat: list[float] = []
        for e in self.entries:
            flat.extend([e.value] * e.multiplicity)
            if len(flat) >= count:
                return flat[:count]
        raise CutoffTooLowError(
            f"only {len(flat)} eigenvalues certified below {self.complete_up_to:.6g}; "
            f"raise k_max/j_max to reach {count}")

    def to_dict(self) -> dict:
        return {
            "form": str(self.form), "n": self.n, "r1": self.r1, "r2": self.r2,
            "complete_up_to": self.complete_up_to,
            "entries": [
                {"value": e.value, "k": e.k, "j": e.j, "multiplicity": e.multiplicity}
                for e in self.entries
            ],
        }


# ``certify_lemmas`` certifies the lemmas at j <= min(j_max, CERTIFY_J)
CERTIFY_J = 5


def _reads(j: int) -> tuple[dict[int, int], dict[int, int]]:
    """Neumann and Dirichlet pairs ``certify_lemmas`` reads of each mode k at depth j."""
    short = min(j, 4)          # interlacing and N/D ordering read j <= 4
    return ({0: j + 1, 1: j, 2: short, 3: short, 4: short, 5: short},
            {0: short, 1: j, 2: short, 3: short, 4: short})


def assemble(form: SpaceForm, n: int, r1: float, r2: float,
             k_max: int, j_max: int,
             config: SolverConfig | None = None) -> AnnulusSpectrum:
    """Merged Neumann spectrum over modes k <= k_max, j <= j_max.

    The cutoff starts at the omitted-mode bound (k_max+1)(k_max+n-1) /
    sin_m(r2)^2 and only falls.  Mode k is solved for one pair more than
    mode k-1 holds below the cutoff, capped at j_max, and at least for
    the pairs ``certify_lemmas`` reads (j_max + 1 for mode 0 when j_max
    <= CERTIFY_J).  A mode whose last value is still below the cutoff is
    solved again at j_max, and a mode holding j_max values lowers the
    cutoff to its j_max-th one.  So every mode stops at or above the
    cutoff of its turn, no value it omits lies below the final cutoff,
    and the prefix is that of solving every mode at j_max.

    The (0, 1) entry is the constant function and is recorded as an exact
    zero.  r1 = 0 (a ball) is allowed.  k_max or j_max below 2 raises
    CutoffTooLowError; otherwise the cutoff is positive and the prefix
    holds at least the constant mode.
    """
    form = _as_form(form)
    if k_max < 2 or j_max < 2:
        raise CutoffTooLowError(
            f"kmax={k_max}, jmax={j_max} cannot certify a spectrum prefix "
            "(need both >= 2)")
    base = replace(config or SolverConfig(), max_j=j_max)
    reads = _reads(min(j_max, CERTIFY_J))[0]

    def solved(k, count):
        return tuple(slsolver.solve(
            SLProblem(form, n, k, r1, r2, BoundaryCondition.NEUMANN),
            replace(base, max_j=count)))

    complete_up_to = (k_max + 1) * (k_max + n - 1) / sin_m(form, r2) ** 2
    neumann_pairs: dict[int, tuple] = {}
    below = 0
    for k in range(k_max + 1):
        count = max(min(j_max, below + 1), reads.get(k, 0))
        pairs = solved(k, count)
        if count < j_max and pairs[-1].eigenvalue < complete_up_to:
            pairs = solved(k, j_max)
        if len(pairs) >= j_max:
            complete_up_to = min(complete_up_to, pairs[j_max - 1].eigenvalue)
        neumann_pairs[k] = pairs
        below = sum(p.eigenvalue < complete_up_to for p in pairs)

    mode_values = {k: [p.eigenvalue for p in pairs] for k, pairs in neumann_pairs.items()}
    if abs(mode_values[0][0]) > 1e-8:
        raise slsolver.ConvergenceError(
            f"constant mode came out at {mode_values[0][0]:.3e}, expected 0")
    mode_values[0][0] = 0.0  # exact by structure: the constant eigenfunction

    entries = [
        SpectrumEntry(value=v, k=k, j=j + 1, multiplicity=harmonic_dim(n, k))
        for k, vals in mode_values.items()
        for j, v in enumerate(vals)
        if v < complete_up_to
    ]
    entries.sort(key=lambda e: (e.value, e.k, e.j))
    return AnnulusSpectrum(form=form, n=n, r1=r1, r2=r2,
                           entries=tuple(entries), complete_up_to=complete_up_to,
                           neumann_pairs=neumann_pairs, solver_config=base)


# ---------------------------------------------------------------------------
# Structural certification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LemmaCheck:
    name: str
    passed: bool
    worst: float          # residual or margin, see description
    tolerance: float
    description: str
    detail: dict = field(default_factory=dict)


@dataclass(frozen=True)
class LemmaCertification:
    form: SpaceForm
    n: int
    r1: float
    r2: float
    checks: tuple

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        return {**asdict(self), "passed": self.passed}


def certify_lemmas(shell: AnnulusSpectrum) -> LemmaCertification:
    """Residual report for the structural facts behind the assembly of ``shell``.

    Checks, at fixed tolerances and at depth j_max = min(max_j, CERTIFY_J)
    for the ``max_j`` of ``shell.solver_config`` (the j_max of ``assemble``):

    * ``neumann_dirichlet_bridge``: mu_{0,j+1} = lambda_{1,j} to 1e-6
      for j <= j_max (differentiating a mode-0 Neumann eigenfunction
      produces a mode-1 Dirichlet one), and strictly above mu_{1,j}.
    * ``k_interlacing``: mu_{k,j} < mu_{k+1,j} with margin > 1e-8
      for k <= 4, j <= min(j_max, 4).
    * ``neumann_below_dirichlet``: mu_{k,j} < lambda_{k,j}, margin > 1e-8,
      for k <= 4, j <= min(j_max, 4).
    * ``lowest_pair_*`` (annuli only), one pass over the (k, 1) Neumann
      pairs, k = 1, 2, 3: the interior radius where the potential equals
      mu_{k,1} (an unlocatable one fails this check alone); strict
      monotonicity of the lowest eigenfunction; and its pointwise
      comparison inequality against the outer-boundary value, with
      slack >= -1e-10.

    The checks read Neumann modes k <= 5 (``_reads``: j_max + 1 pairs for
    k = 0, j_max for k = 1, min(j_max, 4) above) and Dirichlet modes
    k <= 4 (j_max pairs for k = 1, min(j_max, 4) otherwise).  A Neumann
    mode is taken from ``shell.neumann_pairs`` when it holds enough pairs
    and is solved otherwise; every solve uses ``shell.solver_config``, so
    the report describes the shell ``assemble`` built.

    Failures are entries in the report, never exceptions.
    """
    form, n, r1, r2 = shell.form, shell.n, shell.r1, shell.r2
    j_max = min(shell.solver_config.max_j, CERTIFY_J)
    neumann_reads, dirichlet_reads = _reads(j_max)

    def solved(k, bc, need):
        return slsolver.solve(SLProblem(form, n, k, r1, r2, bc),
                              replace(shell.solver_config, max_j=need))

    neumann = {}
    for k, need in neumann_reads.items():
        pairs = shell.neumann_pairs.get(k, ())
        neumann[k] = (pairs if len(pairs) >= need
                      else solved(k, BoundaryCondition.NEUMANN, need))
    dirichlet = {k: solved(k, BoundaryCondition.DIRICHLET, need)
                 for k, need in dirichlet_reads.items()}

    checks = []

    resid, worst_pair, margin = 0.0, {}, np.inf
    for j in range(1, j_max + 1):
        mu = neumann[0][j].eigenvalue
        r = abs(mu - dirichlet[1][j - 1].eigenvalue)
        if r > resid:
            resid, worst_pair = r, {"j": j}
        margin = min(margin, mu - neumann[1][j - 1].eigenvalue)
    checks.append(LemmaCheck(
        "neumann_dirichlet_bridge", resid <= 1e-6 and margin > 0, resid, 1e-6,
        "mu_{0,j+1} equals lambda_{1,j} and exceeds mu_{1,j}",
        {**worst_pair, "min_margin_over_mu1j": margin}))

    margin = min(neumann[k + 1][j - 1].eigenvalue - neumann[k][j - 1].eigenvalue
                 for k in range(0, 5) for j in range(1, min(j_max, 4) + 1))
    checks.append(LemmaCheck(
        "k_interlacing", margin > 1e-8, margin, 1e-8,
        "mu_{k,j} strictly increases in k", {"k_range": [0, 4]}))

    margin = min(dirichlet[k][j - 1].eigenvalue - neumann[k][j - 1].eigenvalue
                 for k in range(0, 5) for j in range(1, min(j_max, 4) + 1))
    checks.append(LemmaCheck(
        "neumann_below_dirichlet", margin > 1e-8, margin, 1e-8,
        "mu_{k,j} < lambda_{k,j}", {"k_range": [0, 4]}))

    if r1 > 0:
        worst_resid, worst_b, ok_interior = 0.0, {}, True
        worst_step = worst_slack = np.inf
        for k in (1, 2, 3):
            pair = neumann[k][0]
            mu, coef = pair.eigenvalue, pair.problem.angular_eigenvalue
            lhs = (coef / sin_m(form, pair.grid) ** 2 - mu) * pair.values**2
            worst_step = min(worst_step, float(np.min(np.diff(pair.values))))
            worst_slack = min(worst_slack, float(np.min(lhs - lhs[-1]) / max(1.0, abs(lhs[-1]))))
            try:
                b = locate_b(pair)
            except slsolver.NoRootError:
                ok_interior = False
                continue
            rel = abs(mu - coef / sin_m(form, b) ** 2) / mu
            if rel > worst_resid:
                worst_resid, worst_b = rel, {"k": k, "b": b}
        checks.append(LemmaCheck(
            "lowest_pair_interior_radius", ok_interior and worst_resid <= 1e-9,
            worst_resid, 1e-9,
            "mu_{k,1} = k(k+n-2)/sin_m(b)^2 at an interior b", worst_b))
        checks.append(LemmaCheck(
            "lowest_pair_monotone", worst_step > 0.0, worst_step, 0.0,
            "the lowest Neumann eigenfunction increases strictly", {}))
        checks.append(LemmaCheck(
            "lowest_pair_pointwise_bound", worst_slack >= -1e-10, worst_slack, -1e-10,
            "(V - mu) u^2 is minimized at the outer boundary", {}))

    return LemmaCertification(form=form, n=n, r1=r1, r2=r2, checks=tuple(checks))
