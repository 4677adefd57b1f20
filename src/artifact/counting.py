"""Steady state, cumulant generating function, cumulants, and feature ratios.

Two quantities flow out of this module.

* True counting cumulants j[1..4]: lam-derivatives at 0 of the
  generator's dominant eigenvalue branch, computed by non-degenerate
  eigenvalue perturbation theory (no step-size tuning, machine-precision
  capable). These characterize the long-time photon-exchange
  distribution.

* Exchange moment rates m[1..4]: contractions of the lam-derivative
  matrices with the frozen steady state, m_k = u . (d^k L / d lam^k) . rho.
  These are the raw moment rates of the instantaneous jump current;
  odd orders equal the net flux (m_1 is exactly j_1), even orders the
  total exchange activity. Their baseline-normalized ratios are the
  classifier features: they stay in a narrow window around 1 across the
  whole parameter box, which is what makes the coherence mapping
  learnable.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, isfinite

import numpy as np

from .engine import (EngineParams, TRACE_VECTOR, TwistedGenerator, build_generator,
                     build_generators, varied_row)
from .errors import (
    BranchAmbiguityError,
    ConditioningError,
    DegenerateSampleError,
    SingularityError,
)

# A baseline moment below this magnitude cannot normalize a feature.
DEGENERATE_TOL = 1e-12

# Minimum spectral gap between the tracked eigenvalue branch and the
# runner-up before branch identity becomes ambiguous.
GAP_TOL = 1e-8

_COND_LIMIT = 1e12


@dataclass(frozen=True)
class SteadyState:
    """Stationary reduced state: four populations and the real coherence."""

    rho: np.ndarray

    @property
    def populations(self) -> np.ndarray:
        return self.rho[:4]

    @property
    def coherence(self) -> float:
        return float(self.rho[4])


@dataclass(frozen=True)
class CumulantSet:
    """True cumulants j, their zero-coherence baseline j0, and ratios c = j/j0."""

    j: tuple
    j0: tuple
    c: tuple

    def __post_init__(self):
        if not self.j0[1] > 0.0:
            raise SingularityError(f"baseline variance must be positive, got {self.j0[1]}")
        for group in (self.j, self.j0, self.c):
            if not all(isfinite(v) for v in group):
                raise SingularityError(f"non-finite cumulant data: {group}")


def steady_states(l0: np.ndarray, physical: bool):
    """Null vectors of a (n, 5, 5) stack of L(0), populations summing to 1.

    Returns the (n, 5) states and a {row: error} map of the rows failing
    a check. One batched SVD, bitwise equal to per-matrix SVDs, gives the
    null spaces; a second near-zero singular value means the generator is
    defective for this purpose. With `physical` the populations must lie
    in [0, 1]: the legacy variants violate that bound on real parameter
    draws, which is exactly why they are not the default.
    """
    _, s, vt = np.linalg.svd(l0)
    # Singular values are sorted descending; the null direction is last.
    rho = vt[:, -1]
    pop = rho[:, 0] + rho[:, 1] + rho[:, 2] + rho[:, 3]
    with np.errstate(divide="ignore", invalid="ignore"):
        rho = rho / pop[:, None]
        residual = np.abs(np.matmul(l0, rho[:, :, None])[:, :, 0]).max(axis=1)
    checks = [  # in order: a row reports the first check it fails
        (s[:, -2] < 1e-8, lambda i: "null space of L(0) is not one-dimensional "
                                    f"(sigma[-2]={s[i, -2]:.3e})"),
        (np.abs(pop) < 1e-12, lambda i: "null vector carries no population weight"),
        (residual > 1e-10, lambda i: f"steady-state residual {residual[i]:.3e} exceeds 1e-10"),
        (physical & ((rho[:, :4].min(axis=1) < -1e-9) | (rho[:, :4].max(axis=1) > 1.0 + 1e-9)),
         lambda i: f"unphysical populations {rho[i, :4]}"),
    ]
    failures = {}
    for bad, message in checks:
        for i in np.flatnonzero(bad).tolist():
            failures.setdefault(i, SingularityError(message(i)))
    return rho, failures


def steady_state(gen: TwistedGenerator) -> SteadyState:
    """Stationary state of one generator (see steady_states)."""
    rho, failures = steady_states(gen.l0[None], gen.variant == "consistent")
    if failures:
        raise failures[0]
    return SteadyState(rho=rho[0])


def _dominant_eig(matrix: np.ndarray):
    """Eigenvalue with largest real part plus its gap to the runner-up."""
    eigs = np.linalg.eigvals(matrix)
    order = np.argsort(eigs.real)
    top, second = eigs[order[-1]], eigs[order[-2]]
    return top, float(top.real - second.real)


def cgf(gen: TwistedGenerator, lam: float) -> float:
    """Cumulant generating function S(lam): the dominant eigenvalue branch.

    The branch continuously connected to the steady-state zero
    eigenvalue is, for this generator, the one with the largest real
    part in a neighborhood of lam = 0. A collapsed spectral gap means
    the branch can no longer be identified; the caller must shrink lam.
    """
    top, gap = _dominant_eig(gen.eval(lam))
    if gap <= GAP_TOL:
        raise BranchAmbiguityError(
            f"spectral gap {gap:.3e} at lam={lam} is below {GAP_TOL}; branch ambiguous"
        )
    if abs(top.imag) > 1e-9 * max(1.0, abs(top.real)):
        raise BranchAmbiguityError(
            f"dominant eigenvalue at lam={lam} is complex ({top}); branch ambiguous"
        )
    return float(top.real)


def cgf_scan(gen: TwistedGenerator, lams) -> np.ndarray:
    """S(lam) sampled over a grid; a probe for shift symmetries, no assertions."""
    return np.array([cgf(gen, float(lam)) for lam in lams])


def cumulants(gen: TwistedGenerator) -> np.ndarray:
    """First four lam-derivatives of the CGF branch at lam = 0.

    Non-degenerate perturbation theory around the steady state: with
    right null vector rho normalized against the trace vector u
    (u . rho = 1), the expansion coefficients s_k of S and rho_k of the
    perturbed null vector obey

        s_k   = sum_{m=1..k} C(k,m) u . L_m . rho_{k-m}
        L0 rho_k = sum_{m=1..k} C(k,m) (s_m - L_m) rho_{k-m},  u . rho_k = 0

    where L_m is the m-th lam-derivative matrix. The rank-deficient
    solves are performed on the bordered 6x6 system (L0 extended by the
    column rho and the row u), which is square and well-conditioned.
    """
    rho0 = steady_state(gen).rho
    u = TRACE_VECTOR
    bordered = np.zeros((6, 6))
    bordered[:5, :5] = gen.l0
    bordered[:5, 5] = rho0
    bordered[5, :5] = u
    cond = np.linalg.cond(bordered)
    if cond > _COND_LIMIT:
        raise ConditioningError(f"bordered system condition number {cond:.3e} exceeds {_COND_LIMIT:.0e}")

    ld = gen.l_deriv
    rho_orders = [rho0]
    s = [0.0]
    for k in range(1, 5):
        s_k = 0.0
        for m in range(1, k + 1):
            s_k += comb(k, m) * float(u @ (ld[m - 1] @ rho_orders[k - m]))
        s.append(s_k)
        rhs = np.zeros(6)
        for m in range(1, k + 1):
            rhs[:5] += comb(k, m) * (s[m] * rho_orders[k - m] - ld[m - 1] @ rho_orders[k - m])
        rho_orders.append(np.linalg.solve(bordered, rhs)[:5])
    return np.array(s[1:])


def exchange_moment_rates(emit_rate, absorb_rate, rho: np.ndarray) -> np.ndarray:
    """Raw moment rates m[1..4] of the instantaneous photon-exchange current.

    m_k contracts the k-th counting derivative of the generator with
    the steady state `rho`, from the rates on the two counted edges.
    Because the counting edges are dressed with e^{+-lam}, the
    derivative matrices repeat with period 2, so m_3 = m_1 (net flux)
    and m_4 = m_2 (exchange activity) identically. Takes one state (5,)
    or a stack (n, 5) with (n,) rates.
    """
    emit_flow = emit_rate * rho[..., 2]
    absorb_flow = absorb_rate * rho[..., 3]
    flux = emit_flow - absorb_flow
    activity = emit_flow + absorb_flow
    return np.stack([flux, activity, flux, activity], axis=-1)


def cumulant_ratios(params: EngineParams, variant: str = "consistent") -> CumulantSet:
    """True cumulants at the operating point, their baseline, and ratios.

    The baseline is the same operating point with both coherence
    channels off; both legs run through the identical code path, so the
    ratios are exactly 1 when the coherences already vanish. A baseline
    cumulant indistinguishable from zero cannot be used to normalize;
    such samples must be discarded upstream.
    """
    j = cumulants(build_generator(params, variant))
    j0 = cumulants(build_generator(params.zero_coherence(), variant))
    if np.any(np.abs(j0) < DEGENERATE_TOL):
        raise DegenerateSampleError(f"degenerate baseline cumulants {j0.tolist()}")
    c = j / j0
    return CumulantSet(j=tuple(j.tolist()), j0=tuple(j0.tolist()), c=tuple(c.tolist()))


def exchange_moment_ratios_batch(varied, fixed: EngineParams = EngineParams(),
                                 variant: str = "consistent"):
    """Features of every row of a (n, 5) parameter array (see
    exchange_moment_ratios), and a {row: error} map of unusable rows.

    Samples and their baselines are solved as one stack, a row's two
    matrices by identical arithmetic: features are bitwise 1.0 at zero
    coherence.
    """
    varied = np.asarray(varied, dtype=float).reshape(-1, 5)
    n = len(varied)
    zero = varied.copy()
    zero[:, 3:] = 0.0
    l0, emit, absorb = build_generators(np.concatenate([varied, zero]), fixed, variant)
    rho, solve_failures = steady_states(l0, variant == "consistent")
    with np.errstate(invalid="ignore", divide="ignore"):
        moments = exchange_moment_rates(emit, absorb, rho)
        m, m0 = moments[:n], moments[n:]
        feats = m / m0
    # A row reports its first failure along the scalar route: the
    # sample's solve, the baseline's solve, a degenerate baseline.
    failures = {i % n: err for i, err in sorted(solve_failures.items(), reverse=True)}
    for i in np.flatnonzero(np.any(np.abs(m0) < DEGENERATE_TOL, axis=1)).tolist():
        failures.setdefault(i, DegenerateSampleError(f"degenerate baseline moments {m0[i].tolist()}"))
    return feats, failures


def exchange_moment_ratios(params: EngineParams, variant: str = "consistent") -> np.ndarray:
    """Classifier features: baseline-normalized exchange moment rates.

    Returns the length-4 vector m_k / m0_k where m0 is evaluated at the
    same operating point with both coherence channels off. Raises when a
    steady state fails or a baseline moment degenerates.
    """
    feats, failures = exchange_moment_ratios_batch(varied_row(params), params, variant)
    if failures:
        raise failures[0]
    return feats[0]
