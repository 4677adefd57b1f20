"""Steady state, cumulants, and feature ratios.

Two quantities flow out of this module.

* True counting cumulants j[1..4]: lam-derivatives at 0 of the
  generator's dominant eigenvalue branch, computed by non-degenerate
  eigenvalue perturbation theory (no step-size tuning, machine-precision
  capable; `cumulants` is the length-1 case of `cumulants_batch`). These
  characterize the long-time photon-exchange distribution.

* Exchange moment rates m[1..4]: contractions of the lam-derivatives
  of the generator with the frozen steady state,
  m_k = u . (d^k L / d lam^k) . rho.
  These are the raw moment rates of the instantaneous jump current. L_k
  holds each counted edge's rate times sign^k (engine.COUNTED), and
  sign^2 = 1, so odd orders equal the net flux (m_1 is exactly j_1) and
  even orders the total exchange activity. Their baseline-normalized
  ratios are the classifier features, in a narrow window around 1 across
  the whole parameter box, which makes the coherence mapping learnable.
"""

from __future__ import annotations

from functools import partial
from math import comb

import numpy as np

from . import workers
from .engine import (COHERENCE, COUNTED, TRACE_VECTOR, VARIED, EngineParams, TwistedGenerator, build_generators,
                     varied_row)
from .errors import ConditioningError, DegenerateSampleError, SingularityError, as_reals

# A baseline moment below this magnitude cannot normalize a feature.
DEGENERATE_TOL = 1e-12

_COND_LIMIT = 1e12

# L_m holds each counted edge's L(0) rate times sign^m, _SIGNS[m - 1]. Any two indices i, j step evenly, so the
# edges' rows and columns are slices: L_m v fills the rows from v at the columns through views, not gathers.
_ROWS, _COLS = (slice(i, 2 * j - i if 2 * j >= i else None, j - i) for i, j in zip(*(edge for edge, _ in COUNTED)))
_SIGNS = np.array([[[sign ** m for _, sign in COUNTED]] for m in range(1, 5)])
_COMB = {k: np.array([comb(k, m) for m in range(1, k + 1)], dtype=float)[:, None, None] for k in range(1, 5)}

# Matrices a stack needs before its SVD is split across the workers: a
# 5x5 SVD takes about 4 us, and handing jobs to the pool about 20 us.
_SPLIT_MATRICES = 32
# Matrices per part at most: memory a worker thread allocates stays with
# it once freed (glibc keeps an arena per thread), and the arrays of 256
# 5x5 SVDs take about 0.1 MB.
_PART_MATRICES = 256


def _svd(l0: np.ndarray) -> tuple:
    """(s, vt) of a stack of square matrices. A stack of at least
    `_SPLIT_MATRICES` goes to the workers in contiguous parts, at least
    one per worker and at most `_PART_MATRICES` each. Numpy's batched SVD
    gives every matrix the bits of its own SVD, so the parts change
    nothing."""
    if len(l0) < _SPLIT_MATRICES or workers.count() < 2:
        return np.linalg.svd(l0)[1:]
    s, vt = np.empty(l0.shape[:2]), np.empty(l0.shape)

    def part(rows):
        _, s[rows], vt[rows] = np.linalg.svd(l0[rows])

    parts = max(workers.count(), -(-len(l0) // _PART_MATRICES))
    workers.run(partial(part, rows) for rows in workers.spans(len(l0), parts))
    return s, vt


def steady_states(l0: np.ndarray):
    """Null vectors of a (n, 5, 5) stack of L(0), populations summing to 1.

    Returns the (n, 5) states and a {row: error} map of the rows failing
    a check. Batched SVDs (`_svd`), bitwise equal to per-matrix SVDs,
    give the null spaces; a second near-zero singular value means the
    generator is defective for this purpose. The populations must lie in
    [0, 1]: the legacy-conserving layout violates that bound on some
    parameter draws, which is exactly why it is not the default. A stack
    that is no (n, 5, 5) array of finite reals is a DomainError.
    """
    l0 = as_reals(l0, "l0", ("n", 5, 5), "(-inf, inf)")
    s, vt = _svd(l0)
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
        ((rho[:, :4].min(axis=1) < -1e-9) | (rho[:, :4].max(axis=1) > 1.0 + 1e-9),
         lambda i: f"unphysical populations {rho[i, :4]}"),
    ]
    failures = {}
    for bad, message in checks:
        for i in bad.nonzero()[0].tolist():
            failures.setdefault(i, SingularityError(message(i)))
    return rho, failures


def steady_state(gen: TwistedGenerator) -> np.ndarray:
    """Stationary state (5,) of one generator (see steady_states)."""
    rho, failures = steady_states(gen.l0[None])
    if failures:
        raise failures[0]
    return rho[0]


def cumulants_batch(l0: np.ndarray):
    """CGF derivatives j[1..4] at lam = 0 of each L(0) of a (n, 5, 5) stack,
    as (n, 4), and a {row: error} map of the rows that have none (NaN): a
    steady-state failure (steady_states), else a ConditioningError. Around
    the steady state rho (u . rho = 1, u the trace vector), the orders s_k
    of S and rho_k of the null vector obey

        s_k   = sum_{m=1..k} C(k,m) u . L_m . rho_{k-m}
        L0 rho_k = sum_{m=1..k} C(k,m) (s_m - L_m) rho_{k-m},  u . rho_k = 0

    with L_m = d^m L / d lam^m: L(0)'s rate on each counted edge times its
    sign^m (engine.COUNTED). Each order solves the 6x6 [[L0, rho], [u, 0]].
    """
    rho, failures = steady_states(l0)
    bordered = np.zeros((len(rho), 6, 6))
    bordered[:, :5, :5], bordered[:, :5, 5], bordered[:, 5, :5] = l0, rho, TRACE_VECTOR
    if failures:  # identity stand-ins: one NaN row would make the stacked cond raise for all
        bordered[list(failures)] = np.eye(6)
    cond = np.linalg.cond(bordered)
    for i in (cond > _COND_LIMIT).nonzero()[0].tolist():
        failures.setdefault(i, ConditioningError(f"bordered system condition number {cond[i]:.3e} "
                                                 f"exceeds {_COND_LIMIT:.0e}"))
    if failures:  # the solve takes the rows left: one singular row would make it raise for all
        live = np.ones(len(cond), dtype=bool)
        live[list(failures)] = False
        bordered, rho = bordered[live], rho[live]
    signed = bordered[:, _ROWS, _COLS].diagonal(axis1=1, axis2=2) * _SIGNS  # [m - 1]: L_m's rates
    v, s, rhs = np.empty((5, len(rho), 5)), np.empty((len(rho), 5)), np.zeros((len(rho), 6, 1))
    v[0] = rho  # v[k] is rho_k, s[:, k] is s_k
    for k in range(1, 5):
        c = _COMB[k]
        lv = signed[:k] * v[k - 1::-1, :, _COLS]  # L_m rho_{k-m} on _ROWS, for m = 1..k
        np.add.reduce(c[:, :, 0] * np.add.reduce(lv, axis=-1), axis=0, out=s[:, k])
        terms = s[:, 1:k + 1].T[:, :, None] * v[k - 1::-1]
        terms[..., _ROWS] -= lv
        terms *= c
        np.add.reduce(terms, axis=0, out=rhs[:, :5, 0])
        v[k] = np.linalg.solve(bordered, rhs)[:, :5, 0]
    j = s[:, 1:] + 0.0  # s_k sums from 0.0: adding it last gives the same bits
    if failures:
        j, rows = np.full((len(cond), 4), np.nan), j
        j[live] = rows
    return j, failures


def cumulants(gen: TwistedGenerator) -> np.ndarray:
    """First four cumulants (4,) of one generator (see cumulants_batch)."""
    j, failures = cumulants_batch(gen.l0[None])
    if failures:
        raise failures[0]
    return j[0]


def exchange_moment_rates(l0: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Raw moment rates m[1..4] of the instantaneous photon-exchange current.

    m_k = u . L_k . rho contracts the k-th counting derivative of the
    generator with the steady state `rho`: each counted edge's flow, its
    L(0) rate times rho at its column, times its sign^k. The signs are
    +-1, so sign^2 = 1 and the moments repeat with period 2: m_3 = m_1
    (net flux) and m_4 = m_2 (exchange activity) identically. Takes one
    L(0) (5, 5) and state (5,), or stacks of them.
    """
    flows = l0[..., _ROWS, _COLS].diagonal(axis1=-2, axis2=-1) * rho[..., _COLS]
    terms = flows[..., None, :] * _SIGNS[:, 0]
    return terms[..., 0] + terms[..., 1]  # one binary +: a reduction would turn a -0.0 sum to +0.0


def exchange_moment_ratios_batch(varied, fixed: EngineParams = EngineParams()):
    """Features of every row of a (n, 5) parameter array (see
    exchange_moment_ratios), and a {row: error} map of unusable rows.

    Samples and their baselines are solved as one stack, a row's two
    matrices by identical arithmetic: features are bitwise 1.0 at zero
    coherence.
    """
    varied = as_reals(varied, "varied", ("n", len(VARIED)))
    n = len(varied)
    zero = varied.copy()
    zero[:, [VARIED.index(name) for name in COHERENCE]] = 0.0
    l0 = build_generators(np.concatenate([varied, zero]), fixed)
    rho, solve_failures = steady_states(l0)
    with np.errstate(invalid="ignore", divide="ignore"):
        moments = exchange_moment_rates(l0, rho)
        m, m0 = moments[:n], moments[n:]
        feats = m / m0
    # A row reports its first failure along the scalar route: the
    # sample's solve, the baseline's solve, a degenerate baseline.
    failures = {i % n: err for i, err in sorted(solve_failures.items(), reverse=True)}
    for i in np.flatnonzero(np.any(np.abs(m0) < DEGENERATE_TOL, axis=1)).tolist():
        failures.setdefault(i, DegenerateSampleError(f"degenerate baseline moments {m0[i].tolist()}"))
    return feats, failures


def exchange_moment_ratios(params: EngineParams) -> np.ndarray:
    """Classifier features: baseline-normalized exchange moment rates.

    Returns the length-4 vector m_k / m0_k where m0 is evaluated at the
    same operating point with both coherence channels off. Raises when a
    steady state fails or a baseline moment degenerates.
    """
    feats, failures = exchange_moment_ratios_batch(varied_row(params), params)
    if failures:
        raise failures[0]
    return feats[0]
