"""Independent finite-difference cross-check of the perturbative cumulants.

This is the oracle path: it must share no algorithm with
`counting.cumulants`. The CGF is evaluated at a ladder of counting
fields by refining the dominant eigenvalue beyond double precision
(double-precision finite differences cannot certify a fourth
derivative to 1e-6: the fourth difference divides eigenvalue roundoff
by h^4). A secant iteration finds the root of det(L(lam) - s I), and
that determinant is exact: every entry is a binary fraction, so the
matrix is scaled to integers once per ladder point and reduced by
fraction-free elimination. `_DPS` therefore sets only the rounding of
e^{+-lam}, of the shift s and of the secant arithmetic, which takes each
determinant rounded once. The nine secants start from the dominant
eigenvalues of one stacked `eigvals` call over the ladder's matrices.
Central-difference stencils at steps {1e-2, 5e-3, 2.5e-3} are then
combined by two levels of Richardson extrapolation, cancelling the h^2
and h^4 error terms. What depends only on the ladder and the precision
(e^{+-lam}, the secant's nudge and tolerance, the powers of each step)
is rounded once per value of `_DPS`, read at call time.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

import mpmath as mp
import numpy as np

from .engine import EDGE_ABSORB, EDGE_EMIT, TwistedGenerator
from .errors import BranchAmbiguityError

FD_STEPS = (1e-2, 5e-3, 2.5e-3)
# Working precision of the eigenvalue refinement, in significant digits.
_DPS = 25

# Minimum spectral gap between the tracked eigenvalue branch and the
# runner-up before branch identity becomes ambiguous.
_MIN_GAP = 1e-8


class _Ladder(NamedTuple):
    """What `fd_cumulants` needs of the ladder at one working precision."""

    lams: tuple       # the stencil points in ascending order, then 0.0
    edges: dict       # lam -> (e^{-lam}, e^{+lam})
    nudge: mp.mpf     # the secant's second point sits this far above the seed
    tol: tuple        # (factor, floor): the secant exits below factor * max(|seed|, floor)
    powers: tuple     # per step h of FD_STEPS: (2h, h^2, 2h^3, h^4)


@functools.cache
def _ladder(dps: int) -> _Ladder:
    """The ladder's constants, each rounded as it would be at `dps` digits."""
    lams = (*sorted({sign * mult * h for h in FD_STEPS for mult in (1, 2) for sign in (1, -1)}), 0.0)
    with mp.workdps(dps):
        edges = {lam: (mp.e ** (-mp.mpf(lam)), mp.e ** (mp.mpf(lam))) for lam in lams}
        powers = tuple((2 * hh, hh**2, 2 * hh**3, hh**4) for hh in map(mp.mpf, FD_STEPS))
        return _Ladder(lams, edges, mp.mpf("1e-12"), (mp.mpf(10) ** (2 - dps), mp.mpf("1e-3")), powers)


def _dominant_eigs(matrices: np.ndarray):
    """Per matrix of the (m, n, n) stack, the eigenvalue with largest real
    part and its gap to the runner-up, from one stacked `eigvals`."""
    eigs = np.linalg.eigvals(matrices)
    order = np.argsort(eigs.real, axis=-1)
    top = np.take_along_axis(eigs, order[:, -1:], axis=-1)[:, 0]
    second = np.take_along_axis(eigs, order[:, -2:-1], axis=-1)[:, 0]
    return top, top.real - second.real


def _dyadic(x):
    """(man, exp) with man * 2**exp == x exactly, for a float or an mpf."""
    if isinstance(x, float):
        man, den = x.as_integer_ratio()
        return man, 1 - den.bit_length()
    sign, man, exp, _ = x._mpf_
    return (-man if sign else man), exp


def _integer_matrix(rows):
    """(a, e) with a an integer matrix and a * 2**e == A exactly, for A
    given as (man, exp) pairs."""
    e = min(exp for row in rows for _, exp in row)
    return [[man << (exp - e) for man, exp in row] for row in rows], e


def _det_shifted(matrix, s):
    """det(A - s I), exact and rounded once to the working precision.

    `matrix` holds A as `_integer_matrix` gives it. A and s are brought
    to integers over one exponent (A is shifted further only if s needs
    a smaller one) and reduced by fraction-free elimination, whose
    divisions are all exact (Bareiss, Math. Comp. 22, 565 (1968)), so
    only a zero pivot needs a row swap.
    """
    a, e = matrix
    n = len(a)
    s_man, s_exp = _dyadic(s)
    if s_exp < e:
        a = [[v << (e - s_exp) for v in row] for row in a]
        e = s_exp
    else:
        a = [row[:] for row in a]
    s_int = s_man << (s_exp - e)
    for i in range(n):
        a[i][i] -= s_int
    sign, prev = 1, 1
    for c in range(n - 1):
        if a[c][c] == 0:
            p = next((r for r in range(c + 1, n) if a[r][c]), None)
            if p is None:
                return mp.mpf(0)
            a[c], a[p] = a[p], a[c]
            sign = -sign
        ac = a[c]
        piv = ac[c]
        for r in range(c + 1, n):
            ar = a[r]
            f = ar[c]
            for k in range(c + 1, n):
                ar[k] = (ar[k] * piv - f * ac[k]) // prev
        prev = piv
    return mp.mpf((sign * a[n - 1][n - 1], n * e))


def _cgf_mp(gen: TwistedGenerator, l0, lam: float, seed: float):
    """CGF branch value at the ladder point `lam`, refined to `_DPS`
    significant digits.

    `l0` is `gen.l0` as (man, exp) pairs. Runs a secant iteration on
    det(L(lam) - s I) from `seed`, the double-precision dominant
    eigenvalue; near a simple eigenvalue the determinant is locally
    linear in s, so a handful of iterations suffice and the iteration
    cannot wander to another branch.
    """
    ladder = _ladder(_DPS)
    e_minus, e_plus = ladder.edges[lam]
    with mp.workdps(_DPS):
        rows = [row[:] for row in l0]
        rows[EDGE_ABSORB[0]][EDGE_ABSORB[1]] = _dyadic(mp.mpf(float(gen.absorb_rate)) * e_minus)
        rows[EDGE_EMIT[0]][EDGE_EMIT[1]] = _dyadic(mp.mpf(float(gen.emit_rate)) * e_plus)
        matrix = _integer_matrix(rows)

        # The seed is already within ~1e-15 of the root; start the
        # second secant point just outside that error so the first
        # corrected step is meaningful.
        x0 = mp.mpf(seed)
        x1 = x0 + ladder.nudge
        f0 = _det_shifted(matrix, x0)
        f1 = _det_shifted(matrix, x1)
        # The determinant is exact, so the only rounding left is the
        # secant step's own, about three orders below `tol`.
        factor, floor = ladder.tol
        tol = factor * max(abs(x0), floor)
        for _ in range(30):
            if f1 == f0:
                break
            x0, x1, f0 = x1, x1 - f1 * (x1 - x0) / (f1 - f0), f1
            if abs(x1 - x0) < tol:
                break  # converged: the determinant at x1 would go unread
            f1 = _det_shifted(matrix, x1)
        else:
            raise BranchAmbiguityError(f"secant refinement stalled at lam={lam}")
        return x1


def fd_cumulants(gen: TwistedGenerator) -> np.ndarray:
    """First four CGF derivatives at 0 by Richardson-extrapolated differences.

    Each step h of FD_STEPS contributes order-h^2 central stencils built
    from S(+-h) and S(+-2h) (S(0) = 0 by the steady-state zero
    eigenvalue); the extrapolation weights used here need each step to
    halve the one before.
    """
    ladder = _ladder(_DPS)
    l0 = [[_dyadic(v) for v in row] for row in gen.l0.tolist()]
    seeds, gaps = _dominant_eigs(np.stack([gen.eval(lam) for lam in ladder.lams]))
    # The stencils for even derivatives involve S(0), the last point. For
    # the rounded float matrix the steady eigenvalue is ~1e-17, not
    # exactly 0, and the fourth difference amplifies that by 6/h^4; it
    # must be measured.
    values = {}
    for lam, seed, gap in zip(ladder.lams, seeds.real.tolist(), gaps.tolist()):
        if gap <= _MIN_GAP:
            raise BranchAmbiguityError(f"spectral gap {gap:.3e} at lam={lam}; oracle cannot track branch")
        values[lam] = _cgf_mp(gen, l0, lam, seed)
    s0 = values[0.0]

    with mp.workdps(_DPS):
        per_step = []
        for h, (two_h, h2, two_h3, h4) in zip(FD_STEPS, ladder.powers):
            sp1, sm1 = values[h], values[-h]
            sp2, sm2 = values[2 * h], values[-2 * h]
            d1 = (sp1 - sm1) / two_h
            d2 = (sp1 - 2 * s0 + sm1) / h2
            d3 = (sp2 - 2 * sp1 + 2 * sm1 - sm2) / two_h3
            d4 = (sp2 - 4 * sp1 + 6 * s0 - 4 * sm1 + sm2) / h4
            per_step.append((d1, d2, d3, d4))

        out = []
        for i in range(4):
            v1, v2, v3 = (per_step[0][i], per_step[1][i], per_step[2][i])
            r12 = (4 * v2 - v1) / 3
            r23 = (4 * v3 - v2) / 3
            out.append(float((16 * r23 - r12) / 15))
    return np.array(out)
