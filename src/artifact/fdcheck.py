"""Independent finite-difference cross-check of the perturbative cumulants.

This is the oracle path: it must share no algorithm with
`counting.cumulants`. The CGF is evaluated at a ladder of counting
fields by refining the dominant eigenvalue beyond double precision
(double-precision finite differences cannot certify a fourth
derivative to 1e-6: the fourth difference divides eigenvalue roundoff
by h^4). A secant iteration finds the root of det(L(lam) - s I), and
that determinant is exact: every entry is a binary fraction, so the
matrix is scaled to integers and reduced by fraction-free elimination.
`_DPS` therefore sets only the rounding of e^{+-lam}, of the shift s
and of the secant arithmetic, which takes each determinant rounded once.
Central-difference stencils at steps {1e-2, 5e-3, 2.5e-3} are then
combined by two levels of Richardson extrapolation, cancelling the h^2
and h^4 error terms.
"""

from __future__ import annotations

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


def _dominant_eig(matrix: np.ndarray):
    """Eigenvalue with largest real part plus its gap to the runner-up."""
    eigs = np.linalg.eigvals(matrix)
    order = np.argsort(eigs.real)
    top, second = eigs[order[-1]], eigs[order[-2]]
    return top, float(top.real - second.real)


def _dyadic(x):
    """(man, exp) with man * 2**exp == x exactly, for a float or an mpf."""
    if isinstance(x, float):
        man, den = x.as_integer_ratio()
        return man, 1 - den.bit_length()
    sign, man, exp, _ = x._mpf_
    return (-man if sign else man), exp


def _det_shifted(rows, s):
    """det(A - s I), exact and rounded once to the working precision.

    `rows` holds A as (man, exp) pairs. A and s are scaled to integers
    over one exponent and reduced by fraction-free elimination, whose
    divisions are all exact (Bareiss, Math. Comp. 22, 565 (1968)), so
    only a zero pivot needs a row swap.
    """
    n = len(rows)
    s_man, s_exp = _dyadic(s)
    e = min(s_exp, min(exp for row in rows for _, exp in row))
    a = [[man << (exp - e) for man, exp in row] for row in rows]
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


def _cgf_mp(gen: TwistedGenerator, l0, lam: float):
    """CGF branch value at `lam`, refined to `_DPS` significant digits.

    `l0` is `gen.l0` as (man, exp) pairs. Seeds a secant iteration on
    det(L(lam) - s I) with the double-precision dominant eigenvalue;
    near a simple eigenvalue the determinant is locally linear in s, so
    a handful of iterations suffice and the iteration cannot wander to
    another branch.
    """
    seed, gap = _dominant_eig(gen.eval(lam))
    if gap <= _MIN_GAP:
        raise BranchAmbiguityError(f"spectral gap {gap:.3e} at lam={lam}; oracle cannot track branch")
    with mp.workdps(_DPS):
        rows = [row[:] for row in l0]
        rows[EDGE_ABSORB[0]][EDGE_ABSORB[1]] = _dyadic(
            mp.mpf(float(gen.absorb_rate)) * mp.e ** (-mp.mpf(lam)))
        rows[EDGE_EMIT[0]][EDGE_EMIT[1]] = _dyadic(
            mp.mpf(float(gen.emit_rate)) * mp.e ** (mp.mpf(lam)))

        # The seed is already within ~1e-15 of the root; start the
        # second secant point just outside that error so the first
        # corrected step is meaningful.
        x0 = mp.mpf(float(seed.real))
        x1 = x0 + mp.mpf("1e-12")
        f0 = _det_shifted(rows, x0)
        f1 = _det_shifted(rows, x1)
        # The determinant is exact, so the only rounding left is the
        # secant step's own, about three orders below `tol`.
        tol = mp.mpf(10) ** (2 - _DPS) * max(abs(x0), mp.mpf("1e-3"))
        for _ in range(30):
            if f1 == f0:
                break
            x0, x1, f0 = x1, x1 - f1 * (x1 - x0) / (f1 - f0), f1
            f1 = _det_shifted(rows, x1)
            if abs(x1 - x0) < tol:
                break
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
    lams = sorted({sign * mult * h for h in FD_STEPS for mult in (1, 2) for sign in (1, -1)})
    l0 = [[_dyadic(v) for v in row] for row in gen.l0.tolist()]
    values = {lam: _cgf_mp(gen, l0, lam) for lam in lams}
    # The stencils for even derivatives involve S(0). For the rounded
    # float matrix the steady eigenvalue is ~1e-17, not exactly 0, and
    # the fourth difference amplifies that by 6/h^4; it must be measured.
    s0 = _cgf_mp(gen, l0, 0.0)

    with mp.workdps(_DPS):
        per_step = []
        for h in FD_STEPS:
            hh = mp.mpf(h)
            sp1, sm1 = values[h], values[-h]
            sp2, sm2 = values[2 * h], values[-2 * h]
            d1 = (sp1 - sm1) / (2 * hh)
            d2 = (sp1 - 2 * s0 + sm1) / hh**2
            d3 = (sp2 - 2 * sp1 + 2 * sm1 - sm2) / (2 * hh**3)
            d4 = (sp2 - 4 * sp1 + 6 * s0 - 4 * sm1 + sm2) / hh**4
            per_step.append((d1, d2, d3, d4))

        out = []
        for i in range(4):
            v1, v2, v3 = (per_step[0][i], per_step[1][i], per_step[2][i])
            r12 = (4 * v2 - v1) / 3
            r23 = (4 * v3 - v2) / 3
            out.append(float((16 * r23 - r12) / 15))
    return np.array(out)
