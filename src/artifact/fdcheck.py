"""Independent finite-difference cross-check of the perturbative cumulants.

This is the oracle path: it must share no algorithm with
`counting.cumulants`. The CGF is evaluated at a ladder of counting
fields by refining the dominant eigenvalue in arbitrary precision
(double-precision finite differences cannot certify a fourth
derivative to 1e-6: the fourth difference divides eigenvalue roundoff
by h^4). Central-difference stencils at steps {1e-2, 5e-3, 2.5e-3} are
then combined by two levels of Richardson extrapolation, cancelling
the h^2 and h^4 error terms.
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


def _det_shifted(rows, s):
    # det(A - s I) by in-place elimination with partial pivoting.
    # mp.det would work too, but its generic-matrix path is ~4x slower
    # and this determinant dominates the oracle's runtime.
    a = [row[:] for row in rows]
    n = len(a)
    for i in range(n):
        a[i][i] -= s
    det = mp.mpf(1)
    for c in range(n):
        p = max(range(c, n), key=lambda r: abs(a[r][c]))
        if a[p][c] == 0:
            return mp.mpf(0)
        if p != c:
            a[c], a[p] = a[p], a[c]
            det = -det
        piv = a[c][c]
        det *= piv
        for r in range(c + 1, n):
            f = a[r][c] / piv
            if f:
                ar, ac = a[r], a[c]
                for k in range(c + 1, n):
                    ar[k] -= f * ac[k]
    return det


def _cgf_mp(gen: TwistedGenerator, lam: float):
    """CGF branch value at `lam`, refined to `_DPS` significant digits.

    Seeds a secant iteration on det(L(lam) - s I) with the
    double-precision dominant eigenvalue; near a simple eigenvalue the
    determinant is locally linear in s, so a handful of iterations
    suffice and the iteration cannot wander to another branch.
    """
    seed, gap = _dominant_eig(gen.eval(lam))
    if gap <= _MIN_GAP:
        raise BranchAmbiguityError(f"spectral gap {gap:.3e} at lam={lam}; oracle cannot track branch")
    with mp.workdps(_DPS):
        rows = [[mp.mpf(float(gen.l0[i, j])) for j in range(5)] for i in range(5)]
        rows[EDGE_ABSORB[0]][EDGE_ABSORB[1]] = mp.mpf(float(gen.absorb_rate)) * mp.e ** (-mp.mpf(lam))
        rows[EDGE_EMIT[0]][EDGE_EMIT[1]] = mp.mpf(float(gen.emit_rate)) * mp.e ** (mp.mpf(lam))

        # The seed is already within ~1e-15 of the root; start the
        # second secant point just outside that error so the first
        # corrected step is meaningful.
        x0 = mp.mpf(float(seed.real))
        x1 = x0 + mp.mpf("1e-12")
        f0 = _det_shifted(rows, x0)
        f1 = _det_shifted(rows, x1)
        tol = mp.mpf(10) ** (2 - _DPS) * max(abs(x0), mp.mpf("1e-3"))
        # `tol` is not always reachable: the determinant's rounding-noise
        # ball around the root scales with the spectrum, not just _DPS, and
        # inside it the secant limit-cycles. Accept the best iterate once
        # the residual stops materially improving while the steps stay
        # far below any scale the stencils can see.
        noise_tol = mp.mpf(10) ** (8 - _DPS) * max(abs(x0), mp.mpf("1e-3"))
        best_x, best_f = x1, abs(f1)
        flat = 0
        for _ in range(30):
            if f1 == f0:
                break
            x0, x1, f0 = x1, x1 - f1 * (x1 - x0) / (f1 - f0), f1
            f1 = _det_shifted(rows, x1)
            fa = abs(f1)
            flat = 0 if 2 * fa < best_f else flat + 1
            if fa < best_f:
                best_x, best_f = x1, fa
            if abs(x1 - x0) < tol:
                break
            if flat >= 6 and abs(x1 - x0) < noise_tol:
                x1 = best_x
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
    values = {lam: _cgf_mp(gen, lam) for lam in lams}
    # The stencils for even derivatives involve S(0). For the rounded
    # float matrix the steady eigenvalue is ~1e-17, not exactly 0, and
    # the fourth difference amplifies that by 6/h^4; it must be measured.
    s0 = _cgf_mp(gen, 0.0)

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
