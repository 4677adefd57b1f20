"""Independent finite-difference cross-check of the perturbative cumulants.

This is the oracle path: it must share no algorithm with
`counting.cumulants`. The CGF is evaluated at a ladder of counting
fields by refining the dominant eigenvalue beyond double precision
(double-precision finite differences cannot certify a fourth
derivative to 1e-6: the fourth difference divides eigenvalue roundoff
by h^4). A secant iteration, seeded from one stacked `eigvals` call over
the ladder, finds the root of det(L(lam) - s I), and that determinant is
exact. Only the counted entries x, y = rate e^{sign lam} (engine.COUNTED)
move with lam, and a determinant is affine in each entry, so per draw
det(L(lam) - s I) = D0 + x D1 + y D2 + x y D3 with integer polynomials D
in s. Each secant step sums its point's polynomial in integers and
rounds the exact binary fraction once, as exact elimination would, so
`_DPS` sets only the rounding of e^{sign lam}, x, y, s and the secant
arithmetic. Central-difference stencils at steps {1e-2, 5e-3, 2.5e-3}
are combined by two levels of Richardson extrapolation, cancelling the
h^2 and h^4 error terms. Constants of the ladder and the precision are
rounded once per value of `_DPS`, read at call time.

The multiprecision arithmetic runs on mpmath's raw values, the
(sign, man, exp, bc) tuples behind `mpf`, through `mpmath.libmp`: each
operation is the one the `mpf` operator would call inside
`mp.workdps(_DPS)`, rounded to nearest at the ladder's precision in
bits, so the results are the same bits without the objects and the
global context. Only `_ladder` enters `mp.workdps`, once per precision,
to round its constants; no step of a draw reads or sets `mp.dps`.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

import mpmath as mp
import numpy as np
from mpmath.libmp import (from_float, from_int, from_man_exp, mpf_abs, mpf_add, mpf_div, mpf_eq, mpf_lt,
                          mpf_mul, mpf_mul_int, mpf_sub, to_float)

from .engine import COUNTED, TwistedGenerator
from .errors import BranchAmbiguityError

FD_STEPS = (1e-2, 5e-3, 2.5e-3)
# Working precision of the eigenvalue refinement, in significant digits.
_DPS = 25

# Minimum spectral gap between the tracked eigenvalue branch and the
# runner-up before branch identity becomes ambiguous.
_MIN_GAP = 1e-8


class _Ladder(NamedTuple):
    """What `fd_cumulants` needs of the ladder at one working precision,
    each constant a raw mpmath value."""

    prec: int         # the precision in bits, as `mp.workdps` sets it for the digits
    lams: tuple       # the stencil points in ascending order, then 0.0
    edges: dict       # lam -> e^{sign lam} of each counted edge, in COUNTED order
    nudge: tuple      # the secant's second point sits this far above the seed
    tol: tuple        # (factor, floor): the secant exits below factor * max(|seed|, floor)
    powers: tuple     # per step h of FD_STEPS: (2h, h^2, 2h^3, h^4)


@functools.cache
def _ladder(dps: int) -> _Ladder:
    """The ladder's constants, each rounded as it would be at `dps` digits."""
    lams = (*sorted({sign * mult * h for h in FD_STEPS for mult in (1, 2) for sign in (1, -1)}), 0.0)
    with mp.workdps(dps):
        edges = {lam: tuple(mp.e ** mp.mpf(sign * lam) for _, sign in COUNTED) for lam in lams}
        powers = [(2 * hh, hh**2, 2 * hh**3, hh**4) for hh in map(mp.mpf, FD_STEPS)]
        nudge, tol, prec = mp.mpf("1e-12"), (mp.mpf(10) ** (2 - dps), mp.mpf("1e-3")), mp.mp.prec

    def raw(values):
        return tuple(v._mpf_ for v in values)
    return _Ladder(prec, lams, {lam: raw(e) for lam, e in edges.items()}, nudge._mpf_, raw(tol),
                   tuple(map(raw, powers)))


def _dominant_eigs(matrices: np.ndarray):
    """Per matrix of the (m, n, n) stack, the eigenvalue with largest real
    part and its gap to the runner-up, from one stacked `eigvals`."""
    eigs = np.linalg.eigvals(matrices)
    order = np.argsort(eigs.real, axis=-1)
    top = np.take_along_axis(eigs, order[:, -1:], axis=-1)[:, 0]
    second = np.take_along_axis(eigs, order[:, -2:-1], axis=-1)[:, 0]
    return top, top.real - second.real


def _dyadic(x):
    """(man, exp) with man * 2**exp == x exactly, for a float or a raw mpf."""
    if isinstance(x, float):
        man, den = x.as_integer_ratio()
        return man, 1 - den.bit_length()
    sign, man, exp, _ = x
    return (-man if sign else man), exp


def _integer_matrix(rows):
    """(a, e) with a an integer matrix and a * 2**e == A exactly, for A
    given as (man, exp) pairs."""
    e = min(exp for row in rows for _, exp in row)
    return [[man << (exp - e) for man, exp in row] for row in rows], e


def _char_poly(a, p=(1,)):
    """det(a - t I) of the integer matrix a, as integer coefficients with
    the highest power of t first, by Berkowitz's division-free recursion
    over a's leading blocks (Inf. Process. Lett. 18, 147 (1984)). `p` is
    the polynomial of a's leading len(p) - 1 block, if already known."""
    for r in range(len(p) - 1, len(a)):
        col = [row[r] for row in a[:r]]
        q = [-1, a[r][r]]
        for _ in range(r):
            q.append(sum(u * v for u, v in zip(a[r], col)))
            col = [sum(u * v for u, v in zip(row, col)) for row in a[:r]]
        p = [sum(q[i - j] * p[j] for j in range(min(i, r) + 1)) for i in range(r + 2)]
    return p


def _ladder_polys(gen: TwistedGenerator, ladder: _Ladder) -> dict:
    """lam -> (c, e) with det(L(lam) - s I) == 2**(5e) sum_k c[k] (s / 2**e)**(5 - k),
    for L(0) and every point's x, y over one exponent e. The D are taken
    from the four corners x, y in {0, 1} by inclusion-exclusion; with the
    counted indices last, the corners share all but Berkowitz's last step."""
    prec = ladder.prec
    x_rate, y_rate = (from_float(float(gen.l0[edge]), prec, "n") for edge, _ in COUNTED)
    counted = [(_dyadic(mpf_mul(x_rate, x_factor, prec, "n")), _dyadic(mpf_mul(y_rate, y_factor, prec, "n")))
               for x_factor, y_factor in ladder.edges.values()]
    n = len(gen.l0)  # L(0)'s rows, then the (x, y) of each ladder point
    rows, e = _integer_matrix([*([_dyadic(v) for v in row] for row in gen.l0.tolist()), *counted])
    order = [i for i in range(n) if i not in COUNTED[0][0]] + list(COUNTED[0][0])
    a = [[rows[i][j] for j in order] for i in order]
    head, corners = _char_poly(a[:-1]), []
    for x, y in ((0, 0), (1, 0), (0, 1), (1, 1)):
        a[-2][-1], a[-1][-2] = x, y  # x's counted edge, and its transpose, y's
        corners.append(_char_poly(a, head))
    d = [(p00, p10 - p00, p01 - p00, p11 - p10 - p01 + p00) for p00, p10, p01, p11 in zip(*corners)]
    return {lam: ([d0 + x * d1 + y * (d2 + x * d3) for d0, d1, d2, d3 in d], e)
            for lam, (x, y) in zip(ladder.edges, rows[n:])}


def _det_shifted(poly, s, prec):
    """det(A - s I), exact and rounded once to nearest at `prec` bits, for
    A's (c, e) from `_ladder_polys` and a raw s. Horner's rule runs in
    integers on the finer of the grids 2**e and s's own, and
    `from_man_exp` rounds the exact sum once, as it would round exact
    elimination of A - s I."""
    c, e = poly
    s_man, s_exp = _dyadic(s)
    g = min(e, s_exp)
    t, d = s_man << (s_exp - g), e - g
    acc = 0
    for k, ck in enumerate(c):
        acc = acc * t + (ck << d * k)
    return from_man_exp(acc, (len(c) - 1) * g, prec, "n")


def _cgf_mp(poly, lam: float, seed: float):
    """CGF branch value at the ladder point `lam`, refined to `_DPS` digits
    by a secant iteration on `poly`, the point's det(L(lam) - s I), from
    `seed`, the double-precision dominant eigenvalue. Near a simple
    eigenvalue the determinant is locally linear in s, so a handful of
    iterations suffice and the iteration cannot wander to another branch.
    """
    ladder = _ladder(_DPS)
    prec = ladder.prec
    # The seed is already within ~1e-15 of the root; start the second
    # secant point just outside that error so the first corrected step
    # is meaningful.
    x0 = from_float(seed, prec, "n")
    x1 = mpf_add(x0, ladder.nudge, prec, "n")
    f0 = _det_shifted(poly, x0, prec)
    f1 = _det_shifted(poly, x1, prec)
    # The determinant is exact, so the only rounding left is the secant
    # step's own, about three orders below `tol`.
    factor, floor = ladder.tol
    size = mpf_abs(x0, prec, "n")
    tol = mpf_mul(factor, floor if mpf_lt(size, floor) else size, prec, "n")
    for _ in range(30):
        if mpf_eq(f1, f0):
            break
        # x1 - f1 (x1 - x0) / (f1 - f0)
        step = mpf_div(mpf_mul(f1, mpf_sub(x1, x0, prec, "n"), prec, "n"),
                       mpf_sub(f1, f0, prec, "n"), prec, "n")
        x0, x1, f0 = x1, mpf_sub(x1, step, prec, "n"), f1
        if mpf_lt(mpf_abs(mpf_sub(x1, x0, prec, "n"), prec, "n"), tol):
            break  # converged: the determinant at x1 would go unread
        f1 = _det_shifted(poly, x1, prec)
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
    seeds, gaps = _dominant_eigs(np.stack([gen.eval(lam) for lam in ladder.lams]))
    # The stencils for even derivatives involve S(0), the last point. For
    # the rounded float matrix the steady eigenvalue is ~1e-17, not
    # exactly 0, and the fourth difference amplifies that by 6/h^4; it
    # must be measured.
    polys, values = _ladder_polys(gen, ladder), {}
    for lam, seed, gap in zip(ladder.lams, seeds.real.tolist(), gaps.tolist()):
        if gap <= _MIN_GAP:
            raise BranchAmbiguityError(f"spectral gap {gap:.3e} at lam={lam}; oracle cannot track branch")
        values[lam] = _cgf_mp(polys[lam], lam, seed)
    s0 = values[0.0]

    prec = ladder.prec

    def add(a, b):
        return mpf_add(a, b, prec, "n")

    def sub(a, b):
        return mpf_sub(a, b, prec, "n")

    def div(a, b):
        return mpf_div(a, b, prec, "n")

    def times(k, a):  # an int times a raw value, as `k * mpf` rounds it
        return mpf_mul_int(a, k, prec, "n")

    # The stencils, each summed left to right as its operators would be:
    # (sp1 - sm1) / 2h, (sp1 - 2 s0 + sm1) / h^2,
    # (sp2 - 2 sp1 + 2 sm1 - sm2) / 2h^3 and (sp2 - 4 sp1 + 6 s0 - 4 sm1 + sm2) / h^4.
    per_step = []
    for h, (two_h, h2, two_h3, h4) in zip(FD_STEPS, ladder.powers):
        sp1, sm1 = values[h], values[-h]
        sp2, sm2 = values[2 * h], values[-2 * h]
        per_step.append((div(sub(sp1, sm1), two_h),
                         div(add(sub(sp1, times(2, s0)), sm1), h2),
                         div(sub(add(sub(sp2, times(2, sp1)), times(2, sm1)), sm2), two_h3),
                         div(add(sub(add(sub(sp2, times(4, sp1)), times(6, s0)), times(4, sm1)), sm2), h4)))
    out = []
    for v1, v2, v3 in zip(*per_step):
        # r12 = (4 v2 - v1) / 3, r23 = (4 v3 - v2) / 3, then (16 r23 - r12) / 15
        r12, r23 = div(sub(times(4, v2), v1), from_int(3)), div(sub(times(4, v3), v2), from_int(3))
        # `float(mpf)` rounds to nearest; `to_float` would round down by default
        out.append(to_float(div(sub(times(16, r23), r12), from_int(15)), rnd="n"))
    return np.array(out)
