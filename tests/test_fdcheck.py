import itertools

import mpmath as mp
import numpy as np
import pytest

from artifact import fdcheck
from artifact.counting import cumulants
from artifact.engine import EDGE_ABSORB, EDGE_EMIT, EngineParams, build_generator
from artifact.errors import BranchAmbiguityError
from artifact.fdcheck import _DPS, FD_STEPS, _det_shifted, _dyadic, _integer_matrix, fd_cumulants

import loop_reference
from conftest import random_params


def test_default_ladder_is_halving():
    assert FD_STEPS[0] / FD_STEPS[1] == 2.0
    assert FD_STEPS[1] / FD_STEPS[2] == 2.0


def test_agrees_with_perturbative_cumulants():
    gen = build_generator(EngineParams(t_c=1.0, t_h=3.5, t_l=2.0, p_c=0.5, p_h=0.5))
    ref = cumulants(gen)
    fd = fd_cumulants(gen)
    np.testing.assert_allclose(fd, ref, rtol=1e-9, atol=1e-12)


def test_agrees_on_random_draws(rng):
    # the acceptance gate hammers this over 1000 draws; here a handful
    # is enough to catch a broken stencil or transcription slip
    for _ in range(3):
        gen = build_generator(random_params(rng))
        ref = cumulants(gen)
        fd = fd_cumulants(gen)
        err = np.abs(fd - ref) / np.maximum(np.abs(ref), 1e-300)
        assert err.max() < 1e-8


def test_precision_scales_with_dps(monkeypatch):
    # at very low working precision the fourth difference decays into
    # noise; raising the precision must restore agreement
    gen = build_generator(EngineParams(p_c=0.7, p_h=0.2))
    ref = cumulants(gen)
    monkeypatch.setattr(fdcheck, "_DPS", 8)
    loose = fd_cumulants(gen)
    monkeypatch.setattr(fdcheck, "_DPS", 30)
    tight = fd_cumulants(gen)
    err_loose = abs(loose[3] - ref[3]) / abs(ref[3])
    err_tight = abs(tight[3] - ref[3]) / abs(ref[3])
    assert err_tight < err_loose
    assert err_tight < 1e-9


def _mp_rows(gen, lam):
    # L(lam) as the oracle assembles it: float entries of L(0), the two
    # edges rounded once at _DPS digits
    with mp.workdps(_DPS):
        m = [[mp.mpf(v) for v in row] for row in gen.l0.tolist()]
        m[EDGE_ABSORB[0]][EDGE_ABSORB[1]] = mp.mpf(gen.absorb_rate) * mp.e ** (-mp.mpf(lam))
        m[EDGE_EMIT[0]][EDGE_EMIT[1]] = mp.mpf(gen.emit_rate) * mp.e ** mp.mpf(lam)
    return m


def _exact_det(m, s):
    # mp.det at 100 digits, far beyond the entries' 86-bit mantissas,
    # rounded to _DPS like the oracle's single rounding
    with mp.workdps(100):
        d = mp.det(mp.matrix(m) - s * mp.eye(len(m)))
    with mp.workdps(_DPS):
        return +d


def _det(m, s):
    with mp.workdps(_DPS):
        return _det_shifted(_integer_matrix([[_dyadic(v) for v in row] for row in m]), s)


def test_exact_determinant_matches_high_precision_det(rng):
    for _ in range(50):
        gen = build_generator(random_params(rng))
        for lam in (0.0, 0.02, -0.0025):
            m = _mp_rows(gen, lam)
            top = float(np.max(np.linalg.eigvals(gen.eval(lam)).real))
            with mp.workdps(_DPS):
                shifts = (mp.mpf(top), mp.mpf(top) + mp.mpf("1e-12"),
                          mp.mpf(rng.uniform(-5.0, 1.0)) / 3, mp.mpf(0))
            for s in shifts:
                assert _det(m, s) == _exact_det(m, s)
            # with (2, 2) moved to the front, s equal to that entry zeroes
            # the leading pivot, so the elimination must swap rows
            order = (2, 0, 1, 3, 4)
            moved = [[m[i][j] for j in order] for i in order]
            s = moved[0][0]
            assert _det(moved, s) == _exact_det(moved, s) != 0


def test_exact_determinant_of_singular_matrix_is_zero(rng):
    m = _mp_rows(build_generator(random_params(rng)), 0.01)
    # L(0) has equal (0, 0) and (1, 1) entries and rows 0 and 1 differ
    # only there, so shifting by that entry makes the two rows equal
    assert _det(m, m[0][0]) == 0
    duplicate_row = [row[:] for row in m]
    duplicate_row[1] = duplicate_row[3][:]
    zero_column = [[mp.mpf(0)] + row[1:] for row in m]
    for singular in (duplicate_row, zero_column):
        assert _det(singular, mp.mpf(0)) == 0
        assert _det(singular, mp.mpf(0.5)) == _exact_det(singular, mp.mpf(0.5)) != 0


def test_agrees_with_mpf_elimination_reference(rng, monkeypatch):
    gens = [build_generator(random_params(rng)) for _ in range(50)]
    exact = [fd_cumulants(gen) for gen in gens]
    monkeypatch.setattr(fdcheck, "_cgf_mp", lambda gen, l0, lam, seed: loop_reference.cgf_mp(gen, lam))
    for gen, fd in zip(gens, exact):
        np.testing.assert_allclose(fd, fd_cumulants(gen), rtol=1e-10, atol=0)


def test_matches_per_point_refinement_bitwise(rng, monkeypatch):
    # the constants are cached per precision: after a run at 8 digits,
    # the 25-digit results must not take any of the 8-digit ones
    gens = [build_generator(random_params(rng)) for _ in range(50)]
    for dps in (_DPS, 8, _DPS):
        monkeypatch.setattr(fdcheck, "_DPS", dps)
        for gen in gens:
            assert fd_cumulants(gen).tobytes() == loop_reference.fd_cumulants(gen, dps).tobytes(), dps


def test_narrow_gap_refuses_the_first_ladder_point(monkeypatch):
    # the ladder runs in ascending order, so -2 * FD_STEPS[0] fails first
    monkeypatch.setattr(fdcheck, "_MIN_GAP", 1e9)
    gen = build_generator(EngineParams())
    with pytest.raises(BranchAmbiguityError, match=r"at lam=-0\.02; oracle cannot track branch"):
        fd_cumulants(gen)


def test_flat_determinant_ends_the_secant_at_once(monkeypatch):
    # equal determinants at the seed and the nudged seed leave nothing
    # to refine: each of the nine ladder points takes two determinants
    # and returns the nudged double-precision seed
    calls = []

    def flat(*args):
        calls.append(args)
        return mp.mpf(1)

    gen = build_generator(EngineParams(t_c=1.0, t_h=3.5, t_l=2.0, p_c=0.5, p_h=0.5))
    refined = fd_cumulants(gen)
    monkeypatch.setattr(fdcheck, "_det_shifted", flat)
    unrefined = fd_cumulants(gen)
    assert len(calls) == 2 * 9
    # the nudge cancels in every stencil; the unrefined seeds still give
    # the mean current, but not the refined fourth difference
    assert unrefined[0] == pytest.approx(refined[0], rel=1e-8)
    assert unrefined[3] != refined[3]


def test_unsettled_secant_is_refused(monkeypatch):
    # a determinant that alternates between 1 and 2 doubles the secant
    # step every two iterations, so it never drops below the tolerance
    values = itertools.cycle([mp.mpf(1), mp.mpf(2)])
    monkeypatch.setattr(fdcheck, "_det_shifted", lambda *args: next(values))
    gen = build_generator(EngineParams())
    with pytest.raises(BranchAmbiguityError, match=r"secant refinement stalled at lam=-0\.02$"):
        fd_cumulants(gen)
