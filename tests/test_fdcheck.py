import itertools

import mpmath as mp
import numpy as np
import pytest
from mpmath.libmp import fone, from_int, fzero

from artifact import fdcheck
from artifact.counting import cumulants
from artifact.engine import EDGE_ABSORB, EDGE_EMIT, EngineParams, build_generator
from artifact.errors import BranchAmbiguityError
from artifact.fdcheck import (_DPS, FD_STEPS, _char_poly, _det_shifted, _dyadic, _integer_matrix,
                              _ladder, _ladder_polys, fd_cumulants)

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


# fd_cumulants of three seeded draws as float.hex, recorded while the secant
# still took a determinant at the iterate it returns
RECORDED = {
    0: ["0x1.3e8fb9d479a65p-6", "0x1.637f0f03b024fp-5", "0x1.58f1107601495p-7", "0x1.5b00713430d59p-6"],
    1: ["0x1.a9937b33fa3b8p-6", "0x1.c54ca95a2a4d0p-5", "0x1.0d86e6098fbf4p-6", "0x1.e160aaf5963c1p-6"],
    2: ["0x1.1fb6d8e04b59cp-6", "0x1.2642217abb778p-5", "0x1.39753b5f64390p-7", "0x1.24f6292d48c38p-6"],
}


@pytest.mark.parametrize("seed", RECORDED)
def test_seeded_draws_keep_their_recorded_bits(seed):
    gen = build_generator(random_params(np.random.default_rng(seed)))
    assert [v.hex() for v in fd_cumulants(gen).tolist()] == RECORDED[seed]


@pytest.mark.parametrize("dps", [5, 60])
def test_draws_do_not_depend_on_the_callers_precision(dps):
    # the route sets its own precision and reads no global one: built and
    # run under a caller's working precision, the ladder gives the
    # recorded bits and leaves that precision as it was
    _ladder.cache_clear()
    with mp.workdps(dps):
        for seed, want in RECORDED.items():
            gen = build_generator(random_params(np.random.default_rng(seed)))
            assert [v.hex() for v in fd_cumulants(gen).tolist()] == want
            assert mp.mp.dps == dps


def test_the_returned_iterate_takes_no_determinant(monkeypatch):
    # the secant stops once its step is below the tolerance, before the
    # determinant at the new iterate, which nothing would read
    shifts, returned = [], []
    det, cgf = fdcheck._det_shifted, fdcheck._cgf_mp

    def recorded_det(poly, s, prec):
        shifts.append(s)
        return det(poly, s, prec)

    def recorded_cgf(*args):
        returned.append(cgf(*args))
        return returned[-1]

    monkeypatch.setattr(fdcheck, "_det_shifted", recorded_det)
    monkeypatch.setattr(fdcheck, "_cgf_mp", recorded_cgf)
    fd_cumulants(build_generator(EngineParams()))
    assert len(returned) == 9 and not set(returned) & set(shifts)


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


def _dyadic_rows(m):
    return [[_dyadic(v._mpf_) for v in row] for row in m]


def _exact_det(m, s):
    # mp.det at 100 digits, far beyond the entries' 86-bit mantissas,
    # rounded to _DPS like the oracle's single rounding, as a raw value
    with mp.workdps(100):
        d = mp.det(mp.matrix(m) - s * mp.eye(len(m)))
    with mp.workdps(_DPS):
        return (+d)._mpf_


def _det(m, s):
    # the polynomial route at the ladder's precision, held on every call
    # against exact elimination of the one matrix m - s I, the per-point
    # reference
    rows = _dyadic_rows(m)
    a, e = _integer_matrix(rows)
    det = _det_shifted((_char_poly(a), e), s._mpf_, _ladder(_DPS).prec)
    with mp.workdps(_DPS):
        assert det == loop_reference.exact_det_shifted(rows, s)._mpf_
    return det


def test_exact_determinant_matches_high_precision_det(rng):
    # shifts on a finer grid than the matrix's and on a coarser one (0
    # among them) must both occur: Horner's rule then sums over each
    # exponent in turn
    finer = set()
    for _ in range(50):
        gen = build_generator(random_params(rng))
        for lam in (0.0, 0.02, -0.0025):
            m = _mp_rows(gen, lam)
            top = float(np.max(np.linalg.eigvals(gen.eval(lam)).real))
            with mp.workdps(_DPS):
                shifts = (mp.mpf(top), mp.mpf(top) + mp.mpf("1e-12"),
                          mp.mpf(rng.uniform(-5.0, 1.0)) / 3, mp.mpf(0))
            e = _integer_matrix(_dyadic_rows(m))[1]
            for s in shifts:
                assert _det(m, s) == _exact_det(m, s)
                finer.add(_dyadic(s._mpf_)[1] < e)
            # with (2, 2) moved to the front, s equal to that entry zeroes
            # the leading pivot, so the elimination must swap rows
            order = (2, 0, 1, 3, 4)
            moved = [[m[i][j] for j in order] for i in order]
            s = moved[0][0]
            assert _det(moved, s) == _exact_det(moved, s) != fzero
    assert finer == {True, False}


def test_exact_determinant_of_singular_matrix_is_zero(rng):
    m = _mp_rows(build_generator(random_params(rng)), 0.01)
    # L(0) has equal (0, 0) and (1, 1) entries and rows 0 and 1 differ
    # only there, so shifting by that entry makes the two rows equal
    assert _det(m, m[0][0]) == fzero
    duplicate_row = [row[:] for row in m]
    duplicate_row[1] = duplicate_row[3][:]
    zero_column = [[mp.mpf(0)] + row[1:] for row in m]
    for singular in (duplicate_row, zero_column):
        assert _det(singular, mp.mpf(0)) == fzero
        assert _det(singular, mp.mpf(0.5)) == _exact_det(singular, mp.mpf(0.5)) != fzero


def test_agrees_with_mpf_elimination_reference(rng, monkeypatch):
    gens = [build_generator(random_params(rng)) for _ in range(50)]
    exact = [fd_cumulants(gen) for gen in gens]
    for gen, fd in zip(gens, exact):
        monkeypatch.setattr(fdcheck, "_cgf_mp",
                            lambda poly, lam, seed, gen=gen: loop_reference.cgf_mp(gen, lam)._mpf_)
        np.testing.assert_allclose(fd, fd_cumulants(gen), rtol=1e-10, atol=0)


def test_corner_polynomials_combine_to_each_points_char_poly(rng):
    # D0 + x D1 + y D2 + x y D3 at a point's own x and y is, coefficient
    # for coefficient, the char poly of that point's whole matrix
    ladder = _ladder(_DPS)
    for _ in range(20):
        gen = build_generator(random_params(rng))
        polys = _ladder_polys(gen, ladder)
        assert list(polys) == list(ladder.lams)
        for lam, (c, e) in polys.items():
            rows = _dyadic_rows(_mp_rows(gen, lam))
            assert min(exp for row in rows for _, exp in row) >= e
            assert c == _char_poly([[man << (exp - e) for man, exp in row] for row in rows])


# `_det_shifted` calls per draw of RECORDED, counted while each secant step
# still eliminated its own matrix
RECORDED_DETS = {0: 27, 1: 27, 2: 29}


@pytest.mark.parametrize("seed", RECORDED)
def test_a_draw_builds_its_polynomials_once(seed, monkeypatch):
    # one shared leading block and four corner completions, whatever the
    # number of secant steps; the secant takes as many determinants as before
    calls = {"_ladder_polys": 0, "_char_poly": 0, "_det_shifted": 0}

    def counted(name):
        original = getattr(fdcheck, name)

        def wrapper(*args):
            calls[name] += 1
            return original(*args)
        return wrapper

    for name in calls:
        monkeypatch.setattr(fdcheck, name, counted(name))
    fd_cumulants(build_generator(random_params(np.random.default_rng(seed))))
    assert calls == {"_ladder_polys": 1, "_char_poly": 5, "_det_shifted": RECORDED_DETS[seed]}


def test_matches_per_point_refinement_bitwise(rng, monkeypatch):
    # the constants are cached per precision: after a run at 8 digits,
    # the 25-digit results must not take any of the 8-digit ones
    gens = [build_generator(random_params(rng)) for _ in range(50)]
    for dps in (_DPS, 8, _DPS):
        monkeypatch.setattr(fdcheck, "_DPS", dps)
        for gen in gens:
            assert fd_cumulants(gen).tobytes() == loop_reference.fd_cumulants(gen, dps).tobytes(), dps


@pytest.mark.parametrize("dps", [5, 8, _DPS])
def test_refined_points_match_per_point_refinement_bitwise(rng, monkeypatch, dps):
    # each point's secant result as a raw value, before Richardson's sums
    # and the rounding to double can hide a slip in its last bits
    refined, cgf = {}, fdcheck._cgf_mp

    def recorded(poly, lam, seed):
        refined[lam] = cgf(poly, lam, seed)
        return refined[lam]

    monkeypatch.setattr(fdcheck, "_cgf_mp", recorded)
    monkeypatch.setattr(fdcheck, "_DPS", dps)
    for _ in range(50):
        gen = build_generator(random_params(rng))
        fd_cumulants(gen)
        l0 = [[_dyadic(v) for v in row] for row in gen.l0.tolist()]
        assert refined == {lam: loop_reference.cgf_exact(gen, l0, lam, dps)._mpf_ for lam in refined}


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
        return fone

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
    values = itertools.cycle([fone, from_int(2)])
    monkeypatch.setattr(fdcheck, "_det_shifted", lambda *args: next(values))
    gen = build_generator(EngineParams())
    with pytest.raises(BranchAmbiguityError, match=r"secant refinement stalled at lam=-0\.02$"):
        fd_cumulants(gen)
