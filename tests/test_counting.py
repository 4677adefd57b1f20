import numpy as np
import pytest

from artifact import counting
from artifact.counting import (
    cumulants,
    cumulants_batch,
    exchange_moment_rates,
    exchange_moment_ratios,
    steady_state,
)
from artifact.engine import GENERATOR_VARIANTS, TRACE_VECTOR, EngineParams, TwistedGenerator, build_generator
from artifact.errors import ArtifactError, ConditioningError, DegenerateSampleError, SingularityError

import loop_reference
from conftest import random_params


def _brute_steady_state(l0):
    """Least-squares solve of L rho = 0 with trace pinned to one."""
    a = np.vstack([l0, TRACE_VECTOR])
    b = np.zeros(6)
    b[5] = 1.0
    rho, *_ = np.linalg.lstsq(a, b, rcond=None)
    return rho


@pytest.mark.parametrize("variant", ["consistent", "legacy-conserving"])
def test_steady_state_against_least_squares(variant, rng):
    for _ in range(20):
        gen = build_generator(random_params(rng), variant)
        got = steady_state(gen)
        np.testing.assert_allclose(got, _brute_steady_state(gen.l0), rtol=0, atol=1e-10)


def test_steady_state_contract():
    rho = steady_state(build_generator(EngineParams(p_c=0.4, p_h=0.9)))
    assert rho.shape == (5,)
    assert float(TRACE_VECTOR @ rho) == pytest.approx(1.0, abs=1e-12)
    # populations are genuine probabilities; the coherence slot may go negative
    assert np.all(rho[:4] > 0.0)
    resid = np.max(np.abs(build_generator(EngineParams(p_c=0.4, p_h=0.9)).l0 @ rho))
    assert resid < 1e-13


def cgf(gen, lam):
    """Scaled CGF S(lam): the largest real eigenvalue of the dressed generator."""
    return float(np.max(np.linalg.eigvals(gen.eval(lam)).real))


def test_cgf_vanishes_at_zero(rng):
    for _ in range(10):
        gen = build_generator(random_params(rng))
        assert abs(cgf(gen, 0.0)) < 1e-12


def test_cgf_fluctuation_symmetry_shape():
    # the scaled CGF is convex in lam with a root at 0; check both branches rise
    gen = build_generator(EngineParams(t_c=0.8, t_l=3.0, p_c=0.2, p_h=0.6))
    assert cgf(gen, 0.4) > 0.0 or cgf(gen, -0.4) > 0.0
    mid = cgf(gen, 0.1) + cgf(gen, -0.1)
    assert mid > 2 * cgf(gen, 0.0) - 1e-12  # convexity through the origin


def _fd_first_two(gen, h=1e-4):
    """Plain central differences of the CGF, good to ~1e-8 for the tests."""
    sp, sm = cgf(gen, h), cgf(gen, -h)
    s2p, s2m = cgf(gen, 2 * h), cgf(gen, -2 * h)
    d1 = (8 * (sp - sm) - (s2p - s2m)) / (12 * h)
    d2 = (16 * (sp + sm) - (s2p + s2m) - 30 * cgf(gen, 0.0)) / (12 * h * h)
    return d1, d2


def test_cumulants_match_direct_differentiation(rng):
    for _ in range(5):
        gen = build_generator(random_params(rng))
        j = cumulants(gen)
        d1, d2 = _fd_first_two(gen)
        assert j[0] == pytest.approx(d1, rel=1e-7, abs=1e-10)
        # the plain-double 2nd difference carries ~1e-16/h^2 eigenvalue
        # roundoff; tighter agreement is the mpmath oracle's job
        assert j[1] == pytest.approx(d2, rel=1e-4, abs=1e-6)


def test_cumulants_shape_and_activity_sign(rng):
    j = cumulants(build_generator(random_params(rng)))
    assert j.shape == (4,)
    assert j[1] > 0.0  # the variance rate of a counting process is positive


def test_cumulants_refuse_ill_conditioned_bordered_system(monkeypatch):
    # every condition number is at least 1, so a limit of 1 refuses
    # every bordered system
    monkeypatch.setattr(counting, "_COND_LIMIT", 1.0)
    with pytest.raises(ConditioningError, match="exceeds 1e"):
        cumulants(build_generator(EngineParams()))


def test_equilibrium_flux_vanishes():
    # all three reservoirs at the same temperature: no net photon current
    p = EngineParams(t_c=2.0, t_h=2.0, t_l=2.0)
    j = cumulants(build_generator(p))
    assert abs(j[0]) < 1e-12
    assert abs(j[2]) < 1e-10  # odd cumulants die with the bias


def test_moment_rates_formula(rng):
    gen = build_generator(random_params(rng))
    rho = steady_state(gen)
    m = exchange_moment_rates(gen.l0, rho)
    emit = gen.emit_rate * rho[2]
    absorb = gen.absorb_rate * rho[3]
    assert m[0] == emit - absorb
    assert m[1] == emit + absorb
    # period-two structure of the exponential dressing
    assert m[2] == m[0] and m[3] == m[1]


def test_first_moment_equals_first_cumulant(rng):
    gen = build_generator(random_params(rng))
    m = exchange_moment_rates(gen.l0, steady_state(gen))
    assert cumulants(gen)[0] == pytest.approx(m[0], rel=1e-9, abs=1e-13)


def test_ratios_exactly_one_at_zero_coherence(rng):
    # baseline and sample run through the identical code path, so the
    # features must be bitwise 1.0, not merely close
    for _ in range(10):
        p = random_params(rng, coherent=False)
        feats = exchange_moment_ratios(p)
        assert np.all(feats == 1.0)


def test_ratios_move_with_coherence():
    feats = exchange_moment_ratios(EngineParams(p_c=0.8, p_h=0.8))
    assert np.all(np.isfinite(feats))
    assert np.any(feats != 1.0)


def test_degenerate_baseline_rejected():
    # an equilibrated engine has zero net flux, so flux-normalized
    # features are meaningless and must be refused loudly
    p = EngineParams(t_c=2.0, t_h=2.0, t_l=2.0, p_c=0.5, p_h=0.5)
    with pytest.raises(DegenerateSampleError, match="degenerate baseline moments"):
        exchange_moment_ratios(p)


@pytest.mark.parametrize("variant", GENERATOR_VARIANTS)
def test_cumulants_match_derivative_matrix_reference(variant, rng):
    # the edge-rate route reproduces the recursion on stored derivative
    # matrices bit for bit, one generator at a time and as one stack;
    # legacy draws with unphysical populations fail their steady state on
    # both routes and are skipped
    gens, refs = [], []
    while len(gens) < 200:
        gen = build_generator(random_params(rng), variant)
        try:
            ref = loop_reference.cumulants(gen)
        except SingularityError:
            continue
        assert cumulants(gen).tobytes() == ref.tobytes()
        gens.append(gen)
        refs.append(ref)
    j, failures = cumulants_batch(np.stack([gen.l0 for gen in gens]))
    assert failures == {}
    for row, ref in zip(j, refs):
        assert row.tobytes() == ref.tobytes()


def test_stack_failures_stay_in_their_rows(monkeypatch, rng):
    # a row whose state is NaN makes a stacked cond raise for the whole
    # stack, and a row refused for its condition number stays out of the
    # solve, which a singular one would make raise: each failed row maps to
    # the error its own call raises, and the good rows keep their length-1 bits
    gens = [build_generator(random_params(rng)) for _ in range(6)]
    # near-zero temperatures: the null space of L(0) is not one-dimensional
    gens[1] = build_generator(EngineParams(t_c=1e-3, t_h=1e-3, t_l=1e-3, p_c=0.3, p_h=0.7))
    # the null vector is the coherence slot alone: the state is NaN
    gens[4] = TwistedGenerator(np.diag([-1.0, -1.0, -1.0, -1.0, 0.0]))
    conds = []
    for gen in gens[:1] + gens[2:4] + gens[5:]:
        bordered = np.zeros((6, 6))
        bordered[:5, :5], bordered[:5, 5], bordered[5, :5] = gen.l0, steady_state(gen), TRACE_VECTOR
        conds.append(np.linalg.cond(bordered))
    # a limit between two rows' condition numbers refuses the larger
    monkeypatch.setattr(counting, "_COND_LIMIT", float(np.mean(sorted(conds)[1:3])))
    want = {}
    for i, gen in enumerate(gens):
        try:
            want[i] = cumulants(gen).tobytes()
        except ArtifactError as exc:
            want[i] = (type(exc), str(exc))
    assert [w[0] if isinstance(w, tuple) else bytes for w in want.values()].count(ConditioningError) == 2
    assert {w[1].split(" (")[0] for w in want.values() if w[0] is SingularityError} == {
        "null space of L(0) is not one-dimensional", "null vector carries no population weight"}
    j, failures = cumulants_batch(np.stack([gen.l0 for gen in gens]))
    got = {i: (type(failures[i]), str(failures[i])) if i in failures else j[i].tobytes() for i in range(len(gens))}
    assert got == want
    assert np.isnan(j[list(failures)]).all()


def test_scalar_errors_match_loop_reference(rng):
    # the length-1 batch raises what the per-sample route raised, message
    # included; at a near-zero temperature every occupation underflows and
    # the null space of L(0) is no longer one-dimensional
    cases = [random_params(rng) for _ in range(15)]
    cases += [EngineParams(t_c=1e-3, t_h=1e-3, t_l=1e-3, p_c=rng.uniform(0.0, 1.0),
                           p_h=rng.uniform(0.0, 1.0)) for _ in range(15)]
    cases.append(EngineParams(t_c=2.0, t_h=2.0, t_l=2.0, p_c=0.5, p_h=0.5))
    kinds = set()
    for params in cases:
        outcomes = []
        for route in (exchange_moment_ratios, loop_reference.features):
            try:
                outcomes.append(route(params).tolist())
            except ArtifactError as exc:
                outcomes.append((type(exc), str(exc)))
        assert outcomes[0] == outcomes[1]
        kinds.add(outcomes[0][0] if isinstance(outcomes[0], tuple) else "features")
    assert DegenerateSampleError in kinds and SingularityError in kinds


def test_legacy_conserving_unphysical_state_rejected():
    # the crossed layout drives pop_1 to about -0.245 here; the population
    # bound holds for every layout, so the steady state fails loudly
    gen = build_generator(EngineParams(t_c=2.462, t_h=4.266, t_l=3.545, p_c=0.98, p_h=0.974),
                          "legacy-conserving")
    with pytest.raises(SingularityError, match="unphysical populations"):
        steady_state(gen)
