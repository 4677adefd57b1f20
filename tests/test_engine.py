import json
import math
import re
from dataclasses import asdict

import numpy as np
import pytest

from artifact.engine import (
    EDGE_ABSORB,
    EDGE_EMIT,
    GENERATOR_VARIANTS,
    TRACE_VECTOR,
    EngineParams,
    VARIED,
    bose_occupations,
    build_generator,
    build_generators,
)
from artifact.errors import DomainError

import loop_reference
from conftest import random_params


# --- reservoir occupations ------------------------------------------------

def bose_occupation(gap, temperature):
    """One occupation through the array function."""
    return float(bose_occupations(gap, [temperature])[0])


def test_bose_occupation_frozen_values():
    # reference values computed once with mpmath at 50 digits
    assert bose_occupation(2.5, 3.5) == pytest.approx(0.9590237258775333, rel=1e-15)
    assert bose_occupation(1.5, 1.0) == pytest.approx(0.28721691678886824, rel=1e-15)
    assert bose_occupation(1.0, 2.0) == pytest.approx(1.5414940825367982, rel=1e-15)
    assert bose_occupation(0.5, 4.5) == pytest.approx(8.509257354621731, rel=1e-15)


def test_bose_occupation_limits():
    # deep quantum regime underflows cleanly to zero
    assert bose_occupation(1.0, 1e-4) == 0.0
    # classical limit n -> T/gap
    assert bose_occupation(1e-6, 2.0) == pytest.approx(2e6, rel=1e-5)


@pytest.mark.parametrize("gap,temp", [(0.0, 1.0), (-1.0, 1.0), (1.0, 0.0), (1.0, -2.0),
                                      (1.0, float("inf")), (1.0, float("nan"))])
def test_bose_occupation_domain(gap, temp):
    # bose_occupations trusts its arguments; the cavity mode's gap e_a - e_b
    # and temperature t_l are refused where they enter, by the parameter box
    with pytest.raises(DomainError):
        build_generators([[1.0, 3.5, temp, 0.0, 0.0]], EngineParams(e_b=3.0 - gap))


# --- parameter set ----------------------------------------------------------

def test_params_defaults_and_roundtrip():
    p = EngineParams()
    assert p.p_c == 0.0 and p.p_h == 0.0
    # the dataset sidecar stores the fields as JSON and rebuilds them by keyword
    q = EngineParams(t_c=0.7, p_h=0.3)
    assert EngineParams(**json.loads(json.dumps(asdict(q)))) == q


def test_params_validation():
    # each field's own interval is in the table of tests/test_errors.py
    with pytest.raises(DomainError, match=re.escape("e_a > e_b > e1, got e_a=1.0, e_b=2.0, e1=0.5")):
        EngineParams(e_a=1, e_b=2.0)


@pytest.mark.parametrize("tau", [-0.1, float("nan"), float("inf")])
def test_tau_must_be_finite_and_non_negative(tau):
    with pytest.raises(DomainError, match=re.escape(f"tau must be a real number in [0, inf), got {tau}")) as exc:
        EngineParams(tau=tau)
    assert exc.value.exit_code == 2


def test_zero_coherence_projection():
    p = EngineParams(t_c=0.9, p_c=0.4, p_h=0.8)
    q = p.zero_coherence()
    assert q.p_c == 0.0 and q.p_h == 0.0
    assert q.t_c == p.t_c and q.t_h == p.t_h and q.t_l == p.t_l


# --- generator assembly -----------------------------------------------------

def _reference_matrix(p):
    """Independent scalar-by-scalar transcription of the default layout."""
    n_h = bose_occupation(p.e_a - p.e1, p.t_h)
    n_c = bose_occupation(p.e_b - p.e1, p.t_c)
    n_l = bose_occupation(p.e_a - p.e_b, p.t_l)
    r = p.r
    g2c = r * p.p_c
    g2h = r * p.p_h
    gbar = -r * (n_h + n_c)
    g12 = (g2c * n_c + g2h * n_h) / 2.0
    emit = p.g ** 2 * (1.0 + n_l)
    absorb = p.g ** 2 * n_l

    m = np.zeros((5, 5))
    m[0, 0] = m[1, 1] = gbar
    m[0, 2] = m[1, 2] = r * (1.0 + n_h)
    m[0, 3] = m[1, 3] = r * (1.0 + n_c)
    m[0, 4] = m[1, 4] = -2.0 * g12
    m[2, 0] = m[2, 1] = r * n_h
    m[2, 2] = -2.0 * r * (1.0 + n_h) - emit
    m[2, 3] = absorb
    m[2, 4] = 2.0 * g2h * n_h
    m[3, 0] = m[3, 1] = r * n_c
    m[3, 2] = emit
    m[3, 3] = -2.0 * r * (1.0 + n_c) - absorb
    m[3, 4] = 2.0 * g2c * n_c
    m[4, 0] = m[4, 1] = -g12
    m[4, 2] = g2h * (1.0 + n_h)
    m[4, 3] = g2c * (1.0 + n_c)
    m[4, 4] = gbar - p.tau
    return m


def test_generator_matches_reference_transcription():
    p = EngineParams(t_c=1.0, t_h=3.5, t_l=2.0, p_c=0.5, p_h=0.5)
    gen = build_generator(p)
    np.testing.assert_allclose(gen.l0, _reference_matrix(p), rtol=0, atol=1e-15)


def test_generator_reference_random_points(rng):
    for _ in range(25):
        p = random_params(rng)
        gen = build_generator(p)
        np.testing.assert_allclose(gen.l0, _reference_matrix(p), rtol=0, atol=1e-15)


def test_counting_edges():
    gen = build_generator(EngineParams(p_c=0.3, p_h=0.6))
    n_l = bose_occupation(1.0, 2.0)
    assert gen.emit_rate == pytest.approx(1.0 + n_l, rel=1e-15)
    assert gen.absorb_rate == pytest.approx(n_l, rel=1e-15)
    assert gen.l0[EDGE_EMIT] == gen.emit_rate
    assert gen.l0[EDGE_ABSORB] == gen.absorb_rate

    lam = 0.37
    m = gen.eval(lam)
    # only the two cavity edges move with the counting field
    diff = m - gen.l0
    diff[EDGE_EMIT] = 0.0
    diff[EDGE_ABSORB] = 0.0
    assert np.all(diff == 0.0)
    assert m[EDGE_EMIT] == pytest.approx(gen.emit_rate * math.exp(lam), rel=1e-15)
    assert m[EDGE_ABSORB] == pytest.approx(gen.absorb_rate * math.exp(-lam), rel=1e-15)


def test_eval_at_zero_is_l0():
    gen = build_generator(EngineParams(p_h=0.9))
    assert np.array_equal(gen.eval(0.0), gen.l0)


def test_edge_rates_fix_lam_derivatives():
    # only the cavity edges carry lam, so every derivative of L(lam) at 0
    # is emit_rate on the emission edge and +-absorb_rate on absorption
    gen = build_generator(EngineParams(t_c=0.6, t_l=4.0, p_c=0.2, p_h=0.8))
    odd = np.zeros((5, 5))
    odd[EDGE_EMIT], odd[EDGE_ABSORB] = gen.emit_rate, -gen.absorb_rate
    even = odd.copy()
    even[EDGE_ABSORB] = gen.absorb_rate
    h = 1e-5
    fd1 = (gen.eval(h) - gen.eval(-h)) / (2 * h)
    np.testing.assert_allclose(fd1, odd, rtol=0, atol=1e-8)
    fd2 = (gen.eval(h) - 2 * gen.eval(0.0) + gen.eval(-h)) / h ** 2
    np.testing.assert_allclose(fd2, even, rtol=0, atol=1e-5)


@pytest.mark.parametrize("variant", ["consistent", "legacy-conserving"])
def test_trace_conservation(variant, rng):
    for _ in range(10):
        gen = build_generator(random_params(rng), variant)
        resid = TRACE_VECTOR @ gen.l0
        assert np.max(np.abs(resid)) < 1e-12


def test_variants_coincide_at_zero_coherence():
    p = EngineParams(t_c=1.3, t_l=3.0)
    base = build_generator(p, "consistent").l0
    for variant in GENERATOR_VARIANTS[1:]:
        other = build_generator(p, variant).l0
        # with both coherence channels off every coherence coupling is zero,
        # so the whole coherence row collapses to the same numbers; the
        # population feeds still differ (they are crossed in the legacy
        # layout), which is what the steady-state tests pick up
        np.testing.assert_allclose(other[4], base[4], rtol=0, atol=1e-15)
        assert other[2, 0] != base[2, 0]  # crossed feeds are really crossed


@pytest.mark.parametrize("variant", GENERATOR_VARIANTS)
def test_stack_rows_equal_single_builds(variant, rng):
    params = [random_params(rng) for _ in range(40)]
    l0 = build_generators([[getattr(p, k) for k in VARIED] for p in params], variant=variant)
    assert l0.shape == (40, 5, 5)
    for i, p in enumerate(params):
        gen = build_generator(p, variant)
        assert np.array_equal(l0[i], gen.l0)
        assert (l0[i][EDGE_EMIT], l0[i][EDGE_ABSORB]) == (gen.emit_rate, gen.absorb_rate)


def test_stack_validates_rows():
    with pytest.raises(DomainError):
        build_generators([[1.0, 3.5, 2.0, 0.0, 0.5], [1.0, 3.5, 2.0, 1.5, 0.5]])
    with pytest.raises(DomainError):
        build_generators([[1.0, 3.5, 2.0, 0.0, 0.5], [1.0, -3.5, 2.0, 0.0, 0.5]])


def test_legacy_conserving_rows_match_loop_reference(rng):
    # the stacked build of the crossed layout reproduces a per-sample transcription bit for bit
    params = [random_params(rng) for _ in range(40)]
    l0 = build_generators([[getattr(p, k) for k in VARIED] for p in params], variant="legacy-conserving")
    for i, p in enumerate(params):
        m, e, a = loop_reference.generator(p, "legacy-conserving")
        assert np.array_equal(l0[i], m)
        assert (l0[i][EDGE_EMIT], l0[i][EDGE_ABSORB]) == (e, a)


def test_unknown_variant_rejected():
    # "legacy", the verbatim layout that leaked trace, is no longer a layout
    for name in ("modern", "legacy"):
        with pytest.raises(DomainError):
            build_generator(EngineParams(), name)


def test_generator_arrays_write_protected():
    gen = build_generator(EngineParams())
    with pytest.raises(ValueError):
        gen.l0[0, 0] = 99.0
