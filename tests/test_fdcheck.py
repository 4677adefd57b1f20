import numpy as np

from artifact import fdcheck
from artifact.counting import cumulants
from artifact.engine import EngineParams, build_generator
from artifact.fdcheck import FD_STEPS, fd_cumulants

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
