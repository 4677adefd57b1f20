import numpy as np
import pytest

from artifact.counting import cumulants, steady_state
from artifact.engine import EngineParams, build_generator
from artifact.errors import AbsorbingStateError, DomainError, ValidationError
from artifact.trajectories import (
    JumpProcess,
    build_jump_process,
    compare_with_analytic,
    default_t_final,
    simulate,
)


def _proc(**kw):
    return build_jump_process(EngineParams(**kw))


def test_jump_process_mirrors_population_block():
    params = EngineParams(t_c=0.8, t_l=3.0)
    proc = _proc(t_c=0.8, t_l=3.0)
    l0 = build_generator(params).l0
    # off-diagonal population block of the generator, column convention
    off = l0[:4, :4].copy()
    np.fill_diagonal(off, 0.0)
    np.testing.assert_array_equal(proc.rates, off)
    # escape rates equal the diagonal losses, so columns conserve probability
    np.testing.assert_allclose(proc.escape_rates, -np.diag(l0[:4, :4]), atol=1e-12)


def test_count_weights_mark_only_cavity_edges():
    proc = _proc()
    w = proc.count_weights
    assert w[3, 2] == 1.0 and w[2, 3] == -1.0
    w2 = w.copy()
    w2[3, 2] = w2[2, 3] = 0.0
    assert np.all(w2 == 0.0)


def test_rejects_coherent_params():
    with pytest.raises(DomainError):
        build_jump_process(EngineParams(p_h=0.5))


def test_jump_process_validation():
    rates = np.zeros((4, 4))
    rates[0, 0] = 1.0
    with pytest.raises(ValidationError):
        JumpProcess(rates=rates, count_weights=np.zeros((4, 4)))
    with pytest.raises(ValidationError):
        JumpProcess(rates=np.zeros((3, 3)), count_weights=np.zeros((3, 3)))
    with pytest.raises(ValidationError):
        JumpProcess(rates=-np.ones((4, 4)) + np.eye(4), count_weights=np.zeros((4, 4)))


def test_default_t_final():
    proc = _proc()
    assert default_t_final(proc) == 1e4 / proc.rates[proc.rates > 0].min()


def test_simulate_is_deterministic():
    proc = _proc()
    a = simulate(proc, 200.0, 8, seed=11)
    b = simulate(proc, 200.0, 8, seed=11)
    assert a == b  # bitwise, not approximately
    c = simulate(proc, 200.0, 8, seed=12)
    assert c.mean_rate != a.mean_rate


def test_simulate_argument_validation():
    proc = _proc()
    with pytest.raises(DomainError):
        simulate(proc, 0.0, 8, seed=1)
    with pytest.raises(DomainError):
        simulate(proc, 100.0, 2, seed=1)  # jackknife needs >= 3
    with pytest.raises(DomainError):
        simulate(proc, 100.0, 8, seed=1, initial=np.array([0.5, 0.5]))
    with pytest.raises(DomainError):
        simulate(proc, 100.0, 8, seed=1, initial=np.array([0.0, 0.0, 0.0, 0.0]))


def test_nothing_to_count():
    # zero out the two counted edges: every trajectory reports exactly 0
    base = _proc()
    rates = base.rates.copy()
    rates[3, 2] = rates[2, 3] = 0.0
    proc = JumpProcess(rates=rates, count_weights=base.count_weights.copy())
    stats = simulate(proc, 50.0, 6, seed=3)
    assert stats.mean_rate == 0.0 and stats.var_rate == 0.0
    assert stats.mean_se == 0.0 and stats.var_se == 0.0


def test_absorbing_state_detected():
    rates = np.zeros((4, 4))
    rates[3, 0] = 1.0  # state 0 decays into state 3, which is a dead end
    proc = JumpProcess(rates=rates, count_weights=np.zeros((4, 4)))
    with pytest.raises(AbsorbingStateError):
        simulate(proc, 1e3, 4, seed=0, initial=np.array([1.0, 0.0, 0.0, 0.0]))


def test_error_shrinks_with_ensemble_size():
    proc = _proc()
    small = simulate(proc, 400.0, 20, seed=5)
    large = simulate(proc, 400.0, 320, seed=5)
    # jackknife SE should fall roughly like 1/sqrt(n); allow a wide band
    ratio = small.mean_se / large.mean_se
    assert 2.0 < ratio < 8.0


def test_matches_analytic_cumulants():
    # one moderately long run; the acceptance gate does the full-scale version
    row = compare_with_analytic(EngineParams(t_c=1.2, t_l=2.5), t_final=2e4, n_traj=60, seed=21)
    assert row["z_mean"] < 4.0
    assert row["z_var"] < 4.0
    assert row["params"].p_c == 0.0 and row["params"].p_h == 0.0


def test_compare_strips_coherence():
    # coherent operating points are projected onto their classical part
    row = compare_with_analytic(EngineParams(p_c=0.7, p_h=0.7), t_final=5e2, n_traj=10, seed=2)
    gen = build_generator(EngineParams())
    assert row["analytic_mean"] == pytest.approx(cumulants(gen)[0], rel=1e-12)


def test_stationary_start_unbiased():
    # starting from the steady state, even short windows are centered on
    # the analytic mean rate; check the sign of the error flips with seed
    params = EngineParams()
    gen = build_generator(params)
    j1 = cumulants(gen)[0]
    pops = steady_state(gen).populations
    proc = build_jump_process(params)
    errs = [
        simulate(proc, 300.0, 40, seed=s, initial=pops).mean_rate - j1
        for s in range(6)
    ]
    assert min(errs) < 0 < max(errs)
