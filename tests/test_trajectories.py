import dataclasses
import re
import tracemalloc

import loop_reference
import numpy as np
import pytest

from artifact.counting import cumulants, steady_state
from artifact.data import generate
from artifact.engine import EngineParams, build_generator
from artifact.errors import AbsorbingStateError, DomainError, ValidationError
from artifact.trajectories import (
    _WINDOW,
    JumpProcess,
    build_jump_process,
    compare_with_analytic,
    simulate,
)


def _proc(**kw):
    return build_jump_process(build_generator(EngineParams(**kw)))


def _zero_count_proc():
    base = _proc()
    rates = base.rates.copy()
    rates[3, 2] = rates[2, 3] = 0.0
    return JumpProcess(rates=rates, count_weights=base.count_weights.copy())


def _even_proc():
    # every state escapes at rate 3, so a lane's jump times follow from its
    # u1 alone; every jump counts, so a jump put on the wrong side of the
    # horizon changes the count
    rates = np.ones((4, 4))
    np.fill_diagonal(rates, 0.0)
    return JumpProcess(rates=rates, count_weights=rates.copy())


def _jump_times(seed, n_traj, jumps, lane=0):
    """Times of one lane's first `jumps` jumps under `_even_proc`: index 0
    of the lane's stream picks the initial state, and jump j reads its u1
    at index 2j + 1."""
    g = np.random.default_rng(np.random.SeedSequence(seed).spawn(n_traj)[lane])
    u1 = g.random(1 + 2 * jumps)[1::2]
    return np.add.accumulate(-np.log1p(-u1) / 3.0)


def _edge_proc(seed, n_traj):
    """Lane 0's first jump, out of state 0, draws a u2 exactly on a bucket edge."""
    g = np.random.default_rng(np.random.SeedSequence(seed).spawn(n_traj)[0])
    u2 = g.random(3)[2]
    rates = np.ones((4, 4))
    rates[1:, 0] = [u2, 1.0 - u2, 0.0]  # sums to 1 exactly, so cum[0] = [u2, 1]
    np.fill_diagonal(rates, 0.0)
    weights = np.zeros((4, 4))
    weights[2, 0] = 1.0  # u2 >= cum[0, 0] sends it to state 2, which counts
    return JumpProcess(rates=rates, count_weights=weights)


def _steady(params):
    pops = steady_state(build_generator(params))[:4]
    return pops / pops.sum()


# (process, t_final, n_traj, seed, initial), each built when its case runs
REFERENCE_CASES = {
    "before-any-jump": lambda: (
        _even_proc(), 0.5 * min(_jump_times(6, 8, 1, lane)[0] for lane in range(8)), 8, 6, None),
    "inside-windows": lambda: (_proc(), 40.0, 16, 4, None),
    "last-jump-of-a-window": lambda: (_even_proc(), _jump_times(2, 5, _WINDOW)[-1], 5, 2, None),
    "first-jump-of-a-window": lambda: (
        _even_proc(), _jump_times(2, 5, _WINDOW + 1)[-1], 5, 2, None),
    "mid-window": lambda: (
        _even_proc(), _jump_times(2, 5, _WINDOW + _WINDOW // 2 + 1)[-1], 5, 2, None),
    # jump 4095 reads the pair at stream indices 8191 and 8192; at seed 0
    # lane 0's u1 at 8192 exceeds the one at 8191, so a lane that took its
    # u1 from 8192 would end one jump short
    "jump-4095": lambda: (_even_proc(), _jump_times(0, 3, 4096)[-1], 3, 0, None),
    "first-jump-of-window-16": lambda: (
        _even_proc(), _jump_times(9, 3, 16 * _WINDOW + 1)[-1], 3, 9, None),
    "past-40-windows": lambda: (
        _even_proc(), _jump_times(5, 3, 41 * _WINDOW + _WINDOW // 2 + 8)[-1], 3, 5, None),
    "steady-state-start": lambda: (
        _proc(t_c=0.8, t_l=3.0), 300.0, 7, 1, _steady(EngineParams(t_c=0.8, t_l=3.0))),
    "nothing-to-count": lambda: (_zero_count_proc(), 50.0, 6, 3, None),
    "uniform-on-a-bucket-edge": lambda: (_edge_proc(8, 4), 50.0, 4, 8, np.array([1.0, 0, 0, 0])),
}


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
    # either coherence knob couples the coherence slot to the populations
    for knob in ("p_c", "p_h"):
        with pytest.raises(DomainError, match=r"^jump process exists only at zero coherence, got coherence coupling \d"):
            build_jump_process(build_generator(EngineParams(**{knob: 0.5})))


def test_rejects_leaking_population_block():
    # a diagonal that misses its column's escape rate by 1e-9 loses
    # probability; the build_generator L(0) conserves it exactly
    gen = build_generator(EngineParams())
    l0 = gen.l0.copy()
    l0[1, 1] -= 1e-9
    with pytest.raises(ValidationError, match=r"leaks probability \(max 1\.0\d*e-09\)"):
        build_jump_process(dataclasses.replace(gen, l0=l0))


@pytest.mark.parametrize("bad", [np.inf, np.nan], ids=["inf", "nan"])
def test_jump_process_rejects_non_finite_rates(bad):
    # refused before `simulate` can turn the rate into a result
    rates = np.ones((4, 4))
    np.fill_diagonal(rates, 0.0)
    rates[2, 1] = bad
    with pytest.raises(ValidationError, match=re.escape("rates must be an (4, 4) array of real numbers in [0, inf)")):
        JumpProcess(rates=rates, count_weights=np.zeros((4, 4)))


def test_jump_process_validation():
    rates = np.zeros((4, 4))
    rates[0, 0] = 1.0
    with pytest.raises(ValidationError):
        JumpProcess(rates=rates, count_weights=np.zeros((4, 4)))
    with pytest.raises(ValidationError):
        JumpProcess(rates=np.zeros((3, 3)), count_weights=np.zeros((3, 3)))
    with pytest.raises(ValidationError):
        JumpProcess(rates=-np.ones((4, 4)) + np.eye(4), count_weights=np.zeros((4, 4)))


def test_simulate_is_deterministic():
    proc = _proc()
    a = simulate(proc, 200.0, 8, seed=11)
    b = simulate(proc, 200.0, 8, seed=11)
    assert a == b  # bitwise, not approximately
    c = simulate(proc, 200.0, 8, seed=12)
    assert c.mean_rate != a.mean_rate


def test_simulate_argument_validation():
    # t_final's refusals are in the table of tests/test_errors.py
    proc = _proc()
    with pytest.raises(DomainError):
        simulate(proc, 100.0, 2, seed=1)  # jackknife needs >= 3
    with pytest.raises(DomainError):
        simulate(proc, 100.0, 8, seed=1, initial=np.array([0.5, 0.5]))
    with pytest.raises(DomainError):
        simulate(proc, 100.0, 8, seed=1, initial=np.array([0.0, 0.0, 0.0, 0.0]))
    with pytest.raises(DomainError, match="initial"):
        simulate(proc, 10.0, 4, 0, initial=np.array([np.nan, 0.5, 0.25, 0.25]))
    for n_traj in (3.5, 4.0, True, "4"):
        with pytest.raises(DomainError, match="n_traj must be an integer"):
            simulate(proc, 10.0, n_traj, seed=1)
    assert simulate(proc, 10.0, np.int64(4), seed=1) == simulate(proc, 10.0, 4, seed=1)
    assert simulate(proc, 10.0, 4, seed=np.uint8(7)) == simulate(proc, 10.0, 4, seed=7)


@pytest.mark.parametrize("seed", [-1, 1.5, 2.0, True, "3", None],
                         ids=["negative", "fraction", "float", "bool", "str", "none"])
def test_bad_seed_refused_like_generate(seed):
    # one integer rule for seeds: the oracle refuses what `generate` refuses
    with pytest.raises(DomainError, match="^seed must be an integer >= 0, got ") as oracle:
        simulate(_proc(), 10.0, 4, seed)
    with pytest.raises(DomainError, match="^seed must be an integer >= 0, got ") as data:
        generate(5, seed=seed)
    assert str(oracle.value) == str(data.value)


def test_jump_process_rejects_other_count_weights():
    rates = np.ones((4, 4))
    np.fill_diagonal(rates, 0.0)
    for weight in (2.0, 0.5, np.nan):
        weights = np.zeros((4, 4))
        weights[3, 2] = weight
        with pytest.raises(ValidationError, match="count weights"):
            JumpProcess(rates=rates, count_weights=weights)


def test_simulate_traced_peak_stays_below_6_mb():
    # each lane draws only the uniforms of the window it runs; a per-lane
    # buffer of 8,192 uniforms would read about 15.6 MB here
    proc = build_jump_process(build_generator(EngineParams()))
    tracemalloc.start()
    try:
        simulate(proc, 50.0, 200, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6e6


def test_nothing_to_count():
    # zero out the two counted edges: every trajectory reports exactly 0
    stats = simulate(_zero_count_proc(), 50.0, 6, seed=3)
    assert stats.mean_rate == 0.0 and stats.var_rate == 0.0
    assert stats.mean_se == 0.0 and stats.var_se == 0.0


def test_absorbing_state_detected():
    rates = np.zeros((4, 4))
    rates[3, 0] = 1.0  # state 0 decays into state 3, which is a dead end
    proc = JumpProcess(rates=rates, count_weights=np.zeros((4, 4)))
    with pytest.raises(AbsorbingStateError):
        simulate(proc, 1e3, 4, seed=0, initial=np.array([1.0, 0.0, 0.0, 0.0]))


@pytest.mark.parametrize("case", sorted(REFERENCE_CASES))
def test_simulate_equals_per_jump_reference(case):
    proc, t_final, n_traj, seed, initial = REFERENCE_CASES[case]()
    expected = loop_reference.simulate(proc, t_final, n_traj, seed, initial=initial)
    assert simulate(proc, t_final, n_traj, seed, initial=initial) == expected  # bitwise


@pytest.mark.parametrize("initial", [[0.5, 0.5, 0.0, 0.0], [0.25, 0.25, 0.25, 0.25]])
def test_absorbing_state_reported_like_per_jump_reference(initial):
    # 0 -> 3 and 1 -> 2, both dead ends: the earliest stuck jump, then the
    # lowest lane, names the state
    rates = np.zeros((4, 4))
    rates[3, 0] = rates[2, 1] = 1.0
    proc = JumpProcess(rates=rates, count_weights=np.zeros((4, 4)))
    messages = []
    for route in (loop_reference.simulate, simulate):
        with pytest.raises(AbsorbingStateError) as err:
            route(proc, 1e3, 9, 5, initial=np.array(initial))
        messages.append(str(err.value))
    assert messages[0] == messages[1]


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
    pops = steady_state(gen)[:4]
    proc = build_jump_process(gen)
    errs = [
        simulate(proc, 300.0, 40, seed=s, initial=pops).mean_rate - j1
        for s in range(6)
    ]
    assert min(errs) < 0 < max(errs)
