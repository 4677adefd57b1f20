"""Stochastic oracle for the photon-exchange statistics at zero coherence.

With both coherence knobs at zero the generator's population block is a
genuine 4-state classical jump process (the coherence row decouples), so
Gillespie simulation with net counting on the two cavity edges gives an
estimator of the first two exchange cumulant rates that shares nothing
with the eigenvalue machinery it validates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .counting import steady_state
from .engine import EDGE_ABSORB, EDGE_EMIT, EngineParams, build_generator
from .errors import AbsorbingStateError, DomainError, ValidationError

_RATE_TOL = 1e-12
_BUF = 8192  # uniforms drawn per trajectory per refill


@dataclass(frozen=True)
class JumpProcess:
    """4-state classical jump process with signed counting on two edges.

    `rates[i, j]` is the transition rate from state j to state i
    (column convention, matching the generator); the diagonal is zero.
    `count_weights[i, j]` is the increment recorded when that jump fires:
    +1 on the cavity emission edge, -1 on absorption, 0 elsewhere.
    """

    rates: np.ndarray
    count_weights: np.ndarray

    def __post_init__(self):
        if self.rates.shape != (4, 4) or self.count_weights.shape != (4, 4):
            raise ValidationError(f"jump process matrices must be 4x4, got {self.rates.shape}")
        if np.any(self.rates < 0) or np.any(np.diag(self.rates) != 0):
            raise ValidationError("off-diagonal rates must be >= 0 with a zero diagonal")
        self.rates.setflags(write=False)
        self.count_weights.setflags(write=False)

    @property
    def escape_rates(self) -> np.ndarray:
        return self.rates.sum(axis=0)


@dataclass(frozen=True)
class TrajectoryStats:
    t_final: float
    n_traj: int
    mean_rate: float
    mean_se: float
    var_rate: float
    var_se: float
    seed: int

    def __post_init__(self):
        if self.n_traj < 2:
            raise ValidationError(f"need at least 2 trajectories, got {self.n_traj}")
        for name in ("mean_se", "var_se"):
            se = getattr(self, name)
            # Zero happens only when every trajectory counted identically
            # (e.g. both counted edges have rate 0).
            if not np.isfinite(se) or se < 0:
                raise ValidationError(f"{name} must be finite and non-negative, got {se}")


def build_jump_process(params: EngineParams) -> JumpProcess:
    """Population-block jump process of the zero-coherence generator.

    Requires p_c = p_h = 0: only there does the coherence component
    decouple and leave a probability-conserving classical process.
    """
    if params.p_c != 0.0 or params.p_h != 0.0:
        raise DomainError(
            f"jump process exists only at zero coherence, got p_c={params.p_c}, p_h={params.p_h}"
        )
    gen = build_generator(params)
    block = gen.l0[:4, :4]
    rates = block.copy()
    np.fill_diagonal(rates, 0.0)
    # Conservation check: each diagonal must absorb exactly the column's
    # escape rate, otherwise the block is not a stochastic generator.
    leak = np.abs(np.diag(block) + rates.sum(axis=0))
    if np.any(leak > _RATE_TOL):
        raise ValidationError(f"population block leaks probability (max {leak.max():.3e})")
    weights = np.zeros((4, 4))
    weights[EDGE_EMIT] = 1.0
    weights[EDGE_ABSORB] = -1.0
    return JumpProcess(rates=rates, count_weights=weights)


def default_t_final(proc: JumpProcess) -> float:
    """10^4 times the slowest timescale (largest inverse rate) in the process."""
    positive = proc.rates[proc.rates > 0]
    if positive.size == 0:
        raise DomainError("process has no transitions; no timescale to resolve")
    return 1e4 / float(positive.min())


def simulate(proc: JumpProcess, t_final: float, n_traj: int, seed: int,
             initial: np.ndarray | None = None) -> TrajectoryStats:
    """Gillespie estimate of the net-count mean and variance rates.

    All trajectories advance in lockstep through vectorized numpy steps,
    but every trajectory consumes uniforms only from its own counter-based
    substream (SeedSequence spawn), so the results are independent of the
    batching and identical to a serial run. Standard errors are jackknife
    over trajectories. `initial` is a distribution over the 4 states;
    defaults to uniform.
    """
    if t_final <= 0:
        raise DomainError(f"t_final must be positive, got {t_final}")
    if n_traj < 3:
        raise DomainError(f"jackknife variance needs n_traj >= 3, got {n_traj}")
    if initial is None:
        initial = np.full(4, 0.25)
    initial = np.asarray(initial, dtype=float)
    if initial.shape != (4,) or np.any(initial < 0) or abs(initial.sum() - 1.0) > 1e-9:
        raise DomainError("initial must be a length-4 probability distribution")

    escape = proc.escape_rates
    # Destination lookup: dest_table[s] lists the three states != s in
    # ascending order; cum_table[s] their cumulative jump probabilities,
    # with the last entry forced to +inf so roundoff in the normalization
    # can never push a uniform past the table.
    dest_table = np.empty((4, 3), dtype=np.intp)
    cum_table = np.empty((4, 3))
    for s in range(4):
        dests = [i for i in range(4) if i != s]
        dest_table[s] = dests
        if escape[s] > 0:
            cum = np.cumsum(proc.rates[dests, s]) / escape[s]
        else:
            cum = np.zeros(3)
        cum[-1] = np.inf
        cum_table[s] = cum

    streams = [np.random.default_rng(c) for c in np.random.SeedSequence(seed).spawn(n_traj)]
    bufs = np.empty((n_traj, _BUF))
    for i, g in enumerate(streams):
        bufs[i] = g.random(_BUF)
    ptr = np.zeros(n_traj, dtype=np.intp)

    init_cum = np.cumsum(initial)
    init_cum[-1] = np.inf
    state = (bufs[:, 0, None] >= init_cum[None, :]).sum(axis=1)
    ptr += 1

    t = np.zeros(n_traj)
    count = np.zeros(n_traj, dtype=np.int64)
    rows = np.arange(n_traj)
    active = rows

    while active.size:
        need = ptr[active] + 2 > _BUF
        for i in active[need]:
            bufs[i] = streams[i].random(_BUF)
            ptr[i] = 0
        st = state[active]
        esc = escape[st]
        if np.any(esc == 0):
            bad = int(st[esc == 0][0])
            raise AbsorbingStateError(f"trajectory reached state {bad} with zero escape rate")
        p = ptr[active]
        u1 = bufs[active, p]
        u2 = bufs[active, p + 1]
        ptr[active] = p + 2
        t[active] += -np.log1p(-u1) / esc
        alive = active[t[active] <= t_final]
        if alive.size:
            st = state[alive]
            choice = (u2[t[active] <= t_final, None] >= cum_table[st]).sum(axis=1)
            dest = dest_table[st, choice]
            count[alive] += proc.count_weights[dest, st].astype(np.int64)
            state[alive] = dest
        active = active[t[active] <= t_final]

    x = count.astype(float)
    n = float(n_traj)
    s1 = x.sum()
    s2 = (x * x).sum()
    mean = s1 / n
    var = (s2 - n * mean * mean) / (n - 1)

    # Leave-one-out estimators, vectorized.
    loo_mean = (s1 - x) / (n - 1)
    se_mean = np.sqrt((n - 1) / n * np.sum((loo_mean - loo_mean.mean()) ** 2))
    loo_sq = s2 - x * x
    loo_var = (loo_sq - (n - 1) * loo_mean**2) / (n - 2)
    se_var = np.sqrt((n - 1) / n * np.sum((loo_var - loo_var.mean()) ** 2))

    return TrajectoryStats(
        t_final=float(t_final),
        n_traj=n_traj,
        mean_rate=mean / t_final,
        mean_se=float(se_mean) / t_final,
        var_rate=var / t_final,
        var_se=float(se_var) / t_final,
        seed=seed,
    )


def compare_with_analytic(params: EngineParams, t_final: float, n_traj: int, seed: int) -> dict:
    """One oracle row: analytic first two cumulant rates vs Gillespie.

    Trajectories start from the analytic steady-state populations, so the
    estimator is stationary from t=0 and the 3-sigma agreement windows
    are not widened by a relaxation transient.
    """
    from .counting import cumulants

    zero = params.zero_coherence()
    gen = build_generator(zero)
    proc = build_jump_process(zero)
    j = cumulants(gen)
    pops = steady_state(gen).populations
    stats = simulate(proc, t_final, n_traj, seed, initial=pops / pops.sum())
    z_mean = abs(stats.mean_rate - j[0]) / stats.mean_se if stats.mean_se > 0 else np.inf
    z_var = abs(stats.var_rate - j[1]) / stats.var_se if stats.var_se > 0 else np.inf
    return {
        "params": zero,
        "analytic_mean": float(j[0]),
        "analytic_var": float(j[1]),
        "stats": stats,
        "z_mean": float(z_mean),
        "z_var": float(z_var),
    }
