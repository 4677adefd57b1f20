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

from .counting import cumulants, steady_state
from .engine import COUNTED, EngineParams, TwistedGenerator, build_generator
from .errors import AbsorbingStateError, DomainError, ValidationError, as_int, as_real, as_reals

_RATE_TOL = 1e-12
_CHUNK = 32  # jumps per chunk of the destination-map scan
_WINDOW = 8 * _CHUNK  # jumps every running lane advances per array pass


@dataclass(frozen=True)
class JumpProcess:
    """4-state classical jump process with signed counting on two edges.

    `rates[i, j]` is the transition rate from state j to state i
    (column convention, matching the generator); the diagonal is zero.
    `count_weights[i, j]` is the increment recorded when that jump fires:
    a counted edge's sign (engine.COUNTED), 0 elsewhere.
    """

    rates: np.ndarray
    count_weights: np.ndarray

    def __post_init__(self):
        for name, span in (("rates", "[0, inf)"), ("count_weights", None)):
            object.__setattr__(self, name, as_reals(getattr(self, name), name, (4, 4), span))
        if np.any(np.diag(self.rates) != 0):
            raise ValidationError("rates must have a zero diagonal")
        if not np.all(np.isin(self.count_weights, (-1.0, 0.0, 1.0))):
            raise ValidationError("count weights must each be -1, 0 or +1")

    @property
    def escape_rates(self) -> np.ndarray:
        return self.rates.sum(axis=0)


@dataclass(frozen=True)
class TrajectoryStats:
    """Net-count rates and jackknife SEs; an SE is 0 if all trajectories count alike."""

    n_traj: int
    mean_rate: float
    mean_se: float
    var_rate: float
    var_se: float


def build_jump_process(gen: TwistedGenerator) -> JumpProcess:
    """Population-block jump process of a zero-coherence generator.

    Requires the coherence row and column of L(0) to couple to no
    population, as at p_c = p_h = 0: only there does the coherence
    component decouple and leave a classical process.
    """
    coupling = np.abs(np.concatenate([gen.l0[4, :4], gen.l0[:4, 4]])).max()
    if coupling != 0.0:
        raise DomainError(f"jump process exists only at zero coherence, got coherence coupling {coupling:.3e}")
    block = gen.l0[:4, :4]
    rates = block.copy()
    np.fill_diagonal(rates, 0.0)
    # Conservation check: each diagonal must absorb exactly the column's
    # escape rate, otherwise the block is not a stochastic generator.
    leak = np.abs(np.diag(block) + rates.sum(axis=0))
    if np.any(leak > _RATE_TOL):
        raise ValidationError(f"population block leaks probability (max {leak.max():.3e})")
    weights = np.zeros((4, 4))
    for edge, sign in COUNTED:
        weights[edge] = sign
    return JumpProcess(rates=rates, count_weights=weights)


def _composition_table() -> np.ndarray:
    """Flat 256x256 table: entry (a << 8) | b is the packed map "a, then b"."""
    a = np.arange(256, dtype=np.uint8)[:, None, None]
    b = np.arange(256, dtype=np.uint8)[None, :, None]
    two_s = np.arange(0, 8, 2, dtype=np.uint8)
    dest = (b >> (((a >> two_s) & 3) << 1)) & 3
    return np.bitwise_or.reduce(dest << two_s, axis=2).ravel()


_COMPOSE = _composition_table()


def _jump_maps(u2: np.ndarray, cum: np.ndarray) -> np.ndarray:
    """Packed destination maps of a block of jumps, 2 bits per source state.

    A jump out of s whose second uniform is u2 lands in bucket
    b = (u2 >= cum[s, 0]) + (u2 >= cum[s, 1]) of the three other states in
    ascending order, that is in state b + (b >= s).
    """
    maps = np.zeros(u2.shape, dtype=np.uint8)
    for s in range(4):
        b = (u2 >= cum[s, 0]).view(np.uint8) + (u2 >= cum[s, 1])
        b += b >= s
        maps |= b << (2 * s)
    return maps


def _walk(maps: np.ndarray, start: np.ndarray) -> np.ndarray:
    """(_WINDOW + 1, lanes) states of each lane before its first jump and after each.

    The (_WINDOW, lanes) `maps` are composed in place into running prefixes
    inside chunks of _CHUNK jumps, the chunk-start states are stitched one
    chunk after another, and every state is then decoded from its chunk's
    start state and prefix map at once.
    """
    w, n = maps.shape
    prefix = maps.reshape(w // _CHUNK, _CHUNK, n)
    for k in range(1, _CHUNK):
        prefix[:, k] = _COMPOSE[(prefix[:, k - 1].astype(np.intp) << 8) | prefix[:, k]]
    starts = np.empty((len(prefix), 1, n), dtype=np.uint8)
    s = start
    for c in range(len(prefix)):
        starts[c] = s
        s = (prefix[c, -1] >> (2 * s)) & 3
    states = np.empty((w + 1, n), dtype=np.uint8)
    states[0] = start
    np.bitwise_and(prefix >> (2 * starts), 3, out=states[1:].reshape(prefix.shape))
    return states


def check_run(t_final: float, n_traj: int) -> tuple:
    """(t_final, n_traj) as a float and an int; a DomainError unless `simulate`
    can run to `t_final` on `n_traj` lanes (the jackknife variance needs three)."""
    return as_real(t_final, "t_final", "(0, inf)"), as_int(n_traj, "n_traj", 3)


def simulate(proc: JumpProcess, t_final: float, n_traj: int, seed: int,
             initial: np.ndarray | None = None) -> TrajectoryStats:
    """Gillespie estimate of the net-count mean and variance rates.

    Every trajectory (lane) consumes uniforms only from its own
    SeedSequence substream strictly in order: stream index 0 picks the
    initial state, and jump j takes the pair (u1, u2) at indices 2j + 1 and
    2j + 2. All running lanes therefore sit at the same stream position and
    advance together by a window of _WINDOW jumps per array pass; each
    draws just that window's uniforms into one small block that every
    window reuses. Within a window the embedded chain is a scan rather
    than a loop: each u2 fixes a destination map for all four source
    states, the maps are composed, and the states before and after every
    jump are decoded. The waiting times log1p(-u1) / -escape are summed
    from the lane's current time with a sequential `np.add.accumulate`,
    which rounds exactly like `t += dt` one jump at a time, so the jumps
    within the horizon form a prefix of each window and the counts, and
    hence the statistics, equal those of a serial run bit for bit. A lane
    ends at its first jump past t_final; a running lane that reaches a
    state with zero escape rate raises AbsorbingStateError.

    Standard errors are jackknife over trajectories. `seed` is a
    non-negative int. `initial` is a distribution over the 4 states;
    defaults to uniform.
    """
    t_final, n_traj = check_run(t_final, n_traj)
    seed = as_int(seed, "seed", 0)
    initial = as_reals(np.full(4, 0.25) if initial is None else initial, "initial", (4,), "[0, inf)")
    if abs(initial.sum() - 1.0) > 1e-9:
        raise DomainError("initial must be a length-4 probability distribution")

    escape = proc.escape_rates
    # cum[s, k]: probability that a jump out of s goes to one of the first
    # k + 1 of the other states in ascending order. The third bucket takes
    # the rest, so roundoff in the normalization can never push a uniform
    # past the table.
    cum = np.zeros((4, 2))
    for s in range(4):
        if escape[s] > 0:
            others = [i for i in range(4) if i != s]
            cum[s] = (np.cumsum(proc.rates[others, s]) / escape[s])[:2]
    neg_escape = -escape
    absorbing = not np.all(escape > 0)
    # increment[after << 2 | before]: the count a jump before -> after adds
    increment = proc.count_weights.astype(np.int8).ravel()

    streams = [np.random.default_rng(c) for c in np.random.SeedSequence(seed).spawn(n_traj)]
    init_cum = np.cumsum(initial)
    init_cum[-1] = np.inf
    u0 = np.array([g.random() for g in streams])
    state = (u0[:, None] >= init_cum[None, :]).sum(axis=1).astype(np.uint8)

    t = np.zeros(n_traj)
    count = np.zeros(n_traj, dtype=np.int64)
    active = np.arange(n_traj)
    block = np.empty((n_traj, 2 * _WINDOW))  # row j: running lane j's uniforms of a window

    while active.size:
        for j, i in enumerate(active):
            streams[i].random(out=block[j])
        # (_WINDOW, lanes) blocks: jump j of the window uses uniforms 2j, 2j + 1.
        lanes = block[:active.size].reshape(active.size, _WINDOW, 2)
        u1, u2 = np.ascontiguousarray(lanes.transpose(2, 1, 0))
        states = _walk(_jump_maps(u2, cum), state[active])
        before, after = states[:-1], states[1:]
        esc = np.take(neg_escape, before)
        # Waiting times log1p(-u1) / -escape in place of u1: IEEE division is
        # sign-symmetric, so each equals -log1p(-u1) / escape bit for bit.
        dt = np.log1p(np.negative(u1, out=u1), out=u1)
        with np.errstate(divide="ignore", invalid="ignore"):  # zero escape: raised below
            np.divide(dt, esc, out=dt)
        dt[0] += t[active]
        t_jump = np.add.accumulate(dt, axis=0, out=dt)
        inside = t_jump <= t_final
        n_inside = inside.sum(axis=0)
        if absorbing:
            # Jump j of a lane runs when its j earlier jumps stayed inside the horizon.
            stuck = (esc == 0) & (np.arange(_WINDOW)[:, None] <= n_inside)
            if stuck.any():
                j = stuck.any(axis=1).argmax()
                bad = int(before[j, stuck[j].argmax()])
                raise AbsorbingStateError(f"trajectory reached state {bad} with zero escape rate")
        counted = np.take(increment, (after << 2) | before)
        counted *= inside
        count[active] += counted.sum(axis=0)
        t[active] = t_jump[-1]
        state[active] = after[-1]
        active = active[n_inside == _WINDOW]

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
        n_traj=n_traj,
        mean_rate=mean / t_final,
        mean_se=float(se_mean) / t_final,
        var_rate=var / t_final,
        var_se=float(se_var) / t_final,
    )


def compare_with_analytic(params: EngineParams, t_final: float, n_traj: int, seed: int) -> dict:
    """One oracle row: analytic first two cumulant rates vs Gillespie.

    Trajectories start from the analytic steady-state populations, so the
    estimator is stationary from t=0 and the 3-sigma agreement windows
    are not widened by a relaxation transient.
    """
    zero = params.zero_coherence()
    gen = build_generator(zero)
    proc = build_jump_process(gen)
    j = cumulants(gen)
    pops = steady_state(gen)[:4]
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
