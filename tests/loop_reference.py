"""Per-sample reference routes for dataset generation and cumulants.

One scalar generator build, one SVD null vector and one feature ratio per
draw, in a plain loop with a redraw on every numerical failure. This is
the route `artifact.data.generate` took before it evaluated its samples
as one batch; tests require the batch to reproduce it bit for bit.

`cumulants` is the perturbative recursion as it ran on a stored stack of
4 lam-derivative matrices; `artifact.counting.cumulants` applies the
same derivatives from the two edge rates and must match it bit for bit.

`simulate` is the Gillespie oracle as it ran with one numpy step per
jump over the lanes still inside the horizon; `artifact.trajectories.simulate`
advances each lane a window of jumps per array pass and must return the
same statistics bit for bit.

`class_metrics` and `render_class_metrics` are the per-class scores as
they were computed one class and one metric at a time, each scalar
carried with a defined flag; `artifact.metrics` computes them column-wise
as one array with NaN for undefined and must match them bit for bit.

`cgf_mp` is the finite-difference oracle's CGF value as it was refined
on a determinant eliminated in `_DPS`-digit mpmath arithmetic, with a
secant exit at the rounding-noise floor; `artifact.fdcheck` takes the
determinant exactly and must agree with it to rounding.

`fd_cumulants` is that oracle as it ran with the exact determinant but
one ladder point at a time: one `eigvals` call per point, e^{+-lam}, the
secant constants and the step powers rounded afresh on every call, and
the matrix scaled to integers on every determinant. `artifact.fdcheck`
seeds the nine points from one stacked `eigvals`, rounds the constants
once per working precision and scales each point's matrix once; it must
return the same bytes at any precision.

`read_csv_lines` is the dataset reader as it parsed one line at a time
with `parse_line`, which was once `artifact.data`'s own line rule;
`artifact.data.read_csv` converts whole columns with `_columns`, now the
one definition of a valid line, and must return the same columns and
meta, or raise the same `ParseError`.
"""

import math

import mpmath as mp
import numpy as np

from artifact.counting import steady_state as solved_steady_state
from artifact.data import CSV_HEADER, Dataset, meta_path
from artifact.engine import EDGE_ABSORB, EDGE_EMIT, TRACE_VECTOR, EngineParams
from artifact.errors import (
    AbsorbingStateError,
    BranchAmbiguityError,
    DegenerateSampleError,
    GenerationQualityError,
    NumericalError,
    ParseError,
    SingularityError,
    ValidationError,
    json_object,
    read_text,
)
from artifact.fdcheck import _DPS, _MIN_GAP, FD_STEPS, _dominant_eigs, _dyadic
from artifact.trajectories import TrajectoryStats


def _occupation(gap, temperature):
    x = gap / temperature
    return 0.0 if x > 700.0 else 1.0 / math.expm1(x)


def generator(p, variant="consistent"):
    """(L(0), emission rate, absorption rate) of one operating point."""
    n_h = _occupation(p.e_a - p.e1, p.t_h)
    n_c = _occupation(p.e_b - p.e1, p.t_c)
    n_l = _occupation(p.e_a - p.e_b, p.t_l)
    nt_h, nt_c, nt_l = 1.0 + n_h, 1.0 + n_c, 1.0 + n_l
    r, g2, tau = p.r, p.g * p.g, p.tau
    g12h, g12c = r * p.p_h, r * p.p_c
    g12 = 0.5 * (g12c * n_c + g12h * n_h)
    gbar = -r * (n_h + n_c)
    emit, absorb = g2 * nt_l, g2 * n_l
    m = np.zeros((5, 5))
    for i in (0, 1):
        m[i, i] = -r * (n_h + n_c)
        m[i, 2] = r * nt_h
        m[i, 3] = r * nt_c
        m[i, 4] = -2.0 * g12
    m[2, 2] = -2.0 * r * nt_h - emit
    m[3, 3] = -2.0 * r * nt_c - absorb
    m[2, 3] = absorb
    m[3, 2] = emit
    m[4, 0] = m[4, 1] = -g12
    m[4, 2] = g12h * nt_h
    m[4, 4] = gbar - tau
    if variant == "consistent":
        m[2, 0] = m[2, 1] = r * n_h
        m[3, 0] = m[3, 1] = r * n_c
        m[2, 4] = 2.0 * g12h * n_h
        m[3, 4] = 2.0 * g12c * n_c
        m[4, 3] = g12c * nt_c
    else:
        m[2, 0] = m[2, 1] = r * n_c
        m[3, 0] = m[3, 1] = r * n_h
        m[3, 4] = 2.0 * g12h * n_h
        m[4, 3] = 2.0 * g12c * nt_c
        m[2, 4] = (2.0 if variant == "legacy-conserving" else 1.0) * g12c * n_c
    return m, emit, absorb


def steady_state(m, variant="consistent"):
    """SVD null vector of one L(0), populations summing to 1."""
    _, s, vt = np.linalg.svd(m)
    if s[-2] < 1e-8:
        raise SingularityError(f"null space of L(0) is not one-dimensional (sigma[-2]={s[-2]:.3e})")
    rho = vt[-1]
    pop = rho[:4].sum()
    if abs(pop) < 1e-12:
        raise SingularityError("null vector carries no population weight")
    rho = rho / pop
    residual = np.abs(m @ rho).max()
    if residual > 1e-10:
        raise SingularityError(f"steady-state residual {residual:.3e} exceeds 1e-10")
    if variant == "consistent" and (rho[:4].min() < -1e-9 or rho[:4].max() > 1.0 + 1e-9):
        raise SingularityError(f"unphysical populations {rho[:4]}")
    return rho


def features(params, variant="consistent"):
    """Moment rates of the sample over those of its zero-coherence baseline."""
    def moments(p):
        m, emit, absorb = generator(p, variant)
        rho = steady_state(m, variant)
        e, a = emit * rho[2], absorb * rho[3]
        return np.array([e - a, e + a, e - a, e + a])

    m = moments(params)
    m0 = moments(params.zero_coherence())
    if np.any(np.abs(m0) < 1e-12):
        raise DegenerateSampleError(f"degenerate baseline moments {m0.tolist()}")
    return m / m0


def derivative_matrices(gen):
    """d^k L / d lam^k at lam = 0 for k = 1..4, as 5x5 matrices."""
    derivs = []
    for k in range(1, 5):
        d = np.zeros((5, 5))
        d[EDGE_ABSORB] = ((-1.0) ** k) * gen.absorb_rate
        d[EDGE_EMIT] = gen.emit_rate
        derivs.append(d)
    return derivs


def cumulants(gen):
    """First four CGF derivatives at 0 from the derivative-matrix stack."""
    rho0 = solved_steady_state(gen)
    u = TRACE_VECTOR
    bordered = np.zeros((6, 6))
    bordered[:5, :5] = gen.l0
    bordered[:5, 5] = rho0
    bordered[5, :5] = u
    ld = derivative_matrices(gen)
    rho_orders = [rho0]
    s = [0.0]
    for k in range(1, 5):
        s_k = 0.0
        for m in range(1, k + 1):
            s_k += math.comb(k, m) * float(u @ (ld[m - 1] @ rho_orders[k - m]))
        s.append(s_k)
        rhs = np.zeros(6)
        for m in range(1, k + 1):
            rhs[:5] += math.comb(k, m) * (s[m] * rho_orders[k - m] - ld[m - 1] @ rho_orders[k - m])
        rho_orders.append(np.linalg.solve(bordered, rhs)[:5])
    return np.array(s[1:])


def label(p_h):
    return sum(p_h >= edge for edge in (0.25, 0.50, 0.75))


def generate_columns(n, ranges, seed=0, variant="consistent", fail=lambda i, attempt: False):
    """(features, labels, params, redraws) of `generate(n, ranges, seed)`.

    `fail(i, attempt)` forces a redraw of sample i's attempt-th draw.
    """
    children = np.random.SeedSequence(seed).spawn(n + 1)
    budget = max(10, int(0.10 * n))
    feats, labels, params, redraws = [], [], [], 0
    for i in range(n):
        rng = np.random.default_rng(children[i])
        for attempt in range(budget + 2):
            draw = [lo + (hi - lo) * rng.random()
                    for lo, hi in (ranges.t_c, ranges.t_h, ranges.t_l, ranges.p_c, ranges.p_h)]
            p = EngineParams(t_c=draw[0], t_h=draw[1], t_l=draw[2], p_c=draw[3], p_h=draw[4])
            try:
                if fail(i, attempt):
                    raise DegenerateSampleError("forced")
                f = features(p, variant)
                break
            except NumericalError:
                redraws += 1
                if redraws > budget:
                    raise GenerationQualityError(f"more than {budget} degenerate draws")
        feats.append(f)
        labels.append(label(p.p_h))
        params.append(draw)
    return np.array(feats), np.array(labels), np.array(params), redraws


def simulate(proc, t_final, n_traj, seed, initial=None):
    """Per-jump Gillespie loop: one numpy step per jump over the live lanes."""
    if initial is None:
        initial = np.full(4, 0.25)
    initial = np.asarray(initial, dtype=float)
    escape = proc.escape_rates
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
    init_cum = np.cumsum(initial)
    init_cum[-1] = np.inf
    u0 = np.array([g.random() for g in streams])
    state = (u0[:, None] >= init_cum[None, :]).sum(axis=1)

    t = np.zeros(n_traj)
    count = np.zeros(n_traj, dtype=np.int64)
    active = np.arange(n_traj)

    while active.size:
        st = state[active]
        esc = escape[st]
        if np.any(esc == 0):
            bad = int(st[esc == 0][0])
            raise AbsorbingStateError(f"trajectory reached state {bad} with zero escape rate")
        u1, u2 = np.array([streams[i].random(2) for i in active]).T
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


def _precision_recall(chi, k):
    """(p_k, R_k) as (value, defined): diagonal over column sum, over row sum."""
    col = int(chi[:, k].sum())
    row = int(chi[k, :].sum())
    d = float(chi[k, k])
    p = (d / col, True) if col > 0 else (math.nan, False)
    r = (d / row, True) if row > 0 else (math.nan, False)
    return p, r


def _f_score(chi, k):
    (p, p_ok), (r, r_ok) = _precision_recall(chi, k)
    if not (p_ok and r_ok) or p + r == 0.0:
        return math.nan, False
    return 2.0 * p * r / (p + r) * 100.0, True


def _mcc(chi, k):
    tp = float(chi[k, k])
    fp = float(chi[:, k].sum() - chi[k, k])
    fn = float(chi[k, :].sum() - chi[k, k])
    tn = float(chi.sum() - chi[:, k].sum() - chi[k, :].sum() + chi[k, k])
    denom_sq = (tp + fp) * (tp + fn) * (tn + fp) * (tn + fn)
    if denom_sq == 0.0:
        return math.nan, False
    return (tp * tn - fp * fn) / np.sqrt(denom_sq) * 100.0, True


def class_metrics(chi):
    """Per class k: ((p, defined), (R, defined), (F, defined), (MCC, defined))."""
    chi = np.asarray(chi)
    return [(*_precision_recall(chi, k), _f_score(chi, k), _mcc(chi, k))
            for k in range(chi.shape[0])]


def render_class_metrics(chi):
    lines = ["class,precision,recall,f_score,mcc"]
    for k, cells in enumerate(class_metrics(chi)):
        lines.append(",".join([str(k)] + [format(v, ".6f") if ok else "nan"
                                          for v, ok in cells]))
    return "\n".join(lines) + "\n"


def det_shifted(rows, s):
    """det(A - s I) by mpf elimination with partial pivoting."""
    a = [row[:] for row in rows]
    n = len(a)
    for i in range(n):
        a[i][i] -= s
    det = mp.mpf(1)
    for c in range(n):
        p = max(range(c, n), key=lambda r: abs(a[r][c]))
        if a[p][c] == 0:
            return mp.mpf(0)
        if p != c:
            a[c], a[p] = a[p], a[c]
            det = -det
        piv = a[c][c]
        det *= piv
        for r in range(c + 1, n):
            f = a[r][c] / piv
            if f:
                ar, ac = a[r], a[c]
                for k in range(c + 1, n):
                    ar[k] -= f * ac[k]
    return det


def cgf_mp(gen, lam):
    """Secant refinement of the CGF at `lam` on the mpf determinant."""
    (seed,), (gap,) = _dominant_eigs(gen.eval(lam)[None])
    if gap <= _MIN_GAP:
        raise BranchAmbiguityError(f"spectral gap {gap:.3e} at lam={lam}; oracle cannot track branch")
    with mp.workdps(_DPS):
        rows = [[mp.mpf(float(gen.l0[i, j])) for j in range(5)] for i in range(5)]
        rows[EDGE_ABSORB[0]][EDGE_ABSORB[1]] = mp.mpf(float(gen.absorb_rate)) * mp.e ** (-mp.mpf(lam))
        rows[EDGE_EMIT[0]][EDGE_EMIT[1]] = mp.mpf(float(gen.emit_rate)) * mp.e ** (mp.mpf(lam))
        x0 = mp.mpf(float(seed.real))
        x1 = x0 + mp.mpf("1e-12")
        f0 = det_shifted(rows, x0)
        f1 = det_shifted(rows, x1)
        tol = mp.mpf(10) ** (2 - _DPS) * max(abs(x0), mp.mpf("1e-3"))
        # elimination rounding leaves a noise ball around the root in
        # which the secant limit-cycles: accept the best iterate once the
        # residual stops improving while the steps stay tiny
        noise_tol = mp.mpf(10) ** (8 - _DPS) * max(abs(x0), mp.mpf("1e-3"))
        best_x, best_f = x1, abs(f1)
        flat = 0
        for _ in range(30):
            if f1 == f0:
                break
            x0, x1, f0 = x1, x1 - f1 * (x1 - x0) / (f1 - f0), f1
            f1 = det_shifted(rows, x1)
            fa = abs(f1)
            flat = 0 if 2 * fa < best_f else flat + 1
            if fa < best_f:
                best_x, best_f = x1, fa
            if abs(x1 - x0) < tol:
                break
            if flat >= 6 and abs(x1 - x0) < noise_tol:
                x1 = best_x
                break
        else:
            raise BranchAmbiguityError(f"secant refinement stalled at lam={lam}")
        return x1


def exact_det_shifted(rows, s):
    """det(A - s I) for A as (man, exp) pairs, by fraction-free integer
    elimination over the one exponent of A and s, rounded once."""
    n = len(rows)
    s_man, s_exp = _dyadic(s)
    e = min(s_exp, min(exp for row in rows for _, exp in row))
    a = [[man << (exp - e) for man, exp in row] for row in rows]
    s_int = s_man << (s_exp - e)
    for i in range(n):
        a[i][i] -= s_int
    sign, prev = 1, 1
    for c in range(n - 1):
        if a[c][c] == 0:
            p = next((r for r in range(c + 1, n) if a[r][c]), None)
            if p is None:
                return mp.mpf(0)
            a[c], a[p] = a[p], a[c]
            sign = -sign
        for r in range(c + 1, n):
            f = a[r][c]
            for k in range(c + 1, n):
                a[r][k] = (a[r][k] * a[c][c] - f * a[c][k]) // prev
        prev = a[c][c]
    return mp.mpf((sign * a[n - 1][n - 1], n * e))


def cgf_exact(gen, l0, lam, dps):
    """Secant refinement of the CGF at `lam` on the exact determinant, at
    `dps` digits, seeded by its own `eigvals` call."""
    (seed,), (gap,) = _dominant_eigs(gen.eval(lam)[None])
    if gap <= _MIN_GAP:
        raise BranchAmbiguityError(f"spectral gap {gap:.3e} at lam={lam}; oracle cannot track branch")
    with mp.workdps(dps):
        rows = [row[:] for row in l0]
        rows[EDGE_ABSORB[0]][EDGE_ABSORB[1]] = _dyadic(
            mp.mpf(float(gen.absorb_rate)) * mp.e ** (-mp.mpf(lam)))
        rows[EDGE_EMIT[0]][EDGE_EMIT[1]] = _dyadic(
            mp.mpf(float(gen.emit_rate)) * mp.e ** (mp.mpf(lam)))
        x0 = mp.mpf(float(seed.real))
        x1 = x0 + mp.mpf("1e-12")
        f0 = exact_det_shifted(rows, x0)
        f1 = exact_det_shifted(rows, x1)
        tol = mp.mpf(10) ** (2 - dps) * max(abs(x0), mp.mpf("1e-3"))
        for _ in range(30):
            if f1 == f0:
                break
            x0, x1, f0 = x1, x1 - f1 * (x1 - x0) / (f1 - f0), f1
            f1 = exact_det_shifted(rows, x1)
            if abs(x1 - x0) < tol:
                break
        else:
            raise BranchAmbiguityError(f"secant refinement stalled at lam={lam}")
        return x1


def fd_cumulants(gen, dps):
    """Richardson-extrapolated differences of `cgf_exact` at `dps` digits,
    the ladder points refined in ascending order and then 0."""
    lams = sorted({sign * mult * h for h in FD_STEPS for mult in (1, 2) for sign in (1, -1)})
    l0 = [[_dyadic(v) for v in row] for row in gen.l0.tolist()]
    values = {lam: cgf_exact(gen, l0, lam, dps) for lam in lams}
    s0 = cgf_exact(gen, l0, 0.0, dps)
    with mp.workdps(dps):
        per_step = []
        for h in FD_STEPS:
            hh = mp.mpf(h)
            sp1, sm1 = values[h], values[-h]
            sp2, sm2 = values[2 * h], values[-2 * h]
            per_step.append(((sp1 - sm1) / (2 * hh),
                             (sp1 - 2 * s0 + sm1) / hh**2,
                             (sp2 - 2 * sp1 + 2 * sm1 - sm2) / (2 * hh**3),
                             (sp2 - 4 * sp1 + 6 * s0 - 4 * sm1 + sm2) / hh**4))
        out = []
        for v1, v2, v3 in zip(*per_step):
            r12 = (4 * v2 - v1) / 3
            r23 = (4 * v3 - v2) / 3
            out.append(float((16 * r23 - r12) / 15))
    return np.array(out)


def parse_line(raw, lineno):
    """(features, label, varied parameters, is_train) of one CSV line."""
    cells = raw.split(",")
    if len(cells) != 11:
        raise ParseError(f"expected 11 columns, got {len(cells)}", line=lineno)
    try:
        row = ([float(c) for c in cells[:4]], int(cells[4]), [float(c) for c in cells[5:10]])
        np.intp(row[1])  # the label column holds intp
    except (ValueError, OverflowError) as exc:
        raise ParseError(str(exc), line=lineno)
    if cells[10] not in ("train", "val"):
        raise ParseError(f"split tag must be 'train' or 'val', got {cells[10]!r}", line=lineno)
    return row + (cells[10] == "train",)


def read_csv_lines(path):
    """Dataset of a CSV, parsed line by line up to the first malformed line;
    the earliest bad line is reported."""
    lines = read_text(path, "dataset").split("\n")
    if lines[0] != CSV_HEADER:
        raise ParseError(f"expected header {CSV_HEADER!r}", line=1)

    side = meta_path(path)
    meta = json_object(read_text(side, "sidecar"), f"sidecar {side}", text=True) if side.exists() else {}

    rows, linenos, error = [], [], None
    for lineno, raw in enumerate(lines[1:], start=2):
        if raw.strip():
            try:
                rows.append(parse_line(raw, lineno))
            except ParseError as exc:
                error = exc
                break
            linenos.append(lineno)
    features, labels, params, in_train = zip(*rows) if rows else ((),) * 4
    try:
        ds = Dataset(np.reshape(features, (-1, 4)), np.array(labels, dtype=np.intp),
                     np.reshape(params, (-1, 5)), np.array(in_train, dtype=bool), meta)
    except ValidationError as exc:
        if not hasattr(exc, "row"):  # a constant of the sidecar
            raise ParseError(f"sidecar {side}: {exc}")
        raise ParseError(str(exc), line=linenos[exc.row])
    if error is not None:
        raise error
    return ds
