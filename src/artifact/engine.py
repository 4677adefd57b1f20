"""Four-level maser engine: parameters, bath occupations, counting-field generator.

The engine has two degenerate ground states coupled to an upper lasing
level through a hot bath and to a lower lasing level through a cold
bath; the lasing pair exchanges quanta with a single cavity mode held
at its own effective temperature. The reduced state is the length-5
real vector

    (pop_1, pop_2, pop_upper, pop_lower, coherence)

where `coherence` is the real part of the cross term between the two
degenerate states. Interference between the two bath-mediated decay
pathways pumps that cross term at a rate set by the dimensionless
strengths p_h (hot) and p_c (cold).

The generator carries a counting field `lam` on the two cavity edges
(COUNTED) so that derivatives of its dominant eigenvalue give cumulants
of the net photon number emitted into the cavity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DomainError, as_name, as_real, as_reals, in_interval

# Columns of a parameter array: the operating-point parameters a dataset varies.
VARIED = ("t_c", "t_h", "t_l", "p_c", "p_h")
COHERENCE = ("p_c", "p_h")  # the coherence strengths among them, zero at a sample's baseline

# The interval of every EngineParams field, in the form of `errors.as_real`:
# EngineParams reads it value by value, `in_box` column by column.
SPANS = {"t_c": "(0, inf)", "t_h": "(0, inf)", "t_l": "(0, inf)", "p_c": "[0, 1]", "p_h": "[0, 1]",
         "e1": "(-inf, inf)", "e_a": "(-inf, inf)", "e_b": "(-inf, inf)",
         "g": "(0, inf)", "r": "(0, inf)", "tau": "[0, inf)"}

# Left trace vector: populations sum to 1; the coherence slot carries no trace.
TRACE_VECTOR = np.array([1.0, 1.0, 1.0, 1.0, 0.0])
TRACE_VECTOR.setflags(write=False)

# Counting edges (row, col): row gains population, col loses it.
EDGE_EMIT = (3, 2)    # upper -> lower, a photon into the cavity
EDGE_ABSORB = (2, 3)  # lower -> upper, a photon from the cavity
# Each counted edge with the photons a jump along it adds: L(lam) dresses its rate
# with e^{sign lam}, so L_m = d^m L / d lam^m at 0 holds rate * sign^m there.
COUNTED = ((EDGE_ABSORB, -1.0), (EDGE_EMIT, 1.0))

#: "consistent"        -- each excited level is fed and drained by the same
#:                        bath; detailed balance holds at zero thermodynamic
#:                        bias. Default, and the only layout whose steady
#:                        state is physical across the whole parameter box.
#: "legacy-conserving" -- crossed-feed legacy layout with the coherence-column
#:                        repair that restores population conservation. Kept
#:                        for comparison; its steady state is rejected where
#:                        a population leaves [0, 1].
GENERATOR_VARIANTS = ("consistent", "legacy-conserving")

# exp(x) overflows float64 near x=709; the occupation there is < 1e-304.
_OVERFLOW_X = 700.0


def bose_occupations(gap: float, temperatures) -> np.ndarray:
    """Mean occupations 1/(exp(gap/T) - 1) of a mode at energy `gap` > 0, per finite T > 0."""
    # math.expm1 per element: np.expm1 differs from it in the last ulp,
    # which would move the dataset CSV bytes.
    return np.array([0.0 if x > _OVERFLOW_X else 1.0 / math.expm1(x)
                     for x in (gap / as_reals(temperatures, "temperatures", ("n",))).tolist()])


@dataclass(frozen=True)
class EngineParams:
    """All physical constants of the engine and its three reservoirs.

    Defaults pin the fixed engine geometry (level energies, couplings,
    dephasing) and a reference operating point for the varied
    parameters (temperatures and coherence strengths).
    """

    t_c: float = 1.0    # cold-bath temperature
    t_h: float = 3.5    # hot-bath temperature
    t_l: float = 2.0    # cavity effective temperature
    p_c: float = 0.0    # cold-bath-induced coherence strength
    p_h: float = 0.0    # hot-bath-induced coherence strength
    e1: float = 0.5     # energy of the degenerate pair
    e_a: float = 3.0    # energy of the upper lasing level
    e_b: float = 2.0    # energy of the lower lasing level
    g: float = 1.0      # system-cavity coupling
    r: float = 0.1      # symmetric system-bath rate (both degenerate states)
    tau: float = 0.1    # pure-dephasing rate, dimensionless

    def __post_init__(self):
        for name, span in SPANS.items():
            object.__setattr__(self, name, as_real(getattr(self, name), name, span))
        if not (self.e_a > self.e_b > self.e1):
            raise DomainError(f"level ordering must satisfy e_a > e_b > e1, got "
                              f"e_a={self.e_a}, e_b={self.e_b}, e1={self.e1}")

    def zero_coherence(self) -> "EngineParams":
        """Same operating point with both coherence channels switched off."""
        return replace(self, **dict.fromkeys(COHERENCE, 0.0))


def in_box(varied: np.ndarray) -> np.ndarray:
    """Which rows of an (n, 5) VARIED-order array EngineParams accepts."""
    return np.logical_and.reduce([in_interval(col, SPANS[k]) for k, col in zip(VARIED, varied.T)])


@dataclass(frozen=True)
class TwistedGenerator:
    """Counting-field-dressed generator: L(0) and eval(lam).

    Only the counted edges (COUNTED) carry lam, so L(0)'s entries there, the
    rates `emit_rate` and `absorb_rate`, fix every lam-derivative of L. L(0) is
    a write-protected 5x5 array of finite reals whose two counted entries
    lie in [0, inf), else a DomainError, so instances are safe to share.
    """

    l0: np.ndarray                 # 5x5 generator at lam = 0
    emit_rate = property(lambda self: float(self.l0[EDGE_EMIT]), doc="g^2 * (1 + n_l), on EDGE_EMIT")
    absorb_rate = property(lambda self: float(self.l0[EDGE_ABSORB]), doc="g^2 * n_l, on EDGE_ABSORB")

    def __post_init__(self):
        object.__setattr__(self, "l0", as_reals(self.l0, "l0", (5, 5), "(-inf, inf)"))
        for name in ("emit_rate", "absorb_rate"):
            as_real(getattr(self, name), name, "[0, inf)")

    def eval(self, lam: float) -> np.ndarray:
        """Assembled 5x5 generator at counting field `lam`."""
        m = self.l0.copy()
        for edge, sign in COUNTED:
            m[edge] *= math.exp(sign * lam)
        return m


def build_generators(varied, fixed: EngineParams = EngineParams(),
                     variant: str = "consistent"):
    """Counting-field generators of n operating points: L(0) as (n, 5, 5).

    `varied` is (n, 5) in VARIED order; `fixed` supplies the other
    constants. The first row outside `in_box` raises EngineParams' error.
    Only the counted edges (COUNTED) depend on the counting field; their
    rates are g^2*(1+n_l) for emission and g^2*n_l for absorption.
    `variant` picks the layout (see GENERATOR_VARIANTS); the default is the
    per-bath-consistent one, the only one that equilibrates at zero
    thermodynamic bias.
    """
    as_name(variant, "variant", GENERATOR_VARIANTS)
    varied = as_reals(varied, "varied", ("n", len(VARIED)))
    bad = ~in_box(varied)
    if bad.any():  # EngineParams reads the same SPANS, so it refuses the row
        replace(fixed, **dict(zip(VARIED, varied[bad][0].tolist())))
    t_c, t_h, t_l, p_c, p_h = varied.T
    n_h = bose_occupations(fixed.e_a - fixed.e1, t_h)
    n_c = bose_occupations(fixed.e_b - fixed.e1, t_c)
    n_l = bose_occupations(fixed.e_a - fixed.e_b, t_l)
    nt_h, nt_c, nt_l = 1.0 + n_h, 1.0 + n_c, 1.0 + n_l
    r, g2, tau = fixed.r, fixed.g * fixed.g, fixed.tau
    g12h, g12c = r * p_h, r * p_c  # interference pumping rates
    # Mean interference drive and dressed dephasing of the coherence slot.
    g12 = 0.5 * (g12c * n_c + g12h * n_h)
    gbar = -r * (n_h + n_c)
    emit, absorb = g2 * nt_l, g2 * n_l  # the rates of the counted edges

    m = np.zeros((5, 5, len(t_c)))  # m[row, col] is a column; stack axis moved first below
    # Degenerate pair: drain into both baths, gain by emission from each
    # excited level, and couple to the coherence slot symmetrically.
    for i in (0, 1):
        m[i, i] = -r * (n_h + n_c)
        m[i, 2] = r * nt_h
        m[i, 3] = r * nt_c
        m[i, 4] = -2.0 * g12
    # Excited-level diagonals: each drains into its own bath and the cavity.
    m[2, 2] = -2.0 * r * nt_h - emit
    m[3, 3] = -2.0 * r * nt_c - absorb
    # Cavity (counted) edges at lam = 0.
    m[EDGE_ABSORB], m[EDGE_EMIT] = absorb, emit
    # Coherence row: pumped by both excited levels, drained by gbar - tau.
    m[4, 0] = m[4, 1] = -g12
    m[4, 2] = g12h * nt_h
    m[4, 4] = gbar - tau

    if variant == "consistent":
        # Each excited level is fed by the bath that also drains it.
        m[2, 0] = m[2, 1] = r * n_h
        m[3, 0] = m[3, 1] = r * n_c
        m[2, 4] = 2.0 * g12h * n_h
        m[3, 4] = 2.0 * g12c * n_c
        m[4, 3] = g12c * nt_c
    else:
        # Legacy layout: bath feeds crossed relative to the drains, and an
        # asymmetric factor 2 on the coherence row's cold entry. The
        # coherence column is balanced against the two -g12 entries so
        # the population block conserves trace.
        m[2, 0] = m[2, 1] = r * n_c
        m[3, 0] = m[3, 1] = r * n_h
        m[3, 4] = 2.0 * g12h * n_h
        m[4, 3] = 2.0 * g12c * nt_c
        m[2, 4] = 2.0 * g12c * n_c
    return np.ascontiguousarray(m.transpose(2, 0, 1))


def varied_row(params: EngineParams) -> np.ndarray:
    """The (1, 5) parameter array of one operating point."""
    return np.array([[getattr(params, k) for k in VARIED]])


def build_generator(params: EngineParams, variant: str = "consistent") -> TwistedGenerator:
    """The counting-field generator of one operating point (see build_generators)."""
    return TwistedGenerator(build_generators(varied_row(params), params, variant)[0])
