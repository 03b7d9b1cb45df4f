"""Parametric boundary disturbances b(t) and their windowed-H1 decay check.

The uncertain outflow enters the model as a Dirichlet perturbation b(t)
at x = L.  Each family here is a closed-form C^2 expression with exact
analytic derivatives, built so that b(0) = b'(0) = b''(0) = 0 (the
compatibility requirement of the solver) and so that the achievable
exponential certificate is analytically controllable: the windowed
integral of b^2 + b_t^2 decays like exp(-2*gamma*t).  The formula is
compiled, in `_lw.c`, because the time loop of `dynamics` evaluates it at
every step; `sample_b` calls it.
"""

from __future__ import annotations

import bisect
import ctypes
import math
import numbers
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy import add, divide, multiply

from .lyapunov import windowed_series
from .stationary import require

FAMILIES = ("zero", "decaying_burst", "compact_burst")
# The values of a DisturbanceSpec that _lw.c reads, in its order
PARAMETERS = ("family", "amplitude", "frequency", "gamma", "T_period", "phase", "t_off")

# NumPy's default_rng(seed) without importing numpy.random, which would
# bring in `secrets` and OpenSSL's hashlib (about 6 MiB per process).
# SeedSequence(seed) hashes the seed's little-endian 32-bit words into a
# 4-word pool and draws the 8 words that seed PCG64
# (numpy/random/bit_generator.pyx); PCG64 is a 128-bit LCG with XSL-RR
# output (numpy/random/src/pcg64/pcg64.h; M. E. O'Neill, "PCG: A Family of
# Simple Fast Space-Efficient Statistically Good Algorithms for Random
# Number Generation", 2014).
_M32, _M64, _M128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _seed_words(seed: int) -> list[int]:
    """SeedSequence(seed).generate_state(8, np.uint32) for an int seed >= 0."""
    words = [seed & _M32]
    while seed := seed >> 32:
        words.append(seed & _M32)
    h = 0x43B0D7E5

    def hashmix(v):
        nonlocal h
        v ^= h
        h = h * 0x931E8875 & _M32
        v = v * h & _M32
        return v ^ v >> 16

    def mix(x, y):
        r = (0xCA01F9DD * x - 0x4973F715 * y) & _M32
        return r ^ r >> 16

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for w in words[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(w))
    out, h = [], 0x8B51F9DD
    for i in range(8):
        v = pool[i % 4] ^ h
        h = h * 0x58F38DED & _M32
        v = v * h & _M32
        out.append(v ^ v >> 16)
    return out


def _first_uniform(seed: int) -> float:
    """np.random.default_rng(seed).random(): PCG64's first double in [0, 1)."""
    w = _seed_words(seed)
    s0, s1, s2, s3 = (w[i] | w[i + 1] << 32 for i in range(0, 8, 2))
    inc = ((s2 << 64 | s3) << 1 | 1) & _M128

    def step(state):
        return (state * _PCG_MULT + inc) & _M128

    state = step(step(0) + (s0 << 64 | s1))     # seeding
    state = step(state)                         # a draw steps, then outputs
    rot = state >> 122
    x = (state >> 64 ^ state) & _M64
    x = (x >> rot | x << (64 - rot)) & _M64
    return (x >> 11) * 2.0 ** -53


@dataclass(frozen=True)
class DisturbanceSpec:
    """One realization of the uncertain customer behavior.

    The claimed certificate (nu, C_nu) bounds the sliding-window integral
    of b^2 + b_t^2 by C_nu * exp(-nu t); it is a claim, checked by
    verify_noise_bound, not enforced by construction.  The seed labels
    the scenario and only moves the carrier phase.
    """

    family: str = "zero"
    amplitude: float = 0.0
    frequency: float = 1.0
    gamma: float = 1.0
    nu: float = 1.0
    C_nu: float = 1.0
    T_period: float = 1.0
    seed: int = 0
    t_off: float = math.inf   # support end for compact_burst (vanishes for t >= t_off)

    def __post_init__(self):
        require(self.family in FAMILIES, "family", f"one of {', '.join(FAMILIES)}")
        require(abs(self.amplitude) < math.inf, "amplitude", "finite")
        require(abs(self.frequency) < math.inf, "frequency", "finite")
        require(0.0 <= self.gamma < math.inf, "gamma", "finite and >= 0")
        require(0.0 < self.nu < math.inf, "nu", "finite and > 0")
        require(0.0 < self.C_nu < math.inf, "C_nu", "finite and > 0")
        require(0.0 < self.T_period < math.inf, "T_period", "finite and > 0")
        require(isinstance(self.seed, numbers.Integral) and self.seed >= 0,
                "seed", "an integer >= 0")
        require(0.0 < self.t_off, "t_off", "> 0")

    @cached_property
    def phase(self) -> float:
        """Carrier phase: 0 for seed 0, else a uniform draw seeded by `seed`.

        The draw is NumPy's first `default_rng(seed).uniform(0, 2*pi)`, bit
        for bit, computed without importing numpy.random.
        """
        if self.seed == 0:
            return 0.0
        return 2.0 * math.pi * _first_uniform(int(self.seed))

    @cached_property
    def parameters(self) -> tuple:
        """The values named by PARAMETERS, as floats; the family is its index in FAMILIES."""
        return (float(FAMILIES.index(self.family)), *(float(getattr(self, name))
                                                      for name in PARAMETERS[1:]))


def sample_b(spec: DisturbanceSpec, t: float) -> tuple[float, float, float]:
    """Evaluate (b, b_t, b_tt) at time t >= 0 with exact derivatives.

    A quintic smoothstep switches the decaying carrier
    A exp(-gamma t) sin(2 pi f t + phase) on over the ramp T_period / 2; a
    compact burst is switched off by a second one over [t_off - ramp,
    t_off] and is zero from t_off on.  The zero family, and amplitude 0,
    give zeros.  Computed by lw_sample_b of the compiled library.
    """
    if t < 0:
        raise ValueError("t must be >= 0")
    from .dynamics import step_library     # dynamics imports this module
    out = (ctypes.c_double * 3)()
    step_library().lw_sample_b((ctypes.c_double * len(PARAMETERS))(*spec.parameters), t, out)
    return tuple(out)


# the relative slack of the noise claim: it passes when W(t) <= (1 + slack) C_nu exp(-nu t)
NOISE_REL_SLACK = 1e-6


def verify_noise_bound(times, b, b_t, T_period, nu, C_nu):
    """Check the windowed-H1 decay claim on a sampled disturbance trace.

    For every sample time t with t - T_period >= times[0] (to 1e-12) the
    trailing-window integral W(t) of b^2 + b_t^2 is compared against
    C_nu * exp(-nu t); `times` must be strictly increasing.  Also reports
    the minimal admissible C_nu = max_t W(t) * exp(nu t).
    """
    times = np.asarray(times, dtype=float)
    if times[-1] <= T_period:
        raise ValueError("trace must extend beyond T_period")
    if C_nu <= 0:
        raise ValueError("C_nu must be > 0")
    integrand = np.square(np.asarray(b, dtype=float))
    add(integrand, np.square(np.asarray(b_t, dtype=float)), integrand)
    w = windowed_series(integrand, times, T_period)
    # the checked samples: t - T_period is nondecreasing in t, so they are a tail
    first = bisect.bisect_left(times, times[0] - 1e-12, key=lambda t: t - T_period)
    t_w, w = times[first:], w[first:]
    if not len(t_w):
        return {"worst_ratio": 0.0, "pass": True, "minimal_C_nu": 0.0}
    envelope = integrand[first:]
    multiply(-nu, t_w, envelope)
    np.exp(envelope, envelope)
    multiply(C_nu, envelope, envelope)
    ratio = np.full(len(w), np.inf)
    with np.errstate(divide="ignore", invalid="ignore"):
        divide(w, envelope, ratio, where=envelope > 0)
    # NaN counts as nonzero: a trace that is zero throughout passes at any envelope
    worst = float(np.max(ratio)) if np.any(w) else 0.0
    scaled = ratio              # then W(t) exp(nu t), in the same array
    multiply(nu, t_w, scaled)
    np.exp(scaled, scaled)
    multiply(w, scaled, scaled)
    return {
        "worst_ratio": worst,
        "pass": worst <= 1.0 + NOISE_REL_SLACK,
        "minimal_C_nu": float(np.max(scaled)),
    }
