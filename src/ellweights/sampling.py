"""Seeded random parameter points with resonance rejection.

Logs are drawn uniformly from Re in [-1, 1], Im in [-pi, pi]; a draw is
rejected when two logs in the same group come too close or when any theta
denominator a generic evaluation can meet falls below the resonance
threshold.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ResamplingError
from .qtheta import ThetaContext
from .weightfn import ChernPoint, ParameterPoint, is_generic

#: minimum pairwise distance between logs in the same group
SEPARATION = 0.05

#: draws before random_parameter_point gives up
MAX_DRAWS = 200


def _draw_logs(rng: np.random.Generator, n: int) -> tuple[complex, ...]:
    re = rng.uniform(-1.0, 1.0, n)
    im = rng.uniform(-math.pi, math.pi, n)
    return tuple(complex(a, b) for a, b in zip(re, im))


def _separated(logs) -> bool:
    return all(abs(a - b) >= SEPARATION
               for i, a in enumerate(logs) for b in logs[i + 1:])


def random_parameter_point(n: int, rng: np.random.Generator,
                           ctx: ThetaContext) -> ParameterPoint:
    """Draw a generic, non-resonant parameter point."""
    for _ in range(MAX_DRAWS):
        lz = _draw_logs(rng, n)
        lmu = _draw_logs(rng, n)
        lh = _draw_logs(rng, 1)[0]
        if not (_separated(lz) and _separated(lmu)):
            continue
        p = ParameterPoint(log_z=lz, log_mu=lmu, log_h=lh)
        if is_generic(p, ctx):
            return p
    raise ResamplingError(f"no non-resonant point found in {MAX_DRAWS} draws")


def random_chern_point(n: int, rng: np.random.Generator) -> ChernPoint:
    """Generic Chern-root arguments for an n-point evaluation."""
    return ChernPoint(tuple(_draw_logs(rng, k) for k in range(1, n)))
