"""Time grids and fixed-step classical RK4.

TimeGrid is the [integration] section of a run and the grid both
integrators step on: the absorber stores on it at its own stride, the
amplifier at the grid's sample_every. rk4_step is the array step the
amplifier takes while its drive moves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


# A grid of more steps than this cannot run: 10^9 steps is 4e4 times the
# registry's 25 000, over an hour of absorber stepping at ~4.5 us a step, and
# the absorber's pulse table on the half steps alone holds 2e9 values.
MAX_STEPS = 10**9


class IntegrationError(RuntimeError):
    """Integration failure; the message names the offending step size."""


@dataclass(frozen=True)
class TimeGrid:
    """Steps of dt from t_start to t_end, and the stride sample_every between stored samples.

    The span is round()ed to whole steps (n_steps). ValueError, naming the
    field, if dt, t_start or t_end is not finite, dt is not positive,
    sample_every is below 1, the step count is not finite or above
    MAX_STEPS, or the span is under one step. sample_every may be None for
    an integrator that keeps its own stride.
    """

    dt: float
    t_start: float
    t_end: float
    sample_every: int | None = None

    def __post_init__(self):
        for name in ("dt", "t_start", "t_end"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.dt <= 0.0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        if self.sample_every is not None and self.sample_every < 1:
            raise ValueError(f"sample_every must be >= 1, got {self.sample_every}")
        span = (self.t_end - self.t_start) / self.dt
        if not math.isfinite(span):
            raise ValueError(f"the step count (t_end - t_start) / dt must be finite, got {span}")
        if self.n_steps > MAX_STEPS:
            raise ValueError(
                f"the step count (t_end - t_start) / dt must be at most {MAX_STEPS}, got {self.n_steps}"
            )
        if self.n_steps < 1:
            raise ValueError("t_end must exceed t_start by at least one step")

    @property
    def n_steps(self) -> int:
        """The span (t_end - t_start) / dt round()ed to whole steps."""
        return int(round((self.t_end - self.t_start) / self.dt))

    def samples(self, every: int):
        """The steps and times stored every `every` steps: (steps, t_start + steps * dt).

        The steps are 0, every, 2 every, ... and the last one, n_steps, which
        is stored even when it is not a multiple of every; the gap before it
        is then shorter than every.
        """
        n_steps = self.n_steps
        steps = np.append(np.arange(0, n_steps, every), n_steps)
        return steps, self.t_start + steps * self.dt


def rk4_step(y, t, dt, rhs):
    """One classical Runge-Kutta step of dy/dt = rhs(t, y) for an array y.

    rhs must return a new array each call: the sum k1 + 2 k2 + 2 k3 + k4 is
    formed in place in k1, with the operations and their order of
    y + (dt / 6) (k1 + 2 k2 + 2 k3 + k4), so the result is that one's to
    the last bit.
    """
    half = 0.5 * dt
    k1 = rhs(t, y)
    k2 = rhs(t + half, y + half * k1)
    k3 = rhs(t + half, y + half * k2)
    k4 = rhs(t + dt, y + dt * k3)
    k2 *= 2.0
    k1 += k2
    k3 *= 2.0
    k1 += k3
    k1 += k4
    k1 *= dt / 6.0
    k1 += y
    return k1


def sample_index(times: np.ndarray, t: float) -> int:
    """Index of the stored sample at time t; ValueError if none lies within rounding of t."""
    idx = int(np.argmin(np.abs(times - t)))
    if abs(times[idx] - t) > 1e-9 + 1e-6 * max(1.0, abs(t)):
        raise ValueError(f"no stored sample at t = {t}; nearest is {times[idx]}")
    return idx
