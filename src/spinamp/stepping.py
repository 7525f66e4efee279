"""Fixed-step classical RK4 for the small dense integrations in this package,
and the sample grid both integrators store on."""

from __future__ import annotations

import numpy as np


class IntegrationError(RuntimeError):
    """Integration failure; the message names the offending step size."""


def rk4_step(y, t, dt, rhs):
    """One classical Runge-Kutta step of dy/dt = rhs(t, y)."""
    k1 = rhs(t, y)
    k2 = rhs(t + 0.5 * dt, y + (0.5 * dt) * k1)
    k3 = rhs(t + 0.5 * dt, y + (0.5 * dt) * k2)
    k4 = rhs(t + dt, y + dt * k3)
    return y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def sample_grid(t_start: float, t_end: float, dt: float, every: int):
    """The steps and times stored over [t_start, t_end]: (steps, t_start + steps * dt).

    The span is round()ed to whole steps of dt. The steps are 0, every,
    2 every, ... and the last one, which is stored even when it is not a
    multiple of every; the gap before it is then shorter than every.
    """
    n_steps = int(round((t_end - t_start) / dt))
    if n_steps < 1:
        raise ValueError("t_end must exceed t_start by at least one step")
    steps = np.append(np.arange(0, n_steps, every), n_steps)
    return steps, t_start + steps * dt


def sample_index(times: np.ndarray, t: float) -> int:
    """Index of the stored sample at time t; ValueError if none lies within rounding of t."""
    idx = int(np.argmin(np.abs(times - t)))
    if abs(times[idx] - t) > 1e-9 + 1e-6 * max(1.0, abs(t)):
        raise ValueError(f"no stored sample at t = {t}; nearest is {times[idx]}")
    return idx
