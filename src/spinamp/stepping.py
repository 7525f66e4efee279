"""Fixed-step classical RK4 on one array, which the amplifier takes while its
drive moves, and the sample grid both integrators store on."""

from __future__ import annotations

import numpy as np


class IntegrationError(RuntimeError):
    """Integration failure; the message names the offending step size."""


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


def step_count(t_start: float, t_end: float, dt: float) -> int:
    """The span [t_start, t_end] round()ed to whole steps of dt; ValueError below one step."""
    n_steps = int(round((t_end - t_start) / dt))
    if n_steps < 1:
        raise ValueError("t_end must exceed t_start by at least one step")
    return n_steps


def sample_grid(t_start: float, t_end: float, dt: float, every: int):
    """The steps and times stored over [t_start, t_end]: (steps, t_start + steps * dt).

    The span is step_count's. The steps are 0, every, 2 every, ... and the
    last one, which is stored even when it is not a multiple of every; the
    gap before it is then shorter than every.
    """
    n_steps = step_count(t_start, t_end, dt)
    steps = np.append(np.arange(0, n_steps, every), n_steps)
    return steps, t_start + steps * dt


def sample_index(times: np.ndarray, t: float) -> int:
    """Index of the stored sample at time t; ValueError if none lies within rounding of t."""
    idx = int(np.argmin(np.abs(times - t)))
    if abs(times[idx] - t) > 1e-9 + 1e-6 * max(1.0, abs(t)):
        raise ValueError(f"no stored sample at t = {t}; nearest is {times[idx]}")
    return idx
