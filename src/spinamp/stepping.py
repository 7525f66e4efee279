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


def sample_steps(n_steps: int, every: int) -> np.ndarray:
    """Step counts at which a trajectory is stored: 0, every, 2 every, ... and n_steps.

    The last sample comes after the final step even when n_steps is not a
    multiple of every; the gap before it is then shorter than every.
    """
    return np.append(np.arange(0, n_steps, every), n_steps)
