"""Sweeps around the first-order transition and critical-exponent fits.

The susceptibility is the response of the magnetization along the field,
M_x = -<S_x>/N per qubit, to the field B_x that couples to it through the
+2 B_x S_x term:

    chi = dM_x/dB_x = -(1/N) d<S_x>/dB_x = -(1/2N) d^2 E_0/dB_x^2

(Hellmann-Feynman). E_0 is concave in B_x, so chi >= 0. It is taken as a
central difference with a relative step. The size scan uses the one-sided
form M_x(bx)/bx at a fixed small probe field instead, which is how the
chi-vs-N experiment is defined; M_x(0) = 0 because a pi rotation about z
flips S_x and leaves the zero-field Hamiltonian unchanged.

sqrt(zeta_x) = sqrt(<S_x^2>)/N stays in the sweep output as the order
parameter, but it is not differentiated: at B_x = 0 it is the spontaneous
magnetization of a parity-symmetric state, and its field derivative is not
a response function (it can be negative).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .dicke import build_collective_operator, expectation
from .lmg_statics import (
    GroundStateResult,
    LmgParams,
    correlations,
    order_parameters,
    solve_ground,
)


class InsufficientDataError(ValueError):
    """Fewer than three usable points inside the fit window."""


@dataclass(frozen=True)
class SweepPoint:
    bx: float
    zeta_x: float
    zeta_y: float
    sqrt_zeta_x: float
    chi: float
    gap: float
    c_xxyy: float
    eta: float


@dataclass(frozen=True)
class ScalingFit:
    """Least-squares power law on (log x, log y); exponent is the slope."""

    exponent: float
    log_amplitude: float
    r_squared: float
    window: tuple
    n_points: int


class SizePoint(NamedTuple):
    n: int
    chi: float
    gap: float
    c_xxyy: float


def _magnetization_x(result: GroundStateResult) -> float:
    """M_x = -<S_x>/N in a solved ground state."""
    sx = build_collective_operator(result.params.space, "Sx")
    return -expectation(sx, result.ground) / result.params.n_qubits


def susceptibility_at(params: LmgParams, bx: float, rel_step: float = 1e-2) -> float:
    """Central-difference chi(bx) = dM_x/d bx at the given field."""
    if bx <= 0.0:
        raise ValueError(f"bx must be positive, got {bx}")
    if not 0.0 < rel_step <= 0.1:
        raise ValueError(f"rel_step must lie in (0, 0.1], got {rel_step}")
    up = _magnetization_x(solve_ground(dataclasses.replace(params, bx=bx * (1.0 + rel_step))))
    dn = _magnetization_x(solve_ground(dataclasses.replace(params, bx=bx * (1.0 - rel_step))))
    return (up - dn) / (2.0 * bx * rel_step)


def susceptibility_one_sided(params: LmgParams, bx: float) -> float:
    """M_x(bx) / bx, the size-scan form (M_x vanishes at zero field)."""
    if bx <= 0.0:
        raise ValueError(f"bx must be positive, got {bx}")
    return _magnetization_x(solve_ground(dataclasses.replace(params, bx=bx))) / bx


def field_sweep(
    params: LmgParams, bx_values: Sequence[float], rel_step: float = 1e-2
) -> list[SweepPoint]:
    """One SweepPoint per field value, each from independent solves."""
    bx_values = np.asarray(bx_values, dtype=float)
    if np.any(bx_values <= 0.0):
        raise ValueError("all sweep fields must be positive")
    points = []
    for bx in bx_values:
        try:
            result = solve_ground(dataclasses.replace(params, bx=float(bx)))
            ops = order_parameters(result)
            corr = correlations(result)
            chi = susceptibility_at(params, float(bx), rel_step=rel_step)
        except Exception as err:
            raise RuntimeError(f"field sweep failed at bx = {bx:.6e}: {err}") from err
        points.append(
            SweepPoint(
                bx=float(bx),
                zeta_x=ops.zeta_x,
                zeta_y=ops.zeta_y,
                sqrt_zeta_x=float(np.sqrt(ops.zeta_x)),
                chi=chi,
                gap=result.gap,
                c_xxyy=corr.c_xxyy,
                eta=corr.eta,
            )
        )
    return points


def fit_power_law(points, window) -> ScalingFit:
    """Fit y = A x^p over the points whose x falls inside the window.

    Raises InsufficientDataError for fewer than three usable points and
    ValueError (listing offenders) for nonpositive values in the window.
    """
    lo, hi = window
    if not lo < hi:
        raise ValueError(f"window must satisfy lo < hi, got {window}")
    pts = [(float(x), float(y)) for x, y in points]
    inside = [(x, y) for x, y in pts if lo <= x <= hi]
    bad = [(x, y) for x, y in inside if x <= 0.0 or y <= 0.0]
    if bad:
        raise ValueError(f"nonpositive values inside fit window: {bad}")
    if len(inside) < 3:
        raise InsufficientDataError(
            f"need >= 3 points inside window {window}, found {len(inside)}"
        )
    lx = np.log([x for x, _ in inside])
    ly = np.log([y for _, y in inside])
    design = np.vstack([lx, np.ones_like(lx)]).T
    coef, *_ = np.linalg.lstsq(design, ly, rcond=None)
    pred = design @ coef
    ss_res = float(np.sum((ly - pred) ** 2))
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    r_squared = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return ScalingFit(
        exponent=float(coef[0]),
        log_amplitude=float(coef[1]),
        r_squared=r_squared,
        window=(float(lo), float(hi)),
        n_points=len(inside),
    )


def size_sweep(j: float, bx: float, n_values: Sequence[int], epsilon: float = 1.0) -> list[SizePoint]:
    """Per-N statics on the transition line jx = jy = j.

    chi uses the one-sided probe at the given bx; the gap is evaluated at
    bx = 0, where it follows the 1/N law; c_xxyy is taken from the same
    probe-field solve as chi.
    """
    if bx <= 0.0:
        raise ValueError(f"bx must be positive, got {bx}")
    out = []
    for n in n_values:
        n = int(n)
        if n < 2:
            raise ValueError(f"n_values must be >= 2, got {n}")
        params = LmgParams(n_qubits=n, jx=j, jy=j, epsilon=epsilon)
        try:
            probe = solve_ground(dataclasses.replace(params, bx=bx))
            chi = _magnetization_x(probe) / bx
            gap0 = solve_ground(params).gap
            corr = correlations(probe)
        except Exception as err:
            raise RuntimeError(f"size sweep failed at N = {n}: {err}") from err
        out.append(SizePoint(n=n, chi=chi, gap=gap0, c_xxyy=corr.c_xxyy))
    return out
