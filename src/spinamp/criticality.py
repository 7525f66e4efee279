"""Sweeps around the first-order transition and critical-exponent fits.

The susceptibility is the response of the magnetization along the field,
M_x = -<S_x>/N per qubit, to the field B_x that couples to it through the
+2 B_x S_x term:

    chi = dM_x/dB_x = -(1/N) d<S_x>/dB_x = -(1/2N) d^2 E_0/dB_x^2

(Hellmann-Feynman). E_0 is concave in B_x, so chi >= 0. It is taken as a
central difference with the relative step REL_STEP. The size scan uses the one-sided
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
import math
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


REL_STEP = 1e-2  # relative field step of the central-difference chi


class InsufficientDataError(ValueError):
    """Fewer than three usable points inside the fit window."""


class SweepPoint(NamedTuple):
    """The statics at one sweep field; the fields are the columns of the sweep CSVs, in order."""

    bx: float
    zeta_x: float
    zeta_y: float
    sqrt_zeta_x: float
    chi: float
    gap: float
    c_xxyy: float
    eta: float


class ScalingFit(NamedTuple):
    """Least-squares power law on (log x, log y); exponent is the slope.

    The fit used the n_points points whose x lies in [window_lo, window_hi].
    The fields are the columns of the fits CSV after its quantity, in order.
    """

    exponent: float
    log_amplitude: float
    r_squared: float
    window_lo: float
    window_hi: float
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


def susceptibility_at(params: LmgParams, bx: float) -> float:
    """Central-difference chi(bx) = dM_x/d bx with the step REL_STEP * bx."""
    if bx <= 0.0:
        raise ValueError(f"bx must be positive, got {bx}")
    up = _magnetization_x(solve_ground(dataclasses.replace(params, bx=bx * (1.0 + REL_STEP))))
    dn = _magnetization_x(solve_ground(dataclasses.replace(params, bx=bx * (1.0 - REL_STEP))))
    return (up - dn) / (2.0 * bx * REL_STEP)


def field_sweep(params: LmgParams, bx_values: Sequence[float]) -> list[SweepPoint]:
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
            chi = susceptibility_at(params, float(bx))
            point = SweepPoint(
                bx=float(bx),
                zeta_x=ops.zeta_x,
                zeta_y=ops.zeta_y,
                sqrt_zeta_x=float(np.sqrt(ops.zeta_x)),
                chi=chi,
                gap=result.gap,  # E1's Lanczos runs here, on the first read
                c_xxyy=corr.c_xxyy,
                eta=corr.eta,
            )
        except Exception as err:
            raise RuntimeError(f"field sweep failed at bx = {bx:.6e}: {err}") from err
        points.append(point)
    return points


def fit_power_law(points, window) -> ScalingFit:
    """Fit y = A x^p over the points whose x falls inside the window.

    Raises InsufficientDataError when the window holds fewer than three x
    apart in log x by more than rounding, 4 ulps of the largest |log x|:
    each log is rounded within about an ulp, so a fit over x closer than
    that fits the rounding, not a power law. Raises ValueError (listing
    offenders) for nonpositive or non-finite values in the window.
    """
    lo, hi = window
    if not lo < hi:
        raise ValueError(f"window must satisfy lo < hi, got {window}")
    pts = [(float(x), float(y)) for x, y in points]
    inside = [(x, y) for x, y in pts if lo <= x <= hi]
    bad = [(x, y) for x, y in inside if not (0.0 < x < math.inf and 0.0 < y < math.inf)]  # NaN fails
    if bad:
        raise ValueError(f"nonpositive or non-finite values inside fit window: {bad}")
    lx = np.log([x for x, _ in inside])
    gaps = np.diff(np.sort(lx))
    resolved = int(np.count_nonzero(gaps > 4.0 * np.spacing(np.abs(lx).max()))) + 1 if lx.size else 0
    if resolved < 3:
        distinct = len({x for x, _ in inside})
        raise InsufficientDataError(
            f"need >= 3 points inside window {window}, found {len(inside)} at {distinct} distinct x, "
            f"{resolved} apart in log x by more than rounding"
        )
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
        window_lo=float(lo),
        window_hi=float(hi),
        n_points=len(inside),
    )


def size_sweep(params: LmgParams, bx: float, n_values: Sequence[int]) -> list[SizePoint]:
    """Per-N statics of the model params, with n_qubits set to each N.

    chi uses the one-sided probe at the given bx; the gap is evaluated at
    bx = 0, where on the transition line jx = jy it follows the 1/N law;
    c_xxyy is taken from the same probe-field solve as chi. params.bx is
    not used, as in field_sweep.
    """
    if bx <= 0.0:
        raise ValueError(f"bx must be positive, got {bx}")
    out = []
    for n in n_values:
        n = int(n)
        if n < 2:
            raise ValueError(f"n_values must be >= 2, got {n}")
        try:
            probe = solve_ground(dataclasses.replace(params, n_qubits=n, bx=bx))
            chi = _magnetization_x(probe) / bx
            gap0 = solve_ground(dataclasses.replace(params, n_qubits=n, bx=0.0)).gap
            corr = correlations(probe)
        except Exception as err:
            raise RuntimeError(f"size sweep failed at N = {n}: {err}") from err
        out.append(SizePoint(n=n, chi=chi, gap=gap0, c_xxyy=corr.c_xxyy))
    return out
