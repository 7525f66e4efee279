"""Correctness checks on one experiment's output directory.

Every check compares the program's CSV files with a value computed apart
from the program (reference.py) or with a property the method must have.
None compares with a stored copy of earlier output. A check raises
CheckFailed with a message naming what it saw.
"""

from __future__ import annotations

import configparser
import hashlib
import json
from pathlib import Path

import numpy as np

import reference

# tolerances, stated in the README
CHI_RTOL = 1e-8  # chi against the tridiagonal reference (worst seen 4.2e-12)
GAP_ATOL = 1e-10  # size-scan gap against the analytic spectrum (worst seen 5.7e-14)
FIT_ATOL = 1e-9  # exponent and log-amplitude against our own least-squares fit
GMAX_RTOL = 1e-6  # g_max against the joint ODE (seen 3.2e-8 at N = 400)

CHI_REL_STEP = 1e-2  # central-difference step of the field sweep
SIZE_PROBE_BX = 1e-5  # probe field of the chi-vs-N scan
CHI_FIT_WINDOW = (1e-6, 1e-4)
SIZE_SCAN_N = tuple(range(200, 2001, 200))

HEADERS = {
    "sweep": ("bx", "zeta_x", "zeta_y", "sqrt_zeta_x", "chi", "gap", "c_xxyy", "eta"),
    "size": ("n", "chi", "gap", "c_xxyy"),
    "fits": ("quantity", "exponent", "log_amplitude", "r_squared", "window_lo", "window_hi", "n_points"),
    "gain_scaling": ("n", "g_max", "t_am"),
}


class CheckFailed(AssertionError):
    pass


def require(condition, message):
    if not condition:
        raise CheckFailed(message)


def read_csv(path: Path, expected_header):
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
    require(header == list(expected_header), f"{path.name}: header {header}")
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def read_config(out: Path) -> configparser.ConfigParser:
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    cfg = configparser.ConfigParser(interpolation=None)
    cfg.read_string(manifest["config_text"])
    return cfg


def _section(cfg, name):
    return {k: float(v) for k, v in cfg[name].items()}


def _sweep_values(cfg):
    s = cfg["sweep"]
    lo, hi, points = float(s["lo"]), float(s["hi"]), int(s["points"])
    if points == 1:
        return np.array([lo])
    if s["spacing"] == "linear":
        return np.linspace(lo, hi, points)
    return np.geomspace(lo, hi, points)


def _rel(a, b):
    return abs(a - b) / abs(b)


# --------------------------------------------------------------------------
# every workload


def check_manifest(out: Path, cfg):
    """Each listed output hashes to its digest, and nothing unlisted was written."""
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    listed = {entry["path"] for entry in manifest["outputs"]}
    present = {p.name for p in out.iterdir()} - {"manifest.json"}
    require(listed == present, f"outputs {sorted(present)} but manifest lists {sorted(listed)}")
    for entry in manifest["outputs"]:
        digest = hashlib.sha256((out / entry["path"]).read_bytes()).hexdigest()
        require(digest == entry["sha256"], f"{entry['path']}: digest mismatch")


# --------------------------------------------------------------------------
# statics_critical: fig4_susceptibility


def _line_model(cfg):
    m = cfg["model"]
    n, jx, jy, eps = int(m["n_qubits"]), float(m["jx"]), float(m["jy"]), float(m["epsilon"])
    require(jx == jy, f"reference Hamiltonian needs jx == jy, got {jx}, {jy}")
    return n, jx, eps


def check_chi_sweep(out: Path, cfg):
    n, j, eps = _line_model(cfg)
    data = read_csv(out / "susceptibility_sweep.csv", HEADERS["sweep"])
    require(np.allclose(data[:, 0], _sweep_values(cfg), rtol=1e-15, atol=0), "bx grid differs from config")
    for bx, chi in zip(data[:, 0], data[:, 4]):
        ref = reference.line_chi_central(n, j, eps, bx, CHI_REL_STEP)
        require(_rel(chi, ref) <= CHI_RTOL, f"chi({bx:.3e}) = {chi!r}, reference {ref!r}")


def check_chi_vs_n(out: Path, cfg):
    _, j, eps = _line_model(cfg)
    data = read_csv(out / "chi_vs_n.csv", HEADERS["size"])
    require(tuple(int(n) for n in data[:, 0]) == SIZE_SCAN_N, f"N column {data[:, 0]}")
    for n, chi, gap in data[:, :3]:
        n = int(n)
        ref = reference.line_magnetization(n, j, eps, SIZE_PROBE_BX) / SIZE_PROBE_BX
        require(_rel(chi, ref) <= CHI_RTOL, f"chi(N={n}) = {chi!r}, reference {ref!r}")
        levels = reference.line_spectrum(n, j, eps)
        require(abs(gap - (levels[1] - levels[0])) <= GAP_ATOL,
                f"gap(N={n}) = {gap!r}, analytic {levels[1] - levels[0]!r}")


def check_chi_positive(out: Path, cfg):
    sweep = read_csv(out / "susceptibility_sweep.csv", HEADERS["sweep"])[:, 4]
    size = read_csv(out / "chi_vs_n.csv", HEADERS["size"])[:, 1]
    require(np.all(sweep > 0.0) and np.all(size > 0.0), "chi <= 0 at some point")


def check_chi_fit(out: Path, cfg):
    data = read_csv(out / "susceptibility_sweep.csv", HEADERS["sweep"])
    with open(out / "fits.csv", encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    require(lines[0] == ",".join(HEADERS["fits"]), "fits.csv header")
    row = lines[1].split(",")
    require(row[0] == "chi", f"fits.csv names {row[0]!r}")
    exponent, log_amp, _, lo, hi, n_points = (float(v) for v in row[1:])
    require((lo, hi) == CHI_FIT_WINDOW, f"fit window {(lo, hi)}")
    inside = (data[:, 0] >= lo) & (data[:, 0] <= hi)
    slope, intercept = np.polyfit(np.log(data[inside, 0]), np.log(data[inside, 4]), 1)
    require(int(n_points) == int(inside.sum()), f"fit uses {n_points} points, window holds {inside.sum()}")
    require(abs(exponent - slope) <= FIT_ATOL and abs(log_amp - intercept) <= FIT_ATOL,
            f"fit ({exponent!r}, {log_amp!r}), own least squares ({slope!r}, {intercept!r})")


# --------------------------------------------------------------------------
# gain_scaling: figS3_gain_scaling


def _sample_times(integration):
    dt, t0, t1 = integration["dt"], integration["t_start"], integration["t_end"]
    every = int(integration["sample_every"])
    n_steps = int(round((t1 - t0) / dt))
    steps = list(range(0, n_steps + 1, every))
    if steps[-1] != n_steps:
        steps.append(n_steps)
    return t0 + dt * np.asarray(steps, dtype=float)


def check_gain_reference(out: Path, cfg):
    data = read_csv(out / "gain_scaling.csv", HEADERS["gain_scaling"])
    expected_n = [int(round(v)) for v in _sweep_values(cfg)]
    require([int(v) for v in data[:, 0]] == expected_n, f"N column {data[:, 0]}")
    m = cfg["model"]
    integration = _section(cfg, "integration")
    pulse = _section(cfg, "pulse")
    times = _sample_times(integration)
    gain = reference.gain_samples(
        expected_n[0], float(m["jx"]), float(m["jy"]), float(m["epsilon"]),
        float(cfg["coupling"]["bx"]), _section(cfg, "absorber"), pulse,
        integration["t_start"], times,
    )
    g_max, t_am = data[0, 1], data[0, 2]
    ref = float(gain.max())
    require(_rel(g_max, ref) <= GMAX_RTOL, f"g_max(N={expected_n[0]}) = {g_max!r}, reference {ref!r}")
    ref_t_am = times[int(np.argmax(gain >= 0.95 * ref))] - pulse["t_arrival"]
    spacing = integration["dt"] * integration["sample_every"]
    require(abs(t_am - ref_t_am) <= spacing * 1.001, f"t_am = {t_am!r}, reference {ref_t_am!r}")


def check_gain_grows(out: Path, cfg):
    data = read_csv(out / "gain_scaling.csv", HEADERS["gain_scaling"])
    require(np.all(np.diff(data[:, 1]) > 0.0), f"g_max does not grow with N: {data[:, 1]}")


CHECKS = {
    "statics_critical": (check_chi_sweep, check_chi_vs_n, check_chi_positive, check_chi_fit),
    "gain_scaling": (check_gain_reference, check_gain_grows),
}


def output_digests(out: Path) -> dict:
    """Output name -> sha256 from the manifest; empty if there is no readable manifest."""
    try:
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return {}
    return {entry["path"]: entry["sha256"] for entry in manifest["outputs"]}


def run_checks(workload: str, out: Path, full: bool = True) -> list[str]:
    """The manifest check, plus every check of the workload if full; returns the failures."""
    failures = []
    try:
        cfg = read_config(out)
    except (OSError, ValueError, KeyError, configparser.Error) as err:
        return [f"manifest: {err}"]
    for check in (check_manifest, *(CHECKS[workload] if full else ())):
        try:
            check(out, cfg)
        except Exception as err:  # a check that cannot run counts as failed
            failures.append(f"{check.__name__}: {type(err).__name__}: {err}")
    return failures
