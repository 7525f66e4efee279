import base64
import dataclasses
import json
import math
import re
import struct
import subprocess
import sys
import tracemalloc
import zlib
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from spinamp import lmg_statics
from spinamp.absorber import AbsorberParams, integrate_hierarchy
from spinamp.amplifier_dynamics import Q_PHI, Q_THETA
from spinamp.harness import experiments
from spinamp.harness.cli import main
from spinamp.harness import config, svgplot
from spinamp.harness.config import (
    ConfigError,
    OutputSection,
    SweepSection,
    apply_overrides,
    parse_config_text,
    serialize_config,
)
from spinamp.harness.experiments import (
    REGISTRY,
    ExperimentError,
    default_config,
    plan,
    run_experiment,
    sha256_file,
    verify_manifest,
    write_csv,
)
from spinamp.harness.oracle import brute_force_statics

SMALL_FIGS1 = """
[run]
experiment = figS1_absorption

[absorber]
delta_pp = 5.0
gamma_fg = 10.0
gamma_he = 10.0

[integration]
dt = 5e-3
t_start = -5.0
t_end = 2.0
"""


def _figs1_config(tmp_path, name="out"):
    _, overrides = parse_config_text(SMALL_FIGS1)
    cfg = apply_overrides(default_config("figS1_absorption"), overrides)
    return dataclasses.replace(cfg, output=OutputSection(directory=str(tmp_path / name)))


def test_parse_rejects_unknown_section():
    with pytest.raises(ConfigError, match="unknown section"):
        parse_config_text("[models]\nn_qubits = 4\n")


def test_parse_rejects_unknown_key():
    for text in ("[model]\nqubits = 4\n", "[sweep]\nvariable = bx\n"):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config_text(text)


def test_parse_rejects_bad_values():
    with pytest.raises(ConfigError, match="integer"):
        parse_config_text("[model]\nn_qubits = 4.5\n")
    with pytest.raises(ConfigError, match="number"):
        parse_config_text("[model]\njx = zero\n")
    with pytest.raises(ConfigError, match="boolean"):
        parse_config_text("[output]\nemit_svg = maybe\n")
    figs3 = default_config("figS3_gain_scaling")
    for text, match in (
        ("[integration]\ndt = 0\n", "dt must be positive"),
        ("[integration]\nsample_every = 0\n", "sample_every must be >= 1"),
    ):
        with pytest.raises(ConfigError, match=match):
            apply_overrides(figs3, parse_config_text(text)[1])


@pytest.mark.parametrize(
    "word, value",
    [("1", True), ("yes", True), ("true", True), ("on", True), ("0", False), ("no", False), ("false", False), ("off", False)],
)
def test_boolean_words(word, value):
    for raw in (word, word.upper(), f"  {word.upper()} \t"):
        assert config._coerce("output", "emit_svg", raw) is value
        assert parse_config_text(f"[output]\nemit_svg = {raw}\n")[1] == {"output": {"emit_svg": value}}
    with pytest.raises(ConfigError, match=r"^\[output\] emit_svg must be a boolean, got '\+1'$"):
        config._coerce("output", "emit_svg", "+1")


@pytest.mark.parametrize("raw", ["nan", "NaN", "inf", "-inf", "infinity"])
def test_parse_rejects_non_finite_numbers(raw):
    with pytest.raises(ConfigError, match=r"\[coupling\] bx must be a finite number"):
        parse_config_text(f"[coupling]\nbx = {raw}\n")
    with pytest.raises(ConfigError, match=r"\[integration\] t_end must be a finite number"):
        parse_config_text(f"[integration]\nt_end = {raw}\n")


def test_sweep_section_validation_and_values():
    with pytest.raises(ConfigError, match="spacing"):
        SweepSection(lo=1.0, hi=2.0, points=3, spacing="cubic")
    with pytest.raises(ConfigError, match=r"^points = 2 needs lo != hi, got lo = hi = 1.0$"):
        SweepSection(lo=1.0, hi=1.0, points=2, spacing="linear")
    lin = SweepSection(lo=0.5, hi=0.675, points=2, spacing="linear")
    np.testing.assert_allclose(lin.values(), [0.5, 0.675])
    log = SweepSection(lo=1e-6, hi=1e-2, points=5, spacing="log")
    np.testing.assert_allclose(log.values(), np.geomspace(1e-6, 1e-2, 5))
    for spacing in ("linear", "log"):  # one point is exactly lo
        for lo, hi in ((0.675, 0.675), (1.0 / 3.0, 7.0), (3e-6, 2e-9), (123.456, 123.457)):
            assert SweepSection(lo=lo, hi=hi, points=1, spacing=spacing).values().tolist() == [lo]


def test_config_round_trip_all_experiments():
    for name in REGISTRY:
        cfg = default_config(name)
        text = serialize_config(cfg)
        named, overrides = parse_config_text(text)
        assert named == name
        rebuilt = apply_overrides(default_config(name), overrides)
        assert rebuilt == cfg
        assert serialize_config(rebuilt) == text


def test_default_config_unknown_experiment():
    with pytest.raises(ConfigError, match="unknown experiment"):
        default_config("fig9_nonsense")


def test_run_rejects_unneeded_section(tmp_path):
    cfg = default_config("fig4_susceptibility")
    cfg = dataclasses.replace(
        cfg,
        absorber=default_config("figS1_absorption").absorber,
        output=OutputSection(directory=str(tmp_path)),
    )
    untaken = r"\[config\] experiment fig4_susceptibility does not take \[absorber\]$"
    with pytest.raises(ExperimentError, match=untaken):
        run_experiment(cfg)
    # the absorber stores on its own grid, so figS1 takes no sample_every
    figs1 = _figs1_config(tmp_path)
    figs1 = dataclasses.replace(figs1, integration=dataclasses.replace(figs1.integration, sample_every=1))
    with pytest.raises(ExperimentError, match=r"\[config\] .*does not take \[integration\] sample_every"):
        run_experiment(figs1)
    # figS2 takes its rates from a fixed grid, so an [absorber] section would be ignored
    figs2 = dataclasses.replace(
        default_config("figS2_transduction_map"),
        absorber=AbsorberParams(delta_pp=10.0, gamma_fg=3.0, gamma_he=3.0, eta=0.3),
        output=OutputSection(directory=str(tmp_path)),
    )
    with pytest.raises(ExperimentError, match=r"\[config\] .*does not take \[absorber\]$"):
        run_experiment(figs2)
    # a config file's untaken section is rejected as it is merged
    _, overrides = parse_config_text("[absorber]\neta = 0.3\n")
    untaken = r"^experiment figS2_transduction_map does not take \[absorber\]$"
    with pytest.raises(ConfigError, match=untaken):
        apply_overrides(default_config("figS2_transduction_map"), overrides)


@pytest.mark.parametrize(
    "name, section, key, raw",
    [
        ("fig2_gain_vs_bias", "model", "jx", "0.6"),  # the sweep sets J_x
        ("fig3_qfunction", "model", "jx", "0.6"),
        ("figS3_gain_scaling", "model", "n_qubits", "100"),  # the sweep sets N
        ("figS8_eta", "model", "n_qubits", "500"),  # N is fixed at 500, 1000, 2000
        ("figS1_absorption", "integration", "sample_every", "10"),  # the absorber's own grid
        ("figS2_transduction_map", "integration", "sample_every", "10"),
    ],
)
def test_run_rejects_untaken_key(tmp_path, name, section, key, raw):
    _, overrides = parse_config_text(f"[{section}]\n{key} = {raw}\n")
    cfg = dataclasses.replace(
        apply_overrides(default_config(name), overrides),
        output=OutputSection(directory=str(tmp_path / "out")),
    )
    untaken = rf"^\[config\] experiment {name} does not take \[{section}\] {key}$"
    with pytest.raises(ExperimentError, match=untaken):
        run_experiment(cfg)
    assert not (tmp_path / "out").exists()


def test_run_rejects_late_t_start_before_any_stage(tmp_path):
    cfg = default_config("fig2_gain_vs_bias")
    cfg = dataclasses.replace(
        cfg,
        integration=dataclasses.replace(cfg.integration, t_start=-4.0),
        output=OutputSection(directory=str(tmp_path / "out")),
    )
    with pytest.raises(ExperimentError, match=r"\[config\].*t_start = -4 .*t_arrival - 5 tau_f = -5"):
        run_experiment(cfg)
    assert not (tmp_path / "out").exists()


def test_pulse_tail_rule_holds_without_the_amplifier(tmp_path):
    # figS1 runs the absorber alone; it starts 5 tau_f ahead of the pulse too
    cfg = _figs1_config(tmp_path)
    cfg = dataclasses.replace(cfg, integration=dataclasses.replace(cfg.integration, t_start=-4.5))
    with pytest.raises(ExperimentError, match=r"^\[config\] .*t_start = -4.5 .*\(pulse tail\)$"):
        run_experiment(cfg)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("integration", [dict(sample_every=7), dict(t_end=17.0)])
def test_fig3_snapshots_off_the_sample_grid_fail_before_any_stage(tmp_path, integration):
    cfg = default_config("fig3_qfunction")
    cfg = dataclasses.replace(
        cfg,
        model=dataclasses.replace(cfg.model, n_qubits=8),
        integration=dataclasses.replace(cfg.integration, **integration),
        output=OutputSection(directory=str(tmp_path / "out")),
    )
    with pytest.raises(ExperimentError, match=r"no stored sample at t = (3|18)\.0") as info:
        run_experiment(cfg)
    assert info.value.stage == "config"
    assert not (tmp_path / "out").exists()


# a physics value its type refuses, per experiment that takes the section
BAD_PHYSICS = [
    (name, section, key, raw)
    for name in ("fig2_gain_vs_bias", "figS1_absorption", "figS2_transduction_map")
    for section, key, raw in (
        ("absorber", "eta", "1.5"),
        ("absorber", "gamma_fg", "0"),
        ("pulse", "tau_f", "0"),
    )
    if getattr(default_config(name), section) is not None  # figS2 takes no [absorber]
]


@pytest.mark.parametrize("name, section, key, raw", BAD_PHYSICS)
def test_bad_physics_value_is_a_config_error(tmp_path, capsys, name, section, key, raw):
    text = f"[run]\nexperiment = {name}\n[{section}]\n{key} = {raw}\n"
    with pytest.raises(ConfigError, match=rf"^\[{section}\] {key} must "):
        apply_overrides(default_config(name), parse_config_text(text)[1])
    cfg_file = tmp_path / "c.ini"
    cfg_file.write_text(text)
    out_dir = tmp_path / "out"
    assert main(["run", name, "--config", str(cfg_file), "--out", str(out_dir)]) == 1
    assert capsys.readouterr().err.startswith(f"[config] [{section}] {key} must ")
    assert not out_dir.exists()


# values that each section's own rules refuse as the config is built,
# rather than inside a stage after an empty output directory was made
EARLY_REFUSALS = [
    ("fig4_susceptibility", "model", "jx = -1", "couplings must be ferromagnetic"),
    ("fig4_susceptibility", "model", "epsilon = 0", "epsilon must be > 0"),
    ("fig2_gain_vs_bias", "model", "n_qubits = 0", "n_qubits must be >= 1"),
    ("figS1_absorption", "integration", "t_end = -6", "t_end must exceed t_start by at least one step"),
    ("figS8_eta", "sweep", "lo = -1e-6", "log spacing needs lo and hi > 0"),
    # a swept value makes each point's model, which LmgParams refuses
    ("fig2_gain_vs_bias", "sweep", "lo = -0.5", "couplings must be ferromagnetic (jx, jy >= 0), got -0.5, 0.7"),
    ("figS3_gain_scaling", "sweep", "lo = 0.2", "n_qubits must be >= 1, got 0"),
    # the absorber's step must resolve the pulse
    ("figS1_absorption", "integration", "dt = 0.02", "dt = 0.02 exceeds tau_f / 100 = 0.01"),
    ("figS2_transduction_map", "integration", "dt = 0.02", "dt = 0.02 exceeds tau_f / 100 = 0.01"),
    # each fit window must hold the three sweep points a power-law fit needs
    ("fig4_susceptibility", "sweep", "lo = 1e-3\nhi = 1e-2\npoints = 5",
     "need >= 3 points inside window (1e-06, 0.0001), found 0"),
    ("fig5_correlation_gap", "sweep", "lo = 1e-6\nhi = 1e-5",
     "need >= 3 points inside window (0.0001, 0.01), found 0"),
    ("fig5_correlation_gap", "sweep", "lo = 1e-4\nhi = 1e-2\npoints = 2",
     "need >= 3 points inside window (0.0001, 0.01), found 2"),
    # two sweep points that give one model would run it twice
    ("figS3_gain_scaling", "sweep", "lo = 20\nhi = 21\npoints = 3",
     "points 1 and 2 both give LmgParams(n_qubits=20, "),
    # several points need a span: lo == hi would repeat one value, or give
    # values an ulp apart that fit_power_law and the CSVs would take as distinct
    ("fig2_gain_vs_bias", "sweep", "lo = 0.675\nhi = 0.675",
     "points = 2 needs lo != hi, got lo = hi = 0.675"),
    ("fig3_qfunction", "sweep", "lo = 0.6\nhi = 0.6\npoints = 3",
     "points = 3 needs lo != hi, got lo = hi = 0.6"),
    ("fig4_susceptibility", "sweep", "lo = 5e-5\nhi = 5e-5\npoints = 3",
     "points = 3 needs lo != hi, got lo = hi = 5e-05"),
    ("figS8_eta", "sweep", "lo = 1e-4\nhi = 1e-4\npoints = 2",
     "points = 2 needs lo != hi, got lo = hi = 0.0001"),
]


@pytest.mark.parametrize("name, section, line, message", EARLY_REFUSALS)
def test_bad_config_value_is_refused_before_any_stage(tmp_path, capsys, name, section, line, message):
    cfg_file = tmp_path / "c.ini"
    cfg_file.write_text(f"[run]\nexperiment = {name}\n[{section}]\n{line}\n")
    out_dir = tmp_path / "out"
    assert main(["run", name, "--config", str(cfg_file), "--out", str(out_dir)]) == 1
    assert capsys.readouterr().err.startswith(f"[config] [{section}] {message}")
    assert not out_dir.exists()


# figS1 and figS2 run the absorber alone, under its own tau_f / 100 bound:
# SMALL_FIGS1 and TINY's figS2 step at 5e-3 and 1e-2
@pytest.mark.parametrize("name", ["fig2_gain_vs_bias", "fig3_qfunction", "figS3_gain_scaling"])
def test_amplifier_step_bound_is_checked_before_any_stage(tmp_path, name):
    cfg = default_config(name)
    cfg = dataclasses.replace(
        cfg,
        integration=dataclasses.replace(cfg.integration, dt=0.002),
        output=OutputSection(directory=str(tmp_path / "out")),
    )
    bound = r"^\[config\] \[integration\] dt = 0.002 exceeds the 0.001 propagation bound$"
    with pytest.raises(ExperimentError, match=bound) as info:
        run_experiment(cfg)
    assert info.value.stage == "config"
    assert not (tmp_path / "out").exists()


def test_values_that_print_alike_write_files_of_their_own(tmp_path):
    # %g prints both J_x as 0.675; the tags and stage names keep every digit
    text = "[model]\nn_qubits = 20\n[sweep]\nlo = 0.675\nhi = 0.6750001\n[integration]\nt_end = 0\n"
    cfg = apply_overrides(default_config("fig2_gain_vs_bias"), parse_config_text(text)[1])
    out = tmp_path / "out"
    manifest = run_experiment(dataclasses.replace(cfg, output=OutputSection(str(out))))
    assert [o["path"] for o in manifest.outputs] == ["gain_jx0p675.csv", "gain_jx0p6750001.csv"]
    assert [s["name"] for s in manifest.stages] == ["absorber", "dynamics-jx=0.675", "dynamics-jx=0.6750001"]
    assert sha256_file(out / "gain_jx0p675.csv") != sha256_file(out / "gain_jx0p6750001.csv")


def test_fig4_size_scan_follows_the_model(tmp_path):
    digests = []
    for extra in ("", "jy = 0.6\n"):
        _, overrides = parse_config_text(f"[model]\nn_qubits = 100\n{extra}[sweep]\npoints = 9\n")
        cfg = apply_overrides(default_config("fig4_susceptibility"), overrides)
        out = tmp_path / f"run{len(digests)}"
        run_experiment(dataclasses.replace(cfg, output=OutputSection(str(out))))
        digests.append(sha256_file(out / "chi_vs_n.csv"))
    assert digests[0] != digests[1]


def test_grid_rows_write_the_bytes_of_per_value_formatting(tmp_path):
    x, y = np.array([0.0, 1.0 / 3.0]), np.array([-1.5, 2.0, 1e-300])
    values = np.array([[1.0 / 3.0, -0.0, 5e-324], [1e300, 0.1, 2.0**-1074 * 3]])
    path = write_csv(tmp_path / "q.csv", ("theta", "phi", "q"), experiments._grid_rows(x, y, values))
    rows = [(a, b, values[i, j]) for i, a in enumerate(x) for j, b in enumerate(y)]
    assert path.read_text() == "theta,phi,q\n" + "".join(",".join("%.17g" % v for v in r) + "\n" for r in rows)


def test_a_qfunction_csv_streams_through_write_csv(tmp_path):
    """The full 181 x 361 grid, written through _grid_rows, peaks below 10 MB
    of Python allocations: write_csv writes each row as it comes rather than
    holding the file's lines (about 20 MB for this grid)."""
    values = 10.0 ** np.random.default_rng(0).uniform(-30.0, 2.0, (Q_THETA.size, Q_PHI.size))
    tracemalloc.start()
    try:
        write_csv(tmp_path / "q.csv", experiments.QFUNC_CSV, experiments._grid_rows(Q_THETA, Q_PHI, values))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len((tmp_path / "q.csv").read_text().splitlines()) == 1 + values.size
    assert peak < 10e6, f"peak {peak / 1e6:.1f} MB"


def test_write_csv_formats_17_digits(tmp_path):
    path = write_csv(tmp_path / "x.csv", ("a", "b"), [(1.0 / 3.0, 7)])
    lines = path.read_text().splitlines()
    assert lines[0] == "a,b"
    assert lines[1] == "0.33333333333333331,7"
    with pytest.raises(ValueError, match="row width"):
        write_csv(tmp_path / "y.csv", ("a", "b"), [(1.0,)])


def test_figs1_run_emits_schema_manifest_and_is_deterministic(tmp_path):
    cfg = _figs1_config(tmp_path, "a")
    manifest = run_experiment(cfg)
    out = tmp_path / "a"
    csv_path = out / "absorption.csv"
    assert csv_path.read_text().splitlines()[0] == "t,pe"
    assert verify_manifest(out / "manifest.json")
    assert manifest.experiment == "figS1_absorption"
    assert any(s["name"] == "absorber" for s in manifest.stages)

    again = run_experiment(_figs1_config(tmp_path, "b"))
    assert sha256_file(csv_path) == sha256_file(tmp_path / "b" / "absorption.csv")
    assert [o["sha256"] for o in manifest.outputs] == [o["sha256"] for o in again.outputs]


def test_failure_names_its_stage(tmp_path, monkeypatch):
    def broken(*args, **kwargs):
        raise FloatingPointError("population left [0, 1]")

    monkeypatch.setattr(experiments, "integrate_hierarchy", broken)
    with pytest.raises(ExperimentError) as info:
        run_experiment(_figs1_config(tmp_path))
    assert info.value.stage == "absorber"
    assert str(info.value).startswith("[absorber] population left")


# small overrides that keep each run under a second; fig3's fixed t = 18
# snapshot forces a full-length trajectory, and figS2 already draws a heatmap
TINY = {
    "fig2_gain_vs_bias": "[model]\nn_qubits = 24\n[integration]\nt_end = -2\n",
    "fig4_susceptibility": "[model]\nn_qubits = 100\n[sweep]\npoints = 9\n",
    "fig5_correlation_gap": "[model]\nn_qubits = 100\n[sweep]\npoints = 9\n",
    "figS1_absorption": SMALL_FIGS1,
    "figS2_transduction_map": "[sweep]\npoints = 2\n[integration]\ndt = 1e-2\nt_end = 0\n",
    "figS3_gain_scaling": "[sweep]\nlo = 20\nhi = 40\npoints = 2\n[integration]\nt_end = -2\n",
    "figS8_eta": "[sweep]\npoints = 5\n",
}


@pytest.mark.parametrize("name", sorted(TINY))
def test_svg_run_adds_parseable_charts_and_keeps_csvs(tmp_path, name):
    _, overrides = parse_config_text(TINY[name])
    cfg = apply_overrides(default_config(name), overrides)
    digests = {}
    for svg in (False, True):
        out = tmp_path / f"svg{svg}"
        manifest = run_experiment(dataclasses.replace(cfg, output=OutputSection(str(out), svg)))
        assert verify_manifest(out / "manifest.json")
        digests[svg] = {o["path"]: o["sha256"] for o in manifest.outputs}
    charts = [path for path in digests[True] if path.endswith(".svg")]
    assert charts
    for path in charts:
        assert ET.parse(tmp_path / "svgTrue" / path).getroot().tag.endswith("svg")
    assert {p: d for p, d in digests[True].items() if p not in charts} == digests[False]


SVG = "{http://www.w3.org/2000/svg}"


def _heatmap_pixels(path):
    """(pixels, an (h, w, 3) uint8 array with its first row on top, and the
    range text) of a heatmap SVG, its one PNG decoded chunk by chunk."""
    root = ET.parse(path).getroot()
    (image,) = root.iter(SVG + "image")
    assert len(list(root.iter(SVG + "rect"))) == 2  # the white background and the plot frame
    (text,) = [t.text for t in root.iter(SVG + "text") if t.text.startswith("range [")]
    png = base64.b64decode(image.get("href").removeprefix("data:image/png;base64,"))
    assert png[:8] == b"\x89PNG\r\n\x1a\n"
    chunks, pos = {}, 8
    while pos < len(png):
        (length,) = struct.unpack(">I", png[pos : pos + 4])
        tag, data = png[pos + 4 : pos + 8], png[pos + 8 : pos + 8 + length]
        assert struct.unpack(">I", png[pos + 8 + length : pos + 12 + length])[0] == zlib.crc32(tag + data)
        chunks[tag] = chunks.get(tag, b"") + data
        pos += 12 + length
    assert list(chunks) == [b"IHDR", b"IDAT", b"IEND"]
    w, h, depth, colour, _, _, interlace = struct.unpack(">IIBBBBB", chunks[b"IHDR"])
    assert (depth, colour, interlace) == (8, 2, 0)  # 8-bit RGB, rows in order
    rows = np.frombuffer(zlib.decompress(chunks[b"IDAT"]), np.uint8).reshape(h, 1 + 3 * w)
    assert not rows[:, 0].any()  # filter type 0: each row's bytes as they are
    return rows[:, 1:].reshape(h, w, 3), text


def test_a_heatmap_is_one_png_coloured_over_all_of_z(tmp_path):
    first, last = (np.rint(255 * np.array(svgplot._RAMP[k])).astype(np.uint8) for k in (0, -1))
    # more than 200 columns, the maximum in an odd one
    x, y = np.linspace(0.0, 2.0 * np.pi, 241), np.linspace(0.0, 1.0, 5)
    z = np.tile(np.arange(5.0)[:, None], (1, 241))
    z[3, 201], z[0, 0] = 7.5, -2.0
    pixels, text = _heatmap_pixels(svgplot.svg_heatmap(tmp_path / "a.svg", x, y, z, "x", "y", "t"))
    assert pixels.shape == (5, 241, 3)
    assert (pixels[1, 201] == last).all()  # z's row 3 is the image's row 1: y's last row on top
    assert (pixels[4, 0] == first).all()
    assert len({tuple(p) for p in pixels[:, 1]}) == 5  # one colour per row away from the extremes
    assert text == "range [-2, 7.5]"
    svgplot.svg_heatmap(tmp_path / "b.svg", x, y, z, "x", "y", "t")
    assert (tmp_path / "a.svg").read_bytes() == (tmp_path / "b.svg").read_bytes()
    # a constant one-row grid, as figS2 at [sweep] points = 1
    pixels, text = _heatmap_pixels(svgplot.svg_heatmap(tmp_path / "c.svg", x, [0.5], np.full((1, 241), 3.0), "x", "y", "t"))
    assert pixels.shape == (1, 241, 3)
    assert (pixels == first).all()
    assert text == "range [3, 3]"


def test_manifest_detects_corruption(tmp_path):
    run_experiment(_figs1_config(tmp_path, "c"))
    out = tmp_path / "c"
    target = out / "absorption.csv"
    target.write_text(target.read_text() + "tampered\n")
    assert not verify_manifest(out / "manifest.json")


def test_gain_trace_schema(tmp_path):
    cfg = default_config("fig2_gain_vs_bias")
    cfg = dataclasses.replace(
        cfg,
        model=dataclasses.replace(cfg.model, n_qubits=24),
        sweep=SweepSection(lo=0.675, hi=0.675, points=1, spacing="linear"),
        integration=dataclasses.replace(cfg.integration, t_end=-2.0),
        output=OutputSection(directory=str(tmp_path)),
    )
    manifest = run_experiment(cfg)
    names = [o["path"] for o in manifest.outputs]
    assert names == ["gain_jx0p675.csv"]
    header = (tmp_path / names[0]).read_text().splitlines()[0]
    assert header == "t,pe,sx2,sy2,gain"


def test_transduction_map_schema(tmp_path):
    cfg = default_config("figS2_transduction_map")
    cfg = dataclasses.replace(
        cfg,
        sweep=SweepSection(lo=0.0, hi=0.0, points=1, spacing="linear"),
        integration=dataclasses.replace(cfg.integration, dt=1e-2, t_end=0.0),
        output=OutputSection(directory=str(tmp_path)),
    )
    manifest = run_experiment(cfg)
    path = tmp_path / manifest.outputs[0]["path"]
    lines = path.read_text().splitlines()
    assert lines[0] == "delta_pp,gamma,pe_steady"
    assert all(line.split(",")[2] == "0" for line in lines[1:])  # severed-arm row
    digests = []
    for t_start in (-5.0, -6.0):  # [integration] t_start reaches the map
        ridge = dataclasses.replace(
            cfg,
            sweep=SweepSection(lo=10.0, hi=10.0, points=1, spacing="linear"),
            integration=dataclasses.replace(cfg.integration, t_start=t_start),
            output=OutputSection(directory=str(tmp_path / f"t{t_start:g}")),
        )
        digests.append(run_experiment(ridge).outputs[0]["sha256"])
    assert digests[0] != digests[1]


def test_absorber_drive_follows_integration_dt(tmp_path, monkeypatch):
    traces = []

    def spy(*args, **kwargs):
        traces.append(integrate_hierarchy(*args, **kwargs))
        return traces[-1]

    monkeypatch.setattr(experiments, "integrate_hierarchy", spy)
    base = default_config("figS3_gain_scaling")
    for dt in (1e-3, 5e-4):
        run_experiment(
            dataclasses.replace(
                base,
                sweep=SweepSection(lo=20, hi=20, points=1, spacing="linear"),
                integration=dataclasses.replace(base.integration, dt=dt, t_end=-3.0),
                output=OutputSection(directory=str(tmp_path / f"dt{dt:g}")),
            )
        )
    coarse, fine = traces
    assert fine.times.size == 2 * coarse.times.size - 1  # the absorber ran at the configured dt
    assert np.abs(fine.pe[::2] - coarse.pe).max() < 1e-9


def test_oracle_cap():
    with pytest.raises(ValueError, match="capped"):
        brute_force_statics(13, 0.7, 0.7)


def test_oracle_free_pair():
    result = brute_force_statics(2, 0.0, 0.0)
    assert result.e0 == pytest.approx(-1.0, abs=1e-12)
    assert result.gap == pytest.approx(1.0, abs=1e-12)


def test_oracle_matches_solvable_line():
    from helpers import solvable_line_energies
    from spinamp.lmg_statics import LmgParams

    result = brute_force_statics(8, 0.7, 0.7)
    energies = solvable_line_energies(LmgParams(n_qubits=8, jx=0.7, jy=0.7))
    assert result.e0 == pytest.approx(energies.min(), abs=1e-12)


def test_gain_experiment_accepts_degenerate_bias(tmp_path):
    # jx == jy sits exactly on the transition line; no special casing
    cfg = default_config("fig2_gain_vs_bias")
    cfg = dataclasses.replace(
        cfg,
        model=dataclasses.replace(cfg.model, n_qubits=24),
        sweep=SweepSection(lo=0.7, hi=0.7, points=1, spacing="linear"),
        integration=dataclasses.replace(cfg.integration, t_end=-2.0),
        output=OutputSection(directory=str(tmp_path)),
    )
    manifest = run_experiment(cfg)
    assert [o["path"] for o in manifest.outputs] == ["gain_jx0p7.csv"]


def test_cli_list_and_oracle(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "fig4_susceptibility" in out
    assert main(["oracle", "--n", "4", "--jx", "0.675", "--jy", "0.7"]) == 0
    out = capsys.readouterr().out
    assert "max |diff|" in out


def test_cli_oracle_rejects_large_n(capsys):
    assert main(["oracle", "--n", "14", "--jx", "0.7", "--jy", "0.7"]) == 1
    assert "[oracle]" in capsys.readouterr().err


def test_cli_oracle_names_a_non_finite_coupling(capsys):
    assert main(["oracle", "--n", "4", "--jx", "0.7", "--jy", "nan"]) == 1
    assert capsys.readouterr().err == "[oracle] jy must be finite, got nan\n"


def test_cli_oracle_reports_a_failing_excited_level(capsys):
    # a nonzero dstev info once the ground pair has passed its guard fails E1,
    # which the oracle runs when it reads the gap
    real_check, real_stev = lmg_statics._check_residual, scipy.linalg.lapack.dstev
    checked = []

    def noting_check(*args):
        real_check(*args)
        checked.append(True)

    def failing_stev(d, e, **kwargs):
        w, v, info = real_stev(d, e, **kwargs)
        return w, v, (1 if checked else info)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lmg_statics, "_check_residual", noting_check)
        mp.setattr(scipy.linalg.lapack, "dstev", failing_stev)
        assert main(["oracle", "--n", "6", "--jx", "0.7", "--jy", "0.7", "--bx", "0.01"]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("[oracle] [excited] E1 not converged within 40 Lanczos steps")
    assert captured.out == ""


def test_cli_run_refuses_an_output_directory_under_a_file(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    assert main(["run", "figS1_absorption", "--out", str(blocker / "x")]) == 1
    assert capsys.readouterr().err.startswith(f"[output] cannot make output directory {blocker / 'x'}: ")


def test_cli_run_unknown_experiment(capsys):
    assert main(["run", "fig9_nonsense"]) == 1
    assert "[config]" in capsys.readouterr().err


def test_cli_run_experiment_name_mismatch(tmp_path, capsys):
    cfg_file = tmp_path / "c.ini"
    cfg_file.write_text("[run]\nexperiment = fig4_susceptibility\n")
    assert main(["run", "figS1_absorption", "--config", str(cfg_file)]) == 1
    assert "[config]" in capsys.readouterr().err


def test_cli_run_several_experiments(tmp_path, capsys):
    names = ["figS1_absorption", "fig5_correlation_gap"]
    assert main(["run", *names, "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    for name in names:
        assert verify_manifest(tmp_path / name / "manifest.json")
        assert f"{name}: " in out
    assert "  absorber: " in out and "  field-sweep: " in out  # stage seconds


def test_fit_refusal_names_the_quantity(tmp_path, capsys):
    """Off the transition line fig5's gap sits at rounding level, of either
    sign, and fit_power_law refuses it; the message names the gap."""
    cfg_file = tmp_path / "c.ini"
    cfg_file.write_text("[run]\nexperiment = fig5_correlation_gap\n[model]\nn_qubits = 200\njx = 0.5\njy = 0.7\n")
    assert main(["run", "--config", str(cfg_file), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.startswith("[fit] gap: nonpositive or non-finite values inside fit window: ")


def test_manifest_records_peak_rss_of_every_stage(tmp_path, capsys):
    assert main(["run", "fig5_correlation_gap", "--out", str(tmp_path)]) == 0
    stages = json.loads((tmp_path / "manifest.json").read_text())["stages"]
    assert [s["name"] for s in stages] == ["field-sweep", "fit"]
    peaks = [s["peak_rss_mb"] for s in stages]
    assert all(math.isfinite(p) and p > 0.0 for p in peaks)
    assert peaks == sorted(peaks)  # a high-water mark never falls
    out = capsys.readouterr().out
    for s in stages:
        assert f"  {s['name']}: {s['seconds']:.2f} s, peak RSS {s['peak_rss_mb']:.1f} MB\n" in out



@pytest.mark.parametrize(
    "name, text, dimensions",
    [
        ("fig2_gain_vs_bias", TINY["fig2_gain_vs_bias"], {"dynamics-jx=0.5": 25, "dynamics-jx=0.675": 25}),
        # one bias: each fig3 bias writes four 65 341-row Q-function CSVs
        ("fig3_qfunction", "[model]\nn_qubits = 24\n[sweep]\nlo = 0.675\nhi = 0.675\npoints = 1\n",
         {"dynamics-jx=0.675": 25}),
        ("figS3_gain_scaling", TINY["figS3_gain_scaling"], {"dynamics-n=20": 21, "dynamics-n=40": 41}),
    ],
    ids=["fig2", "fig3", "figS3"],
)
def test_dynamics_stages_record_window_and_norm_drift(tmp_path, capsys, name, text, dimensions):
    cfg_file = tmp_path / "c.ini"
    cfg_file.write_text(text)
    assert main(["run", name, "--config", str(cfg_file), "--out", str(tmp_path / "out")]) == 0
    stages = json.loads((tmp_path / "out" / "manifest.json").read_text())["stages"]
    dynamics = [s for s in stages if s["name"].startswith("dynamics-")]
    assert {s["name"] for s in dynamics} == set(dimensions)
    out = capsys.readouterr().out
    for s in dynamics:
        assert 0 < s["max_window"] <= dimensions[s["name"]]
        assert math.isfinite(s["norm_drift"]) and 0.0 <= s["norm_drift"] < 1e-6
        line = f"  {s['name']}: {s['seconds']:.2f} s, peak RSS {s['peak_rss_mb']:.1f} MB, "
        assert f"{line}widest window {s['max_window']} levels, norm drift {s['norm_drift']:.2e}\n" in out
    assert all("max_window" not in s for s in stages if s not in dynamics)

def test_cli_run_rejects_config_for_several(tmp_path, capsys):
    cfg_file = tmp_path / "c.ini"
    cfg_file.write_text(SMALL_FIGS1)
    # with no name on the command line or in the file, --config would apply to the whole registry
    unnamed = tmp_path / "unnamed.ini"
    unnamed.write_text(SMALL_FIGS1.replace("[run]\nexperiment = figS1_absorption\n", ""))
    out_dir = tmp_path / "out"
    for names, path in ((["figS1_absorption", "fig5_correlation_gap"], cfg_file), ([], unnamed)):
        assert main(["run", *names, "--config", str(path), "--out", str(out_dir)]) == 1
        assert "[config] --config applies to one experiment, got " in capsys.readouterr().err
    assert not out_dir.exists()


def test_cli_run_takes_the_experiment_its_config_names(tmp_path, capsys):
    cfg_file = tmp_path / "c.ini"
    cfg_file.write_text(SMALL_FIGS1)
    out_dir = tmp_path / "run"
    assert main(["run", "--config", str(cfg_file), "--out", str(out_dir)]) == 0
    assert json.loads((out_dir / "manifest.json").read_text())["experiment"] == "figS1_absorption"
    assert "figS1_absorption: 1 files" in capsys.readouterr().out
    # a command-line name that disagrees with the file's stays an error
    other = tmp_path / "other"
    assert main(["run", "fig5_correlation_gap", "--config", str(cfg_file), "--out", str(other)]) == 1
    message = "[config] config names experiment 'figS1_absorption' but the command line says 'fig5_correlation_gap'"
    assert capsys.readouterr().err.startswith(message)
    assert not other.exists()


def test_cli_run_refuses_a_step_count_past_float_range(tmp_path, capsys):
    """A span of more steps than a float counts is a [config] [integration]
    error, both as the config is merged and from the command line."""
    text = SMALL_FIGS1.replace("dt = 5e-3", "dt = 1e-300").replace("t_end = 2.0", "t_end = 1e308")
    refusal = "[integration] the step count (t_end - t_start) / dt must be finite, got inf"
    with pytest.raises(ConfigError, match=re.escape(refusal)):
        apply_overrides(default_config("figS1_absorption"), parse_config_text(text)[1])
    cfg_file = tmp_path / "c.ini"
    cfg_file.write_text(text)
    out_dir = tmp_path / "out"
    assert main(["run", "figS1_absorption", "--config", str(cfg_file), "--out", str(out_dir)]) == 1
    assert capsys.readouterr().err == f"[config] {refusal}\n"
    assert not out_dir.exists()


def test_cli_run_refuses_a_step_count_past_the_cap(tmp_path, capsys):
    """A finite step count above MAX_STEPS is a [config] [integration] error,
    both as the config is merged and from the command line."""
    text = SMALL_FIGS1.replace("dt = 5e-3", "dt = 1e-9").replace("t_end = 2.0", "t_end = 1e6")
    refusal = "[integration] the step count (t_end - t_start) / dt must be at most 1000000000, got 1000005000000000"
    with pytest.raises(ConfigError, match=re.escape(refusal)):
        apply_overrides(default_config("figS1_absorption"), parse_config_text(text)[1])
    cfg_file = tmp_path / "c.ini"
    cfg_file.write_text(text)
    out_dir = tmp_path / "out"
    assert main(["run", "figS1_absorption", "--config", str(cfg_file), "--out", str(out_dir)]) == 1
    assert capsys.readouterr().err == f"[config] {refusal}\n"
    assert not out_dir.exists()


def test_cli_run_figs1(tmp_path, capsys):
    cfg_file = tmp_path / "c.ini"
    cfg_file.write_text(SMALL_FIGS1)
    out_dir = tmp_path / "run"
    assert main(["run", "figS1_absorption", "--config", str(cfg_file), "--out", str(out_dir)]) == 0
    assert (out_dir / "manifest.json").exists()
    data = json.loads((out_dir / "manifest.json").read_text())
    assert data["experiment"] == "figS1_absorption"
    assert "figS1_absorption" in capsys.readouterr().out


COMPARE_RUNS = Path(__file__).resolve().parents[1] / "tools" / "compare_runs.py"


def _compare_runs(a, b):
    done = subprocess.run([sys.executable, str(COMPARE_RUNS), str(a), str(b)], capture_output=True, text=True)
    return done.returncode, done.stdout


def test_compare_runs_matches_reruns_and_names_an_edited_column(tmp_path):
    for name in ("a", "b"):
        run_experiment(_figs1_config(tmp_path, name))
    code, out = _compare_runs(tmp_path / "a", tmp_path / "b")
    assert code == 0, out
    assert out.endswith(" match (runs: 1, files: 1)\n")
    target = tmp_path / "b" / "absorption.csv"
    lines = target.read_text().splitlines()
    t, pe = lines[-1].split(",")
    lines[-1] = f"{t},{float(pe) * (1.0 + 1e-6)!r}"
    target.write_text("\n".join(lines) + "\n")
    code, out = _compare_runs(tmp_path / "a", tmp_path / "b")
    assert code == 1
    assert "absorption.csv: sha256 differs\n  t: unchanged\n  pe: largest relative change 1.00e-06\n" in out
    # the same change over the column's largest entry: pe rises to its last row
    assert "  pe: largest relative change 1.00e-06\n  pe: largest change 1.00e-06 of the column's largest |a|\n" in out


CODE_SIZE = Path(__file__).resolve().parents[1] / "tools" / "code_size.py"


def _code_size(root):
    """{module: (code lines, code tokens)} as tools/code_size.py prints them
    for root, checked against its last line, the total."""
    done = subprocess.run([sys.executable, str(CODE_SIZE), str(root)], capture_output=True, text=True, check=True)
    *modules, total = done.stdout.splitlines()
    counts = {}
    for line in modules:
        name, lines, tokens = re.fullmatch(r"(\S+): (\d+) code lines, (\d+) code tokens", line).groups()
        counts[name] = int(lines), int(tokens)
    lines, tokens = map(sum, zip(*counts.values()))
    assert total == f"{root}: {len(modules)} files, {lines} code lines, {tokens} code tokens"
    return counts


def test_code_size_prints_each_module_then_the_total(tmp_path):
    (tmp_path / "doc.py").write_text('"""Only a docstring."""\n')
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "code.py").write_text('"""Doc."""\n# a comment\nX = 1\n\n\ndef f():\n    """Doc."""\n    return X\n')
    assert _code_size(tmp_path) == {"doc.py": (0, 0), "pkg/code.py": (3, 10)}
    assert "harness/svgplot.py" in _code_size(Path(svgplot.__file__).parents[1])


# Two groups that one plan shares: fig2, fig3 and figS3 read one absorber
# trace and the N = 24, J_x = 0.675 trajectory, on fig3's grid to t = 18;
# fig5 reads fig4's N = 100 field sweep.
ONE_BIAS = "[model]\nn_qubits = 24\n[sweep]\nlo = 0.675\nhi = 0.675\npoints = 1\n[integration]\nt_end = 18\n"
SHARED = {
    "fig2_gain_vs_bias": ONE_BIAS,
    "fig3_qfunction": ONE_BIAS,
    "figS3_gain_scaling": "[sweep]\nlo = 20\nhi = 24\npoints = 2\n[integration]\nt_end = 18\n",
    "fig4_susceptibility": TINY["fig4_susceptibility"],
    "fig5_correlation_gap": TINY["fig5_correlation_gap"],
}


def test_one_plan_computes_each_shared_stage_once(tmp_path, monkeypatch):
    def configs(root):
        return [
            dataclasses.replace(
                apply_overrides(default_config(name), parse_config_text(text)[1]),
                output=OutputSection(str(root / name)),
            )
            for name, text in SHARED.items()
        ]

    alone = {cfg.experiment: run_experiment(cfg) for cfg in configs(tmp_path / "alone")}
    assert not [s for m in alone.values() for s in m.stages if "reused_from" in s]

    calls = {"integrate_hierarchy": 0, "evolve": 0, "field_sweep": 0, "quantum_gain": 0}

    def counting(name):
        real = getattr(experiments, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        return counted

    for name in calls:  # where experiments binds them, as the benchmark's tracer patches them
        monkeypatch.setattr(experiments, name, counting(name))
    handed = {}  # (experiment, n_qubits) -> the gain _driven hands the runner
    real_driven = experiments._driven

    def recording(cfg, run):
        for item in real_driven(cfg, run):
            if isinstance(item, tuple):
                handed[cfg.experiment, item[0].n_qubits] = item[2]
            yield item

    monkeypatch.setattr(experiments, "_driven", recording)
    cfgs = configs(tmp_path / "shared")
    shared = plan(cfgs)
    together = {cfg.experiment: run_experiment(cfg, shared) for cfg in cfgs}
    # one absorber trace, the trajectories at N = 24 and N = 20 with one gain
    # each, one field sweep
    assert calls == {"integrate_hierarchy": 1, "evolve": 2, "field_sweep": 1, "quantum_gain": 2}
    # a reused dynamics stage hands its runner the gain its origin computed
    origin_gain = handed["fig2_gain_vs_bias", 24]
    assert handed["fig3_qfunction", 24] is origin_gain and handed["figS3_gain_scaling", 24] is origin_gain
    assert handed["figS3_gain_scaling", 20] is not origin_gain
    for name, manifest in together.items():
        assert manifest.outputs == alone[name].outputs, name
        assert [s["name"] for s in manifest.stages] == [s["name"] for s in alone[name].stages]
    reused = {
        (name, s["name"]): s["reused_from"] for name, m in together.items() for s in m.stages if "reused_from" in s
    }
    assert reused == {
        ("fig3_qfunction", "absorber"): "fig2_gain_vs_bias/absorber",
        ("fig3_qfunction", "dynamics-jx=0.675"): "fig2_gain_vs_bias/dynamics-jx=0.675",
        ("figS3_gain_scaling", "absorber"): "fig2_gain_vs_bias/absorber",
        ("figS3_gain_scaling", "dynamics-n=24"): "fig2_gain_vs_bias/dynamics-jx=0.675",
        ("fig5_correlation_gap", "field-sweep"): "fig4_susceptibility/field-sweep",
    }
    # a reused trajectory's record carries its origin's window and drift
    origin = {s["name"]: s for s in together["fig2_gain_vs_bias"].stages}["dynamics-jx=0.675"]
    for name, stage in (("fig3_qfunction", "dynamics-jx=0.675"), ("figS3_gain_scaling", "dynamics-n=24")):
        record = {s["name"]: s for s in together[name].stages}[stage]
        assert (record["max_window"], record["norm_drift"]) == (origin["max_window"], origin["norm_drift"])


def test_plan_refuses_a_later_config_before_any_run(tmp_path):
    # fig3's snapshot at t = 3 is off a grid sampled every 7 steps
    fig3 = default_config("fig3_qfunction")
    fig3 = dataclasses.replace(
        fig3,
        integration=dataclasses.replace(fig3.integration, sample_every=7),
        output=OutputSection(str(tmp_path / "fig3")),
    )
    refusal = r"^\[config\] \[integration\] no stored sample at t = 3\.0"
    with pytest.raises(ExperimentError, match=refusal) as alone:
        run_experiment(fig3)
    with pytest.raises(ExperimentError, match=refusal) as planned:
        plan([_figs1_config(tmp_path, "figs1"), fig3])
    assert str(planned.value) == str(alone.value)
    assert not list(tmp_path.iterdir())
