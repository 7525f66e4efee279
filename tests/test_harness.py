import dataclasses
import json
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from spinamp.absorber import AbsorberParams, integrate_hierarchy
from spinamp.harness import experiments
from spinamp.harness.cli import main
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


@pytest.mark.parametrize("raw", ["nan", "NaN", "inf", "-inf", "infinity"])
def test_parse_rejects_non_finite_numbers(raw):
    with pytest.raises(ConfigError, match=r"\[coupling\] bx must be a finite number"):
        parse_config_text(f"[coupling]\nbx = {raw}\n")
    with pytest.raises(ConfigError, match=r"\[integration\] t_end must be a finite number"):
        parse_config_text(f"[integration]\nt_end = {raw}\n")


def test_sweep_section_validation_and_values():
    with pytest.raises(ConfigError, match="spacing"):
        SweepSection(lo=1.0, hi=2.0, points=3, spacing="cubic")
    lin = SweepSection(lo=0.5, hi=0.675, points=2, spacing="linear")
    np.testing.assert_allclose(lin.values(), [0.5, 0.675])
    log = SweepSection(lo=1e-6, hi=1e-2, points=5, spacing="log")
    np.testing.assert_allclose(log.values(), np.geomspace(1e-6, 1e-2, 5))


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
    from spinamp.lmg_statics import LmgParams, solvable_line_energies

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


def test_cli_run_rejects_config_for_several(tmp_path, capsys):
    cfg_file = tmp_path / "c.ini"
    cfg_file.write_text(SMALL_FIGS1)
    out_dir = tmp_path / "out"
    for names in (["figS1_absorption", "fig5_correlation_gap"], []):
        assert main(["run", *names, "--config", str(cfg_file), "--out", str(out_dir)]) == 1
        assert "[config]" in capsys.readouterr().err
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
