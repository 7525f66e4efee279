import dataclasses
import json

import numpy as np
import pytest

from spinamp.absorber import integrate_hierarchy
from spinamp.harness import experiments
from spinamp.harness.cli import main
from spinamp.harness.config import (
    AbsorberSection,
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
sample_every = 10
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
    with pytest.raises(ExperimentError, match=r"\[config\]"):
        run_experiment(cfg)
    # the absorber stores every 10th step; another sample_every would be ignored
    figs1 = _figs1_config(tmp_path)
    figs1 = dataclasses.replace(figs1, integration=dataclasses.replace(figs1.integration, sample_every=1))
    with pytest.raises(ExperimentError, match=r"\[config\] \[integration\] sample_every = 1 must be 10"):
        run_experiment(figs1)
    # figS2 takes its rates from a fixed grid, so an [absorber] section would be ignored
    figs2 = dataclasses.replace(
        default_config("figS2_transduction_map"),
        absorber=AbsorberSection(delta_pp=10.0, gamma_fg=3.0, gamma_he=3.0, eta=0.3),
        output=OutputSection(directory=str(tmp_path)),
    )
    with pytest.raises(ExperimentError, match=r"\[config\] .*does not take a \[absorber\] section"):
        run_experiment(figs2)


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


def test_cli_run_figs1(tmp_path, capsys):
    cfg_file = tmp_path / "c.ini"
    cfg_file.write_text(SMALL_FIGS1)
    out_dir = tmp_path / "run"
    assert main(["run", "figS1_absorption", "--config", str(cfg_file), "--out", str(out_dir)]) == 0
    assert (out_dir / "manifest.json").exists()
    data = json.loads((out_dir / "manifest.json").read_text())
    assert data["experiment"] == "figS1_absorption"
    assert "figS1_absorption" in capsys.readouterr().out
