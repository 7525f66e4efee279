"""Each output check passes on real output and fails on a corrupted copy.

    python3 -m pytest benchmark/test_checks.py

The outputs come from small configurations of the benchmark's two
experiments, run in-process (about half a minute).
"""

import shutil
import sys
from pathlib import Path

import pytest

import checks

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from spinamp.harness.config import apply_overrides, parse_config_text  # noqa: E402
from spinamp.harness.experiments import default_config, run_experiment  # noqa: E402

SMALL = {
    "statics_critical": "[run]\nexperiment = fig4_susceptibility\n[model]\nn_qubits = 100\n"
                        "[sweep]\npoints = 9\n",
    "gain_scaling": "[run]\nexperiment = figS3_gain_scaling\n[sweep]\nlo = 50\nhi = 100\npoints = 2\n"
                    "[integration]\nt_end = 5\n",
}


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    made = {}
    for workload, text in SMALL.items():
        out = tmp_path_factory.mktemp(workload)
        name, overrides = parse_config_text(text + f"[output]\ndirectory = {out}\n")
        run_experiment(apply_overrides(default_config(name), overrides))
        made[workload] = out
    return made


def copy_of(outputs, workload, tmp_path):
    target = tmp_path / workload
    shutil.copytree(outputs[workload], target)
    return target


def edit_csv(path: Path, row: int, column: int, change):
    """Replace one field (row 0 is the first data row) by change(old float)."""
    lines = path.read_text(encoding="utf-8").split("\n")
    fields = lines[row + 1].split(",")
    fields[column] = repr(float(change(float(fields[column]))))
    lines[row + 1] = ",".join(fields)
    path.write_text("\n".join(lines), encoding="utf-8")


@pytest.mark.parametrize("workload", sorted(SMALL))
def test_clean_output_passes(outputs, workload):
    assert checks.run_checks(workload, outputs[workload]) == []


def scale(factor):
    return lambda v: v * factor


CORRUPTIONS = {
    # (workload, check, corruption of the copied output directory)
    "digest": ("gain_scaling", checks.check_manifest,
               lambda out: edit_csv(out / "gain_scaling.csv", 0, 2, scale(1.0 + 1e-12))),
    "unlisted_file": ("gain_scaling", checks.check_manifest,
                      lambda out: (out / "extra.csv").write_text("x\n")),
    "chi_sweep": ("statics_critical", checks.check_chi_sweep,
                  lambda out: edit_csv(out / "susceptibility_sweep.csv", 3, 4, scale(1.0 + 1e-6))),
    "chi_vs_n": ("statics_critical", checks.check_chi_vs_n,
                 lambda out: edit_csv(out / "chi_vs_n.csv", 5, 1, scale(1.0 + 1e-6))),
    "gap_vs_n": ("statics_critical", checks.check_chi_vs_n,
                 lambda out: edit_csv(out / "chi_vs_n.csv", 2, 2, lambda v: v + 1e-8)),
    "chi_sign": ("statics_critical", checks.check_chi_positive,
                 lambda out: edit_csv(out / "chi_vs_n.csv", 0, 1, scale(-1.0))),
    "chi_fit": ("statics_critical", checks.check_chi_fit,
                lambda out: edit_csv(out / "fits.csv", 0, 1, lambda v: v + 1e-6)),
    "g_max": ("gain_scaling", checks.check_gain_reference,
              lambda out: edit_csv(out / "gain_scaling.csv", 0, 1, scale(1.0 + 1e-5))),
    "t_am": ("gain_scaling", checks.check_gain_reference,
             lambda out: edit_csv(out / "gain_scaling.csv", 0, 2, lambda v: v + 0.05)),
    "g_max_order": ("gain_scaling", checks.check_gain_grows,
                    lambda out: edit_csv(out / "gain_scaling.csv", 1, 1, lambda v: 1.0)),
}


@pytest.mark.parametrize("case", sorted(CORRUPTIONS))
def test_check_fails_on_corrupted_output(outputs, tmp_path, case):
    workload, check, corrupt = CORRUPTIONS[case]
    out = copy_of(outputs, workload, tmp_path)
    check(out, checks.read_config(out))  # passes before the corruption
    corrupt(out)
    with pytest.raises(checks.CheckFailed):
        check(out, checks.read_config(out))
