"""The benchmark's workloads: registry experiments as a user configures them.

Each workload is INI text that goes through spinamp's own parse_config_text
and apply_overrides onto the experiment's registry defaults. The inputs are
fixed; nothing in them is random.
"""

WORKLOADS = {
    # fig4 at its defaults: a 33-point field sweep at N = 1000 and the
    # chi-vs-N scan at N = 200..2000. Nearly all time is LMG eigensolves.
    "statics_critical": """\
[run]
experiment = fig4_susceptibility
""",
    # figS3 at N = 400, 800, 1600: one absorber trace and three RK4
    # trajectories; the N = 1600 trajectory stores 25 MB of states.
    "gain_scaling": """\
[run]
experiment = figS3_gain_scaling

[sweep]
lo = 400
hi = 1600
points = 3
""",
}


def config_text(workload: str, out_dir) -> str:
    return WORKLOADS[workload] + f"\n[output]\ndirectory = {out_dir}\n"
