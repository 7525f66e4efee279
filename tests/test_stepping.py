import math

import numpy as np
import pytest

from spinamp.harness.config import parse_config_text, serialize_config
from spinamp.harness.experiments import default_config
from spinamp.stepping import MAX_STEPS, TimeGrid


@pytest.mark.parametrize("name", ["dt", "t_start", "t_end"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_time_grid_refuses_a_non_finite_field_by_name(name, bad):
    fields = dict(dt=1e-3, t_start=-1.0, t_end=1.0)
    with pytest.raises(ValueError, match=rf"^{name} must be finite, got {bad}$"):
        TimeGrid(**{**fields, name: bad})


@pytest.mark.parametrize(
    "fields, message",
    [
        (dict(dt=0.0), "dt must be positive, got 0.0"),
        (dict(dt=-1e-3), "dt must be positive, got -0.001"),
        (dict(sample_every=0), "sample_every must be >= 1, got 0"),
        (dict(t_end=-1.0), "t_end must exceed t_start by at least one step"),
        (dict(t_end=-2.0), "t_end must exceed t_start by at least one step"),
        (dict(t_end=-1.0 + 4e-4), "t_end must exceed t_start by at least one step"),  # rounds to 0 steps
        # each field is finite, the step count is not
        (dict(dt=1e-300, t_end=1e308), r"the step count \(t_end - t_start\) / dt must be finite, got inf"),
        (dict(t_start=-1e308, t_end=1e308), r"the step count \(t_end - t_start\) / dt must be finite, got inf"),
        # finite, but one step past the cap
        (
            dict(dt=1.0, t_start=0.0, t_end=1e9 + 1.0),
            r"the step count \(t_end - t_start\) / dt must be at most 1000000000, got 1000000001",
        ),
    ],
)
def test_time_grid_refusals(fields, message):
    with pytest.raises(ValueError, match=rf"^{message}$"):
        TimeGrid(**{**dict(dt=1e-3, t_start=-1.0, t_end=1.0), **fields})


def test_time_grid_takes_max_steps():
    assert TimeGrid(1.0, 0.0, float(MAX_STEPS)).n_steps == MAX_STEPS


def test_n_steps_rounds_the_span():
    assert TimeGrid(1e-3, -1.0, 1.0).n_steps == 2000
    assert TimeGrid(0.1, 0.0, 0.3).n_steps == 3  # 0.3 / 0.1 = 2.9999999999999996
    assert TimeGrid(1e-3, -1.0, -1.0 + 6e-4).n_steps == 1
    assert TimeGrid(1e-3, -5.0, 20.0, 25).n_steps == 25000


def test_samples_on_a_span_that_is_a_multiple_of_every():
    grid = TimeGrid(1e-3, -1.0, 1.0, 25)
    steps, times = grid.samples(25)
    assert np.array_equal(steps, np.arange(0, 2001, 25))
    assert np.array_equal(times, -1.0 + steps * 1e-3)
    # every = 1 stores each step; every past the span stores the two ends
    assert np.array_equal(grid.samples(1)[0], np.arange(2001))
    assert np.array_equal(grid.samples(5000)[0], [0, 2000])


def test_samples_end_on_a_shorter_stride():
    steps, times = TimeGrid(1e-3, -1.0, 0.01).samples(100)  # 1010 steps
    assert np.array_equal(steps, [*range(0, 1001, 100), 1010])
    assert np.array_equal(times, -1.0 + 1e-3 * steps)
    steps, _ = TimeGrid(1e-3, -5.0, -3.995).samples(10)  # 1005 steps
    assert np.array_equal(steps, [*range(0, 1001, 10), 1005])


def test_integration_section_is_the_time_grid():
    """[integration] parses into a TimeGrid with the keys in field order, so
    the config echo is unchanged."""
    cfg = default_config("figS3_gain_scaling")
    assert cfg.integration == TimeGrid(dt=1e-3, t_start=-5.0, t_end=20.0, sample_every=25)
    text = serialize_config(cfg)
    assert "[integration]\ndt = 0.001\nt_start = -5.0\nt_end = 20.0\nsample_every = 25\n" in text
    assert parse_config_text(text)[1]["integration"] == dict(dt=1e-3, t_start=-5.0, t_end=20.0, sample_every=25)
