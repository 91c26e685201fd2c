"""The shared %.17g CSV row encoder: byte-exact against per-value
formatting, and `simulate` artifacts byte-identical to the per-value
writers it replaced."""

import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from affinespde import cli, csvio, levy, oracle

EDGE_VALUES = [
    0.0, -0.0, float("nan"), float("inf"), -float("inf"),
    5e-324, -5e-324, 2.2250738585072014e-308, 1.1125369292536007e-308,
    1e16, 1e17, -1e16, 9007199254740993.0, 1.7976931348623157e308,
    1e-300, 1e300, 1e-100, 1e100, 0.1, 1.0 / 3.0, 123456789.123456789,
]


def _reference_table(header: str, t_grid, values) -> str:
    """The per-value formatting every writer used before the shared encoder."""
    lines = [header + "\n"]
    for t, row in zip(t_grid, values):
        lines.append(",".join([f"{t:.17g}"] + [f"{v:.17g}" for v in row]) + "\n")
    return "".join(lines)


def _encode(header: str, t_grid, values) -> str:
    buf = io.StringIO()
    csvio.write_rows(buf, header, t_grid, values)
    return buf.getvalue()


@settings(max_examples=200, deadline=None)
@given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2,
                                               min_side=1, max_side=6),
                  elements=st.floats(allow_nan=True, allow_infinity=True)))
def test_encoder_matches_per_value_formatting(block):
    t_grid, values = block[:, 0], block[:, 1:]
    assert _encode("t", t_grid, values) == _reference_table("t", t_grid, values)


def test_encoder_edge_values_and_round_trip(tmp_path):
    values = np.array(EDGE_VALUES).reshape(3, 7)
    t_grid = np.array([-0.0, 5e-324, 1e17])
    text = _encode("t,a,b,c,d,e,f,g", t_grid, values)
    assert text == _reference_table("t,a,b,c,d,e,f,g", t_grid, values)
    assert "-0," in text and "nan" in text and "-inf" in text and "e+308" in text

    target = tmp_path / "edge.csv"
    csvio.write_rows(str(target), "t,a,b,c,d,e,f,g", t_grid, values)
    assert target.read_bytes() == text.encode("ascii")
    names, t_back, v_back = csvio.read_rows(str(target), "t")
    assert names == list("abcdefg")
    assert np.array_equal(t_back, t_grid)
    assert np.array_equal(v_back, values, equal_nan=True)
    assert np.array_equal(np.signbit(v_back), np.signbit(values))


# ---------------------------------------------------------------------------
# golden artifacts: the writers as they were before the shared encoder


def _old_write_grid_path(rows, file, t_grid, x_grid):
    with open(file, "w") as fh:
        fh.write("x," + ",".join(f"{v:.17g}" for v in x_grid) + "\n")
        for t, row in zip(t_grid, rows):
            fh.write(f"{t:.17g}," + ",".join(f"{v:.17g}" for v in row) + "\n")


def _old_write_coordinate_csv(t_grid, coords, file):
    with open(file, "w") as fh:
        d = coords.shape[1]
        fh.write("t," + ",".join(f"Y_{i + 1}" for i in range(d)) + "\n")
        for t, row in zip(t_grid, coords):
            fh.write(f"{t:.17g}," + ",".join(f"{v:.17g}" for v in row) + "\n")


def _old_write_increments_csv(inc, path):
    header = "t," + ",".join(f"dX{k + 1}" for k in range(inc.m))
    t = (np.arange(inc.n_steps) + 1) * inc.dt
    data = np.column_stack([t, inc.values])
    np.savetxt(path, data, delimiter=",", header=header, comments="", fmt="%.17g")


def _old_write_ensemble_stats(path, t_grid, mean, var):
    d = mean.shape[1]
    with open(path, "w") as fh:
        head = ["t"] + [f"mean_{i + 1}" for i in range(d)] + \
            [f"var_{i + 1}" for i in range(d)]
        fh.write(",".join(head) + "\n")
        for n, t in enumerate(t_grid):
            row = [f"{t:.17g}"] + [f"{v:.17g}" for v in mean[n]] + \
                [f"{v:.17g}" for v in var[n]]
            fh.write(",".join(row) + "\n")


ARTIFACTS = ("psi.csv", "r.csv", "Y.csv", "increments.csv", "ensemble_stats.csv")


@pytest.mark.parametrize("scenario", ["hjmm-levy", "heat-disk"])
def test_simulate_artifacts_byte_identical_to_per_value_writers(
        scenario, tmp_path, monkeypatch):
    argv = ["simulate", "--config", scenario, "--seed", "11", "--paths", "3"]
    new, old = tmp_path / "new", tmp_path / "old"
    assert cli.main(argv + ["--out", str(new)]) == 0
    monkeypatch.setattr(oracle, "write_grid_path", _old_write_grid_path)
    monkeypatch.setattr(oracle, "write_coordinate_csv", _old_write_coordinate_csv)
    monkeypatch.setattr(levy, "write_increments_csv", _old_write_increments_csv)
    monkeypatch.setattr(cli, "_write_ensemble_stats", _old_write_ensemble_stats)
    assert cli.main(argv + ["--out", str(old)]) == 0
    for name in ARTIFACTS:
        assert (new / name).read_bytes() == (old / name).read_bytes(), name
