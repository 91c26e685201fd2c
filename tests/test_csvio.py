"""The shared %.17g CSV row encoder: byte-exact against per-value
formatting, and `simulate` artifacts byte-identical to the per-value
writers it replaced."""

import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from affinespde import cli, csvio, levy, oracle
from affinespde.errors import GridMismatch

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
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "table.csv")
        csvio.write_rows(path, header, t_grid, values)
        with open(path, "rb") as fh:
            return fh.read().decode("ascii")


def _assert_encodes(block):
    """Each row of the block, written as t and its other values, is the
    per-value %.17g table."""
    block = np.atleast_2d(np.asarray(block, dtype=float))
    t_grid, values = block[:, 0], block[:, 1:]
    header = "t" + ",v" * values.shape[1]
    assert _encode(header, t_grid, values) == \
        _reference_table(header, t_grid, values)


@settings(max_examples=200, deadline=None)
@given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2,
                                               min_side=1, max_side=6),
                  elements=st.floats(allow_nan=True, allow_infinity=True)))
def test_encoder_matches_per_value_formatting(block):
    _assert_encodes(block)


def _neighbours(values) -> np.ndarray:
    """Each value with the doubles on either side of it."""
    values = np.asarray(values, dtype=float)
    return np.stack([np.nextafter(values, -np.inf), values,
                     np.nextafter(values, np.inf)], axis=1).ravel()


def test_encoder_on_a_row_as_wide_as_hjmm_linear():
    rng = np.random.default_rng(3)
    row = rng.standard_normal(3002) * 10.0 ** rng.integers(-8, 3, 3002)
    row[::97] = 0.0
    _assert_encodes(row)
    _assert_encodes(np.stack([row, -row[::-1]]))


def test_encoder_on_every_power_of_ten_and_its_neighbours():
    powers = _neighbours([float(f"1e{e}") for e in range(-300, 301)])
    _assert_encodes(np.concatenate([powers, -powers]).reshape(-1, 6))


def test_encoder_where_the_notation_switches():
    # %.17g is fixed notation for decimal exponents -4..16, e-notation beyond
    _assert_encodes(_neighbours([1e-5, 1e-4, 1e16, 1e17, 1e-3, 1e15]))


def test_encoder_carries_into_the_next_decade():
    # 17 significant digits of 9.99..9e-5 round up to 1e-4; and below every
    # power of ten, for each exponent, the first digit can carry
    carries = [9.99999999999999999e-5, 9.9999999999999999e22,
               0.99999999999999999]
    carries += [float(f"9.99999999999999999e{e}") for e in range(-300, 301)]
    _assert_encodes(_neighbours(carries).reshape(-1, 3))


def test_encoder_rounds_exact_ties_to_even():
    # the 17th digit of x.25 and x.75 at 10^15 is an exact tie; so is that
    # of 3 * 2^-24, scaled by 10^23, a power of ten no double holds
    ties = [1000000000000000.25, 1000000000000000.75,
            1000000000000001.25, 1000000000000001.75, 3 * 2.0 ** -24]
    ties += [1e15 + j / 4 for j in range(400)]
    _assert_encodes(np.array(ties + [-t for t in ties]).reshape(-1, 2))


def test_encoder_on_rows_mixing_zeros_non_finite_and_subnormals():
    special = [0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, -5e-324,
               2.2250738585072009e-308, 2.2250738585072014e-308, 1e-310,
               1.7976931348623157e308, 1e-280, 1e280, 0.5, -3.25]
    rng = np.random.default_rng(5)
    _assert_encodes(np.stack([rng.permutation(special) for _ in range(8)]))


def test_encoder_on_random_bit_patterns():
    bits = np.random.default_rng(7).integers(0, 2 ** 64, 100_000,
                                             dtype=np.uint64)
    _assert_encodes(bits.view(np.float64).reshape(-1, 250))


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


@pytest.mark.parametrize("t_grid, rows", [
    ([0.0, 1.0], [[1.0, 2.0], [3.0]]),  # a row shorter than the header
    ([0.0, 1.0], [[1.0, 2.0, 3.0], [3.0, 4.0, 5.0]]),  # rows longer
    ([0.0, 1.0, 2.0], [[1.0, 2.0], [3.0, 4.0]]),  # fewer rows than times
    ([0.0], [[1.0, 2.0], [3.0, 4.0]]),  # more rows than times
])
def test_malformed_tables_raise_grid_mismatch(tmp_path, t_grid, rows):
    for given in (rows, iter(rows), np.array(rows, dtype=object)):
        with pytest.raises(GridMismatch):
            csvio.write_rows(str(tmp_path / "table.csv"), "t,a,b",
                             np.array(t_grid), given)


@pytest.mark.parametrize("bad", ["width", "more", "fewer"])
def test_streamed_malformed_table_leaves_no_file(tmp_path, bad):
    # the table fails after its first block is written, and the file
    # write_rows opened is removed
    per_block = csvio._BLOCK // 3
    n_t = per_block + 10
    t_grid = np.arange(n_t, dtype=float)

    def rows():
        for n in range(n_t + {"more": 1, "fewer": -5}.get(bad, 0)):
            wide = bad == "width" and n > per_block
            yield [1.0, 2.0, 3.0] if wide else [1.0, float(n)]

    target = tmp_path / "table.csv"
    with pytest.raises(GridMismatch):
        csvio.write_rows(str(target), "t,a,b", t_grid, rows())
    assert not target.exists()
    with pytest.raises(GridMismatch):
        oracle.write_grid_path(rows(), target, t_grid, np.zeros(2))
    assert not target.exists()


def test_grid_path_axis_must_match_the_rows(tmp_path):
    rows = np.ones((2, 3))
    with pytest.raises(GridMismatch):
        oracle.write_grid_path(rows, str(tmp_path / "p.csv"),
                               np.array([0.0, 1.0]), np.array([0.0, 1.0]))
    oracle.write_grid_path(rows, str(tmp_path / "p.csv"), np.array([0.0, 1.0]),
                           np.array([0.0, 0.5, 1.0]))
    path = oracle.read_grid_path(str(tmp_path / "p.csv"))
    assert np.array_equal(path.values, rows)


def test_comma_fields_is_the_row_encoder():
    values = [0.1, -0.0, 1e-5, 1e300, np.nan]
    assert csvio.comma_fields(values) == "".join(f",{v:.17g}" for v in values)
    assert csvio.comma_fields([]) == ""


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
