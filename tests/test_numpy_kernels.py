"""The numpy kernels that replace LAPACK calls: `funalg.qr_pivots` against
scipy's column-pivoted QR, and `realization._expm` against scipy's matrix
exponential.  scipy is the reference here and is used only by the tests."""

import numpy as np
import pytest
import scipy.linalg

from affinespde import cli, funalg, grids
from affinespde import realization as rz


def _lapack_pivots(a, count):
    piv = scipy.linalg.qr(a, mode="economic", pivoting=True)[2]
    return sorted(int(i) for i in piv[:count])


def _matrices():
    rng = np.random.default_rng(7)
    full = rng.standard_normal((12, 8))
    low = rng.standard_normal((12, 3)) @ rng.standard_normal((3, 8))
    dup = rng.standard_normal((6, 5))
    dup[:, 3] = dup[:, 1]
    dup[:, 4] = dup[:, 1]
    zero = rng.standard_normal((5, 4))
    zero[:, 0] = 0.0
    wide = rng.standard_normal((4, 9))
    return {"full": full, "rank3": low, "duplicates": dup, "zero": zero,
            "wide": wide, "equal": np.ones((3, 4))}


@pytest.mark.parametrize("name", sorted(_matrices()))
def test_qr_pivots_match_lapack(name):
    # past the rank the residual columns are round-off, and which of them
    # comes first is not defined
    a = _matrices()[name]
    rank = np.linalg.matrix_rank(a)
    for count in [*range(rank + 1), a.shape[1]]:
        assert funalg.qr_pivots(a, count) == _lapack_pivots(a, count), count


@pytest.mark.parametrize("name", ["neg-gauss-taylor", "hjmm-linear"])
def test_qr_pivots_match_lapack_on_every_analyze_call(name, tmp_path, monkeypatch):
    calls = []
    qr_pivots = funalg.qr_pivots

    def recorded(a, count):
        calls.append((np.array(a), count))
        return qr_pivots(a, count)

    monkeypatch.setattr(funalg, "qr_pivots", recorded)
    cli.run_analyze(cli._load_runtime(name), str(tmp_path))
    assert any(count < a.shape[1] for a, count in calls)
    for a, count in calls:
        assert qr_pivots(a, count) == _lapack_pivots(a, count)


@pytest.mark.parametrize("size", [1, 2, 4, 7, 12])
@pytest.mark.parametrize("norm", [1e-3, 0.1, 1.0, 5.0, 40.0, 200.0])
def test_expm_matches_scipy(size, norm):
    rng = np.random.default_rng(size)
    a = rng.standard_normal((size, size))
    a *= norm / np.linalg.norm(a, 1)
    ref = scipy.linalg.expm(a)
    assert np.linalg.norm(rz._expm(a) - ref) <= 1e-12 * np.linalg.norm(ref)


def test_expm_of_zero_is_identity():
    np.testing.assert_allclose(rz._expm(np.zeros((3, 3))), np.eye(3),
                               rtol=0.0, atol=1e-15)


def test_expm_with_integral_of_a_diagonal_matrix():
    b = np.array([-3.0, -0.5, 0.0, 0.7])
    dt = 0.25
    e_mat, j_mat = rz._expm_with_integral(np.diag(b), dt)
    integral = np.where(b == 0.0, dt, np.expm1(b * dt) / np.where(b == 0.0, 1.0, b))
    np.testing.assert_allclose(e_mat, np.diag(np.exp(b * dt)), rtol=1e-14, atol=1e-15)
    np.testing.assert_allclose(j_mat, np.diag(integral), rtol=1e-14, atol=1e-15)


@pytest.mark.parametrize("n", [1, 1000, grids.DOT_PIECE, grids.DOT_PIECE + 1, 20001])
def test_long_dot_is_np_dot_up_to_one_piece(n):
    # bit for bit up to DOT_PIECE values; longer vectors sum their pieces'
    # dots in order, which OpenBLAS then never hands to its threads
    a, b = np.random.default_rng(n).standard_normal((2, n))
    got = grids.long_dot(a, b)
    if n <= grids.DOT_PIECE:
        assert got.tobytes() == np.dot(a, b).tobytes()
    else:
        pieces = [np.dot(a[i:i + grids.DOT_PIECE], b[i:i + grids.DOT_PIECE])
                  for i in range(0, n, grids.DOT_PIECE)]
        assert got == sum(pieces)
        assert abs(got - np.dot(a, b)) <= 1e-12 * np.dot(abs(a), abs(b))
