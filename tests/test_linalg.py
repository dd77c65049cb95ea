import numpy as np
import pytest

from gradleak import linalg
from gradleak.linalg import (SvdConvergenceError, _round_robin, as_matrix,
                             default_rank_tol, numeric_rank, svd)


def test_as_matrix_rejects_bad_inputs():
    with pytest.raises(ValueError):
        as_matrix([1.0, 2.0])
    with pytest.raises(ValueError):
        as_matrix(np.zeros((0, 3)))
    with pytest.raises(ValueError):
        as_matrix([[1.0, np.nan]])
    with pytest.raises(ValueError):
        as_matrix([[np.inf, 1.0]])


def test_svd_diagonal():
    res = svd(np.diag([3.0, 1.0]))
    assert res.singular.tolist() == [3.0, 1.0]


def test_svd_exact_rank_one():
    a = np.array([[1 / 3, -2 / 3, 1 / 3], [0.0, 0.0, 0.0]])
    res = svd(a)
    assert int((res.singular != 0.0).sum()) == 1
    assert np.allclose(res.reconstruct(), a, atol=1e-15)


def test_svd_random_reconstruction_seed7():
    rng = np.random.default_rng(7)
    a = rng.normal(size=(8, 12))
    res = svd(a)
    rel = np.linalg.norm(res.reconstruct() - a) / np.linalg.norm(a)
    assert rel <= 1e-8


@pytest.mark.parametrize("shape", [(5, 5), (13, 4), (4, 13), (64, 100), (100, 64), (1, 9), (9, 1)])
def test_svd_invariants_random_shapes(shape):
    rng = np.random.default_rng(hash(shape) % 2**32)
    a = rng.normal(size=shape)
    res = svd(a)
    r = min(shape)
    assert res.left.shape == (shape[0], r)
    assert res.right.shape == (r, shape[1])
    assert (np.diff(res.singular) <= 0.0).all()
    assert (res.singular >= 0.0).all()
    assert res.rank == numeric_rank(res.singular, default_rank_tol(*shape)) == r
    assert np.abs(res.left.T @ res.left - np.eye(r)).max() <= 1e-10
    assert np.abs(res.right @ res.right.T - np.eye(r)).max() <= 1e-10
    rel = np.linalg.norm(res.reconstruct() - a) / np.linalg.norm(a)
    assert rel <= 1e-8


def test_svd_matches_lapack_singular_values():
    # independent oracle for the spectrum itself
    rng = np.random.default_rng(11)
    for _ in range(20):
        a = rng.normal(size=(rng.integers(2, 40), rng.integers(2, 40)))
        mine = svd(a).singular
        ref = np.linalg.svd(a, compute_uv=False)
        assert np.allclose(mine, ref, rtol=1e-10, atol=1e-12)


def test_svd_sign_canonicalization_and_determinism():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(10, 17))
    first = svd(a)
    second = svd(a)
    assert np.array_equal(first.left, second.left)
    assert np.array_equal(first.singular, second.singular)
    assert np.array_equal(first.right, second.right)
    for row in first.right:
        nz = row[row != 0.0]
        assert nz[0] >= 0.0


def test_svd_low_rank_product_and_zero_matrix():
    rng = np.random.default_rng(5)
    a = rng.normal(size=(40, 3)) @ rng.normal(size=(3, 30))
    res = svd(a)
    assert res.rank == numeric_rank(res.singular, default_rank_tol(40, 30)) == 3
    assert np.abs(res.right @ res.right.T - np.eye(30)).max() <= 1e-10

    res = svd(np.zeros((4, 6)))
    assert res.singular.tolist() == [0.0] * 4 and res.rank == 0
    assert np.abs(res.right @ res.right.T - np.eye(4)).max() == 0.0


@pytest.mark.parametrize("shape", [(1200, 300), (300, 1200)])
def test_svd_rank_deficient_completion(shape):
    # rank 8 leaves almost every column numerically null, so nearly all of
    # both factors comes from the orthonormal completion
    rng = np.random.default_rng(21)
    a = rng.normal(size=(shape[0], 8)) @ rng.normal(size=(8, shape[1]))
    res = svd(a)
    r = min(shape)
    assert res.rank == numeric_rank(res.singular, default_rank_tol(*shape)) == 8
    assert res.left.shape == (shape[0], r) and res.right.shape == (r, shape[1])
    assert np.abs(res.left.T @ res.left - np.eye(r)).max() <= 1e-10
    assert np.abs(res.right @ res.right.T - np.eye(r)).max() <= 1e-10
    assert np.linalg.norm(res.reconstruct() - a) / np.linalg.norm(a) <= 1e-8
    again = svd(a)
    assert np.array_equal(res.left, again.left)
    assert np.array_equal(res.singular, again.singular)
    assert np.array_equal(res.right, again.right)
    first = (res.right != 0.0).argmax(axis=1)
    assert (res.right[np.arange(r), first] > 0.0).all()


def test_svd_sweep_cap_raises_with_count(monkeypatch):
    rng = np.random.default_rng(9)
    a = rng.normal(size=(12, 9))
    monkeypatch.setattr(linalg, "JACOBI_SWEEP_CAP", 0)
    with pytest.raises(SvdConvergenceError) as err:
        svd(a)
    assert err.value.sweeps == 0


def test_numeric_rank_examples():
    tol = default_rank_tol(3, 3)
    assert numeric_rank([3.0, 1.0, 0.0], tol) == 2
    assert numeric_rank([0.0, 0.0], tol) == 0
    assert numeric_rank([], tol) == 0


def test_numeric_rank_validation():
    with pytest.raises(ValueError):
        numeric_rank([1.0, 2.0], 1e-12)  # increasing
    with pytest.raises(ValueError):
        numeric_rank([1.0, -0.5], 1e-12)
    with pytest.raises(ValueError):
        numeric_rank([1.0], tol_rel=0.0)
    with pytest.raises(TypeError):
        numeric_rank([1.0])  # the tolerance has no default


def test_numeric_rank_product_inference():
    # rank of a d x C product of full-rank factors recovers the inner size
    rng = np.random.default_rng(42)
    for seed in range(100):
        r = np.random.default_rng(seed)
        prod = r.normal(size=(64, 5)) @ r.normal(size=(5, 100))
        sv = svd(prod).singular
        assert numeric_rank(sv, default_rank_tol(64, 100)) == 5


def test_numeric_rank_monotone_in_tolerance():
    rng = np.random.default_rng(12)
    sv = np.sort(np.abs(rng.normal(size=30)))[::-1]
    tols = sorted(10.0 ** rng.uniform(-16, 0, size=25))
    ranks = [numeric_rank(sv, t) for t in tols]
    assert all(a >= b for a, b in zip(ranks, ranks[1:]))


def _round_robin_by_lists(n):
    # the circle method written out seat by seat, as the reference schedule
    players = list(range(n)) + ([-1] if n % 2 else [])
    m = len(players)
    rounds = []
    for _ in range(m - 1):
        ps, qs = [], []
        for i in range(m // 2):
            a, b = players[i], players[m - 1 - i]
            if a >= 0 and b >= 0:
                ps.append(min(a, b))
                qs.append(max(a, b))
        rounds.append((np.asarray(ps, dtype=np.intp), np.asarray(qs, dtype=np.intp)))
        players = [players[0], players[-1]] + players[1:-1]
    return rounds


def test_round_robin_matches_list_schedule():
    # the Jacobi sweep order, and so every rotation, follows this schedule
    for n in [*range(1, 71), 512]:
        got = _round_robin(n)
        want = _round_robin_by_lists(n)
        assert len(got) == len(want), n
        for (p, q), (wp, wq) in zip(got, want):
            assert p.dtype == q.dtype == np.intp
            assert np.array_equal(p, wp) and np.array_equal(q, wq), n
