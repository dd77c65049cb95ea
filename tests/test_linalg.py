import tracemalloc

import numpy as np
import pytest

from gradleak import linalg
from gradleak.bench import _capture
from gradleak.defense import DefenseSpec, apply_defense
from gradleak.linalg import (SvdConvergenceError, _round_robin, as_matrix,
                             default_rank_tol, numeric_rank, svd)
from gradleak.simulator import Scenario, simulate_case


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
    assert res.singular.shape == (30,)
    assert np.abs(res.right @ res.right.T - np.eye(3)).max() <= 1e-10

    # one-column shapes take the same path as every other
    for shape in ((4, 6), (3, 1), (1, 3)):
        res = svd(np.zeros(shape))
        assert res.singular.tolist() == [0.0] * min(shape) and res.rank == 0
        assert res.left.shape == (shape[0], 0) and res.right.shape == (0, shape[1])
        assert np.array_equal(res.reconstruct(), np.zeros(shape))


@pytest.mark.parametrize("shape", [(1200, 300), (300, 1200)])
def test_svd_rank_deficient_thin_factors(shape):
    # rank 8 leaves almost every column numerically null; the factors hold
    # only the 8 computed directions, as fresh C-ordered arrays
    rng = np.random.default_rng(21)
    a = rng.normal(size=(shape[0], 8)) @ rng.normal(size=(8, shape[1]))
    res = svd(a)
    assert res.rank == numeric_rank(res.singular, default_rank_tol(*shape)) == 8
    assert res.singular.shape == (min(shape),)
    assert res.left.shape == (shape[0], 8) and res.right.shape == (8, shape[1])
    assert np.abs(res.left.T @ res.left - np.eye(8)).max() <= 1e-10
    assert np.abs(res.right @ res.right.T - np.eye(8)).max() <= 1e-10
    assert np.linalg.norm(res.reconstruct() - a) / np.linalg.norm(a) <= 1e-8
    again = svd(a)
    assert np.array_equal(res.left, again.left)
    assert np.array_equal(res.singular, again.singular)
    assert np.array_equal(res.right, again.right)
    first = (res.right != 0.0).argmax(axis=1)
    assert (res.right[np.arange(8), first] > 0.0).all()
    for factor in (res.left, res.right):
        assert factor.flags.c_contiguous and factor.base is None


def test_svd_rescales_a_matrix_whose_gram_overflows():
    # entries above ~1e154 overflow the Gram, and tiny ones underflow it;
    # svd then decomposes the matrix scaled by a power of two and scales the
    # singular values back
    m = _capture(1201, "batch", 10).delta_w
    # ldexp(0.5, -1073) is the smallest subnormal, 5e-324
    for base, exp, rank in ((m, 540, 10), (m, -600, 10),
                            (np.full(m.shape, 0.5), -1073, 1)):
        ref = svd(base)
        # a power-of-two scale is exact: the same factors, sigma scaled exactly
        got = svd(np.ldexp(base, exp))
        assert got.rank == ref.rank == rank, exp
        assert got.right.tobytes() == ref.right.tobytes()
        assert got.left.tobytes() == ref.left.tobytes()
        assert got.singular.tobytes() == np.ldexp(ref.singular, exp).tobytes()
    # 1e160 is not a power of two, so only rounding separates the results
    for big in (m * 1e160, apply_defense(m, DefenseSpec("sign")) * 1e160):
        got, want = svd(big), svd(big / 1e160)
        assert got.rank == want.rank
        live = slice(0, got.rank)
        assert np.abs(got.singular[live] / 1e160 - want.singular[live]).max() <= (
            1e-13 * want.singular[0])
        assert np.abs(got.right - want.right).max() <= 1e-12


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
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="tol_rel"):
            numeric_rank([3.0, 1.0], bad)
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


def _sweep_style_updates():
    # the 64x100 captures of one perfbench sweep round on each seed (four
    # modes under each of three latents), clean and as the drop90 and sign
    # copies the sweep attacks
    for seed in (1201, 77):
        for li, latent in enumerate(("tanh", "relu", "gauss")):
            for offset, (mode, n, k) in enumerate((("single", 1, 1), ("batch", 10, 1),
                                                   ("sequence", 12, 1), ("multistep", 2, 2))):
                dw = _capture(seed * 1_000_003 + 4 * li + offset, mode, n, k, latent).delta_w
                yield dw
                yield apply_defense(dw, DefenseSpec("drop", 0.9))
                yield apply_defense(dw, DefenseSpec("sign"))


def test_svd_matches_lapack_accurate_jacobi():
    # LAPACK's preconditioned one-sided Jacobi (dgejsv, Drmac & Veselic 2008)
    # as the oracle: same rank under the default cut, and the live singular
    # values within a few ulps of the largest
    lapack = pytest.importorskip("scipy.linalg.lapack")
    checked = 0
    for m in _sweep_style_updates():
        got = svd(m)
        # dgejsv needs rows >= cols; no vectors are asked for
        sva, _, _, work, _, info = lapack.dgejsv(m.T, jobu=3, jobv=3)
        assert info == 0
        want = sva * work[0] / work[1]
        assert numeric_rank(want, default_rank_tol(*m.shape)) == got.rank
        live = slice(0, got.rank)
        assert np.abs(got.singular[live] - want[live]).max() <= 1e-13 * want[0]
        checked += 1
    assert checked == 72


def _wide_capture(seed, latent):
    return simulate_case(Scenario(d=512, classes=2000, mode="batch", n=16,
                                  latent=latent, seed=seed)).delta_w


def _graded_rank6():
    # rank 6 with singular values from 1 down to 1e-9: the last two lie below
    # the rank probe's stop, sqrt(n eps) = 1.5e-7, yet above the null cut
    rng = np.random.default_rng(61)
    u, _ = np.linalg.qr(rng.normal(size=(96, 6)))
    w, _ = np.linalg.qr(rng.normal(size=(400, 6)))
    return (u * np.logspace(0, -9, 6)) @ w.T


@pytest.mark.parametrize("make", [
    pytest.param(lambda: _wide_capture(1201, "tanh"), id="wide-tanh"),
    pytest.param(lambda: _wide_capture(1202, "relu"), id="wide-relu"),
    pytest.param(lambda: _wide_capture(77, "gauss"), id="wide-gauss"),
    pytest.param(_graded_rank6, id="graded-rank6"),
])
def test_svd_matches_lapack_accurate_jacobi_on_the_low_rank_basis(make):
    # updates that take the rank probe's Householder basis, against dgejsv
    # as in the sweep-style test above
    lapack = pytest.importorskip("scipy.linalg.lapack")
    m = make()
    got = svd(m)
    sva, _, _, work, _, info = lapack.dgejsv(m.T, jobu=3, jobv=3)
    assert info == 0
    want = sva * work[0] / work[1]
    assert numeric_rank(want, default_rank_tol(*m.shape)) == got.rank
    assert got.rank == (16 if m.shape == (512, 2000) else 6)
    live = slice(0, got.rank)
    assert np.abs(got.singular[live] - want[live]).max() <= 1e-13 * want[0]


def _unblocked_rank_probe(gram):
    # the greedy pivoted Cholesky a step at a time over the whole Gram: the
    # reference whose pivots the blocked probe must pick
    n = gram.shape[0]
    diag = gram.diagonal().copy()
    stop = n * linalg.EPS * diag.max()
    factor, pivots = np.empty((n, n)), []
    for k in range(n):
        p = int(diag.argmax())
        if diag[p] <= stop:
            return pivots
        factor[k] = (gram[p] - factor[:k, p] @ factor[:k]) / np.sqrt(diag[p])
        diag -= factor[k] * factor[k]
        diag[p] = 0.0
        pivots.append(p)
    return None


@pytest.mark.parametrize("defense", [None, DefenseSpec("sign")], ids=["rank150", "full-rank"])
def test_rank_probe_blocks_pick_the_unblocked_pivots(defense):
    # ranks above linalg.PROBE_BLOCK, so the probe folds blocks: 150 of 200
    # for the capture, and full rank for its sign copy
    dw = simulate_case(Scenario(d=200, classes=300, mode="batch", n=150,
                                latent="tanh", seed=3)).delta_w
    m = dw if defense is None else apply_defense(dw, defense)
    gram = m @ m.T
    got = linalg._rank_probe(gram)
    want = _unblocked_rank_probe(gram)
    assert want is None or len(want) > linalg.PROBE_BLOCK
    assert (got is None) == (want is None)
    if want is not None:
        assert got.tolist() == want


@pytest.mark.parametrize("rank", [6, 40, None])
def test_precondition_is_an_orthogonal_change_of_basis(rank, monkeypatch):
    # every rank below n takes the low-rank basis, rank 40 of 96 included
    rng = np.random.default_rng(31)
    n = 96
    if rank:
        a = rng.normal(size=(400, rank)) @ rng.normal(size=(rank, n))
    else:
        a = rng.normal(size=(400, n))
    # the path shows in the shape of every matrix handed to eigh
    shapes, eigh = [], np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda g: shapes.append(g.shape) or eigh(g))
    work, v, tail = linalg._precondition(a.copy())
    norm = np.linalg.norm(a, 2)
    assert np.abs(v.T @ v - np.eye(v.shape[1])).max() <= n * linalg.EPS
    assert np.abs(work - a @ v).max() <= 4 * linalg.EPS * norm
    if rank:
        # the Householder basis's live columns, turned by their own rank x
        # rank eigenbasis; the other columns are never formed, and their
        # norms, rounding only, are all that is kept of them
        assert shapes == [(rank, rank)]
        assert v.shape == (n, rank) and tail.shape == (n - rank,)
        assert tail.max() <= n * linalg.EPS * norm
    else:
        # the full Gram eigenbasis, largest first, as the sweeps always had
        assert shapes == [(n, n)]
        assert tail.size == 0
        _, pre = np.linalg.eigh(a.T @ a)
        pre = np.ascontiguousarray(pre[:, ::-1])
        assert v.tobytes() == pre.tobytes()
        assert work.tobytes() == (a @ pre).tobytes()


def _dlarft(vt, tau):
    # LAPACK's dlarft recurrence, column by column: the reference for T
    r = tau.size
    t = np.zeros((r, r))
    cross = vt @ vt.T
    for j in range(r):
        t[:j, j] = -tau[j] * (t[:j, :j] @ cross[:j, j])
        t[j, j] = tau[j]
    return t


@pytest.mark.parametrize("pivoted", [
    pytest.param(np.random.default_rng(3).normal(size=(40, 12)), id="random"),
    # the Gram of diag(3, 2, 1, 0, 0) with its pivots in place: every column
    # is already triangular, so every reflector is the identity (tau = 0)
    pytest.param(np.diag([9.0, 4.0, 1.0, 0.0, 0.0])[:, :3], id="all-identity"),
    # pivots 1, 2, 0 of diag(1, 3, 2, 0, 0)'s Gram: tau = 1, 1, 0
    pytest.param(np.diag([1.0, 9.0, 4.0, 0.0, 0.0])[:, [1, 2, 0]], id="last-identity"),
])
def test_wy_tvt_applies_dlarfts_t(pivoted):
    h, tau = np.linalg.qr(pivoted, mode="raw")
    r = tau.size
    vt = np.triu(h, 1)
    vt[np.arange(r), np.arange(r)] = 1.0
    t = _dlarft(vt, tau)
    got = linalg._wy_tvt(vt, tau)
    assert np.abs(got - t @ vt).max() <= 8 * r * linalg.EPS
    # an identity reflector's row of T, zero in dlarft, gives a zero row
    assert not got[tau == 0.0].any()
    q = np.eye(vt.shape[1])
    for j in range(r):
        q -= tau[j] * np.outer(q @ vt[j], vt[j])
    assert np.abs(np.eye(vt.shape[1]) - vt.T @ got - q).max() <= 8 * r * linalg.EPS


@pytest.mark.parametrize("diag", [[3.0, 2.0, 1.0, 0.0, 0.0], [1.0, 3.0, 2.0, 0.0, 0.0]])
@pytest.mark.parametrize("tall", [True, False], ids=["tall", "wide"])
def test_svd_of_a_rank_deficient_diagonal(diag, tall):
    # its rank probe's Householder reflectors include the identity (tau = 0)
    m = np.zeros((5, 7))
    m[np.arange(5), np.arange(5)] = diag
    m = m.T.copy() if tall else m
    res = svd(m)
    assert res.rank == 3
    assert res.singular.tolist() == [3.0, 2.0, 1.0, 0.0, 0.0]
    assert np.abs(res.reconstruct() - m).max() <= 4 * linalg.EPS


def _hidden_direction(rows, cols, r, spread):
    # rank r + 1 with sigma = 1, ..., 1, 1e-9: the last direction lies below
    # the rank probe's stop, sqrt(n eps), and far above the null cut, so the
    # probe stops at r and the direction is left in the tail columns.  When
    # spread, its left vector is random and every tail column holds a share
    # of it; otherwise it is a coordinate axis, which one tail column holds
    rng = np.random.default_rng(rows)
    if spread:
        u, _ = np.linalg.qr(rng.normal(size=(rows, r + 1)))
    else:
        u = np.zeros((rows, r + 1))
        u[:-1, :r], _ = np.linalg.qr(rng.normal(size=(rows - 1, r)))
        u[-1, r] = 1.0
    w, _ = np.linalg.qr(rng.normal(size=(cols, r + 1)))
    return (u * np.r_[np.ones(r), 1e-9]) @ w.T


@pytest.mark.parametrize("rows, cols, r, spread", [(64, 100, 5, True), (512, 2000, 16, False)],
                         ids=["64x100-spread", "512x2000-axis"])
def test_svd_keeps_a_live_direction_left_in_the_tail(rows, cols, r, spread):
    # tail columns above the null cut are formed and join the live block:
    # left as norms only, the hidden direction would read as null.  At
    # 512 x 2000 the direction is an axis: spread, ~495 columns would join,
    # and the sweeps take seconds to gather it
    lapack = pytest.importorskip("scipy.linalg.lapack")
    m = _hidden_direction(rows, cols, r, spread)
    assert linalg._rank_probe(m @ m.T).size == r
    got = svd(m)
    sva, _, _, work, _, info = lapack.dgejsv(m.T, jobu=3, jobv=3)
    assert info == 0
    want = sva * work[0] / work[1]
    assert got.rank == numeric_rank(want, default_rank_tol(rows, cols)) == r + 1
    assert np.abs(got.singular[:r + 1] - want[:r + 1]).max() <= 1e-13 * want[0]
    assert abs(got.singular[r] - want[r]) <= 1e-6 * want[r]


def test_svd_of_a_wide_low_rank_update_allocates_under_half_its_input():
    # no rows x n product and no n x n basis: the n x n Gram, the tail's
    # reused 64 x rows block and the rank-wide factors are all it holds
    rng = np.random.default_rng(16)
    m = rng.normal(size=(512, 16)) @ rng.normal(size=(16, 2000))
    tracemalloc.start()
    try:
        res = svd(m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.rank == 16
    assert peak < m.nbytes / 2


@pytest.mark.parametrize("tall", [True, False], ids=["tall", "wide"])
@pytest.mark.parametrize("route", ["low-rank", "eigenbasis", "identity", "rescaled"])
def test_svd_neither_writes_nor_shares_its_input(route, tall, monkeypatch):
    # the preconditioner reads the caller's array in place; every route must
    # hand the sweeps an array of their own, or they would rotate the input
    rng = np.random.default_rng(41)
    n = 24
    if route == "low-rank":
        a = rng.normal(size=(90, 5)) @ rng.normal(size=(5, n))
    else:
        a = rng.normal(size=(90, n))
    if route == "rescaled":
        a *= 2.0 ** 540  # the Gram overflows, so svd reruns on a scaled copy
    if not tall:
        a = np.ascontiguousarray(a.T)
    # the route shows in the shape of every matrix handed to eigh; the
    # identity fallback is what the preconditioner takes when eigh raises
    shapes, eigh = [], np.linalg.eigh

    def spy(g):
        shapes.append(g.shape)
        if route == "identity":
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return eigh(g)

    monkeypatch.setattr(np.linalg, "eigh", spy)
    before = a.tobytes()
    res = svd(a)
    assert a.tobytes() == before
    assert not any(np.shares_memory(x, a) for x in (res.left, res.singular, res.right))
    assert shapes == [(5, 5) if route == "low-rank" else (n, n)]
    assert res.rank == (5 if route == "low-rank" else n)
    assert np.abs(res.reconstruct() - a).max() <= 1e-12 * np.abs(a).max()


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


def _tail_columns(x):
    """The tail columns x @ Q[:, r:] of the rank probe's Householder basis,
    formed whole in the layout `_precondition` forms their blocks in: rows
    of their transpose when x is a transposed view.  None on a full rank."""
    gram = x.T @ x
    pivots = linalg._rank_probe(gram)
    if pivots is None:
        return None
    r = pivots.size
    h, tau = np.linalg.qr(gram[:, pivots], mode="raw")
    vt = np.triu(h, 1)
    vt[np.arange(r), np.arange(r)] = 1.0
    tvt = linalg._wy_tvt(vt, tau)
    wv = x @ vt.T
    if x.flags.c_contiguous:
        return x[:, r:] - wv @ tvt[:, r:]
    return (x.T[r:] - tvt[:, r:].T @ wv.T).T


def _full_gram_svd(m):
    """`svd` as it was with the full n x n Gram per sweep over every column,
    dead rows and columns zeroed: the reference that the live-column sweeps
    must match bit for bit.  It starts from `svd`'s preconditioned live
    block, plus the tail columns formed whole, and pairs the live columns
    by the same tournament over their positions.  The tail columns, never
    rotated, keep the norms they were formed with.  Returns the result and
    the number of sweeps that rotated."""
    a = as_matrix(m)
    rows, cols = a.shape
    transposed = rows < cols
    x = a.T if transposed else a
    block, v, kept = linalg._precondition(x)
    k = block.shape[1]
    tail = _tail_columns(x)
    if tail is None:
        tail = np.empty((x.shape[0], 0))
    tail_norms = np.sqrt(np.einsum("ij,ij->j", tail, tail))
    # the tail columns left out of the block: every one that joined it is
    # above them all
    out = tail_norms <= kept.max(initial=-1.0)
    assert out.sum() == kept.size == x.shape[1] - k
    work = np.hstack((block, tail[:, out]))
    null_cut = default_rank_tol(rows, cols)
    for sweep in range(linalg.JACOBI_SWEEP_CAP):
        gram = work.T @ work
        norms = np.sqrt(np.diag(gram))
        scale = np.outer(norms, norms)
        rel = np.divide(np.abs(gram), scale, out=np.zeros_like(gram), where=scale > 0.0)
        np.fill_diagonal(rel, 0.0)
        dead = norms <= null_cut * norms.max()
        rel[dead, :] = 0.0
        rel[:, dead] = 0.0
        hotmat = rel > 0.5 * linalg.JACOBI_ROTATION_TOL
        if not hotmat.any():
            break
        live = np.flatnonzero(~dead)
        for p_idx, q_idx in _round_robin(live.size):
            p_col, q_col = live[p_idx], live[q_idx]
            sel = hotmat[p_col, q_col]
            if not sel.any():
                continue
            pj, qj = p_col[sel], q_col[sel]
            assert qj.max() < k, "a tail column left out of the block turned live"
            up, uq = work[:, pj], work[:, qj]
            alpha = np.einsum("ij,ij->j", up, up)
            beta = np.einsum("ij,ij->j", uq, uq)
            gamma = np.einsum("ij,ij->j", up, uq)
            turn = gamma != 0.0
            if not turn.any():
                continue
            if not turn.all():
                pj, qj, up, uq = pj[turn], qj[turn], up[:, turn], uq[:, turn]
                alpha, beta, gamma = alpha[turn], beta[turn], gamma[turn]
            zeta = (beta - alpha) / (2.0 * gamma)
            t = np.where(zeta >= 0.0, 1.0, -1.0) / (np.abs(zeta) + np.sqrt(1.0 + zeta * zeta))
            c = 1.0 / np.sqrt(1.0 + t * t)
            s = c * t
            work[:, pj], work[:, qj] = c * up - s * uq, s * up + c * uq
            vp, vq = v[:, pj], v[:, qj]
            v[:, pj], v[:, qj] = c * vp - s * vq, s * vp + c * vq
    else:
        raise SvdConvergenceError(linalg.JACOBI_SWEEP_CAP)
    sig = np.concatenate((np.sqrt(np.einsum("ij,ij->j", work[:, :k], work[:, :k])),
                          tail_norms[out]))
    order = np.argsort(-sig, kind="stable")
    sig = sig[order]
    r = numeric_rank(sig, null_cut)
    u, v = work[:, order[:r]] / sig[:r], v[:, order[:r]]
    if transposed:
        u, v = v, u
    left, right = u.copy(), v.T.copy()
    first = (right != 0.0).argmax(axis=1)
    flip = right[np.arange(right.shape[0]), first] < 0.0
    right[flip] *= -1.0
    left[:, flip] *= -1.0
    return linalg.SvdResult(left=left, singular=sig, right=right, rank=r), sweep


def _bit_identity_inputs():
    rng = np.random.default_rng(5)
    yield pytest.param(rng.normal(size=(96, 6)) @ rng.normal(size=(6, 400)), False, id="rank6")
    # 64x100 drop90 copies whose live columns still rotate on the low-rank
    # basis while its tail columns are dead: the hot pairs must map back to
    # the same rounds.  Most rank-deficient copies rotate nothing
    for mode, n, k, latent, seed in (("batch", 10, 1, "relu", 8100),
                                     ("multistep", 2, 2, "gauss", 8106)):
        drop90 = apply_defense(_capture(seed, mode, n, k, latent).delta_w,
                               DefenseSpec("drop", 0.9))
        yield pytest.param(drop90, True, id=f"{mode}-drop90")
        if mode == "batch":
            # a tall matrix with exact-zero and duplicated columns that still rotates
            tall = drop90.T.copy()
            tall[:, [3, 17]] = 0.0
            tall[:, [5, 9, 20]] = tall[:, [4, 4, 11]]
            yield pytest.param(tall, True, id="zero-dup")
    # a full-rank sign copy, whose sweeps rotate on the Gram eigenbasis
    sign = apply_defense(_capture(8124, "batch", 10, 1, "tanh").delta_w, DefenseSpec("sign"))
    yield pytest.param(sign, True, id="batch-sign")


@pytest.mark.parametrize("m, rotates", list(_bit_identity_inputs()))
def test_live_column_sweeps_match_the_full_gram_sweeps_bit_for_bit(m, rotates):
    got = svd(m)
    want, rotated = _full_gram_svd(m)
    if rotates:
        assert rotated > 0
    assert got.rank == want.rank
    for name in ("left", "singular", "right"):
        g, w = getattr(got, name), getattr(want, name)
        assert g.shape == w.shape and g.tobytes() == w.tobytes(), name
