import itertools

import numpy as np
import pytest

from gradleak import linalg, rlg
from gradleak.defense import DefenseSpec, apply_defense
from gradleak.metrics import set_score
from gradleak.rlg import (DEFAULT_MAX_PIVOTS, LP_MARGIN, DegenerateUpdateError,
                          LpPivotLimitError, LpSingularBasisError, RankAssumptionError,
                          RlgConfig, _certify,
                          _cone_distances, _solve_labels, extract_q, lp_feasible,
                          lp_separator, rlg_attack, screen)
from gradleak.simulator import Scenario, simulate_case

LATENTS = ("tanh", "relu", "gauss")


@pytest.fixture(scope="module")
def captures():
    """64x100 batch captures of every latent and their drop90/sign copies,
    each with its Q at the true S: (tag, delta_w, cfg, q)."""
    out = []
    for i, latent in enumerate(LATENTS):
        case = simulate_case(Scenario(d=64, classes=100, mode="batch", n=10,
                                      latent=latent, seed=8100 + i))
        cfg = RlgConfig(assume_s=case.true_s)
        for tag, dw in (("clean", case.delta_w),
                        ("drop90", apply_defense(case.delta_w, DefenseSpec("drop", 0.9))),
                        ("sign", apply_defense(case.delta_w, DefenseSpec("sign")))):
            out.append((f"{latent}-{tag}", dw, cfg, extract_q(dw, cfg)[1]))
    return out


def test_config_validation():
    for bad in (-1e-3, 0.0, 1.0, 2.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="rank_tol_rel"):
            RlgConfig(rank_tol_rel=bad)
    for bad in (0, -2):
        with pytest.raises(ValueError, match="assume_s"):
            RlgConfig(assume_s=bad)
    assert RlgConfig(assume_s=1).assume_s == 1


def test_extract_q_single_sample():
    case = simulate_case(Scenario(d=8, classes=5, mode="single", seed=2))
    s, q, _ = extract_q(case.delta_w)
    assert s == 1
    assert q.shape == (1, 5)


def test_extract_q_zero_matrix_degenerate():
    with pytest.raises(DegenerateUpdateError):
        extract_q(np.zeros((4, 6)))


def test_extract_q_batch_rank_and_orthonormal_rows():
    case = simulate_case(Scenario(d=64, classes=100, mode="batch", n=5,
                                  latent="tanh", seed=3))
    s, q, _ = extract_q(case.delta_w)
    assert s == 5
    assert np.abs(q @ q.T - np.eye(5)).max() <= 1e-10


def test_extract_q_assumption_violated():
    # d=4 classes=6 with a 4-sample batch saturates min(d, C)
    case = simulate_case(Scenario(d=4, classes=6, mode="batch", n=4, seed=5))
    with pytest.raises(RankAssumptionError):
        extract_q(case.delta_w)


def test_extract_q_assume_s_bounds():
    case = simulate_case(Scenario(d=8, classes=5, mode="single", seed=2))
    with pytest.raises(ValueError):
        extract_q(case.delta_w, RlgConfig(assume_s=5))
    with pytest.raises(ValueError):
        extract_q(case.delta_w, RlgConfig(assume_s=0))
    s, q, rank = extract_q(case.delta_w, RlgConfig(assume_s=3))
    assert s == 3 and rank == 1 and q.shape == (1, 5)


def test_extract_q_assume_s_above_rank_stops_at_the_rank():
    # an assumed S above the numeric rank is kept as S, but Q stops at the
    # rows the SVD computed: it is the inferred-S Q
    case = simulate_case(Scenario(d=16, classes=20, mode="batch", n=3,
                                  latent="gauss", seed=4))
    s, q, rank = extract_q(case.delta_w, RlgConfig(assume_s=7))
    assert s == 7 and rank == 3 and q.shape == (3, 20)
    s_live, q_live, _ = extract_q(case.delta_w)
    assert s_live == 3
    assert np.array_equal(q, q_live)
    # a rank tolerance below the SVD's own counts noise directions as rank,
    # and Q still stops at the SVD's rank
    s, q, rank = extract_q(case.delta_w, RlgConfig(rank_tol_rel=1e-300, assume_s=7))
    assert s == 7 and rank > 3
    assert np.array_equal(q, q_live)
    # relu sign copies run with the true S = 10 sit above the numeric rank
    for seed in (8201, 8204):
        case = simulate_case(Scenario(d=64, classes=100, mode="batch", n=10,
                                      latent="relu", seed=seed))
        dw = apply_defense(case.delta_w, DefenseSpec("sign"))
        s, q, rank = extract_q(dw, RlgConfig(assume_s=case.true_s))
        res = linalg.svd(dw)
        assert rank == res.rank < s == 10, seed
        assert np.array_equal(q, res.right[:rank]), seed


def test_lp_feasible_analytic_examples():
    # columns q0=(-1,0), q1=(1,0), q2=(0,1): label 0 separable via r=(1,0)
    q = np.array([[-1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    assert lp_feasible(q, 0)
    # columns q0=(1,0), q1=(0,1), q2=(1,1): label 2 in the cone of the others
    q = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]])
    assert not lp_feasible(q, 2)


def test_lp_feasible_label_out_of_range():
    q = np.eye(2)
    with pytest.raises(ValueError):
        lp_feasible(q, 2)


def grid_separable(q, c, margin, angles=10_000):
    # brute-force angular search over unit directions, valid for S=2
    thetas = np.linspace(0.0, 2.0 * np.pi, angles, endpoint=False)
    dirs = np.stack([np.cos(thetas), np.sin(thetas)], axis=1)
    scores = dirs @ q
    others = np.ones(q.shape[1], dtype=bool)
    others[c] = False
    hit = (scores[:, c] <= -margin) & (scores[:, others] >= 0.0).all(axis=1)
    return bool(hit.any())


def test_lp_agrees_with_angular_grid_oracle():
    cfg = RlgConfig()
    for seed in range(50):
        case = simulate_case(Scenario(d=10, classes=12, mode="batch", n=2,
                                      latent="gauss", seed=5000 + seed))
        s, q, _ = extract_q(case.delta_w, cfg)
        assert s == 2
        for c in range(12):
            assert lp_feasible(q, c) == grid_separable(q, c, LP_MARGIN)


def test_lp_separator_witness_satisfies_constraints():
    cfg = RlgConfig()
    for seed in range(20):
        case = simulate_case(Scenario(d=16, classes=20, mode="batch", n=3,
                                      latent="gauss", seed=6000 + seed))
        _, q, _ = extract_q(case.delta_w, cfg)
        for c in range(20):
            r = lp_separator(q, c)
            if r is None:
                continue
            assert np.abs(r).max() <= 1.0 + 1e-9
            assert r @ q[:, c] <= -LP_MARGIN + 1e-9
            others = np.delete(np.arange(20), c)
            assert (r @ q[:, others] >= -1e-9).all()


def test_lp_pivot_cap_propagates_or_reports_infeasible(monkeypatch):
    monkeypatch.setattr(rlg, "DEFAULT_MAX_PIVOTS", 0)
    q = np.array([[-1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    with pytest.raises(LpPivotLimitError) as err:
        lp_feasible(q, 0)
    assert err.value.label == 0
    case = simulate_case(Scenario(d=16, classes=12, mode="batch", n=3, seed=10))
    _, q, _ = extract_q(case.delta_w)
    with pytest.raises(LpPivotLimitError) as err:
        rlg_attack(case.delta_w)
    assert err.value.pivots == 1
    # every LP needs a pivot; a certified label runs none, so the lowest
    # label no certificate rejects is named
    first = int(np.flatnonzero(_certify_largest(q)[1] < 0)[0])
    assert err.value.label == first and f"label {first} " in str(err.value)
    with pytest.raises(LpPivotLimitError) as err:
        lp_feasible(q, 9)
    assert err.value.label == 9
    # the first failing label in solve order, by label and not by position
    with pytest.raises(LpPivotLimitError) as err:
        _solve_labels(q, np.array([7, 3]))
    assert err.value.label == 7


def test_singular_basis_names_its_cause(monkeypatch):
    # label 0 of this capture needs 15 pivots, so it reaches the
    # refactorisation at pivot 4
    case = simulate_case(Scenario(d=64, classes=100, mode="batch", n=10,
                                  latent="tanh", seed=7000))
    _, q, _ = extract_q(case.delta_w)

    def singular(_):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(np.linalg, "inv", singular)
    monkeypatch.setattr(rlg, "_REFACTOR_EVERY", 4)
    # the certificates invert their bases the same way, so every one is
    # found singular and skipped: no label is certified, and the lowest
    # label is the lowest to reach an LP
    first = int(np.flatnonzero(_certify_largest(q)[1] < 0)[0])
    with pytest.raises(LpSingularBasisError) as err:
        lp_feasible(q, 0)
    assert err.value.pivots == 4
    assert err.value.label == 0
    assert not isinstance(err.value, LpPivotLimitError)
    with pytest.raises(LpSingularBasisError) as err:
        lp_feasible(q, 24)
    assert err.value.label == 24
    with pytest.raises(LpSingularBasisError) as err:
        _solve_labels(q, np.array([50, 24]))
    assert err.value.label == 50
    # the whole attack solves the labels no certificate rejects together and
    # fails the same way, naming the lowest failing label
    with pytest.raises(LpSingularBasisError) as err:
        rlg_attack(case.delta_w)
    assert err.value.pivots == 4
    assert err.value.label == first and f"label {first} " in str(err.value)


def test_lps_that_end_in_the_same_round_keep_their_own_codes(captures, monkeypatch):
    # with _REFACTOR_EVERY = DEFAULT_MAX_PIVOTS = 8, round 8 of the tanh
    # capture ends every LP at once: label 31 (a true label, 8 pivots) is
    # decided, label 0 meets a singular basis at the refactorisation, and
    # labels 1 and 2 are still running at the cap
    tag, _, _, q = captures[0]
    assert tag == "tanh-clean"
    labels = np.array([31, 0, 1, 2])
    monkeypatch.setattr(rlg, "_REFACTOR_EVERY", 8)
    ref, ref_y, ref_pivots, ref_failed = _cone_distances(q, q[:, labels].T, labels)
    assert ref_pivots[0] == 8 and (ref_pivots[1:] > 8).all() and not ref_failed.any()
    invert = rlg._invert
    monkeypatch.setattr(rlg, "DEFAULT_MAX_PIVOTS", 8)
    singular, capped = rlg._SINGULAR, rlg._CAP_HIT
    # flagging label 31 instead shows a singular basis coming before a
    # decision in the same round
    endings = ((1, [0, singular, capped, capped], [8, 8, 9, 9]),
               (0, [singular, capped, capped, capped], [8, 9, 9, 9]))
    for flagged, want_failed, want_pivots in endings:
        def flag(bmat):
            binv, _ = invert(bmat)
            assert len(bmat) == 4  # every LP is live at the refactorisation
            return binv, np.arange(4) == flagged

        monkeypatch.setattr(rlg, "_invert", flag)
        dist, y, pivots, failed = _cone_distances(q, q[:, labels].T, labels)
        assert failed.tolist() == want_failed, flagged
        assert pivots.tolist() == want_pivots, flagged
        decided = failed == 0
        assert (dist[decided] == ref[decided]).all() and (ref[decided] >= LP_MARGIN).all()
        assert np.array_equal(y[decided], ref_y[decided])
        assert not dist[~decided].any() and not y[~decided].any(), flagged


def _highs_distance(q, c):
    optimize = pytest.importorskip("scipy.optimize")
    s, n = q.shape
    cost = np.r_[np.zeros(n - 1), np.ones(2 * s)]
    slack = np.hstack([np.eye(s), -np.eye(s)])
    res = optimize.linprog(cost, A_eq=np.hstack([np.delete(q, c, axis=1), slack]),
                           b_eq=q[:, c], bounds=(0, None), method="highs")
    assert res.status == 0, c
    return res.fun


def _sweep_capture(seed, index, mode, latent, defense):
    # capture `index` of the perfbench sweep set-up on `seed`, defended
    n = {"single": 1, "sequence": 12}[mode]
    case = simulate_case(Scenario(d=64, classes=100, mode=mode, n=n, latent=latent,
                                  seed=seed * 1_000_003 + index))
    return case, apply_defense(case.delta_w, defense)


# drop90 copies of single-sample captures whose true label's LP, with the
# rank-inferred S, ran to the pivot cap under Bland's rule on floating-point
# ties: (seed, index, latent, true label, S)
_CAPPED_DROP90 = ((102, 12, "tanh", 84, 22), (102, 16, "relu", 11, 20),
                  (201, 20, "gauss", 51, 19))


def _capped_capture(seed, index, latent, label, want_s):
    case, dw = _sweep_capture(seed, index, "single", latent, DefenseSpec("drop", 0.9))
    assert case.true_labels == (label,)
    s, q, _ = extract_q(dw)
    assert s == want_s
    return dw, q


def test_pivot_cap_never_drops_the_true_label():
    # each capture is decided and keeps its true label at the HiGHS distance
    for seed, index, latent, label, want_s in _CAPPED_DROP90:
        dw, q = _capped_capture(seed, index, latent, label, want_s)
        assert label in rlg_attack(dw).labels, (seed, latent)
        r = lp_separator(q, label)
        assert abs(-(r @ q[:, label]) - _highs_distance(q, label)) <= 1e-6, (seed, latent)


def test_cycling_true_label_lp_is_decided_feasible():
    _, q = _capped_capture(*_CAPPED_DROP90[0])
    assert lp_feasible(q, 84) is True


def test_sign_copy_sequence_attacks_match_highs():
    # sign copies of two sequence captures, attacked at the true S = 12,
    # whose label LPs used to meet a singular basis; the label set is the
    # one HiGHS gives, and it holds every true label
    for seed, index in ((102, 30), (201, 6)):
        case, dw = _sweep_capture(seed, index, "sequence", "relu", DefenseSpec("sign"))
        cfg = RlgConfig(assume_s=case.true_s)
        assert case.true_s == 12
        _, q, _ = extract_q(dw, cfg)
        ref = np.array([_highs_distance(q, c) for c in range(q.shape[1])])
        assert not ((LP_MARGIN / 10 <= ref) & (ref <= 10 * LP_MARGIN)).any()
        want = set(np.flatnonzero(ref >= LP_MARGIN).tolist())
        assert rlg_attack(dw, cfg).labels == want, seed
        assert case.label_set <= want


def test_stall_fallback_gives_the_same_decisions(captures, monkeypatch):
    # with _STALL = 1 every target whose objective does not fall takes
    # Bland's rule until it falls; the decisions do not move.  On the
    # captures every pivot lowers the objective, so each Q also comes
    # rounded to multiples of 1/4, whose ties make degenerate pivots
    qs = [(f"{tag}{grid}", np.round(q * 4) / 4 if grid else q)
          for tag, _, _, q in captures for grid in ("", "-grid")]
    default = [_cone_distances(q, q.T, np.arange(q.shape[1])) for _, q in qs]
    monkeypatch.setattr(rlg, "_STALL", 1)
    moved = False
    for (tag, q), (dist, _, pivots, failed) in zip(qs, default):
        got, _, got_pivots, got_failed = _cone_distances(q, q.T, np.arange(q.shape[1]))
        assert not failed.any() and not got_failed.any(), tag
        assert np.array_equal(got >= LP_MARGIN, dist >= LP_MARGIN), tag
        moved |= not np.array_equal(got_pivots, pivots)
    assert moved, "the fallback never changed a pivot path"


def test_generator_scale_leaves_decisions_unchanged(captures):
    # a generator scaled by a positive factor spans the same cone
    rng = np.random.default_rng(3)
    for tag, _, _, q in captures:
        n = q.shape[1]
        dist, _, _, failed = _cone_distances(q, q.T, np.arange(n))
        scaled = q * rng.uniform(1e-3, 1e3, size=n)
        got, _, _, got_failed = _cone_distances(scaled, q.T, np.arange(n))
        assert not failed.any() and not got_failed.any(), tag
        assert np.array_equal(got >= LP_MARGIN, dist >= LP_MARGIN), tag
        assert np.allclose(got, dist, rtol=1e-9, atol=1e-12), tag


def _sweep_mode_captures():
    # a capture of each mode of the perfbench sweep, each mode drawn with
    # another latent, and its copies as the sweep attacks them: (tag, q)
    kinds = (("single", 1, 1), ("batch", 10, 1), ("sequence", 12, 1), ("multistep", 2, 2))
    for i, (mode, n, k) in enumerate(kinds):
        case = simulate_case(Scenario(d=64, classes=100, mode=mode, n=n, k=k,
                                      lrs=(0.1,) * k if mode == "multistep" else None,
                                      latent=LATENTS[i % 3], seed=8300 + i))
        true_s = RlgConfig(assume_s=case.true_s)
        yield f"{mode}-clean", extract_q(case.delta_w)[1]
        for tag, spec in (("drop90", DefenseSpec("drop", 0.9)), ("sign", DefenseSpec("sign"))):
            yield f"{mode}-{tag}", extract_q(apply_defense(case.delta_w, spec), true_s)[1]


def test_certificate_rejections_hold_against_highs(captures):
    # every label a certificate rejects is within the margin of the cone of
    # its rejecting basis alone by an independent solver, so of the cone of
    # all the other columns, and that basis never holds the label's own column
    qs = [(tag, q) for tag, _, _, q in captures]
    qs += list(_sweep_mode_captures())
    case, cfg = _wide_capture(8)
    for tag, dw in (("clean", case.delta_w),
                    ("drop90", apply_defense(case.delta_w, DefenseSpec("drop", 0.9))),
                    ("sign", apply_defense(case.delta_w, DefenseSpec("sign")))):
        qs.append((f"wide-{tag}", extract_q(dw, cfg)[1]))
    rejected = 0
    for tag, q in qs:
        w, by = _certify_largest(q)
        assert w.size == q.shape[0] + 1, tag
        for c in np.flatnonzero(by >= 0):
            basis = np.delete(w, by[c])
            assert c not in basis, (tag, c)
            assert _highs_distance(q[:, np.r_[basis, c]], basis.size) < LP_MARGIN, (tag, c)
        rejected += int((by >= 0).sum())
    assert rejected > 1000


def test_repeated_labels_and_sign_copies_fall_through_to_the_lps():
    # ten samples of four labels need more than one positive column to span
    # the non-labels, and a sign copy loses the sign pattern, so the
    # certificates decide few labels and the screen (C = 600) and the full
    # LPs decide the rest.  S is the rank, so a row map keeps Q's row space
    rng = np.random.default_rng(17)
    for d, classes, latent, tags in ((64, 100, "tanh", ("clean", "sign")),
                                     (32, 600, "gauss", ("clean",))):
        case = simulate_case(Scenario(d=d, classes=classes, mode="batch", n=10, latent=latent,
                                      labels=(3, 3, 3, 17, 17, 42, 42, 42, 42, 5), seed=9100))
        assert case.true_s == 10 and len(case.label_set) == 4
        for tag in tags:
            dw = case.delta_w if tag == "clean" else apply_defense(case.delta_w, DefenseSpec(tag))
            _, q, _ = extract_q(dw)
            assert (_certify_largest(q)[1] < 0).sum() > classes * 3 // 4, (classes, tag)
            want = _brute_force_labels(q)
            assert case.label_set <= want
            assert rlg_attack(dw).labels == want, (classes, tag)
            perm = rng.permutation(classes)
            assert {int(perm[j]) for j in rlg_attack(dw[:, perm]).labels} == want, (classes, tag)
            assert rlg_attack(rng.normal(size=(d, d)) @ dw).labels == want, (classes, tag)


def test_certificate_degenerate_bases_reject_nothing_wrongly(captures):
    rng = np.random.default_rng(7)
    # C <= s + 1: every column is in every basis but one
    w, by = _certify_largest(rng.normal(size=(3, 4)))
    assert sorted(w.tolist()) == [0, 1, 2, 3] and (by == -1).all()
    # two nonzero columns for s = 3: every basis holds a zero column and is
    # singular, so nothing is rejected, not even the zero columns
    q = np.zeros((3, 9))
    q[:, :2] = rng.normal(size=(3, 2))
    assert (_certify_largest(q)[1] == -1).all()
    # columns 0 and 1 span (0, 0.5) only with multipliers 5e11, which the
    # LP's pivot tolerance cannot see, so it keeps label 3; the rounding
    # allowance keeps the certificate from rejecting it on a residual of 0
    q = np.array([[1.0, -1.0, 0.0, 0.0], [0.0, 1e-12, -1.0, 0.5]])
    assert (_certify_largest(q)[1] == -1).all() and 3 in _brute_force_labels(q)
    # the largest column duplicated, and zero columns outside w: every basis
    # with both copies is singular to rounding, and a zero column is rejected
    _, _, _, q = captures[0]
    top = _norm_order(q)
    dup = q.copy()
    dup[:, top[-1]] = q[:, top[0]]
    for q in (dup, np.hstack([q, np.zeros((q.shape[0], 5))])):
        w, by = _certify_largest(q)
        rejected = set(np.flatnonzero(by >= 0).tolist())
        assert rejected and not rejected & _brute_force_labels(q)
        for c in rejected:
            assert _highs_distance(q, c) < LP_MARGIN, c
    assert {100, 101, 102, 103, 104} <= rejected


def test_certificates_leave_few_non_labels_to_the_screen(monkeypatch):
    # on clean batch captures the certificates decide all but a handful of
    # non-labels, so the screen's 500-anchor LPs run over almost nothing
    left = []
    certify = rlg._certify

    def recording(q, w):
        by = certify(q, w)
        left.append(np.flatnonzero(by < 0))
        return by

    monkeypatch.setattr(rlg, "_certify", recording)
    for latent in LATENTS:
        case = simulate_case(Scenario(d=128, classes=1000, mode="batch", n=16,
                                      latent=latent, seed=8400))
        assert rlg_attack(case.delta_w, RlgConfig(assume_s=case.true_s)).labels == case.label_set
        undecided = set(left.pop().tolist())
        assert not left, latent
        assert case.label_set <= undecided, latent
        assert len(undecided - case.label_set) <= 3, latent


def test_screen_small_class_count_passes_everything(monkeypatch):
    # at C <= 500 the screen runs no anchor LP: it returns the labels the
    # certificates leave, and every label when they reject none
    case = simulate_case(Scenario(d=32, classes=40, mode="batch", n=4, seed=7))
    _, q, _ = extract_q(case.delta_w, RlgConfig(assume_s=4))
    monkeypatch.setattr(rlg, "_cone_distances", None)
    assert np.array_equal(screen(q), np.flatnonzero(_certify_largest(q)[1] < 0))
    monkeypatch.setattr(rlg, "_certify", lambda q, w: np.full(q.shape[1], -1))
    assert np.array_equal(screen(q), np.arange(40))


def _wide_capture(seed, n=4, latent="tanh"):
    # 600 classes exceed the screen's 500 anchors, so the screen filters
    case = simulate_case(Scenario(d=32, classes=600, mode="batch", n=n,
                                  latent=latent, seed=seed))
    return case, RlgConfig(assume_s=case.true_s)


def _norm_order(q):
    # q's column ids by norm, largest first, ties by lower id: the screen's order
    return np.argsort(-np.sqrt((q * q).sum(axis=0)), kind="stable")


def _certify_largest(q):
    # the certificates as the screen runs them, W the s + 1 largest-norm columns
    w = _norm_order(q)[:q.shape[0] + 1]
    return w, _certify(q, w)


def _brute_force_labels(q):
    feasible, _ = _solve_labels(q, np.arange(q.shape[1]))
    return set(np.flatnonzero(feasible).tolist())


def test_screen_soundness_on_oversized_vocab():
    # everything filtered out must be LP-infeasible
    case, cfg = _wide_capture(8)
    _, q, _ = extract_q(case.delta_w, cfg)
    survivors = set(screen(q).tolist())
    rejected = set(range(600)) - survivors
    assert rejected, "filter should reject something at this size"
    assert case.label_set <= survivors
    for c in sorted(rejected):
        assert lp_feasible(q, c) is False


def test_screen_equivalence_moderate_size():
    # on clean, drop90 and sign copies the screened attack keeps exactly the
    # labels a solve over every column keeps
    for seed in (11, 12):
        case, cfg = _wide_capture(seed)
        for dw in (case.delta_w, apply_defense(case.delta_w, DefenseSpec("drop", 0.9)),
                   apply_defense(case.delta_w, DefenseSpec("sign"))):
            _, q, _ = extract_q(dw, cfg)
            assert rlg_attack(dw, cfg).labels == _brute_force_labels(q)
            assert len(screen(q)) < 60


def test_screen_solves_each_label_against_the_other_anchors(captures, monkeypatch):
    # the screen's decision for label c is the serial solver's over the
    # anchors other than c (anchors or not, the zero column never enters); a
    # label a certificate rejects is below the margin there too, since W is
    # among the anchors
    monkeypatch.setattr(rlg, "_SCREEN_ANCHORS", 60)
    for tag, _, _, q in captures:
        anchors = _norm_order(q)[:60]
        kept = screen(q)
        assert len(kept) < q.shape[1], tag
        for c in range(q.shape[1]):
            d, _, _ = _serial_cone_distance(q[:, anchors[anchors != c]], q[:, c].copy(),
                                            DEFAULT_MAX_PIVOTS, 0.5e-6, c)
            assert (c in kept) == (d >= LP_MARGIN), (tag, c)


def test_screen_is_what_the_label_lps_receive(monkeypatch):
    # the attack hands the screen's sorted array to the label LPs unchanged,
    # and at C <= 500 that array is exactly what the certificates leave
    passed = []
    solve = rlg._solve_labels
    monkeypatch.setattr(rlg, "_solve_labels",
                        lambda q, labels: passed.append(labels) or solve(q, labels))
    for classes in (100, 600, 2000):
        case = simulate_case(Scenario(d=64, classes=classes, mode="batch", n=10,
                                      latent="tanh", seed=9300))
        cfg = RlgConfig(assume_s=case.true_s)
        for tag, dw in (("clean", case.delta_w),
                        ("drop90", apply_defense(case.delta_w, DefenseSpec("drop", 0.9))),
                        ("sign", apply_defense(case.delta_w, DefenseSpec("sign")))):
            _, q, _ = extract_q(dw, cfg)
            rlg_attack(dw, cfg)
            kept = screen(q)
            assert np.array_equal(passed.pop(), kept) and not passed, (classes, tag)
            assert kept.dtype == np.intp and (np.diff(kept) > 0).all(), (classes, tag)
            if classes <= rlg._SCREEN_ANCHORS:
                assert np.array_equal(kept, np.flatnonzero(_certify_largest(q)[1] < 0)), tag


def test_screen_keeps_labels_whose_lp_fails(monkeypatch):
    case, cfg = _wide_capture(8)
    _, q, _ = extract_q(case.delta_w, cfg)
    rejected = set(range(600)) - set(screen(q).tolist())

    def singular(_):
        raise np.linalg.LinAlgError("Singular matrix")

    # every LP still live at pivot 4 meets a singular basis: the screen keeps
    # those labels without raising, and the full LP names the failure
    monkeypatch.setattr(np.linalg, "inv", singular)
    monkeypatch.setattr(rlg, "_REFACTOR_EVERY", 4)
    assert rejected & set(screen(q).tolist())
    with pytest.raises(LpSingularBasisError) as err:
        rlg_attack(case.delta_w, cfg)
    assert err.value.pivots == 4


def test_single_sample_attack_recovers_label():
    case = simulate_case(Scenario(d=8, classes=5, mode="single", seed=9))
    pred = rlg_attack(case.delta_w)
    assert pred.inferred_s == 1
    assert pred.labels == case.label_set


def test_attack_statuses_partition_labels():
    # a label is kept exactly when its LP is feasible; the rest are not
    case = simulate_case(Scenario(d=16, classes=12, mode="batch", n=3, seed=10))
    pred = rlg_attack(case.delta_w)
    _, q, _ = extract_q(case.delta_w)
    assert pred.labels == {c for c in range(12) if lp_feasible(q, c)}
    assert pred.rank_estimate == 3


def test_recall_one_on_quick_sweep():
    for seed in range(10):
        case = simulate_case(Scenario(d=64, classes=100, mode="batch", n=10,
                                      latent="tanh", seed=7000 + seed))
        pred = rlg_attack(case.delta_w, RlgConfig(assume_s=case.true_s))
        assert set_score(pred.labels, case.label_set).recall == 1.0


def test_scale_and_row_space_invariance_smoke():
    case = simulate_case(Scenario(d=32, classes=40, mode="batch", n=4,
                                  latent="gauss", seed=11))
    cfg = RlgConfig(assume_s=case.true_s)
    base = rlg_attack(case.delta_w, cfg).labels
    assert rlg_attack(2.5 * case.delta_w, cfg).labels == base
    rng = np.random.default_rng(123)
    for _ in range(3):
        m = rng.normal(size=(32, 32))
        assert rlg_attack(m @ case.delta_w, cfg).labels == base


def test_scale_and_row_map_invariance():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hypothesis.settings(max_examples=5, deadline=None, derandomize=True, database=None)
    @hypothesis.given(seed=st.integers(0, 2 ** 31), latent=st.sampled_from(LATENTS),
                      scale=st.floats(1e-3, 1e3), map_seed=st.integers(0, 2 ** 31))
    def check(seed, latent, scale, map_seed):
        case, cfg = _wide_capture(seed, latent=latent)
        base = rlg_attack(case.delta_w, cfg).labels
        assert rlg_attack(scale * case.delta_w, cfg).labels == base
        m = np.random.default_rng(map_seed).normal(size=(32, 32))
        assert rlg_attack(m @ case.delta_w, cfg).labels == base

    check()


@pytest.mark.slow
def test_screen_equivalence_large_vocabulary():
    # 16k classes: the screen must not change the recovered set
    case = simulate_case(Scenario(d=64, classes=16000, mode="batch", n=10,
                                  latent="tanh", seed=77))
    cfg = RlgConfig(assume_s=case.true_s)
    _, q, _ = extract_q(case.delta_w, cfg)
    pred = rlg_attack(case.delta_w, cfg)
    assert pred.labels == _brute_force_labels(q)
    assert case.label_set <= pred.labels
    assert 16000 - len(screen(q)) > 15000


def _serial_cone_distance(generators, target, max_pivots, stop_below, label):
    # the one-label-at-a-time solver the lockstep kernel replaced, kept as
    # the reference: generators are q without the label's column.  It enters
    # the largest score over the unit-norm generators, and the lowest
    # improvable id (Bland) after rlg._STALL rounds without a fall in the
    # objective
    s = target.shape[0]
    scale = np.sqrt((generators * generators).sum(axis=0))
    scale[scale == 0.0] = 1.0
    generators = generators / scale
    ng = generators.shape[1]
    sign0 = np.where(target >= 0.0, 1.0, -1.0)
    basis = np.where(target >= 0.0, ng + np.arange(s), ng + s + np.arange(s))
    bmat = np.diag(sign0)
    binv = np.diag(sign0)
    cb = np.ones(s)
    lowest, stalled = np.inf, 0
    pivots = 0
    while True:
        if pivots and pivots % 64 == 0:
            try:
                binv = np.linalg.inv(bmat)
            except np.linalg.LinAlgError as exc:
                raise LpSingularBasisError(pivots, label) from exc
        xb = binv @ target
        value = float(cb @ xb)
        y = cb @ binv
        fell = value < lowest * (1.0 - 1e-12)
        lowest, stalled = (value, 0) if fell else (lowest, stalled + 1)
        if value < stop_below:
            return max(value, 0.0), y, pivots
        red = y @ generators
        if stalled >= rlg._STALL:
            hits = np.flatnonzero(np.r_[red, y - 1.0, -y - 1.0] > 1e-12)
            enter = int(hits[0]) if hits.size else -1
        else:
            j, k = int(red.argmax()), int(np.abs(y).argmax())
            if max(red[j], abs(y[k]) - 1.0) <= 1e-12:
                enter = -1
            elif red[j] >= abs(y[k]) - 1.0:
                enter = j
            else:
                enter = ng + k if y[k] > 0.0 else ng + s + k
        if enter < 0:
            return max(value, 0.0), y, pivots
        if enter < ng:
            acol = generators[:, enter]
        else:
            acol = np.zeros(s)
            acol[(enter - ng) % s] = 1.0 if enter < ng + s else -1.0
        u = binv @ acol
        rows = np.flatnonzero(u > 1e-12)
        if rows.size == 0:
            raise LpPivotLimitError(pivots, label)
        ratios = xb[rows] / u[rows]
        best = ratios.min()
        tied = rows[ratios <= best + 1e-15]
        leave = int(tied[np.argmin(basis[tied])])
        basis[leave] = enter
        bmat[:, leave] = acol
        cb[leave] = 0.0 if enter < ng else 1.0
        eta = -u / u[leave]
        eta[leave] = 1.0 / u[leave] - 1.0
        binv += np.outer(eta, binv[leave])
        pivots += 1
        if pivots > max_pivots:
            raise LpPivotLimitError(pivots, label)


def test_lockstep_matches_serial_solver_exactly(captures, monkeypatch):
    # same arithmetic label by label: distances, multipliers and pivot
    # counts agree bit for bit, so the pricing rule takes the same path, on
    # the default path and on Bland's path throughout (_STALL = 0)
    stop_below = 0.5e-6
    for stall, (tag, _, _, q) in itertools.product((rlg._STALL, 0), captures):
        monkeypatch.setattr(rlg, "_STALL", stall)
        n = q.shape[1]
        dist, y, pivots, failed = _cone_distances(q, q.T, np.arange(n))
        assert not failed.any(), (tag, stall)
        for c in range(n):
            d, yc, p = _serial_cone_distance(np.delete(q, c, axis=1), q[:, c].copy(),
                                             DEFAULT_MAX_PIVOTS, stop_below, c)
            assert (dist[c], pivots[c]) == (d, p), (tag, stall, c)
            assert np.array_equal(y[c], yc), (tag, stall, c)


def test_lockstep_matches_serial_solver_at_larger_s():
    # the capped drop90 captures at the rank-inferred S = 19..22: a chunk's
    # pricing gemm may round apart from the serial product in the last
    # bits, so decisions, failure codes and distances are compared, not
    # bits.  An LP that stops below the early-stop line reports only that
    stop_below = 0.5e-6
    for capture in _CAPPED_DROP90:
        _, q = _capped_capture(*capture)
        assert q.shape[0] >= 17
        n = q.shape[1]
        dist, _, _, failed = _cone_distances(q, q.T, np.arange(n))
        for c in range(n):
            try:
                d, _, _ = _serial_cone_distance(np.delete(q, c, axis=1), q[:, c].copy(),
                                                DEFAULT_MAX_PIVOTS, stop_below, c)
                code = 0
            except LpPivotLimitError:
                code = rlg._CAP_HIT
            except LpSingularBasisError:
                code = rlg._SINGULAR
            assert failed[c] == code, (capture, c)
            if code:
                continue
            assert (dist[c] >= LP_MARGIN) == (d >= LP_MARGIN), (capture, c)
            assert (dist[c] < stop_below) == (d < stop_below), (capture, c)
            if d >= stop_below:
                assert abs(dist[c] - d) <= 1e-12, (capture, c)


def test_attack_statuses_match_single_label_solves(captures):
    rng = np.random.default_rng(5)
    for tag, dw, cfg, q in captures:
        labels = rlg_attack(dw, cfg).labels
        n = q.shape[1]
        for c in range(n):
            assert (c in labels) == lp_feasible(q, c), (tag, c)
        # any order and any split of the labels gives the same decisions
        want = np.array([c in labels for c in range(n)])
        order = rng.permutation(n)
        cuts = np.sort(rng.choice(np.arange(1, n), size=3, replace=False))
        for part in np.split(order, cuts):
            got, _ = _solve_labels(q, part)
            assert np.array_equal(got, want[part]), tag


def test_column_permutation_equivariance():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hypothesis.settings(max_examples=6, deadline=None, derandomize=True, database=None)
    @hypothesis.given(seed=st.integers(0, 2 ** 31), latent=st.sampled_from(LATENTS),
                      perm=st.permutations(range(40)))
    def check(seed, latent, perm):
        case = simulate_case(Scenario(d=32, classes=40, mode="batch", n=4,
                                      latent=latent, seed=seed))
        cfg = RlgConfig(assume_s=case.true_s)
        base = rlg_attack(case.delta_w, cfg).labels
        perm = np.asarray(perm)
        got = rlg_attack(case.delta_w[:, perm], cfg).labels
        assert [j in got for j in range(40)] == [int(c) in base for c in perm]

    check()


def test_cone_distance_matches_highs(captures):
    for tag, dw, cfg, q in captures:
        if tag.endswith("drop90"):
            continue
        labels = rlg_attack(dw, cfg).labels
        for c in range(q.shape[1]):
            ref = _highs_distance(q, c)
            if LP_MARGIN / 10 <= ref <= 10 * LP_MARGIN:
                continue
            assert (c in labels) == (ref >= LP_MARGIN), (tag, c, ref)
            if c in labels:
                r = lp_separator(q, c)
                assert abs(-(r @ q[:, c]) - ref) <= 1e-8, (tag, c, ref)
