import numpy as np
import pytest

from gradleak import gm
from gradleak.bench import table4_instance
from gradleak.gm import (GMProblem, ToyDecoder, gm_gradients, gm_objective, make_problem,
                         reconstruct, regularizer)
from gradleak.metrics import wer
from gradleak.simulator import _softmax_rows


def small_decoder(seed=0, d_a=5, classes=8, pos_std=0.0):
    rng = np.random.default_rng(seed)
    pos = rng.normal(0.0, pos_std, (4, classes)) if pos_std else None
    return ToyDecoder(w=rng.normal(0.0, 0.5, (d_a, classes)),
                      b=rng.normal(0.0, 0.1, classes), pos=pos)


def cross_entropy(a, p, dec):
    # cross-entropy of label rows p over all C classes, read off the decoder's
    # logits and the softmax rows of gm's forward pass
    return float(-(p * np.log(_softmax_rows(dec.logits(a)))).sum())


def test_loss_one_hot_reduces_to_cross_entropy():
    dec = small_decoder()
    rng = np.random.default_rng(1)
    a = rng.normal(size=(3, 5))
    labels = [2, 0, 5]
    p = np.zeros((3, 8))
    p[np.arange(3), labels] = 1.0
    z = a @ dec.w + dec.b
    ce = 0.0
    for i, y in enumerate(labels):
        e = np.exp(z[i] - z[i].max())
        ce -= np.log(e[y] / e.sum())
    assert abs(cross_entropy(a, p, dec) - ce) <= 1e-12


def test_loss_uniform_rows_closed_form():
    dec = ToyDecoder(w=np.zeros((4, 10)), b=np.zeros(10))
    a = np.zeros((3, 4))
    p = np.full((3, 10), 0.1)
    assert abs(cross_entropy(a, p, dec) - 3 * np.log(10)) <= 1e-12


def test_regularizer_zero_iff_unit_rows():
    p = np.array([[0.5, 0.5], [0.25, -0.75]])
    assert regularizer(p) == 0.0
    assert regularizer(np.array([[0.5, 0.1]])) > 0.0
    rng = np.random.default_rng(4)
    assert regularizer(rng.normal(size=(5, 7))) >= 0.0


def test_objective_zero_at_ground_truth():
    dec = small_decoder(seed=5, pos_std=1.0)
    rng = np.random.default_rng(6)
    labels = [1, 7, 3]
    context = rng.normal(size=(3, 5))
    prob = make_problem(dec, context, labels, bow=(1, 3, 7), lam=1.0)
    onehot = np.zeros((3, 3))
    onehot[0, prob.bow.index(1)] = 1.0
    onehot[1, prob.bow.index(7)] = 1.0
    onehot[2, prob.bow.index(3)] = 1.0
    assert gm_objective(context, onehot, prob) == 0.0


def test_objective_positive_off_truth():
    dec = small_decoder(seed=7)
    rng = np.random.default_rng(8)
    labels = [0, 2, 4]
    context = rng.normal(size=(3, 5))
    prob = make_problem(dec, context, labels, lam=0.0)
    onehot = np.zeros((3, 8))
    onehot[np.arange(3), labels] = 1.0
    assert gm_objective(context + 0.1, onehot, prob) > 0.0


def fd_gradient(fn, x, h=1e-6):
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    out = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        up = fn()
        flat[i] = orig - h
        down = fn()
        flat[i] = orig
        out[i] = (up - down) / (2 * h)
    return g


@pytest.mark.parametrize("restricted", [True, False])
@pytest.mark.parametrize("pos_std", [0.0, 1.0])
def test_gradients_match_finite_differences(restricted, pos_std):
    dec = small_decoder(seed=9, pos_std=pos_std)
    rng = np.random.default_rng(10)
    labels = [3, 6, 0]
    context = rng.normal(size=(3, 5))
    bow = (0, 3, 6) if restricted else None
    prob = make_problem(dec, context, labels, bow=bow, lam=1.0)
    a = rng.normal(0.0, 0.7, (3, 5))
    p = rng.normal(0.0, 0.7, (3, prob.width))
    ga, gp = gm_gradients(a, p, prob)
    fa = fd_gradient(lambda: gm_objective(a, p, prob), a)
    fp = fd_gradient(lambda: gm_objective(a, p, prob), p)
    an = np.concatenate([ga.ravel(), gp.ravel()])
    num = np.concatenate([fa.ravel(), fp.ravel()])
    assert np.linalg.norm(num - an) / np.linalg.norm(an) <= 1e-5


def test_free_problem_is_restriction_to_all_columns():
    # the unrestricted search is the restricted one over all C columns, bit for bit
    dec = small_decoder(seed=21, pos_std=1.0)
    rng = np.random.default_rng(22)
    labels = [5, 1, 6]
    context = rng.normal(size=(3, 5))
    free = make_problem(dec, context, labels, lam=0.5, max_steps=300)
    full = make_problem(dec, context, labels, bow=tuple(range(8)), lam=0.5, max_steps=300)
    assert free.bow is None and full.bow == tuple(range(8))
    a = rng.normal(0.0, 0.7, (3, 5))
    p = rng.normal(0.0, 0.7, (3, 8))
    for x, y in zip(gm_gradients(a, p, free), gm_gradients(a, p, full)):
        assert x.tobytes() == y.tobytes()
    assert gm_objective(a, p, free).hex() == gm_objective(a, p, full).hex()
    res_free = reconstruct(free, seed=4, restarts=2, truth=labels)
    res_full = reconstruct(full, seed=4, restarts=2, truth=labels)
    assert res_free == res_full
    assert res_free.final_loss.hex() == res_full.final_loss.hex()
    assert res_free.objective.hex() == res_full.objective.hex()


def test_problem_validation():
    dec = small_decoder()
    with pytest.raises(ValueError):
        GMProblem(target_grad=np.zeros((5, 8)), decoder=dec, s=0)
    with pytest.raises(ValueError):
        GMProblem(target_grad=np.zeros((4, 8)), decoder=dec, s=1)
    with pytest.raises(ValueError):
        GMProblem(target_grad=np.zeros((5, 8)), decoder=dec, s=1, bow=())
    with pytest.raises(ValueError):
        GMProblem(target_grad=np.zeros((5, 8)), decoder=dec, s=1, bow=(1, 1))
    with pytest.raises(ValueError):
        GMProblem(target_grad=np.zeros((5, 8)), decoder=dec, s=1, bow=(2, 8))
    with pytest.raises(ValueError):
        GMProblem(target_grad=np.zeros((5, 8)), decoder=dec, s=1, bow=(-1,))
    for lam in (-0.5, np.nan, np.inf):
        with pytest.raises(ValueError, match=f"^regularization weight must be finite "
                                             f"and >= 0, got {lam}$"):
            GMProblem(target_grad=np.zeros((5, 8)), decoder=dec, s=2, lam=lam)
    with pytest.raises(ValueError, match="step cap"):
        GMProblem(target_grad=np.zeros((5, 8)), decoder=dec, s=2, max_steps=0)


def test_make_problem_refuses_labels_outside_the_classes():
    # label -1 would otherwise index class C-1, and label C past the end
    dec = small_decoder()
    context = np.random.default_rng(2).normal(size=(3, 5))
    for bad in (-1, 8):
        with pytest.raises(ValueError, match="labels out of range"):
            make_problem(dec, context, [bad, 1, 2])


def test_make_problem_names_the_context_vectors_it_refuses():
    dec = small_decoder()
    with pytest.raises(ValueError, match=r"^need one label per context vector, "
                                         r"got \(3,\) for 2 context vectors$"):
        make_problem(dec, np.zeros((2, 5)), [1, 2, 3])
    with pytest.raises(ValueError, match="^context vectors have dimension 4, "
                                         "the decoder's d_A is 5$"):
        make_problem(dec, np.zeros((3, 4)), [1, 2, 3])


def test_singleton_search_space():
    dec = small_decoder(seed=11)
    rng = np.random.default_rng(12)
    prob = make_problem(dec, rng.normal(size=(1, 5)), [4], bow=(4,), lam=1.0)
    res = reconstruct(prob, seed=0, restarts=1, truth=[4])
    assert res.transcript == (4,)
    assert res.exact_match
    assert res.wer_vs_truth == 0.0
    assert res.n_vars == 1 * (5 + 1)


def test_transcript_confined_to_restricted_set():
    dec = small_decoder(seed=13, pos_std=1.0)
    rng = np.random.default_rng(14)
    labels = [2, 5, 7]
    prob = make_problem(dec, rng.normal(size=(3, 5)), labels, bow=(2, 5, 7))
    res = reconstruct(prob, seed=3, restarts=2, truth=labels)
    assert set(res.transcript) <= {2, 5, 7}
    assert res.n_vars == 3 * (5 + 3)


def test_restart_improvement_monotone():
    dec = small_decoder(seed=15, pos_std=1.0)
    rng = np.random.default_rng(16)
    labels = [1, 6, 4]
    prob = make_problem(dec, rng.normal(size=(3, 5)), labels, bow=(1, 4, 6))
    losses = [reconstruct(prob, seed=5, restarts=r).final_loss for r in (1, 2, 4)]
    assert losses[0] >= losses[1] >= losses[2]


def test_non_converged_flag_on_tiny_cap():
    dec = small_decoder(seed=17, pos_std=1.0)
    rng = np.random.default_rng(18)
    labels = [0, 3, 7]
    prob = make_problem(dec, rng.normal(size=(3, 5)), labels, bow=(0, 3, 7),
                        max_steps=5)
    res = reconstruct(prob, seed=1, restarts=1)
    assert not res.converged
    assert res.steps == 5


def test_enumeration_oracle_agreement():
    # brute force over all |bow|^S hard sequences, fitting the context by
    # descent for each, must name the true sequence; reconstruction agrees
    def fit_distance(prob, seq, steps=400, lr=0.1):
        onehot = np.zeros((prob.s, len(prob.bow)))
        for i, lab in enumerate(seq):
            onehot[i, prob.bow.index(lab)] = 1.0
        rng = np.random.default_rng(0)
        a = rng.normal(0.0, 0.01, (prob.s, prob.decoder.d_a))
        for _ in range(steps):
            ga, _ = gm_gradients(a, onehot, prob)
            a -= lr * ga
        # the regularizer is exactly 0 on one-hot rows
        return float(np.sqrt(gm_objective(a, onehot, prob)))

    import itertools
    hits = 0
    for inst in range(5):
        dec, context, labels = table4_instance(500 + inst)
        prob = make_problem(dec, context, labels, bow=tuple(sorted(labels)), lam=0.1)
        seqs = list(itertools.product(prob.bow, repeat=3))
        dists = {seq: fit_distance(prob, seq) for seq in seqs}
        oracle = min(dists, key=dists.get)
        assert oracle == tuple(labels)
        res = reconstruct(prob, seed=500 + inst, restarts=5, truth=labels)
        hits += res.transcript == oracle
    assert hits >= 4


def test_decoder_positional_shape_guard():
    dec = small_decoder(seed=19, pos_std=1.0)  # supports up to 4 positions
    rng = np.random.default_rng(20)
    with pytest.raises(ValueError):
        dec.logits(rng.normal(size=(5, 5)))


def _reference_residual(a, p, prob):
    # the forward pass and residual (softmax, M, E) as first written, one
    # numpy expression per quantity and P~ zero-filled; frozen so that the
    # reference does not share the kernel it checks
    dec = prob.decoder
    z = a @ dec.w + dec.b
    if dec.pos is not None:
        z = z + dec.pos[:a.shape[-2]]
    ex = np.exp(z - z.max(axis=-1, keepdims=True))
    sm = ex / ex.sum(axis=-1, keepdims=True)
    full = np.zeros_like(sm)
    full[..., prob.cols] = p
    m = sm - full
    return sm, m, a.swapaxes(-1, -2) @ m - prob.target_grad


def _reference_gradients(a, p, prob):
    # gm_gradients' arithmetic as first written, frozen beside the residual
    w = prob.decoder.w
    sm, m, e = _reference_residual(a, p, prob)
    ae = a @ e
    row_dot = (ae * sm).sum(axis=-1, keepdims=True)
    jac = sm * (ae - row_dot)
    grad_a = 2.0 * (m @ e.swapaxes(-1, -2) + jac @ w.T)
    grad_p = -2.0 * ae.take(prob.cols, axis=-1)
    reg = prob.lam * np.sign(np.abs(p).sum(axis=-1, keepdims=True) - 1.0) * np.sign(p)
    return grad_a, grad_p + reg


@pytest.mark.parametrize("stacked", [False, True])
@pytest.mark.parametrize("pos_std", [0.0, 1.0])
@pytest.mark.parametrize("bow", [(0, 3, 6), None])
def test_gradients_equal_frozen_reference_bit_for_bit(bow, pos_std, stacked):
    dec = small_decoder(seed=29, pos_std=pos_std)
    rng = np.random.default_rng(30)
    prob = make_problem(dec, rng.normal(size=(3, 5)), [3, 6, 0], bow=bow, lam=0.7)
    shape = (4, 3) if stacked else (3,)
    a = rng.normal(0.0, 0.7, shape + (5,))
    p = rng.normal(0.0, 0.7, shape + (prob.width,))
    # exact ties and signed zeros at the regularizer's kinks
    p[..., 0, :] = 0.0
    p[..., 1, :] = -1.0 / prob.width
    if stacked:
        # one slice runs non-finite, as a diverging restart does
        a[1, 0, 2] = np.inf
        p[2, 1, 0] = np.nan
        a[3] *= 1e150
    with np.errstate(over="ignore", invalid="ignore"):
        got = gm_gradients(a, p, prob)
        want = _reference_gradients(a, p, prob)
    for x, y in zip(got, want):
        assert x.shape == y.shape and x.dtype == y.dtype
        assert x.tobytes() == y.tobytes()
    if stacked:
        assert not np.isfinite(got[0][1]).all() and not np.isfinite(got[1][2]).all()
        assert np.isfinite(got[0][0]).all() and np.isfinite(got[1][0]).all()


def _serial_reconstruct(prob, seed, restarts, truth=None, nan_at=None):
    # the one-restart-at-a-time loop the stacked descent replaced, on the
    # frozen reference arithmetic; nan_at=(r, t) makes restart r's gradient
    # NaN at step t
    def single_run(ridx, rng):
        a = rng.normal(0.0, 0.01, size=(prob.s, prob.decoder.d_a))
        p = rng.normal(0.0, 0.01, size=(prob.s, prob.width))
        transcript = tuple(prob.cols[p.argmax(axis=1)].tolist())
        last_change = 0
        converged = False
        step = 0
        for step in range(1, prob.max_steps + 1):
            lr = max(gm.LR_FLOOR, gm.LR_INIT * 0.5 ** ((step - 1) // gm.LR_HALVE_EVERY))
            with np.errstate(over="ignore", invalid="ignore"):
                ga, gp = _reference_gradients(a, p, prob)
                if nan_at == (ridx, step):
                    ga = np.full_like(ga, np.nan)
                a -= lr * ga
                p -= lr * gp
            if not (np.isfinite(a).all() and np.isfinite(p).all()):
                return transcript, float("inf"), float("inf"), step, False
            current = tuple(prob.cols[p.argmax(axis=1)].tolist())
            if current != transcript:
                transcript = current
                last_change = step
            if step - last_change >= gm.STABLE_STEPS:
                converged = True
                break
        diff = _reference_residual(a, p, prob)[2]
        squared = float((diff * diff).sum())
        distance = float(np.sqrt(squared))
        objective = squared + prob.lam * regularizer(p)
        return transcript, distance, objective, step, converged

    outcomes = [single_run(r, np.random.Generator(np.random.Philox(key=seed).jumped(r)))
                for r in range(restarts)]
    best = None
    for outcome in outcomes:
        if best is None or outcome[1] < best[1]:
            best = outcome
    transcript, distance, objective, steps, converged = best
    wer_value = em = None
    if truth is not None:
        wer_value = wer(list(truth), list(transcript))
        em = tuple(truth) == transcript
    return gm.GMResult(transcript=transcript, final_loss=distance, steps=steps,
                       wer_vs_truth=wer_value, exact_match=em, n_vars=prob.n_vars,
                       converged=converged, restarts=restarts, objective=objective,
                       runs=tuple((o[3], o[1], o[4]) for o in outcomes))


def _bits(result):
    # every field, with floats as exact hex
    def exact(v):
        if isinstance(v, float):
            return v.hex()
        if isinstance(v, tuple):
            return tuple(exact(x) for x in v)
        return v
    return {name: exact(getattr(result, name)) for name in gm.GMResult.__dataclass_fields__}


def test_stacked_gradients_equal_per_slice_calls():
    dec = small_decoder(seed=23, pos_std=1.0)
    rng = np.random.default_rng(24)
    context = rng.normal(size=(3, 5))
    for bow in ((0, 3, 6), None):
        prob = make_problem(dec, context, [3, 6, 0], bow=bow, lam=0.7)
        a = rng.normal(0.0, 0.7, (4, 3, 5))
        p = rng.normal(0.0, 0.7, (4, 3, prob.width))
        ga, gp = gm_gradients(a, p, prob)
        assert ga.shape == a.shape and gp.shape == p.shape
        for r in range(4):
            ga_r, gp_r = gm_gradients(a[r], p[r], prob)
            assert ga[r].tobytes() == ga_r.tobytes()
            assert gp[r].tobytes() == gp_r.tobytes()
    with pytest.raises(ValueError):
        gm_gradients(a, p[:, :2], prob)
    with pytest.raises(ValueError):
        gm_gradients(a[0, 0], p[0, 0], prob)


@pytest.mark.parametrize("restarts", [1, 2, 5])
@pytest.mark.parametrize("restricted", [True, False])
def test_stacked_descent_matches_serial_reference(restarts, restricted):
    dec = small_decoder(seed=25, pos_std=1.0)
    rng = np.random.default_rng(26)
    labels = [2, 7, 4]
    bow = (2, 4, 7) if restricted else None
    prob = make_problem(dec, rng.normal(size=(3, 5)), labels, bow=bow, lam=0.5,
                        max_steps=2300)
    got = reconstruct(prob, seed=7, restarts=restarts, truth=labels)
    assert _bits(got) == _bits(_serial_reconstruct(prob, 7, restarts, labels))
    assert len(got.runs) == restarts


def test_result_objective_is_gm_objective_at_the_kept_restart():
    # one step of the one restart, replayed from its start: the result
    # reports gm_objective and the plain distance of where that step ends
    dec, context, labels = table4_instance(909)
    prob = make_problem(dec, context, labels, max_steps=1)
    got = reconstruct(prob, seed=909, restarts=1)
    rng = np.random.Generator(np.random.Philox(key=909).jumped(0))
    a = rng.normal(0.0, 0.01, size=(prob.s, dec.d_a))
    p = rng.normal(0.0, 0.01, size=(prob.s, prob.width))
    ga, gp = gm_gradients(a, p, prob)
    a -= ga * gm.LR_INIT
    p -= gp * gm.LR_INIT
    assert got.objective == gm_objective(a, p, prob)
    e = gm._residual(a, p, prob)[2]
    assert got.final_loss == float(np.sqrt((e * e).sum()))


@pytest.mark.parametrize("restricted", [True, False])
def test_stacked_descent_matches_serial_reference_table4(restricted):
    # at a 2500-step cap some restarts converge and others run to the cap
    dec, context, labels = table4_instance(909)
    bow = tuple(sorted(labels)) if restricted else None
    prob = make_problem(dec, context, labels, bow=bow, lam=0.1, max_steps=2500)
    got = reconstruct(prob, seed=909, restarts=5, truth=labels)
    assert _bits(got) == _bits(_serial_reconstruct(prob, 909, 5, labels))
    assert {converged for _, _, converged in got.runs} == {True, False}
    assert any(steps == 2500 for steps, _, _ in got.runs)
    assert got.final_loss == min(distance for _, distance, _ in got.runs)


def test_diverged_restart_leaves_the_others_unchanged(monkeypatch):
    dec = small_decoder(seed=27, pos_std=1.0)
    rng = np.random.default_rng(28)
    labels = [1, 5, 3]
    prob = make_problem(dec, rng.normal(size=(3, 5)), labels, bow=(1, 3, 5), lam=0.5,
                        max_steps=2300)
    want = _serial_reconstruct(prob, 11, 4, labels, nan_at=(2, 40))
    assert want.runs[2] == (40, float("inf"), False)
    kernel = gm.gm_gradients
    calls = []

    def nan_in_slice(a, p, prob):
        ga, gp = kernel(a, p, prob)
        calls.append(a.shape[0])
        if len(calls) == 40:
            # no restart can have stopped before STABLE_STEPS, so restart 2
            # is still slice 2
            ga = ga.copy()
            ga[2] = np.nan
        return ga, gp

    monkeypatch.setattr(gm, "gm_gradients", nan_in_slice)
    got = reconstruct(prob, seed=11, restarts=4, truth=labels)
    assert _bits(got) == _bits(want)
    assert calls[:40] == [4] * 40 and calls[40] == 3


@pytest.mark.parametrize("max_steps", [gm.STABLE_STEPS - 1, gm.STABLE_STEPS,
                                       gm.STABLE_STEPS + 1])
def test_stability_boundary_matches_serial_reference(max_steps):
    # the descent skips the stability test before step STABLE_STEPS; a
    # singleton search space never changes its transcript, so its restarts
    # converge at exactly that step, and only once the cap allows it
    dec = small_decoder(seed=31, pos_std=1.0)
    rng = np.random.default_rng(32)
    labels = [6, 1, 3]
    context = rng.normal(size=(3, 5))
    single = make_problem(dec, context[:1], labels[:1], bow=(6,), lam=0.5,
                          max_steps=max_steps)
    got = reconstruct(single, seed=13, restarts=2, truth=labels[:1])
    assert _bits(got) == _bits(_serial_reconstruct(single, 13, 2, labels[:1]))
    reached = max_steps >= gm.STABLE_STEPS
    assert got.converged == reached
    assert got.runs[0][0] == got.runs[1][0] == min(max_steps, gm.STABLE_STEPS)
    prob = make_problem(dec, context, labels, bow=(1, 3, 6), lam=0.5, max_steps=max_steps)
    got = reconstruct(prob, seed=13, restarts=3, truth=labels)
    assert _bits(got) == _bits(_serial_reconstruct(prob, 13, 3, labels))


def test_kernels_leave_their_inputs_unchanged():
    # the forward pass and the gradients work in place on arrays of their
    # own; none of them may write through to what the caller passed
    rng = np.random.default_rng(33)
    context = rng.normal(size=(3, 5))
    for pos_std in (0.0, 1.0):
        dec = small_decoder(seed=34, pos_std=pos_std)
        for bow in ((0, 3, 6), None):
            prob = make_problem(dec, context, [3, 6, 0], bow=bow, lam=0.7)
            for shape in ((3,), (4, 3)):
                a = rng.normal(0.0, 0.7, shape + (5,))
                p = rng.normal(0.0, 0.7, shape + (prob.width,))
                inputs = [a, p, dec.w, dec.b, prob.target_grad]
                if dec.pos is not None:
                    inputs.append(dec.pos)
                before = [x.tobytes() for x in inputs]
                z = dec.logits(a)
                logits = z.tobytes()
                _softmax_rows(z)
                assert z.tobytes() == logits
                gm_gradients(a, p, prob)
                if len(shape) == 1:
                    gm_objective(a, p, prob)
                assert [x.tobytes() for x in inputs] == before
