import numpy as np
import pytest

from gradleak.gm import (GMProblem, ToyDecoder, decoder_gradient, gm_gradients,
                         gm_objective, make_problem, reconstruct, regularizer,
                         smooth_label_loss)


def small_decoder(seed=0, d_a=5, classes=8, pos_std=0.0):
    rng = np.random.default_rng(seed)
    pos = rng.normal(0.0, pos_std, (4, classes)) if pos_std else None
    return ToyDecoder(w=rng.normal(0.0, 0.5, (d_a, classes)),
                      b=rng.normal(0.0, 0.1, classes), pos=pos)


def naive_loss(a, p, dec, bow=None):
    # direct double sum over positions and classes
    total = 0.0
    z = dec.logits(np.asarray(a, dtype=float))
    for i in range(z.shape[0]):
        e = np.exp(z[i] - z[i].max())
        logp = np.log(e / e.sum())
        cols = range(z.shape[1]) if bow is None else bow
        for k_idx, k in enumerate(cols):
            total -= p[i][k_idx if bow is not None else k] * logp[k]
    return total


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
    assert abs(smooth_label_loss(a, p, dec) - ce) <= 1e-12


def test_loss_uniform_rows_closed_form():
    dec = ToyDecoder(w=np.zeros((4, 10)), b=np.zeros(10))
    a = np.zeros((3, 4))
    p = np.full((3, 10), 0.1)
    assert abs(smooth_label_loss(a, p, dec) - 3 * np.log(10)) <= 1e-12


def test_loss_matches_naive_double_sum():
    dec = small_decoder(seed=2)
    rng = np.random.default_rng(3)
    a = rng.normal(size=(4, 5))
    p = rng.normal(size=(4, 8))
    assert abs(smooth_label_loss(a, p, dec) - naive_loss(a, p, dec)) <= 1e-12
    bow = (1, 4, 6)
    pb = rng.normal(size=(4, 3))
    assert abs(smooth_label_loss(a, pb, dec, bow) - naive_loss(a, pb, dec, bow)) <= 1e-12


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
    assert (decoder_gradient(a, p, dec).tobytes()
            == decoder_gradient(a, p, dec, full.bow).tobytes())
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
    with pytest.raises(ValueError):
        GMProblem(target_grad=np.zeros((5, 8)), decoder=dec, s=2, lam=-0.5)


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
        diff = decoder_gradient(a, onehot, prob.decoder, prob.bow) - prob.target_grad
        return float(np.sqrt((diff * diff).sum()))

    import itertools
    hits = 0
    for inst in range(5):
        rng = np.random.Generator(np.random.Philox(key=500 + inst))
        dec = ToyDecoder(w=rng.normal(0.0, 0.7, (8, 50)),
                         b=rng.normal(0.0, 0.1, 50),
                         pos=rng.normal(0.0, 1.0, (3, 50)))
        labels = [int(c) for c in rng.choice(50, size=3, replace=False)]
        context = rng.normal(0.0, 1.0, (3, 8))
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
