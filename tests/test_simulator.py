import numpy as np
import pytest

from gradleak.linalg import default_rank_tol, numeric_rank, svd
from gradleak.simulator import (GradientCase, Scenario, ToyDecoder, ce_logit_grad,
                                initial_state, projection_grad, sample_latents,
                                simulate_case, softmax)


def naive_softmax(z):
    e = np.exp(np.asarray(z, dtype=float))
    return e / e.sum()


def test_softmax_uniform_and_stability():
    assert np.allclose(softmax([0.0, 0.0, 0.0]), [1 / 3, 1 / 3, 1 / 3], atol=1e-15)
    p = softmax([1000.0, 0.0])
    assert np.isfinite(p).all()
    assert p[0] > 0.999 and p[1] < 1e-300 or p[1] == 0.0
    assert abs(p.sum() - 1.0) <= 1e-12


def test_softmax_matches_naive_at_small_magnitude():
    assert np.allclose(softmax([1.0, 2.0, 3.0]), naive_softmax([1.0, 2.0, 3.0]), atol=1e-12)


def test_ce_logit_grad_uniform_case():
    g = ce_logit_grad([0.0, 0.0, 0.0], 1)
    assert np.allclose(g, [1 / 3, -2 / 3, 1 / 3], atol=1e-15)


def test_ce_logit_grad_sums_to_zero_and_signs():
    rng = np.random.default_rng(4)
    for _ in range(50):
        z = rng.normal(scale=2.0, size=12)
        y = int(rng.integers(12))
        g = ce_logit_grad(z, y)
        assert abs(g.sum()) <= 1e-12
        # direct evaluation of the defining formula
        direct = naive_softmax(z)
        direct[y] -= 1.0
        assert np.allclose(g, direct, atol=1e-12)
        neg = g < 0.0
        assert neg.sum() == 1 and neg[y]


def test_ce_logit_grad_label_out_of_range():
    with pytest.raises(ValueError):
        ce_logit_grad([0.0, 0.0], 2)
    with pytest.raises(ValueError):
        ce_logit_grad([0.0, 0.0], -1)


def test_projection_grad_uniform_single():
    state = ToyDecoder(w=np.zeros((2, 3)), b=np.zeros(3))
    delta_w, g = projection_grad([[1.0, 0.0]], [1], state)
    assert np.allclose(delta_w, [[1 / 3, -2 / 3, 1 / 3], [0.0, 0.0, 0.0]], atol=1e-15)
    assert g.shape == (1, 3)


def test_projection_grad_single_sample_rank_one():
    rng = np.random.default_rng(8)
    state = ToyDecoder(w=rng.normal(0, 0.1, (6, 4)), b=rng.normal(0, 0.1, 4))
    delta_w, _ = projection_grad(rng.normal(size=(1, 6)), [2], state)
    assert numeric_rank(svd(delta_w).singular, default_rank_tol(6, 4), max_dim=6) == 1


def test_projection_grad_matches_per_sample_average():
    rng = np.random.default_rng(11)
    d, c, s = 8, 10, 3
    state = ToyDecoder(w=rng.normal(0, 0.1, (d, c)), b=rng.normal(0, 0.1, c))
    h = rng.normal(size=(s, d))
    y = [4, 0, 7]
    delta_w, _ = projection_grad(h, y, state)
    acc = np.zeros((d, c))
    for i in range(s):
        z = h[i] @ state.w + state.b
        g = naive_softmax(z)
        g[y[i]] -= 1.0
        acc += np.outer(h[i], g)
    assert np.allclose(delta_w, acc / s, atol=1e-14)


def test_projection_grad_dimension_mismatch():
    state = ToyDecoder(w=np.zeros((2, 3)), b=np.zeros(3))
    with pytest.raises(ValueError):
        projection_grad([[1.0, 0.0]], [0, 1], state)
    with pytest.raises(ValueError):
        projection_grad([[1.0, 0.0, 3.0]], [0], state)


def test_scenario_validation():
    with pytest.raises(ValueError):
        Scenario(d=4, classes=1)
    with pytest.raises(ValueError):
        Scenario(d=4, classes=5, mode="single", n=2)
    with pytest.raises(ValueError):
        Scenario(d=4, classes=5, mode="batch", n=3, k=2)
    with pytest.raises(ValueError):
        Scenario(d=4, classes=5, mode="multistep", n=1, k=2, lrs=(0.1,))
    with pytest.raises(ValueError):
        Scenario(d=4, classes=5, mode="multistep", n=1, k=2, lrs=(0.1, -0.1))
    with pytest.raises(ValueError):
        Scenario(d=4, classes=5, mode="batch", n=3, labels=(0, 1))
    with pytest.raises(ValueError):
        Scenario(d=4, classes=5, latent="swish")


def test_latent_distributions():
    rng = np.random.default_rng(0)
    relu = sample_latents(rng, 400, 16, "relu")
    assert (relu >= 0.0).all()
    tanh = sample_latents(rng, 400, 16, "tanh")
    assert (np.abs(tanh) < 1.0).all()
    frac_neg = (tanh < 0.0).mean()
    assert 0.4 < frac_neg < 0.6


def test_single_sample_case():
    case = simulate_case(Scenario(d=8, classes=5, mode="single", seed=1))
    assert case.true_s == 1
    assert numeric_rank(svd(case.delta_w).singular, max_dim=8) == 1


def test_batch_case_rank_matches_n():
    case = simulate_case(Scenario(d=64, classes=100, mode="batch", n=5,
                                  latent="tanh", seed=3))
    sv = svd(case.delta_w).singular
    assert numeric_rank(sv, default_rank_tol(64, 100), max_dim=100) == 5


def test_simulate_case_determinism():
    sc = Scenario(d=16, classes=9, mode="multistep", n=2, k=3,
                  lrs=(0.1, 0.2, 0.05), latent="relu", seed=99)
    a = simulate_case(sc)
    b = simulate_case(sc)
    assert np.array_equal(a.delta_w, b.delta_w)
    assert a.true_labels == b.true_labels


def test_fixed_labels_respected():
    labels = (3, 1, 4, 1, 5, 0)
    sc = Scenario(d=8, classes=6, mode="sequence", n=6, labels=labels, seed=2)
    case = simulate_case(sc)
    assert case.true_labels == labels


def replay_case(sc: Scenario):
    # independent re-derivation of the documented draw order
    rng = np.random.Generator(np.random.Philox(key=sc.seed))
    w = rng.normal(0.0, 0.1, size=(sc.d, sc.classes))
    b = rng.normal(0.0, 0.1, size=sc.classes)
    lrs = sc.step_lrs() or (None,) * sc.k
    total = np.zeros((sc.d, sc.classes))
    labels = []
    g_rows = []
    for step in range(sc.k):
        x = rng.standard_normal((sc.n, sc.d))
        h = {"relu": np.abs(x), "tanh": np.tanh(x), "gauss": x}[sc.latent]
        y = rng.integers(0, sc.classes, size=sc.n) if sc.labels is None else \
            np.asarray(sc.labels[step * sc.n:(step + 1) * sc.n])
        g = np.empty((sc.n, sc.classes))
        for i in range(sc.n):
            g[i] = naive_softmax(h[i] @ w + b)
            g[i, y[i]] -= 1.0
        step_update = (h / sc.n).T @ g
        if sc.mode == "multistep":
            w = w - lrs[step] * step_update
            total += lrs[step] * step_update
        else:
            total += step_update
        labels.extend(int(v) for v in y)
        g_rows.append(g)
    return total, labels, np.vstack(g_rows)


@pytest.mark.parametrize("sc", [
    Scenario(d=10, classes=7, mode="single", seed=5),
    Scenario(d=12, classes=9, mode="batch", n=4, latent="relu", seed=6),
    Scenario(d=12, classes=9, mode="sequence", n=5, latent="tanh", seed=7),
    Scenario(d=12, classes=9, mode="multistep", n=2, k=2, lrs=(0.1, 0.1), seed=8),
])
def test_simulate_matches_stepwise_replay(sc):
    case = simulate_case(sc)
    total, labels, g = replay_case(sc)
    assert case.true_labels == tuple(labels)
    assert np.allclose(case.delta_w, total, atol=1e-12)
    # every generated logit-gradient row is negative exactly at its label
    neg = g < 0.0
    assert (neg.sum(axis=1) == 1).all()
    assert neg[np.arange(len(labels)), labels].all()


def test_multistep_weights_actually_move():
    sc = Scenario(d=12, classes=9, mode="multistep", n=2, k=2, lrs=(0.5, 0.5), seed=13)
    case = simulate_case(sc)
    frozen = simulate_case(Scenario(d=12, classes=9, mode="batch", n=4, seed=13))
    assert not np.allclose(case.delta_w, frozen.delta_w)


def test_initial_state_matches_stream_head():
    sc = Scenario(d=6, classes=4, mode="batch", n=3, seed=21)
    state = initial_state(sc)
    rng = np.random.Generator(np.random.Philox(key=21))
    assert np.array_equal(state.w, rng.normal(0.0, 0.1, size=(6, 4)))
    assert np.array_equal(state.b, rng.normal(0.0, 0.1, size=4))


def test_gradient_case_properties():
    case = GradientCase(scenario=Scenario(d=2, classes=3, mode="batch", n=2, seed=0),
                        delta_w=np.zeros((2, 3)), true_labels=(1, 1))
    assert case.true_s == 2
    assert case.label_set == frozenset({1})
