import numpy as np
import pytest

from gradleak.baselines import NotSingleSampleError, idlg_single, min_column_attack
from gradleak.bench import _capture
from gradleak.metrics import set_score
from gradleak.simulator import Scenario, simulate_case


def test_idlg_uniform_softmax_example():
    delta_w = np.array([[1 / 3, -2 / 3, 1 / 3], [0.0, 0.0, 0.0]])
    assert idlg_single(delta_w) == 1


def test_idlg_recovers_every_single_sample_case():
    kinds = ("relu", "tanh", "gauss")
    for seed in range(1000):
        case = simulate_case(Scenario(d=8, classes=5, mode="single",
                                      latent=kinds[seed % 3], seed=seed))
        assert idlg_single(case.delta_w) == case.true_labels[0]


def test_idlg_rejects_two_sample_batch():
    case = simulate_case(Scenario(d=8, classes=6, mode="batch", n=2,
                                  labels=(1, 4), seed=0))
    with pytest.warns(RuntimeWarning):
        with pytest.raises(NotSingleSampleError):
            idlg_single(case.delta_w)


def test_idlg_warns_even_when_two_sample_signature_collapses():
    # some batches leave a single qualifying column; the rank check still warns
    case = simulate_case(Scenario(d=8, classes=6, mode="batch", n=2,
                                  labels=(1, 4), seed=1))
    with pytest.warns(RuntimeWarning):
        label = idlg_single(case.delta_w)
    assert label in {1, 4}


def test_idlg_ignores_zero_columns():
    # a true rank-1 single-sample structure with one dead class column
    h = np.array([2.0, -1.0, 0.5])
    g = np.array([0.2, -0.7, 0.0, 0.5])
    delta_w = np.outer(h, g)
    assert idlg_single(delta_w) == 1


def test_min_column_examples():
    delta_w = np.array([[1 / 3, -2 / 3, 1 / 3], [0.0, 0.0, 0.0]])
    pred = min_column_attack(delta_w)
    assert pred.labels == {1}
    assert pred.inferred_s == 1

    pred = min_column_attack(np.abs(np.random.default_rng(0).normal(size=(4, 6))))
    assert pred.labels == frozenset()
    assert pred.inferred_s == 0


def test_min_column_strictly_negative_only():
    # exact zeros (as left by heavy dropping) do not count as negative
    delta_w = np.array([[0.0, -1.0], [0.0, 2.0]])
    assert min_column_attack(delta_w).labels == {1}


def test_min_column_relu_sweep_perfect_precision():
    precisions = []
    recalls = []
    for seed in range(100):
        case = _capture(3000 + seed, "batch", n=10, latent="relu")
        score = set_score(min_column_attack(case.delta_w).labels, case.label_set)
        precisions.append(score.precision)
        recalls.append(score.recall)
    assert all(p == 1.0 for p in precisions)
    assert sum(recalls) / len(recalls) >= 0.95


def test_min_column_tanh_sweep_poor_precision():
    precisions = []
    for seed in range(100):
        case = _capture(4000 + seed, "batch", n=10, latent="tanh")
        precisions.append(set_score(min_column_attack(case.delta_w).labels,
                                    case.label_set).precision)
    assert sum(precisions) / len(precisions) < 0.5
