"""Acceptance sweeps: every release gate in one place.

Each criterion function runs a fixed-seed sweep and returns a
:class:`CriterionResult` with the measured values, so the test suite and the
``bench`` CLI subcommand share one implementation.  Gates marked as table
analogs replicate the qualitative pattern of the corresponding full-scale
experiment at desk scale.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .baselines import idlg_single, min_column_attack
from .defense import grad_drop, sign_sgd
from .gm import gm_gradients, gm_objective, make_problem, reconstruct
from .linalg import svd
from .metrics import length_error, set_score
from .rlg import RlgConfig, rlg_attack
from .simulator import (LATENT_KINDS, Scenario, ToyDecoder, projection_grad,
                        sample_latents, simulate_case)


@dataclass(frozen=True)
class CriterionResult:
    criterion: str
    passed: bool
    details: dict

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        parts = " ".join(f"{k}={v}" for k, v in self.details.items())
        return f"{status}  {self.criterion}: {parts}"


def _fmt(x: float) -> float:
    return round(float(x), 4)


def sign_structure(samples: int = 1000, d: int = 16, classes: int = 12,
                   seed: int = 101) -> CriterionResult:
    """Every simulated logit-gradient row is negative exactly at its label."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    layer = ToyDecoder(w=rng.normal(0.0, 0.1, (d, classes)),
                       b=rng.normal(0.0, 0.1, classes))
    per_kind = samples // len(LATENT_KINDS)
    counts = [per_kind] * (len(LATENT_KINDS) - 1)
    counts.append(samples - sum(counts))
    ok = True
    checked = 0
    for kind, count in zip(LATENT_KINDS, counts):
        h = sample_latents(rng, count, d, kind)
        y = rng.integers(0, classes, size=count)
        _, g = projection_grad(h, y, layer)
        neg = g < 0.0
        ok = ok and bool((neg.sum(axis=1) == 1).all())
        ok = ok and bool(neg[np.arange(count), y].all())
        checked += count
    return CriterionResult("criterion-1 sign structure", ok,
                           {"rows_checked": checked, "violations": 0 if ok else "yes"})


def rank_inference(seed: int = 202) -> CriterionResult:
    """Single-step rank recovers S; an 8-step aggregate overruns the rank
    ceiling and leaves a positive mean length error."""
    matches = 0
    total = 0
    for s in range(1, 11):
        for i in range(10):
            sc = Scenario(d=64, classes=100, mode="batch", n=s, latent="gauss",
                          seed=seed * 100000 + s * 100 + i)
            case = simulate_case(sc)
            rank = svd(case.delta_w).rank
            matches += int(rank == s)
            total += 1
    le_by_k = {}
    for k in (4, 8):
        errs = []
        for i in range(20):
            sc = Scenario(d=64, classes=100, mode="multistep", n=10, k=k,
                          latent="gauss", seed=seed * 1000 + k * 50 + i)
            case = simulate_case(sc)
            rank = svd(case.delta_w).rank
            errs.append(length_error(rank, case.true_s))
        le_by_k[k] = sum(errs) / len(errs)
    passed = matches >= 99 and le_by_k[8] > 0.0 and le_by_k[8] >= le_by_k[4]
    return CriterionResult("criterion-2 rank inference", passed,
                           {"single_step_matches": f"{matches}/{total}",
                            "multistep_mean_le_k4": _fmt(le_by_k[4]),
                            "multistep_mean_le_k8": _fmt(le_by_k[8])})


def _mode_sweep_scenarios(seed: int):
    kinds = LATENT_KINDS
    scenarios = []
    for i in range(100):
        scenarios.append(Scenario(d=64, classes=100, mode="single",
                                  latent=kinds[i % 3], seed=seed + i))
    for i in range(100):
        scenarios.append(Scenario(d=64, classes=100, mode="batch", n=10,
                                  latent=kinds[i % 3], seed=seed + 200 + i))
    for i in range(100):
        scenarios.append(Scenario(d=64, classes=100, mode="sequence", n=12,
                                  latent=kinds[i % 3], seed=seed + 400 + i))
    for i in range(100):
        scenarios.append(Scenario(d=64, classes=100, mode="multistep", n=2, k=2,
                                  latent=kinds[i % 3], seed=seed + 600 + i))
    return scenarios


def rlg_completeness(seed: int = 303) -> CriterionResult:
    """With the true S supplied, every true label is recovered on every case."""
    worst_recall = 1.0
    cases = 0
    for sc in _mode_sweep_scenarios(seed):
        case = simulate_case(sc)
        pred = rlg_attack(case.delta_w, RlgConfig(assume_s=case.true_s))
        score = set_score(pred.labels, case.label_set)
        worst_recall = min(worst_recall, score.recall)
        cases += 1
    passed = worst_recall == 1.0
    return CriterionResult("criterion-3 rlg completeness", passed,
                           {"cases": cases, "min_recall": _fmt(worst_recall)})


def table1_analog(seed: int = 404, sweeps: int = 100) -> CriterionResult:
    """Signed latents break the column-minimum baseline but not the LP attack;
    on non-negative latents the two agree."""
    em_rlg_tanh = []
    prec_min_tanh = []
    f1_rlg_relu = []
    f1_min_relu = []
    for i in range(sweeps):
        tanh_case = simulate_case(Scenario(d=64, classes=100, mode="batch", n=10,
                                           latent="tanh", seed=seed + i))
        pred = rlg_attack(tanh_case.delta_w)
        em_rlg_tanh.append(set_score(pred.labels, tanh_case.label_set).exact_match)
        base = min_column_attack(tanh_case.delta_w)
        prec_min_tanh.append(set_score(base.labels, tanh_case.label_set).precision)

        relu_case = simulate_case(Scenario(d=64, classes=100, mode="batch", n=10,
                                           latent="relu", seed=seed + 10000 + i))
        pred_r = rlg_attack(relu_case.delta_w)
        f1_rlg_relu.append(set_score(pred_r.labels, relu_case.label_set).f1)
        base_r = min_column_attack(relu_case.delta_w)
        f1_min_relu.append(set_score(base_r.labels, relu_case.label_set).f1)
    em_rate = sum(em_rlg_tanh) / sweeps
    prec_mean = sum(prec_min_tanh) / sweeps
    f1_gap = abs(sum(f1_rlg_relu) / sweeps - sum(f1_min_relu) / sweeps)
    passed = em_rate >= 0.95 and prec_mean < 0.5 and f1_gap <= 0.02
    return CriterionResult("criterion-4 table-1 analog", passed,
                           {"rlg_tanh_em": _fmt(em_rate),
                            "mincol_tanh_precision": _fmt(prec_mean),
                            "relu_f1_gap": _fmt(f1_gap)})


def idlg_oracle(cases: int = 1000, seed: int = 505) -> CriterionResult:
    """Single-sample dot-product recovery succeeds on every case."""
    hits = 0
    for i in range(cases):
        sc = Scenario(d=16, classes=10, mode="single",
                      latent=LATENT_KINDS[i % 3], seed=seed + i)
        case = simulate_case(sc)
        hits += int(idlg_single(case.delta_w) == case.true_labels[0])
    passed = hits == cases
    return CriterionResult("criterion-5 single-sample oracle", passed,
                           {"recovered": f"{hits}/{cases}"})


def table2_analog(seed: int = 606, sweeps: int = 50) -> CriterionResult:
    """Multi-sample single-step is exact; multi-step may only improve when the
    true count is supplied."""
    em_single_step = {}
    for n in (4, 8):
        ems = []
        for i in range(sweeps):
            case = simulate_case(Scenario(d=64, classes=100, mode="batch", n=n,
                                          latent="tanh", seed=seed + n * 1000 + i))
            pred = rlg_attack(case.delta_w, RlgConfig(assume_s=case.true_s))
            ems.append(set_score(pred.labels, case.label_set).exact_match)
        em_single_step[n] = sum(ems) / sweeps
    em_multi = {}
    for k in (4, 8):
        with_true = []
        without = []
        for i in range(sweeps):
            case = simulate_case(Scenario(d=64, classes=100, mode="multistep",
                                          n=1, k=k, latent="tanh",
                                          seed=seed + k * 2000 + i))
            pred_w = rlg_attack(case.delta_w, RlgConfig(assume_s=case.true_s))
            with_true.append(set_score(pred_w.labels, case.label_set).exact_match)
            pred_wo = rlg_attack(case.delta_w)
            without.append(set_score(pred_wo.labels, case.label_set).exact_match)
        em_multi[k] = (sum(with_true) / sweeps, sum(without) / sweeps)
    passed = (em_single_step[4] == 1.0 and em_single_step[8] == 1.0
              and all(w >= wo for w, wo in em_multi.values()))
    return CriterionResult("criterion-6 table-2 analog", passed,
                           {"em_n4_k1": _fmt(em_single_step[4]),
                            "em_n8_k1": _fmt(em_single_step[8]),
                            "em_k4_true_s": _fmt(em_multi[4][0]),
                            "em_k4_inferred": _fmt(em_multi[4][1]),
                            "em_k8_true_s": _fmt(em_multi[8][0]),
                            "em_k8_inferred": _fmt(em_multi[8][1])})


def table3_analog(seed: int = 707, sweeps: int = 100) -> CriterionResult:
    """Compression defenses degrade the attack: heavier dropping hurts more
    and sign quantization is near-total."""
    ems = {"none": [], "drop50": [], "drop90": [], "sign": []}
    for i in range(sweeps):
        case = simulate_case(Scenario(d=64, classes=100, mode="batch", n=10,
                                      latent="tanh", seed=seed + i))
        cfg = RlgConfig(assume_s=case.true_s)
        variants = {
            "none": case.delta_w,
            "drop50": grad_drop(case.delta_w, 0.5),
            "drop90": grad_drop(case.delta_w, 0.9),
            "sign": sign_sgd(case.delta_w),
        }
        for name, mat in variants.items():
            pred = rlg_attack(mat, cfg)
            ems[name].append(set_score(pred.labels, case.label_set).exact_match)
    rates = {k: sum(v) / sweeps for k, v in ems.items()}
    passed = (rates["none"] >= rates["drop50"] >= rates["drop90"]
              and rates["sign"] <= 0.1)
    return CriterionResult("criterion-7 table-3 analog", passed,
                           {"em_none": _fmt(rates["none"]),
                            "em_drop50": _fmt(rates["drop50"]),
                            "em_drop90": _fmt(rates["drop90"]),
                            "em_sign": _fmt(rates["sign"])})


def _finite_difference(objective, x: np.ndarray, h: float = 1e-6) -> np.ndarray:
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    out = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        up = objective()
        flat[i] = orig - h
        down = objective()
        flat[i] = orig
        out[i] = (up - down) / (2.0 * h)
    return grad


def gm_gradient_check(instances: int = 20, seed: int = 808,
                      tol: float = 1e-5) -> CriterionResult:
    """Analytic matching-objective gradient agrees with central differences."""
    worst = 0.0
    for i in range(instances):
        rng = np.random.Generator(np.random.Philox(key=seed + i))
        decoder = ToyDecoder(w=rng.normal(0.0, 0.1, (5, 12)),
                             b=rng.normal(0.0, 0.1, 12))
        labels = rng.choice(12, size=3, replace=False)
        context = rng.normal(0.0, 1.0, (3, 5))
        bow = tuple(sorted(int(c) for c in labels))
        for restricted in (True, False):
            prob = make_problem(decoder, context, labels,
                                bow=bow if restricted else None, lam=1.0)
            a = rng.normal(0.0, 0.7, (3, 5))
            p = rng.normal(0.0, 0.7, (3, prob.width))
            ga, gp = gm_gradients(a, p, prob)
            fa = _finite_difference(lambda: gm_objective(a, p, prob), a)
            fp = _finite_difference(lambda: gm_objective(a, p, prob), p)
            analytic = np.concatenate([ga.reshape(-1), gp.reshape(-1)])
            numeric = np.concatenate([fa.reshape(-1), fp.reshape(-1)])
            rel = float(np.linalg.norm(numeric - analytic)
                        / max(np.linalg.norm(analytic), 1e-12))
            worst = max(worst, rel)
    passed = worst <= tol
    return CriterionResult("criterion-8 gm gradient check", passed,
                           {"instances": instances, "worst_rel_err": f"{worst:.2e}"})


def table4_analog(instances: int = 20, seed: int = 909,
                  restarts: int = 5) -> CriterionResult:
    """Restricting reconstruction to the recovered label set turns failure
    into near-perfect transcripts and shrinks the variable count."""
    em_with = []
    em_without = []
    n_vars_pair = None
    for i in range(instances):
        rng = np.random.Generator(np.random.Philox(key=seed + i))
        # decisive logits (weight scale) and per-position offsets (order
        # identifiability) make the restricted search well-posed
        decoder = ToyDecoder(w=rng.normal(0.0, 0.7, (8, 50)),
                             b=rng.normal(0.0, 0.1, 50),
                             pos=rng.normal(0.0, 1.0, (3, 50)))
        labels = [int(c) for c in rng.choice(50, size=3, replace=False)]
        context = rng.normal(0.0, 1.0, (3, 8))
        bow = tuple(sorted(set(labels)))
        # regularizer weight scaled to the toy target's gradient-distance
        # magnitude; the full-scale weight of 1 swamps the matching term
        # near the optimum and keeps transcripts from stabilizing
        prob_bow = make_problem(decoder, context, labels, bow=bow, lam=0.1)
        prob_free = make_problem(decoder, context, labels, bow=None, lam=0.1)
        res_bow = reconstruct(prob_bow, seed=seed + i, restarts=restarts, truth=labels)
        res_free = reconstruct(prob_free, seed=seed + i, restarts=restarts, truth=labels)
        em_with.append(bool(res_bow.exact_match))
        em_without.append(bool(res_free.exact_match))
        n_vars_pair = (res_bow.n_vars, res_free.n_vars)
    em_w = sum(em_with) / instances
    em_wo = sum(em_without) / instances
    passed = em_w >= 0.9 and em_w > em_wo and n_vars_pair[0] < n_vars_pair[1]
    return CriterionResult("criterion-9 table-4 analog", passed,
                           {"em_with_bow": _fmt(em_w), "em_without_bow": _fmt(em_wo),
                            "vars_with_bow": n_vars_pair[0],
                            "vars_without_bow": n_vars_pair[1]})


def structural_invariance(cases: int = 10, transforms: int = 20,
                          seed: int = 1010) -> CriterionResult:
    """The recovered set is invariant to positive scaling and to invertible
    maps of the latent side."""
    ok = True
    for i in range(cases):
        case = simulate_case(Scenario(d=64, classes=100, mode="batch", n=5,
                                      latent=LATENT_KINDS[i % 3], seed=seed + i))
        cfg = RlgConfig(assume_s=case.true_s)
        base = rlg_attack(case.delta_w, cfg).labels
        for lam in (3.7, 1e-3):
            ok = ok and rlg_attack(lam * case.delta_w, cfg).labels == base
        rng = np.random.Generator(np.random.Philox(key=seed + 999 + i))
        for _ in range(transforms):
            m = rng.normal(0.0, 1.0, (64, 64))
            ok = ok and rlg_attack(m @ case.delta_w, cfg).labels == base
        if not ok:
            break
    return CriterionResult("criterion-10 structural invariance", ok,
                           {"cases": cases, "transforms_per_case": transforms + 2})


def svd_quality(samples: int = 100, seed: int = 1111) -> CriterionResult:
    """Reconstruction and orthonormality gates on random shapes up to 128x256."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    worst_recon = 0.0
    worst_orth = 0.0
    for i in range(samples):
        rows = int(rng.integers(1, 129))
        cols = int(rng.integers(1, 257))
        if i % 3 == 0 and min(rows, cols) > 1:
            inner = int(rng.integers(1, min(rows, cols)))
            a = rng.normal(size=(rows, inner)) @ rng.normal(size=(inner, cols))
        else:
            a = rng.normal(size=(rows, cols))
        res = svd(a)
        denom = max(float(np.linalg.norm(a)), 1e-300)
        recon = float(np.linalg.norm(res.reconstruct() - a)) / denom
        r = res.singular.shape[0]
        orth_l = float(np.abs(res.left.T @ res.left - np.eye(r)).max())
        orth_r = float(np.abs(res.right @ res.right.T - np.eye(r)).max())
        worst_recon = max(worst_recon, recon)
        worst_orth = max(worst_orth, orth_l, orth_r)
    passed = worst_recon <= 1e-8 and worst_orth <= 1e-10
    return CriterionResult("criterion-11 svd quality gates", passed,
                           {"matrices": samples,
                            "worst_recon_rel": f"{worst_recon:.2e}",
                            "worst_orthonormality": f"{worst_orth:.2e}"})


SUITES = {
    "table1": (table1_analog,),
    "table2": (rank_inference, table2_analog),
    "table3": (table3_analog,),
    "table4": (gm_gradient_check, table4_analog),
}


def run_suite(name: str) -> list[CriterionResult]:
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}, expected one of {sorted(SUITES)}")
    return [fn() for fn in SUITES[name]]
