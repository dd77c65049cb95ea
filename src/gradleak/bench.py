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
from .defense import DefenseSpec, apply_defense
from .gm import gm_gradients, gm_objective, make_problem, reconstruct
from .linalg import svd
from .metrics import length_error, set_score
from .rlg import RlgConfig, rlg_attack
from .simulator import (LATENT_KINDS, Scenario, ToyDecoder, has_sign_structure,
                        logit_grad, sample_latents, simulate_case)


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


def _capture(seed: int, mode: str, n: int = 1, k: int = 1, latent: str = "gauss"):
    """The 64x100 capture of `seed`, the one shape the rank and rlg sweeps draw."""
    return simulate_case(Scenario(d=64, classes=100, mode=mode, n=n, k=k,
                                  latent=latent, seed=seed))


def _rlg_score(case, defense: DefenseSpec | None = None, true_s: bool = False):
    """rlg on the capture's update, or on its `defense` copy, with the true S
    or the rank, scored against the capture's label set."""
    update = case.delta_w if defense is None else apply_defense(case.delta_w, defense)
    cfg = RlgConfig(assume_s=case.true_s) if true_s else RlgConfig()
    return set_score(rlg_attack(update, cfg).labels, case.label_set)


def sign_structure() -> CriterionResult:
    """Every simulated logit-gradient row is negative exactly at its label."""
    samples, d, classes = 1000, 16, 12
    rng = np.random.Generator(np.random.Philox(key=101))
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
        g = logit_grad(h, y, layer)
        ok = ok and has_sign_structure(g, y)
        checked += count
    return CriterionResult("criterion-1 sign structure", ok,
                           {"rows_checked": checked, "violations": 0 if ok else "yes"})


def rank_inference() -> CriterionResult:
    """Single-step rank recovers S; an 8-step aggregate overruns the rank
    ceiling and leaves a positive mean length error."""
    seed = 202
    matches = 0
    total = 0
    for s in range(1, 11):
        for i in range(10):
            case = _capture(seed * 100000 + s * 100 + i, "batch", s)
            matches += int(svd(case.delta_w).rank == s)
            total += 1
    le_by_k = {}
    for k in (4, 8):
        errs = []
        for i in range(20):
            case = _capture(seed * 1000 + k * 50 + i, "multistep", 10, k)
            rank = svd(case.delta_w).rank
            errs.append(length_error(rank, case.true_s))
        le_by_k[k] = sum(errs) / len(errs)
    passed = matches >= 99 and le_by_k[8] > 0.0 and le_by_k[8] >= le_by_k[4]
    return CriterionResult("criterion-2 rank inference", passed,
                           {"single_step_matches": f"{matches}/{total}",
                            "multistep_mean_le_k4": _fmt(le_by_k[4]),
                            "multistep_mean_le_k8": _fmt(le_by_k[8])})


def rlg_completeness() -> CriterionResult:
    """With the true S supplied, every true label is recovered on every case."""
    worst_recall = 1.0
    cases = 0
    modes = (("single", 1, 1), ("batch", 10, 1), ("sequence", 12, 1), ("multistep", 2, 2))
    for m, (mode, n, k) in enumerate(modes):
        for i in range(100):
            case = _capture(303 + 200 * m + i, mode, n, k, LATENT_KINDS[i % 3])
            worst_recall = min(worst_recall, _rlg_score(case, true_s=True).recall)
            cases += 1
    passed = worst_recall == 1.0
    return CriterionResult("criterion-3 rlg completeness", passed,
                           {"cases": cases, "min_recall": _fmt(worst_recall)})


def table1_analog() -> CriterionResult:
    """Signed latents break the column-minimum baseline but not the LP attack;
    on non-negative latents the two agree."""
    seed, sweeps = 404, 100
    em_rlg_tanh = []
    prec_min_tanh = []
    f1_rlg_relu = []
    f1_min_relu = []
    for i in range(sweeps):
        tanh_case = _capture(seed + i, "batch", 10, latent="tanh")
        em_rlg_tanh.append(_rlg_score(tanh_case).exact_match)
        base = min_column_attack(tanh_case.delta_w)
        prec_min_tanh.append(set_score(base.labels, tanh_case.label_set).precision)

        relu_case = _capture(seed + 10000 + i, "batch", 10, latent="relu")
        f1_rlg_relu.append(_rlg_score(relu_case).f1)
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


def idlg_oracle() -> CriterionResult:
    """Single-sample dot-product recovery succeeds on every case."""
    cases, seed = 1000, 505
    hits = 0
    for i in range(cases):
        sc = Scenario(d=16, classes=10, mode="single",
                      latent=LATENT_KINDS[i % 3], seed=seed + i)
        case = simulate_case(sc)
        hits += int(idlg_single(case.delta_w) == case.true_labels[0])
    passed = hits == cases
    return CriterionResult("criterion-5 single-sample oracle", passed,
                           {"recovered": f"{hits}/{cases}"})


def table2_analog() -> CriterionResult:
    """Multi-sample single-step is exact; multi-step may only improve when the
    true count is supplied."""
    seed, sweeps = 606, 50
    em_single_step = {}
    for n in (4, 8):
        ems = []
        for i in range(sweeps):
            case = _capture(seed + n * 1000 + i, "batch", n, latent="tanh")
            ems.append(_rlg_score(case, true_s=True).exact_match)
        em_single_step[n] = sum(ems) / sweeps
    em_multi = {}
    for k in (4, 8):
        with_true = []
        without = []
        for i in range(sweeps):
            case = _capture(seed + k * 2000 + i, "multistep", 1, k, "tanh")
            with_true.append(_rlg_score(case, true_s=True).exact_match)
            without.append(_rlg_score(case).exact_match)
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


def table3_analog() -> CriterionResult:
    """Compression defenses degrade the attack: heavier dropping hurts more
    and sign quantization is near-total."""
    seed, sweeps = 707, 100
    defenses = {"none": None, "drop50": DefenseSpec("drop", 0.5),
                "drop90": DefenseSpec("drop", 0.9), "sign": DefenseSpec("sign")}
    ems = {name: [] for name in defenses}
    for i in range(sweeps):
        case = _capture(seed + i, "batch", 10, latent="tanh")
        for name, spec in defenses.items():
            ems[name].append(_rlg_score(case, spec, true_s=True).exact_match)
    rates = {k: sum(v) / sweeps for k, v in ems.items()}
    passed = (rates["none"] >= rates["drop50"] >= rates["drop90"]
              and rates["sign"] <= 0.1)
    return CriterionResult("criterion-7 table-3 analog", passed,
                           {"em_none": _fmt(rates["none"]),
                            "em_drop50": _fmt(rates["drop50"]),
                            "em_drop90": _fmt(rates["drop90"]),
                            "em_sign": _fmt(rates["sign"])})


def _finite_difference(objective, x: np.ndarray) -> np.ndarray:
    h = 1e-6
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


def gm_gradient_check() -> CriterionResult:
    """Analytic matching-objective gradient agrees with central differences."""
    instances, seed = 20, 808
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
    passed = worst <= 1e-5
    return CriterionResult("criterion-8 gm gradient check", passed,
                           {"instances": instances, "worst_rel_err": f"{worst:.2e}"})


def table4_instance(seed: int) -> tuple[ToyDecoder, np.ndarray, list[int]]:
    """The table-4 gm instance of `seed`: (decoder, context, labels), a
    d_A=8, C=50 decoder and three distinct labels."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    # decisive logits (weight scale) and per-position offsets (order
    # identifiability) make the restricted search well-posed
    decoder = ToyDecoder(w=rng.normal(0.0, 0.7, (8, 50)),
                         b=rng.normal(0.0, 0.1, 50),
                         pos=rng.normal(0.0, 1.0, (3, 50)))
    labels = [int(c) for c in rng.choice(50, size=3, replace=False)]
    return decoder, rng.normal(0.0, 1.0, (3, 8)), labels


def table4_analog() -> CriterionResult:
    """Restricting reconstruction to the label set rlg recovers from the
    target update turns failure into near-perfect transcripts and shrinks
    the variable count."""
    instances, seed = 20, 909
    em_with = []
    em_without = []
    n_vars_pair = None
    for i in range(instances):
        decoder, context, labels = table4_instance(seed + i)
        prob_free = make_problem(decoder, context, labels, bow=None)
        pred = rlg_attack(prob_free.target_grad, RlgConfig(assume_s=len(labels)))
        prob_bow = make_problem(decoder, context, labels, bow=tuple(sorted(pred.labels)))
        res_bow = reconstruct(prob_bow, seed=seed + i, restarts=5, truth=labels)
        res_free = reconstruct(prob_free, seed=seed + i, restarts=5, truth=labels)
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


def structural_invariance() -> CriterionResult:
    """The recovered set is invariant to positive scaling and to invertible
    maps of the latent side."""
    cases, transforms, seed = 10, 20, 1010
    ok = True
    for i in range(cases):
        case = _capture(seed + i, "batch", 5, latent=LATENT_KINDS[i % 3])
        d = case.delta_w.shape[0]
        cfg = RlgConfig(assume_s=case.true_s)
        base = rlg_attack(case.delta_w, cfg).labels
        for lam in (3.7, 1e-3):
            ok = ok and rlg_attack(lam * case.delta_w, cfg).labels == base
        rng = np.random.Generator(np.random.Philox(key=seed + 999 + i))
        for _ in range(transforms):
            m = rng.normal(0.0, 1.0, (d, d))
            ok = ok and rlg_attack(m @ case.delta_w, cfg).labels == base
        if not ok:
            break
    return CriterionResult("criterion-10 structural invariance", ok,
                           {"cases": cases, "transforms_per_case": transforms + 2})


def svd_quality() -> CriterionResult:
    """Reconstruction and orthonormality gates on random shapes up to 128x256."""
    samples = 100
    rng = np.random.Generator(np.random.Philox(key=1111))
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
        r = res.rank
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
