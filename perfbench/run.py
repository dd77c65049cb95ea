"""gradleak benchmark: end-to-end attack and reconstruction times, plus a
traced run for per-layer self times.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Workloads (see README.md for why each exists):

    sweep-64x100   `gradleak attack` rlg/mincol/idlg on 64x100 captures and
                   their drop90/sign copies; per-label LPs dominate
    vocab-16k      `gradleak attack rlg --delta-grd` at 64x16000; the screen
                   dominates
    wide-512x2000  `gradleak attack rlg --delta-grd` at 512x2000; the Jacobi
                   SVD dominates
    gm-table4      `gm.make_problem`, `rlg_attack` and `gm.reconstruct` on
                   table-4-style instances; gm gradient steps dominate

A case is one gm instance, one capture (wide, vocab), or one capture of each
mode drawn with one latent (sweep), plus every operation the workload
applies to it.  Set-up (simulate, defend, write the case,
.grd and fixture files) runs in a separate process before timing, so
`peak_rss_mb` is the timed process's own peak.  The timed phase walks the
case set in whole passes, at least two (one when traced) and more while the
next pass would end within `--seconds`; a case's end-to-end time is the
median of its passes, each scaled to a fixed host speed gauged by a
reference loop run before every program call (see _at_reference_speed and
README.md).  Operations run serially in this process with one BLAS
thread.  `vocab-16k` is for runs by hand: it is too slow to be listed in
BENCHMARK.json (see README.md).

The last stdout line is one JSON object: `correct`, `attempted`, `failed`
and `metrics` (the end-to-end metrics with --trace 0, the per-layer metrics
with --trace 1).  The line before it holds the run environment, quality
figures, digest and tail percentile.  The exit code is non-zero when the
program cannot be imported or the run breaks.
"""

from __future__ import annotations

import os

# one BLAS/OpenMP thread, fixed before numpy loads (inherited by the set-up
# process as well)
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import functools
import hashlib
import io
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")
if not os.path.isfile(os.path.join(SRC, "gradleak", "__init__.py")):
    sys.exit(f"perfbench: no program source under {SRC}; run from a repository checkout")
sys.path.insert(0, SRC)
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402

import gradleak.baselines  # noqa: E402
import gradleak.caseio  # noqa: E402
import gradleak.cli  # noqa: E402
import gradleak.defense  # noqa: E402
import gradleak.gm  # noqa: E402
import gradleak.rlg  # noqa: E402
import gradleak.simulator  # noqa: E402
from spans import Tracer  # noqa: E402

LATENTS = ("tanh", "relu", "gauss")
# table-4 settings: 5 restarts, lambda 0.1.  The step cap is lowered from the
# default 50000 so that each restart costs 2000 (stable_steps) to 2500 steps.
# At the default cap, 6 of 16 instances ran 3.3-21 s against ~2.2 s for the
# rest, so a run of a few instances could not give a steady figure.
GM_RESTARTS = 5
GM_LAMBDA = 0.1
# every case runs in at least this many passes of an untraced run
MIN_PASSES = 2
# set-up is repeated in rounds over all cases: at least SETUP_MIN_ROUNDS, more
# while the set-up has run for under SETUP_MIN_SECONDS (the millisecond gm
# fixtures), up to SETUP_MAX_ROUNDS; and no third round once it has run for
# SETUP_MAX_SECONDS (the 2.3 s wide captures)
SETUP_MIN_ROUNDS = 3
SETUP_MIN_SECONDS = 0.5
SETUP_MAX_ROUNDS = 50
SETUP_MAX_SECONDS = 8.0
# The reference loop's time on the host the baseline was recorded on, at
# that host's fast speed.  Every time the benchmark reports is scaled to this
# speed (see _at_reference_speed).
REF_SECONDS = 0.003

# per workload and scale: shapes and how many cases one run holds.  "tiny"
# is for the self-test only.
WORKLOADS = {
    "sweep-64x100": {
        "full": {"d": 64, "classes": 100, "rounds": 3,
                 "kinds": (("single", 1, 1), ("batch", 10, 1),
                           ("sequence", 12, 1), ("multistep", 2, 2))},
        "tiny": {"d": 8, "classes": 12, "rounds": 1, "degenerate": True,
                 "kinds": (("single", 1, 1), ("batch", 3, 1),
                           ("sequence", 3, 1), ("multistep", 1, 2))},
    },
    "vocab-16k": {
        "full": {"d": 64, "classes": 16000, "n": 10},
        "tiny": {"d": 8, "classes": 520, "n": 3},
    },
    "wide-512x2000": {
        "full": {"d": 512, "classes": 2000, "n": 16},
        "tiny": {"d": 16, "classes": 40, "n": 4},
    },
    "gm-table4": {
        "full": {"d_a": 8, "classes": 50, "s": 3, "instances": 6,
                 "max_steps": 2500, "restarts": GM_RESTARTS},
        "tiny": {"d_a": 4, "classes": 10, "s": 2, "instances": 1,
                 "max_steps": 300, "restarts": 2},
    },
}

END_TO_END_UNITS = {
    "cases_per_s": "1/s",
    "case_s_p50": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

PER_LAYER_UNITS = {
    "rlg.lp.s": "s/case",
    "rlg.lp.calls": "count/case",
    "rlg.lp.us_p50": "us",
    "rlg.lp.feasible_ratio": "ratio",
    "rlg.lp.cap_hits": "count/case",
    "rlg.screen.s": "s/case",
    "rlg.screen.kept_ratio": "ratio",
    "rlg.self.s": "s/case",
    "linalg.svd.s": "s/case",
    "linalg.svd.calls": "count/case",
    "caseio.load_case.s": "s/case",
    "caseio.read_grd.s": "s/case",
    "caseio.bytes_read": "B/case",
    "caseio.save_report.s": "s/case",
    "caseio.save_case.s": "s/case",
    "caseio.write_grd.s": "s/case",
    "simulator.simulate_case.s": "s/case",
    "defense.apply_defense.s": "s/case",
    "baselines.s": "s/case",
    "cli.self.s": "s/case",
    "gm.make_problem.s": "s/case",
    "gm.reconstruct.s": "s/case",
    "gm.self.s": "s/case",
    "gm.gm_gradients.s": "s/case",
    "gm.gm_gradients.calls": "count/case",
    "gm.step_us": "us",
    "trace.coverage": "ratio",
    "trace.overhead": "ratio",
}

# span name -> per-layer metric holding its self time, for the timed phase
TIMED_LAYERS = {
    "cli.main": "cli.self.s",
    "caseio.load_case": "caseio.load_case.s",
    "caseio.read_grd": "caseio.read_grd.s",
    "caseio.save_report": "caseio.save_report.s",
    "rlg.rlg_attack": "rlg.self.s",
    "rlg.screen": "rlg.screen.s",
    "rlg.lp_feasible": "rlg.lp.s",
    "linalg.svd": "linalg.svd.s",
    "baselines.idlg_single": "baselines.s",
    "baselines.min_column_attack": "baselines.s",
    "gm.make_problem": "gm.make_problem.s",
    "gm.reconstruct": "gm.self.s",
    "gm.gm_gradients": "gm.gm_gradients.s",
}
SETUP_LAYERS = {
    "simulator.simulate_case": "simulator.simulate_case.s",
    "defense.apply_defense": "defense.apply_defense.s",
    "caseio.save_case": "caseio.save_case.s",
    "caseio.write_grd": "caseio.write_grd.s",
}


# --------------------------------------------------------------- host speed


_REF_RNG = np.random.default_rng(20211031)
_REF_M = _REF_RNG.normal(size=(24, 40))
_REF_V = _REF_RNG.normal(size=40)


def _reference_loop() -> float:
    """Seconds taken by a fixed piece of work that calls nothing in the
    program: a Python integer loop and small numpy array updates, the two
    kinds of work the program is made of.  It gauges the host's speed at the
    moment: a shared host slows everything on it by up to 2x, for anything
    from a fraction of a second to minutes."""
    start = time.perf_counter()
    total = 0
    for i in range(20000):
        total += i * i
    x = _REF_M
    for _ in range(100):
        y = x @ _REF_V
        x = x + 0.001 * np.outer(y, x[int(np.argmax(y))])
        x /= np.abs(x).max()
    return time.perf_counter() - start


def _at_reference_speed(samples, refs):
    """Per-case seconds, scaled to the reference speed.

    `samples[i][r]` is case i's time in round r (a pass of the timed phase,
    or a round of set-up) and `refs[i][r]` the reference loop times gauged
    around its program calls.  Each time is scaled by REF_SECONDS over the
    mean of its gauges, and a case's time is the median of its rounds.
    """
    return [statistics.median(t * REF_SECONDS / statistics.fmean(g)
                              for t, g in zip(ts, gs))
            for ts, gs in zip(samples, refs)]


# --------------------------------------------------------------- set-up


def _derived_seed(seed: int, index: int) -> int:
    return (seed * 1_000_003 + index) % (2 ** 63)


def _attack_op(name, attack, path, *extra, truth, clean=False, truth_single=False):
    """One `gradleak attack` call; `truth` names the capture it is scored on."""
    return {"name": name, "argv": ["attack", attack, path, *extra], "truth": truth,
            "clean": clean, "truth_single": truth_single}


def _sweep_builds(p, seed, workdir):
    """A case is one capture of every mode drawn with the same latent, so
    per-case times are not a mix of 0.07 s single-sample captures and 0.5 s
    batches whose median would fall in the gap between the two."""
    sim, caseio, defense = gradleak.simulator, gradleak.caseio, gradleak.defense

    def build(cid, latent, first_index):
        truth, ops = {}, []
        for offset, (mode, n, k) in enumerate(p["kinds"]):
            name = f"{cid}-{mode}"
            sc = sim.Scenario(d=p["d"], classes=p["classes"], mode=mode, n=n, k=k,
                              lrs=(0.1,) * k if mode == "multistep" else None,
                              latent=latent, seed=_derived_seed(seed, first_index + offset))
            case = sim.simulate_case(sc)
            truth[mode] = list(case.true_labels)
            clean = os.path.join(workdir, name + ".json")
            caseio.save_case(clean, case)
            copies = {}
            for tag, spec in (("drop90", defense.DefenseSpec("drop", 0.9)),
                              ("sign", defense.DefenseSpec("sign"))):
                copies[tag] = os.path.join(workdir, f"{name}-{tag}.json")
                defended = sim.GradientCase(
                    scenario=sc, delta_w=defense.apply_defense(case.delta_w, spec),
                    true_labels=case.true_labels)
                caseio.save_case(copies[tag], defended, defense_applied=spec)
            ops += [_attack_op(f"{mode}/rlg", "rlg", clean, truth=mode, clean=True),
                    _attack_op(f"{mode}/rlg-drop90", "rlg", copies["drop90"],
                               "--use-true-s", truth=mode),
                    _attack_op(f"{mode}/rlg-sign", "rlg", copies["sign"],
                               "--use-true-s", truth=mode),
                    _attack_op(f"{mode}/mincol", "mincol", clean, truth=mode)]
            if mode == "single":
                ops.append(_attack_op(f"{mode}/idlg", "idlg", clean, truth=mode,
                                      truth_single=True))
        return {"id": cid, "truth": truth, "ops": ops}

    def build_zero():
        # an all-zero update: rlg must fail with DegenerateUpdateError, and the
        # run must count that failure and carry on
        sc = sim.Scenario(d=p["d"], classes=p["classes"], mode="batch", n=2, seed=seed)
        zero = sim.GradientCase(scenario=sc, delta_w=np.zeros((p["d"], p["classes"])),
                                true_labels=(0, 1))
        path = os.path.join(workdir, "zero.json")
        caseio.save_case(path, zero)
        return {"id": "zero", "truth": {"batch": [0, 1]},
                "ops": [_attack_op("batch/rlg", "rlg", path, truth="batch")]}

    index = 0
    for r in range(p["rounds"]):
        for latent in LATENTS:
            yield functools.partial(build, f"c{r:02d}-{latent}", latent, index)
            index += len(p["kinds"])
    if p.get("degenerate"):
        yield build_zero


def _grd_builds(p, seed, workdir):
    """One rlg attack per capture through the --delta-grd sidecar path."""
    sim, caseio = gradleak.simulator, gradleak.caseio

    def build(i, latent):
        cid = f"c{i:02d}-{latent}"
        sc = sim.Scenario(d=p["d"], classes=p["classes"], mode="batch", n=p["n"],
                          latent=latent, seed=_derived_seed(seed, i))
        case = sim.simulate_case(sc)
        path = os.path.join(workdir, cid + ".json")
        caseio.save_case(path, case)
        grd = os.path.join(workdir, cid + ".grd")
        caseio.write_grd(grd, case.delta_w)
        return {"id": cid, "truth": {"batch": list(case.true_labels)},
                "ops": [_attack_op("rlg", "rlg", path, "--delta-grd", grd,
                                   truth="batch", clean=True)]}

    for i, latent in enumerate(LATENTS):
        yield functools.partial(build, i, latent)


def _gm_builds(p, seed, workdir):
    def build(i):
        cid = f"g{i:03d}"
        rng = np.random.Generator(np.random.Philox(key=_derived_seed(seed, i)))
        d_a, c, s = p["d_a"], p["classes"], p["s"]
        # decisive logits and per-position offsets, as in the table-4 analog
        w = rng.normal(0.0, 0.7, (d_a, c))
        b = rng.normal(0.0, 0.1, c)
        pos = rng.normal(0.0, 1.0, (s, c))
        labels = [int(y) for y in rng.choice(c, size=s, replace=False)]
        context = rng.normal(0.0, 1.0, (s, d_a))
        # the decoder goes to an .npz fixture, not through save_decoder, which
        # drops the positional offsets
        path = os.path.join(workdir, cid + ".npz")
        np.savez(path, w=w, b=b, pos=pos, context=context)
        return {"id": cid, "truth": labels, "fixture": path,
                "gm_seed": _derived_seed(seed, 10_000 + i),
                "max_steps": p["max_steps"], "restarts": p["restarts"]}

    for i in range(p["instances"]):
        yield functools.partial(build, i)


def setup_cases(workload: str, scale: str, seed: int, workdir: str, trace: bool):
    """Write the case files for one run; runs in the set-up process
    (`--setup-into`), see `_setup_in_child`.

    Every case is set up once per round, in rounds spread over the set-up
    (see SETUP_MIN_ROUNDS), each build after a reference loop; a case's
    set-up time is the median of its rounds at the reference speed.  Returns
    (cases, per-case set-up seconds, set-ups run, per-layer set-up self
    times, set-up spans).
    """
    tracer = Tracer() if trace else None
    if tracer is not None:
        tracer.case_id = "setup"
        tracer.patch(gradleak.simulator, "simulate_case", "simulator.simulate_case")
        tracer.patch(gradleak.defense, "apply_defense", "defense.apply_defense")
        tracer.patch(gradleak.caseio, "save_case", "caseio.save_case")
        tracer.patch(gradleak.caseio, "write_grd", "caseio.write_grd")
    builds = {"sweep-64x100": _sweep_builds, "gm-table4": _gm_builds}.get(workload, _grd_builds)
    builds = list(builds(WORKLOADS[workload][scale], seed, workdir))
    cases, samples = [None] * len(builds), [[] for _ in builds]
    refs = [[] for _ in builds]
    rounds, begin = 0, time.perf_counter()
    try:
        while True:
            for j, build in enumerate(builds):
                gauges = [_reference_loop()]
                start = time.perf_counter()
                cases[j] = build()
                samples[j].append(time.perf_counter() - start)
                gauges.append(_reference_loop())
                refs[j].append(gauges)
            rounds += 1
            elapsed = time.perf_counter() - begin
            if rounds >= SETUP_MAX_ROUNDS or (rounds >= 2 and elapsed >= SETUP_MAX_SECONDS):
                break
            if rounds >= SETUP_MIN_ROUNDS and elapsed >= SETUP_MIN_SECONDS:
                break
    finally:
        if tracer is not None:
            tracer.unpatch()
    times = _at_reference_speed(samples, refs)
    runs = rounds * len(builds)
    if tracer is None:
        return cases, times, runs, {}, []
    return cases, times, runs, tracer.self_times(), tracer.spans


def _setup_in_child(workload, scale, seed, workdir, trace, timeout=150):
    """Run `setup_cases` in a child interpreter and wait for it to end.

    The child writes its return value to `setup.json` in `workdir`.  A plain
    subprocess rather than a multiprocessing pool, which would leave its
    resource tracker running after the run.  `subprocess.run` kills and
    reaps the child on a timeout or any other way out.
    """
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
           "--seed", str(seed), "--seconds", "0", "--trace", str(int(trace)),
           "--scale", scale, "--setup-into", workdir]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout,
                          check=False)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"set-up process exited with code {proc.returncode}")
    with open(os.path.join(workdir, "setup.json"), "r", encoding="utf-8") as fh:
        return json.load(fh)


# --------------------------------------------------------------- timed phase


def _score(pred, truth) -> dict:
    """Set precision/recall/exact match, computed here independently of
    gradleak.metrics so the program's own scoring can be checked."""
    p, t = set(pred), set(truth)
    inter = len(p & t)
    precision = inter / len(p) if p else (1.0 if not t else 0.0)
    recall = inter / len(t) if t else (1.0 if not p else 0.0)
    return {"precision": precision, "recall": recall, "exact_match": p == t}


def _edit_distance(ref, hyp) -> int:
    prev = list(range(len(hyp) + 1))
    for i, r in enumerate(ref, start=1):
        cur = [i] + [0] * len(hyp)
        for j, h in enumerate(hyp, start=1):
            cur[j] = min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (r != h))
        prev = cur
    return prev[-1]


def _gauge(refs) -> None:
    """Time a reference loop into `refs`, unless it is None (traced runs)."""
    if refs is not None:
        refs.append(_reference_loop())


def _run_attack_case(case, report_path, refs=None):
    """Returns (seconds spent in program calls, operation records).  A
    reference loop runs before each call when `refs` is a list."""
    seconds = 0.0
    ops = []
    for op in case["ops"]:
        truth = case["truth"][op["truth"]]
        out, err = io.StringIO(), io.StringIO()
        argv = op["argv"] + ["--report", report_path]
        if os.path.exists(report_path):
            os.unlink(report_path)
        rc, exc = None, None
        _gauge(refs)
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = gradleak.cli.main(argv)
        except (Exception, SystemExit) as e:  # counted as a failed operation
            exc = f"{type(e).__name__}: {e}"
        seconds += time.perf_counter() - start
        rec = {"op": op["name"], "failed": True, "output": None}
        entry = None
        if exc is None and os.path.exists(report_path):
            with open(report_path, "r", encoding="utf-8") as fh:
                entry = json.load(fh)["per_case"][0]
        if exc is not None or rc != 0 or entry is None or "error" in entry:
            rec["error"] = exc or (entry or {}).get("error") or err.getvalue().strip()
            ops.append(rec)
            continue
        labels = [int(c) for c in entry["predicted_labels"]]
        mine = _score(labels, truth)
        theirs = entry["set_score"]
        rec.update({"failed": False, "output": [labels, entry["inferred_S"]],
                    "score": mine, "clean": op["clean"],
                    "correct_s": op["clean"] and entry["inferred_S"] == len(truth)})
        problems = []
        if (abs(theirs["precision"] - mine["precision"]) > 1e-12
                or abs(theirs["recall"] - mine["recall"]) > 1e-12
                or bool(theirs["exact_match"]) != mine["exact_match"]):
            problems.append(f"report score {theirs} disagrees with {mine}")
        if op["truth_single"] and labels != truth:
            problems.append(f"idlg recovered {labels} on a single-sample case {truth}")
        rec["problems"] = problems
        ops.append(rec)
    return seconds, ops


def _failed(name, exc) -> dict:
    return {"op": name, "failed": True, "output": None,
            "error": f"{type(exc).__name__}: {exc}"}


def _run_gm_case(case, refs=None):
    gm, rlg = gradleak.gm, gradleak.rlg
    with np.load(case["fixture"]) as fx:
        w, b, pos, context = fx["w"], fx["b"], fx["pos"], fx["context"]
    labels = case["truth"]
    kw = {"lam": GM_LAMBDA, "max_steps": case["max_steps"]}
    ops = []
    seconds = 0.0

    def call(fn, *args, **kwargs):
        nonlocal seconds
        _gauge(refs)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            seconds += time.perf_counter() - start

    try:
        decoder = call(gm.ToyDecoder, w=w, b=b, pos=pos)
        free = call(gm.make_problem, decoder, context, labels, bow=None, **kw)
    except Exception as e:  # counted as failed operations
        return seconds, [_failed(name, e) for name in ("rlg-bow", "gm-bow", "gm-free")]
    # each reconstruction's problem, or the exception that kept it from being built
    problems_of = {"gm-free": free}
    try:
        pred = call(rlg.rlg_attack, free.target_grad, rlg.RlgConfig(assume_s=len(labels)))
    except Exception as e:  # counted as a failed operation
        ops.append(_failed("rlg-bow", e))
        problems_of["gm-bow"] = e
    else:
        got = sorted(pred.labels)
        ops.append({"op": "rlg-bow", "failed": False, "output": [got, pred.inferred_s],
                    "score": _score(got, labels), "clean": True, "correct_s": True,
                    "problems": []})
        try:  # an empty recovered set is rejected here
            problems_of["gm-bow"] = call(gm.make_problem, decoder, context, labels,
                                         bow=tuple(got), **kw)
        except Exception as e:  # counted as a failed operation
            problems_of["gm-bow"] = e
    for name in ("gm-bow", "gm-free"):
        prob = problems_of[name]
        if isinstance(prob, Exception):
            ops.append(_failed(name, prob))
            continue
        try:
            res = call(gm.reconstruct, prob, seed=case["gm_seed"],
                       restarts=case["restarts"], truth=labels)
        except Exception as e:  # counted as a failed operation
            ops.append(_failed(name, e))
            continue
        transcript = [int(y) for y in res.transcript]
        wer = _edit_distance(labels, transcript) / len(labels)
        problems = []
        if len(transcript) != len(labels):
            problems.append(f"{name} transcript length {len(transcript)} != {len(labels)}")
        if prob.bow is not None and not set(transcript) <= set(prob.bow):
            problems.append(f"{name} transcript {transcript} leaves the set {prob.bow}")
        if res.wer_vs_truth is None or abs(res.wer_vs_truth - wer) > 1e-12:
            problems.append(f"{name} reports wer {res.wer_vs_truth}, expected {wer}")
        if bool(res.exact_match) != (transcript == labels):
            problems.append(f"{name} exact_match flag disagrees with its transcript")
        ops.append({"op": name, "failed": False,
                    "output": [transcript, res.steps, bool(res.converged)],
                    "wer": wer, "em": transcript == labels, "problems": problems})
    return seconds, ops


def _timed_patches(tracer: Tracer) -> None:
    """Wrap every layer the timed phase reaches, at the attribute its caller
    looks up."""
    cli, rlg, gm, bl = gradleak.cli, gradleak.rlg, gradleak.gm, gradleak.baselines
    c = tracer.counters

    def count_bytes(t, args, kwargs, result, exc):
        if exc is None:
            c["bytes_read"] += os.path.getsize(args[0])

    def count_screen(t, args, kwargs, result, exc):
        if exc is None:
            c["screen_kept"] += len(result)
            c["screen_cols"] += np.shape(args[0])[1]

    def count_lp(t, args, kwargs, result, exc):
        if exc is None:
            c["lp_feasible"] += bool(result)
        elif isinstance(exc, gradleak.rlg.LpPivotLimitError):
            c["lp_cap_hits"] += 1

    tracer.patch(cli, "main", "cli.main")
    tracer.patch(cli, "load_case", "caseio.load_case", count_bytes)
    tracer.patch(cli, "read_grd", "caseio.read_grd", count_bytes)
    tracer.patch(cli, "save_report", "caseio.save_report")
    tracer.patch(cli, "rlg_attack", "rlg.rlg_attack")
    tracer.patch(cli, "idlg_single", "baselines.idlg_single")
    tracer.patch(cli, "min_column_attack", "baselines.min_column_attack")
    tracer.patch(rlg, "rlg_attack", "rlg.rlg_attack")
    tracer.patch(rlg, "svd", "linalg.svd")
    tracer.patch(rlg, "screen", "rlg.screen", count_screen)
    tracer.patch(rlg, "lp_feasible", "rlg.lp_feasible", count_lp)
    tracer.patch(bl, "svd", "linalg.svd")
    tracer.patch(gm, "make_problem", "gm.make_problem")
    tracer.patch(gm, "reconstruct", "gm.reconstruct")
    tracer.patch(gm, "gm_gradients", "gm.gm_gradients")


def _outputs(ops):
    return [op["output"] for op in ops]


def _run_traced(tracer, workload, case, workdir):
    tracer.case_id = case["id"]
    _timed_patches(tracer)
    try:
        return _run_case(workload, case, workdir)
    finally:
        tracer.unpatch()


def _run_case(workload, case, workdir, refs=None):
    """Run one case; with `refs` a list, a reference loop runs before each
    program call and once after the last, so the host's speed is gauged
    while the case runs."""
    if workload == "gm-table4":
        result = _run_gm_case(case, refs)
    else:
        result = _run_attack_case(case, os.path.join(workdir, "report.json"), refs)
    _gauge(refs)
    return result


# --------------------------------------------------------------- metrics


def _tail(values):
    """Highest whole percentile with at least ten samples beyond it."""
    n = len(values)
    pct = math.floor(100.0 * (1.0 - 10.0 / n)) if n else 0
    if pct < 50:
        return None, None
    return pct, statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def _layer_metrics(tracer, setup_self, setup_runs, traced_seconds, untraced_seconds):
    n = len(traced_seconds)
    self_t = tracer.self_times()
    c = tracer.counters
    m = {name: 0.0 for name in PER_LAYER_UNITS}
    for span, metric in TIMED_LAYERS.items():
        m[metric] += self_t.get(span, 0.0) / n
    for span, metric in SETUP_LAYERS.items():
        m[metric] += setup_self.get(span, 0.0) / setup_runs
    lp = tracer.durations("rlg.lp_feasible")
    m["rlg.lp.calls"] = len(lp) / n
    m["rlg.lp.us_p50"] = statistics.median(lp) * 1e6 if lp else 0.0
    m["rlg.lp.feasible_ratio"] = c["lp_feasible"] / len(lp) if lp else 0.0
    m["rlg.lp.cap_hits"] = c["lp_cap_hits"] / n
    m["rlg.screen.kept_ratio"] = (c["screen_kept"] / c["screen_cols"]
                                  if c["screen_cols"] else 0.0)
    m["linalg.svd.calls"] = tracer.calls("linalg.svd") / n
    m["caseio.bytes_read"] = c["bytes_read"] / n
    steps = tracer.calls("gm.gm_gradients")
    recon = sum(tracer.durations("gm.reconstruct"))
    m["gm.reconstruct.s"] = recon / n
    m["gm.gm_gradients.calls"] = steps / n
    m["gm.step_us"] = recon / steps * 1e6 if steps else 0.0
    timed_self = sum(self_t.get(span, 0.0) for span in TIMED_LAYERS)
    m["trace.coverage"] = timed_self / sum(traced_seconds)
    m["trace.overhead"] = sum(traced_seconds) / sum(untraced_seconds) - 1.0
    counts = {"rlg.lp.calls": len(lp), "linalg.svd.calls": tracer.calls("linalg.svd"),
              "gm.gm_gradients.calls": steps}
    return m, counts


def _quality(first_pass):
    ops = [op for ops in first_pass for op in ops]
    attacks = [op for op in ops if "score" in op]
    gms = [op for op in ops if "wer" in op]
    correct_s = [op["score"]["recall"] for op in attacks if op["correct_s"]]
    em = ([op["score"]["exact_match"] for op in attacks]
          + [op["em"] for op in gms])
    return {
        "failed_share": sum(op["failed"] for op in ops) / len(ops) if ops else None,
        "em_rate": sum(em) / len(em) if em else None,
        "precision_mean": (statistics.fmean(op["score"]["precision"] for op in attacks)
                           if attacks else None),
        "recall_min": min(correct_s) if correct_s else None,
        "recall_min_cases": len(correct_s),
        "wer_mean": statistics.fmean(op["wer"] for op in gms) if gms else None,
    }


def _digest(cases, first_pass) -> str:
    rows = [[case["id"], op["op"], op["failed"], op["output"]]
            for case, ops in zip(cases, first_pass) for op in ops]
    return hashlib.sha256(json.dumps(rows, sort_keys=True).encode()).hexdigest()


def _fingerprint() -> str:
    """Hash of the program and benchmark sources, so stored digests are only
    compared between runs of the same code."""
    h = hashlib.sha256()
    for base in (os.path.join(SRC, "gradleak"), HERE):
        for name in sorted(os.listdir(base)):
            if name.endswith(".py"):
                h.update(name.encode())
                with open(os.path.join(base, name), "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()[:16]


def _check_memo(key, digest, counts):
    """Compare this run's digest and exact counts with an earlier run of the
    same code, workload, scale and seed; record them for the next run."""
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, "digests.json")
    memo = {}
    if os.path.exists(path):
        with open(path, "r", encoding="utf-8") as fh:
            memo = json.load(fh)
    problems = []
    old = memo.get(key)
    if old is not None:
        if old["digest"] != digest:
            problems.append(f"digest {digest} differs from an earlier run's {old['digest']}")
        for name, value in counts.items():
            if name in old["counts"] and old["counts"][name] != value:
                problems.append(f"{name} {value} differs from an earlier run's "
                                f"{old['counts'][name]}")
    merged = {"digest": digest, "counts": {**(old or {}).get("counts", {}), **counts}}
    memo[key] = merged
    tmp = path + f".{os.getpid()}.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(memo, fh, indent=1, sort_keys=True)
    os.replace(tmp, path)
    return problems


def environment() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = None
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = f"{deps['blas'].get('name')} {deps['blas'].get('version')}"
    except (AttributeError, KeyError, TypeError):
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas, "blas_threads": 1}


# --------------------------------------------------------------- driver


def run(workload: str, seed: int, seconds: float, trace: bool, scale: str = "full") -> dict:
    """One benchmark run; returns the result object plus an `info` entry."""
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT_DIR)
    try:
        cases, setup_times, setup_runs, setup_self, setup_spans = _setup_in_child(
            workload, scale, seed, workdir, trace)

        tracer = Tracer() if trace else None
        # times[i] holds every untraced time of case i, traced[i] the traced
        # ones, ref[i] the reference loop times gauged during each untraced one
        times = [[] for _ in cases]
        traced = [[] for _ in cases]
        ref = [[] for _ in cases]
        first_pass, problems = [None] * len(cases), []
        min_passes = 1 if trace else MIN_PASSES
        peak_rss_mb = None
        passes = 0
        start = time.perf_counter()
        while True:
            # odd passes walk the cases backwards, so each case's runs are
            # spread over the whole run rather than bunched at one end
            order = range(len(cases)) if passes % 2 == 0 else reversed(range(len(cases)))
            for i in order:
                case = cases[i]
                if tracer is not None and i % 2:
                    # alternate which copy runs first, so warm caches do not
                    # favour one side of the overhead figure
                    t_secs, t_ops = _run_traced(tracer, workload, case, workdir)
                gauges = []
                secs, ops = _run_case(workload, case, workdir, gauges)
                times[i].append(secs)
                ref[i].append(gauges)
                if peak_rss_mb is None:
                    # the footprint of one invocation; later cases only add
                    # allocator fragmentation, which varied by seed (142 or
                    # 170 MB on wide-512x2000)
                    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
                if tracer is not None:
                    if not i % 2:
                        t_secs, t_ops = _run_traced(tracer, workload, case, workdir)
                    traced[i].append(t_secs)
                    if _outputs(t_ops) != _outputs(ops):
                        problems.append(f"{case['id']}: traced outputs differ from untraced")
                if first_pass[i] is None:
                    first_pass[i] = ops
                elif _outputs(ops) != _outputs(first_pass[i]):
                    problems.append(f"{case['id']}: pass {passes + 1} outputs differ")
            passes += 1
            elapsed = time.perf_counter() - start
            if passes >= min_passes and elapsed + elapsed / passes > seconds:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    all_ops = [op for ops in first_pass for op in ops]
    for op in all_ops:
        problems.extend(f"{op['op']}: {p}" for p in op.get("problems", []))
    quality = _quality(first_pass)
    if quality["recall_min"] is None:
        problems.append("no operation ran with the correct S, so recall was not checked")
    elif quality["recall_min"] != 1.0:
        problems.append(f"recall_min {quality['recall_min']} on correct-S cases, expected 1.0")
    digest = _digest(cases, first_pass)
    counts = {}
    failed = sum(op["failed"] for op in all_ops) * passes * (2 if trace else 1)
    attempted = len(all_ops) * passes * (2 if trace else 1)
    untraced = [t for ts in times for t in ts]
    if trace:
        metrics, counts = _layer_metrics(tracer, setup_self, setup_runs,
                                         [t for ts in traced for t in ts], untraced)
        counts = {k: v // passes for k, v in counts.items()}
        units = PER_LAYER_UNITS
    else:
        case_s = _at_reference_speed(times, ref)
        metrics = {
            "cases_per_s": len(case_s) / sum(case_s),
            "case_s_p50": statistics.median(case_s),
            "peak_rss_mb": peak_rss_mb,
            "setup_s": statistics.median(setup_times),
        }
        units = END_TO_END_UNITS
    key = f"{workload}/{scale}/{seed}/{_fingerprint()}"
    problems.extend(_check_memo(key, digest, counts))
    pct, tail = _tail(untraced)
    info = {
        "workload": workload, "seed": seed, "scale": scale, "trace": int(trace),
        "cases": len(cases), "passes": passes, "environment": environment(),
        "quality": quality, "digest": digest, "counts": counts,
        "case_s_tail": {"percentile": pct, "value": tail, "samples": len(untraced)},
        "reference_s_p50": statistics.median(t for gs in ref for g in gs for t in g),
        "case_s": {case["id"]: ts for case, ts in zip(cases, times)},
        "reference_s": {case["id"]: [statistics.fmean(g) for g in gs]
                        for case, gs in zip(cases, ref)},
        "setup_runs": setup_runs,
        "errors": [f"{case['id']}/{op['op']}: {op['error']}"
                   for case, ops in zip(cases, first_pass) for op in ops if op["failed"]],
        "problems": problems,
    }
    if trace:
        path = os.path.join(OUT_DIR, f"spans-{workload}-seed{seed}.json")
        tracer.write(path)
        with open(path.replace(".json", "-setup.json"), "w", encoding="utf-8") as fh:
            json.dump({"spans": setup_spans}, fh, separators=(",", ":"))
        info["spans"] = os.path.relpath(path, ROOT)
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
        "info": info,
    }


def _layer_table(metrics) -> str:
    rows = [(k, v["value"], v["unit"]) for k, v in metrics.items()]
    return "\n".join(f"  {k:<28} {val:>14.6g} {unit}" for k, val, unit in rows)


def _run_all(args) -> int:
    """Each workload in its own process, one after the other."""
    rows, ok = {}, True
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--scale", args.scale]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            sys.stderr.write(proc.stderr)
            print(f"{name}: exit {proc.returncode}")
            ok = False
            continue
        info, result = json.loads(lines[-2])["info"], json.loads(lines[-1])
        ok = ok and result["correct"]
        rows[name] = {**result, "quality": info["quality"],
                      "case_s_tail": info["case_s_tail"]}
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        for k, v in result["metrics"].items():
            print(f"  {k:<28} {v['value']:>14.6g} {v['unit']}")
        for k, v in info["quality"].items():
            print(f"  {k:<28} {v!s:>14}")
        tail = info["case_s_tail"]
        print(f"  {'case_s_tail':<28} {tail['value']!s:>14} s "
              f"(p{tail['percentile']}, {tail['samples']} cases)")
    print(json.dumps(rows))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny shapes, for the benchmark's self-test")
    # internal: the set-up process of a run (see _setup_in_child)
    parser.add_argument("--setup-into", metavar="DIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.setup_into is not None:
        out = setup_cases(args.workload, args.scale, args.seed, args.setup_into,
                          bool(args.trace))
        with open(os.path.join(args.setup_into, "setup.json"), "w", encoding="utf-8") as fh:
            json.dump(out, fh)
        return 0
    if args.workload == "all":
        return _run_all(args)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), args.scale)
    info = result.pop("info")
    if args.trace:
        print("per-layer self times (s/case) and counts:")
        print(_layer_table(result["metrics"]))
    for problem in info["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
