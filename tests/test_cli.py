import base64
import json
import os

import numpy as np
import pytest

import gradleak.cli
import gradleak.rlg
from gradleak import bench
from gradleak.caseio import (load_case, load_decoder, load_report, read_grd, save_case,
                             save_decoder, write_grd)
from gradleak.defense import DefenseSpec, apply_defense
from gradleak.cli import main
from gradleak.gm import ToyDecoder, decoder_gradient
from gradleak.linalg import default_rank_tol, numeric_rank, svd
from gradleak.rlg import RlgConfig, rlg_attack
from gradleak.simulator import GradientCase, Scenario


def run(argv, capsys=None):
    code = main(argv)
    return code


def test_simulate_then_idlg_chain(tmp_path, capsys):
    case_path = str(tmp_path / "case.json")
    report_path = str(tmp_path / "report.json")
    assert main(["simulate", "--mode", "single", "--d", "8", "--classes", "5",
                 "--seed", "1", "--out", case_path]) == 0
    assert main(["attack", "idlg", case_path, "--report", report_path]) == 0
    doc = load_report(report_path)
    entry = doc["per_case"][0]
    truth = load_case(case_path).case.true_labels
    assert entry["predicted_labels"] == list(truth)
    assert entry["set_score"]["exact_match"] is True
    assert doc["aggregate"]["em_rate"] == 1.0


def test_simulate_count_writes_many(tmp_path):
    out_dir = str(tmp_path / "cases")
    assert main(["simulate", "--mode", "batch", "--n", "3", "--d", "8",
                 "--classes", "6", "--seed", "10", "--count", "4",
                 "--out", out_dir]) == 0
    files = sorted(os.listdir(out_dir))
    assert len(files) == 4
    seeds = [load_case(os.path.join(out_dir, f)).case.scenario.seed for f in files]
    assert seeds == [10, 11, 12, 13]


def test_simulate_skip_existing(tmp_path):
    out_dir = str(tmp_path / "cases")
    assert main(["simulate", "--mode", "single", "--d", "4", "--classes", "3",
                 "--seed", "5", "--count", "2", "--out", out_dir]) == 0
    first = os.path.join(out_dir, sorted(os.listdir(out_dir))[0])
    stamp = os.path.getmtime(first)
    assert main(["simulate", "--mode", "single", "--d", "4", "--classes", "3",
                 "--seed", "5", "--count", "2", "--out", out_dir,
                 "--skip-existing"]) == 0
    assert os.path.getmtime(first) == stamp


def test_simulate_single_into_directory_skip_existing(tmp_path, capsys):
    out_dir = tmp_path / "cases"
    out_dir.mkdir()
    argv = ["simulate", "--mode", "single", "--d", "4", "--classes", "3",
            "--seed", "7", "--out", str(out_dir)]
    path = out_dir / "case-00000007.json"
    first_grd = tmp_path / "first.grd"
    assert main(argv + ["--grd-out", str(first_grd)]) == 0
    assert capsys.readouterr().out.split() == [str(path)]
    assert os.listdir(out_dir) == [path.name]
    assert read_grd(str(first_grd)).tobytes() == load_case(str(path)).case.delta_w.tobytes()

    # an existing file is kept, and no sidecar is written for a skipped case
    path.write_text("kept")
    skipped_grd = tmp_path / "skipped.grd"
    assert main(argv + ["--skip-existing", "--grd-out", str(skipped_grd)]) == 0
    assert capsys.readouterr().out.split() == [str(path)]
    assert path.read_text() == "kept"
    assert not skipped_grd.exists()

    # without --skip-existing the case is written again
    assert main(argv) == 0
    assert load_case(str(path)).case.scenario.seed == 7


def test_simulate_multistep_sets_every_step_lr(tmp_path):
    case_path = str(tmp_path / "case.json")
    assert main(["simulate", "--mode", "multistep", "--n", "2", "--k", "3", "--d", "8",
                 "--classes", "6", "--lr", "0.3", "--seed", "4", "--out", case_path]) == 0
    assert load_case(case_path).case.scenario.lrs == (0.3,) * 3


def test_attack_rlg_with_true_s_and_report_fields(tmp_path):
    out_dir = str(tmp_path / "cases")
    report = str(tmp_path / "report.json")
    assert main(["simulate", "--mode", "batch", "--n", "4", "--d", "32",
                 "--classes", "40", "--latent", "tanh", "--seed", "3",
                 "--count", "3", "--out", out_dir]) == 0
    cases = [os.path.join(out_dir, f) for f in sorted(os.listdir(out_dir))]
    assert main(["attack", "rlg", *cases, "--use-true-s", "--report", report]) == 0
    doc = load_report(report)
    assert len(doc["per_case"]) == 3
    for entry in doc["per_case"]:
        assert entry["inferred_S"] == 4
        assert entry["set_score"]["recall"] == 1.0
        assert "rank_estimate" in entry
        assert entry["wall_time_ms"] > 0.0
    assert doc["config"]["attack"] == "rlg"


def test_attack_report_determinism_modulo_wall_time(tmp_path):
    out_dir = str(tmp_path / "cases")
    main(["simulate", "--mode", "batch", "--n", "3", "--d", "16",
          "--classes", "12", "--seed", "8", "--count", "2", "--out", out_dir])
    cases = [os.path.join(out_dir, f) for f in sorted(os.listdir(out_dir))]
    r1 = str(tmp_path / "r1.json")
    r2 = str(tmp_path / "r2.json")
    main(["attack", "rlg", *cases, "--report", r1])
    main(["attack", "rlg", *cases, "--report", r2])

    def strip(path):
        doc = json.loads(open(path).read())
        for e in doc["per_case"]:
            e.pop("wall_time_ms")
        for key in ("report",):
            doc["config"].pop(key, None)
        return doc

    a, b = strip(r1), strip(r2)
    a["config"].pop("argv"), b["config"].pop("argv")
    assert a["per_case"] == b["per_case"]
    assert a["aggregate"] == b["aggregate"]


def test_attack_mincol(tmp_path):
    case_path = str(tmp_path / "case.json")
    report = str(tmp_path / "rep.json")
    main(["simulate", "--mode", "batch", "--n", "5", "--d", "32",
          "--classes", "40", "--latent", "relu", "--seed", "4",
          "--out", case_path])
    assert main(["attack", "mincol", case_path, "--report", report]) == 0
    entry = load_report(report)["per_case"][0]
    assert entry["set_score"]["precision"] == 1.0


def test_attack_missing_file_fails_nonzero(tmp_path):
    report = str(tmp_path / "rep.json")
    code = main(["attack", "rlg", str(tmp_path / "nope.json"), "--report", report])
    assert code != 0
    doc = load_report(report)
    assert "error" in doc["per_case"][0]


def test_attack_keep_going_records_and_continues(tmp_path):
    good = str(tmp_path / "good.json")
    main(["simulate", "--mode", "single", "--d", "6", "--classes", "4",
          "--seed", "2", "--out", good])
    report = str(tmp_path / "rep.json")
    code = main(["attack", "idlg", str(tmp_path / "missing.json"), good,
                 "--keep-going", "--report", report])
    assert code == 1
    doc = load_report(report)
    assert len(doc["per_case"]) == 2
    assert "error" in doc["per_case"][0]
    assert doc["per_case"][1]["set_score"]["exact_match"] is True


def test_attack_jobs_parallel_matches_serial(tmp_path, capsys):
    out_dir = str(tmp_path / "cases")
    main(["simulate", "--mode", "batch", "--n", "2", "--d", "12",
          "--classes", "9", "--seed", "6", "--count", "4", "--out", out_dir])
    cases = [os.path.join(out_dir, f) for f in sorted(os.listdir(out_dir))]
    r1 = str(tmp_path / "serial.json")
    r2 = str(tmp_path / "parallel.json")
    assert main(["attack", "rlg", *cases, "--report", r1]) == 0
    assert main(["attack", "rlg", *cases, "--jobs", "2", "--report", r2]) == 0
    a = load_report(r1)["per_case"]
    b = load_report(r2)["per_case"]
    for e1, e2 in zip(a, b):
        e1.pop("wall_time_ms"), e2.pop("wall_time_ms")
    assert a == b
    # fewer than one worker is refused, as --count is, not run serially
    capsys.readouterr()
    r0 = str(tmp_path / "none.json")
    assert main(["attack", "rlg", *cases, "--jobs", "0", "--report", r0]) == 2
    assert capsys.readouterr().err == "error: --jobs must be >= 1\n"
    assert not os.path.exists(r0)


def test_attack_jobs_forks_at_most_one_worker_per_case(tmp_path, monkeypatch):
    # an in-process stand-in for the pool records the worker count it is given
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

        def shutdown(self, cancel_futures=False):
            pass

    monkeypatch.setattr(gradleak.cli, "ProcessPoolExecutor", RecordingPool)
    out_dir = str(tmp_path / "cases")
    main(["simulate", "--mode", "batch", "--n", "2", "--d", "12",
          "--classes", "9", "--seed", "6", "--count", "3", "--out", out_dir])
    cases = [os.path.join(out_dir, f) for f in sorted(os.listdir(out_dir))]
    serial = str(tmp_path / "serial.json")
    assert main(["attack", "rlg", *cases, "--report", serial]) == 0
    for jobs, want in (("64", 3), ("2", 2)):
        report = str(tmp_path / f"jobs{jobs}.json")
        assert main(["attack", "rlg", *cases, "--jobs", jobs, "--report", report]) == 0
        assert sizes.pop() == want
        a, b = load_report(serial)["per_case"], load_report(report)["per_case"]
        for e1, e2 in zip(a, b):
            e1.pop("wall_time_ms"), e2.pop("wall_time_ms")
        assert a == b


def test_attack_jobs_stops_at_first_error_like_serial(tmp_path):
    out_dir = str(tmp_path / "cases")
    main(["simulate", "--mode", "batch", "--n", "2", "--d", "12",
          "--classes", "9", "--seed", "6", "--count", "2", "--out", out_dir])
    ok, ok2 = [os.path.join(out_dir, f) for f in sorted(os.listdir(out_dir))]
    cases = [ok, str(tmp_path / "bad.json"), ok2]
    r1 = str(tmp_path / "serial.json")
    r2 = str(tmp_path / "parallel.json")
    assert main(["attack", "rlg", *cases, "--report", r1]) == 1
    assert main(["attack", "rlg", *cases, "--jobs", "2", "--report", r2]) == 1
    a, b = load_report(r1), load_report(r2)
    for entry in a["per_case"] + b["per_case"]:
        entry.pop("wall_time_ms")
    assert [e["case_id"] for e in a["per_case"]] == cases[:2]
    assert a["per_case"] == b["per_case"]
    assert a["aggregate"] == b["aggregate"]


def test_defend_rewrites_case(tmp_path):
    case_path = str(tmp_path / "case.json")
    out_path = str(tmp_path / "defended.json")
    main(["simulate", "--mode", "batch", "--n", "3", "--d", "8",
          "--classes", "6", "--seed", "9", "--out", case_path])
    original = load_case(case_path).case
    assert main(["defend", "drop", case_path, "--rate", "0.5",
                 "--out", out_path]) == 0
    defended = load_case(out_path)
    assert defended.defense_applied.kind == "drop"
    assert defended.defense_applied.rate == 0.5
    assert int((defended.case.delta_w == 0.0).sum()) >= 24
    assert defended.case.true_labels == original.true_labels

    # in-place sign defense
    assert main(["defend", "sign", case_path]) == 0
    signed = load_case(case_path)
    assert signed.defense_applied.kind == "sign"
    assert set(np.unique(signed.case.delta_w)) <= {-1.0, 0.0, 1.0}


def version_1_copy(path, out, keys):
    """The version-1 file of a version-2 case or decoder: each matrix in
    `keys` as nested lists, loaded through the version-2 reader."""
    doc = json.loads(open(path).read())
    loaded = load_case(path).case if "delta_w" in keys else load_decoder(path)
    for key in keys:
        if key in doc:
            doc[key] = getattr(loaded, key).tolist()
    doc.pop("max_len", None)
    doc["version"] = 1
    open(out, "w").write(json.dumps(doc))
    return out


def test_defend_upgrades_a_version_1_case(tmp_path):
    v2 = str(tmp_path / "case.json")
    main(["simulate", "--mode", "batch", "--n", "3", "--d", "8",
          "--classes", "6", "--seed", "9", "--out", v2])
    v1 = version_1_copy(v2, str(tmp_path / "case-v1.json"), ["delta_w"])
    original = load_case(v1).case
    out = str(tmp_path / "defended.json")
    for kind, spec in (("sign", DefenseSpec("sign")), ("drop", DefenseSpec("drop", 0.5))):
        extra = ["--rate", "0.5"] if kind == "drop" else []
        assert main(["defend", kind, v1, *extra, "--out", out]) == 0
        doc = json.loads(open(out).read())
        assert doc["version"] == 2
        assert (base64.b64decode(doc["delta_w"])
                == apply_defense(original.delta_w, spec).astype("<f8").tobytes())
        assert load_case(out).defense_applied == spec


def test_attack_and_gm_read_version_1_inputs_like_version_2(tmp_path):
    case_v2 = str(tmp_path / "seq.json")
    dec_v2 = str(tmp_path / "dec.json")
    main(["simulate", "--mode", "sequence", "--n", "2", "--d", "6", "--classes", "5",
          "--seed", "21", "--out", case_v2, "--decoder-out", dec_v2])
    case_v1 = version_1_copy(case_v2, str(tmp_path / "seq-v1.json"), ["delta_w"])
    dec_v1 = version_1_copy(dec_v2, str(tmp_path / "dec-v1.json"), ["w", "b", "pos"])
    report = str(tmp_path / "rep.json")

    def attack(attack, case):
        assert main(["attack", attack, case, "--report", report]) == 0
        doc = load_report(report)
        for e in doc["per_case"]:
            e.pop("wall_time_ms"), e.pop("case_id")
        return doc["per_case"], doc["aggregate"]

    def gm(case, dec):
        assert main(["gm", case, "--decoder", dec, "--bow", "--restarts", "2",
                     "--seed", "0", "--report", report]) == 0
        doc = json.loads(open(report).read())
        for key in ("case", "decoder", "argv"):
            doc["config"].pop(key)
        return doc

    for name in ("rlg", "mincol"):
        assert attack(name, case_v1) == attack(name, case_v2)
    assert gm(case_v1, dec_v1) == gm(case_v2, dec_v2)


def test_grd_sidecar_and_override(tmp_path):
    case_path = str(tmp_path / "case.json")
    grd_path = str(tmp_path / "case.grd")
    main(["simulate", "--mode", "single", "--d", "6", "--classes", "5",
          "--seed", "12", "--out", case_path, "--grd-out", grd_path])
    case = load_case(case_path).case
    assert read_grd(grd_path).tobytes() == case.delta_w.tobytes()

    report = str(tmp_path / "rep.json")
    assert main(["attack", "idlg", case_path, "--delta-grd", grd_path,
                 "--report", report]) == 0
    assert load_report(report)["per_case"][0]["set_score"]["exact_match"] is True


def test_delta_grd_shape_must_match_the_case(tmp_path):
    # a sidecar of another shape is not scored against the case's labels
    case_path = str(tmp_path / "case.json")
    grd_path = str(tmp_path / "other.grd")
    report = str(tmp_path / "rep.json")
    main(["simulate", "--mode", "batch", "--n", "2", "--d", "8", "--classes", "6",
          "--seed", "3", "--out", case_path])
    write_grd(grd_path, np.random.default_rng(0).normal(size=(10, 30)))
    for attack in ("rlg", "idlg", "mincol"):
        assert main(["attack", attack, case_path, "--delta-grd", grd_path,
                     "--report", report]) == 1
        entry = load_report(report)["per_case"][0]
        assert entry["error"] == ("ValueError: --delta-grd update shape (10, 30) does "
                                  "not match case update (8, 6)")
        assert "predicted_labels" not in entry


def test_gm_subcommand_end_to_end(tmp_path):
    case_path = str(tmp_path / "seq.json")
    dec_path = str(tmp_path / "dec.json")
    report = str(tmp_path / "gm.json")
    main(["simulate", "--mode", "sequence", "--n", "2", "--d", "6",
          "--classes", "5", "--seed", "21", "--out", case_path,
          "--decoder-out", dec_path])
    assert main(["gm", case_path, "--decoder", dec_path, "--bow",
                 "--use-true-s", "--restarts", "2", "--seed", "0",
                 "--report", report]) == 0
    doc = json.loads(open(report).read())
    truth = load_case(case_path).case.true_labels
    assert sorted(doc["result"]["transcript"]) == sorted(truth)
    assert doc["result"]["n_vars"] == 2 * (6 + len(set(truth)))
    assert doc["config"]["s_used"] == 2
    assert doc["result"]["final_loss"] < 0.5
    # one record per restart; the kept one carries the reported loss and steps
    runs = doc["result"]["runs"]
    assert len(runs) == 2
    kept = min(runs, key=lambda r: r["distance"])
    assert (kept["distance"], kept["steps"], kept["converged"]) == (
        doc["result"]["final_loss"], doc["result"]["steps"], doc["result"]["converged"])


def test_gm_positional_offsets_decide_order_through_files(tmp_path):
    # the offsets are what make order recoverable: with them the CLI finds
    # the true sequence, with them dropped it finds the same labels misordered
    rng = np.random.Generator(np.random.Philox(key=502))
    dec = ToyDecoder(w=rng.normal(0.0, 0.7, (8, 50)), b=rng.normal(0.0, 0.1, 50),
                     pos=rng.normal(0.0, 1.0, (3, 50)))
    labels = [int(c) for c in rng.choice(50, size=3, replace=False)]
    context = rng.normal(0.0, 1.0, (3, 8))
    onehot = np.zeros((3, 50))
    onehot[np.arange(3), labels] = 1.0
    target = decoder_gradient(context, onehot, dec)
    case_path = str(tmp_path / "seq.json")
    save_case(case_path, GradientCase(
        scenario=Scenario(d=8, classes=50, mode="sequence", n=3, labels=tuple(labels)),
        delta_w=target / 3.0, true_labels=tuple(labels)))
    with_pos = str(tmp_path / "dec.json")
    without_pos = str(tmp_path / "dec-nopos.json")
    save_decoder(with_pos, dec)
    save_decoder(without_pos, ToyDecoder(w=dec.w, b=dec.b))

    transcripts = []
    for path in (with_pos, without_pos):
        report = str(tmp_path / "gm.json")
        assert main(["gm", case_path, "--decoder", path, "--bow", "--use-true-s",
                     "--restarts", "2", "--seed", "0", "--lambda", "0.1",
                     "--report", report]) == 0
        transcripts.append(json.loads(open(report).read())["result"]["transcript"])
    assert transcripts[0] == labels
    assert sorted(transcripts[1]) == sorted(labels)
    assert transcripts[1] != labels


def test_gm_bow_inferred_s_runs_one_svd(tmp_path, monkeypatch):
    case_path = str(tmp_path / "seq.json")
    dec_path = str(tmp_path / "dec.json")
    report = str(tmp_path / "gm.json")
    main(["simulate", "--mode", "sequence", "--n", "2", "--d", "6",
          "--classes", "5", "--seed", "21", "--out", case_path,
          "--decoder-out", dec_path])
    calls = []
    real_svd = gradleak.rlg.svd

    def counting_svd(*args, **kwargs):
        calls.append(1)
        return real_svd(*args, **kwargs)

    monkeypatch.setattr(gradleak.rlg, "svd", counting_svd)
    assert main(["gm", case_path, "--decoder", dec_path, "--bow",
                 "--restarts", "1", "--seed", "0", "--report", report]) == 0
    assert len(calls) == 1
    doc = json.loads(open(report).read())
    truth = load_case(case_path).case.true_labels
    assert doc["config"]["s_used"] == 2
    assert doc["config"]["bow"] == sorted(set(truth))


def test_gm_s_sets_s_used(tmp_path):
    case_path = str(tmp_path / "seq.json")
    dec_path = str(tmp_path / "dec.json")
    report = str(tmp_path / "gm.json")
    main(["simulate", "--mode", "sequence", "--n", "2", "--d", "6",
          "--classes", "5", "--seed", "21", "--out", case_path,
          "--decoder-out", dec_path])
    head = ["gm", case_path, "--decoder", dec_path, "--restarts", "1", "--seed", "0",
            "--report", report]
    for extra in ([], ["--bow"]):
        assert main(head + extra + ["--s", "3"]) == 0
        doc = json.loads(open(report).read())
        assert doc["config"]["s_used"] == doc["config"]["assume_s"] == 3
    # one S choice per command
    with pytest.raises(SystemExit) as exit_:
        main(head + ["--s", "3", "--use-true-s"])
    assert exit_.value.code == 2


def test_eval_merges_reports(tmp_path, capsys):
    case_path = str(tmp_path / "case.json")
    main(["simulate", "--mode", "single", "--d", "8", "--classes", "5",
          "--seed", "1", "--out", case_path])
    r1 = str(tmp_path / "r1.json")
    r2 = str(tmp_path / "r2.json")
    main(["attack", "idlg", case_path, "--report", r1])
    main(["attack", "rlg", case_path, "--report", r2])
    capsys.readouterr()
    assert main(["eval", "--reports", r1, r2, "--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert len(rows) == 3
    assert rows[-1]["report"] == "ALL"
    assert rows[-1]["cases"] == 2

    assert main(["eval", "--reports", r1, r2, "--format", "csv"]) == 0
    text = capsys.readouterr().out
    assert text.splitlines()[0].startswith("report,attack,cases")
    assert len(text.splitlines()) == 4


def test_env_seed_default(tmp_path, monkeypatch):
    monkeypatch.setenv("GRADLEAK_SEED", "777")
    case_path = str(tmp_path / "case.json")
    main(["simulate", "--mode", "single", "--d", "4", "--classes", "3",
          "--out", case_path])
    assert load_case(case_path).case.scenario.seed == 777


def test_malformed_case_message_and_exit_code(tmp_path, capsys):
    bad = str(tmp_path / "bad.json")
    open(bad, "w").write("{not json")
    report = str(tmp_path / "rep.json")
    code = main(["attack", "rlg", bad, "--report", report])
    assert code != 0

    code = main(["defend", "sign", str(tmp_path / "missing.json")])
    assert code == 2
    assert "error:" in capsys.readouterr().err

    # a case without `d`, one with a null seed, a decoder without `w` and a
    # report without `per_case`: every loader names the file and the cause
    case_path = str(tmp_path / "case.json")
    dec_path = str(tmp_path / "dec.json")
    main(["simulate", "--mode", "sequence", "--n", "2", "--d", "6", "--classes", "5",
          "--seed", "21", "--out", case_path, "--decoder-out", dec_path])
    main(["attack", "mincol", case_path, "--report", report])
    capsys.readouterr()

    def broken(path, name, edit):
        doc = json.loads(open(path).read())
        edit(doc)
        out = str(tmp_path / name)
        open(out, "w").write(json.dumps(doc))
        return out

    no_d = broken(case_path, "no-d.json", lambda doc: doc.pop("d"))
    null_seed = broken(case_path, "null-seed.json", lambda doc: doc["scenario"].update(seed=None))
    no_w = broken(dec_path, "no-w.json", lambda doc: doc.pop("w"))
    no_per_case = broken(report, "no-per-case.json", lambda doc: doc.pop("per_case"))
    part_score = str(tmp_path / "part-score.json")
    open(part_score, "w").write(json.dumps(
        {"version": 1, "per_case": [{"set_score": {"precision": 1.0}}], "aggregate": {}}))
    no_le = broken(report, "no-le.json", lambda doc: doc["per_case"][0].pop("length_error"))
    gm_tail = ["--restarts", "1", "--seed", "0", "--report", str(tmp_path / "gm.json")]
    for argv, named, cause in (
            (["defend", "sign", no_d], no_d, "missing key 'd'"),
            (["defend", "sign", null_seed], null_seed, "wrongly typed value"),
            (["gm", no_d, "--decoder", dec_path, *gm_tail], no_d, "missing key 'd'"),
            (["gm", case_path, "--decoder", no_w, *gm_tail], no_w, "missing key 'w'"),
            (["eval", "--reports", no_per_case], no_per_case, "missing key 'per_case'"),
            (["eval", "--reports", part_score], part_score, "missing key 'recall'"),
            (["eval", "--reports", no_le], no_le, "missing key 'length_error'")):
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith(f"error: {named}: "), err
        assert cause in err, err
    # attack records the cause per case and names the file too
    assert main(["attack", "rlg", no_d, "--report", report]) == 1
    assert f"ValueError: {no_d}: missing key 'd'" in capsys.readouterr().err


def test_attack_rank_tol_sets_rank_and_s(tmp_path, capsys):
    case_path = str(tmp_path / "case.json")
    main(["simulate", "--mode", "batch", "--n", "6", "--d", "32", "--classes", "40",
          "--latent", "tanh", "--seed", "5", "--out", case_path])
    dw = load_case(case_path).case.delta_w
    sv = svd(dw).singular
    loose = 0.3
    default_rank = numeric_rank(sv, default_rank_tol(32, 40))
    assert default_rank == 6
    assert 1 <= numeric_rank(sv, loose) < default_rank  # the loose cut lowers the rank
    for extra, tol in (([], default_rank_tol(32, 40)), (["--rank-tol", repr(loose)], loose)):
        report = str(tmp_path / "rep.json")
        assert main(["attack", "rlg", case_path, *extra, "--report", report]) == 0
        entry = load_report(report)["per_case"][0]
        assert entry["rank_estimate"] == entry["inferred_S"] == numeric_rank(sv, tol)
    # a cut outside (0, 1) is a usage error, found before any case is read
    capsys.readouterr()
    for tol in ("2", "nan", "inf"):
        report = str(tmp_path / f"bad-{tol}.json")
        assert main(["attack", "rlg", case_path, "--rank-tol", tol, "--report", report]) == 2
        assert "error: rank_tol_rel must lie in (0, 1)" in capsys.readouterr().err
        assert not os.path.exists(report)


def test_attack_assume_s_sets_s_and_labels(tmp_path):
    case_path = str(tmp_path / "case.json")
    report = str(tmp_path / "rep.json")
    main(["simulate", "--mode", "batch", "--n", "4", "--d", "32", "--classes", "40",
          "--latent", "tanh", "--seed", "3", "--out", case_path])
    dw = load_case(case_path).case.delta_w
    assert main(["attack", "rlg", case_path, "--assume-s", "3", "--report", report]) == 0
    entry = load_report(report)["per_case"][0]
    assert entry["inferred_S"] == 3
    assert entry["predicted_labels"] == sorted(rlg_attack(dw, RlgConfig(assume_s=3)).labels)
    # one S choice per command
    with pytest.raises(SystemExit) as exit_:
        main(["attack", "rlg", case_path, "--assume-s", "3", "--use-true-s",
              "--report", report])
    assert exit_.value.code == 2


def test_bench_suite_prints_lines_and_exit_code(monkeypatch, capsys):
    good = bench.CriterionResult("good", True, {"x": 1})
    bad = bench.CriterionResult("bad", False, {"y": 2})
    monkeypatch.setitem(bench.SUITES, "table1", (lambda: good,))
    assert main(["bench", "--suite", "table1"]) == 0
    assert capsys.readouterr().out == "PASS  good: x=1\n"
    monkeypatch.setitem(bench.SUITES, "table1", (lambda: good, lambda: bad))
    assert main(["bench", "--suite", "table1"]) == 1
    assert capsys.readouterr().out == "PASS  good: x=1\nFAIL  bad: y=2\n"
