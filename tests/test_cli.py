import dataclasses
import json
import os
from pathlib import Path

import numpy as np
import pytest

import gradleak.cli
import gradleak.linalg
import gradleak.rlg
from casefiles import edit_header, split
from gradleak import bench
from gradleak.caseio import (load_case, load_decoder, load_report, read_grd, save_case,
                             save_decoder, write_grd)
from gradleak.defense import DefenseSpec, apply_defense
from gradleak.cli import main
from gradleak.gm import ToyDecoder, make_problem
from gradleak.linalg import default_rank_tol, numeric_rank, svd
from gradleak.rlg import RlgConfig, rlg_attack
from gradleak.simulator import GradientCase, Scenario, simulate_case


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
    path = out_dir / "case-00000007.case"
    first_grd = tmp_path / "first.grd"
    assert main(argv + ["--grd-out", str(first_grd)]) == 0
    assert capsys.readouterr().out.split() == [str(path)]
    assert os.listdir(out_dir) == [path.name]
    assert read_grd(str(first_grd)).tobytes() == load_case(str(path)).case.delta_w.tobytes()

    # an existing file is kept; one that is no case cannot give the sidecar
    # the command names, so the run fails and writes none
    path.write_text("kept")
    skipped_grd = tmp_path / "skipped.grd"
    assert main(argv + ["--skip-existing", "--grd-out", str(skipped_grd)]) == 2
    assert path.read_text() == "kept"
    assert not skipped_grd.exists()
    assert main(argv + ["--skip-existing"]) == 0
    assert capsys.readouterr().out.split() == [str(path)]
    assert path.read_text() == "kept"

    # without --skip-existing the case is written again
    assert main(argv) == 0
    assert load_case(str(path)).case.scenario.seed == 7


def test_simulate_skip_existing_writes_the_kept_case_sidecar(tmp_path, capsys):
    # a kept case still gets its sidecar, read from the kept file: every file
    # the command names exists on exit 0, and it holds the bytes the new
    # case's sidecar held
    path, grd = tmp_path / "case.json", tmp_path / "case.grd"
    other, first_grd = str(tmp_path / "other.json"), tmp_path / "first.grd"
    assert main(["simulate", "--mode", "batch", "--n", "2", "--d", "6", "--classes", "5",
                 "--seed", "8", "--out", other, "--grd-out", str(first_grd)]) == 0
    os.replace(other, path)
    kept = path.read_bytes()
    capsys.readouterr()
    assert main(["simulate", "--mode", "batch", "--n", "2", "--d", "6", "--classes", "5",
                 "--seed", "9", "--out", str(path), "--grd-out", str(grd),
                 "--skip-existing"]) == 0
    assert capsys.readouterr().out.split() == [str(path)]
    assert path.read_bytes() == kept
    case = load_case(str(path)).case
    assert case.scenario.seed == 8
    assert read_grd(str(grd)).tobytes() == case.delta_w.tobytes()
    assert grd.read_bytes() == first_grd.read_bytes()


def test_simulate_multistep_sets_every_step_lr(tmp_path):
    case_path = str(tmp_path / "case.json")
    assert main(["simulate", "--mode", "multistep", "--n", "2", "--k", "3", "--d", "8",
                 "--classes", "6", "--lr", "0.3", "--seed", "4", "--out", case_path]) == 0
    assert load_case(case_path).case.scenario.lrs == (0.3,) * 3


def test_simulate_multistep_default_lr_matches_the_library(tmp_path):
    # neither side names a learning rate: both resolve it in `Scenario`
    case_path = str(tmp_path / "case.json")
    assert main(["simulate", "--mode", "multistep", "--n", "2", "--k", "3", "--d", "8",
                 "--classes", "6", "--seed", "4", "--out", case_path]) == 0
    library = simulate_case(Scenario(d=8, classes=6, mode="multistep", n=2, k=3, seed=4))
    assert load_case(case_path).case.scenario == library.scenario
    lib_path = str(tmp_path / "library.json")
    save_case(lib_path, library)
    # the whole file, its `scenario` block included, is the same bytes
    assert Path(case_path).read_bytes() == Path(lib_path).read_bytes()


def test_simulate_refuses_options_it_would_ignore(tmp_path, capsys):
    # --decoder-out would save the first seed's decoder for every case, and
    # --lr is read by multistep only; neither run writes anything
    cases, dec, case = (str(tmp_path / name) for name in ("cases", "dec.json", "case.json"))
    base = ["simulate", "--n", "2", "--d", "6", "--classes", "5", "--seed", "21"]
    for extra, cause in (
            (["--mode", "sequence", "--count", "3", "--out", cases, "--decoder-out", dec],
             "--decoder-out only applies to a single case"),
            (["--mode", "batch", "--lr", "0.7", "--out", case],
             "--lr sets the multistep learning rate; batch does not read it")):
        assert main(base + extra) == 2, extra
        assert f"error: {cause}" in capsys.readouterr().err
        assert os.listdir(tmp_path) == []


def test_simulate_refuses_a_non_finite_lr(tmp_path, capsys):
    # the scenario names the rate, before the simulator meets its NaN weights
    case = str(tmp_path / "case.json")
    for rate in ("nan", "inf"):
        assert main(["simulate", "--mode", "multistep", "--n", "2", "--k", "2", "--d", "6",
                     "--classes", "5", "--lr", rate, "--out", case]) == 2
        assert capsys.readouterr().err == f"error: learning rate {rate} must be finite and positive\n"
        assert os.listdir(tmp_path) == []


def test_simulate_refuses_a_count_below_one(tmp_path, capsys):
    out = str(tmp_path / "cases")
    assert main(["simulate", "--mode", "batch", "--n", "2", "--d", "6", "--classes", "5",
                 "--count", "0", "--out", out]) == 2
    assert capsys.readouterr().err == "error: --count must be >= 1\n"
    assert os.listdir(tmp_path) == []


def test_simulate_count_refuses_before_making_the_directory(tmp_path, capsys):
    # a refused scenario, or a seed past 2^64 - 1 on a later case, leaves
    # no --out directory behind
    out = str(tmp_path / "cases")
    assert main(["simulate", "--mode", "multistep", "--n", "2", "--k", "2", "--d", "6",
                 "--classes", "5", "--lr", "nan", "--count", "3", "--out", out]) == 2
    assert capsys.readouterr().err == "error: learning rate nan must be finite and positive\n"
    assert main(["simulate", "--mode", "batch", "--n", "2", "--d", "6", "--classes", "5",
                 "--seed", str(2 ** 64 - 2), "--count", "3", "--out", out]) == 2
    assert capsys.readouterr().err == "error: seed must be an unsigned 64-bit integer\n"
    assert os.listdir(tmp_path) == []


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
        doc = json.loads(Path(path).read_text())
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
    original = dataclasses.replace(load_case(case_path).case,
                                   vocab={c: f"tok{c}" for c in range(6)})
    save_case(case_path, original)
    assert main(["defend", "drop", case_path, "--rate", "0.5",
                 "--out", out_path]) == 0
    defended = load_case(out_path)
    assert defended.defense_applied.kind == "drop"
    assert defended.defense_applied.rate == 0.5
    assert int((defended.case.delta_w == 0.0).sum()) >= 24
    # every case field but the update is carried over, vocab included
    assert all(getattr(defended.case, f.name) == getattr(original, f.name)
               for f in dataclasses.fields(GradientCase) if f.name != "delta_w")

    # in-place sign defense
    assert main(["defend", "sign", case_path]) == 0
    signed = load_case(case_path)
    assert signed.defense_applied.kind == "sign"
    assert set(np.unique(signed.case.delta_w)) <= {-1.0, 0.0, 1.0}


def test_defend_writes_the_defended_payload_and_record(tmp_path):
    case_path = str(tmp_path / "case.json")
    main(["simulate", "--mode", "batch", "--n", "3", "--d", "8",
          "--classes", "6", "--seed", "9", "--out", case_path])
    original = load_case(case_path).case
    out = str(tmp_path / "defended.json")
    for kind, spec in (("sign", DefenseSpec("sign")), ("drop", DefenseSpec("drop", 0.5))):
        assert main(["defend", kind, case_path, "--out", out]) == 0
        doc, payload = split(out)
        assert doc["version"] == 3
        assert payload == apply_defense(original.delta_w, spec).astype("<f8").tobytes()
        assert load_case(out).defense_applied == spec


def test_defend_sign_refuses_a_rate(tmp_path, capsys):
    case_path = str(tmp_path / "case.json")
    main(["simulate", "--mode", "batch", "--n", "3", "--d", "8",
          "--classes", "6", "--seed", "9", "--out", case_path])
    before = Path(case_path).read_bytes()
    capsys.readouterr()
    out = tmp_path / "signed.json"
    assert main(["defend", "sign", case_path, "--rate", "0.3", "--out", str(out)]) == 2
    assert "error: sign takes no rate, got 0.3" in capsys.readouterr().err
    assert not out.exists()
    assert main(["defend", "sign", case_path, "--rate", "0.3"]) == 2
    assert Path(case_path).read_bytes() == before


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


def test_delta_grd_attack_decodes_nothing(tmp_path, monkeypatch):
    # the sidecar replaces the stored update, whose payload is then never read
    case_path = str(tmp_path / "case.json")
    grd_path = str(tmp_path / "case.grd")
    report = str(tmp_path / "rep.json")
    main(["simulate", "--mode", "batch", "--n", "3", "--d", "8", "--classes", "12",
          "--seed", "4", "--out", case_path, "--grd-out", grd_path])

    def entry(argv):
        assert main(argv + ["--report", report]) == 0
        got = load_report(report)["per_case"][0]
        got.pop("wall_time_ms")
        return got

    plain = {attack: entry(["attack", attack, case_path]) for attack in ("rlg", "mincol")}

    read_matrix = gradleak.caseio._read_matrix

    def sidecar_only(fh, *args):
        # the same payload reader serves the sidecar, which must be read
        if fh.name == case_path:
            raise AssertionError("the stored update was read")
        return read_matrix(fh, *args)

    monkeypatch.setattr(gradleak.caseio, "_read_matrix", sidecar_only)
    for attack, want in plain.items():
        assert entry(["attack", attack, case_path, "--delta-grd", grd_path]) == want
    assert main(["attack", "rlg", case_path, "--report", report]) == 1
    assert "the stored update was read" in load_report(report)["per_case"][0]["error"]


def test_delta_grd_still_checks_the_stored_update_size(tmp_path):
    case_path = str(tmp_path / "case.json")
    grd_path = str(tmp_path / "case.grd")
    report = str(tmp_path / "rep.json")
    main(["simulate", "--mode", "batch", "--n", "2", "--d", "8", "--classes", "6",
          "--seed", "3", "--out", case_path, "--grd-out", grd_path])
    _, payload = split(case_path)
    assert len(payload) == 384  # 8 x 6 x 8 bytes

    def broken(name, edit, extra):
        # the file with its header edited and `extra` zero bytes added to it
        # (removed from it, when negative)
        out = edit_header(case_path, edit, out=tmp_path / f"{name}.json")
        blob = Path(out).read_bytes()
        Path(out).write_bytes(blob[:len(blob) + extra] + bytes(max(extra, 0)))
        return out

    for name, edit, extra, cause in (
            ("missing", lambda d: d["arrays"].pop("delta_w"), 0,
             "stored arrays {} are not the declared {'delta_w': (8, 6)}"),
            ("number", lambda d: d["arrays"].update(delta_w=5), 0,
             "wrongly typed value (cannot unpack non-iterable int object)"),
            ("short", lambda d: None, -4, "delta_w payload holds 380 bytes, shape (8, 6) needs 384"),
            ("long", lambda d: None, 8, "delta_w payload holds 392 bytes, shape (8, 6) needs 384"),
            ("taller", lambda d: d.update(d=9), 0,
             "stored arrays {'delta_w': (8, 6)} are not the declared {'delta_w': (9, 6)}"),
            ("taller-arrays", lambda d: d.update(d=9, arrays={"delta_w": [9, 6]}), 0,
             "delta_w payload holds 384 bytes, shape (9, 6) needs 432")):
        bad = broken(name, edit, extra)
        assert main(["attack", "rlg", bad, "--delta-grd", grd_path, "--report", report]) == 1
        assert load_report(report)["per_case"][0]["error"] == f"ValueError: {bad}: {cause}"

    # without the sidecar the stored update is read and checked in full
    nan = str(tmp_path / "nan.json")
    Path(nan).write_bytes(Path(case_path).read_bytes()[:-384]
                          + np.full(48, np.nan, dtype="<f8").tobytes())
    assert main(["attack", "rlg", nan, "--report", report]) == 1
    assert (load_report(report)["per_case"][0]["error"]
            == f"ValueError: {nan}: delta_w contains NaN or Inf entries")


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
    doc = json.loads(Path(report).read_text())
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
    dec, context, labels = bench.table4_instance(502)
    target = make_problem(dec, context, labels).target_grad
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
        transcripts.append(json.loads(Path(report).read_text())["result"]["transcript"])
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
    doc = json.loads(Path(report).read_text())
    truth = load_case(case_path).case.true_labels
    assert doc["config"]["s_used"] == 2
    assert doc["config"]["bow"] == sorted(set(truth))


def test_gm_solver_failures_exit_1_without_a_report(tmp_path, monkeypatch, capsys):
    case_path = str(tmp_path / "seq.json")
    dec_path = str(tmp_path / "dec.json")
    report = str(tmp_path / "gm.json")
    main(["simulate", "--mode", "sequence", "--n", "2", "--d", "6",
          "--classes", "5", "--seed", "21", "--out", case_path,
          "--decoder-out", dec_path])
    head = ["gm", case_path, "--decoder", dec_path, "--restarts", "1", "--seed", "0",
            "--report", report]
    capsys.readouterr()

    def singular(*args, **kwargs):
        raise gradleak.rlg.LpSingularBasisError(7, 3)

    for extra, patch, cause in (
            (["--bow"], (gradleak.rlg, "DEFAULT_MAX_PIVOTS", 0),
             "error: LpPivotLimitError: LP feasibility solve for label"),
            (["--bow"], (gradleak.cli, "rlg_attack", singular),
             "error: LpSingularBasisError: LP basis matrix for label 3 singular"),
            ([], (gradleak.linalg, "JACOBI_SWEEP_CAP", 0),
             "error: SvdConvergenceError: one-sided Jacobi SVD failed to converge")):
        with monkeypatch.context() as m:
            m.setattr(*patch)
            assert main(head + extra) == 1
        assert capsys.readouterr().err.startswith(cause)
        assert not os.path.exists(report)


def test_gm_lambda_defaults_to_the_problem_weight(tmp_path, capsys):
    case_path = str(tmp_path / "seq.json")
    dec_path = str(tmp_path / "dec.json")
    main(["simulate", "--mode", "sequence", "--n", "2", "--d", "6",
          "--classes", "5", "--seed", "21", "--out", case_path,
          "--decoder-out", dec_path])
    head = ["gm", case_path, "--decoder", dec_path, "--bow", "--use-true-s",
            "--restarts", "2", "--seed", "0", "--report"]
    docs = []
    for name, extra in (("default.json", []), ("explicit.json", ["--lambda", "0.1"])):
        assert main(head + [str(tmp_path / name)] + extra) == 0
        docs.append(json.loads((tmp_path / name).read_text()))
    assert docs[0]["result"] == docs[1]["result"]
    assert docs[0]["config"]["lam"] == 0.1
    # a weight that is not finite is refused before any descent
    capsys.readouterr()
    for weight in ("nan", "inf"):
        report = tmp_path / f"{weight}.json"
        assert main(head + [str(report), "--lambda", weight]) == 2
        assert capsys.readouterr().err == (
            f"error: regularization weight must be finite and >= 0, got {weight}\n")
        assert not report.exists()


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
        doc = json.loads(Path(report).read_text())
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

    # each row is recomputed from its report's entries, as the ALL row is,
    # never copied from the stored aggregate
    doc = json.loads(Path(r1).read_text())
    fresh = dict(doc["aggregate"])
    doc["aggregate"].update(cases=99, em_rate=0.123)
    Path(r1).write_text(json.dumps(doc))
    assert main(["eval", "--reports", r1, "--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert rows[0] == {"report": r1, "attack": "idlg", **fresh}
    assert rows[0]["cases"] == rows[1]["cases"] == 1
    assert rows[0]["em_rate"] == 1.0

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
    Path(bad).write_text("{not json")
    report = str(tmp_path / "rep.json")
    code = main(["attack", "rlg", bad, "--report", report])
    assert code != 0

    code = main(["defend", "sign", str(tmp_path / "missing.json")])
    assert code == 2
    assert "error:" in capsys.readouterr().err

    # a case without `d`, one with a null seed, a decoder without `d_a` and a
    # report without `per_case`: every loader names the file and the cause
    case_path = str(tmp_path / "case.json")
    dec_path = str(tmp_path / "dec.json")
    main(["simulate", "--mode", "sequence", "--n", "2", "--d", "6", "--classes", "5",
          "--seed", "21", "--out", case_path, "--decoder-out", dec_path])
    main(["attack", "mincol", case_path, "--report", report])
    capsys.readouterr()

    def broken(path, name, edit):
        doc = json.loads(Path(path).read_text())
        edit(doc)
        out = str(tmp_path / name)
        Path(out).write_text(json.dumps(doc))
        return out

    def broken_header(path, name, edit):
        return edit_header(path, edit, out=tmp_path / name)

    no_d = broken_header(case_path, "no-d.json", lambda doc: doc.pop("d"))
    null_seed = broken_header(case_path, "null-seed.json",
                              lambda doc: doc["scenario"].update(seed=None))
    no_w = broken_header(dec_path, "no-w.json", lambda doc: doc.pop("d_a"))
    no_per_case = broken(report, "no-per-case.json", lambda doc: doc.pop("per_case"))
    part_score = str(tmp_path / "part-score.json")
    Path(part_score).write_text(json.dumps(
        {"version": 1, "per_case": [{"set_score": {"precision": 1.0}}], "aggregate": {}}))
    no_le = broken(report, "no-le.json", lambda doc: doc["per_case"][0].pop("length_error"))
    gm_tail = ["--restarts", "1", "--seed", "0", "--report", str(tmp_path / "gm.json")]
    for argv, named, cause in (
            (["defend", "sign", no_d], no_d, "missing key 'd'"),
            (["defend", "sign", null_seed], null_seed, "wrongly typed value"),
            (["gm", no_d, "--decoder", dec_path, *gm_tail], no_d, "missing key 'd'"),
            (["gm", case_path, "--decoder", no_w, *gm_tail], no_w, "missing key 'd_a'"),
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

    # a version-1 case is refused by version, whatever it holds
    v1 = broken_header(case_path, "v1.json", lambda doc: doc.update(version=1))
    assert main(["defend", "sign", v1]) == 2
    assert capsys.readouterr().err == f"error: {v1}: unrecognized case version 1\n"
    assert main(["attack", "rlg", v1, "--report", report]) == 1
    assert (load_report(report)["per_case"][0]["error"]
            == f"ValueError: {v1}: unrecognized case version 1")


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


def test_attack_assume_s_below_one_is_a_usage_error(tmp_path, capsys):
    # found before any case is read: a case path that does not exist is
    # never opened, and no report is written
    missing = str(tmp_path / "missing.json")
    for bad in ("0", "-2"):
        report = str(tmp_path / f"bad{bad}.json")
        assert main(["attack", "rlg", missing, "--assume-s", bad, "--report", report]) == 2
        assert f"error: assume_s must be at least 1, got {bad}" in capsys.readouterr().err
        assert not os.path.exists(report)


def test_attack_s_options_are_refused_by_attacks_that_do_not_read_s(tmp_path, capsys):
    # only rlg reads S; idlg and mincol refuse an S option before any case
    # is read, name it, and write no report
    missing = str(tmp_path / "missing.json")
    for attack, extra in (("idlg", ["--assume-s", "7"]), ("idlg", ["--rank-tol", "0.5"]),
                          ("mincol", ["--use-true-s"]), ("mincol", ["--assume-s", "2"])):
        report = str(tmp_path / f"{attack}.json")
        assert main(["attack", attack, missing, *extra, "--report", report]) == 2
        assert f"error: {extra[0]} sets S for the rlg attack only" in capsys.readouterr().err
        assert not os.path.exists(report)


def test_defend_refuses_an_already_defended_case(tmp_path, capsys):
    case_path = str(tmp_path / "case.json")
    main(["simulate", "--mode", "batch", "--n", "3", "--d", "8",
          "--classes", "6", "--seed", "9", "--out", case_path])
    dropped = tmp_path / "d1.json"
    assert main(["defend", "drop", case_path, "--rate", "0.5", "--out", str(dropped)]) == 0
    capsys.readouterr()
    before = dropped.read_bytes()
    signed = str(tmp_path / "d2.json")
    assert main(["defend", "sign", str(dropped), "--out", signed]) == 2
    assert "already has a defense applied (drop, rate 0.5)" in capsys.readouterr().err
    assert not os.path.exists(signed)
    # in place, the defended file is left as it was
    assert main(["defend", "sign", str(dropped)]) == 2
    assert dropped.read_bytes() == before
    assert load_case(str(dropped)).defense_applied == DefenseSpec("drop", 0.5)


def test_bench_suite_prints_lines_and_exit_code(monkeypatch, capsys):
    good = bench.CriterionResult("good", True, {"x": 1})
    bad = bench.CriterionResult("bad", False, {"y": 2})
    monkeypatch.setitem(bench.SUITES, "table1", (lambda: good,))
    assert main(["bench", "--suite", "table1"]) == 0
    assert capsys.readouterr().out == "PASS  good: x=1\n"
    monkeypatch.setitem(bench.SUITES, "table1", (lambda: good, lambda: bad))
    assert main(["bench", "--suite", "table1"]) == 1
    assert capsys.readouterr().out == "PASS  good: x=1\nFAIL  bad: y=2\n"


def test_run_suite_names_the_suites_when_it_refuses_one():
    with pytest.raises(ValueError, match=r"unknown suite 'nope', expected one of "
                                         r"\['table1', 'table2', 'table3', 'table4'\]"):
        bench.run_suite("nope")
