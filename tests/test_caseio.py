import base64
import dataclasses
import json
import os
import stat
import struct
from pathlib import Path

import numpy as np
import pytest

from gradleak.caseio import (aggregate_report, load_case, load_decoder, load_report,
                             read_grd, save_case, save_decoder, save_report, write_grd)
from gradleak.defense import DefenseSpec
from gradleak.gm import ToyDecoder
from gradleak.simulator import GradientCase, Scenario, initial_state, simulate_case


def test_case_round_trip_bit_exact(tmp_path):
    case = simulate_case(Scenario(d=9, classes=7, mode="batch", n=3,
                                  latent="tanh", seed=31))
    path = str(tmp_path / "case.json")
    save_case(path, case)
    loaded = load_case(path)
    assert loaded.case.delta_w.tobytes() == case.delta_w.tobytes()
    assert loaded.case.true_labels == case.true_labels
    assert loaded.case.scenario == case.scenario
    assert loaded.defense_applied is None


def test_case_sequence_carries_ordered_ground_truth(tmp_path):
    case = simulate_case(Scenario(d=6, classes=5, mode="sequence", n=4, seed=8))
    path = str(tmp_path / "seq.json")
    save_case(path, case)
    doc = json.loads(Path(path).read_text())
    assert doc["ground_truth"]["sequence"] == list(case.true_labels)
    assert doc["version"] == 2


def test_case_defense_and_vocab_round_trip(tmp_path):
    base = simulate_case(Scenario(d=4, classes=3, mode="single", seed=1))
    case = type(base)(scenario=base.scenario, delta_w=base.delta_w,
                      true_labels=base.true_labels, vocab={0: "a", 1: "b", 2: "c"})
    path = str(tmp_path / "def.json")
    save_case(path, case, defense_applied=DefenseSpec(kind="drop", rate=0.5))
    loaded = load_case(path)
    assert loaded.defense_applied == DefenseSpec(kind="drop", rate=0.5)
    assert loaded.case.vocab == {0: "a", 1: "b", 2: "c"}


def test_case_rejects_bad_version_and_shape(tmp_path):
    case = simulate_case(Scenario(d=4, classes=3, mode="single", seed=1))
    path = str(tmp_path / "bad.json")
    save_case(path, case)
    doc = json.loads(Path(path).read_text())
    doc["version"] = 99
    Path(path).write_text(json.dumps(doc))
    with pytest.raises(ValueError):
        load_case(path)
    doc["version"] = 2
    doc["d"] = 5
    Path(path).write_text(json.dumps(doc))
    with pytest.raises(ValueError):
        load_case(path)


def test_grd_round_trip_and_layout(tmp_path):
    rng = np.random.default_rng(0)
    m = rng.normal(size=(3, 5))
    path = str(tmp_path / "m.grd")
    write_grd(path, m)
    back = read_grd(path)
    assert back.tobytes() == m.tobytes()

    blob = Path(path).read_bytes()
    assert blob[:4] == b"GRD1"
    d, c = struct.unpack("<II", blob[4:12])
    assert (d, c) == (3, 5)
    assert len(blob) == 12 + 8 * 15
    assert struct.unpack("<d", blob[12:20])[0] == m[0, 0]


def test_grd_rejects_corruption(tmp_path):
    path = str(tmp_path / "bad.grd")
    Path(path).write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(ValueError):
        read_grd(path)
    write_grd(path, np.ones((2, 2)))
    blob = Path(path).read_bytes()
    Path(path).write_bytes(blob[:-4])
    with pytest.raises(ValueError):
        read_grd(path)


def test_decoder_round_trip(tmp_path):
    dec = initial_state(Scenario(d=5, classes=4, mode="sequence", n=2, seed=77))
    path = str(tmp_path / "dec.json")
    save_decoder(path, dec)
    back = load_decoder(path)
    assert back.w.tobytes() == dec.w.tobytes()
    assert back.b.tobytes() == dec.b.tobytes()
    assert back.pos is None


def test_decoder_positional_offsets_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    dec = ToyDecoder(w=rng.normal(size=(5, 4)), b=rng.normal(size=4),
                     pos=rng.normal(size=(3, 4)))
    path = str(tmp_path / "dec.json")
    save_decoder(path, dec)
    back = load_decoder(path)
    assert back.pos.tobytes() == dec.pos.tobytes()
    assert back.w.tobytes() == dec.w.tobytes()
    assert back.b.tobytes() == dec.b.tobytes()

    # a file written without offsets still loads, with none
    doc = json.loads(Path(path).read_text())
    del doc["pos"]
    Path(path).write_text(json.dumps(doc))
    assert load_decoder(path).pos is None


# -0.0, the smallest subnormal, a subnormal near the normal range, the
# smallest normal and the extremes +-1e308: all must come back bit for bit
EDGE_VALUES = np.array([-0.0, 0.0, 5e-324, -5e-324, 1.1125369292536007e-308,
                        2.2250738585072014e-308, 1e308, -1e308, 1.0 / 3.0])


def edge_matrix(rows, cols, seed):
    m = np.random.default_rng(seed).normal(size=(rows, cols))
    m.flat[:EDGE_VALUES.size] = EDGE_VALUES
    return m


def edge_case():
    sc = Scenario(d=4, classes=5, mode="batch", n=2, seed=3)
    return GradientCase(scenario=sc, delta_w=edge_matrix(4, 5, 0), true_labels=(1, 3))


def test_version_2_case_round_trip_is_bit_exact_on_edge_values(tmp_path):
    case = edge_case()
    path = str(tmp_path / "edge.json")
    save_case(path, case)
    doc = json.loads(Path(path).read_text())
    assert doc["version"] == 2
    # the same payload as the .grd sidecar, base64 encoded
    write_grd(str(tmp_path / "edge.grd"), case.delta_w)
    assert base64.b64decode(doc["delta_w"]) == (tmp_path / "edge.grd").read_bytes()[12:]
    loaded = load_case(path).case.delta_w
    assert loaded.tobytes() == case.delta_w.tobytes()
    assert loaded.dtype == np.float64 and loaded.dtype.isnative
    assert loaded.flags.writeable and loaded.flags.c_contiguous
    assert read_grd(str(tmp_path / "edge.grd")).flags.writeable


@pytest.mark.parametrize("with_pos", [True, False])
def test_version_2_decoder_round_trip_is_bit_exact_on_edge_values(tmp_path, with_pos):
    dec = ToyDecoder(w=edge_matrix(3, 4, 1), b=edge_matrix(1, 4, 2)[0],
                     pos=edge_matrix(2, 4, 3) if with_pos else None)
    path = str(tmp_path / "dec.json")
    save_decoder(path, dec)
    assert json.loads(Path(path).read_text())["version"] == 2
    back = load_decoder(path)
    assert back.w.tobytes() == dec.w.tobytes()
    assert back.b.tobytes() == dec.b.tobytes()
    if with_pos:
        assert back.pos.tobytes() == dec.pos.tobytes()
    else:
        assert back.pos is None


def test_bad_version_2_payloads_name_the_file(tmp_path):
    case_path = str(tmp_path / "case.json")
    save_case(case_path, edge_case())
    dec_path = str(tmp_path / "dec.json")
    save_decoder(dec_path, ToyDecoder(w=np.ones((3, 4)), b=np.zeros(4), pos=np.ones((2, 4))))
    nan = base64.b64encode(np.full(20, np.nan, dtype="<f8").tobytes()).decode()
    short = base64.b64encode(np.ones(19, dtype="<f8").tobytes()).decode()
    for path, key, text, cause in (
            (case_path, "delta_w", short, "delta_w payload holds 152 bytes, shape (4, 5) needs 160"),
            (case_path, "delta_w", "not base64!", "delta_w is not base64 text"),
            (case_path, "delta_w", nan, "delta_w contains NaN or Inf entries"),
            (dec_path, "w", short, "decoder weights payload holds 152 bytes"),
            (dec_path, "b", "@@@@", "decoder bias is not base64 text"),
            (dec_path, "pos", nan[:24],
             "decoder positional offsets payload holds 18 bytes, shape (2, 4) needs 64")):
        doc = json.loads(Path(path).read_text())
        doc[key] = text
        bad = str(tmp_path / f"bad-{key}.json")
        Path(bad).write_text(json.dumps(doc))
        with pytest.raises(ValueError) as err:
            (load_case if path == case_path else load_decoder)(bad)
        assert str(err.value).startswith(f"{bad}: {cause}"), str(err.value)


def test_grd_errors_name_the_file_and_cause(tmp_path):
    path = str(tmp_path / "bad.grd")
    for blob, cause in (
            (b"GRD1\x02\x00", "truncated .grd header (6 of 12 bytes)"),
            (b"GRD1" + struct.pack("<II", 0, 5), "delta_w must have positive dimensions"),
            (b"GRD1" + struct.pack("<II", 1, 2) + struct.pack("<2d", 1.0, float("nan")),
             "delta_w contains NaN or Inf entries"),
            (b"GRD1" + struct.pack("<II", 1, 2) + struct.pack("<d", 1.0),
             "delta_w payload holds 8 bytes, shape (1, 2) needs 16")):
        Path(path).write_bytes(blob)
        with pytest.raises(ValueError) as err:
            read_grd(path)
        assert str(err.value).startswith(f"{path}: {cause}"), str(err.value)


def test_save_case_refuses_a_non_finite_update(tmp_path):
    # a case that would not load back is not written at all
    path = tmp_path / "bad.json"
    for bad in (float("nan"), float("inf")):
        dw = edge_matrix(4, 5, 0)
        dw[2, 1] = bad
        with pytest.raises(ValueError, match="delta_w contains NaN or Inf entries"):
            save_case(str(path), dataclasses.replace(edge_case(), delta_w=dw))
        assert os.listdir(tmp_path) == []


def test_report_round_trip_and_aggregate_invariant(tmp_path):
    per_case = [
        {"case_id": "a", "attack": "rlg", "inferred_S": 2,
         "predicted_labels": [1, 2],
         "set_score": {"precision": 1.0, "recall": 0.5, "f1": 2 / 3,
                       "exact_match": False},
         "length_error": 1, "wall_time_ms": 3.2},
        {"case_id": "b", "attack": "rlg", "inferred_S": 1,
         "predicted_labels": [4],
         "set_score": {"precision": 1.0, "recall": 1.0, "f1": 1.0,
                       "exact_match": True},
         "length_error": 0, "wall_time_ms": 1.1},
        {"case_id": "c", "attack": "rlg", "error": "boom", "wall_time_ms": 0.1},
    ]
    path = str(tmp_path / "report.json")
    save_report(path, per_case, config={"attack": "rlg"})
    doc = load_report(path)
    agg = doc["aggregate"]
    scored = [e for e in doc["per_case"] if "set_score" in e]
    assert agg["cases"] == 2 and agg["errors"] == 1
    assert abs(agg["precision_mean"] - sum(e["set_score"]["precision"] for e in scored) / 2) <= 1e-12
    assert abs(agg["recall_mean"] - sum(e["set_score"]["recall"] for e in scored) / 2) <= 1e-12
    assert abs(agg["f1_mean"] - sum(e["set_score"]["f1"] for e in scored) / 2) <= 1e-12
    assert abs(agg["em_rate"] - 0.5) <= 1e-12
    assert abs(agg["le_mean"] - 0.5) <= 1e-12
    # recomputing from the stored entries reproduces the stored aggregate
    assert aggregate_report(doc["per_case"]) == agg


def test_aggregate_empty():
    agg = aggregate_report([])
    assert agg["cases"] == 0 and agg["precision_mean"] is None


def test_every_loader_names_the_version_it_got(tmp_path):
    case = simulate_case(Scenario(d=4, classes=3, mode="single", seed=1))
    paths = {kind: str(tmp_path / f"{kind}.json") for kind in ("case", "decoder", "report")}
    save_case(paths["case"], case)
    save_decoder(paths["decoder"], initial_state(case.scenario))
    save_report(paths["report"], [], config={})
    # version 1, the nested-list case and decoder format, is refused like any other
    for kind, load, version in (("case", load_case, 1), ("case", load_case, 3),
                                ("decoder", load_decoder, 1), ("decoder", load_decoder, 3),
                                ("report", load_report, 3)):
        doc = json.loads(Path(paths[kind]).read_text())
        doc["version"] = version
        Path(paths[kind]).write_text(json.dumps(doc))
        with pytest.raises(ValueError) as err:
            load(paths[kind])
        assert str(err.value) == f"{paths[kind]}: unrecognized {kind} version {version}"


def test_case_scenario_block_is_pinned(tmp_path):
    sc = Scenario(d=5, classes=6, mode="multistep", n=2, k=2, lrs=(0.1, 0.25),
                  latent="tanh", labels=(4, 0, 2, 2), seed=17)
    path = str(tmp_path / "multi.json")
    save_case(path, simulate_case(sc))
    with open(path) as fh:
        block = json.load(fh)["scenario"]
    assert list(block.items()) == [
        ("d", 5), ("classes", 6), ("mode", "multistep"), ("n", 2), ("k", 2),
        ("lrs", [0.1, 0.25]), ("latent", "tanh"), ("labels", [4, 0, 2, 2]), ("seed", 17)]
    assert load_case(path).case.scenario == sc


def test_written_files_get_the_mode_of_a_plain_write(tmp_path):
    case = simulate_case(Scenario(d=4, classes=3, mode="single", seed=1))
    old = os.umask(0o027)
    try:
        plain = tmp_path / "plain.json"
        plain.write_text("{}")
        fresh = tmp_path / "case.json"
        save_case(str(fresh), case)
        grd = tmp_path / "m.grd"
        write_grd(str(grd), case.delta_w)
        assert stat.S_IMODE(plain.stat().st_mode) == 0o640
        assert stat.S_IMODE(fresh.stat().st_mode) == 0o640
        assert stat.S_IMODE(grd.stat().st_mode) == 0o640
        # an existing target keeps its own mode, as an in-place rewrite would
        os.chmod(fresh, 0o604)
        save_case(str(fresh), case, defense_applied=DefenseSpec(kind="sign"))
        assert stat.S_IMODE(fresh.stat().st_mode) == 0o604
        assert load_case(str(fresh)).defense_applied == DefenseSpec(kind="sign")
    finally:
        os.umask(old)
