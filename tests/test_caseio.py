import json
import struct

import numpy as np
import pytest

from gradleak.caseio import (aggregate_report, load_case, load_decoder, load_report,
                             read_grd, save_case, save_decoder, save_report, write_grd)
from gradleak.defense import DefenseSpec
from gradleak.gm import ToyDecoder
from gradleak.simulator import Scenario, initial_state, simulate_case


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
    doc = json.loads(open(path).read())
    assert doc["ground_truth"]["sequence"] == list(case.true_labels)
    assert doc["version"] == 1


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
    doc = json.loads(open(path).read())
    doc["version"] = 99
    open(path, "w").write(json.dumps(doc))
    with pytest.raises(ValueError):
        load_case(path)
    doc["version"] = 1
    doc["d"] = 5
    open(path, "w").write(json.dumps(doc))
    with pytest.raises(ValueError):
        load_case(path)


def test_grd_round_trip_and_layout(tmp_path):
    rng = np.random.default_rng(0)
    m = rng.normal(size=(3, 5))
    path = str(tmp_path / "m.grd")
    write_grd(path, m)
    back = read_grd(path)
    assert back.tobytes() == m.tobytes()

    blob = open(path, "rb").read()
    assert blob[:4] == b"GRD1"
    d, c = struct.unpack("<II", blob[4:12])
    assert (d, c) == (3, 5)
    assert len(blob) == 12 + 8 * 15
    assert struct.unpack("<d", blob[12:20])[0] == m[0, 0]


def test_grd_rejects_corruption(tmp_path):
    path = str(tmp_path / "bad.grd")
    open(path, "wb").write(b"NOPE" + b"\x00" * 16)
    with pytest.raises(ValueError):
        read_grd(path)
    write_grd(path, np.ones((2, 2)))
    blob = open(path, "rb").read()
    open(path, "wb").write(blob[:-4])
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

    # a version-1 file written without offsets still loads, with none
    doc = json.loads(open(path).read())
    del doc["pos"]
    open(path, "w").write(json.dumps(doc))
    assert load_decoder(path).pos is None


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
