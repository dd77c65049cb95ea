import base64
import dataclasses
import json
import os
import stat
import struct
from pathlib import Path

import numpy as np
import pytest

from casefiles import edit_header, split, write
from gradleak.caseio import (MAGIC, aggregate_report, load_case, load_decoder, load_report,
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
    # the label list is the ordered sequence; a file that still carries the
    # copy older versions wrote as `sequence` loads unchanged
    case = simulate_case(Scenario(d=6, classes=5, mode="sequence", n=4, seed=8))
    path = tmp_path / "seq.json"
    save_case(str(path), case)
    doc, _ = split(path)
    assert doc["ground_truth"] == {"labels": list(case.true_labels)}
    assert doc["version"] == 3
    edit_header(path, lambda doc: doc["ground_truth"].update(sequence=list(case.true_labels)))
    loaded = load_case(str(path)).case
    assert loaded.delta_w.tobytes() == case.delta_w.tobytes()
    assert loaded == dataclasses.replace(case, delta_w=loaded.delta_w)


def test_case_defense_and_vocab_round_trip(tmp_path):
    base = simulate_case(Scenario(d=4, classes=3, mode="single", seed=1))
    case = type(base)(scenario=base.scenario, delta_w=base.delta_w,
                      true_labels=base.true_labels, vocab={0: "a", 1: "b", 2: "c"})
    path = str(tmp_path / "def.json")
    save_case(path, case, defense_applied=DefenseSpec(kind="drop", rate=0.5))
    loaded = load_case(path)
    assert loaded.defense_applied == DefenseSpec(kind="drop", rate=0.5)
    assert loaded.case.vocab == {0: "a", 1: "b", 2: "c"}
    assert loaded.case.delta_w.tobytes() == case.delta_w.tobytes()
    assert loaded.case == dataclasses.replace(case, delta_w=loaded.case.delta_w)


def test_case_rejects_bad_version_and_shape(tmp_path):
    case = simulate_case(Scenario(d=4, classes=3, mode="single", seed=1))
    path = str(tmp_path / "bad.json")
    save_case(path, case)
    edit_header(path, lambda doc: doc.update(version=99))
    with pytest.raises(ValueError):
        load_case(path)
    edit_header(path, lambda doc: doc.update(version=3, d=5))
    with pytest.raises(ValueError):
        load_case(path)


def test_crlf_case_loads_to_the_same_matrix(tmp_path):
    # the header is read as JSON, so a header laid out by another writer,
    # indented with CRLF line endings, gives the same case
    case = edge_case()
    path = tmp_path / "case.json"
    save_case(str(path), case)
    header, payload = split(path)
    text = json.dumps(header, indent=2).replace("\n", "\r\n")
    crlf = write(tmp_path / "crlf.json", header, payload, header_text=text)
    assert Path(crlf).read_bytes().count(b"\r\n") > 10
    loaded = load_case(crlf).case
    assert loaded.delta_w.tobytes() == case.delta_w.tobytes()
    assert loaded == dataclasses.replace(case, delta_w=loaded.delta_w)


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
    header, payload = split(path)
    assert header["arrays"].pop("pos") == [3, 4]
    write(path, header, payload[:-8 * 3 * 4])
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


def test_case_round_trip_is_bit_exact_on_edge_values(tmp_path):
    case = edge_case()
    path = str(tmp_path / "edge.json")
    save_case(path, case)
    doc, payload = split(path)
    assert (doc["version"], doc["kind"], doc["arrays"]) == (3, "case", {"delta_w": [4, 5]})
    assert "delta_w" not in doc  # no copy of the update in the header
    # the same payload as the .grd sidecar
    write_grd(str(tmp_path / "edge.grd"), case.delta_w)
    assert payload == (tmp_path / "edge.grd").read_bytes()[12:]
    loaded = load_case(path).case.delta_w
    assert loaded.tobytes() == case.delta_w.tobytes()
    assert loaded.dtype == np.float64 and loaded.dtype.isnative
    assert loaded.flags.writeable and loaded.flags.c_contiguous
    assert read_grd(str(tmp_path / "edge.grd")).flags.writeable


@pytest.mark.parametrize("with_pos", [True, False])
def test_decoder_round_trip_is_bit_exact_on_edge_values(tmp_path, with_pos):
    dec = ToyDecoder(w=edge_matrix(3, 4, 1), b=edge_matrix(1, 4, 2)[0],
                     pos=edge_matrix(2, 4, 3) if with_pos else None)
    path = str(tmp_path / "dec.json")
    save_decoder(path, dec)
    doc, payload = split(path)
    arrays = {"w": [3, 4], "b": [1, 4], **({"pos": [2, 4]} if with_pos else {})}
    assert (doc["version"], doc["kind"], doc["arrays"]) == (3, "decoder", arrays)
    # each payload in header order, raw
    stored = [dec.w, dec.b] + ([dec.pos] if with_pos else [])
    assert payload == b"".join(a.astype("<f8").tobytes() for a in stored)
    back = load_decoder(path)
    assert back.w.tobytes() == dec.w.tobytes()
    assert back.b.tobytes() == dec.b.tobytes()
    if with_pos:
        assert back.pos.tobytes() == dec.pos.tobytes()
    else:
        assert back.pos is None


def test_bad_payloads_name_the_file(tmp_path):
    case_path = str(tmp_path / "case.json")
    save_case(case_path, edge_case())
    dec_path = str(tmp_path / "dec.json")
    save_decoder(dec_path, ToyDecoder(w=np.ones((3, 4)), b=np.zeros(4), pos=np.ones((2, 4))))
    nan = np.full(20, np.nan, dtype="<f8").tobytes()
    nan_bias = np.r_[np.ones(12), np.nan, np.zeros(11)].astype("<f8").tobytes()

    def keep(part):
        return part

    for path, header_edit, payload_edit, cause in (
            (case_path, keep, lambda p: p[:-8],
             "delta_w payload holds 152 bytes, shape (4, 5) needs 160"),
            (case_path, keep, lambda p: p + bytes(8),
             "delta_w payload holds 168 bytes, shape (4, 5) needs 160"),
            (case_path, keep, lambda p: nan, "delta_w contains NaN or Inf entries"),
            (case_path, lambda d: d["arrays"].update(delta_w=[5, 4]), keep,
             "stored arrays {'delta_w': (5, 4)} are not the declared {'delta_w': (4, 5)}"),
            (case_path, lambda d: d["arrays"].update(delta_w=[20]), keep,
             "not enough values to unpack"),
            (case_path, lambda d: d.pop("arrays"), keep, "missing key 'arrays'"),
            (dec_path, keep, lambda p: p[:-8],
             "w + b + pos payload holds 184 bytes, shape (3, 4) + (1, 4) + (2, 4) needs 192"),
            (dec_path, keep, lambda p: nan_bias + p[len(nan_bias):],
             "decoder bias contains NaN or Inf entries"),
            (dec_path, lambda d: d["arrays"].update(pos=[4, 2]), keep,
             "stored arrays {'w': (3, 4), 'b': (1, 4), 'pos': (4, 2)} are not the declared "
             "{'w': (3, 4), 'b': (1, 4), 'pos': (4, 4)}")):
        header, payload = split(path)
        header_edit(header)
        bad = write(tmp_path / "bad.json", header, payload_edit(payload))
        with pytest.raises(ValueError) as err:
            (load_case if path == case_path else load_decoder)(bad)
        assert str(err.value).startswith(f"{bad}: {cause}"), str(err.value)


def test_malformed_containers_name_the_file(tmp_path):
    case_path = str(tmp_path / "case.json")
    save_case(case_path, edge_case())
    dec_path = str(tmp_path / "dec.json")
    save_decoder(dec_path, ToyDecoder(w=np.ones((3, 4)), b=np.zeros(4)))
    blob = Path(case_path).read_bytes()
    bad = tmp_path / "bad.json"
    for data, cause in (
            (b"NOPE" + blob[4:], "not a case file (magic b'NOPE')"),
            (b"", "not a case file (magic b'')"),
            (blob[:10], "truncated header (10 of 12 bytes)"),
            (blob[:40], "truncated header (the file holds fewer than its"),
            (MAGIC + struct.pack("<Q", 2 ** 63) + blob[12:],
             "truncated header (the file holds fewer than its"),
            (MAGIC + struct.pack("<Q", 2) + b"{]" + blob[12:], "Expecting property name"),
            (Path(dec_path).read_bytes(), "not a case file (kind 'decoder')")):
        bad.write_bytes(data)
        with pytest.raises(ValueError) as err:
            load_case(str(bad))
        assert str(err.value).startswith(f"{bad}: {cause}"), str(err.value)
    with pytest.raises(ValueError) as err:
        load_decoder(case_path)
    assert str(err.value) == f"{case_path}: not a decoder file (kind 'case')"


def test_bad_version_2_payloads_name_the_file(tmp_path):
    # the JSON documents of the previous release, with base64 payloads good
    # or bad, are refused by the version they state, as version 1 is, and
    # the error names the file
    good = base64.b64encode(np.ones(6, dtype="<f8").tobytes()).decode()
    nan = base64.b64encode(np.full(6, np.nan, dtype="<f8").tobytes()).decode()
    for text in (good, good[:-4], "not base64!", nan):
        for kind, load, doc in (
                ("case", load_case, {"version": 2, "d": 2, "C": 3, "delta_w": text,
                                     "scenario": {}, "ground_truth": {"labels": [0]}}),
                ("decoder", load_decoder, {"version": 2, "d_a": 2, "classes": 3,
                                           "w": text, "b": text[:12]})):
            path = tmp_path / f"{kind}.json"
            path.write_text(json.dumps(doc, indent=2) + "\n")
            with pytest.raises(ValueError) as err:
                load(str(path))
            assert str(err.value) == f"{path}: unrecognized {kind} version 2"


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
    # a container stating any version but 3 is refused like any other
    for kind, load, version in (("case", load_case, 2), ("case", load_case, 4),
                                ("decoder", load_decoder, 1), ("decoder", load_decoder, 2),
                                ("report", load_report, 3)):
        if kind == "report":
            doc = json.loads(Path(paths[kind]).read_text())
            doc["version"] = version
            Path(paths[kind]).write_text(json.dumps(doc))
        else:
            edit_header(paths[kind], lambda doc: doc.update(version=version))
        with pytest.raises(ValueError) as err:
            load(paths[kind])
        assert str(err.value) == f"{paths[kind]}: unrecognized {kind} version {version}"


def test_case_scenario_block_is_pinned(tmp_path):
    sc = Scenario(d=5, classes=6, mode="multistep", n=2, k=2, lrs=(0.1, 0.25),
                  latent="tanh", labels=(4, 0, 2, 2), seed=17)
    path = str(tmp_path / "multi.json")
    save_case(path, simulate_case(sc))
    block = split(path)[0]["scenario"]
    assert list(block.items()) == [
        ("d", 5), ("classes", 6), ("mode", "multistep"), ("n", 2), ("k", 2),
        ("lrs", [0.1, 0.25]), ("latent", "tanh"), ("labels", [4, 0, 2, 2]), ("seed", 17)]
    assert load_case(path).case.scenario == sc


def _edited_batch_case(tmp_path, edit):
    # a saved 8x6, n=2 batch case whose document `edit` changes in place
    path = str(tmp_path / "case.json")
    save_case(path, simulate_case(Scenario(d=8, classes=6, mode="batch", n=2, seed=5)))
    return edit_header(path, edit)


def test_case_refuses_a_scenario_of_another_shape(tmp_path):
    for key, value, shape in (("d", 9, "9x6"), ("classes", 7, "8x7")):
        path = _edited_batch_case(tmp_path, lambda doc: doc["scenario"].update({key: value}))
        with pytest.raises(ValueError) as err:
            load_case(path)
        assert str(err.value) == f"{path}: scenario is {shape}, the case declares 8x6"


def test_case_refuses_a_label_count_the_scenario_does_not_make(tmp_path):
    path = _edited_batch_case(
        tmp_path, lambda doc: doc["ground_truth"]["labels"].extend([0, 1, 2]))
    with pytest.raises(ValueError) as err:
        load_case(path)
    assert str(err.value) == (f"{path}: ground truth holds 5 labels, "
                              f"the scenario makes n*k = 2")


def test_case_refuses_a_label_outside_the_classes(tmp_path):
    for bad in (6, -1):
        path = _edited_batch_case(tmp_path, lambda doc: doc["ground_truth"].update(labels=[0, bad]))
        with pytest.raises(ValueError) as err:
            load_case(path)
        assert str(err.value) == f"{path}: ground-truth label {bad} lies outside [0, 6)"


def _fixed_sequence_case():
    return simulate_case(Scenario(d=8, classes=6, mode="sequence", n=3, labels=(1, 2, 3)))


def test_case_refuses_ground_truth_other_than_the_fixed_labels(tmp_path):
    path = tmp_path / "seq.json"
    save_case(str(path), _fixed_sequence_case())
    edit_header(path, lambda doc: doc["ground_truth"].update(labels=[5, 0, 0]))
    with pytest.raises(ValueError) as err:
        load_case(str(path))
    assert str(err.value) == (f"{path}: ground truth [5, 0, 0] is not the "
                              f"scenario's fixed labels [1, 2, 3]")


def test_save_case_refuses_what_load_case_refuses(tmp_path):
    # each inconsistency gets the loader's message without the path, and no
    # file is written
    batch = simulate_case(Scenario(d=8, classes=6, mode="batch", n=2, seed=5))
    path = tmp_path / "bad.json"
    for case, message in (
            (dataclasses.replace(batch, delta_w=batch.delta_w[:4]),
             "scenario is 8x6, the case declares 4x6"),
            (dataclasses.replace(batch, true_labels=(0, 1, 2)),
             "ground truth holds 3 labels, the scenario makes n*k = 2"),
            (dataclasses.replace(batch, true_labels=(0, 6)),
             "ground-truth label 6 lies outside [0, 6)"),
            (dataclasses.replace(_fixed_sequence_case(), true_labels=(5, 0, 0)),
             "ground truth [5, 0, 0] is not the scenario's fixed labels [1, 2, 3]")):
        with pytest.raises(ValueError) as err:
            save_case(str(path), case)
        assert str(err.value) == message
        assert os.listdir(tmp_path) == []


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
