"""File formats and atomic writers.

CaseFile (JSON, version 1): d, C, the scenario, the update matrix as nested
row-major arrays, ground truth (label list plus the ordered sequence for
sequence-mode cases), an optional defense record, and an optional id-to-token
vocabulary.  Floats are serialized with Python's shortest round-trip repr,
so a write/read cycle reproduces every matrix entry bit for bit.

The .grd sidecar is a raw binary matrix: magic "GRD1", little-endian uint32
d and C, then d*C little-endian float64 values in row-major order.

ReportFile (JSON): one entry per attacked case plus aggregate means that are
recomputable from the per-case entries.
"""

from __future__ import annotations

import dataclasses
import json
import os
import stat
import struct
import tempfile
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .defense import DefenseSpec
from .linalg import as_matrix
from .simulator import GradientCase, Scenario, ToyDecoder

CASE_VERSION = 1
GRD_MAGIC = b"GRD1"


@dataclass(frozen=True)
class CaseFile:
    """A gradient case as stored on disk, with its defense annotation."""

    case: GradientCase
    defense_applied: Optional[DefenseSpec] = None


def _atomic_write_bytes(path: str, payload: bytes) -> None:
    """Write through a temp file and a rename.  The file gets the mode a plain
    write would leave: an existing target's own, else 0o666 less the umask."""
    try:
        mode = stat.S_IMODE(os.stat(path).st_mode)
    except FileNotFoundError:
        umask = os.umask(0)
        os.umask(umask)
        mode = 0o666 & ~umask
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=os.path.basename(path))
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(payload)
            os.fchmod(fh.fileno(), mode)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_json_atomic(path: str, obj) -> None:
    _atomic_write_bytes(path, (json.dumps(obj, indent=2) + "\n").encode("utf-8"))


@contextmanager
def _document(path: str, kind: str, version: int):
    """The JSON document at `path`, for the `with` body to read, once its
    version is checked.  Text that is not JSON, another version, a missing
    key, a value of the wrong type and any ValueError the body raises all
    come out as one ValueError naming the file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        got = doc.get("version")
        if got != version:
            raise ValueError(f"unrecognized {kind} version {got!r}")
        yield doc
    except KeyError as exc:
        raise ValueError(f"{path}: missing key {exc.args[0]!r}") from exc
    except (TypeError, AttributeError) as exc:
        raise ValueError(f"{path}: wrongly typed value ({exc})") from exc
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _scenario_from_dict(obj: dict) -> Scenario:
    return Scenario(
        d=int(obj["d"]), classes=int(obj["classes"]), mode=str(obj["mode"]),
        n=int(obj["n"]), k=int(obj["k"]),
        lrs=tuple(obj["lrs"]) if obj.get("lrs") is not None else None,
        latent=str(obj["latent"]),
        labels=tuple(obj["labels"]) if obj.get("labels") is not None else None,
        seed=int(obj["seed"]),
    )


def save_case(path: str, case: GradientCase,
              defense_applied: Optional[DefenseSpec] = None) -> None:
    doc = {
        "version": CASE_VERSION,
        "d": case.delta_w.shape[0],
        "C": case.delta_w.shape[1],
        "scenario": dataclasses.asdict(case.scenario),
        "delta_w": case.delta_w.tolist(),
        "ground_truth": {"labels": list(case.true_labels)},
    }
    if case.scenario.mode == "sequence":
        doc["ground_truth"]["sequence"] = list(case.true_labels)
    if defense_applied is not None:
        doc["defense_applied"] = dataclasses.asdict(defense_applied)
    if case.vocab is not None:
        doc["vocab"] = {str(k): v for k, v in case.vocab.items()}
    write_json_atomic(path, doc)


def load_case(path: str) -> CaseFile:
    with _document(path, "case", CASE_VERSION) as doc:
        delta_w = as_matrix(doc["delta_w"], "delta_w")
        if delta_w.shape != (int(doc["d"]), int(doc["C"])):
            raise ValueError(f"delta_w shape {delta_w.shape} does not match "
                             f"declared ({doc['d']}, {doc['C']})")
        scenario = _scenario_from_dict(doc["scenario"])
        labels = tuple(int(y) for y in doc["ground_truth"]["labels"])
        vocab = None
        if doc.get("vocab") is not None:
            vocab = {int(k): str(v) for k, v in doc["vocab"].items()}
        case = GradientCase(scenario=scenario, delta_w=delta_w, true_labels=labels, vocab=vocab)
        defense = None
        if doc.get("defense_applied") is not None:
            spec = doc["defense_applied"]
            defense = DefenseSpec(kind=str(spec["kind"]), rate=float(spec.get("rate", 0.0)))
        return CaseFile(case=case, defense_applied=defense)


def write_grd(path: str, delta_w) -> None:
    a = as_matrix(delta_w, "delta_w")
    d, c = a.shape
    payload = GRD_MAGIC + struct.pack("<II", d, c) + a.astype("<f8").tobytes(order="C")
    _atomic_write_bytes(path, payload)


def read_grd(path: str) -> np.ndarray:
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != GRD_MAGIC:
        raise ValueError(f"{path}: bad magic, not a .grd file")
    d, c = struct.unpack("<II", blob[4:12])
    expected = 12 + 8 * d * c
    if len(blob) != expected:
        raise ValueError(f"{path}: truncated .grd payload ({len(blob)} of {expected} bytes)")
    flat = np.frombuffer(blob, dtype="<f8", offset=12, count=d * c)
    return np.ascontiguousarray(flat.astype(np.float64).reshape(d, c))


def save_decoder(path: str, decoder: ToyDecoder) -> None:
    doc = {
        "version": 1,
        "d_a": decoder.d_a,
        "classes": decoder.classes,
        "w": decoder.w.tolist(),
        "b": decoder.b.tolist(),
    }
    if decoder.pos is not None:
        doc["pos"] = decoder.pos.tolist()
    write_json_atomic(path, doc)


def load_decoder(path: str) -> ToyDecoder:
    with _document(path, "decoder", 1) as doc:
        pos = doc.get("pos")
        return ToyDecoder(w=np.asarray(doc["w"], dtype=np.float64),
                          b=np.asarray(doc["b"], dtype=np.float64),
                          pos=np.asarray(pos, dtype=np.float64) if pos is not None else None)


def aggregate_report(per_case: list[dict]) -> dict:
    """Aggregate means over scored per-case entries (errors excluded)."""
    scored = [e for e in per_case if "set_score" in e]
    n = len(scored)
    if n == 0:
        return {"cases": 0, "errors": len(per_case),
                "precision_mean": None, "recall_mean": None, "f1_mean": None,
                "em_rate": None, "le_mean": None}
    return {
        "cases": n,
        "errors": len(per_case) - n,
        "precision_mean": sum(e["set_score"]["precision"] for e in scored) / n,
        "recall_mean": sum(e["set_score"]["recall"] for e in scored) / n,
        "f1_mean": sum(e["set_score"]["f1"] for e in scored) / n,
        "em_rate": sum(1.0 for e in scored if e["set_score"]["exact_match"]) / n,
        "le_mean": sum(e["length_error"] for e in scored) / n,
    }


def save_report(path: str, per_case: list[dict], config: dict) -> None:
    write_json_atomic(path, {
        "version": 1,
        "config": config,
        "per_case": per_case,
        "aggregate": aggregate_report(per_case),
    })


def load_report(path: str) -> dict:
    with _document(path, "report", 1) as doc:
        if not isinstance(doc["per_case"], list) or not isinstance(doc["aggregate"], dict):
            raise TypeError("per_case must be a list and aggregate an object")
        # reads every score key of every scored entry, so a missing one is named
        aggregate_report(doc["per_case"])
        return doc
