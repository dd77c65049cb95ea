"""File formats and atomic writers.

Every stored matrix has one payload: little-endian float64 values in
row-major order, with the shape declared beside it.  A load checks the byte
count against that shape and passes the matrix through `as_matrix`, so a
write/read cycle reproduces every entry bit for bit and a file holding NaN,
Inf or an empty dimension is refused with its path.

CaseFile (JSON, version 2): d, C, the scenario, the update matrix as the
base64 text of its payload, ground truth (label list plus the ordered
sequence for sequence-mode cases), an optional defense record, and an
optional id-to-token vocabulary.

Decoder file (JSON, version 2): d_a, classes, and `w` (d_a x classes), `b`
(classes) and, when present, `pos` (max_len x classes) as base64 payloads.

A case or decoder file of any other version is refused with its path.

The .grd sidecar is the raw payload behind a header: magic "GRD1" and
little-endian uint32 d and C.

ReportFile (JSON): one entry per attacked case plus aggregate means that are
recomputable from the per-case entries.
"""

from __future__ import annotations

import base64
import binascii
import dataclasses
import json
import math
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

CASE_VERSION = 2
DECODER_VERSION = 2
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
    version is checked to be `version`.  Text that is not JSON,
    another version, a missing key, a value of the wrong type and any
    ValueError the body raises all come out as one ValueError naming the
    file."""
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


def _payload(a: np.ndarray) -> bytes:
    """The stored form of a matrix: little-endian float64, row-major."""
    return np.ascontiguousarray(a, dtype="<f8").tobytes()


def _from_payload(raw, shape: tuple[int, int], name: str) -> np.ndarray:
    """The matrix of `shape` stored in `raw`, as a writable native float64
    copy checked by `as_matrix`."""
    need = 8 * math.prod(shape)
    if len(raw) != need:
        raise ValueError(f"{name} payload holds {len(raw)} bytes, shape {shape} needs {need}")
    # frombuffer alone is a read-only view of `raw`
    flat = np.frombuffer(raw, dtype="<f8").astype(np.float64)
    return as_matrix(flat.reshape(shape), name)


def _to_text(a: np.ndarray) -> str:
    return base64.b64encode(_payload(a)).decode("ascii")


def _from_text(text: str, shape: tuple[int, int], name: str) -> np.ndarray:
    try:
        raw = base64.b64decode(text, validate=True)
    except binascii.Error as exc:
        raise ValueError(f"{name} is not base64 text ({exc})") from exc
    return _from_payload(raw, shape, name)


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
        "delta_w": _to_text(as_matrix(case.delta_w, "delta_w")),
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
        delta_w = _from_text(doc["delta_w"], (int(doc["d"]), int(doc["C"])), "delta_w")
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
    _atomic_write_bytes(path, GRD_MAGIC + struct.pack("<II", *a.shape) + _payload(a))


def read_grd(path: str) -> np.ndarray:
    with open(path, "rb") as fh:
        blob = fh.read()
    try:
        if blob[:4] != GRD_MAGIC:
            raise ValueError("bad magic, not a .grd file")
        if len(blob) < 12:
            raise ValueError(f"truncated .grd header ({len(blob)} of 12 bytes)")
        shape = struct.unpack_from("<II", blob, 4)
        return _from_payload(memoryview(blob)[12:], shape, "delta_w")
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def save_decoder(path: str, decoder: ToyDecoder) -> None:
    doc = {
        "version": DECODER_VERSION,
        "d_a": decoder.d_a,
        "classes": decoder.classes,
        "w": _to_text(decoder.w),
        "b": _to_text(decoder.b),
    }
    if decoder.pos is not None:
        doc["max_len"] = decoder.pos.shape[0]
        doc["pos"] = _to_text(decoder.pos)
    write_json_atomic(path, doc)


def load_decoder(path: str) -> ToyDecoder:
    with _document(path, "decoder", DECODER_VERSION) as doc:
        c = int(doc["classes"])
        pos = None
        if doc.get("pos") is not None:
            pos = _from_text(doc["pos"], (int(doc["max_len"]), c), "decoder positional offsets")
        return ToyDecoder(w=_from_text(doc["w"], (int(doc["d_a"]), c), "decoder weights"),
                          b=_from_text(doc["b"], (1, c), "decoder bias")[0], pos=pos)


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
