"""File formats and atomic writers.

Case and decoder files (version 3) are one binary container each, laid out
as `.npy` files (NEP 1) and safetensors are:

    MAGIC (4 bytes, 0x93 "GLK")
    the header's length, a little-endian uint64
    the header, UTF-8 JSON
    each array's payload, in the header's order

The header holds `version`, `kind` ("case" or "decoder"), the file's other
fields, and `arrays`, the name and shape of each stored matrix in payload
order; those shapes must be the ones the other fields declare.  A payload
is a matrix's little-endian float64 values in row-major order.  A load
checks that the file holds exactly the bytes its header's shapes need,
reads each payload straight into its array and passes it through
`as_matrix`, so a write/read cycle reproduces every entry bit for bit and
a file holding NaN, Inf or an empty dimension is refused with its path.
A case loaded with a replacement update (`load_case(path, update)`) is
checked the same way in everything but its stored update, which is never
read: the file must still have the size its header declares, and the
replacement must have the declared shape.

Case header: d, C, the scenario, ground truth (the label list, in generation
order), an optional defense record and an optional id-to-token vocabulary;
one array, `delta_w` (d x C).  A case is refused with its path when
`Scenario.check_case` refuses it: the scenario's d or classes differs from
the declared d or C, the ground truth holds other than the scenario's n*k
labels, a label lies outside [0, C), or the labels differ from the
scenario's fixed ones.  `save_case` refuses, with the same message less the
path, every case that `load_case` would refuse, so it writes no file that
cannot be read back.

Decoder header: d_a and classes; arrays `w` (d_a x classes), `b`
(1 x classes) and, when present, `pos` (max_len x classes).

A case or decoder file of any other version is refused with its path; the
JSON documents of earlier releases are refused by the version they state.

The .grd sidecar is the payload of one matrix behind a header: magic "GRD1"
and little-endian uint32 d and C.

ReportFile (JSON): one entry per attacked case plus aggregate means that are
recomputable from the per-case entries.
"""

from __future__ import annotations

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

MAGIC = b"\x93GLK"
VERSION = 3
GRD_MAGIC = b"GRD1"
# the name each decoder array goes by in an error
_DECODER_NAMES = {"w": "decoder weights", "b": "decoder bias", "pos": "decoder positional offsets"}


@dataclass(frozen=True)
class CaseFile:
    """A gradient case as stored on disk, with its defense annotation."""

    case: GradientCase
    defense_applied: Optional[DefenseSpec] = None


def _atomic_write_bytes(path: str, *chunks) -> None:
    """Write `chunks` (bytes-like) through a temp file and a rename.  The file
    gets the mode a plain write would leave: an existing target's own, else
    0o666 less the umask."""
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
            fh.writelines(chunks)
            os.fchmod(fh.fileno(), mode)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_json_atomic(path: str, obj) -> None:
    _atomic_write_bytes(path, (json.dumps(obj, indent=2) + "\n").encode("utf-8"))


@contextmanager
def _named(path: str):
    """A missing key, a value of the wrong type and any ValueError that the
    `with` body raises come out as one ValueError naming the file."""
    try:
        yield
    except KeyError as exc:
        raise ValueError(f"{path}: missing key {exc.args[0]!r}") from exc
    except (TypeError, AttributeError) as exc:
        raise ValueError(f"{path}: wrongly typed value ({exc})") from exc
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _check_version(doc: dict, kind: str, version: int) -> None:
    got = doc.get("version")
    if got != version:
        raise ValueError(f"unrecognized {kind} version {got!r}")


def _save(path: str, kind: str, fields: dict, arrays: dict) -> None:
    """Write a `kind` container: `fields` and the arrays' shapes in the
    header, then each array's payload."""
    payloads = {name: np.ascontiguousarray(a, dtype="<f8") for name, a in arrays.items()}
    raw = json.dumps({"version": VERSION, "kind": kind, **fields,
                      "arrays": {name: list(a.shape) for name, a in payloads.items()}}).encode()
    _atomic_write_bytes(path, MAGIC, struct.pack("<Q", len(raw)), raw, *payloads.values())


def _check_size(fh, shapes: dict) -> None:
    """Refuse the file open in `fh` unless the rest of it holds exactly the
    payloads of the matrices `shapes` declares by name."""
    have = os.fstat(fh.fileno()).st_size - fh.tell()
    need = 8 * sum(math.prod(shape) for shape in shapes.values())
    if have != need:
        raise ValueError(f"{' + '.join(shapes)} payload holds {have} bytes, "
                         f"shape {' + '.join(map(str, shapes.values()))} needs {need}")


def _read_matrix(fh, shape: tuple[int, int], name: str) -> np.ndarray:
    """The next payload in `fh`, read straight into a fresh writable
    `shape` matrix and checked by `as_matrix`."""
    a = np.empty(shape, dtype="<f8")
    got = fh.readinto(a)
    if got != a.nbytes:
        raise ValueError(f"{name} payload holds {got} bytes, shape {shape} needs {a.nbytes}")
    return as_matrix(a, name)


def _header(fh, kind: str) -> tuple[dict, dict]:
    """The header of the version-3 `kind` container open in `fh`, and its
    matrices' shapes by name; `fh` is left at the first payload."""
    lead = fh.read(12)
    if lead[:4] != MAGIC:
        # the JSON documents of earlier releases are refused by their version
        try:
            doc = json.loads(lead + fh.read())
        except ValueError:
            raise ValueError(f"not a {kind} file (magic {lead[:4]!r})") from None
        raise ValueError(f"unrecognized {kind} version {doc.get('version')!r}")
    if len(lead) < 12:
        raise ValueError(f"truncated header ({len(lead)} of 12 bytes)")
    (size,) = struct.unpack_from("<Q", lead, 4)
    if size > os.fstat(fh.fileno()).st_size - 12:
        raise ValueError(f"truncated header (the file holds fewer than its {size} bytes)")
    doc = json.loads(fh.read(size))
    _check_version(doc, kind, VERSION)
    if doc["kind"] != kind:
        raise ValueError(f"not a {kind} file (kind {doc['kind']!r})")
    return doc, {str(name): (int(rows), int(cols)) for name, (rows, cols) in doc["arrays"].items()}


def _check_arrays(fh, shapes: dict, declared: dict) -> None:
    """Refuse the container open in `fh` at its first payload unless it
    stores the `declared` shapes, and exactly their payloads."""
    if shapes != declared:
        raise ValueError(f"stored arrays {shapes} are not the declared {declared}")
    _check_size(fh, shapes)


def _scenario_from_dict(obj: dict) -> Scenario:
    # Scenario makes tuples of the lrs and labels lists
    return Scenario(d=int(obj["d"]), classes=int(obj["classes"]), mode=str(obj["mode"]),
                    n=int(obj["n"]), k=int(obj["k"]), lrs=obj.get("lrs"),
                    latent=str(obj["latent"]), labels=obj.get("labels"), seed=int(obj["seed"]))


def save_case(path: str, case: GradientCase,
              defense_applied: Optional[DefenseSpec] = None) -> None:
    delta_w = as_matrix(case.delta_w, "delta_w")
    case.scenario.check_case(delta_w.shape, case.true_labels)
    fields = {"d": delta_w.shape[0], "C": delta_w.shape[1],
              "scenario": dataclasses.asdict(case.scenario),
              "ground_truth": {"labels": list(case.true_labels)}}
    if defense_applied is not None:
        fields["defense_applied"] = dataclasses.asdict(defense_applied)
    if case.vocab is not None:
        fields["vocab"] = {str(k): v for k, v in case.vocab.items()}
    _save(path, "case", fields, {"delta_w": delta_w})


def load_case(path: str, update: Optional[np.ndarray] = None) -> CaseFile:
    """The case stored at `path`.  Given `update` (a checked matrix, such as
    `read_grd` returns), the case carries that matrix in place of its stored
    update: only the header is read, the file's size is checked against it,
    and `update` must have the declared shape (d, C)."""
    with _named(path), open(path, "rb") as fh:
        doc, shapes = _header(fh, "case")
        shape = (int(doc["d"]), int(doc["C"]))
        _check_arrays(fh, shapes, {"delta_w": shape})
        scenario = _scenario_from_dict(doc["scenario"])
        labels = tuple(int(y) for y in doc["ground_truth"]["labels"])
        scenario.check_case(shape, labels)
        vocab, spec = doc.get("vocab"), doc.get("defense_applied")
        if vocab is not None:
            vocab = {int(k): str(v) for k, v in vocab.items()}
        if spec is not None:
            spec = DefenseSpec(kind=str(spec["kind"]), rate=float(spec.get("rate", 0.0)))
        delta_w = _read_matrix(fh, shape, "delta_w") if update is None else update
    # raised outside the file block: the replacement, not the file, is at fault
    if delta_w.shape != shape:
        raise ValueError(f"--delta-grd update shape {delta_w.shape} does not "
                         f"match case update {shape}")
    case = GradientCase(scenario=scenario, delta_w=delta_w, true_labels=labels, vocab=vocab)
    return CaseFile(case=case, defense_applied=spec)


def write_grd(path: str, delta_w) -> None:
    a = as_matrix(delta_w, "delta_w")
    _atomic_write_bytes(path, GRD_MAGIC + struct.pack("<II", *a.shape),
                        np.ascontiguousarray(a, dtype="<f8"))


def read_grd(path: str) -> np.ndarray:
    with _named(path), open(path, "rb") as fh:
        lead = fh.read(12)
        if lead[:4] != GRD_MAGIC:
            raise ValueError("bad magic, not a .grd file")
        if len(lead) < 12:
            raise ValueError(f"truncated .grd header ({len(lead)} of 12 bytes)")
        shape = struct.unpack_from("<II", lead, 4)
        _check_size(fh, {"delta_w": shape})
        return _read_matrix(fh, shape, "delta_w")


def save_decoder(path: str, decoder: ToyDecoder) -> None:
    arrays = {"w": decoder.w, "b": decoder.b[None, :]}
    if decoder.pos is not None:
        arrays["pos"] = decoder.pos
    _save(path, "decoder", {"d_a": decoder.d_a, "classes": decoder.classes}, arrays)


def load_decoder(path: str) -> ToyDecoder:
    with _named(path), open(path, "rb") as fh:
        doc, shapes = _header(fh, "decoder")
        c = int(doc["classes"])
        declared = {"w": (int(doc["d_a"]), c), "b": (1, c)}
        if "pos" in shapes:
            declared["pos"] = (shapes["pos"][0], c)
        _check_arrays(fh, shapes, declared)
        m = {name: _read_matrix(fh, shape, _DECODER_NAMES[name]) for name, shape in shapes.items()}
        return ToyDecoder(w=m["w"], b=m["b"][0], pos=m.get("pos"))


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
    with _named(path):
        # no newline translation: raw CR and LF are whitespace outside JSON
        # strings and invalid inside them, so translating them changes nothing
        with open(path, "r", encoding="utf-8", newline="") as fh:
            doc = json.load(fh)
        _check_version(doc, "report", 1)
        if not isinstance(doc["per_case"], list) or not isinstance(doc["aggregate"], dict):
            raise TypeError("per_case must be a list and aggregate an object")
        # reads every score key of every scored entry, so a missing one is named
        aggregate_report(doc["per_case"])
        return doc
