"""Byte-level views and edits of version-3 case and decoder files, for the
tests that check what a loader refuses.

A file is MAGIC, a little-endian uint64 header length, the JSON header and
the payloads (see gradleak.caseio).
"""

import json
import struct
from pathlib import Path

from gradleak.caseio import MAGIC


def split(path):
    """The header (a dict) and the payload bytes of the file at `path`."""
    blob = Path(path).read_bytes()
    assert blob[:4] == MAGIC
    (size,) = struct.unpack_from("<Q", blob, 4)
    return json.loads(blob[12:12 + size]), blob[12 + size:]


def write(path, header, payload, header_text=None):
    """Write a container holding `header` (as `header_text`, when given, else
    as compact JSON) and `payload`; returns the path as a string."""
    raw = (header_text if header_text is not None else json.dumps(header)).encode("utf-8")
    Path(path).write_bytes(MAGIC + struct.pack("<Q", len(raw)) + raw + payload)
    return str(path)


def edit_header(path, edit, out=None):
    """Apply `edit` to the header dict of the file at `path` in place and
    write the result, payload unchanged, to `out` (default: back to `path`);
    returns the written path as a string."""
    header, payload = split(path)
    edit(header)
    return write(out if out is not None else path, header, payload)
