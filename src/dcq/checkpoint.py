"""Binary checkpoints: config JSON plus named float64 array blocks.

Format 2, little-endian: magic "DCQC", format version u32, JSON byte
length u32 and payload (config and scalar state), block count u32, then
per array: name length u16, name bytes, rank u8, one u32 per dim, float64
payload. Scalars (the PReLU slopes) are stored with rank 0 and no dims. A
CRC32 of everything preceding it closes the file, so truncation and
corruption are detected before any state is applied. Files of any other
format version, including version 1, are rejected with
CheckpointVersionError.
"""

from __future__ import annotations

import json
import math
import os
import struct
import zlib

import numpy as np

from .errors import CheckpointError, CheckpointIntegrityError, CheckpointVersionError

MAGIC = b"DCQC"
FORMAT_VERSION = 2


def save_checkpoint(path, meta: dict, arrays: dict[str, np.ndarray]) -> None:
    """Write ``meta`` (JSON-serializable) and named arrays atomically."""
    chunks = [MAGIC, struct.pack("<I", FORMAT_VERSION)]
    payload = json.dumps(meta, sort_keys=True).encode("utf-8")
    chunks.append(struct.pack("<I", len(payload)))
    chunks.append(payload)
    chunks.append(struct.pack("<I", len(arrays)))
    for name, arr in arrays.items():
        arr = np.asarray(arr, dtype="<f8")
        encoded = name.encode("utf-8")
        chunks.append(struct.pack("<H", len(encoded)))
        chunks.append(encoded)
        chunks.append(struct.pack("<B", arr.ndim))
        chunks.append(struct.pack(f"<{arr.ndim}I", *arr.shape))
        chunks.append(arr.tobytes())
    body = b"".join(chunks)
    blob = body + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF)
    tmp = str(path) + ".tmp"
    with open(tmp, "wb") as fh:
        fh.write(blob)
    os.replace(tmp, str(path))


def load_checkpoint(path) -> tuple[dict, dict[str, np.ndarray]]:
    """Read and verify a checkpoint; returns (meta, arrays).

    A body that passes its checksum but does not parse raises
    CheckpointIntegrityError, as truncation and corruption do.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < len(MAGIC) + 12:
        raise CheckpointIntegrityError(f"checkpoint truncated ({len(blob)} bytes)")
    if blob[:4] != MAGIC:
        raise CheckpointError(f"not a checkpoint file (magic {blob[:4]!r})")
    body, crc_bytes = blob[:-4], blob[-4:]
    (stored_crc,) = struct.unpack("<I", crc_bytes)
    if zlib.crc32(body) & 0xFFFFFFFF != stored_crc:
        raise CheckpointIntegrityError("checkpoint checksum mismatch")
    (version,) = struct.unpack_from("<I", body, 4)
    if version != FORMAT_VERSION:
        raise CheckpointVersionError(
            f"checkpoint format version {version}, expected {FORMAT_VERSION}"
        )
    try:
        return _parse_body(body)
    except (struct.error, ValueError) as exc:  # ValueError covers bad UTF-8 and JSON
        raise CheckpointIntegrityError(f"malformed checkpoint body: {exc}") from exc


def _parse_body(body: bytes) -> tuple[dict, dict[str, np.ndarray]]:
    offset = 8  # past the magic and the version
    (json_len,) = struct.unpack_from("<I", body, offset)
    offset += 4
    meta = json.loads(body[offset : offset + json_len].decode("utf-8"))
    offset += json_len
    (n_arrays,) = struct.unpack_from("<I", body, offset)
    offset += 4
    arrays: dict[str, np.ndarray] = {}
    for _ in range(n_arrays):
        (name_len,) = struct.unpack_from("<H", body, offset)
        offset += 2
        name = body[offset : offset + name_len].decode("utf-8")
        offset += name_len
        (rank,) = struct.unpack_from("<B", body, offset)
        offset += 1
        dims = struct.unpack_from(f"<{rank}I", body, offset)
        offset += 4 * rank
        size = 8 * math.prod(dims)
        raw = body[offset : offset + size]
        if len(raw) != size:
            raise CheckpointIntegrityError(f"array block {name!r} truncated")
        arrays[name] = np.frombuffer(raw, dtype="<f8").reshape(dims).copy()
        offset += size
    if offset != len(body):
        raise CheckpointIntegrityError(f"{len(body) - offset} trailing bytes in checkpoint")
    return meta, arrays
