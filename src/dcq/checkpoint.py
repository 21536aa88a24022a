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

import contextlib
import json
import math
import os
import struct
import zlib

import numpy as np

from .errors import CheckpointError, CheckpointIntegrityError, CheckpointVersionError

MAGIC = b"DCQC"
FORMAT_VERSION = 2


@contextlib.contextmanager
def replace_on_success(path):
    """A binary file whose bytes replace ``path`` when the block completes.

    The bytes go to ``<path>.tmp``, which is renamed over ``path`` at the
    end of the block. If the block or the rename fails, the temporary file
    is removed, ``path`` is untouched, and an OSError names ``path``.
    """
    path = str(path)
    tmp = path + ".tmp"
    try:
        with open(tmp, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException as exc:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        if isinstance(exc, OSError) and exc.filename == tmp:
            raise type(exc)(exc.errno, exc.strerror, path) from exc
        raise


def save_checkpoint(path, meta: dict, arrays: dict[str, np.ndarray]) -> None:
    """Write ``meta`` (JSON-serializable) and named arrays atomically.

    Each block goes straight to the file under a running CRC32, so no array
    is copied; ``replace_on_success`` puts the file in place.
    """
    payload = json.dumps(meta, sort_keys=True).encode("utf-8")
    crc = 0
    with replace_on_success(path) as fh:

        def put(chunk):
            nonlocal crc
            crc = zlib.crc32(chunk, crc)
            fh.write(chunk)

        put(MAGIC + struct.pack("<II", FORMAT_VERSION, len(payload)))
        put(payload)
        put(struct.pack("<I", len(arrays)))
        for name, arr in arrays.items():
            arr = np.asarray(arr, dtype="<f8", order="C")
            encoded = name.encode("utf-8")
            put(struct.pack("<H", len(encoded)) + encoded)
            put(struct.pack(f"<B{arr.ndim}I", arr.ndim, *arr.shape))
            put(arr)
        fh.write(struct.pack("<I", crc & 0xFFFFFFFF))


def load_checkpoint(path) -> tuple[dict, dict[str, np.ndarray]]:
    """Read and verify a checkpoint; returns (meta, arrays).

    A body that passes its checksum but does not parse raises
    CheckpointIntegrityError, as truncation and corruption do.
    """
    with open(path, "rb") as fh:
        blob = memoryview(fh.read())
    if len(blob) < len(MAGIC) + 12:
        raise CheckpointIntegrityError(f"checkpoint truncated ({len(blob)} bytes)")
    if blob[:4] != MAGIC:
        raise CheckpointError(f"not a checkpoint file (magic {bytes(blob[:4])!r})")
    body = blob[:-4]
    (stored_crc,) = struct.unpack_from("<I", blob, len(body))
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


def _parse_body(body: memoryview) -> tuple[dict, dict[str, np.ndarray]]:
    offset = 8  # past the magic and the version
    (json_len,) = struct.unpack_from("<I", body, offset)
    offset += 4
    meta = json.loads(str(body[offset : offset + json_len], "utf-8"))
    offset += json_len
    (n_arrays,) = struct.unpack_from("<I", body, offset)
    offset += 4
    arrays: dict[str, np.ndarray] = {}
    for _ in range(n_arrays):
        (name_len,) = struct.unpack_from("<H", body, offset)
        offset += 2
        name = str(body[offset : offset + name_len], "utf-8")
        offset += name_len
        (rank,) = struct.unpack_from("<B", body, offset)
        offset += 1
        dims = struct.unpack_from(f"<{rank}I", body, offset)
        offset += 4 * rank
        count = math.prod(dims)
        if offset + 8 * count > len(body):
            raise CheckpointIntegrityError(f"array block {name!r} truncated")
        arrays[name] = np.frombuffer(body, "<f8", count, offset).reshape(dims).copy()
        offset += 8 * count
    if offset != len(body):
        raise CheckpointIntegrityError(f"{len(body) - offset} trailing bytes in checkpoint")
    return meta, arrays
