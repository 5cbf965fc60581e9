"""The binary layout shared by rfaudio's checkpoint and feature files.

Each file is an 8-byte magic, then little-endian struct fields and float32
payloads in the order its format lists them. :class:`Reader` is strict: a
file that ends inside a field, holds a non-finite float, or has bytes after
the last field raises the caller's error type with the path in the message.
:class:`Writer` emits the same fields in the same order and refuses to
write a non-finite float. Both give the sha256 of the file's bytes without
a second pass over the file. :func:`write_atomically` is how every rfaudio
file that a later command reads back (checkpoint, sidecar, manifest) is
put in place.
"""

from __future__ import annotations

import hashlib
import math
import os
import struct
from pathlib import Path

import numpy as np


def write_atomically(path, chunks, *more) -> None:
    """Write the byte ``chunks`` to a temporary file beside ``path``, then rename it.

    A reader sees the old file or the whole new one, never a part of the
    new one. ``more`` holds further ``(path, chunks)`` files committed with
    it: every temporary file is written before the first rename. A write
    that fails removes the temporary files and leaves every existing file
    as it was.
    """
    files = [(Path(p), c) for p, c in [(path, chunks), *more]]
    partials = [p.with_name(f".{p.name}.partial") for p, _ in files]
    try:
        for partial, (_, file_chunks) in zip(partials, files):
            with open(partial, "wb") as fh:
                fh.writelines(file_chunks)
        for partial, (target, _) in zip(partials, files):
            os.replace(partial, target)
    except BaseException:
        for partial in partials:
            partial.unlink(missing_ok=True)
        raise


class Reader:
    """Bounded sequential reader over one whole file."""

    def __init__(self, path, magic: bytes, what: str, error: type[Exception] = ValueError):
        self.path = path
        self.what = what
        self.error = error
        with open(path, "rb") as fh:
            self._blob = fh.read()
        if self._blob[:8] != magic:
            raise self.fail(f"not a {what} (bad magic {self._blob[:8]!r})")
        self._off = 8

    def fail(self, message: str) -> Exception:
        return self.error(f"{self.path}: {message}")

    def sha256(self) -> str:
        """Hex sha256 of the whole file as read."""
        return hashlib.sha256(self._blob).hexdigest()

    def take(self, n: int) -> bytes:
        if self._off + n > len(self._blob):
            raise self.fail(f"truncated {self.what}")
        self._off += n
        return self._blob[self._off - n : self._off]

    def fields(self, fmt: str) -> tuple:
        """Unpack the struct format ``fmt`` (little-endian, e.g. ``"<II"``)."""
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def text(self) -> str:
        """A u32 byte count, then that many bytes of utf-8."""
        (n,) = self.fields("<I")
        try:
            return self.take(n).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise self.fail(f"bad utf-8 text: {exc}") from exc

    def floats(self, shape) -> np.ndarray:
        """A finite float32 array of ``shape``, copied out of the file."""
        flat = np.frombuffer(self.take(4 * math.prod(shape)), dtype="<f4")
        if not np.all(np.isfinite(flat)):
            raise self.fail("non-finite float32 payload")
        try:
            return flat.reshape(shape).copy()
        except ValueError as exc:  # more dimensions than numpy supports
            raise self.fail(str(exc)) from exc

    def end(self) -> None:
        """Check that the last field was the end of the file."""
        if self._off != len(self._blob):
            raise self.fail(f"{len(self._blob) - self._off} trailing bytes after the last field")


class Writer:
    """Sequential writer; use as a context manager.

    The fields are kept in memory and the file is written through
    :func:`write_atomically` only when the block exits cleanly, so a failed
    save, in the fields or in the write, leaves an existing file as it was.
    Files added to ``companions`` as ``(path, chunks)`` are committed with
    it in the same call.
    """

    def __init__(self, path, magic: bytes):
        self.path = path
        self._chunks = [magic]
        self.companions: list[tuple] = []

    def __enter__(self) -> "Writer":
        return self

    def __exit__(self, exc_type, *exc) -> None:
        if exc_type is None:
            write_atomically(self.path, self._chunks, *self.companions)

    def sha256(self) -> str:
        """Hex sha256 of the fields written so far."""
        digest = hashlib.sha256()
        for chunk in self._chunks:
            digest.update(chunk)
        return digest.hexdigest()

    def fields(self, fmt: str, *values) -> None:
        self._chunks.append(struct.pack(fmt, *values))

    def text(self, value: str) -> None:
        data = value.encode("utf-8")
        self.fields("<I", len(data))
        self._chunks.append(data)

    def floats(self, arr) -> None:
        """Append ``arr`` as float32; raises if any value is not finite in float32."""
        with np.errstate(over="ignore"):  # an overflow becomes inf, refused below
            flat = np.ascontiguousarray(arr, dtype="<f4")
        if not np.isfinite(flat).all():
            raise FloatingPointError(f"{self.path}: refusing to write non-finite float32 values")
        self._chunks.append(flat.tobytes())
