"""The binary layout shared by rfaudio's checkpoint and feature files.

Each file is an 8-byte magic, then little-endian struct fields and float32
payloads in the order its format lists them. :class:`Reader` is strict: a
file that ends inside a field, holds a non-finite float, or has bytes after
the last field raises the caller's error type with the path in the message.
:class:`Writer` emits the same fields in the same order and refuses to
write a non-finite float.
"""

from __future__ import annotations

import math
import struct

import numpy as np


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

    The fields are kept in memory and the file is written only when the block
    exits cleanly, so a failed save leaves no file and an existing one keeps
    its bytes.
    """

    def __init__(self, path, magic: bytes):
        self.path = path
        self._chunks = [magic]

    def __enter__(self) -> "Writer":
        return self

    def __exit__(self, exc_type, *exc) -> None:
        if exc_type is None:
            with open(self.path, "wb") as fh:
                fh.writelines(self._chunks)

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
