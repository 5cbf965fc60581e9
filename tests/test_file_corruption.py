"""Every binary reader under exhaustive corruption of a small valid file.

Each reader sees its file cut at every prefix, with every single bit
flipped, and with one extra byte. A case must either load finite data or
raise the reader's typed error; any other exception, or non-finite data
that loads, fails the test. Every payload holds a value in [1, 2), whose
float32 exponent is all ones but its top bit, so one flip makes it inf or NaN.
"""

import numpy as np
import pytest

from rfaudio.audio import AudioBuffer, WavError, read_wav, write_wav
from rfaudio.conditioning import (
    FeatureFileError,
    FeatureSeq,
    read_feature_seq,
    write_feature_seq,
)
from rfaudio.optim import ParamStore, load_checkpoint, save_checkpoint
from rfaudio.spectral import read_mel_dump, write_mel_dump


MATRIX = np.array([[1.5, -0.25, 0.0], [3.0, -1.0, 0.125]], dtype=np.float32)
SAMPLES = np.array([0.5, -1.0, 0.25, 1.0])


def _checkpoint(path):
    store = ParamStore()
    store.create("w", MATRIX[0].copy())
    p = store.create("b", MATRIX[1:, :2].copy())
    p.m[...] = 1.5
    p.v[...] = 1.25
    save_checkpoint(path, store, step=3)


def _checkpoint_arrays(loaded):
    store, _step = loaded
    return [a for p in store for a in (p.data, p.m, p.v)]


# name -> (write a valid file, read it, arrays of what loaded, typed error, names the path)
READERS = {
    "checkpoint": (_checkpoint, load_checkpoint, _checkpoint_arrays, ValueError, True),
    "feature_seq": (
        lambda path: write_feature_seq(path, FeatureSeq(MATRIX)),
        read_feature_seq,
        lambda seq: [seq.tokens.data],
        FeatureFileError,
        True,
    ),
    "mel_dump": (
        lambda path: write_mel_dump(MATRIX.T, path),
        read_mel_dump,
        lambda frames: [frames],
        ValueError,
        True,
    ),
    "wav_float32": (
        lambda path: write_wav(AudioBuffer(SAMPLES, 8000), path),
        read_wav,
        lambda buf: [buf.samples],
        WavError,
        False,
    ),
    "wav_pcm16": (
        lambda path: write_wav(AudioBuffer(SAMPLES, 8000), path, format="pcm16"),
        read_wav,
        lambda buf: [buf.samples],
        WavError,
        False,
    ),
}


def _corruptions(blob: bytes):
    for n in range(len(blob)):
        yield f"cut at {n}", blob[:n]
    for bit in range(8 * len(blob)):
        flipped = bytearray(blob)
        flipped[bit // 8] ^= 1 << (bit % 8)
        yield f"bit {bit} flipped", bytes(flipped)
    yield "one extra byte", blob + b"\x00"


@pytest.mark.parametrize("name", list(READERS))
def test_corrupt_file_loads_finite_or_raises_typed_error(name, tmp_path):
    write, read, arrays, error, names_path = READERS[name]
    path = tmp_path / "file.bin"
    write(path)
    blob = path.read_bytes()
    assert all(np.all(np.isfinite(a)) for a in arrays(read(path)))
    for label, corrupt in _corruptions(blob):
        path.write_bytes(corrupt)
        try:
            loaded = read(path)
        except error as exc:
            assert not names_path or str(path) in str(exc), f"{label}: {exc}"
            continue
        assert all(np.all(np.isfinite(a)) for a in arrays(loaded)), label


def _checkpoint_with(value):
    def write(path):
        store = ParamStore()
        store.create("w", MATRIX[0].copy())
        p = store.create("b", MATRIX[1:, :2].copy())
        p.m[...] = value
        save_checkpoint(path, store, step=3)
    return write


def _mel_dump_with(value):
    def write(path):
        frames = MATRIX.astype(np.float64)
        frames[1, 2] = value
        write_mel_dump(frames, path)
    return write


@pytest.mark.parametrize("write", [
    _checkpoint_with(np.nan), _checkpoint_with(np.inf),
    _mel_dump_with(np.nan), _mel_dump_with(-np.inf), _mel_dump_with(1e39),
], ids=["checkpoint_nan", "checkpoint_inf", "mel_nan", "mel_-inf", "mel_float32_overflow"])
@pytest.mark.parametrize("existing", [None, b"old bytes"], ids=["new", "existing"])
def test_non_finite_refused_at_save(tmp_path, write, existing):
    path = tmp_path / "file.bin"
    if existing is not None:
        path.write_bytes(existing)
    with pytest.raises(FloatingPointError, match="non-finite") as info:
        write(path)
    assert str(path) in str(info.value)
    if existing is None:
        assert not path.exists()
    else:
        assert path.read_bytes() == existing
