"""Every binary reader under exhaustive corruption of a small valid file.

Each reader sees its file cut at every prefix, with every single bit
flipped, and with one extra byte. A case must either load finite data or
raise the reader's typed error; any other exception, or non-finite data
that loads, fails the test. Every payload holds a value in [1, 2), whose
float32 exponent is all ones but its top bit, so one flip makes it inf or NaN.
A model checkpoint must also refuse a sidecar from another save.
"""

import json
import shutil

import numpy as np
import pytest

from rfaudio.audio import AudioBuffer, WavError, read_wav, write_wav
from rfaudio.conditioning import (
    FeatureFileError,
    FeatureSeq,
    read_feature_seq,
    write_feature_seq,
)
from rfaudio.cli import EXIT_DATA, main
from rfaudio.flow import load_model, save_model
from rfaudio.model import FlowModel, ModelConfig
from rfaudio.optim import ParamStore, load_checkpoint, save_checkpoint


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


def _feature_seq_overflowing(path):
    # a FeatureSeq refuses NaN and inf itself; 1e39 is finite until the float32 cast
    tokens = MATRIX.astype(np.float64)
    tokens[1, 2] = 1e39
    write_feature_seq(path, FeatureSeq(tokens))


@pytest.mark.parametrize("write", [
    _checkpoint_with(np.nan), _checkpoint_with(np.inf), _feature_seq_overflowing,
], ids=["checkpoint_nan", "checkpoint_inf", "feature_seq_float32_overflow"])
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


MODEL = ModelConfig(d_lat=3, d_mel=3, d_sync=2, d_mm=4, d_trans=4, d_high=6,
                    width=8, depth=1, heads=2, time_basis=8)


def _saved_model(path, seed, vocab):
    path.parent.mkdir(parents=True, exist_ok=True)
    save_model(path, FlowModel(MODEL, seed=seed, toy_vocab=vocab), seed=seed)
    return path


def test_checkpoint_from_another_save_refused(tmp_path, capsys):
    """Same shapes, same names: only the recorded sha256 tells the pair apart."""
    a = _saved_model(tmp_path / "a" / "model.ckpt", 1, ["dog"])
    b = _saved_model(tmp_path / "b" / "model.ckpt", 2, ["cat"])
    load_model(a)
    shutil.copyfile(b, a)
    with pytest.raises(ValueError, match="sha256") as info:
        load_model(a)
    assert str(a) in str(info.value)
    rc = main(["sample", "--checkpoint", str(a), "--out", str(tmp_path / "x.wav")])
    assert rc == EXIT_DATA
    assert json.loads(capsys.readouterr().err)["error"] == "data"
    assert not (tmp_path / "x.wav").exists()


@pytest.mark.parametrize("digest", [None, "missing", 7], ids=["null", "missing", "int"])
def test_sidecar_without_checkpoint_digest_refused(tmp_path, digest):
    path = _saved_model(tmp_path / "model.ckpt", 1, ["dog"])
    sidecar = tmp_path / "model.ckpt.json"
    meta = json.loads(sidecar.read_text())
    if digest == "missing":
        del meta["checkpoint_sha256"]
    else:
        meta["checkpoint_sha256"] = digest
    sidecar.write_text(json.dumps(meta))
    with pytest.raises(ValueError, match="checkpoint_sha256") as info:
        load_model(path)
    assert str(sidecar) in str(info.value)
