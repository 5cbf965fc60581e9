"""Parameters, AdamW, and the binary checkpoint format.

Every model component declares each of its parameters once, through
:meth:`ParamStore.declare`, as a name, a shape and an initialiser
(:func:`fan_in_normal`, :func:`small_normal`, :func:`zeros`, :func:`ones`).
A fresh store draws the parameter from its seed; a store built over a loaded
checkpoint takes the record of that name instead, after checking its shape,
so the declarations are the one description of the checkpoint's layout.

Checkpoint layout (little-endian): magic ``RFADCKPT``, u32 format version,
u64 step counter, u32 parameter count, then per parameter a length-prefixed
utf-8 name, u32 ndim + u32 extents, and three float32 payloads (data, first
moment, second moment). Round-trips are bit-exact.
"""

from __future__ import annotations

from itertools import accumulate

import numpy as np

from .autodiff import NonFiniteError, Tensor
from .binfile import Reader, Writer

CHECKPOINT_MAGIC = b"RFADCKPT"
CHECKPOINT_VERSION = 1

ADAM_LR = 5e-5
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_WEIGHT_DECAY = 1e-3
ADAM_EPS = 1e-8


class Parameter:
    """A named trainable tensor with AdamW moment buffers ``m`` and ``v``.

    Once its store is packed (:meth:`ParamStore.packed`), ``data``, ``m`` and
    ``v`` are views into the store's flat buffers, so write them in place.
    """

    def __init__(self, name: str, data: np.ndarray) -> None:
        self.name = name
        self.tensor = Tensor(data, requires_grad=True)
        self.m = np.zeros_like(self.tensor.data)
        self.v = np.zeros_like(self.tensor.data)

    @property
    def data(self) -> np.ndarray:
        return self.tensor.data


def fan_in_normal(rng: np.random.Generator, shape) -> np.ndarray:
    """Standard normal draws scaled by ``1 / sqrt(shape[0])``, the fan-in."""
    return rng.standard_normal(shape) / np.sqrt(shape[0])


def small_normal(rng: np.random.Generator, shape) -> np.ndarray:
    """Normal draws with standard deviation 0.02 (embedding tables)."""
    return 0.02 * rng.standard_normal(shape)


def zeros(rng: np.random.Generator, shape) -> np.ndarray:
    return np.zeros(shape)


def ones(rng: np.random.Generator, shape) -> np.ndarray:
    return np.ones(shape)


class ParamStore:
    """Ordered name -> Parameter mapping with unique names.

    ``seed`` and ``dtype`` govern the parameters that :meth:`declare` draws.
    With ``loaded`` (a store read by :func:`load_checkpoint`), :meth:`declare`
    takes each parameter from those records instead and draws nothing.
    """

    def __init__(self, seed: int = 0, dtype=np.float32, loaded: ParamStore | None = None) -> None:
        self.dtype = dtype
        self._loaded = loaded
        self._rng = np.random.default_rng(seed) if loaded is None else None
        self._params: dict[str, Parameter] = {}
        self._flat: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
        self._spans: list[tuple[Parameter, int, int]] = []  # (parameter, start, end)

    def declare(self, name: str, shape: tuple, init) -> Tensor:
        """The tensor of parameter ``name``, of ``shape``, drawn or loaded.

        A fresh store draws ``init(rng, shape)`` in float64 and casts it to the
        store's dtype. A loaded store takes the record ``name`` as it is; a
        missing record or one of another shape raises ``ValueError`` before
        anything of ``shape`` is allocated.
        """
        if self._loaded is None:
            return self.create(name, init(self._rng, shape).astype(self.dtype)).tensor
        record = self._loaded._params.get(name)
        got = None if record is None else record.data.shape
        if got != shape:
            raise ValueError(
                f"the model declares {name!r} of shape {shape}, the checkpoint has {got}"
            )
        return self._add(record).tensor

    def create(self, name: str, data: np.ndarray) -> Parameter:
        return self._add(Parameter(name, data))

    def _add(self, p: Parameter) -> Parameter:
        if p.name in self._params:
            raise ValueError(f"duplicate parameter name {p.name!r}")
        self._params[p.name] = p
        self._flat = None
        return p

    def __getitem__(self, name: str) -> Parameter:
        return self._params[name]

    def __contains__(self, name: str) -> bool:
        return name in self._params

    def __iter__(self):
        return iter(self._params.values())

    def __len__(self) -> int:
        return len(self._params)

    def names(self):
        return list(self._params)

    def zero_grads(self) -> None:
        for p in self._params.values():
            p.tensor.zero_grad()

    def n_scalars(self) -> int:
        return sum(p.data.size for p in self._params.values())

    def packed(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The flat ``(data, m, v)`` buffers of all parameters, in creation order.

        The first call after a parameter is created copies every parameter's
        arrays into new buffers (of the parameters' common dtype) and makes
        them views of those, so the per-parameter copies are freed.
        """
        if self._flat is None:
            plist = list(self)
            self._flat = tuple(
                np.concatenate([getattr(p, f).reshape(-1) for p in plist])
                if plist else np.zeros(0, np.float32)
                for f in ("data", "m", "v")
            )
            offsets = [0, *accumulate(p.data.size for p in plist)]
            self._spans = list(zip(plist, offsets, offsets[1:]))
            for p, lo, hi in self._spans:
                p.tensor.data, p.m, p.v = [a[lo:hi].reshape(p.data.shape) for a in self._flat]
        return self._flat

    def flat_grad(self) -> np.ndarray:
        """Every parameter's ``tensor.grad`` in one new flat array laid out as
        :meth:`packed`, zero where a parameter has none.

        A non-finite gradient raises ``NonFiniteError`` naming its parameter.
        """
        g = np.zeros_like(self.packed()[0])
        for p, lo, hi in self._spans:
            if p.tensor.grad is not None:
                g[lo:hi] = p.tensor.grad.reshape(-1)
        if not np.isfinite(g).all():
            name = next(p.name for p, lo, hi in self._spans if not np.isfinite(g[lo:hi]).all())
            raise NonFiniteError(f"non-finite gradient for parameter {name!r}")
        return g

    def all_finite(self) -> bool:
        """Whether every parameter value is finite (one check over the flat buffer)."""
        return bool(np.isfinite(self.packed()[0]).all())


def adamw_step(
    params: ParamStore,
    step_index: int,
    lr: float = ADAM_LR,
    beta1: float = ADAM_BETA1,
    beta2: float = ADAM_BETA2,
    weight_decay: float = ADAM_WEIGHT_DECAY,
    eps: float = ADAM_EPS,
) -> None:
    """One decoupled-weight-decay Adam step, in place, over the packed buffers.

    ``step_index`` starts at 1 (bias correction). Gradients come from
    :meth:`ParamStore.flat_grad`, so a non-finite one raises before anything
    changes. Decay is applied directly to the parameter (p *= 1 - lr*wd),
    never through the moments. Every element sees the same float
    operations in the same order as a per-parameter loop would apply.
    """
    if step_index < 1:
        raise ValueError("step_index starts at 1")
    bc1 = 1.0 - beta1**step_index
    bc2 = 1.0 - beta2**step_index
    data, m, v = params.packed()
    g = params.flat_grad()
    step = np.multiply(g, 1.0 - beta1)
    m *= beta1
    m += step
    np.multiply(g, g, out=g)
    g *= 1.0 - beta2
    v *= beta2
    v += g
    # step = lr * m_hat / (sqrt(v_hat) + eps), reusing g for the denominator
    np.divide(m, bc1, out=step)
    step *= lr
    np.divide(v, bc2, out=g)
    np.sqrt(g, out=g)
    g += eps
    step /= g
    data *= 1.0 - lr * weight_decay
    data -= step


# ---------------------------------------------------------------------------
# checkpoint I/O
# ---------------------------------------------------------------------------


def save_checkpoint(path, params, step: int, sidecar=None) -> None:
    """Write parameters + moments + step counter. Parameters must be float32.

    ``sidecar``, if given, maps the checkpoint's sha256 hex digest to a
    ``(path, bytes)`` file that is committed together with the checkpoint
    (see :func:`~rfaudio.binfile.write_atomically`).
    """
    plist = list(params)
    for p in plist:
        if p.data.dtype != np.float32:
            raise ValueError(
                f"checkpoint stores float32 records; parameter {p.name!r} is {p.data.dtype}"
            )
    with Writer(path, CHECKPOINT_MAGIC) as w:
        w.fields("<IQI", CHECKPOINT_VERSION, step, len(plist))
        for p in plist:
            w.text(p.name)
            w.fields("<I", p.data.ndim)
            w.fields(f"<{p.data.ndim}I", *p.data.shape)
            w.floats(p.data)
            w.floats(p.m)
            w.floats(p.v)
        if sidecar is not None:
            sidecar_path, data = sidecar(w.sha256())
            w.companions.append((sidecar_path, [data]))


def load_checkpoint(path, sha256: str | None = None):
    """Read a checkpoint; returns (ParamStore, step).

    A malformed file (see :class:`~rfaudio.binfile.Reader`), an unknown
    version, a repeated record name or, when ``sha256`` is given, a file
    whose hex digest differs from it raises ``ValueError`` naming the path.
    """
    r = Reader(path, CHECKPOINT_MAGIC, "checkpoint")
    version, step, count = r.fields("<IQI")
    if version != CHECKPOINT_VERSION:
        raise r.fail(f"unsupported checkpoint version {version}")
    store = ParamStore()
    for _ in range(count):
        name = r.text()
        if name in store:
            raise r.fail(f"repeated record {name!r}")
        (ndim,) = r.fields("<I")
        shape = r.fields(f"<{ndim}I")
        p = store.create(name, r.floats(shape))
        p.m = r.floats(shape)
        p.v = r.floats(shape)
    r.end()
    if sha256 is not None and r.sha256() != sha256:
        raise r.fail(f"sha256 {r.sha256()} differs from the expected {sha256}")
    return store, step
