"""Parameters, AdamW, and the binary checkpoint format.

Checkpoint layout (little-endian): magic ``RFADCKPT``, u32 format version,
u64 step counter, u32 parameter count, then per parameter a length-prefixed
utf-8 name, u32 ndim + u32 extents, and three float32 payloads (data, first
moment, second moment). Round-trips are bit-exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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


@dataclass
class Parameter:
    """A named trainable tensor with AdamW moment buffers."""

    name: str
    tensor: Tensor
    m: np.ndarray = field(default=None)  # type: ignore[assignment]
    v: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        self.tensor.requires_grad = True
        if self.m is None:
            self.m = np.zeros_like(self.tensor.data)
        if self.v is None:
            self.v = np.zeros_like(self.tensor.data)
        if self.m.shape != self.tensor.data.shape or self.v.shape != self.tensor.data.shape:
            raise ValueError(f"moment shape mismatch for parameter {self.name!r}")

    @property
    def data(self) -> np.ndarray:
        return self.tensor.data


class ParamStore:
    """Ordered name -> Parameter mapping with unique names."""

    def __init__(self) -> None:
        self._params: dict[str, Parameter] = {}

    def create(self, name: str, data: np.ndarray) -> Parameter:
        if name in self._params:
            raise ValueError(f"duplicate parameter name {name!r}")
        p = Parameter(name, Tensor(data, requires_grad=True))
        self._params[name] = p
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


def adamw_step(
    params,
    step_index: int,
    lr: float = ADAM_LR,
    beta1: float = ADAM_BETA1,
    beta2: float = ADAM_BETA2,
    weight_decay: float = ADAM_WEIGHT_DECAY,
    eps: float = ADAM_EPS,
    grads: dict | None = None,
) -> None:
    """One decoupled-weight-decay Adam step, in place.

    ``step_index`` starts at 1 (bias correction). Gradients default to each
    parameter's accumulated ``tensor.grad``; a missing gradient counts as
    zero. Decay is applied directly to the parameter (p *= 1 - lr*wd), never
    through the moments.
    """
    if step_index < 1:
        raise ValueError("step_index starts at 1")
    bc1 = 1.0 - beta1**step_index
    bc2 = 1.0 - beta2**step_index
    for p in params:
        g = grads.get(p.name) if grads is not None else p.tensor.grad
        if g is None:
            g = np.zeros_like(p.data)
        if g.size and not np.all(np.isfinite(g)):
            raise NonFiniteError(f"non-finite gradient for parameter {p.name!r}")
        g = g.astype(p.data.dtype, copy=False)
        p.m *= beta1
        p.m += (1.0 - beta1) * g
        p.v *= beta2
        p.v += (1.0 - beta2) * (g * g)
        m_hat = p.m / bc1
        v_hat = p.v / bc2
        p.tensor.data = p.data * (1.0 - lr * weight_decay) - lr * m_hat / (
            np.sqrt(v_hat) + eps
        )


# ---------------------------------------------------------------------------
# checkpoint I/O
# ---------------------------------------------------------------------------


def save_checkpoint(path, params, step: int) -> None:
    """Write parameters + moments + step counter. Parameters must be float32."""
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


def load_checkpoint(path):
    """Read a checkpoint; returns (ParamStore, step).

    A malformed file (see :class:`~rfaudio.binfile.Reader`), an unknown
    version or a repeated record name raises ``ValueError`` naming the path.
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
    return store, step
