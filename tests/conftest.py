import numpy as np
import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "desk",
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("desk")


@pytest.fixture
def rng():
    return np.random.default_rng(0)


@pytest.fixture
def loop_overlap_add():
    """The frame-by-frame overlap-add loop: the reference for every chunked overlap-add."""

    def overlap_add(frames_c, n_fft, hop, window):
        t = frames_c.shape[0]
        out_len = n_fft + (t - 1) * hop
        acc = np.zeros(out_len)
        norm = np.zeros(out_len)
        frames = np.fft.irfft(frames_c, n=n_fft, axis=1) * window
        w2 = window**2
        for j in range(t):
            acc[j * hop : j * hop + n_fft] += frames[j]
            norm[j * hop : j * hop + n_fft] += w2
        covered = norm > 1e-12
        acc[covered] /= norm[covered]
        return acc

    return overlap_add
