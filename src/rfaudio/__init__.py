"""Rectified-flow audio generation and editing at desk scale.

Subsystems: waveform core (:mod:`rfaudio.audio`), spectral front-end
(:mod:`rfaudio.spectral`), autodiff substrate (:mod:`rfaudio.autodiff`,
:mod:`rfaudio.optim`), conditioning streams (:mod:`rfaudio.conditioning`),
flow transformer and sampler (:mod:`rfaudio.model`, :mod:`rfaudio.flow`),
edit-dataset forge (:mod:`rfaudio.dataforge`), training datasets
(:mod:`rfaudio.data`), distribution metrics (:mod:`rfaudio.evalkit`), and
the command line (:mod:`rfaudio.cli`).
"""

import ctypes

__version__ = "0.1.0"

# glibc's allocator policy, pinned once for every entry point (mallopt(3)).
# By default glibc moves its mmap and trim thresholds as the process frees
# memory, so whether a hot path's temporaries come from the heap or fault in
# fresh pages on every call depends on what ran before it: a toy guided
# ``flow.sample_batch`` took from a few dozen to over 20,000 minor faults
# per call. These are the values glibc's own rule reaches at its 64-bit cap:
# blocks under 32 MiB come from the heap, and up to 64 MiB of free heap top
# is kept rather than given back. Where libc has no ``mallopt`` (it is
# glibc's), or refuses a value, the platform's own policy stays.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3  # from glibc's <malloc.h>
try:
    _mallopt = ctypes.CDLL(None).mallopt
except (AttributeError, OSError, TypeError):  # no mallopt, or no C library to open
    pass
else:
    _mallopt.argtypes, _mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    if _mallopt(_M_MMAP_THRESHOLD, 32 << 20):
        _mallopt(_M_TRIM_THRESHOLD, 64 << 20)
