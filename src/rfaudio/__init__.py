"""Rectified-flow audio generation and editing at desk scale.

Subsystems: waveform core (:mod:`rfaudio.audio`), spectral front-end
(:mod:`rfaudio.spectral`), autodiff substrate (:mod:`rfaudio.autodiff`,
:mod:`rfaudio.optim`), conditioning streams (:mod:`rfaudio.conditioning`),
flow transformer and sampler (:mod:`rfaudio.model`, :mod:`rfaudio.flow`),
edit-dataset forge (:mod:`rfaudio.dataforge`), training datasets
(:mod:`rfaudio.data`), distribution metrics (:mod:`rfaudio.evalkit`), and
the command line (:mod:`rfaudio.cli`).
"""

__version__ = "0.1.0"
