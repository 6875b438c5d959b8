"""Delay-coupled pulse oscillator networks: simulation and analysis.

Layers, bottom up:

    curves    state curve f, its inverse, the pulse jump map, parameter checks
    engine    deterministic event-driven network simulator
    analysis  synchrony verdicts, clusters, audits, the two-clique return map
    config    JSON run configurations
    cli       command-line front end (also exposed as `python -m pcodelay`)

The per-event inner loop is one grouped kernel (_kernel.step_once): oscillators
of equal phase form groups in an affine frame, so an event costs O(groups
touched), not O(n).
"""

from . import analysis, config, curves, engine, rng
from .analysis import *
from .config import *
from .curves import *
from .engine import *
from .rng import *

__version__ = "0.1.0"

__all__ = [
    *analysis.__all__, *config.__all__, *curves.__all__, *engine.__all__,
    *rng.__all__, "__version__",
]
