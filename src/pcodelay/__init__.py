"""Delay-coupled pulse oscillator networks: simulation and analysis.

Layers, bottom up:

    curves    state curve f, its inverse, the pulse jump map, parameter checks
    engine    deterministic event-driven network simulator
    analysis  synchrony verdicts, clusters, audits, the two-clique return map
    config    JSON run configurations
    cli       command-line front end (also exposed as `python -m pcodelay`)

`import pcodelay` loads the simulator layers only: config, curves, engine
(with its kernel) and rng, and binds their public names here. The analysis
layer loads on first use, the first time one of its names, `analysis` itself,
`__all__` or `dir(pcodelay)` is asked for; a run that only simulates never
compiles it. After that load the package is a plain module: its names are
ordinary bindings that no later lookup rewrites. `from pcodelay import *`
binds every name of every layer.

The per-event inner loop is one grouped kernel (_kernel.step_once): oscillators
of equal phase form groups in an affine frame, so an event costs O(groups
touched), not O(n). step_once decides each event once: it delivers arrivals
only when a volley is due and fires only at a crossing or when the front
group, read once after the arrivals, is at threshold. The simulate command
and desync_trial share one sync-gated run loop (analysis._run_to_sync),
which runs the full synchrony check only where the O(1) phase spread allows.
"""

import importlib

from . import config, curves, engine, rng
from .config import *
from .curves import *
from .engine import *
from .rng import *

__version__ = "0.1.0"


def _load_analysis():
    """Import the analysis layer, bind its names and the full __all__ here,
    and remove the hooks below, so this runs once."""
    # import_module, not `from . import analysis`: the latter looks the name
    # up on this package first, which calls __getattr__ again.
    analysis = importlib.import_module(".analysis", __name__)
    names = globals()
    for name in analysis.__all__:
        # setdefault: a name already assigned on the package (a test's patch,
        # say) keeps that value.
        names.setdefault(name, getattr(analysis, name))
    names["__all__"] = [
        *analysis.__all__, *config.__all__, *curves.__all__, *engine.__all__,
        *rng.__all__, "__version__",
    ]
    names.pop("__getattr__", None)
    names.pop("__dir__", None)


def __getattr__(name: str):
    # Called only for names not bound yet. Any such name may be analysis's,
    # so analysis loads before the lookup decides.
    _load_analysis()
    try:
        return globals()[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None


def __dir__():
    _load_analysis()
    return sorted(globals())
