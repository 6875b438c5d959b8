"""JSON run configurations.

One JSON object describes a complete run: network parameters, seed, initial
conditions, a stop rule (a time horizon or a stroboscopic frame count), and
optional tolerances, output, and return-map settings.  Validation errors
always name the offending field by its dotted path.

Schema:

    {
      "n": 100, "epsilon": 0.001, "tau": 0.1,
      "curve": {"family": "ms_exponential", "i": 1.05},
      "seed": 1,
      "init": {"mode": "uniform", "low": 0.0, "high": 1.0}
              | {"mode": "explicit", "phases": [...]},
      "horizon": 100.0            # exactly one of horizon / strobe
      "strobe": {"ref": 0, "frames": 500},
      "tolerances": {"tol_time": 1e-9, "tol_phase": 1e-12,
                     "cluster_tol": 1e-6},                    # optional
      "output": {"format": "csv" | "svg", "path": "out.csv"}, # optional
      "strict": false,                                        # optional
      "trials": 1,                                            # optional
      "returnmap": {"theta": 0.05, "p": 50, "q": 50,
                    "steps": 1000, "oracle_every": 0}         # optional
    }

Fields marked optional may be left out, as may init.low (0), init.high (1),
each tolerance, output.path and returnmap.oracle_every (0).  Each section's
fields, kinds, defaults and one-field rules are one table in this module;
parse_config adds the rules that span fields.

Uniform initial phases are drawn on (low, high] from SplitMix64(seed), one
draw per oscillator in index order; trial t of a multi-trial run uses seed
(seed + t) mod 2**64.
"""

from __future__ import annotations

import json
import math
from collections import namedtuple

import numpy as np

from .curves import CouplingParams, CurveSpec, _Record
from .engine import ModelParams
from .rng import sample_phases

__all__ = [
    "ConfigError",
    "UniformInit",
    "ExplicitInit",
    "StrobeSpec",
    "OutputSpec",
    "ReturnMapSpec",
    "RunConfig",
    "parse_config",
    "load_config",
]

class ConfigError(ValueError):
    """Malformed run configuration; the message names the field."""


class UniformInit(_Record):
    def __init__(self, low: float, high: float) -> None:
        self.__dict__.update(low=low, high=high)


class ExplicitInit(_Record):
    def __init__(self, phases: tuple[float, ...]) -> None:
        self.__dict__["phases"] = phases


class StrobeSpec(_Record):
    def __init__(self, ref: int, frames: int) -> None:
        self.__dict__.update(ref=ref, frames=frames)


class OutputSpec(_Record):
    def __init__(self, format: str, path: str | None) -> None:
        self.__dict__.update(format=format, path=path)


class ReturnMapSpec(_Record):
    def __init__(self, theta: float, p: int, q: int, steps: int, oracle_every: int) -> None:
        self.__dict__.update(theta=theta, p=p, q=q, steps=steps, oracle_every=oracle_every)


class RunConfig(_Record):
    """Validated run description; see the module docstring for the schema."""

    def __init__(
        self,
        params: ModelParams,
        seed: int,
        init: UniformInit | ExplicitInit,
        horizon: float | None,
        strobe: StrobeSpec | None,
        cluster_tol: float,
        strict: bool,
        trials: int,
        output: OutputSpec | None,
        returnmap: ReturnMapSpec | None,
    ) -> None:
        # Here, not in parse_config, so that a trial count set from the
        # command line through _replace meets the same rule.
        if trials < 1:
            raise ConfigError("trials: must be >= 1")
        if trials > 1 and isinstance(init, ExplicitInit):
            raise ConfigError("trials: explicit init cannot vary across trials; use uniform")
        self.__dict__.update(
            params=params, seed=seed, init=init, horizon=horizon, strobe=strobe,
            cluster_tol=cluster_tol, strict=strict, trials=trials, output=output,
            returnmap=returnmap,
        )

    def initial_phases(self, trial: int = 0) -> np.ndarray:
        """Initial phases for one trial (explicit, or seeded uniform draws)."""
        n = self.params.coupling.n
        if isinstance(self.init, ExplicitInit):
            return np.array(self.init.phases, dtype=np.float64)
        seed = (self.seed + trial) % (1 << 64)
        return sample_phases(seed, n, self.init.low, self.init.high)


def _finite(value: int | float) -> bool:
    """Whether value converts to a finite float (JSON integers are unbounded)."""
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


_REQUIRED = object()
_MAX_N = int(np.iinfo(np.intp).max)  # the largest numpy array length

# The Python types of each JSON kind.  A bool is an int to Python, so it
# passes only as a boolean.
_KINDS = {"number": (int, float), "integer": int, "string": str, "object": dict,
          "array": list, "boolean": bool}

# One field of a section, of a JSON kind.  A default of None leaves the
# field None when it is absent.  test, if given, must hold for the value, or
# the error reads "<path>: <text>", text formatted with the value.
_Field = namedtuple("_Field", "key kind default test text", defaults=(_REQUIRED, None, ""))

_CURVE = (_Field("family", "string"), _Field("i", "number"))
_TOLERANCES = (
    _Field("tol_time", "number", None),
    _Field("tol_phase", "number", None),
    _Field("cluster_tol", "number", 1e-6, lambda v: v > 0.0, "must be > 0"),
)
_MODE = _Field("mode", "string", test=lambda m: m in _INIT,
               text="expected 'uniform' or 'explicit', got {!r}")
_INIT = {
    "uniform": (_MODE, _Field("low", "number", 0.0, lambda v: v >= 0.0, "must be >= 0"),
                _Field("high", "number", 1.0, lambda v: v <= 1.0, "must be <= 1")),
    "explicit": (_MODE, _Field("phases", "array")),
}
_STROBE = (
    _Field("ref", "integer"),
    _Field("frames", "integer", test=lambda v: v >= 1, text="must be >= 1"),
)
_OUTPUT = (
    _Field("format", "string", test=lambda f: f in ("csv", "svg"),
           text="expected 'csv' or 'svg', got {!r}"),
    _Field("path", "string", None, lambda p: p != "", "must be non-empty"),
)
_RETURNMAP = (
    _Field("theta", "number", test=lambda v: 0.0 <= v < 1.0, text="must lie in [0, 1)"),
    _Field("p", "integer"),
    _Field("q", "integer"),
    _Field("steps", "integer", test=lambda v: v >= 1, text="must be >= 1"),
    _Field("oracle_every", "integer", 0, lambda v: v >= 0, "must be >= 0"),
)
# The sections are plain objects here; parse_config reads each with its table.
_TOP = (
    _Field("n", "integer", test=lambda v: v <= _MAX_N, text=f"must be <= {_MAX_N}"),
    _Field("epsilon", "number"),
    _Field("tau", "number"),
    _Field("curve", "object"),
    _Field("tolerances", "object", {}),
    _Field("seed", "integer", test=lambda v: v >= 0, text="must be >= 0"),
    _Field("init", "object"),
    _Field("horizon", "number", None, lambda v: v > 0.0, "must be > 0"),
    _Field("strobe", "object", None),
    _Field("output", "object", None),
    _Field("strict", "boolean", False),
    _Field("trials", "integer", 1),
    _Field("returnmap", "object", None),
)


def _field(raw: dict, path: str, field: _Field):
    """One field's value: its default if absent, numbers as floats."""
    where = f"{path}.{field.key}" if path else field.key
    if field.key in raw:
        value = raw[field.key]
    elif field.default is _REQUIRED:
        raise ConfigError(f"missing required field: {where}")
    elif field.default is None:
        return None
    else:
        value = field.default
    kind = field.kind
    if not isinstance(value, _KINDS[kind]) or isinstance(value, bool) != (kind == "boolean"):
        raise ConfigError(f"{where}: expected {kind}, got {type(value).__name__}")
    if kind == "number":
        if not _finite(value):
            raise ConfigError(f"{where}: must be finite")
        value = float(value)
    if field.test is not None and not field.test(value):
        raise ConfigError(f"{where}: {field.text.format(value)}")
    return value


def _fields(raw: dict | None, path: str, table: tuple[_Field, ...]) -> dict | None:
    """Check raw against a field table: no unknown keys, then each field in order."""
    if raw is None:  # an optional object left out
        return None
    known = [field.key for field in table]
    for key in raw:
        if key not in known:
            raise ConfigError(f"unknown field: {path}.{key}" if path else f"unknown field: {key}")
    return {field.key: _field(raw, path, field) for field in table}


def _build(prefix: str, record: type, **fields):
    """record(**fields), its ValueError a ConfigError with the message prefixed."""
    try:
        return record(**fields)
    except ValueError as exc:
        raise ConfigError(prefix + str(exc)) from exc


def parse_config(text: str) -> RunConfig:
    """Parse and validate a JSON run configuration."""
    try:
        raw = json.loads(text)
    except ValueError as exc:  # also an integer past Python's digit limit
        raise ConfigError(f"not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("top level must be a JSON object")
    top = _fields(raw, "", _TOP)

    n = top["n"]
    coupling = _build("", CouplingParams, n=n, epsilon=top["epsilon"], tau=top["tau"])
    curve = _build("curve: ", CurveSpec, **_fields(top["curve"], "curve", _CURVE))
    # ModelParams keeps the defaults of the engine's tolerances; pass only
    # those the config sets.
    tols = _fields(top["tolerances"], "tolerances", _TOLERANCES)
    model_tols = {k: tols[k] for k in ("tol_time", "tol_phase") if tols[k] is not None}
    params = _build("tolerances: ", ModelParams, curve=curve, coupling=coupling, **model_tols)

    mode = _field(top["init"], "init", _MODE)
    fields = _fields(top["init"], "init", _INIT[mode])
    if mode == "uniform":
        if not fields["low"] < fields["high"]:
            raise ConfigError("init.low: must be < init.high")
        init: UniformInit | ExplicitInit = UniformInit(low=fields["low"], high=fields["high"])
    else:
        phases = fields["phases"]
        if len(phases) != n:
            raise ConfigError(f"init.phases: expected {n} entries, got {len(phases)}")
        for ix, value in enumerate(phases):
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise ConfigError(f"init.phases[{ix}]: expected number")
            if not _finite(value) or not 0.0 < value <= 1.0:
                raise ConfigError(f"init.phases[{ix}]: must lie in (0, 1]")
        init = ExplicitInit(phases=tuple(map(float, phases)))

    if (top["horizon"] is None) == (top["strobe"] is None):
        raise ConfigError("exactly one of 'horizon' or 'strobe' is required")
    strobe = _fields(top["strobe"], "strobe", _STROBE)
    if strobe is not None:
        if not 0 <= strobe["ref"] < n:
            raise ConfigError(f"strobe.ref: must lie in [0, {n})")
        strobe = StrobeSpec(**strobe)

    output = _fields(top["output"], "output", _OUTPUT)
    returnmap = _fields(top["returnmap"], "returnmap", _RETURNMAP)
    if returnmap is not None:
        for name in ("p", "q"):
            if returnmap[name] < 1:
                raise ConfigError(f"returnmap.{name}: clique sizes must be >= 1")
        if returnmap["p"] + returnmap["q"] != n:
            raise ConfigError(f"returnmap.q: p + q must equal n = {n}")
        # + 0.0 turns -0.0 into 0.0, which is the same merged state.
        returnmap = ReturnMapSpec(**{**returnmap, "theta": returnmap["theta"] + 0.0})

    return RunConfig(
        params=params, seed=top["seed"], init=init, horizon=top["horizon"], strobe=strobe,
        cluster_tol=tols["cluster_tol"], strict=top["strict"], trials=top["trials"],
        output=output and OutputSpec(**output), returnmap=returnmap,
    )


def load_config(path: str) -> RunConfig:
    """Read and parse a configuration file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    return parse_config(text)
