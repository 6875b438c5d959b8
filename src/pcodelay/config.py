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

Uniform initial phases are drawn on (low, high] from SplitMix64(seed), one
draw per oscillator in index order; trial t of a multi-trial run uses seed
(seed + t) mod 2**64.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .curves import CouplingParams, CurveSpec
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

_DEFAULT_CLUSTER_TOL = 1e-6


class ConfigError(ValueError):
    """Malformed run configuration; the message names the field."""


@dataclass(frozen=True)
class UniformInit:
    low: float
    high: float


@dataclass(frozen=True)
class ExplicitInit:
    phases: tuple[float, ...]


@dataclass(frozen=True)
class StrobeSpec:
    ref: int
    frames: int


@dataclass(frozen=True)
class OutputSpec:
    format: str
    path: str | None


@dataclass(frozen=True)
class ReturnMapSpec:
    theta: float
    p: int
    q: int
    steps: int
    oracle_every: int


@dataclass(frozen=True)
class RunConfig:
    """Validated run description; see the module docstring for the schema."""

    params: ModelParams
    seed: int
    init: UniformInit | ExplicitInit
    horizon: float | None
    strobe: StrobeSpec | None
    cluster_tol: float
    strict: bool
    trials: int
    output: OutputSpec | None
    returnmap: ReturnMapSpec | None

    def __post_init__(self) -> None:
        # Here, not in parse_config, so that a trial count set from the
        # command line through dataclasses.replace meets the same rule.
        if self.trials < 1:
            raise ConfigError("trials: must be >= 1")
        if self.trials > 1 and isinstance(self.init, ExplicitInit):
            raise ConfigError(
                "trials: explicit init cannot vary across trials; use uniform"
            )

    def initial_phases(self, trial: int = 0) -> np.ndarray:
        """Initial phases for one trial (explicit, or seeded uniform draws)."""
        n = self.params.coupling.n
        if isinstance(self.init, ExplicitInit):
            return np.array(self.init.phases, dtype=np.float64)
        seed = (self.seed + trial) % (1 << 64)
        return sample_phases(seed, n, self.init.low, self.init.high)


def _expect(raw: dict, key: str, kind: str, path: str = ""):
    where = f"{path}.{key}" if path else key
    if key not in raw:
        raise ConfigError(f"missing required field: {where}")
    value = raw[key]
    ok = {
        "number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
        "integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
        "string": lambda v: isinstance(v, str),
        "object": lambda v: isinstance(v, dict),
        "array": lambda v: isinstance(v, list),
        "boolean": lambda v: isinstance(v, bool),
    }[kind]
    if not ok(value):
        raise ConfigError(f"{where}: expected {kind}, got {type(value).__name__}")
    if kind == "number" and not math.isfinite(value):
        raise ConfigError(f"{where}: must be finite")
    return value


def _reject_unknown(raw: dict, known: set[str], path: str = "") -> None:
    for key in raw:
        if key not in known:
            where = f"{path}.{key}" if path else key
            raise ConfigError(f"unknown field: {where}")


def parse_config(text: str) -> RunConfig:
    """Parse and validate a JSON run configuration."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("top level must be a JSON object")
    _reject_unknown(raw, {
        "n", "epsilon", "tau", "curve", "seed", "init", "horizon", "strobe",
        "tolerances", "output", "strict", "trials", "returnmap",
    })

    n = _expect(raw, "n", "integer")
    epsilon = _expect(raw, "epsilon", "number")
    tau = _expect(raw, "tau", "number")
    try:
        coupling = CouplingParams(n=n, epsilon=float(epsilon), tau=float(tau))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    curve_raw = _expect(raw, "curve", "object")
    _reject_unknown(curve_raw, {"family", "i"}, "curve")
    family = _expect(curve_raw, "family", "string", "curve")
    i_value = _expect(curve_raw, "i", "number", "curve")
    try:
        curve = CurveSpec(family=family, i=float(i_value))
    except ValueError as exc:
        raise ConfigError(f"curve: {exc}") from exc

    tol_time, tol_phase, cluster_tol = 1e-9, 1e-12, _DEFAULT_CLUSTER_TOL
    if "tolerances" in raw:
        tol_raw = _expect(raw, "tolerances", "object")
        _reject_unknown(tol_raw, {"tol_time", "tol_phase", "cluster_tol"}, "tolerances")
        if "tol_time" in tol_raw:
            tol_time = float(_expect(tol_raw, "tol_time", "number", "tolerances"))
        if "tol_phase" in tol_raw:
            tol_phase = float(_expect(tol_raw, "tol_phase", "number", "tolerances"))
        if "cluster_tol" in tol_raw:
            cluster_tol = float(_expect(tol_raw, "cluster_tol", "number", "tolerances"))
            if not cluster_tol > 0.0:
                raise ConfigError("tolerances.cluster_tol: must be > 0")
    try:
        params = ModelParams(
            curve=curve, coupling=coupling, tol_time=tol_time, tol_phase=tol_phase
        )
    except ValueError as exc:
        raise ConfigError(f"tolerances: {exc}") from exc

    seed = _expect(raw, "seed", "integer")
    if seed < 0:
        raise ConfigError("seed: must be >= 0")

    init_raw = _expect(raw, "init", "object")
    mode = _expect(init_raw, "mode", "string", "init")
    if mode == "uniform":
        _reject_unknown(init_raw, {"mode", "low", "high"}, "init")
        low = float(_expect(init_raw, "low", "number", "init")) if "low" in init_raw else 0.0
        high = float(_expect(init_raw, "high", "number", "init")) if "high" in init_raw else 1.0
        if not 0.0 <= low:
            raise ConfigError("init.low: must be >= 0")
        if not high <= 1.0:
            raise ConfigError("init.high: must be <= 1")
        if not low < high:
            raise ConfigError("init.low: must be < init.high")
        init: UniformInit | ExplicitInit = UniformInit(low=low, high=high)
    elif mode == "explicit":
        _reject_unknown(init_raw, {"mode", "phases"}, "init")
        phases_raw = _expect(init_raw, "phases", "array", "init")
        if len(phases_raw) != n:
            raise ConfigError(
                f"init.phases: expected {n} entries, got {len(phases_raw)}"
            )
        phases = []
        for ix, value in enumerate(phases_raw):
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise ConfigError(f"init.phases[{ix}]: expected number")
            value = float(value)
            if not 0.0 < value <= 1.0 or not math.isfinite(value):
                raise ConfigError(f"init.phases[{ix}]: must lie in (0, 1]")
            phases.append(value)
        init = ExplicitInit(phases=tuple(phases))
    else:
        raise ConfigError(f"init.mode: expected 'uniform' or 'explicit', got {mode!r}")

    has_horizon = "horizon" in raw
    has_strobe = "strobe" in raw
    if has_horizon == has_strobe:
        raise ConfigError("exactly one of 'horizon' or 'strobe' is required")
    horizon = None
    strobe = None
    if has_horizon:
        horizon = float(_expect(raw, "horizon", "number"))
        if not horizon > 0.0:
            raise ConfigError("horizon: must be > 0")
    else:
        strobe_raw = _expect(raw, "strobe", "object")
        _reject_unknown(strobe_raw, {"ref", "frames"}, "strobe")
        ref = _expect(strobe_raw, "ref", "integer", "strobe")
        frames = _expect(strobe_raw, "frames", "integer", "strobe")
        if not 0 <= ref < n:
            raise ConfigError(f"strobe.ref: must lie in [0, {n})")
        if frames < 1:
            raise ConfigError("strobe.frames: must be >= 1")
        strobe = StrobeSpec(ref=ref, frames=frames)

    output = None
    if "output" in raw:
        out_raw = _expect(raw, "output", "object")
        _reject_unknown(out_raw, {"format", "path"}, "output")
        fmt = _expect(out_raw, "format", "string", "output")
        if fmt not in ("csv", "svg"):
            raise ConfigError(f"output.format: expected 'csv' or 'svg', got {fmt!r}")
        path = None
        if "path" in out_raw:
            path = _expect(out_raw, "path", "string", "output")
            if not path:
                raise ConfigError("output.path: must be non-empty")
        output = OutputSpec(format=fmt, path=path)

    strict = bool(_expect(raw, "strict", "boolean")) if "strict" in raw else False

    trials = _expect(raw, "trials", "integer") if "trials" in raw else 1

    returnmap = None
    if "returnmap" in raw:
        rm_raw = _expect(raw, "returnmap", "object")
        _reject_unknown(rm_raw, {"theta", "p", "q", "steps", "oracle_every"}, "returnmap")
        theta = float(_expect(rm_raw, "theta", "number", "returnmap"))
        p = _expect(rm_raw, "p", "integer", "returnmap")
        q = _expect(rm_raw, "q", "integer", "returnmap")
        steps = _expect(rm_raw, "steps", "integer", "returnmap")
        oracle_every = (
            _expect(rm_raw, "oracle_every", "integer", "returnmap")
            if "oracle_every" in rm_raw
            else 0
        )
        if not 0.0 <= theta < 1.0:
            raise ConfigError("returnmap.theta: must lie in [0, 1)")
        if p < 1 or q < 1:
            raise ConfigError("returnmap.p: clique sizes must be >= 1")
        if p + q != n:
            raise ConfigError(f"returnmap.p: p + q must equal n = {n}")
        if steps < 1:
            raise ConfigError("returnmap.steps: must be >= 1")
        if oracle_every < 0:
            raise ConfigError("returnmap.oracle_every: must be >= 0")
        returnmap = ReturnMapSpec(
            theta=theta, p=p, q=q, steps=steps, oracle_every=oracle_every
        )

    return RunConfig(
        params=params,
        seed=seed,
        init=init,
        horizon=horizon,
        strobe=strobe,
        cluster_tol=cluster_tol,
        strict=strict,
        trials=trials,
        output=output,
        returnmap=returnmap,
    )


def load_config(path: str) -> RunConfig:
    """Read and parse a configuration file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    return parse_config(text)
