"""The four benchmark workloads: generated configs and output checks.

Every workload uses the paper's regime: I = 1.05, tau = 0.1, epsilon = 0.1/n
(so the saturation check holds with a2 = 0.579) and, for the engine
workloads, phases drawn uniformly on (0, 1] by the program from the config's
seed.  The program only sees the generated config file.  Why each workload
exists, and which layer metric it is meant to move, is in README.md.

A workload may run several instances per benchmark run; instance k uses seed
`seed + INSTANCE_STRIDE * k`, so instance 0 of seed 7 is the headline
config.  Checks use the paper's invariants, never stored timings.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from speed import Reference

TAU = 0.1
CURVE_I = 1.05
INSTANCE_STRIDE = 1_000_000
ORACLE_TOL = 1e-9
TRIALS = 10


def network(seed: int, n: int, **extra) -> dict:
    """Config of the paper's regime for n oscillators, uniform init."""
    return {
        "n": n,
        "epsilon": 0.1 / n,
        "tau": TAU,
        "curve": {"family": "ms_exponential", "i": CURVE_I},
        "seed": seed,
        "init": {"mode": "uniform", "low": 0.0, "high": 1.0},
        **extra,
    }


def check_never_synchronized(summary: dict, config: dict) -> list[str]:
    problems = []
    if summary.get("sync_ever") is not False:
        problems.append(f"sync_ever is {summary.get('sync_ever')!r}, expected false")
    gap = summary.get("min_interfire_gap")
    if gap is None or not gap > 2.0 * config["tau"]:
        problems.append(f"min_interfire_gap {gap!r} is not > 2 tau")
    return problems


def check_audit_ok(summary: dict, config: dict) -> list[str]:
    if summary.get("ok") is not True:
        return [f"audit not ok: {summary.get('violations')!r}"]
    return []


def check_no_trial_synchronized(summary: dict, config: dict) -> list[str]:
    problems = []
    if summary.get("sync_detected_count") != 0:
        problems.append(
            f"sync_detected_count is {summary.get('sync_detected_count')!r}, expected 0"
        )
    if summary.get("trials") != TRIALS:
        problems.append(f"trials is {summary.get('trials')!r}, expected {TRIALS}")
    return problems


def check_oracle_agrees(summary: dict, config: dict) -> list[str]:
    problems = []
    delta = summary.get("oracle_max_delta")
    if delta is None or not delta <= ORACLE_TOL:
        problems.append(f"oracle_max_delta {delta!r} is not <= {ORACLE_TOL}")
    if summary.get("steps") != config["returnmap"]["steps"]:
        problems.append(f"steps is {summary.get('steps')!r}")
    return problems


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    subcommand: the CLI subcommand; extra_args follow the config path.
    summary_stream: where the subcommand prints its JSON summary.
    work_unit: "events" (engine events, counted by the event-stream hook)
        or "map_steps" (return-map steps, from the config).
    reference: the host-speed reference timed around each call (speed.py),
        shaped like the workload's hot path.
    """

    name: str
    subcommand: str
    make_config: Callable[[int], dict]
    check: Callable[[dict, dict], list[str]]
    reference: Reference
    instances: int = 1
    extra_args: tuple[str, ...] = ()
    summary_stream: str = "stdout"
    work_unit: str = "events"

    def argv(self, config_path: str) -> list[str]:
        return [self.subcommand, config_path, *self.extra_args]

    def instance_seed(self, seed: int, k: int) -> int:
        return seed + INSTANCE_STRIDE * k


def returnmap_config(seed: int, steps: int, oracle_every: int) -> dict:
    # The start gap is drawn from the benchmark's own stream, not the
    # program's: every gap in [0.04, 0.06] leaves the small-gap branch within
    # a few steps and never merges, so the work per step does not depend on it.
    theta = 0.04 + 0.02 * random.Random(seed).random()
    return network(
        seed, 100, horizon=1.0,
        returnmap={"theta": theta, "p": 50, "q": 50, "steps": steps,
                   "oracle_every": oracle_every},
    )


# Sizes are scaled down from the ones the workloads were designed at (horizon
# 2000, 50 trials, 3e5 map steps, horizon 2 at n=1e4) so that one call takes
# about 0.5-2.5 s and a run holds enough calls for a steady median.
WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="collapse-n1000",
            subcommand="simulate",
            make_config=lambda seed: network(seed, 1000, horizon=500.0),
            check=check_never_synchronized,
            reference=Reference(n=1000, events=22, fired=500),
            instances=3,
        ),
        Workload(
            name="transient-n10k",
            subcommand="audit",
            make_config=lambda seed: network(seed, 10_000, horizon=0.25),
            check=check_audit_ok,
            reference=Reference(n=30_000, events=5, fired=2),
        ),
        Workload(
            name="trials-n100",
            subcommand="simulate",
            make_config=lambda seed: network(seed, 100, horizon=100.0),
            check=check_no_trial_synchronized,
            reference=Reference(n=100, events=150, fired=8),
            extra_args=("--trials", str(TRIALS)),
        ),
        Workload(
            name="returnmap-n100",
            subcommand="returnmap",
            make_config=lambda seed: returnmap_config(seed, 50_000, 1000),
            check=check_oracle_agrees,
            reference=Reference(scalar_rounds=4_500),
            summary_stream="stderr",
            work_unit="map_steps",
        ),
    )
}
