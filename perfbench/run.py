#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of pcodelay, one workload per process.

    python3 perfbench/run.py --workload collapse-n1000 --seed 7 --seconds 20 --trace 0

Runs pcodelay from the `src/` tree beside this directory; nothing is
installed or built.  Each repetition is one in-process `pcodelay.cli.main`
call on a config generated from --seed.  The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}.  The line
before it is the provenance record, which is also written with the result to
`.perfbench/BENCH_<workload>_seed<seed>_trace<trace>.json`.

--trace 0 (end to end, nothing wrapped while timing):
    1. setup_s: median of SETUP_REPS fresh interpreters, each timing import,
       load_config, validate_assumptions, sample_phases and NetworkState(...),
       scaled to the reference host speed (speed.py).
    2. One check call per instance with only NetworkState.step hooked: the
       event-stream digest, the event and firing counts, and the reference
       output.  It also warms the process.
    3. Timed calls, round-robin over the instances, for --seconds (and at
       least one per instance), with the workload's host-speed reference
       timed between consecutive calls.  Each call's wall time is scaled by
       the references right before and after it (speed.py).
    4. A second check call of instance 0: its digest must match the first.
    run_s is the mean over instances of the median scaled call time;
    work_per_s is the instances' work (engine events, or map steps) over the
    sum of those medians; peak_rss_mb is this process's peak resident set.
    Every raw call, set-up and reference time is kept in the provenance
    record.

--trace 1 (per layer): instance 0 only, alternating untraced and traced
    calls for --seconds.  Exact counts must repeat in every traced call.

Every call's output is checked (workloads.py) and must equal the first
call's output for the same instance byte for byte; a call that fails a
check, raises, or runs past the wall-clock cap counts in `failed`.
fail_ratio is failed / attempted.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager, nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

CALL_CAP_S = 60.0  # one subcommand call longer than this counts as failed
DEADLINE_S = 140.0  # no call starts later than this; the process ends within 180 s
SETUP_REPS = 11
SAMPLE_EVERY = 128  # events between group and queue samples in traced calls

SETUP_CODE = """\
import sys, time
sys.path.insert(0, sys.argv[1])
sys.path.insert(0, sys.argv[2])
import speed  # imports numpy, which is the environment's cost, not the program's
ref = speed.SETUP_REFERENCE
before = [ref.seconds() for _ in range(5)]
t0 = time.perf_counter()
import pcodelay as pc
cfg = pc.load_config(sys.argv[3])
pc.validate_assumptions(cfg.params.curve, cfg.params.coupling)
phases = pc.sample_phases(cfg.seed, cfg.params.coupling.n, cfg.init.low, cfg.init.high)
pc.NetworkState(cfg.params, phases)
wall = time.perf_counter() - t0
print(wall, *before, *(ref.seconds() for _ in range(5)))
"""


def import_program():
    """Import pcodelay from this checkout's src/, or exit non-zero."""
    package = SRC / "pcodelay"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no pcodelay sources at {package}")
    sys.path.insert(0, str(SRC))
    import pcodelay

    if Path(pcodelay.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"perfbench: imported pcodelay from {pcodelay.__file__}")
    return pcodelay


class Capture:
    """Text sink that counts what is written and keeps it only when asked."""

    def __init__(self, keep: bool) -> None:
        self.keep = keep
        self.chars = 0
        self._parts: list[str] = []

    def write(self, text: str) -> int:
        self.chars += len(text)
        if self.keep:
            self._parts.append(text)
        return len(text)

    def flush(self) -> None:
        pass

    def text(self) -> str:
        return "".join(self._parts)


class CallTimeout(BaseException):
    """Raised in the main thread when a call runs past its cap.

    A BaseException, so the CLI's own error handling cannot swallow it.
    """


@contextmanager
def wall_cap(seconds: float):
    def on_alarm(signum, frame):
        raise CallTimeout

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@dataclass(frozen=True)
class Instance:
    k: int
    seed: int
    config: dict
    path: str


@dataclass
class Call:
    """One call's outcome.  wall_s is net of the reference samples taken
    during it (speed.Sampler), which are listed in `samples`."""

    wall_s: float
    output: str
    output_bytes: int
    problems: list[str] = field(default_factory=list)
    samples: list[float] = field(default_factory=list)


class Bench:
    """Runs, checks and times the calls of one workload."""

    def __init__(self, cli, tracing, workload, seed: int, call_cap_s: float = CALL_CAP_S):
        self.cli = cli
        self.tracing = tracing
        self.workload = workload
        self.seed = seed
        self.call_cap_s = call_cap_s
        self.started = time.monotonic()
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.reference: dict[int, Call] = {}
        WORK.mkdir(exist_ok=True)
        self.instances = []
        for k in range(workload.instances):
            s = workload.instance_seed(seed, k)
            config = workload.make_config(s)
            path = WORK / f"{workload.name}-seed{s}.json"
            path.write_text(json.dumps(config, indent=1), encoding="utf-8")
            self.instances.append(Instance(k, s, config, str(path)))

    def elapsed(self) -> float:
        return time.monotonic() - self.started

    def call(self, inst: Instance, tracer=None, sampler=None) -> Call:
        """One checked subcommand call; counts toward attempted/failed."""
        cap = min(self.call_cap_s, DEADLINE_S - self.elapsed())
        if cap <= 0:
            result = Call(0.0, "", 0, ["deadline reached before the call"])
        else:
            result = self._run(inst, tracer, sampler, cap)
        ref = self.reference.setdefault(inst.k, result)
        if result is not ref and (result.output, result.output_bytes) != (
            ref.output, ref.output_bytes
        ):
            result.problems.append("output differs from the first call")
        self.attempted += 1
        if result.problems:
            self.failed += 1
            self.problems.extend(f"{inst.seed}: {p}" for p in result.problems)
        return result

    def _run(self, inst: Instance, tracer, sampler, cap: float) -> Call:
        wl = self.workload
        out = Capture(keep=wl.summary_stream == "stdout")
        err = Capture(keep=True)
        problems: list[str] = []
        code = None
        samples: list[float] = []
        gc.collect()
        t0 = time.perf_counter()
        try:
            with redirect_stdout(out), redirect_stderr(err), (
                tracer.installed() if tracer else nullcontext()
            ), wall_cap(cap), (sampler or nullcontext(samples)) as samples:
                t0 = time.perf_counter()
                code = self.cli.main(wl.argv(inst.path))
                wall = time.perf_counter() - t0 - sum(samples)
        except CallTimeout:
            wall = cap
            problems.append(f"exceeded the {cap:.0f} s wall-clock cap")
        except Exception as exc:  # a crash is a failed call, not a failed benchmark
            wall = time.perf_counter() - t0
            problems.append(f"raised {exc!r}")
        summary_text = out.text() if wl.summary_stream == "stdout" else err.text()
        if code is not None:
            if code != 0:
                problems.append(f"exit code {code}: {err.text()[-300:]!r}")
            try:
                summary = json.loads(summary_text)
            except ValueError:
                problems.append("summary is not JSON")
            else:
                problems.extend(wl.check(summary, inst.config))
        return Call(wall, summary_text, out.chars + err.chars, problems, list(samples))

    def check_call(self, inst: Instance, recorder=None, tracer_entry_points=None):
        """A call with NetworkState.step hooked by a StepRecorder."""
        t = self.tracing
        recorder = recorder or t.StepRecorder()
        points = tracer_entry_points or [e for e in t.ENTRY_POINTS if e[0] == t.STEP]
        tracer = t.Tracer(points, hooks={t.STEP: recorder})
        return self.call(inst, tracer), recorder, tracer

    # ------------------------------------------------------------------

    def setup_times(self, reps: int) -> tuple[list[float], list[float]]:
        """Set-up in fresh interpreters; the first (cache-warming) one is dropped.

        Returns the wall times and the same times scaled to the reference
        host speed (speed.py), from reference computations run in the same
        interpreter right before and after the timed set-up.
        """
        times = []
        scaled = []
        for i in range(reps + 1):
            try:
                proc = subprocess.run(
                    [sys.executable, "-c", SETUP_CODE, str(SRC), str(HERE),
                     self.instances[0].path],
                    capture_output=True, text=True, cwd=ROOT,
                    timeout=max(1.0, min(self.call_cap_s, DEADLINE_S - self.elapsed())),
                )
            except subprocess.TimeoutExpired:
                raise SystemExit("perfbench: set-up ran past its time cap") from None
            if proc.returncode != 0:
                raise SystemExit(f"perfbench: set-up failed: {proc.stderr[-500:]}")
            if i:
                wall, *samples = map(float, proc.stdout.split())
                times.append(wall)
                scaled.append(speed.SETUP_REFERENCE.scale(wall, samples))
        return times, scaled

    def end_to_end(self, seconds: float, setup_reps: int = SETUP_REPS):
        setup_times, setup_scaled = self.setup_times(setup_reps)
        records = [self.check_call(inst)[1] for inst in self.instances]
        times: dict[int, list[float]] = {inst.k: [] for inst in self.instances}
        scaled: dict[int, list[float]] = {inst.k: [] for inst in self.instances}
        ref = self.workload.reference
        references = [[ref.seconds()]]
        start = time.monotonic()
        for i in itertools.count():
            inst = self.instances[i % len(self.instances)]
            result = self.call(inst, sampler=speed.Sampler(ref))
            around = [references[-1][-1], *result.samples, ref.seconds()]
            references.append(around[1:])
            times[inst.k].append(result.wall_s)
            scaled[inst.k].append(ref.scale(result.wall_s, around))
            if i + 1 >= len(self.instances) and (
                time.monotonic() - start >= seconds or self.elapsed() >= DEADLINE_S
            ):
                break
        last, again, _ = self.check_call(self.instances[0])
        if again.digest() != records[0].digest() and not last.problems:
            self.failed += 1
            self.problems.append("event-stream digest changed between repetitions")

        medians = [statistics.median(scaled[inst.k]) for inst in self.instances]
        if self.workload.work_unit == "events":
            work = sum(r.events for r in records)
        else:
            work = sum(inst.config["returnmap"]["steps"] for inst in self.instances)
        metrics = {
            "setup_s": (statistics.median(setup_scaled), "s"),
            "run_s": (statistics.fmean(medians), "s"),
            "work_per_s": (work / sum(medians), "1/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        runs = {
            "call_times_s": [times[inst.k] for inst in self.instances],
            "setup_times_s": setup_times,
            "reference_times_s": references,
            "reference_nominal_s": speed.NOMINAL_S,
        }
        return metrics, records, runs

    def per_layer(self, seconds: float):
        t = self.tracing
        inst = self.instances[0]
        self.call(inst)  # warm-up and reference output
        untraced: list[float] = []
        traced: list[float] = []
        values: list[dict] = []
        records = []
        calls = []
        start = time.monotonic()
        while len(traced) < 2 or (
            time.monotonic() - start < seconds and self.elapsed() < DEADLINE_S
        ):
            untraced.append(self.call(inst).wall_s)
            result, recorder, tracer = self.check_call(
                inst, t.StepRecorder(SAMPLE_EVERY), t.ENTRY_POINTS
            )
            traced.append(result.wall_s)
            calls.append(result)
            ctx = t.RepContext(tracer, recorder, inst.config["n"], result.output_bytes)
            values.append(t.layer_values(ctx))
            records.append(recorder)
            recorder.last_state = None
            if self.elapsed() >= DEADLINE_S:
                break

        exact = [m.name for m in t.LAYER_METRICS if m.exact]
        first = values[0]
        for other, rec, call in zip(values[1:], records[1:], calls[1:]):
            changed = [name for name in exact if other[name] != first[name]]
            if rec.digest() != records[0].digest():
                changed.append("event-stream digest")
            if changed and not call.problems:
                self.failed += 1
                self.problems.append(f"not repeated exactly: {', '.join(changed)}")
        metrics = {}
        absent = []
        for m in t.LAYER_METRICS:
            column = [v[m.name] for v in values]
            if column[0] is None:
                absent.append(m.name)
                value = 0.0
            else:
                value = column[0] if m.exact else statistics.fmean(column)
            metrics[m.name] = (value, m.unit)
        name, unit = t.OVERHEAD_METRIC
        metrics[name] = (statistics.median(traced) / statistics.median(untraced), unit)
        runs = {"traced_calls": len(traced), "untraced_calls": len(untraced),
                "absent_metrics": absent, "exact_counts": exact}
        return metrics, records[:1], runs


def git_sha(root: Path) -> str | None:
    """HEAD's commit from the .git directory, without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(pc, bench: Bench, trace: int, records, runs: dict) -> dict:
    import numpy

    kernel_in_use = getattr(pc, "kernel_in_use", None)
    return {
        "git_sha": git_sha(ROOT),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "kernel": kernel_in_use() if callable(kernel_in_use) else "absent",
        "workload": bench.workload.name,
        "seed": bench.seed,
        "trace": trace,
        "instances": [
            {"seed": inst.seed, "n": inst.config["n"], "events": rec.events,
             "firings": rec.firings, "event_stream_sha256": rec.digest()}
            for inst, rec in zip(bench.instances, records)
        ],
        **runs,
        "problems": bench.problems[:20],
    }


def main(argv=None) -> int:
    pc = import_program()
    import tracing
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description="pcodelay benchmark, one workload")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    import pcodelay.cli

    bench = Bench(pcodelay.cli, tracing, WORKLOADS[args.workload], args.seed)
    if args.trace:
        metrics, records, runs = bench.per_layer(args.seconds)
    else:
        metrics, records, runs = bench.end_to_end(args.seconds)
    result = {
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = provenance(pc, bench, args.trace, records, runs)
    out = WORK / f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    out.write_text(json.dumps({"provenance": record, "result": result}, indent=1) + "\n")
    for problem in bench.problems[:20]:
        print(f"perfbench: {problem}", file=sys.stderr)
    print(json.dumps({"provenance": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
