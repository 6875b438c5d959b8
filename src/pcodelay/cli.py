"""Command-line entry point.

Subcommands (each takes a JSON config path; see config.py for the schema):

    validate        check parameters and print the saturation report
    simulate        run to the horizon; print a JSON run summary
    strobe          sample phases at each reference firing; CSV or SVG
    audit           run and verify the structural guarantees
    returnmap       iterate the two-clique gap map, optionally vs the engine
    counterexample  two oscillators, equal phases without synchronization

Exit codes: 0 success; 1 config or usage error; 2 saturation check failed in
strict mode; 3 I/O or numerical failure; 4 audit violation.

All numeric CSV fields are printed with 17 significant digits, so reruns of
an identical config and seed produce byte-identical files.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from contextlib import contextmanager
from typing import Iterator, Sequence, TextIO

from .analysis import (
    InfeasibleScenarioError,
    StructuralError,
    TwoCliqueState,
    _orbit_columns,
    _run_to_sync,
    _steps,
    _synchronized,
    audit_run,
    cluster_partition,
    desync_trial,
    is_completely_synchronized,
    matched_phase_pair,
    phase_spread,
    stable_cluster_count,
    stroboscopic_run,
    two_clique_oracle_step,
)
from .config import ConfigError, RunConfig, load_config
from .curves import AssumptionReport, validate_assumptions
from .engine import NetworkState, StepReport
from .rng import sample_phases

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_STRICT = 2
EXIT_RUNTIME = 3
EXIT_AUDIT = 4

_STABLE_WINDOW = 50
# Rows per write: one string per chunk keeps memory bounded on long orbits.
_CSV_CHUNK_ROWS = 4096


class _StrictGateError(Exception):
    """Saturation check failed and the config demands strictness."""


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors by default; 2 is taken.
    def error(self, message):  # noqa: D102 (argparse override)
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _fmt(x: float) -> str:
    return format(x, ".17g")


def _json_out(payload: dict, stream: TextIO | None = None) -> None:
    # allow_nan=False: a non-finite value raises ValueError (exit 3) rather
    # than printing Infinity or NaN, which JSON does not have.
    text = json.dumps(payload, sort_keys=True, indent=2, allow_nan=False)
    print(text, file=stream or sys.stdout)


def _finite_or_none(x: float) -> float | None:
    # JSON has no Infinity; absent-gap sentinels and an overflowed n*epsilon
    # become null.
    return x if math.isfinite(x) else None


def _prepare(args) -> tuple[RunConfig, AssumptionReport]:
    """Load the config and apply the saturation gate; return both."""
    cfg = load_config(args.config)
    strict = cfg.strict or args.strict
    report = validate_assumptions(cfg.params.curve, cfg.params.coupling)
    if not report.a2_holds:
        message = (
            f"saturation check fails: f(min(1, 2*tau)) + n*epsilon = "
            f"{report.a2_value:.6g} >= 1; structural guarantees are void"
        )
        if strict:
            raise _StrictGateError(message)
        print(f"warning: {message}", file=sys.stderr)
    return cfg, report


@contextmanager
def _output(args, cfg: RunConfig) -> Iterator[tuple[TextIO, TextIO]]:
    """Yield (stream, summary): the output, to --output, else output.path,
    else stdout; its JSON summary, to stderr if the output took stdout."""
    path = args.output if args.output is not None else (
        cfg.output.path if cfg.output else None
    )
    if path is None:
        yield sys.stdout, sys.stderr
        return
    with open(path, "w", encoding="utf-8", newline="\n") as stream:
        yield stream, sys.stdout


# The strobe SVG: a minimal static scatter of phases against frame index,
# written as a head, one group of circles per frame and a closing tag, so
# that no frame is kept once it is drawn.  The 860x520 canvas holds a
# 780x460 plot whose top-left corner is at (60, 20).
_SVG_LEFT, _SVG_TOP = 60, 20
_SVG_PLOT_W, _SVG_PLOT_H = 780, 460
# Everything before the first frame: canvas, axes, ticks, labels.
_STROBE_SVG_HEAD = """\
<svg xmlns="http://www.w3.org/2000/svg" width="860" height="520" viewBox="0 0 860 520">
<rect width="860" height="520" fill="white"/>
<line x1="60" y1="20" x2="60" y2="480" stroke="black"/>
<line x1="60" y1="480" x2="840" y2="480" stroke="black"/>
<text x="52" y="484.0" font-size="12" text-anchor="end">0</text>
<line x1="56" y1="480.0" x2="60" y2="480.0" stroke="black"/>
<text x="52" y="254.0" font-size="12" text-anchor="end">0.5</text>
<line x1="56" y1="250.0" x2="60" y2="250.0" stroke="black"/>
<text x="52" y="24.0" font-size="12" text-anchor="end">1</text>
<line x1="56" y1="20.0" x2="60" y2="20.0" stroke="black"/>
<text x="450.0" y="512" font-size="12" text-anchor="middle">frame</text>
<text x="16" y="250.0" font-size="12" text-anchor="middle" transform="rotate(-90 16 250.0)">phase</text>
"""


def _strobe_svg_frame(k: int, frames: int, phases: Sequence[float]) -> str:
    """The circles of frame k of frames, one line each."""
    x = _SVG_LEFT + _SVG_PLOT_W * (k / frames)
    return "".join(
        f'<circle cx="{x:.2f}" cy="{_SVG_TOP + _SVG_PLOT_H * (1.0 - phi):.2f}" '
        'r="1.2" fill="black"/>\n'
        for phi in phases
    )


# ----------------------------------------------------------------------
# subcommands


def cmd_validate(args) -> int:
    cfg, report = _prepare(args)
    coupling = cfg.params.coupling
    _json_out({
        "n": coupling.n,
        "epsilon": coupling.epsilon,
        "tau": coupling.tau,
        "curve_family": cfg.params.curve.family,
        "curve_i": cfg.params.curve.i,
        "a2_value": _finite_or_none(report.a2_value),
        "a2_holds": report.a2_holds,
        "margin": _finite_or_none(report.margin),
    })
    return EXIT_OK


def cmd_simulate(args) -> int:
    cfg, report = _prepare(args)
    if cfg.horizon is None:
        raise ConfigError("simulate requires 'horizon' in the config")
    if args.trials is not None:
        cfg = dataclasses.replace(cfg, trials=args.trials)

    if cfg.trials > 1:
        summary = desync_trial(
            cfg.params,
            lambda t: cfg.initial_phases(t),
            cfg.horizon,
            cfg.trials,
            cluster_tol=cfg.cluster_tol,
        )
        _json_out({
            "trials": summary.trials,
            "sync_detected_count": summary.sync_detected_count,
            "min_final_spread": summary.min_final_spread,
            "median_final_spread": summary.median_final_spread,
            "cluster_count_histogram": {
                str(k): v for k, v in sorted(summary.cluster_count_histogram.items())
            },
            "a2_value": _finite_or_none(report.a2_value),
        })
        return EXIT_OK

    net = NetworkState(cfg.params, cfg.initial_phases(0))
    sync_ever = _run_to_sync(net, cfg.horizon)
    # A synchronized network stays synchronized; the run goes on to the
    # horizon, where the summary is taken.
    for _ in net.run(cfg.horizon):
        pass
    _json_out({
        "sync_ever": sync_ever,
        "frames_emitted": 0,
        "cluster_count_final": cluster_partition(
            net, tol_phase=cfg.cluster_tol
        ).n_clusters,
        "final_spread": phase_spread(net),
        "min_interfire_gap": _finite_or_none(net.min_interfire_gap),
        "a2_value": _finite_or_none(report.a2_value),
    })
    return EXIT_OK


def cmd_strobe(args) -> int:
    cfg, report = _prepare(args)
    if cfg.strobe is None:
        raise ConfigError("strobe requires 'strobe' in the config")
    n = cfg.params.coupling.n
    net = NetworkState(cfg.params, cfg.initial_phases(0))
    sync_ever = _synchronized(net)

    # Without an output section, only --output can name the path.
    if cfg.output:
        csv = cfg.output.format == "csv"
    else:
        csv = not (args.output or "").lower().endswith(".svg")

    frames = cfg.strobe.frames
    # Only the trailing window of cluster counts reaches the summary, so
    # only those frames are partitioned.
    window = min(_STABLE_WINDOW, frames)
    counts: list[int] = []
    min_spread = math.inf
    with _output(args, cfg) as (stream, summary):
        # Each frame is written as it is taken.
        if csv:
            stream.write(",".join(["k", "t_k"] + [f"phi_{j}" for j in range(n)]) + "\n")
        else:
            stream.write(_STROBE_SVG_HEAD)
        for frame in stroboscopic_run(net, cfg.strobe.ref, frames):
            if csv:
                # One f-string per row: the same digits as _fmt.
                phis = ",".join([format(x, ".17g") for x in frame.phases.tolist()])
                stream.write(f"{frame.k},{frame.t:.17g},{phis}\n")
            else:
                stream.write(_strobe_svg_frame(frame.k, frames, frame.phases.tolist()))
            if frame.k > frames - window:
                counts.append(cluster_partition(net, tol_phase=cfg.cluster_tol).n_clusters)
            min_spread = min(min_spread, float(frame.phases.max() - frame.phases.min()))
            if not sync_ever:
                sync_ever = _synchronized(net)
        if not csv:
            stream.write("</svg>\n")

    _json_out(
        {
            "sync_ever": sync_ever,
            "frames_emitted": frames,
            "cluster_count_final": counts[-1] if counts else None,
            "cluster_count_stable": stable_cluster_count(counts, window=window),
            "min_frame_spread": min_spread,
            "min_interfire_gap": _finite_or_none(net.min_interfire_gap),
            "a2_value": _finite_or_none(report.a2_value),
        },
        stream=summary,
    )
    return EXIT_OK


def _through_firings(net: NetworkState, ref: int, count: int) -> Iterator[StepReport]:
    """net.run()'s reports up to and including ref's count-th firing (count >= 1)."""
    for rep in net.run():
        yield rep
        count -= ref in rep.fired
        if not count:
            return


def cmd_audit(args) -> int:
    cfg, _ = _prepare(args)
    net = NetworkState(cfg.params, cfg.initial_phases(0))

    # Stepped as the audit consumes them: no list of the run's reports.
    if cfg.horizon is not None:
        reports = net.run(cfg.horizon)
    else:
        reports = _through_firings(net, cfg.strobe.ref, cfg.strobe.frames)
    audit = audit_run(reports, cfg.params)
    _json_out({
        "events": audit.events,
        "min_interfire_gap": _finite_or_none(audit.min_interfire_gap),
        "gap_bound_ok": audit.gap_bound_ok,
        "max_pending_per_source": audit.max_pending_per_source,
        "pending_ok": audit.pending_ok,
        "ok": audit.ok,
        "violations": list(audit.violations[:20]),
    })
    return EXIT_OK if audit.ok else EXIT_AUDIT


def cmd_returnmap(args) -> int:
    cfg, _ = _prepare(args)
    if cfg.returnmap is None:
        raise ConfigError("returnmap requires 'returnmap' in the config")
    if cfg.output and cfg.output.format != "csv":
        raise ConfigError(
            f"output.format: returnmap writes csv only, got {cfg.output.format!r}"
        )
    rm = cfg.returnmap
    n = cfg.params.coupling.n
    thetas, ps, start, period = _orbit_columns(
        TwoCliqueState(rm.theta, rm.p, rm.q), rm.steps, cfg.params.curve,
        cfg.params.coupling,
    )

    def column(step: int) -> int:
        return step if step < start else start + (step - start) % period

    # Each distinct state is formatted once (.17g, as _fmt); the rows of a
    # repeating cycle are copies.
    rows = [f",{theta:.17g},{p},{n - p}," for theta, p in zip(thetas, ps)]

    # The engine is deterministic and an oracle step's delta depends only on
    # the column of its input state, so the engine runs once per column and
    # deltas holds one cell per column, however long the orbit.  The columns
    # are distinct states, but column 0 may equal a later one.
    every = rm.oracle_every or rm.steps + 1  # 0: no oracle step
    deltas: dict[int, str] = {}
    max_delta = None
    for step in range(every, rm.steps + 1, every):
        prev, here = column(step - 1), column(step)
        if prev in deltas or thetas[prev] <= 0.0:
            continue  # done, or merged: the engine cycle is degenerate
        oracle = two_clique_oracle_step(
            TwoCliqueState(thetas[prev], ps[prev], n - ps[prev]), cfg.params
        )
        if (oracle.p, oracle.q) != (ps[here], n - ps[here]):
            raise StructuralError(
                f"oracle and map disagree on clique sizes at step {step}"
            )
        delta = abs(oracle.theta - thetas[here])
        deltas[prev] = _fmt(delta)
        max_delta = delta if max_delta is None else max(max_delta, delta)

    with _output(args, cfg) as (stream, summary):
        stream.write("step,theta,p,q,oracle_delta\n")
        orbit_rows = _steps(rows, start, rm.steps)
        for lo in range(0, rm.steps + 1, _CSV_CHUNK_ROWS):
            hi = lo + _CSV_CHUNK_ROWS
            lines = [f"{s}{row}" for s, row in zip(range(lo, hi), orbit_rows)]
            for step in range(max(every, lo + -lo % every), lo + len(lines), every):
                lines[step - lo] += deltas.get(column(step - 1), "")
            stream.write("\n".join(lines) + "\n")

    _json_out(
        {
            "steps": rm.steps,
            "theta_initial": rm.theta,
            "theta_final": thetas[column(rm.steps)],
            "min_theta": min(thetas),
            "oracle_max_delta": max_delta,
        },
        stream=summary,
    )
    return EXIT_OK


def cmd_counterexample(args) -> int:
    cfg, _ = _prepare(args)
    params = cfg.params
    tau = params.coupling.tau
    net, phi = matched_phase_pair(params)
    for _ in net.run(tau):
        pass  # through the first volley's arrival
    net.drift_to(tau + phi / 2.0)
    mid = is_completely_synchronized(net)
    mid_spread = phase_spread(net)
    for _ in net.run(tau + 2.0 * phi):
        pass  # past the trailing pulse's arrival
    after_spread = phase_spread(net)
    _json_out({
        "phi": phi,
        "window": [tau, tau + phi],
        "spread_mid_window": mid_spread,
        "equal_mid_window": mid_spread <= params.tol_phase,
        "pipeline_mismatch_mid_window": mid.pipeline_mismatch,
        "synchronized_mid_window": mid.synchronized,
        "spread_after_window": after_spread,
        "diverged_after_window": after_spread > params.tol_phase,
    })
    return EXIT_OK


# ----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="pcodelay",
        description="Delay-coupled pulse oscillator networks: simulate and analyze.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, func, help_text: str, output_opt: bool = False, trials_opt: bool = False):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("config", help="path to a JSON run configuration")
        p.add_argument(
            "--strict",
            action="store_true",
            help="fail (exit 2) when the saturation check does not hold",
        )
        if output_opt:
            p.add_argument(
                "--output",
                default=None,
                help="override the output path (default: config, else stdout)",
            )
        if trials_opt:
            p.add_argument(
                "--trials",
                type=int,
                default=None,
                help="override the trial count; trial t reseeds with seed + t",
            )
        p.set_defaults(func=func)
        return p

    add("validate", cmd_validate, "check parameters and print the saturation report")
    add("simulate", cmd_simulate, "run to the horizon and print a summary",
        trials_opt=True)
    add("strobe", cmd_strobe, "phases at each reference firing (CSV or SVG)",
        output_opt=True)
    add("audit", cmd_audit, "verify structural guarantees over a run")
    add("returnmap", cmd_returnmap, "iterate the two-clique gap map (CSV)",
        output_opt=True)
    add("counterexample", cmd_counterexample,
        "equal phases without synchronization, two oscillators")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InfeasibleScenarioError as exc:
        print(f"infeasible scenario: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except _StrictGateError as exc:
        print(f"strict: {exc}", file=sys.stderr)
        return EXIT_STRICT
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except (StructuralError, ValueError, RuntimeError, FloatingPointError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
