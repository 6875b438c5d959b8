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
import sys
from typing import Sequence, TextIO

from .analysis import (
    InfeasibleScenarioError,
    StructuralError,
    TwoCliqueState,
    _orbit_columns,
    _run_to_horizon,
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
from .engine import NetworkState
from .rng import sample_phases

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_STRICT = 2
EXIT_RUNTIME = 3
EXIT_AUDIT = 4

_STABLE_WINDOW = 50


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
    print(json.dumps(payload, sort_keys=True, indent=2), file=stream or sys.stdout)


def _finite_or_none(x: float) -> float | None:
    # JSON has no Infinity; absent-gap sentinels become null.
    import math

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


def _open_output(path: str | None):
    """Return (stream, is_stdout); caller prints summaries to stderr if stdout."""
    if path is None:
        return sys.stdout, True
    return open(path, "w", encoding="utf-8", newline="\n"), False


def _strobe_svg(ks: Sequence[int], phase_rows: Sequence[Sequence[float]]) -> str:
    """Minimal static scatter of phases against frame index."""
    width, height = 860, 520
    left, right, top, bottom = 60, 20, 20, 40
    plot_w = width - left - right
    plot_h = height - top - bottom
    kmax = max(ks) if ks else 1
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{left}" y1="{top}" x2="{left}" y2="{top + plot_h}" stroke="black"/>',
        f'<line x1="{left}" y1="{top + plot_h}" x2="{left + plot_w}" '
        f'y2="{top + plot_h}" stroke="black"/>',
    ]
    for frac, label in ((0.0, "0"), (0.5, "0.5"), (1.0, "1")):
        y = top + plot_h * (1.0 - frac)
        parts.append(
            f'<text x="{left - 8}" y="{y + 4}" font-size="12" '
            f'text-anchor="end">{label}</text>'
        )
        parts.append(
            f'<line x1="{left - 4}" y1="{y}" x2="{left}" y2="{y}" stroke="black"/>'
        )
    parts.append(
        f'<text x="{left + plot_w / 2}" y="{height - 8}" font-size="12" '
        f'text-anchor="middle">frame</text>'
    )
    parts.append(
        f'<text x="16" y="{top + plot_h / 2}" font-size="12" text-anchor="middle" '
        f'transform="rotate(-90 16 {top + plot_h / 2})">phase</text>'
    )
    for k, row in zip(ks, phase_rows):
        x = left + plot_w * (k / kmax)
        for phi in row:
            y = top + plot_h * (1.0 - phi)
            parts.append(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="1.2" fill="black"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


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
        "a2_value": report.a2_value,
        "a2_holds": report.a2_holds,
        "margin": report.margin,
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
            "a2_value": report.a2_value,
        })
        return EXIT_OK

    net = NetworkState(cfg.params, cfg.initial_phases(0))
    sync_ever = _run_to_horizon(net, cfg.horizon, stop_on_sync=False)
    _json_out({
        "sync_ever": sync_ever,
        "frames_emitted": 0,
        "cluster_count_final": cluster_partition(
            net, tol_phase=cfg.cluster_tol
        ).n_clusters,
        "final_spread": phase_spread(net),
        "min_interfire_gap": _finite_or_none(net.min_interfire_gap),
        "a2_value": report.a2_value,
    })
    return EXIT_OK


def cmd_strobe(args) -> int:
    cfg, report = _prepare(args)
    if cfg.strobe is None:
        raise ConfigError("strobe requires 'strobe' in the config")
    n = cfg.params.coupling.n
    net = NetworkState(cfg.params, cfg.initial_phases(0))
    sync_ever = _synchronized(net)

    out_path = args.output if args.output is not None else (
        cfg.output.path if cfg.output else None
    )
    if cfg.output:
        out_format = cfg.output.format
    elif out_path is not None and out_path.lower().endswith(".svg"):
        out_format = "svg"
    else:
        out_format = "csv"

    frames = cfg.strobe.frames
    # Only the trailing window of cluster counts reaches the summary, so
    # only those frames are partitioned.
    window = min(_STABLE_WINDOW, frames)
    csv = out_format == "csv"
    # Only the SVG keeps the frames; CSV rows are written as frames are taken.
    ks: list[int] = []
    rows: list[list[float]] = []
    counts: list[int] = []
    spreads: list[float] = []
    stream, to_stdout = _open_output(out_path)
    try:
        if csv:
            stream.write(",".join(["k", "t_k"] + [f"phi_{j}" for j in range(n)]) + "\n")
        for frame in stroboscopic_run(net, cfg.strobe.ref, frames):
            if csv:
                # One f-string per row: the same digits as _fmt.
                phis = ",".join([format(x, ".17g") for x in frame.phases.tolist()])
                stream.write(f"{frame.k},{frame.t:.17g},{phis}\n")
            else:
                ks.append(frame.k)
                rows.append(frame.phases.tolist())
            if frame.k > frames - window:
                counts.append(cluster_partition(net, tol_phase=cfg.cluster_tol).n_clusters)
            spreads.append(float(frame.phases.max() - frame.phases.min()))
            if not sync_ever:
                sync_ever = _synchronized(net)
        if not csv:
            stream.write(_strobe_svg(ks, rows))
    finally:
        if not to_stdout:
            stream.close()

    _json_out(
        {
            "sync_ever": sync_ever,
            "frames_emitted": len(spreads),
            "cluster_count_final": counts[-1] if counts else None,
            "cluster_count_stable": stable_cluster_count(counts, window=window),
            "min_frame_spread": min(spreads) if spreads else None,
            "min_interfire_gap": _finite_or_none(net.min_interfire_gap),
            "a2_value": report.a2_value,
        },
        stream=sys.stderr if to_stdout else sys.stdout,
    )
    return EXIT_OK


def cmd_audit(args) -> int:
    cfg, _ = _prepare(args)
    net = NetworkState(cfg.params, cfg.initial_phases(0))

    def reports():
        # Stepped as the audit consumes them: no list of the run's reports.
        if cfg.horizon is not None:
            while net.next_event_time() <= cfg.horizon:
                yield net.step()
        else:
            for _ in range(cfg.strobe.frames):
                yield from net.run_until_ref_fires(cfg.strobe.ref)

    audit = audit_run(reports(), cfg.params)
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
    rm = cfg.returnmap
    n = cfg.params.coupling.n
    thetas, ps = _orbit_columns(
        TwoCliqueState(rm.theta, rm.p, rm.q), rm.steps, cfg.params.curve,
        cfg.params.coupling,
    )

    deltas: list[str] = [""] * len(thetas)
    max_delta = None
    if rm.oracle_every > 0:
        for step in range(rm.oracle_every, len(thetas), rm.oracle_every):
            prev_theta = thetas[step - 1]
            if prev_theta <= 0.0:
                continue  # merged; the engine cycle is degenerate
            oracle = two_clique_oracle_step(
                TwoCliqueState(prev_theta, ps[step - 1], n - ps[step - 1]), cfg.params
            )
            if (oracle.p, oracle.q) != (ps[step], n - ps[step]):
                raise StructuralError(
                    f"oracle and map disagree on clique sizes at step {step}"
                )
            delta = abs(oracle.theta - thetas[step])
            deltas[step] = _fmt(delta)
            max_delta = delta if max_delta is None else max(max_delta, delta)

    out_path = args.output if args.output is not None else (
        cfg.output.path if cfg.output else None
    )
    stream, to_stdout = _open_output(out_path)
    try:
        # One f-string per row: the same digits as _fmt, at half the cost.
        stream.write("step,theta,p,q,oracle_delta\n")
        for s, (theta, p) in enumerate(zip(thetas, ps)):
            stream.write(f"{s},{theta:.17g},{p},{n - p},{deltas[s]}\n")
    finally:
        if not to_stdout:
            stream.close()

    _json_out(
        {
            "steps": rm.steps,
            "theta_initial": rm.theta,
            "theta_final": thetas[-1],
            "min_theta": min(thetas),
            "oracle_max_delta": max_delta,
        },
        stream=sys.stderr if to_stdout else sys.stdout,
    )
    return EXIT_OK


def cmd_counterexample(args) -> int:
    cfg, _ = _prepare(args)
    params = cfg.params
    tau = params.coupling.tau
    net, phi = matched_phase_pair(params)
    net.run_until_time(tau)  # through the first volley's arrival
    net.drift_to(tau + phi / 2.0)
    mid = is_completely_synchronized(net)
    mid_spread = phase_spread(net)
    net.run_until_time(tau + 2.0 * phi)  # past the trailing pulse's arrival
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
