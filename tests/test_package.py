"""The package namespace: what `import pcodelay` loads, and what it binds.

`import pcodelay` loads the simulator layers only; the analysis layer loads
the first time one of its names is asked for.  Each check that depends on
what is already imported runs in a fresh interpreter.
"""

import json
import subprocess
import sys

import pytest

import pcodelay as pc

# Every public name of the package, sorted: 45 names over all layers.
PUBLIC_NAMES = [
    "AssumptionReport", "AuditReport", "ClusterPartition", "ConfigError",
    "CouplingParams", "CurveSpec", "DesyncSummary", "ExplicitInit",
    "InfeasibleScenarioError", "ModelParams", "NetworkState", "OutputSpec",
    "PendingSpike", "ReturnMapSpec", "RunConfig", "SplitMix64", "StepReport",
    "StrobeSpec", "StroboscopicFrame", "StructuralError", "SyncVerdict",
    "TwoCliqueState", "UniformInit", "__version__", "audit_run",
    "cluster_partition", "curve_slope", "desync_trial", "f_eval", "f_inv",
    "is_completely_synchronized", "iterate_return_map", "jump",
    "large_gap_branch", "load_config", "matched_phase_pair", "parse_config",
    "phase_spread", "sample_phases", "small_gap_branch", "stable_cluster_count",
    "stroboscopic_run", "two_clique_map", "two_clique_oracle_step",
    "validate_assumptions",
]


def fresh(code: str):
    """Run code in a new interpreter and return the JSON it prints last."""
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60
    )
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.splitlines()[-1])


def test_import_loads_analysis_on_first_use(src_on_pythonpath):
    seen = fresh(
        "import json, sys\n"
        "import pcodelay\n"
        "before = 'pcodelay.analysis' in sys.modules\n"
        "pcodelay.cluster_partition\n"
        "print(json.dumps([before, 'pcodelay.analysis' in sys.modules]))\n"
    )
    assert seen == [False, True]


def test_star_import_binds_every_name(src_on_pythonpath):
    missing, star = fresh(
        "import json\n"
        "from pcodelay import *\n"
        "import pcodelay.analysis\n"
        "names = set(globals())\n"
        "print(json.dumps([sorted(set(pcodelay.analysis.__all__) - names),\n"
        "                  sorted(set(pcodelay.__all__) & names)]))\n"
    )
    assert missing == []
    assert star == PUBLIC_NAMES


def test_all_and_dir_list_every_name(src_on_pythonpath):
    names, listed = fresh(
        "import json\n"
        "import pcodelay\n"
        "listed = dir(pcodelay)\n"
        "print(json.dumps([sorted(pcodelay.__all__), listed]))\n"
    )
    assert names == PUBLIC_NAMES
    assert set(PUBLIC_NAMES) <= set(listed)
    assert "analysis" in listed


def test_assigned_names_survive_later_lookups(src_on_pythonpath):
    # The load runs once: a name assigned on the package (as a test patch
    # does), before or after analysis loads, is not rebound by a later miss
    # or dir().
    kept = fresh(
        "import json\n"
        "import pcodelay\n"
        "pcodelay.audit_run = 'before'\n"
        "pcodelay.cluster_partition\n"
        "pcodelay.cluster_partition = 'after'\n"
        "getattr(pcodelay, 'missing', None)\n"
        "dir(pcodelay)\n"
        "print(json.dumps([pcodelay.audit_run, pcodelay.cluster_partition]))\n"
    )
    assert kept == ["before", "after"]


def test_names_are_the_layers_own_objects():
    assert pc.analysis is sys.modules["pcodelay.analysis"]
    assert pc.cluster_partition is pc.analysis.cluster_partition
    assert pc.NetworkState is pc.engine.NetworkState


def test_unknown_name_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="kernel_in_use"):
        pc.kernel_in_use
    assert getattr(pc, "kernel_in_use", None) is None


def test_setup_and_commands_run_without_dataclasses(src_on_pythonpath, tmp_path):
    # The set-up before a run's first event (the benchmark's set-up calls)
    # loads neither the dataclasses module nor the analysis layer, and no
    # subcommand loads dataclasses.
    run = {
        "n": 10, "epsilon": 0.001, "tau": 0.1,
        "curve": {"family": "ms_exponential", "i": 1.05},
        "seed": 7, "init": {"mode": "uniform", "low": 0.0, "high": 1.0},
    }
    horizon, strobe, pair = (tmp_path / f"{name}.json" for name in ("horizon", "strobe", "pair"))
    horizon.write_text(json.dumps({
        **run, "horizon": 1.0,
        "returnmap": {"theta": 0.05, "p": 5, "q": 5, "steps": 10, "oracle_every": 5},
    }))
    strobe.write_text(json.dumps({**run, "strobe": {"ref": 0, "frames": 3}}))
    pair.write_text(json.dumps({**run, "n": 2, "horizon": 1.0}))
    horizon, strobe, pair = str(horizon), str(strobe), str(pair)
    commands = [
        ["validate", horizon], ["simulate", horizon], ["simulate", horizon, "--trials", "2"],
        ["strobe", strobe], ["audit", horizon], ["returnmap", horizon],
        ["counterexample", pair],
    ]
    seen = fresh(
        "import contextlib, io, json, sys\n"
        "import pcodelay as pc\n"
        f"cfg = pc.load_config({horizon!r})\n"
        "pc.validate_assumptions(cfg.params.curve, cfg.params.coupling)\n"
        "phases = pc.sample_phases(cfg.seed, cfg.params.coupling.n, cfg.init.low, cfg.init.high)\n"
        "pc.NetworkState(cfg.params, phases)\n"
        "seen = [sorted({'dataclasses', 'pcodelay.analysis'} & set(sys.modules))]\n"
        "from pcodelay import cli\n"
        f"for argv in {commands!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()), \\\n"
        "            contextlib.redirect_stderr(io.StringIO()):\n"
        "        code = cli.main(argv)\n"
        "    seen.append([argv[0], code, 'dataclasses' in sys.modules])\n"
        "print(json.dumps(seen))\n"
    )
    assert seen == [[]] + [[argv[0], 0, False] for argv in commands]
