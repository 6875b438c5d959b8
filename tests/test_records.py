"""The package's immutable records, class by class.

Every record compares, hashes and prints by its fields in order, refuses
assignment and deletion, and survives copy and pickle.  StroboscopicFrame
alone compares by identity, since it holds an array.  The expected reprs
are the ones the records have always printed.
"""

import copy
import pickle

import numpy as np
import pytest

import pcodelay as pc

CURVE = pc.CurveSpec(family="ms_exponential", i=1.05)
COUPLING = pc.CouplingParams(n=4, epsilon=0.001, tau=0.1)
PARAMS = pc.ModelParams(curve=CURVE, coupling=COUPLING, tol_time=1e-9, tol_phase=1e-12)
UNIFORM = pc.UniformInit(low=0.0, high=1.0)
EXPLICIT = pc.ExplicitInit(phases=(0.25, 0.5, 0.75, 1.0))
RUN_FIELDS = dict(
    params=PARAMS, seed=7, init=UNIFORM, horizon=10.0, strobe=None, cluster_tol=1e-6,
    strict=False, trials=1, output=None, returnmap=None,
)

# (class, its fields in order, the repr they print, a change that makes the
# record unequal)
RECORDS = [
    (pc.CurveSpec, dict(family="ms_exponential", i=1.05),
     "CurveSpec(family='ms_exponential', i=1.05)", {"i": 1.1}),
    (pc.CouplingParams, dict(n=4, epsilon=0.001, tau=0.1),
     "CouplingParams(n=4, epsilon=0.001, tau=0.1)", {"n": 5}),
    (pc.AssumptionReport, dict(a2_value=0.5, a2_holds=True, margin=0.5),
     "AssumptionReport(a2_value=0.5, a2_holds=True, margin=0.5)", {"a2_holds": False}),
    (pc.ModelParams, dict(curve=CURVE, coupling=COUPLING, tol_time=1e-9, tol_phase=1e-12),
     "ModelParams(curve=CurveSpec(family='ms_exponential', i=1.05), "
     "coupling=CouplingParams(n=4, epsilon=0.001, tau=0.1), tol_time=1e-09, tol_phase=1e-12)",
     {"tol_phase": 0.0}),
    (pc.UniformInit, dict(low=0.0, high=1.0), "UniformInit(low=0.0, high=1.0)", {"low": 0.5}),
    (pc.ExplicitInit, dict(phases=(0.25, 0.5)), "ExplicitInit(phases=(0.25, 0.5))",
     {"phases": (0.5, 0.25)}),
    (pc.StrobeSpec, dict(ref=0, frames=5), "StrobeSpec(ref=0, frames=5)", {"ref": 1}),
    (pc.OutputSpec, dict(format="csv", path=None), "OutputSpec(format='csv', path=None)",
     {"path": "out.csv"}),
    (pc.ReturnMapSpec, dict(theta=0.05, p=2, q=2, steps=10, oracle_every=0),
     "ReturnMapSpec(theta=0.05, p=2, q=2, steps=10, oracle_every=0)", {"steps": 11}),
    (pc.RunConfig, RUN_FIELDS,
     "RunConfig(params=ModelParams(curve=CurveSpec(family='ms_exponential', i=1.05), "
     "coupling=CouplingParams(n=4, epsilon=0.001, tau=0.1), tol_time=1e-09, tol_phase=1e-12), "
     "seed=7, init=UniformInit(low=0.0, high=1.0), horizon=10.0, strobe=None, "
     "cluster_tol=1e-06, strict=False, trials=1, output=None, returnmap=None)", {"seed": 8}),
    (pc.SyncVerdict, dict(synchronized=False, phase_spread=0.25, pipeline_mismatch=True),
     "SyncVerdict(synchronized=False, phase_spread=0.25, pipeline_mismatch=True)",
     {"synchronized": True}),
    (pc.ClusterPartition, dict(clusters=((0, 1), (2,)), representative_phases=(0.5, 0.25)),
     "ClusterPartition(clusters=((0, 1), (2,)), representative_phases=(0.5, 0.25))",
     {"clusters": ((0,), (1, 2))}),
    (pc.StroboscopicFrame, dict(k=1, t=0.5, phases=np.array([1.0, 0.5])),
     "StroboscopicFrame(k=1, t=0.5, phases=array([1. , 0.5]))", {"k": 2}),
    (pc.AuditReport, dict(min_interfire_gap=0.3, gap_bound_ok=True, max_pending_per_source=1,
                          pending_ok=True, violations=(), events=0),
     "AuditReport(min_interfire_gap=0.3, gap_bound_ok=True, max_pending_per_source=1, "
     "pending_ok=True, violations=(), events=0)", {"events": 1}),
    (pc.TwoCliqueState, dict(theta=0.05, p=2, q=2), "TwoCliqueState(theta=0.05, p=2, q=2)",
     {"p": 3}),
    (pc.DesyncSummary, dict(trials=3, sync_detected_count=1, min_final_spread=0.0,
                            median_final_spread=0.1, cluster_count_histogram={1: 2, 2: 1}),
     "DesyncSummary(trials=3, sync_detected_count=1, min_final_spread=0.0, "
     "median_final_spread=0.1, cluster_count_histogram={1: 2, 2: 1})", {"trials": 4}),
]
BY_IDENTITY = pc.StroboscopicFrame
UNHASHABLE = pc.DesyncSummary  # its histogram is a dict

records = pytest.mark.parametrize(
    "cls, fields, text, change", RECORDS, ids=[row[0].__name__ for row in RECORDS]
)


def same_fields(record, fields):
    for name, value in fields.items():
        got = getattr(record, name)
        if isinstance(value, np.ndarray):
            assert np.array_equal(got, value)
        else:
            assert got == value and type(got) is type(value)


@records
def test_fields_read_back_and_build_positionally(cls, fields, text, change):
    record = cls(**fields)
    same_fields(record, fields)
    same_fields(cls(*fields.values()), fields)


@records
def test_equality_and_hash(cls, fields, text, change):
    record, twin, other = cls(**fields), cls(**fields), cls(**{**fields, **change})
    if cls is BY_IDENTITY:
        assert record == record and record != twin
        assert hash(record) == object.__hash__(record)
        return
    assert record == twin and not record != twin
    assert record != other and not record == other
    # Only a record of the same class can be equal, never a tuple of its values.
    assert record != tuple(fields.values())
    assert record.__eq__(tuple(fields.values())) is NotImplemented
    if cls is UNHASHABLE:
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == hash(twin) == hash(tuple(fields.values()))


@records
def test_repr(cls, fields, text, change):
    assert repr(cls(**fields)) == text


@records
def test_assignment_and_deletion_raise(cls, fields, text, change):
    record = cls(**fields)
    for name in [*fields, "extra"]:
        with pytest.raises(AttributeError):
            setattr(record, name, 1)
        with pytest.raises(AttributeError):
            delattr(record, name)
    same_fields(record, fields)


@records
def test_copy_and_pickle_round_trip(cls, fields, text, change):
    record = cls(**fields)
    copies = [copy.copy(record), copy.deepcopy(record)] + [
        pickle.loads(pickle.dumps(record, protocol))
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1)
    ]
    for again in copies:
        assert type(again) is cls
        same_fields(again, fields)
        if cls is not BY_IDENTITY:
            assert again == record


def test_defaults():
    assert pc.CurveSpec() == CURVE
    assert pc.ModelParams(CURVE, COUPLING) == PARAMS
    audit = pc.AuditReport(0.3, True, 1, True)
    assert (audit.violations, audit.events) == ((), 0)


# Each record's own checks, which run in its __init__ (and so under -O too).
@pytest.mark.parametrize("build, message", [
    (lambda: pc.CurveSpec(family="tent"), r"unknown curve family 'tent'"),
    (lambda: pc.CurveSpec(i=1.0), r"curve parameter i must be > 1, got 1.0"),
    (lambda: pc.CouplingParams(n=True, epsilon=0.001, tau=0.1), r"n must be an integer"),
    (lambda: pc.CouplingParams(n=1, epsilon=0.001, tau=0.1), r"n must be >= 2, got 1"),
    (lambda: pc.CouplingParams(n=4, epsilon=-1.0, tau=0.1), r"epsilon must be >= 0"),
    (lambda: pc.CouplingParams(n=4, epsilon=0.001, tau=0.0), r"tau must be > 0"),
    (lambda: pc.ModelParams(CURVE, COUPLING, tol_time=0.01), r"tol_time must lie in"),
    (lambda: pc.ModelParams(CURVE, COUPLING, tol_phase=1e-3), r"tol_phase must lie in"),
    (lambda: pc.RunConfig(**{**RUN_FIELDS, "trials": 0}), r"^trials: must be >= 1$"),
    (lambda: pc.RunConfig(**{**RUN_FIELDS, "init": EXPLICIT, "trials": 2}),
     r"explicit init cannot vary across trials"),
    (lambda: pc.TwoCliqueState(theta=1.0, p=2, q=2), r"theta must lie in \[0, 1\)"),
    (lambda: pc.TwoCliqueState(theta=0.05, p=0, q=2), r"clique sizes must be >= 1"),
])
def test_checks_reject_bad_fields(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def test_replace_rebuilds_through_the_checks():
    config = pc.RunConfig(**RUN_FIELDS)
    assert config._replace(trials=3) == pc.RunConfig(**{**RUN_FIELDS, "trials": 3})
    assert config._replace() == config and config._replace() is not config
    assert config.trials == 1
    with pytest.raises(pc.ConfigError, match=r"^trials: must be >= 1$"):
        config._replace(trials=0)
    with pytest.raises(pc.ConfigError, match="explicit init cannot vary across trials"):
        config._replace(init=EXPLICIT, trials=2)
    n = COUPLING._replace(n=np.int64(5)).n
    assert n == 5 and type(n) is int
    with pytest.raises(ValueError, match="must be > 1"):
        CURVE._replace(i=1.0)
    with pytest.raises(TypeError):
        CURVE._replace(shape="flat")
