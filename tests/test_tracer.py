"""The per-layer tracer of ``perfbench/`` against the package it wraps.

``perfbench/tracer.py`` times layers by wrapping package functions and
methods by name and reads counters off the reports they return; a name it
no longer finds is skipped, and its metrics then silently read 0.  These
tests read the tracer as it is, so a rename in the package fails here
rather than in a traced benchmark run.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

import optpaths as op
import optpaths.cli  # noqa: F401  (the tracer wraps cli.verify_export)
from optpaths import fastlane

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"

needs_lane = pytest.mark.skipif(not fastlane.available(),
                                reason="no C compiler")


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tr = load_tracer()


@pytest.fixture()
def tracer(monkeypatch):
    """A tracer installed into every ``optpaths`` module for one test."""
    targets = [getattr(importlib.import_module(mod), attr)
               for mod, attr, _, _ in tr.FUNCTIONS]
    for name, mod in list(sys.modules.items()):
        if name == "optpaths" or name.startswith("optpaths."):
            for key, value in list(vars(mod).items()):
                if any(value is t for t in targets):
                    # a no-op set, so that teardown restores the original
                    monkeypatch.setattr(mod, key, value)
    for cls_name, attr, _, _ in tr.METHODS:
        cls = getattr(fastlane, cls_name)
        monkeypatch.setattr(cls, attr, getattr(cls, attr))
    t = tr.Tracer()
    tr.install(t)
    return t


def test_every_traced_target_exists():
    for mod, attr, _, _ in tr.FUNCTIONS:
        assert callable(getattr(importlib.import_module(mod), attr, None)), \
            f"{mod}.{attr}"
    for cls_name, attr, _, _ in tr.METHODS:
        cls = getattr(fastlane, cls_name, None)
        assert callable(getattr(cls, attr, None)), f"{cls_name}.{attr}"


@needs_lane
def test_annotators_read_the_same_counters_on_both_lanes(tracer):
    g, source, _ = op.gen_grid(op.GridSpec(k_r=9, k_c=7, seed=2,
                                           plant_hzp=True))
    annotated = {
        "reference": {name for _, _, name, ann in tr.FUNCTIONS if ann},
        "compiled": ({name for _, _, name, ann in tr.METHODS if ann}
                     | {"pipeline.run_pipeline"}),
    }
    counters = [f"{family}.{c}{suffix}"
                for family, (names, algos) in tr.FAMILIES.items()
                for c in names
                for suffix in ("",) + tuple(f".{a}" for a in algos)]
    metrics = {}
    for lane, algebra in (("reference", op.min_plus_algebra()),
                          ("compiled", None)):
        tracer.op = lane
        for algo in op.ALGORITHMS:
            res = op.run_pipeline(g, [source], algo, algebra=algebra)
            assert res.lane == lane
        spans = [s for s in tracer.spans if s["op"] == lane]
        assert {s["name"] for s in spans if "counters" in s} \
            == annotated[lane]
        assert all(s["algo"] in op.ALGORITHMS
                   for s in spans if s["name"] == "pipeline.run_pipeline")
        metrics[lane] = {k: tr.layer_metrics(spans)[k] for k in counters}
    assert metrics["reference"] == metrics["compiled"]
    assert all(v > 0 for v in metrics["compiled"].values())
