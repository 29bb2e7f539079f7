"""Shared corpus fixtures.

The corpus is fixed by construction: 500 seeded random connected graphs
(n in [2, 60], arc counts ranging up to dense, integer weights in [0, 10],
both orientations) plus 50 seeded grids (up to 30x30, with and without a
planted zero path).  Everything is derived from small integer seeds so the
suite is reproducible run to run.

``corpus_results`` runs every algorithm on every instance once, with the
big-loop invariant audits enabled, and caches the outcomes for the whole
session; the acceptance criteria and several unit tests share it.

``fresh_lane`` and ``broken_compiler`` let a test run the same commands with
the compiled lane loaded and with no compiler at all.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass

import pytest

import optpaths as op
from optpaths import fastlane

RANDOM_COUNT = 500
GRID_COUNT = 50
OPTIMIZERS = ("eom", "eom2", "hrp", "fr", "ht")


def build_random_instance(i: int):
    """Seeded connected multigraph: spanning tree plus random extra arcs."""
    rng = random.Random(1000 + i)
    n = rng.randint(2, 60)
    directed = rng.random() < 0.5
    arcs = []
    for v in range(2, n + 1):
        arcs.append((rng.randint(1, v - 1), v, rng.randint(0, 10)))
    dense = n * (n - 1) - (n - 1)
    if rng.random() < 0.25:
        extra = rng.randint(0, dense)
    else:
        extra = rng.randint(0, 3 * n)
    for _ in range(extra):
        u = rng.randint(1, n)
        v = rng.randint(1, n - 1)
        if v >= u:
            v += 1
        arcs.append((u, v, rng.randint(0, 10)))
    return f"rand-{i}", op.build_graph(n, arcs, directed=directed), 1


def build_grid_instance(i: int):
    if i == 0:
        spec = op.GridSpec(k_r=30, k_c=30, seed=0, plant_hzp=True)
    elif i == 1:
        spec = op.GridSpec(k_r=30, k_c=30, seed=1, plant_hzp=False)
    else:
        rng = random.Random(2000 + i)
        spec = op.GridSpec(k_r=rng.randint(2, 30), k_c=rng.randint(2, 30),
                           seed=i, plant_hzp=(i % 2 == 0))
    g, source, _plan = op.gen_grid(spec)
    return f"grid-{i}", g, source


@pytest.fixture(scope="session")
def corpus():
    out = [build_random_instance(i) for i in range(RANDOM_COUNT)]
    out += [build_grid_instance(i) for i in range(GRID_COUNT)]
    return out


@dataclass
class InstanceResults:
    graph: object
    source: int
    dijkstra: op.OracleResult
    minhop: op.OracleResult
    runs: dict  # algo name -> PipelineResult, debug-instrumented


@pytest.fixture(scope="session")
def corpus_results(corpus):
    algebra = op.min_plus_algebra()
    results = {}
    for name, g, source in corpus:
        runs = {"hda": op.run_pipeline(g, [source], "hda",
                                       debug_invariants=True)}
        for algo in OPTIMIZERS:
            runs[algo] = op.run_pipeline(g, [source], algo,
                                         debug_invariants=True)
        results[name] = InstanceResults(
            graph=g,
            source=source,
            dijkstra=op.dijkstra_oracle(g, source, algebra),
            minhop=op.minhop_dp_oracle(g, source, algebra),
            runs=runs,
        )
    return results


@pytest.fixture(scope="session")
def algebra():
    return op.min_plus_algebra()


@pytest.fixture()
def triangle():
    """The worked three-node example: min-hop tree differs from the optimum."""
    return op.build_graph(3, [(1, 2, 10), (1, 3, 1), (3, 2, 1)],
                          directed=False)


@pytest.fixture()
def fresh_lane(monkeypatch, tmp_path):
    """Resolve the lane anew, with its cache under ``tmp_path``; call the
    returned function to forget the loaded lane again."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))

    def reset():
        monkeypatch.setattr(fastlane, "_lane",
                            functools.cache(fastlane._lane.__wrapped__))

    reset()
    return reset


@pytest.fixture()
def broken_compiler(monkeypatch, fresh_lane):
    """Call the returned function to build the lane with ``command`` instead
    of ``cc`` (by default a missing one) from here on."""

    def use(command="/nonexistent/cc"):
        monkeypatch.setattr(fastlane, "_BUILD",
                            (command, "-O2", "-shared", "-fPIC"))
        fresh_lane()

    return use
