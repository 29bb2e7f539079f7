"""Deterministic instance generators: grids, random multigraphs, shape sweeps.

Randomness comes from a counter-based splitmix64 stream so that the same
spec always yields a byte-identical instance file on any platform: draw i of
a run seeded with s is the splitmix64 finalizer applied to
``s + (i+1) * 0x9E3779B97F4A7C15`` (the golden-gamma increment), reduced by
modulus into the requested range.  The compiled lane of :mod:`fastlane`
fills whole arc columns with these draws; without it, :func:`splitmix64`
draws them one at a time.  Arc columns are ``array('q')``, sized before
they are filled; ``gen`` writes them to a file as they are, and
:func:`gen_grid` and :func:`gen_random_graph` build them into a graph.

Grid layout: ``k_r`` rows by ``k_c`` columns, node ids assigned column-major
from the bottom-left corner (``id(r, c) = (c-1)*k_r + r``), source fixed at
the bottom-left corner (id 1).  The planted zero path is the column
serpentine -- up column 1, one step right, down column 2, and so on -- so
its terminal ends at the top of the last column when the column count is
odd and at the bottom when it is even.  With a planted path, off-path
weights are forced to at least 1 so the zero route is strictly optimal.
"""

from __future__ import annotations

from array import array
from typing import NamedTuple, Optional

from . import fastlane
from .graph import (INT64_MAX, Graph, GraphError, _allocate,
                    graph_from_columns)

_GAMMA = 0x9E3779B97F4A7C15
_MASK = (1 << 64) - 1


def splitmix64(seed: int, index: int) -> int:
    """Draw ``index`` of the counter-based stream seeded with ``seed``."""
    z = (seed + (index + 1) * _GAMMA) & _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return (z ^ (z >> 31)) & _MASK


def _draws(count: int, what: str, seed: int, start: int, stride: int,
           lo: int, span: int) -> array:
    """``lo + splitmix64(seed, start + i * stride) % span`` for i < count."""
    out = _allocate(count, what)
    if not fastlane.draws(out, seed, start, stride, lo, span):
        for i in range(count):
            out[i] = lo + splitmix64(seed, start + i * stride) % span
    return out


def _check_weight_range(wmin: int, wmax: int) -> None:
    if not 0 <= wmin <= wmax <= INT64_MAX:
        raise GraphError(f"bad weight range [{wmin},{wmax}]: weights must "
                         f"satisfy 0 <= wmin <= wmax <= {INT64_MAX}")


class GridSpec(NamedTuple):
    k_r: int  # rows
    k_c: int  # columns
    weight_min: int = 1
    weight_max: int = 10
    seed: int = 0
    plant_hzp: bool = False

    @property
    def n(self) -> int:
        return self.k_r * self.k_c

    def validate(self) -> None:
        if self.k_r < 1 or self.k_c < 1:
            raise GraphError(f"grid dims must be >= 1, got {self.k_r}x{self.k_c}")
        _check_weight_range(self.weight_min, self.weight_max)


class HzpPlan(NamedTuple):
    """The planted zero path: a Hamiltonian node sequence and its terminal."""

    path: tuple[int, ...]
    terminal: int


def _grid_id(r: int, c: int, k_r: int) -> int:
    return (c - 1) * k_r + r


def serpentine_path(k_r: int, k_c: int) -> tuple[int, ...]:
    """Column-snake node order starting at the bottom-left corner."""
    path: list[int] = []
    for c in range(1, k_c + 1):
        rows = range(1, k_r + 1) if c % 2 == 1 else range(k_r, 0, -1)
        path.extend(_grid_id(r, c, k_r) for r in rows)
    return tuple(path)


def grid_columns(spec: GridSpec) -> tuple[array, array, array,
                                          Optional[HzpPlan]]:
    """The head, tail and weight columns of the undirected grid of ``spec``,
    with seeded uniform weights, and its planted zero path, if any.

    Arc order is deterministic: all vertical arcs by node id, then all
    horizontal arcs by node id; the weight stream indexes arcs in that
    order.
    """
    spec.validate()
    k_r, k_c = spec.k_r, spec.k_c
    n = spec.n
    n_v = k_c * (k_r - 1)  # (r, c) -- (r+1, c) for r < k_r
    n_h = (k_c - 1) * k_r  # (r, c) -- (r, c+1) for c < k_c
    what = f"node count {n}"
    head, tail = _allocate(n_v + n_h, what), _allocate(n_v + n_h, what)
    # the vertical arcs start at every node but the top of its column
    for col, first in ((head, 1), (tail, 2)):
        ids = array("q", range(first, first + n))
        del ids[k_r - 1::k_r]
        col[:n_v] = ids
    # the horizontal arcs start at every node but those of the last column
    head[n_v:] = array("q", range(1, n_h + 1))
    tail[n_v:] = array("q", range(1 + k_r, n_h + k_r + 1))

    wmin, wmax = spec.weight_min, spec.weight_max
    span = wmax - wmin + 1
    plan = None
    if not spec.plant_hzp:
        weight = _draws(n_v + n_h, what, spec.seed, 0, 1, wmin, span)
    else:
        # Every vertical arc lies on the serpentine and weighs 0, the rest
        # at least 1; a horizontal arc lies on it when it crosses at the
        # top of an odd column or the bottom of an even one.
        wmin = max(1, wmin)
        span = max(wmin, wmax) - wmin + 1
        weight = _allocate(n_v + n_h, what)
        weight[n_v:] = _draws(n_h, what, spec.seed, n_v, 1, wmin, span)
        for c in range(1, k_c):
            weight[n_v + (c - 1) * k_r + (k_r - 1 if c % 2 else 0)] = 0
        path = serpentine_path(k_r, k_c)
        plan = HzpPlan(path=path, terminal=path[-1])
    return head, tail, weight, plan


def gen_grid(spec: GridSpec) -> tuple[Graph, int, Optional[HzpPlan]]:
    """The graph of :func:`grid_columns`, its source 1 and its zero path."""
    head, tail, weight, plan = grid_columns(spec)
    return graph_from_columns(spec.n, head, tail, weight), 1, plan


def random_columns(n: int, arc_count: int, weight_min: int, weight_max: int,
                   seed: int) -> tuple[array, array, array]:
    """The head, tail and weight columns of a seeded uniform multigraph
    sample on ``n`` nodes (no self-loops, parallels allowed).

    Arc ``j`` takes draws ``3j``, ``3j + 1`` and ``3j + 2`` for its head,
    tail and weight.
    """
    if n < 1:
        raise GraphError(f"node count must be >= 1, got {n}")
    if arc_count < 0:
        raise GraphError("arc count must be >= 0")
    if arc_count > 0 and n < 2:
        raise GraphError("cannot place arcs on a single node without self-loops")
    _check_weight_range(weight_min, weight_max)
    if n > INT64_MAX:
        raise GraphError(f"node count {n} is too large to allocate")
    what = f"arc count {arc_count}"
    head = _draws(arc_count, what, seed, 0, 3, 1, n)
    tail = _draws(arc_count, what, seed, 1, 3, 1, n - 1)
    # skip the head id to exclude self-loops
    tail = array("q", [t + (t >= h) for h, t in zip(head, tail)])
    weight = _draws(arc_count, what, seed, 2, 3, weight_min,
                    weight_max - weight_min + 1)
    return head, tail, weight


def gen_random_graph(n: int, arc_count: int, weight_min: int, weight_max: int,
                     seed: int, directed: bool = False) -> Graph:
    """The graph of :func:`random_columns`, one-way arcs if ``directed``."""
    return graph_from_columns(n, *random_columns(n, arc_count, weight_min,
                                                 weight_max, seed), directed)


def shape_sweep_specs(n_total: int, k_c_values: list[int],
                      seed: int = 7) -> list[GridSpec]:
    """Constant-node grid specs with a planted zero path, one per column count."""
    specs = []
    for k_c in k_c_values:
        if k_c < 1 or n_total % k_c != 0:
            raise GraphError(f"k_c={k_c} does not divide n_total={n_total}")
        spec = GridSpec(k_r=n_total // k_c, k_c=k_c, weight_min=1,
                        weight_max=10, seed=seed, plant_hzp=True)
        spec.validate()
        specs.append(spec)
    return specs


def grid_comments(spec: GridSpec, plan: Optional[HzpPlan]) -> list[str]:
    """Sidecar comment lines recording the spec and the planted path."""
    out = [
        f"grid rows={spec.k_r} cols={spec.k_c} wmin={spec.weight_min} "
        f"wmax={spec.weight_max} seed={spec.seed} hzp={int(spec.plant_hzp)}"
    ]
    if plan is not None:
        out.append("hzp-path " + " ".join(str(v) for v in plan.path))
    return out
