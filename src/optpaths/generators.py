"""Deterministic instance generators: grids, random multigraphs, shape sweeps.

Randomness comes from a counter-based splitmix64 stream so that the same
spec always yields a byte-identical instance file on any platform: draw i of
a run seeded with s is the splitmix64 finalizer applied to
``s + (i+1) * 0x9E3779B97F4A7C15`` (the golden-gamma increment), reduced by
modulus into the requested range.  The stream is vectorizable, which keeps
mega-scale grid generation fast.

Grid layout: ``k_r`` rows by ``k_c`` columns, node ids assigned column-major
from the bottom-left corner (``id(r, c) = (c-1)*k_r + r``), source fixed at
the bottom-left corner (id 1).  The planted zero path is the column
serpentine -- up column 1, one step right, down column 2, and so on -- so
its terminal ends at the top of the last column when the column count is
odd and at the bottom when it is even.  With a planted path, off-path
weights are forced to at least 1 so the zero route is strictly optimal.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .graph import INT64_MAX, Graph, GraphError, build_graph

_GAMMA = 0x9E3779B97F4A7C15
_MASK = (1 << 64) - 1


def splitmix64(seed: int, index: int) -> int:
    """Draw ``index`` of the counter-based stream seeded with ``seed``."""
    z = (seed + (index + 1) * _GAMMA) & _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return (z ^ (z >> 31)) & _MASK


def splitmix64_array(seed: int, start: int, count: int) -> np.ndarray:
    """Vectorized splitmix64 draws ``start .. start+count-1`` as uint64."""
    idx = np.arange(start + 1, start + count + 1, dtype=np.uint64)
    with np.errstate(over="ignore"):
        z = np.uint64(seed & _MASK) + idx * np.uint64(_GAMMA)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        return z ^ (z >> np.uint64(31))


def _check_weight_range(wmin: int, wmax: int) -> None:
    if not 0 <= wmin <= wmax <= INT64_MAX:
        raise GraphError(f"bad weight range [{wmin},{wmax}]: weights must "
                         f"satisfy 0 <= wmin <= wmax <= {INT64_MAX}")


@dataclass(frozen=True)
class GridSpec:
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


@dataclass(frozen=True)
class HzpPlan:
    """The planted zero path: a Hamiltonian node sequence and its terminal."""

    path: tuple[int, ...]
    terminal: int


def _grid_id(r: np.ndarray | int, c: np.ndarray | int, k_r: int):
    return (c - 1) * k_r + r


def serpentine_path(k_r: int, k_c: int) -> tuple[int, ...]:
    """Column-snake node order starting at the bottom-left corner."""
    path: list[int] = []
    for c in range(1, k_c + 1):
        rows = range(1, k_r + 1) if c % 2 == 1 else range(k_r, 0, -1)
        path.extend(_grid_id(r, c, k_r) for r in rows)
    return tuple(path)


def gen_grid(spec: GridSpec) -> tuple[Graph, int, Optional[HzpPlan]]:
    """Undirected grid with seeded uniform weights, optionally a zero path.

    Arc order is deterministic: all vertical arcs by node id, then all
    horizontal arcs by node id; the weight stream indexes arcs in that
    order.
    """
    spec.validate()
    k_r, k_c = spec.k_r, spec.k_c
    n = spec.n

    # vertical arcs (r, c) -- (r+1, c) for r < k_r, ordered by node id
    cols = np.arange(1, k_c + 1, dtype=np.int64)
    rows_v = np.arange(1, k_r, dtype=np.int64)
    cv, rv = np.meshgrid(cols, rows_v, indexing="ij")
    v_head = _grid_id(rv.ravel(), cv.ravel(), k_r)
    v_tail = v_head + 1
    # horizontal arcs (r, c) -- (r, c+1) for c < k_c, ordered by node id
    cols_h = np.arange(1, k_c, dtype=np.int64)
    rows_h = np.arange(1, k_r + 1, dtype=np.int64)
    ch, rh = np.meshgrid(cols_h, rows_h, indexing="ij")
    h_head = _grid_id(rh.ravel(), ch.ravel(), k_r)
    h_tail = h_head + k_r

    head = np.concatenate([v_head, h_head])
    tail = np.concatenate([v_tail, h_tail])
    arc_count = len(head)

    wmin, wmax = spec.weight_min, spec.weight_max
    if spec.plant_hzp:
        wmin = max(1, wmin)
        wmax = max(wmin, wmax)
    span = wmax - wmin + 1
    draws = splitmix64_array(spec.seed, 0, arc_count)
    weight = (wmin + (draws % np.uint64(span))).astype(np.int64)

    plan = None
    if spec.plant_hzp:
        # every vertical arc lies on the serpentine; a horizontal arc does
        # when it crosses at the top of an odd column or the bottom of an even
        on_path = np.zeros(arc_count, dtype=bool)
        on_path[: len(v_head)] = True
        hr = rh.ravel()
        hc = ch.ravel()
        on_path[len(v_head):] = ((hc % 2 == 1) & (hr == k_r)) | \
                                ((hc % 2 == 0) & (hr == 1))
        weight[on_path] = 0
        path = serpentine_path(k_r, k_c)
        plan = HzpPlan(path=path, terminal=path[-1])

    arcs = np.stack([head, tail, weight], axis=1)
    g = build_graph(n, arcs, directed=False)
    return g, 1, plan


def gen_random_graph(n: int, arc_count: int, weight_min: int, weight_max: int,
                     seed: int, directed: bool = False) -> Graph:
    """Seeded uniform multigraph sampling (no self-loops, parallels allowed)."""
    if n < 1:
        raise GraphError(f"node count must be >= 1, got {n}")
    if arc_count < 0:
        raise GraphError("arc count must be >= 0")
    if arc_count > 0 and n < 2:
        raise GraphError("cannot place arcs on a single node without self-loops")
    _check_weight_range(weight_min, weight_max)
    if arc_count == 0:
        return build_graph(n, [], directed=directed)
    draws = splitmix64_array(seed, 0, 3 * arc_count)
    head = 1 + (draws[0::3] % np.uint64(n)).astype(np.int64)
    offs = (draws[1::3] % np.uint64(n - 1)).astype(np.int64)
    tail = offs + 1
    tail[tail >= head] += 1  # skip the head id to exclude self-loops
    span = weight_max - weight_min + 1
    weight = (weight_min + (draws[2::3] % np.uint64(span))).astype(np.int64)
    arcs = np.stack([head, tail, weight], axis=1)
    return build_graph(n, arcs, directed=directed)


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


def parse_hzp_comment(comments: list[str]) -> Optional[HzpPlan]:
    for c in comments:
        if c.startswith("hzp-path "):
            path = tuple(int(tok) for tok in c.split()[1:])
            return HzpPlan(path=path, terminal=path[-1])
    return None
