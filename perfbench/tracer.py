"""In-memory span tracer that times optpaths layers from outside the package.

Spans are recorded by wrapping public functions where the package looks them
up: every ``optpaths.*`` module attribute that is the original function is
replaced by a timing wrapper, so calls made through any module's globals
(``cli`` -> ``read_instance_file`` -> ``read_instance`` -> ``build_graph``, or
``pipeline`` -> ``hda_multi``) open a span.  Nothing under ``src/`` changes,
and the code path executed is the CLI's own.

A span is a dict: ``id``, ``name``, ``parent`` (span id or None), ``op`` (the
op it belongs to), ``start``/``end`` (``perf_counter`` seconds) and, where the
wrapped call returns a report, ``family``/``algo``/``counters``.
"""

from __future__ import annotations

import functools
import sys
import time
from contextlib import contextmanager


class Tracer:
    """Keeps spans in memory; ``op`` tags every span opened until changed.

    Results of the wrapped calls named in ``keep`` are appended to ``kept``,
    so a caller can check them after the op.
    """

    def __init__(self, keep: tuple[str, ...] = ()):
        self.spans: list[dict] = []
        self.op = "setup"
        self.keep = keep
        self.kept: list = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs):
        rec = {"id": len(self.spans), "name": name,
               "parent": self._stack[-1] if self._stack else None,
               "op": self.op, "start": time.perf_counter(), "end": None}
        rec.update(attrs)
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def add(self, name: str, start: float, end: float, **attrs) -> None:
        """Record a span timed elsewhere (a child process) under the open span."""
        rec = {"id": len(self.spans), "name": name,
               "parent": self._stack[-1] if self._stack else None,
               "op": self.op, "start": start, "end": end}
        rec.update(attrs)
        self.spans.append(rec)


# -- counters read from the reports the wrapped calls return ----------------

def _hda(args, kwargs, result):
    rep = result[2]
    return "partition", None, {"arc_inspections": rep.arc_inspections}


def _classify(args, kwargs, result):
    return "monarchy", None, {"origins": result.origin_count}


def _scheduler(args, kwargs, result):
    kind = args[0] if args else kwargs["kind"]
    return "monarchy", str(getattr(kind, "value", kind)), {
        "big_loops": result.big_loops, "node_scans": result.node_scans,
        "improvements": result.improvements}


def _sweep(algo):
    def annotate(args, kwargs, result):
        return "evolve", algo, {
            "big_loops": result.big_loops, "node_scans": result.node_scans,
            "arc_relaxations": result.arc_relaxations,
            "improvements": result.improvements}
    return annotate


def _pipeline(args, kwargs, result):
    return "pipeline", result.algo, {}


def _fast_init(args, kwargs, result):
    return "partition", None, {
        "arc_inspections": args[0].hda_report.arc_inspections}


def _fast_classify(args, kwargs, result):
    return "monarchy", None, {"origins": int(result)}


def _fast_eom(args, kwargs, result):
    two = kwargs.get("two_course", args[1] if len(args) > 1 else False)
    return _sweep("eom2" if two else "eom")(args, kwargs, result)


def _fast_schedule(args, kwargs, result):
    return _scheduler(args[1:], kwargs, result)


#: (module, function, span name, counter reader)
FUNCTIONS = [
    ("optpaths.graph", "read_instance", "graph.read_instance", None),
    ("optpaths.graph", "build_graph", "graph.build_graph", None),
    ("optpaths.generators", "gen_grid", "generators.gen", None),
    ("optpaths.generators", "gen_random_graph", "generators.gen", None),
    ("optpaths.partition", "hda_multi", "partition.hda", _hda),
    ("optpaths.partition", "export_results_file", "partition.export_results",
     None),
    ("optpaths.monarchy", "classify_status", "monarchy.classify_status",
     _classify),
    ("optpaths.monarchy", "run_scheduler", "monarchy.run_scheduler",
     _scheduler),
    ("optpaths.evolve", "eom", "evolve.sweep", _sweep("eom")),
    ("optpaths.evolve", "eom_two_course", "evolve.sweep", _sweep("eom2")),
    ("optpaths.pipeline", "run_pipeline", "pipeline.run_pipeline", _pipeline),
    ("optpaths.cli", "verify_export", "cli.verify_export", None),
    ("optpaths.oracles", "dijkstra_oracle", "oracles.dijkstra_oracle", None),
]

#: compiled-lane methods: (class, method, span name, counter reader)
METHODS = [
    ("FastRun", "__init__", "fastlane.hda", _fast_init),
    ("FastRun", "classify", "fastlane.classify", _fast_classify),
    ("FastRun", "eom", "fastlane.eom", _fast_eom),
    ("FastRun", "schedule", "fastlane.schedule", _fast_schedule),
]


def _wrap(tracer: Tracer, fn, name: str, annotate):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        with tracer.span(name) as rec:
            result = fn(*args, **kwargs)
        if annotate is not None:
            rec["family"], rec["algo"], rec["counters"] = annotate(
                args, kwargs, result)
        if name in tracer.keep:
            tracer.kept.append(result)
        return result
    return traced


def install(tracer: Tracer) -> None:
    """Wrap every traced function wherever an ``optpaths`` module holds it.

    Functions or methods a future version no longer has are skipped; their
    metrics then read 0.
    """
    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == "optpaths"
                                     or name.startswith("optpaths."))]
    for mod_name, attr, name, annotate in FUNCTIONS:
        orig = getattr(sys.modules.get(mod_name), attr, None)
        if orig is None:
            continue
        wrapped = _wrap(tracer, orig, name, annotate)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, key, wrapped)
    fastlane = sys.modules.get("optpaths.fastlane")
    for cls_name, attr, name, annotate in METHODS:
        cls = getattr(fastlane, cls_name, None)
        orig = getattr(cls, attr, None)
        if orig is not None:
            setattr(cls, attr, _wrap(tracer, orig, name, annotate))


# -- per-layer metrics from the spans of one op ------------------------------

#: the package's modules, which are the layers spans are attributed to
LAYERS = ("cli", "graph", "generators", "partition", "monarchy", "evolve",
          "pipeline", "fastlane", "oracles")

#: span name -> per-layer time metric
TIMES = {
    "cli.import": "cli.import_s",
    "graph.read_instance": "graph.read_instance_s",
    "graph.build_graph": "graph.build_graph_s",
    "generators.gen": "generators.gen_s",
    "partition.hda": "partition.hda_s",
    "partition.export_results": "partition.export_results_s",
    "monarchy.classify_status": "monarchy.classify_status_s",
    "monarchy.run_scheduler": "monarchy.run_scheduler_s",
    "evolve.sweep": "evolve.sweep_s",
    "pipeline.run_pipeline": "pipeline.run_pipeline_s",
    "cli.verify_export": "cli.verify_export_s",
    "oracles.dijkstra_oracle": "oracles.dijkstra_oracle_s",
}

#: counter family -> (counters, algorithms whose share gets a suffixed name)
FAMILIES = {
    "partition": (("arc_inspections",), ()),
    "monarchy": (("origins", "big_loops", "node_scans", "improvements"),
                 ("hrp", "fr", "ht")),
    "evolve": (("big_loops", "node_scans", "arc_relaxations", "improvements"),
               ("eom", "eom2")),
}

#: family -> (ratio name, numerator, denominator)
RATIOS = {
    "monarchy": ("useful_scan_ratio", "improvements", "node_scans"),
    "evolve": ("useful_relax_ratio", "improvements", "arc_relaxations"),
}

#: time metrics that also get one suffixed name per algorithm
SUFFIXED_TIMES = {"monarchy.classify_status_s": "monarchy",
                  "monarchy.run_scheduler_s": "monarchy",
                  "evolve.sweep_s": "evolve"}


def metric_names() -> list[str]:
    """Every per-layer metric ``layer_metrics`` reports, in a stable order."""
    names = list(TIMES.values())
    for base, family in SUFFIXED_TIMES.items():
        names += [f"{base}.{a}" for a in FAMILIES[family][1]]
    for family, (counters, algos) in FAMILIES.items():
        extra = (RATIOS[family][0],) if family in RATIOS else ()
        for c in counters + extra:
            names.append(f"{family}.{c}")
            names += [f"{family}.{c}.{a}" for a in algos]
    names += [f"{layer}.self_s" for layer in LAYERS]
    return names


def _algo_of(span: dict, by_id: dict) -> str | None:
    """The span's own algorithm, else that of the run_pipeline around it."""
    while span is not None:
        if span.get("algo"):
            return span["algo"]
        span = by_id.get(span["parent"])
    return None


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Sum times, counters and self times over the spans of one op."""
    out = dict.fromkeys(metric_names(), 0)
    by_id = {s["id"]: s for s in spans}
    child_time: dict[int, float] = {}
    for s in spans:
        if s["parent"] in by_id:
            child_time[s["parent"]] = (child_time.get(s["parent"], 0.0)
                                       + s["end"] - s["start"])
    for s in spans:
        dur = s["end"] - s["start"]
        layer = s["name"].split(".")[0]
        if layer in LAYERS:
            out[f"{layer}.self_s"] += dur - child_time.get(s["id"], 0.0)
        base = TIMES.get(s["name"])
        if base is not None:
            out[base] += dur
            algo = _algo_of(s, by_id)
            if base in SUFFIXED_TIMES and f"{base}.{algo}" in out:
                out[f"{base}.{algo}"] += dur
        family = s.get("family")
        if family in FAMILIES:
            algo = _algo_of(s, by_id)
            for c, v in s["counters"].items():
                out[f"{family}.{c}"] += v
                if f"{family}.{c}.{algo}" in out:
                    out[f"{family}.{c}.{algo}"] += v
    for family, (ratio, num, den) in RATIOS.items():
        for suffix in ("",) + tuple(f".{a}" for a in FAMILIES[family][1]):
            d = out[f"{family}.{den}{suffix}"]
            out[f"{family}.{ratio}{suffix}"] = (
                out[f"{family}.{num}{suffix}"] / d if d else 0.0)
    return out
