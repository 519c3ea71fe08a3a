"""Span tracing from outside the program, and the per-layer metrics built on it.

A traced run replaces selected ``sfcl`` functions and methods, at the module
or class attribute their callers look up, with wrappers that record a span
per call: name, start, end, parent span and item id. Spans stay in memory
and are written out once the run ends. ``uninstall`` puts every original
object back, so an untraced run executes the program untouched.

A span's self time is its duration minus the part of it that its child
spans cover. Children from worker threads may overlap each other, so the
covered part is the union of their intervals, not their sum.
"""

from __future__ import annotations

import bisect
import contextlib
import functools
import importlib
import json
import math
import threading
import time
from collections import defaultdict
from dataclasses import asdict, dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from stats import median, nearest_rank


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    item: Optional[str]
    work: float = 0.0     # pixels, images or items handled by the call
    workers: int = 0      # thread-pool width, for cli.parallel_map only


class Tracer:
    """Collects finished spans; each thread keeps its own stack of open ones."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.origin = clock()
        self.spans: List[Span] = []
        self._lock = threading.Lock()
        self._next_id = 1
        self._local = threading.local()

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, item: Optional[str] = None,
              parent: Optional[Span] = None) -> Span:
        """Open a span. The parent defaults to this thread's innermost open
        span, and the item id to the parent's."""
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        if item is None and parent is not None:
            item = parent.item
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        span = Span(span_id, name, self.clock(), 0.0,
                    None if parent is None else parent.id, item)
        stack.append(span)
        return span

    def end(self, span: Span, work: float = 0.0) -> None:
        span.end = self.clock()
        span.work = float(work)
        self._stack().remove(span)
        with self._lock:
            self.spans.append(span)

    def dump(self, path) -> None:
        """Write the spans as JSON lines, times in seconds from tracer start."""
        with open(path, "w") as fh:
            for span in sorted(self.spans, key=lambda s: s.start):
                row = asdict(span)
                row["start"] -= self.origin
                row["end"] -= self.origin
                fh.write(json.dumps(row) + "\n")


@contextlib.contextmanager
def phase(tracer: Optional[Tracer], name: str, item=None):
    """A harness-level span around a block; a no-op without a tracer."""
    if tracer is None:
        yield
        return
    span = tracer.begin(name, None if item is None else str(item))
    try:
        yield
    finally:
        tracer.end(span)


# -- hooks ---------------------------------------------------------------------


def _result_spectra_px(args, result) -> float:
    return result.coefficients.shape[2] * result.coefficients.shape[3] * 64.0


def _arg_spectra_px(args, result) -> float:
    return args[0].coefficients.shape[2] * args[0].coefficients.shape[3] * 64.0


def _result_image_px(args, result) -> float:
    return float(result.height * result.width)


def _result_images(args, result) -> float:
    return float(len(result))


# (module, class or None, attribute, span name, work from (args, result))
HOOKS: Tuple[Tuple[str, Optional[str], str, str, Optional[Callable]], ...] = (
    ("sfcl.model", None, "extract_frontend", "model.extract_frontend", _result_images),
    ("sfcl.model", None, "restructure", "frequency.restructure", _result_spectra_px),
    ("sfcl.model", None, "sida_descriptor", "sida.sida_descriptor", _arg_spectra_px),
    ("sfcl.sida", None, "restructure", "frequency.restructure", _result_spectra_px),
    ("sfcl.sida", None, "sida_descriptor", "sida.sida_descriptor", _arg_spectra_px),
    ("sfcl.cli", None, "read_ppm", "io.read_ppm", _result_image_px),
    ("sfcl.cli", None, "write_csv", "io.write_csv", None),
    ("sfcl.cli", None, "load_model", "modelfile.load_model", None),
    ("sfcl.tensor", None, "backward", "tensor.backward", None),
    ("sfcl.train", "Adam", "step", "train.adam", None),
    ("sfcl.model", "Detector", "forward", "model.forward", None),
    ("sfcl.spatial", "SpatialBackbone", "stem_forward", "spatial.stem_forward", None),
    ("sfcl.spatial", "SpatialBackbone", "deep_forward", "spatial.deep_forward", None),
    ("sfcl.local_branch", "Sbcm", "forward", "local_branch.sbcm", None),
    ("sfcl.local_branch", "CnnF", "forward", "local_branch.cnnf", None),
    ("sfcl.fusion", "Faae", "forward", "fusion.faae", None),
    ("sfcl.fusion", "Hcma", "fuse", "fusion.hcma", None),
    ("sfcl.fusion", "Classifier", "forward", "fusion.classifier", None),
)


def _traced(tracer: Tracer, fn, name: str, work: Optional[Callable]):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        span = tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            tracer.end(span)
            raise
        tracer.end(span, work(args, result) if work is not None else 0.0)
        return result
    return traced


def _traced_parallel_map(tracer: Tracer, fn, worker_count: Callable[[], int]):
    """cli._parallel_map with one item span per element, parented across threads."""

    @functools.wraps(fn)
    def traced(item_fn, items):
        span = tracer.begin("cli.parallel_map")

        def one(item):
            label = item[0] if isinstance(item, tuple) else item
            child = tracer.begin("cli.parallel_map.item", item=str(label), parent=span)
            try:
                return item_fn(item)
            finally:
                tracer.end(child)

        span.workers = min(worker_count(), max(len(items), 1))
        try:
            return fn(one, items)
        finally:
            tracer.end(span, len(items))
    return traced


def install(tracer: Tracer) -> List[Tuple[object, str, object]]:
    """Wrap every hooked attribute; returns what ``uninstall`` needs."""
    restore: List[Tuple[object, str, object]] = []
    try:
        for module_name, class_name, attr, name, work in HOOKS:
            owner = importlib.import_module(module_name)
            if class_name is not None:
                owner = getattr(owner, class_name)
            original = vars(owner)[attr]  # defined here, not inherited
            restore.append((owner, attr, original))
            setattr(owner, attr, _traced(tracer, original, name, work))
        cli = importlib.import_module("sfcl.cli")
        original = vars(cli)["_parallel_map"]
        restore.append((cli, "_parallel_map", original))
        cli._parallel_map = _traced_parallel_map(tracer, original, cli._worker_count)
    except BaseException:
        uninstall(restore)
        raise
    return restore


def uninstall(restore: Sequence[Tuple[object, str, object]]) -> None:
    for owner, attr, original in reversed(restore):
        setattr(owner, attr, original)


# -- analysis ------------------------------------------------------------------


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out = {}
    for s in spans:
        covered = 0.0
        run_start = run_end = None
        for a, b in sorted(children.get(s.id, ())):
            a, b = max(a, s.start), min(b, s.end)
            if b <= a:
                continue
            if run_end is None or a > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = a, b
            else:
                run_end = max(run_end, b)
        if run_end is not None:
            covered += run_end - run_start
        out[s.id] = (s.end - s.start) - covered
    return out


def step_durations(spans: Sequence[Span]) -> List[float]:
    """Training-step wall times: from the start of the forward pass that a
    train.adam span closes to the end of that span."""
    forwards = sorted(s.start for s in spans if s.name == "model.forward")
    out = []
    for adam in (s for s in spans if s.name == "train.adam"):
        i = bisect.bisect_left(forwards, adam.start)
        if i:
            out.append(adam.end - forwards[i - 1])
    return out


SIDA_SIDES = (256, 512, 1024)
MEDIAN_LAYERS = ("model.forward", "spatial.stem_forward", "spatial.deep_forward",
                 "local_branch.sbcm", "local_branch.cnnf", "fusion.faae", "fusion.hcma",
                 "fusion.classifier", "tensor.backward", "train.adam")

# Every per-layer metric a traced run reports, with its unit. The values are
# self times except train.step, which is a whole step's wall time.
PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("sida.sida_descriptor.ms_per_mpix", "ms/Mpix"),
    *((f"sida.sida_descriptor.ms_p50.{side}px", "ms") for side in SIDA_SIDES),
    ("sida.sida_descriptor.calls", "count"),
    ("frequency.restructure.ms_per_mpix", "ms/Mpix"),
    ("frequency.restructure.calls", "count"),
    ("model.extract_frontend.ms_per_image", "ms"),
    ("model.extract_frontend.calls", "count"),
    ("io.read_ppm.ms_per_mpix", "ms/Mpix"),
    ("io.read_ppm.calls", "count"),
    ("io.write_csv.ms", "ms"),
    ("io.write_csv.calls", "count"),
    ("cli.parallel_map.busy_share", "share"),
    ("cli.parallel_map.calls", "count"),
    ("modelfile.load_model.ms", "ms"),
    ("modelfile.load_model.calls", "count"),
    *(m for layer in MEDIAN_LAYERS
      for m in ((f"{layer}.ms_p50", "ms"), (f"{layer}.calls", "count"))),
    ("train.step.ms_p50", "ms"),
    ("train.step.ms_p90", "ms"),
    ("train.step.calls", "count"),
    ("trace.overhead_share", "share"),
)


def layer_metrics(spans: Sequence[Span]) -> Dict[str, float]:
    """Every PER_LAYER metric except trace.overhead_share, which needs an
    untraced run to compare with. A layer with no calls reports 0."""
    own = self_times(spans)
    by_name: Dict[str, List[Span]] = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)

    def self_ms(name, keep=lambda s: True):
        return [own[s.id] * 1e3 for s in by_name[name] if keep(s)]

    def ms_per(name, scale):
        work = sum(s.work for s in by_name[name]) / scale
        return sum(self_ms(name)) / work if work else 0.0

    def side(s):
        return round(math.sqrt(s.work))

    m: Dict[str, float] = {}
    m["sida.sida_descriptor.ms_per_mpix"] = ms_per("sida.sida_descriptor", 1e6)
    for px in SIDA_SIDES:
        m[f"sida.sida_descriptor.ms_p50.{px}px"] = median(
            self_ms("sida.sida_descriptor", lambda s, px=px: side(s) == px))
    m["frequency.restructure.ms_per_mpix"] = ms_per("frequency.restructure", 1e6)
    m["model.extract_frontend.ms_per_image"] = ms_per("model.extract_frontend", 1.0)
    m["io.read_ppm.ms_per_mpix"] = ms_per("io.read_ppm", 1e6)
    m["io.write_csv.ms"] = median(self_ms("io.write_csv"))
    pool_capacity = sum((s.end - s.start) * s.workers for s in by_name["cli.parallel_map"])
    busy = sum(s.end - s.start for s in by_name["cli.parallel_map.item"])
    m["cli.parallel_map.busy_share"] = busy / pool_capacity if pool_capacity else 0.0
    m["modelfile.load_model.ms"] = median(self_ms("modelfile.load_model"))
    for layer in MEDIAN_LAYERS:
        m[f"{layer}.ms_p50"] = median(self_ms(layer))
    steps = [d * 1e3 for d in step_durations(spans)]
    m["train.step.ms_p50"] = median(steps)
    m["train.step.ms_p90"] = nearest_rank(steps, 900) if steps else 0.0
    m["train.step.calls"] = float(len(steps))
    for name, _ in PER_LAYER:
        if name.endswith(".calls") and name not in m:
            m[name] = float(len(by_name[name[:-len(".calls")]]))
    return m


def self_time_table(spans: Sequence[Span]) -> Dict[str, List[float]]:
    """Span name -> self times in seconds, for the human-readable report."""
    own = self_times(spans)
    table: Dict[str, List[float]] = defaultdict(list)
    for s in spans:
        table[s.name].append(own[s.id])
    return dict(table)
