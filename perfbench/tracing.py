"""Span recording for the traced benchmark run.

The traced run wraps the public functions of each ``repro`` layer from the
benchmark's side (nothing inside ``src/`` is instrumented).  A wrapper opens
a span on entry and closes it on exit; spans nest per thread, so a span's
*self* time is its duration minus the time covered by its child spans on the
same thread.  Spans stay in memory and are written out once, when the
benchmark ends.  Forked pool workers inherit the wrappers; each worker
writes its own spans to the spill directory as it exits, and the parent
merges them before computing the per-layer metrics.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import threading
import time
from multiprocessing import util as mp_util
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Tuple

clock = time.perf_counter

# One closed span: (pid, thread id, name, start, end, self seconds).
Span = Tuple[int, int, str, float, float, float]


class SpanRecorder:
    """Thread-safe in-memory span store with per-thread nesting."""

    def __init__(self, spill_dir: Path):
        self.spill_dir = Path(spill_dir)
        self.main_pid = os.getpid()
        self.main_tid = threading.get_ident()
        self._pid = self.main_pid
        self._lock = threading.Lock()
        self._local = threading.local()
        self.spans: List[Span] = []
        #: ``(label, value, time.time())`` events the analysis pairs up.
        self.marks: List[Tuple[str, object, float]] = []

    # ------------------------------------------------------------ recording
    def _stack(self) -> list:
        if os.getpid() != self._pid:
            self._become_worker()
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _become_worker(self) -> None:
        """First span in a forked child: drop the parent's copy, flush on exit."""
        self._pid = os.getpid()
        self._lock = threading.Lock()
        self._local = threading.local()
        self.spans = []
        # Pool workers leave through os._exit, which skips atexit; the
        # multiprocessing finalizer registry still runs on a clean exit.
        mp_util.Finalize(None, self.spill, exitpriority=10)

    def enter(self, name: str) -> list:
        frame = [name, clock(), 0.0]
        self._stack().append(frame)
        return frame

    def exit(self, frame: list) -> None:
        end = clock()
        stack = self._stack()
        stack.pop()
        duration = end - frame[1]
        if stack:
            stack[-1][2] += duration
        span = (os.getpid(), threading.get_ident(), frame[0], frame[1], end, duration - frame[2])
        with self._lock:
            self.spans.append(span)

    def mark(self, label: str, value) -> None:
        self.marks.append((label, value, time.time()))

    def span(self, name: str):
        """Context manager form, for the benchmark's own phases."""
        return _SpanContext(self, name)

    # ------------------------------------------------------------- workers
    def spill(self) -> None:
        """Write this worker's spans to the spill directory."""
        path = self.spill_dir / f"spans-{os.getpid()}.json"
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.spans, handle)

    def merge_worker_spans(self) -> int:
        """Fold every spilled worker file into :attr:`spans`; returns the count."""
        merged = 0
        for path in sorted(self.spill_dir.glob("spans-*.json")):
            with open(path, encoding="utf-8") as handle:
                worker_spans = [tuple(span) for span in json.load(handle)]
            self.spans.extend(worker_spans)
            merged += len(worker_spans)
            path.unlink()
        return merged

    def write(self, path: Path) -> None:
        """Write every span as one JSON line (pid, tid, name, start, end, self)."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


class _SpanContext:
    def __init__(self, recorder: SpanRecorder, name: str):
        self.recorder = recorder
        self.name = name

    def __enter__(self):
        self.frame = self.recorder.enter(self.name)
        return self

    def __exit__(self, *exc):
        self.recorder.exit(self.frame)
        return False


# --------------------------------------------------------------- wrapping
def _wrap(recorder: SpanRecorder, name, function: Callable) -> Callable:
    """``name`` is a span name or a callable ``(args) -> span name``."""
    choose = name if callable(name) else None

    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        frame = recorder.enter(choose(args) if choose else name)
        try:
            return function(*args, **kwargs)
        finally:
            recorder.exit(frame)

    wrapper.__perfbench_wrapped__ = function
    return wrapper


# A patch to undo: (owner, attribute, original value).
Patch = Tuple[object, str, Callable]


def wrap_method(recorder: SpanRecorder, cls: type, method: str, name) -> List[Patch]:
    """Wrap ``cls.method`` in place (only where ``cls`` defines it)."""
    function = cls.__dict__[method]
    setattr(cls, method, _wrap(recorder, name, function))
    return [(cls, method, function)]


def wrap_function(recorder: SpanRecorder, module, attribute: str, name: str) -> List[Patch]:
    """Wrap a module-level function and every ``from … import`` binding of it."""
    original = getattr(module, attribute)
    wrapped = _wrap(recorder, name, original)
    patches = []
    for loaded in list(sys.modules.values()):
        if getattr(loaded, "__name__", "").startswith("repro") and (
            getattr(loaded, attribute, None) is original
        ):
            setattr(loaded, attribute, wrapped)
            patches.append((loaded, attribute, original))
    return patches


def remove_wrappers(patches: List[Patch]) -> None:
    """Put back every original that :func:`install_layer_wrappers` replaced."""
    for owner, attribute, original in reversed(patches):
        setattr(owner, attribute, original)


def install_layer_wrappers(recorder: SpanRecorder) -> List[Patch]:
    """Wrap the public entry points of every ``repro`` layer; returns the patches."""
    from repro.core import conversion, group_deletion, rank_clipping
    from repro.core.groups import CrossbarGroupLasso
    from repro.experiments.graph import GraphExecution
    from repro.experiments.runner import SweepEngine
    from repro.experiments.store import RunStore
    from repro.hardware import routing
    from repro.hardware.mapper import NetworkMapper
    from repro.hardware.sim import ProgrammedNetwork
    from repro.nn.layers.conv import Conv2D
    from repro.nn.layers.linear import Linear
    from repro.nn.layers.lowrank_conv import LowRankConv2D
    from repro.nn.layers.lowrank_linear import LowRankLinear
    from repro.nn.layers.pooling import AvgPool2D, MaxPool2D
    from repro.nn.optim.base import Optimizer
    from repro.nn.regularization import GroupLassoRegularizer
    from repro.nn.trainer import Trainer
    from repro.scheduler.jobs import JobQueue
    from repro.scheduler.scheduler import JobScheduler
    from repro.serving.cache import ProgrammedNetworkCache
    from repro.serving.runtime import ServingRuntime

    patches: List[Patch] = []

    def map_points_name(args) -> str:
        if args[0].workers > 1:
            recorder.mark("pool_workers", args[0].workers)
            return "runner.map_points"
        return "runner.map_points.serial"

    def node_name(args) -> str:
        job = args[0].trace_context.get("job")
        if job is not None:
            recorder.mark("node_start", job)
        return "graph.node"

    def method(cls, attribute, name):
        patches.extend(wrap_method(recorder, cls, attribute, name))

    # nn: layers and kernels
    for cls, prefix in (
        (LowRankConv2D, "nn.lowrank_conv"),
        (Conv2D, "nn.conv"),
        (MaxPool2D, "nn.pool"),
        (AvgPool2D, "nn.pool"),
    ):
        method(cls, "forward", f"{prefix}.fwd")
        method(cls, "backward", f"{prefix}.bwd")
    for cls in (Linear, LowRankLinear):
        method(cls, "forward", "nn.linear")
        method(cls, "backward", "nn.linear")
    # nn.trainer and nn.optim
    method(Trainer, "train_step", "trainer.step")
    method(Trainer, "evaluate", "trainer.eval")
    method(Optimizer, "step", "optim.step")
    # core: group Lasso, rank clipping, group deletion
    for cls in (CrossbarGroupLasso, GroupLassoRegularizer):
        method(cls, "penalty", "core.group_lasso")
        method(cls, "apply_gradients", "core.group_lasso")
    patches += wrap_function(recorder, rank_clipping, "clip_layer_rank", "core.rank_clip")
    patches += wrap_function(recorder, group_deletion, "apply_deletion", "core.group_delete")
    patches += wrap_function(recorder, conversion, "convert_to_lowrank", "core.convert")
    # hardware: mapper, routing, sim
    method(NetworkMapper, "plan_matrix", "hardware.mapper.plan")
    method(routing.RoutingAnalysisCache, "analyze", "hardware.routing.analyze")
    patches += wrap_function(recorder, routing, "analyze_routing", "hardware.routing.analyze")
    method(ProgrammedNetwork, "__init__", "sim.program")
    method(ProgrammedNetwork, "predict", "sim.predict")
    # experiments: runner, graph, store
    method(SweepEngine, "map_points", map_points_name)
    method(rank_clipping.RankClipper, "run", "runner.point")
    method(group_deletion.GroupConnectionDeleter, "run", "runner.point")
    method(GraphExecution, "run_node", node_name)
    for attribute in ("save", "update", "append_journal", "clear_journal"):
        method(RunStore, attribute, "store.write")
    for attribute in ("load", "lookup_points", "lookup_baseline", "load_journal"):
        method(RunStore, attribute, "store.read")
    # scheduler
    method(JobQueue, "submit", "scheduler.submit")
    method(JobScheduler, "run", "scheduler.run")
    # serving
    method(ServingRuntime, "submit", "serving.submit")
    method(ProgrammedNetworkCache, "get", "serving.cache.get")
    return patches


# ---------------------------------------------------------------- analysis
def layer_totals(spans: Iterable[Span], *, pid: Optional[int] = None,
                 tid: Optional[int] = None) -> Dict[str, Dict[str, float]]:
    """Per-name ``calls`` / ``self_s`` / ``total_s`` over matching spans."""
    totals: Dict[str, Dict[str, float]] = {}
    for span_pid, span_tid, name, start, end, self_s in spans:
        if pid is not None and span_pid != pid:
            continue
        if tid is not None and span_tid != tid:
            continue
        entry = totals.setdefault(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
        entry["calls"] += 1
        entry["self_s"] += self_s
        entry["total_s"] += end - start
    return totals


def union_seconds(intervals: Iterable[Tuple[float, float]]) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    covered = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                covered += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        covered += current_end - current_start
    return covered
