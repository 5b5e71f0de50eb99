"""Explicit dependency-graph view of an experiment plan, and its executor.

:func:`build_graph` restructures a spec's :class:`~repro.experiments.plan.
ExperimentPlan` as a DAG of typed nodes — the shapes per kind::

    sweep / rank_clipping:   baseline ─► point:0 … point:N ─► assemble
    sweep / group_deletion:  baseline ─► clip ─► point:0 … point:N ─► assemble
    table1/3, figure3/5,
    baseline:                baseline ─► single:<kind> ─► assemble
    headline:                headline ─► assemble

Each node declares what it consumes and produces, so a scheduler
(:mod:`repro.scheduler`) can dispatch any *ready* node — and interleave
ready nodes of **different** specs — instead of running one spec's stages
as a hard-coded sequence.

:class:`GraphExecution` is the runtime.  It supports two execution modes
over the same node set:

* **batch mode** (:meth:`GraphExecution.run`, the :func:`~repro.experiments.
  plan.execute_spec` path): the point nodes execute as one engine stage —
  process fan-out, lockstep stacking, pool supervision, chaos injection all
  exactly as before.
* **node mode** (``run(node_mode=True)``, or ``start()`` /
  :meth:`GraphExecution.next_ready` / :meth:`GraphExecution.run_node`
  driven externally by the job scheduler): nodes execute one at a time.
  Point nodes still flow through the PR 7 resilience contract — the same
  :func:`~repro.experiments.resilience._serial_map` loop via
  :func:`~repro.experiments.resilience.supervised_slot`, with the batch
  path's slot numbering, retry policy, typed
  :class:`~repro.experiments.resilience.PointFailure` records, and journal
  appends — and finalize exactly like the journaled batch path (per-point
  evaluation + hardware simulation with a shared
  :class:`~repro.hardware.mapper.NetworkMapper`), which is documented and
  test-guarded bit-identical to the batched tail.  Strength sweeps thread
  one :class:`~repro.hardware.routing.RoutingAnalysisCache` across the
  job's point nodes in plan order (serial/lockstep specs) or give each
  node a private cache (parallel specs), so the assembled
  ``routing_cache_stats`` match the batch engine's exactly.

Both modes persist through the same content-addressed
:class:`~repro.experiments.store.RunStore` artifact merge, so a single-spec
graph run is bit-identical to the pre-graph ``execute_spec`` — the
acceptance test compares artifacts field by field.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.exceptions import ExperimentError, PointFailureError, RunInterrupted
from repro.experiments.headline import paper_headline_numbers
from repro.experiments.plan import (
    ExperimentContext,
    ExperimentPlan,
    ExperimentRun,
    PlanPoint,
    _merge_artifact,
    _resolve_workload,
    _run_hardware_stage,
    _run_strength_points,
    _run_tolerance_points,
    absorb_cache_stats,
    assemble_sweep_result,
    build_plan,
    build_single_result,
    build_strength_point,
    build_tolerance_point,
    make_strength_task,
    make_tolerance_task,
    prepare_strength_base,
    result_from_payload,
    result_to_payload,
    sweep_failure_payloads,
)
from repro.experiments.resilience import RunMonitor, supervised_slot
from repro.experiments.runner import run_strength_point, run_tolerance_point
from repro.experiments.spec import ExperimentSpec
from repro.experiments.training import train_baseline
from repro.hardware.mapper import NetworkMapper
from repro.obs import NULL_OBS, Observability
from repro.utils.logging import get_logger

logger = get_logger("experiments.graph")

#: Node kinds, in rough pipeline order.
NODE_KINDS = ("baseline", "clip", "point", "single", "headline", "assemble")

#: Node statuses.  Terminal: everything except "pending" and "running".
NODE_STATUSES = (
    "pending",
    "running",
    "done",
    "reused",
    "skipped",
    "failed",
    "cancelled",
)

#: Statuses that satisfy a downstream dependency unconditionally.
_SATISFIED = frozenset({"done", "reused", "skipped"})

#: Statuses a run can no longer leave.
_TERMINAL = frozenset({"done", "reused", "skipped", "failed", "cancelled"})


# ------------------------------------------------------------------- graph
@dataclass(frozen=True)
class GraphNode:
    """One typed unit of work with declared inputs and outputs.

    ``inputs`` are upstream node ids; ``consumes``/``produces`` name the
    values flowing along those edges (documentation + validation, the
    executor passes them in process).  Point-like nodes carry the
    :class:`~repro.experiments.plan.PlanPoint` they realize and its
    content fingerprint, which is what makes them individually resumable.
    """

    id: str
    kind: str
    label: str
    inputs: Tuple[str, ...] = ()
    consumes: Tuple[str, ...] = ()
    produces: Tuple[str, ...] = ()
    fingerprint: str = ""
    point: Optional[PlanPoint] = None

    def __post_init__(self):
        if self.kind not in NODE_KINDS:
            raise ExperimentError(
                f"unknown graph node kind {self.kind!r}; expected one of {NODE_KINDS}"
            )


@dataclass(frozen=True)
class ExperimentGraph:
    """A spec's plan as an explicit DAG of :class:`GraphNode` s."""

    spec: ExperimentSpec
    plan: ExperimentPlan
    nodes: Tuple[GraphNode, ...]

    def __post_init__(self):
        ids = [node.id for node in self.nodes]
        if len(ids) != len(set(ids)):
            raise ExperimentError(f"duplicate graph node ids in {sorted(ids)}")
        known = set(ids)
        for node in self.nodes:
            missing = [dep for dep in node.inputs if dep not in known]
            if missing:
                raise ExperimentError(
                    f"node {node.id!r} depends on unknown node(s) {missing}"
                )
        # Kahn topological order; nodes are authored in order, but validate
        # anyway so hand-built graphs fail loudly on cycles.
        order: List[str] = []
        satisfied: set = set()
        remaining = list(self.nodes)
        while remaining:
            progressed = [n for n in remaining if all(d in satisfied for d in n.inputs)]
            if not progressed:
                raise ExperimentError(
                    f"experiment graph has a cycle among {[n.id for n in remaining]}"
                )
            for node in progressed:
                order.append(node.id)
                satisfied.add(node.id)
            remaining = [n for n in remaining if n.id not in satisfied]
        object.__setattr__(self, "_topo", tuple(order))
        object.__setattr__(self, "_by_id", {node.id: node for node in self.nodes})

    # ------------------------------------------------------------- queries
    def node(self, node_id: str) -> GraphNode:
        """The node with id ``node_id``."""
        by_id: Dict[str, GraphNode] = getattr(self, "_by_id")
        if node_id not in by_id:
            raise ExperimentError(
                f"unknown graph node {node_id!r}; nodes: {list(by_id)}"
            )
        return by_id[node_id]

    def topological_order(self) -> Tuple[str, ...]:
        """Node ids in a valid execution order."""
        return getattr(self, "_topo")

    def dependents(self, node_id: str) -> List[str]:
        """Ids of the nodes that consume ``node_id``'s outputs."""
        return [node.id for node in self.nodes if node_id in node.inputs]

    def point_nodes(self) -> List[GraphNode]:
        """The resumable per-point nodes (kind point/single/headline)."""
        return [n for n in self.nodes if n.kind in ("point", "single", "headline")]

    def describe(self) -> str:
        """Multi-line rendering of the DAG for logs and ``status``."""
        lines = [
            f"{self.spec.name} [{self.plan.fingerprint}]: "
            f"{len(self.nodes)} node(s), {self.plan.execution} execution"
        ]
        for node in self.nodes:
            deps = f" <- {', '.join(node.inputs)}" if node.inputs else ""
            lines.append(f"  [{node.kind}] {node.id}: {node.label}{deps}")
        return "\n".join(lines)


def build_graph(spec: ExperimentSpec) -> ExperimentGraph:
    """Expand ``spec`` into its typed dependency graph."""
    plan = build_plan(spec)
    nodes: List[GraphNode] = []
    if spec.kind == "headline":
        point = plan.points[0]
        nodes.append(
            GraphNode(
                id="headline",
                kind="headline",
                label="paper headline numbers",
                produces=("result",),
                fingerprint=point.fingerprint,
                point=point,
            )
        )
        assemble_inputs: Tuple[str, ...] = ("headline",)
    else:
        nodes.append(
            GraphNode(
                id="baseline",
                kind="baseline",
                label=f"baseline[{spec.workload}@{spec.scale}]",
                produces=("workload", "setup", "network", "accuracy"),
                fingerprint=plan.baseline_fingerprint,
            )
        )
        if spec.kind == "sweep":
            point_inputs: Tuple[str, ...] = ("baseline",)
            consumes: Tuple[str, ...] = ("workload", "setup", "network")
            if spec.method == "group_deletion":
                nodes.append(
                    GraphNode(
                        id="clip",
                        kind="clip",
                        label=f"clip[eps={spec.tolerance:g}]",
                        inputs=("baseline",),
                        consumes=("workload", "setup", "network"),
                        produces=("clipped",),
                    )
                )
                point_inputs = ("baseline", "clip")
                consumes = ("workload", "setup", "clipped")
            for point in plan.points:
                nodes.append(
                    GraphNode(
                        id=f"point:{point.index}",
                        kind="point",
                        label=point.label,
                        inputs=point_inputs,
                        consumes=consumes,
                        produces=("point",),
                        fingerprint=point.fingerprint,
                        point=point,
                    )
                )
            assemble_inputs = tuple(f"point:{p.index}" for p in plan.points)
        else:
            point = plan.points[0]
            nodes.append(
                GraphNode(
                    id=f"single:{spec.kind}",
                    kind="single",
                    label=point.label,
                    inputs=("baseline",),
                    consumes=("workload", "setup", "network", "accuracy"),
                    produces=("result",),
                    fingerprint=point.fingerprint,
                    point=point,
                )
            )
            assemble_inputs = (f"single:{spec.kind}",)
    nodes.append(
        GraphNode(
            id="assemble",
            kind="assemble",
            label=f"assemble[{spec.name}]",
            inputs=assemble_inputs,
            consumes=("point",) if spec.kind == "sweep" else ("result",),
            produces=("artifact",),
        )
    )
    return ExperimentGraph(spec=spec, plan=plan, nodes=tuple(nodes))


# ---------------------------------------------------------------- execution
class GraphExecution:
    """Stateful executor for one spec's graph.

    Drive it either with :meth:`run` (batch or node mode, to completion) or
    externally — :meth:`start`, then :meth:`run_node` over
    :meth:`next_ready` until :meth:`finished` — which is how the job
    scheduler interleaves nodes of different specs.  ``observer`` (called
    as ``observer(node, status, detail)`` on every status change) is the
    per-node event stream.

    ``install_signals=False`` (the scheduler's worker threads) skips the
    SIGINT drain handler, which only the main thread may install.
    """

    def __init__(
        self,
        spec: ExperimentSpec,
        *,
        context: Optional[ExperimentContext] = None,
        store=None,
        resume: bool = True,
        strict: bool = False,
        observer: Optional[Callable[[GraphNode, str, str], None]] = None,
        install_signals: bool = True,
        obs: Optional[Observability] = None,
        trace_context: Optional[Dict[str, Any]] = None,
    ):
        self.spec = spec
        self.graph = build_graph(spec)
        self.plan = self.graph.plan
        self.context = context or ExperimentContext()
        self.store = store
        self.resume = resume
        self.strict = strict
        self.observer = observer
        self.install_signals = install_signals
        self.obs = obs if obs is not None else NULL_OBS
        #: Extra fields stamped onto every node trace record (the scheduler
        #: sets the job id here, plus the queue depth at each dispatch).
        #: Mutable-by-owner is safe: at most one node per execution is in
        #: flight, so the owner only writes between dispatches.
        self.trace_context: Dict[str, Any] = dict(trace_context or {})
        self.status: Dict[str, str] = {node.id: "pending" for node in self.graph.nodes}
        self.timings: Dict[str, float] = {}
        self.monitor: Optional[RunMonitor] = None
        self.run_result: Optional[ExperimentRun] = None
        self._started: Optional[float] = None
        self._stored_points: Dict[str, Dict[str, Any]] = {}
        self._pending: List[PlanPoint] = []
        self._slots: Dict[str, int] = {}
        self._computed: Dict[str, Any] = {}
        self._cache_stats: Dict[str, int] = {}
        self._workload = None
        self._setup = None
        self._network = None
        self._accuracy: Optional[float] = None
        self._baseline_info: Optional[Dict[str, Any]] = None
        self._clipped = None
        self._single_result: Any = None
        self._mapper: Optional[NetworkMapper] = None
        self._routing_cache = None
        self._points_elapsed = 0.0
        self._terminal_at: Dict[str, float] = {}
        self._node_elapsed: Dict[str, float] = {}
        self._journal_writes = 0

    # ------------------------------------------------------------- plumbing
    def _set_status(self, node_id: str, status: str, detail: str = "") -> None:
        self.status[node_id] = status
        if status in _TERMINAL:
            # Ready→dispatch latency of downstream nodes is measured from the
            # moment their last input became available.
            self._terminal_at[node_id] = time.perf_counter()
        if self.observer is not None:
            self.observer(self.graph.node(node_id), status, detail)

    def _workload_resolved(self):
        if self._workload is None:
            self._workload = _resolve_workload(self.spec, self.context)
        return self._workload

    def _thread_routing_cache(self) -> bool:
        """Whether point nodes share one routing-analysis cache in plan order.

        Matches the batch engine's accounting exactly: the serial points
        path and the lockstep path share one cache across the sweep (the
        totals are order-insensitive — same query set, same unique-key
        count), while the parallel path gives every worker a private cache.
        """
        return self.plan.execution != "parallel"

    def _journal(self, point_fingerprint: str, payload: Dict[str, Any]) -> None:
        if self.store is not None:
            self.store.append_journal(
                self.plan.fingerprint, point_fingerprint, payload
            )
            self._journal_writes += 1

    # ---------------------------------------------------------------- start
    def start(self) -> None:
        """Resolve resume state and mark reusable/skippable nodes.

        When a complete artifact short-circuits the whole run,
        ``run_result`` is set immediately and every node is ``reused``.
        """
        self._started = time.perf_counter()
        spec, plan = self.spec, self.plan
        if self.store is not None and (
            self.context.workload is not None
            or self.context.baseline_network is not None
        ):
            # Fingerprints hash only the spec; externally-supplied workloads
            # or pre-trained baselines are invisible to them, so persisting
            # (or resuming) such a run would poison the store with results
            # the spec cannot reproduce.
            raise ExperimentError(
                "execute_spec cannot combine a store with a context-supplied "
                "workload or baseline network: point fingerprints hash only "
                "the spec. Run without a store, or register the workload and "
                "let the spec resolve it."
            )
        artifact = self.store.load(plan.fingerprint) if self.store is not None else None
        if (
            self.resume
            and artifact is not None
            and artifact.get("complete")
            and artifact.get("result") is not None
        ):
            result = result_from_payload(spec, artifact["result"])
            logger.info("resumed complete artifact %s", plan.fingerprint)
            for node in self.graph.nodes:
                self._set_status(node.id, "reused", "complete artifact")
            self.run_result = ExperimentRun(
                spec=spec,
                fingerprint=plan.fingerprint,
                result=result,
                payload=artifact["result"],
                computed_points=0,
                reused_points=len(plan.points),
                duration_s=time.perf_counter() - self._started,
                artifact_path=self.store.path(plan.fingerprint),
                timings=dict(artifact.get("timings", {})),
            )
            return

        if self.store is not None and self.resume:
            self._stored_points = self.store.lookup_points(
                point.fingerprint for point in plan.points
            )
            wanted = {point.fingerprint for point in plan.points}
            for fingerprint, journaled in self.store.load_journal(
                plan.fingerprint
            ).items():
                if fingerprint in wanted and fingerprint not in self._stored_points:
                    self._stored_points[fingerprint] = journaled
        elif self.store is not None:
            # --fresh recomputes everything: stale mid-run progress included.
            self.store.clear_journal(plan.fingerprint)

        if spec.kind == "sweep":
            self.monitor = RunMonitor(strict=self.strict, obs=self.obs)
            if self.install_signals:
                self.monitor.install_sigint()
            self._pending = [
                point
                for point in plan.points
                if point.fingerprint not in self._stored_points
            ]
            self._slots = {
                point.fingerprint: slot for slot, point in enumerate(self._pending)
            }
            for point in plan.points:
                if point.fingerprint in self._stored_points:
                    self._set_status(f"point:{point.index}", "reused", "stored point")
            if not self._pending:
                self._set_status("baseline", "skipped", "every point stored")
                if "clip" in self.status:
                    self._set_status("clip", "skipped", "every point stored")
            elif self._stored_points:
                logger.info(
                    "resuming sweep %s: %d/%d points stored",
                    plan.fingerprint,
                    len(self._stored_points),
                    len(plan.points),
                )
        elif spec.kind != "headline":
            # The headline node always recomputes (it is pure arithmetic);
            # single kinds reuse their one stored point.
            point = plan.points[0]
            if point.fingerprint in self._stored_points:
                self._set_status(f"single:{spec.kind}", "reused", "stored point")
                self._set_status("baseline", "skipped", "stored point")

    # ------------------------------------------------------------ readiness
    def _dep_satisfied(self, dep_id: str) -> bool:
        status = self.status[dep_id]
        if status in _SATISFIED:
            return True
        # A failed or interrupted point still satisfies `assemble`: partial
        # sweeps assemble whatever finished, failures ride the artifact.
        return self.graph.node(dep_id).kind == "point" and status in (
            "failed",
            "cancelled",
        )

    def next_ready(self) -> Optional[str]:
        """The first pending node whose inputs are all satisfied."""
        for node_id in self.graph.topological_order():
            if self.status[node_id] != "pending":
                continue
            node = self.graph.node(node_id)
            if all(self._dep_satisfied(dep) for dep in node.inputs):
                return node_id
        return None

    def pending_nodes(self) -> List[str]:
        """Every node not yet in a terminal state."""
        return [
            node_id
            for node_id in self.graph.topological_order()
            if self.status[node_id] not in _TERMINAL
        ]

    def finished(self) -> bool:
        """True once every node reached a terminal status."""
        return all(status in _TERMINAL for status in self.status.values())

    def cancel_pending(self, detail: str = "job cancelled") -> List[str]:
        """Mark every pending node cancelled (scheduler-side job cancel)."""
        cancelled = []
        for node_id in self.graph.topological_order():
            if self.status[node_id] == "pending":
                self._set_status(node_id, "cancelled", detail)
                cancelled.append(node_id)
        return cancelled

    # ------------------------------------------------------------ run one
    def run_node(self, node_id: str) -> str:
        """Execute one ready node; returns its terminal status."""
        node = self.graph.node(node_id)
        if self.status[node_id] != "pending":
            raise ExperimentError(
                f"node {node_id!r} is {self.status[node_id]!r}, not pending"
            )
        unmet = [dep for dep in node.inputs if not self._dep_satisfied(dep)]
        if unmet:
            raise ExperimentError(f"node {node_id!r} has unmet dependencies {unmet}")
        dispatched = time.perf_counter()
        ready_at = max(
            (
                self._terminal_at[dep]
                for dep in node.inputs
                if dep in self._terminal_at
            ),
            default=self._started if self._started is not None else dispatched,
        )
        ready_wait = max(dispatched - ready_at, 0.0)
        journal_before = self._journal_writes
        if (
            node.kind == "point"
            and self.monitor is not None
            and self.monitor.interrupted
        ):
            # Mirror the batch loop: after an interrupt, unreached points
            # are simply never run; the partial artifact records the rest.
            self._set_status(node_id, "cancelled", "interrupted before start")
            self._emit_node_trace(node, "cancelled", dispatched, ready_wait, journal_before)
            return "cancelled"
        self._set_status(node_id, "running")
        try:
            if node.kind == "baseline":
                self._run_baseline(node)
                status = "done"
            elif node.kind == "clip":
                self._run_clip(node)
                status = "done"
            elif node.kind == "point":
                status = self._run_point(node)
            elif node.kind == "single":
                self._run_single(node)
                status = "done"
            elif node.kind == "headline":
                self._single_result = paper_headline_numbers()
                status = "done"
            elif node.kind == "assemble":
                self._run_assemble(node)
                status = "done"
            else:  # pragma: no cover - GraphNode validates kinds
                raise ExperimentError(f"cannot execute node kind {node.kind!r}")
        except RunInterrupted:
            # The assemble node persisted the partial artifact before
            # raising; the node itself succeeded.
            self._set_status(node_id, "done", "interrupted; partial artifact persisted")
            self._emit_node_trace(node, "done", dispatched, ready_wait, journal_before)
            raise
        except Exception as error:
            self._set_status(node_id, "failed", f"{type(error).__name__}: {error}")
            self._emit_node_trace(node, "failed", dispatched, ready_wait, journal_before)
            raise
        self._set_status(node_id, status)
        self._emit_node_trace(node, status, dispatched, ready_wait, journal_before)
        return status

    def _emit_node_trace(
        self,
        node: GraphNode,
        status: str,
        dispatched: float,
        ready_wait: float,
        journal_before: int,
    ) -> None:
        """Per-node metrics + NodeTrace record on every run_node exit."""
        if not self.obs.enabled:
            return
        elapsed = time.perf_counter() - dispatched
        self._node_elapsed[node.id] = elapsed
        self.obs.metrics.histogram("graph.node_s").observe(elapsed)
        self.obs.metrics.counter(f"graph.nodes.{status}").inc()
        if not self.obs.tracer.enabled:
            return
        attempts = 1
        if node.kind == "point" and self.monitor is not None:
            slot = self._slots.get(node.point.fingerprint)
            failure = self.monitor.failures.get(slot) if slot is not None else None
            if failure is not None:
                attempts = failure.attempts
        self.obs.tracer.emit(
            "node",
            run=self.plan.fingerprint,
            node=node.id,
            node_kind=node.kind,
            label=node.label,
            status=status,
            attempts=attempts,
            retries=attempts - 1,
            # Node mode runs points in supervised serial slots, never a
            # process pool, so rebuilds are structurally zero here (batch
            # mode pools do not flow through run_node).
            pool_rebuilds=0,
            journal_flushes=self._journal_writes - journal_before,
            ready_wait_s=ready_wait,
            elapsed_s=elapsed,
            **self.trace_context,
        )

    # -------------------------------------------------------------- stages
    def _run_baseline(self, node: GraphNode) -> None:
        workload = self._workload_resolved()
        setup = self.context.setup
        network = self.context.baseline_network
        accuracy = self.context.baseline_accuracy
        if network is None or setup is None:
            t0 = time.perf_counter()
            network, accuracy, setup = train_baseline(workload)
            self.timings["baseline_s"] = round(time.perf_counter() - t0, 6)
        elif accuracy is None and self.spec.kind != "figure5":
            accuracy = setup.evaluate(network)
        self._setup, self._network, self._accuracy = setup, network, accuracy
        self._baseline_info = {
            "fingerprint": self.plan.baseline_fingerprint,
            "accuracy": accuracy,
        }

    def _accumulate_points_time(self, t0: float, hardware_before: float) -> None:
        # The hardware-eval stage runs inside the node window but books its
        # own hardware_s entry; points_s stays pure training/evaluation time.
        self._points_elapsed += (
            time.perf_counter()
            - t0
            - (self.timings.get("hardware_s", 0.0) - hardware_before)
        )
        self.timings["points_s"] = round(self._points_elapsed, 6)

    def _run_clip(self, node: GraphNode) -> None:
        t0 = time.perf_counter()
        hardware_before = self.timings.get("hardware_s", 0.0)
        self._clipped = prepare_strength_base(
            self.spec, self._workload_resolved(), self._setup, self._network
        )
        self._accumulate_points_time(t0, hardware_before)

    def _run_single(self, node: GraphNode) -> None:
        self._single_result = build_single_result(
            self.spec,
            self._workload_resolved(),
            self._setup,
            self._network,
            self._accuracy,
            self.timings,
        )

    def _run_point(self, node: GraphNode) -> str:
        """One sweep point under the full resilience contract (node mode)."""
        spec = self.spec
        engine = spec.engine
        point = node.point
        workload = self._workload_resolved()
        slot = self._slots[point.fingerprint]
        t0 = time.perf_counter()
        hardware_before = self.timings.get("hardware_s", 0.0)
        prepare = absorb = None
        if spec.method == "rank_clipping":
            task = make_tolerance_task(
                spec, workload, self._setup, self._network, point
            )
            point_fn = run_tolerance_point
        else:
            task = make_strength_task(
                spec, workload, self._setup, self._clipped, point
            )
            point_fn = run_strength_point
            if self._thread_routing_cache():
                if self._routing_cache is None:
                    from repro.hardware.routing import RoutingAnalysisCache

                    self._routing_cache = RoutingAnalysisCache()
                cache = self._routing_cache

                def prepare(attempt_task, _cache=cache):
                    attempt_task.routing_cache_entries = _cache.export_entries()

                def absorb(outcome, _cache=cache):
                    _cache.merge_entries(outcome.routing_cache_entries)

        outcomes = supervised_slot(
            engine, point_fn, task, self.monitor, slot=slot,
            prepare=prepare, absorb=absorb,
        )
        if slot not in outcomes:
            self._accumulate_points_time(t0, hardware_before)
            if self.monitor.interrupted and slot not in self.monitor.failures:
                return "cancelled"
            failure = self.monitor.failures.get(slot)
            raise_detail = (
                f"{failure.error_type}: {failure.message}" if failure else "failed"
            )
            self._set_status(node.id, "failed", raise_detail)
            return "failed"
        outcome = outcomes[slot]
        if spec.method != "rank_clipping":
            absorb_cache_stats(self._cache_stats, outcome)
        # Finalize exactly like the journaled batch path: per-point
        # evaluation + simulation (bit-identical to the batched tail) and a
        # durable journal append before the node reports done.
        accuracy = engine.evaluate_networks([outcome.network], self._setup)[0]
        if self._mapper is None:
            self._mapper = NetworkMapper()
        hardware = _run_hardware_stage(
            spec, self._setup, [outcome.network], self.timings, mapper=self._mapper
        )[0]
        if spec.method == "rank_clipping":
            built = build_tolerance_point(workload, outcome, accuracy, hardware)
        else:
            built = build_strength_point(outcome, accuracy, hardware)
        self._computed[point.fingerprint] = built
        self._journal(point.fingerprint, built.to_payload())
        self._accumulate_points_time(t0, hardware_before)
        return "done"

    # ------------------------------------------------------------- assemble
    def _run_assemble(self, node: GraphNode) -> None:
        if self.monitor is not None:
            self.monitor.restore_sigint()
        spec, plan = self.spec, self.plan
        stored = self._stored_points
        failure_payloads: Dict[str, Dict[str, Any]] = {}
        if spec.kind == "sweep":
            monitor = self.monitor
            if (
                self._pending
                and monitor.failures
                and not self._computed
                and not stored
                and not monitor.interrupted
            ):
                first = monitor.ordered_failures()[0]
                raise PointFailureError(
                    "every sweep point failed; first failure: "
                    f"{first.label} ({first.error_type}: {first.message})"
                )
            if self._pending:
                accuracy = self._accuracy
            else:
                # Every point was stored: the baseline accuracy the result
                # quotes comes from the context, a stored baseline record,
                # or (only if material is at hand) a pure re-evaluation.
                accuracy = self.context.baseline_accuracy
                if accuracy is None and self.store is not None:
                    accuracy = self.store.lookup_baseline(plan.baseline_fingerprint)
                if (
                    accuracy is None
                    and self.context.setup is not None
                    and self.context.baseline_network is not None
                ):
                    accuracy = self.context.setup.evaluate(
                        self.context.baseline_network
                    )
                if accuracy is not None:
                    self._baseline_info = {
                        "fingerprint": plan.baseline_fingerprint,
                        "accuracy": accuracy,
                    }
            result = assemble_sweep_result(
                spec,
                plan,
                self._workload_resolved().name,
                accuracy,
                self._computed,
                stored,
                self._cache_stats,
            )
            payload = result_to_payload(spec, result)
            new_points = {
                fingerprint: built.to_payload()
                for fingerprint, built in self._computed.items()
            }
            failure_payloads = sweep_failure_payloads(plan, stored, monitor)
        elif spec.kind == "headline":
            result = self._single_result
            payload = result_to_payload(spec, result)
            new_points = {plan.points[0].fingerprint: payload}
        else:
            point = plan.points[0]
            if point.fingerprint in stored:
                payload = stored[point.fingerprint]
                result = result_from_payload(spec, payload)
                new_points = {}
            else:
                result = self._single_result
                payload = result_to_payload(spec, result)
                new_points = {point.fingerprint: payload}

        duration = time.perf_counter() - self._started
        self.timings["total_s"] = round(duration, 6)
        observability = None
        if self.obs.enabled:
            # Non-fingerprinted stage/node time breakdown for show/compare.
            # None when observability is off, so the artifact is bit-identical
            # to an uninstrumented run.
            observability = {
                "stage_timings": dict(self.timings),
                "nodes": {
                    node_id: round(elapsed, 6)
                    for node_id, elapsed in sorted(self._node_elapsed.items())
                },
            }
        artifact_path = None
        if self.store is not None:
            def merge(existing, _new=new_points, _payload=payload):
                return _merge_artifact(
                    existing,
                    spec,
                    plan,
                    stored,
                    _new,
                    _payload,
                    self._baseline_info,
                    self.timings,
                    failure_payloads,
                    observability=observability,
                )

            artifact_path, artifact = self.store.update(plan.fingerprint, merge)
            if artifact.get("complete"):
                # Every journaled point now lives in the artifact proper.
                self.store.clear_journal(plan.fingerprint)
        if self.monitor is not None and self.monitor.interrupted:
            where = (
                f"partial artifact {artifact_path}"
                if artifact_path is not None
                else "no store attached; unpersisted progress was discarded"
            )
            error = RunInterrupted(f"run {plan.fingerprint} interrupted ({where})")
            error.fingerprint = plan.fingerprint
            error.artifact_path = artifact_path
            raise error
        self.run_result = ExperimentRun(
            spec=spec,
            fingerprint=plan.fingerprint,
            result=result,
            payload=payload,
            computed_points=len(new_points),
            reused_points=len(stored),
            duration_s=duration,
            artifact_path=artifact_path,
            timings=self.timings,
            failures=self.monitor.ordered_failures() if self.monitor is not None else [],
        )

    # ------------------------------------------------------------ batch mode
    def _run_batch(self) -> None:
        """The execute_spec path: point nodes run as one engine stage.

        Process fan-out, lockstep stacking, pool supervision and chaos
        injection behave exactly as before the graph existed — the stage
        functions are shared with the legacy executor verbatim.
        """
        spec, plan = self.spec, self.plan
        if spec.kind == "headline":
            self.run_node("headline")
        elif spec.kind == "sweep":
            if self._pending:
                self.run_node("baseline")
                journal = self._journal if self.store is not None else None
                hardware_before = self.timings.get("hardware_s", 0.0)
                t0 = time.perf_counter()
                if spec.method == "rank_clipping":
                    computed = _run_tolerance_points(
                        spec,
                        self._workload_resolved(),
                        self._setup,
                        self._network,
                        self._pending,
                        self.timings,
                        self.monitor,
                        journal,
                    )
                else:
                    self.run_node("clip")
                    computed, self._cache_stats = _run_strength_points(
                        spec,
                        self._workload_resolved(),
                        self._setup,
                        self._clipped,
                        self._pending,
                        self.timings,
                        self.monitor,
                        journal,
                    )
                self._computed.update(computed)
                self.timings["points_s"] = round(
                    time.perf_counter()
                    - t0
                    - (self.timings.get("hardware_s", 0.0) - hardware_before),
                    6,
                )
                for slot, point in enumerate(self._pending):
                    node_id = f"point:{point.index}"
                    if point.fingerprint in computed:
                        self._set_status(node_id, "done")
                    elif slot in self.monitor.failures:
                        failure = self.monitor.failures[slot]
                        self._set_status(
                            node_id,
                            "failed",
                            f"{failure.error_type}: {failure.message}",
                        )
                    else:
                        self._set_status(node_id, "cancelled", "interrupted")
        else:
            node_id = f"single:{spec.kind}"
            if self.status[node_id] == "pending":
                self.run_node("baseline")
                self.run_node(node_id)
        self.run_node("assemble")

    # ------------------------------------------------------------------ run
    def run(self, *, node_mode: bool = False) -> ExperimentRun:
        """Execute the whole graph and return the run record."""
        self.start()
        if self.run_result is not None:
            return self.run_result
        try:
            if node_mode:
                while not self.finished():
                    node_id = self.next_ready()
                    if node_id is None:  # pragma: no cover - DAG is validated
                        raise ExperimentError(
                            "graph deadlock: no ready node among "
                            f"{self.pending_nodes()}"
                        )
                    self.run_node(node_id)
            else:
                self._run_batch()
        finally:
            if self.monitor is not None:
                self.monitor.restore_sigint()
        return self.run_result


def run_graph(
    spec: ExperimentSpec,
    *,
    context: Optional[ExperimentContext] = None,
    store=None,
    resume: bool = True,
    strict: bool = False,
    observer: Optional[Callable[[GraphNode, str, str], None]] = None,
    node_mode: bool = False,
    install_signals: bool = True,
    obs: Optional[Observability] = None,
    trace_context: Optional[Dict[str, Any]] = None,
) -> ExperimentRun:
    """Run one spec through its graph (the ``execute_spec`` implementation)."""
    execution = GraphExecution(
        spec,
        context=context,
        store=store,
        resume=resume,
        strict=strict,
        observer=observer,
        install_signals=install_signals,
        obs=obs,
        trace_context=trace_context,
    )
    return execution.run(node_mode=node_mode)
