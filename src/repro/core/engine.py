"""The ECA engine (Sec. 4 of the paper).

The engine "controls the evaluation of a rule, i.e., when to evaluate
which rule component, and keeps the state information during the
evaluation":

1. On registration, a rule's event component is handed to the GRH, which
   routes it to the appropriate event-detection service (Fig. 5).
2. A detection arriving from an event service starts the rule
   evaluation: the engine creates a rule *instance* whose state is the
   relation of variable-binding tuples from the detection (Fig. 6).
   The detections one event completes arrive together, as a *group*.
3. Query components are evaluated in order via the GRH; their
   contribution is joined with the instance's relation (``eca:variable``
   components arrive pre-extended, LP-style components are joined here —
   Figs. 7–11).  An instance whose relation becomes empty dies.
4. The test component filters the relation (locally by default,
   Sec. 4.5).
5. Each action component is executed once per surviving tuple, via the
   GRH.  The instances of one group each run steps 2–4 alone; their
   actions then leave together, one message per language per round
   (PROTOCOL.md §7).

Every instance keeps a trace of its relation after each step — the
tables of Figs. 6(2), 8(3), 9(4) and 11 fall out of this trace.
"""

from __future__ import annotations

import itertools
import threading
from collections import deque
from dataclasses import dataclass, field
from typing import Sequence

from ..bindings import Relation
from ..conditions import TEST_NS, TestExpression
from ..grh import (ActionExecutionError, ActionSlot, Detection,
                   GenericRequestHandler, GRHError)
from ..obs.trace import bind_span
from ..runtime import Runtime
from ..xmlmodel import Element, serialize
from .markup import parse_rule, rule_to_xml
from .model import ECARule
from .validation import validate_rule

__all__ = ["ECAEngine", "RuleInstance", "EngineError"]


class EngineError(RuntimeError):
    """Raised for unknown rules and registration problems."""


@dataclass
class RuleInstance:
    """One evaluation of one rule, triggered by one detection."""

    instance_id: int
    rule_id: str
    relation: Relation
    status: str = "running"      # running | completed | dead | failed
    error: str | None = None
    actions_executed: int = 0
    trace: list[tuple[str, Relation]] = field(default_factory=list)
    #: payloads of the event sequence that triggered this instance
    triggering_events: tuple = ()

    def record(self, stage: str, relation: Relation) -> None:
        self.trace.append((stage, relation))
        self.relation = relation

    def trace_table(self) -> str:
        """The instance's evaluation trace as Fig. 6-11-style tables."""
        blocks = []
        for stage, relation in self.trace:
            blocks.append(f"-- after {stage} --\n{relation.sorted().to_table()}")
        return "\n".join(blocks)

    def to_xml(self) -> Element:
        """An audit report of this instance as XML.

        Contains the outcome, the triggering event sequence and the
        relation after every evaluation stage — a machine-readable
        counterpart of :meth:`trace_table`, suitable for monitoring UIs
        or archiving next to the rule in a repository.
        """
        from ..bindings import relation_to_answers
        from ..xmlmodel import LOG_NS, QName, Text
        report = Element(QName(LOG_NS, "instance"),
                         {QName(None, "id"): str(self.instance_id),
                          QName(None, "rule"): self.rule_id,
                          QName(None, "status"): self.status,
                          QName(None, "actions"):
                          str(self.actions_executed)},
                         nsdecls={"log": LOG_NS})
        if self.error:
            error_element = Element(QName(LOG_NS, "error"))
            error_element.append(Text(self.error))
            report.append(error_element)
        if self.triggering_events:
            events_element = Element(QName(LOG_NS, "events"))
            for payload in self.triggering_events:
                events_element.append(payload.copy())
            report.append(events_element)
        for stage, relation in self.trace:
            stage_element = Element(QName(LOG_NS, "stage"),
                                    {QName(None, "name"): stage})
            stage_element.append(relation_to_answers(relation.sorted()))
            report.append(stage_element)
        return report


@dataclass
class _RegisteredRule:
    rule: ECARule
    event_component_id: str


class _Run:
    """One instance of a group on its way through the engine: its rule,
    the detection that started it, its trace root (``None`` untraced)
    and the failure that ended it, if any."""

    __slots__ = ("rule", "instance", "detection", "root", "failure")

    def __init__(self, rule: ECARule, instance: RuleInstance,
                 detection: Detection, root) -> None:
        self.rule = rule
        self.instance = instance
        self.detection = detection
        self.root = root
        self.failure: GRHError | None = None


class ECAEngine:
    """Evaluates registered ECA rules over detections from the GRH."""

    def __init__(self, grh: GenericRequestHandler, validate: bool = True,
                 evaluate_tests_locally: bool = True,
                 keep_instances: bool = True,
                 max_kept_instances: int | None = None,
                 max_instances_per_rule: int | None = None,
                 durability=None, observability=None,
                 runtime=None) -> None:
        self.grh = grh
        #: the :class:`repro.runtime.Runtime` scheduling every detection.
        #: ``None`` (the default) builds ``Runtime(workers=0)``: each
        #: detection is evaluated on the thread that delivers it, one at
        #: a time — the seed semantics.  With lanes, detections hash to
        #: a fixed shard and rule instances evaluate concurrently; call
        #: :meth:`drain` to quiesce and :meth:`shutdown` when done.
        if runtime is None:
            runtime = Runtime(workers=0)
        self.runtime = runtime
        self.validate = validate
        self.evaluate_tests_locally = evaluate_tests_locally
        self.keep_instances = keep_instances
        #: retention cap for finished instances (None = unbounded); the
        #: oldest are dropped first so a long-running engine stays flat
        self.max_kept_instances = max_kept_instances
        #: per-rule retention cap for :meth:`instances_of` (None =
        #: unbounded); evicted instances still count in ``stats`` and
        #: in the metrics derived from it
        self.max_instances_per_rule = max_instances_per_rule
        #: a :class:`repro.durability.DurabilityManager`, or ``None``
        #: (the default — no journaling, the seed behavior).  For
        #: resuming an existing durability directory use
        #: :meth:`ECAEngine.recover`, which also rebuilds the rule table
        #: and re-drives unfinished work.
        self.durability = durability
        #: a :class:`repro.obs.Observability`, or ``None`` (the default
        #: — no tracing, no metrics, near-zero overhead).  ``_obs`` is
        #: the hot-path handle: ``None`` unless observability is both
        #: present and enabled, so instrumentation costs one ``is not
        #: None`` check per site when off.
        self.observability = observability
        self._obs = observability if (observability is not None
                                      and observability.enabled) else None
        self.rules: dict[str, _RegisteredRule] = {}
        self.instances: list[RuleInstance] = []
        self._instances_by_rule: dict[str, deque] = {}
        self._by_component: dict[str, str] = {}
        self._instance_counter = itertools.count(1)
        #: guards ``stats``: worker threads bump counters concurrently
        self._stats_lock = threading.Lock()
        #: guards the retained-instance list and per-rule buckets
        self._retain_lock = threading.Lock()
        #: serializes replay_dead_letters() calls: concurrent replays
        #: would interleave their deterministic letter orders
        self._replay_lock = threading.Lock()
        #: ``[detection, attempts, instance]`` while a replay re-drives a
        #: parked detection (under ``_replay_lock``): ``_start`` fills in
        #: the instance *that* detection starts, not a chained or
        #: concurrent one, and a failure re-parks it with ``attempts + 1``
        self._replay_slot: list | None = None
        self.stats = {"detections": 0, "instances": 0, "completed": 0,
                      "dead": 0, "failed": 0, "actions": 0, "evicted": 0}
        #: readiness for ``GET /readyz`` (repro.obs.ops.admin): a fresh
        #: engine — or one resuming a directory with nothing in flight —
        #: is ready immediately; an engine built over journaled
        #: unfinished work is NOT ready until :meth:`recover` has
        #: replayed it, so load balancers hold traffic while
        #: exactly-once replay is still pending
        self.ready = durability is None or not durability.state.in_flight
        if durability is not None:
            # continue counters and stats where the journal left off
            self._instance_counter = itertools.count(
                durability.state.max_instance + 1)
            for key, value in durability.state.stats.items():
                if key in self.stats:
                    self.stats[key] = value
            durability.attach(self)
        # attach before observability installs so the runtime is fully
        # built by the time install() registers the runtime metric
        # callbacks; no
        # detection can arrive until on_detection below
        runtime.attach(self)
        if self._obs is not None:
            self._obs.install(self)
        grh.on_detection(self._on_detection)

    # -- crash recovery ------------------------------------------------------

    @classmethod
    def recover(cls, grh: GenericRequestHandler, directory: str, *,
                repository=None, sync: str = "always",
                checkpoint_interval: int = 1000, replay: bool = True,
                manager=None, **engine_options) -> "ECAEngine":
        """Rebuild an engine from a durability directory after a crash.

        Folds ``checkpoint.json`` + ``wal.log`` (see
        ``repro.durability``), then:

        1. re-registers every journaled rule — loaded from *repository*
           (the authoritative Semantic-Web store) when it holds the
           rule, else re-parsed from the journaled ECA-ML source — with
           *idempotent* event registration, so a detection service that
           survived the crash and still holds the registration is not
           an error;
        2. restores the dead-letter queue exactly as journaled;
        3. re-drives every journaled-but-unfinished detection under its
           original instance id, skipping action executions whose
           idempotency keys were journaled (exactly-once effects);
        4. compacts: takes a checkpoint so the next crash recovers from
           a short journal.

        Pass ``replay=False`` to inspect recovered state without
        re-driving work (step 3 and 4 are skipped); pass a pre-built
        ``manager`` to control journalling details (crash-injection
        tests use this).
        """
        if manager is None:
            from ..durability import DurabilityManager
            manager = DurabilityManager(
                directory, sync=sync,
                checkpoint_interval=checkpoint_interval)
        engine = cls(grh, durability=manager, **engine_options)
        state = manager.state
        log = engine._obs.log if engine._obs is not None else None
        if log is not None:
            log.info("engine.recovery.started", directory=directory,
                     rules=len(state.rules),
                     in_flight=len(state.in_flight),
                     dead_letters=len(state.dead_letters))
        for rule_id, source in state.rules.items():
            rule = None
            if repository is not None:
                try:
                    rule = repository.load(rule_id)
                except Exception:
                    rule = None
            if rule is None:
                rule = parse_rule(source)
            engine._register_recovered(rule)
        grh.resilience.dead_letters.restore(state.dead_letters.values())
        if replay:
            engine._replay_in_flight()
            manager.checkpoint()
            # replay re-drove (or closed) everything journaled: the
            # engine can now take live traffic without risking double
            # effects — /readyz flips 503 → 200 here
            engine.ready = True
            if log is not None:
                log.info("engine.recovery.completed",
                         rules=len(engine.rules),
                         instances=engine.stats["instances"])
        return engine

    def _replay_in_flight(self) -> None:
        """Re-drive detections that were journaled but never finished.

        Detections whose dead letter was parked before the crash are
        closed as failed instead — their remediation already sits in
        the queue, and re-driving them would park a duplicate letter —
        and counted as the uncrashed run counted them.
        """
        from ..durability.codec import decode_detection
        manager = self.durability
        state = manager.state
        runtime = self.runtime
        # replay runs on this thread, by priority, even with lanes
        # running; rule chaining during it may route follow-on
        # detections to the lanes, so quiesce before the post-recovery
        # checkpoint snapshots state
        with runtime.batch(here=True):
            for det_id, entry in list(state.in_flight.items()):
                if entry.parked:
                    actions = state.credited(entry.instance_id)
                    manager.detection_done(det_id, "failed",
                                           entry.instance_id, actions)
                    for key, n in (("detections", 1), ("instances", 1),
                                   ("failed", 1), ("actions", actions)):
                        self._bump(key, n)
                    continue
                detection = decode_detection(entry.data)
                runtime.submit(detection, self._priority_of(detection),
                               here=True)
        runtime.drain()

    # -- rule lifecycle ------------------------------------------------------

    def register_rule(self, rule: ECARule | Element | str,
                      idempotent: bool = False) -> str:
        """Register a rule; its event component is routed to its service.

        Accepts a parsed :class:`ECARule`, an ECA-ML element, or markup
        text.  Returns the rule id.

        ``idempotent=True`` tolerates a detection service that already
        holds the event registration (it survived an engine crash that
        lost the rule before journaling) — setup code re-run after
        recovery should pass it.
        """
        if not isinstance(rule, ECARule):
            rule = parse_rule(rule)
        if rule.rule_id in self.rules:
            raise EngineError(f"rule {rule.rule_id!r} is already registered")
        if self.validate:
            validate_rule(rule)
        component_id = f"{rule.rule_id}::event"
        self.grh.register_event_component(component_id, rule.event,
                                          idempotent=idempotent)
        self.rules[rule.rule_id] = _RegisteredRule(rule, component_id)
        self._by_component[component_id] = rule.rule_id
        if self.durability is not None:
            source = rule.source if rule.source is not None \
                else rule_to_xml(rule)
            self.durability.record_rule_registered(rule.rule_id,
                                                   serialize(source))
            if not self.runtime.caller_busy:
                self.durability.maybe_checkpoint()
        return rule.rule_id

    def register_and_store(self, rule: ECARule | Element | str,
                           repository) -> str:
        """Store a rule in a repository and register it, atomically.

        Storing first and registering second would leave the rule
        persisted but inert if the service-side event registration
        fails; this helper rolls the repository insert back on *any*
        registration failure, so repository and engine never disagree.
        Returns the rule id.
        """
        if not isinstance(rule, ECARule):
            rule = parse_rule(rule)
        repository.store(rule)
        try:
            return self.register_rule(rule)
        except BaseException:
            # roll back the triple insert — including on validation
            # errors and engine-duplicate errors, not only GRH failures
            repository.remove(rule.rule_id)
            raise

    def _register_recovered(self, rule: ECARule) -> None:
        """Re-wire one recovered rule without journaling it again.

        The event component is re-registered *idempotently*: a surviving
        detection service that still holds the registration answers
        "already registered", which recovery treats as success.
        """
        if rule.rule_id in self.rules:
            return
        component_id = f"{rule.rule_id}::event"
        self.grh.register_event_component(component_id, rule.event,
                                          idempotent=True)
        self.rules[rule.rule_id] = _RegisteredRule(rule, component_id)
        self._by_component[component_id] = rule.rule_id

    def deregister_rule(self, rule_id: str) -> None:
        if rule_id not in self.rules:
            raise EngineError(f"unknown rule {rule_id!r}")
        registered = self.rules[rule_id]
        # unregister on the event service FIRST: if that send fails, the
        # engine still knows the rule — popping local state first would
        # leave a live service-side registration whose detections the
        # engine silently drops
        self.grh.unregister_event_component(registered.event_component_id,
                                            registered.rule.event)
        self.rules.pop(rule_id)
        self._by_component.pop(registered.event_component_id, None)
        if self.durability is not None:
            self.durability.record_rule_deregistered(rule_id)
            if not self.runtime.caller_busy:
                self.durability.maybe_checkpoint()

    # -- detection handling (Fig. 6) --------------------------------------------

    def _bump(self, key: str, n: int = 1) -> None:
        """Increment one stats counter under the stats lock.

        Worker threads of a concurrent runtime finish instances at the
        same time; a plain ``stats[k] += 1`` loses increments under
        contention.  The single-threaded path pays one uncontended lock
        acquisition per bump.
        """
        with self._stats_lock:
            self.stats[key] = self.stats.get(key, 0) + n

    def _on_detection(self, detections: Sequence[Detection]) -> None:
        """Hand one feed's detections to the runtime, as one group.

        The runtime's queue makes rule chaining safe: an action that
        raises an event triggers detections *during* action execution;
        they are processed after the current group finishes instead of
        recursing.  Among queued detections, higher-priority rules go
        first (FIFO within a priority level).

        A durable engine journals each detection before queueing it and
        drops at-least-once redelivery (a detection id it has already
        journaled) — "exactly-once detection replay".

        With lanes running, the runtime hashes each detection to a fixed
        shard and applies its backpressure policy.  A ``reject``-policy
        runtime at capacity raises
        :class:`repro.runtime.BackpressureError` to the producer; the
        refused detections are journalled as ``dropped`` first so a
        crash cannot resurrect work the engine refused.
        """
        durability = self.durability
        if durability is not None:
            detections = [admitted for detection in detections
                          if (admitted := durability.admit(detection))
                          is not None]
            if not detections:
                return  # duplicate delivery of known detection ids
        self.runtime.submit_group(
            detections, [self._priority_of(detection)
                         for detection in detections])

    def _discard(self, detection: Detection) -> None:
        """Close the durable record of a detection shed by backpressure."""
        if self.durability is not None and detection.detection_id is not None:
            self.durability.detection_done(detection.detection_id, "dropped")

    def batch(self):
        """Context manager deferring detection processing until exit.

        Inside the block, detections are only queued; at exit they are
        evaluated highest-priority-first.  Without batching, detections
        are processed synchronously as they arrive, so rule priorities
        only order detections that queue up *during* an evaluation
        (e.g. via rule chaining)::

            with engine.batch():
                stream.emit(event)      # triggers several rules
            # here, all triggered rules have run, by priority

        With lanes running the block is a quiesce point instead:
        detections route to the lanes as they arrive, and exit blocks
        until the runtime has drained — the post-condition ("all
        triggered rules have run") holds either way.
        """
        return self.runtime.batch()

    def drain(self, timeout: float | None = None) -> bool:
        """Quiesce: block until every queued detection has been handled.

        With lanes running this waits for all shard queues to empty and
        all lanes to go idle, then runs the durability commit barrier;
        without, it runs the queue on this thread.  Returns ``True`` once
        idle, ``False`` if *timeout* (seconds) elapsed first.
        """
        return self.runtime.drain(timeout)

    def shutdown(self, timeout: float | None = None) -> bool:
        """Drain and stop the runtime's lanes, then release the GRH's
        background resources: the health prober thread, the hedge
        executor, and the transport's connection pools — a finished test
        run or process leaves no threads behind (PROTOCOL.md §12).

        Returns ``True`` when the runtime quiesced within *timeout*.
        The engine remains usable afterwards, evaluating on the thread
        that delivers each detection (pools rebuild on demand; hedging
        and probing stay off).
        """
        quiesced = self.runtime.shutdown(timeout)
        self.grh.close()
        return quiesced

    def _priority_of(self, detection: Detection) -> int:
        rule_id = self._by_component.get(detection.component_id)
        if rule_id is None or rule_id not in self.rules:
            return 0
        return self.rules[rule_id].rule.priority

    def _handle(self, detection: Detection,
                waited: float | None = None) -> None:
        """Evaluate one detection; *waited* is the seconds it sat in a
        lane's queue (``None`` when it did not wait on one)."""
        self._handle_group((detection,), waited)

    def _handle_group(self, detections: Sequence[Detection],
                      waited: float | None = None) -> None:
        """Evaluate one group: each detection is its own instance through
        Event → Query → Test, then the survivors' actions leave round by
        round, one message per language (PROTOCOL.md §7)."""
        counts = dict.fromkeys(("detections", "instances", "completed",
                                "dead", "failed", "actions"), 0)
        runs: list[_Run] = []
        obs = self._obs
        outer = obs.tracer.current() if obs is not None else None
        try:
            for detection in detections:
                run = self._start(detection, waited, counts)
                if run is not None:
                    runs.append(run)
                    self._evaluate_conditions(run, counts)
                    if obs is not None:
                        bind_span(outer)
            self._execute_actions(runs, counts)
        finally:
            if obs is not None:
                for run in runs:
                    self._finish_trace(obs, run)
                bind_span(outer)
            with self._stats_lock:
                stats = self.stats
                for key, value in counts.items():
                    if value:
                        stats[key] += value
        durability = self.durability
        for run in runs:
            failure = run.failure
            if failure is not None and not isinstance(failure,
                                                      ActionExecutionError):
                # park the detection for replay_dead_letters(); action-
                # phase failures are dead-lettered by the GRH instead,
                # as the unexecuted suffix of the action's relation
                # (replaying the whole detection would re-run executed
                # actions)
                slot = self._replay_slot
                self.grh.dead_letter_detection(
                    run.detection, failure,
                    slot[1] + 1 if slot is not None
                    and slot[0] is run.detection else 1)
            if durability is not None:
                instance = run.instance
                durability.detection_done(run.detection.detection_id,
                                          instance.status,
                                          instance.instance_id,
                                          instance.actions_executed)

    def _start(self, detection: Detection, waited: float | None,
               counts: dict) -> _Run | None:
        """Create the instance of one detection (Fig. 6); ``None`` when
        its rule is gone."""
        durability = self.durability
        rule_id = self._by_component.get(detection.component_id)
        if rule_id is None:
            # a rule deregistered while detections were in flight
            if durability is not None and detection.detection_id is not None:
                durability.detection_done(detection.detection_id, "dropped")
            return None
        counts["detections"] += 1
        rule = self.rules[rule_id].rule
        if durability is not None:
            # a crash-replayed detection reuses its journaled instance
            # id so idempotency keys stay stable across the replay
            instance_id = durability.instance_for(detection,
                                                  self._instance_counter)
        else:
            instance_id = next(self._instance_counter)
        # "The ECA engine creates one or more instances of the rule with
        # appropriate variable bindings according to the number of answer
        # elements in the message" — one instance per detection message,
        # holding all its answer tuples.
        instance = RuleInstance(instance_id, rule_id,
                                detection.bindings,
                                triggering_events=detection.events)
        instance.record("event", detection.bindings)
        counts["instances"] += 1
        if self.keep_instances:
            self._retain(instance)
        slot = self._replay_slot
        if slot is not None and slot[0] is detection:
            slot[2] = instance
        obs = self._obs
        root_span = None
        if obs is not None:
            # the rule instance is the trace root; the event phase is a
            # closed child carrying the detection that started it all
            root_span = obs.tracer.begin(
                "rule", {"rule": rule_id, "instance": instance_id},
                parent=None)
            if waited:
                # time the detection sat in the runtime queue before a
                # lane picked it up — part of the instance's latency
                # budget even though the instance had not started yet
                root_span.set_attribute("queue_wait", waited)
            event_span = obs.begin_phase("event", detection.component_id)
            event_span.set_attribute("tuples", len(detection.bindings))
            obs.end_phase("event", event_span)
        return _Run(rule, instance, detection, root_span)

    def _finish_trace(self, obs, run: _Run) -> None:
        """Close an instance's trace root, which hands its trace over."""
        instance = run.instance
        root_span = run.root
        bind_span(root_span)
        root_span.set_attribute("status", instance.status)
        log = obs.log
        if log is not None:
            # emitted before the root finishes so the record carries the
            # instance's trace/span/rule context
            emit = log.warning if instance.status == "failed" else log.info
            emit("engine.instance.finished", status=instance.status,
                 actions=instance.actions_executed,
                 **({"error": instance.error} if instance.error else {}))
        obs.tracer.finish(
            root_span, status="error" if instance.status == "failed"
            else "ok")

    def _retain(self, instance: RuleInstance) -> None:
        """Keep an instance for introspection, enforcing both caps.

        The global list and the per-rule buckets are subsequences of the
        same creation order, so the globally oldest instance is always
        the front of its own rule's bucket — eviction stays O(evicted).
        Guarded by ``_retain_lock``: concurrent workers retain (and
        evict) at the same time.
        """
        with self._retain_lock:
            self._retain_locked(instance)

    def _retain_locked(self, instance: RuleInstance) -> None:
        self.instances.append(instance)
        bucket = self._instances_by_rule.get(instance.rule_id)
        if bucket is None:
            bucket = self._instances_by_rule[instance.rule_id] = deque()
        bucket.append(instance)
        evicted = 0
        if self.max_instances_per_rule is not None and \
                len(bucket) > self.max_instances_per_rule:
            oldest = bucket.popleft()
            try:
                self.instances.remove(oldest)
            except ValueError:
                pass
            evicted += 1
        if self.max_kept_instances is not None and \
                len(self.instances) > self.max_kept_instances:
            overflow = len(self.instances) - self.max_kept_instances
            for old in self.instances[:overflow]:
                old_bucket = self._instances_by_rule.get(old.rule_id)
                if old_bucket and old_bucket[0] is old:
                    old_bucket.popleft()
            del self.instances[:overflow]
            evicted += overflow
        if evicted:
            self._bump("evicted", evicted)

    # -- instance evaluation (Figs. 7-11) ----------------------------------------------

    def _evaluate_conditions(self, run: _Run, counts: dict) -> None:
        """Queries, then the test (Figs. 7–11); the instance dies on an
        empty relation and fails on a mediation error."""
        obs = self._obs
        rule = run.rule
        instance = run.instance
        relation = instance.relation
        try:
            for index, query in enumerate(rule.queries):
                component_id = f"{rule.rule_id}::query-{index}"
                span = obs.begin_phase("query", component_id) \
                    if obs is not None else None
                try:
                    contribution = self.grh.evaluate_query(component_id,
                                                           query, relation)
                    if query.bind_to is not None:
                        # functional components arrive pre-extended by
                        # the GRH
                        relation = contribution
                    else:
                        relation = relation.join(contribution)
                finally:
                    if span is not None:
                        span.set_attribute("tuples", len(relation))
                        obs.end_phase("query", span)
                label = (f"query {index + 1}"
                         + (f" (→ ${query.bind_to})" if query.bind_to else ""))
                instance.record(label, relation)
                if not relation:
                    instance.status = "dead"
                    counts["dead"] += 1
                    return
            if rule.test is not None:
                span = obs.begin_phase("test", f"{rule.rule_id}::test") \
                    if obs is not None else None
                try:
                    relation = self._run_test(rule, relation)
                finally:
                    if span is not None:
                        span.set_attribute("tuples", len(relation))
                        obs.end_phase("test", span)
                instance.record("test", relation)
                if not relation:
                    instance.status = "dead"
                    counts["dead"] += 1
        except GRHError as exc:
            self._fail(run, exc, counts)

    def _fail(self, run: _Run, exc: GRHError, counts: dict) -> None:
        instance = run.instance
        instance.status = "failed"
        instance.error = str(exc)
        run.failure = exc
        counts["failed"] += 1

    def _execute_actions(self, runs: list[_Run], counts: dict) -> None:
        """Execute the live instances' actions round by round: round *k*
        dispatches the *k*-th action of every instance still running, as
        one GRH call, which sends one message per language.  A failed
        slot fails only its own instance."""
        obs = self._obs
        durability = self.durability
        live = [run for run in runs if run.instance.status == "running"]
        index = 0
        while live:
            due = [run for run in live if index < len(run.rule.actions)]
            slots = []
            for run in due:
                instance = run.instance
                component_id = f"{run.rule.rule_id}::action-{index}"
                guard = None
                if durability is not None:
                    guard = durability.action_guard(
                        instance.instance_id, index,
                        run.detection.detection_id)
                span = None
                if obs is not None:
                    bind_span(run.root)
                    span = obs.begin_phase("action", component_id)
                slots.append(ActionSlot(component_id,
                                        run.rule.actions[index],
                                        instance.relation, guard, span))
            try:
                outcomes = self.grh.execute_actions(slots)
            finally:
                if obs is not None:
                    for slot in slots:
                        obs.end_phase("action", slot.span)
            for run, outcome in zip(due, outcomes):
                instance = run.instance
                if isinstance(outcome, GRHError):
                    if isinstance(outcome, ActionExecutionError) and \
                            outcome.executed:
                        # tuples that ran before the failure really
                        # executed; keep the audit trail (to_xml, stats)
                        # truthful
                        instance.actions_executed += outcome.executed
                        counts["actions"] += outcome.executed
                    self._fail(run, outcome, counts)
                else:
                    instance.actions_executed += outcome
                    counts["actions"] += outcome
            for run in live:
                instance = run.instance
                if instance.status == "running" and \
                        index + 1 >= len(run.rule.actions):
                    instance.record("action", instance.relation)
                    instance.status = "completed"
                    counts["completed"] += 1
            live = [run for run in due if run.instance.status == "running"]
            index += 1

    def _run_test(self, rule: ECARule, relation: Relation) -> Relation:
        test = rule.test
        if (self.evaluate_tests_locally and test.opaque is not None
                and test.language == TEST_NS):
            return TestExpression(test.opaque).filter(relation)
        return self.grh.evaluate_test(f"{rule.rule_id}::test", test, relation)

    # -- dead letter replay ----------------------------------------------------------------

    def replay_dead_letters(self, limit: int | None = None) -> dict:
        """Replay parked failures after the failing services recover.

        Detection letters re-run the whole rule instance (a fresh
        instance is created, so the failed one stays in the audit
        trail); action letters execute only the tuples that never ran.
        Letters replay in park order (their journal sequence), one
        replay at a time, and each is settled after its own work, in the
        record that makes its outcome durable (PROTOCOL.md §6/§7): a
        crash mid-replay keeps every letter not yet settled.  A letter
        that fails again is re-parked with ``attempts + 1``; one whose
        action reaches no service stays parked as it is.

        Returns a summary: letters ``replayed``, ``succeeded``,
        ``failed`` and ``deferred`` (a detection queued behind an open
        :meth:`batch` or evaluation, which runs when that ends), and the
        ``actions`` the replay executed.
        """
        summary = dict.fromkeys(("replayed", "succeeded", "failed",
                                 "deferred", "actions"), 0)
        queue = self.grh.resilience.dead_letters
        with self._replay_lock:
            for letter in queue.pending(limit):
                summary["replayed"] += 1
                if letter.kind != "action":
                    summary[self._replay_detection(letter)] += 1
                    continue
                try:
                    # the letter is its own exactly-once guard: it hands
                    # back the keys its tuples were first dispatched under
                    executed = self.grh.execute_action(
                        letter.component_id, letter.spec, letter.bindings,
                        guard=letter)
                except GRHError as exc:
                    # a failure part-way parked the rest in the letter's
                    # place, which settles it; partial progress counts
                    executed = getattr(exc, "executed", 0)
                    summary["failed"] += 1
                else:
                    queue.settle(letter, executed)
                    summary["succeeded"] += 1
                summary["actions"] += executed
                self._bump("actions", executed)
        return summary

    def _replay_detection(self, letter) -> str:
        """Re-drive one parked detection on the caller's thread (through
        the runtime's caller queue, even with lanes running); the
        outcome of *its* instance."""
        detection = letter.detection
        if self.durability is not None:
            # its det record settles the letter and passes the duplicate
            # filter the detection's first done record set
            detection = self.durability.admit(detection, letter)
            if detection is None:
                return "failed"     # still in flight: the letter stays
        self.grh.resilience.dead_letters.settle(letter, 0)
        slot = self._replay_slot = [detection, letter.attempts, None]
        try:
            self.runtime.submit(detection, self._priority_of(detection),
                                here=True)
        finally:
            self._replay_slot = None
        instance = slot[2]
        if instance is None:
            # queued behind a batch, or no rule matches it any more
            return "deferred" if self.runtime.caller_busy else "succeeded"
        return "failed" if instance.status == "failed" else "succeeded"

    # -- introspection ---------------------------------------------------------------------

    def instances_of(self, rule_id: str) -> list[RuleInstance]:
        """Retained instances of one rule, oldest first.

        Served from a per-rule index (O(answer) instead of a scan over
        every retained instance); bounded by ``max_instances_per_rule``
        when set.
        """
        bucket = self._instances_by_rule.get(rule_id)
        if bucket is not None:
            # under the retain lock: a worker appending to the deque
            # mid-copy would raise "mutated during iteration"
            with self._retain_lock:
                return list(bucket)
        # instances appended by code that bypasses _retain (tests,
        # monitoring shims) still show up via the slow path
        return [instance for instance in self.instances
                if instance.rule_id == rule_id]
