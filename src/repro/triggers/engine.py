"""The PG-Trigger execution engine.

The engine implements the semantics of Section 4.2 of the paper:

* **Action times** — BEFORE and AFTER triggers run at each statement
  boundary (BEFORE first, restricted to conditioning NEW states), ONCOMMIT
  triggers run when the surrounding transaction reaches its commit point
  (their side effects are included in the same transaction, and they may
  abort it), DETACHED triggers run after a successful commit inside an
  autonomous transaction.
* **Granularity** — FOR EACH executes the trigger once per affected item
  with ``OLD``/``NEW`` bound; FOR ALL executes it once per statement with
  the plural transition variables bound to the whole affected set.
* **Ordering** — triggers sharing an action time execute in creation-time
  order (the registry's sequence numbers).
* **Cascading** — changes produced by trigger statements are collected and
  recursively processed as new events, using a stack of execution contexts
  and a configurable depth limit (the runtime counterpart of the
  termination analysis in :mod:`repro.triggers.termination`).

Conditions may be plain boolean expressions over the transition variables
(``OLD.x <> NEW.x``), EXISTS patterns, or *condition queries* — a pipeline
of MATCH/UNWIND/WITH clauses as in the paper's examples.  The rows that
survive the condition are handed to the action statement, so variables
bound in the condition (e.g. the overloaded hospital ``h``) are usable in
the action.

**Evaluation ladder.**  A FOR EACH condition is evaluated by the first
tier that can handle it: *predicate* (a plain WHEN expression over
``OLD``/``NEW``, evaluated without an executor), *incremental* (a
condition query compiled to a delta-maintained view, see
:mod:`repro.triggers.incremental`), and *sequential* — one executor run
per activation, the reference the differential tests compare against.
Every tier funnels firings through the same :class:`_TriggerRun`, so the
choice of tier changes only speed, never results.
"""

from __future__ import annotations

import datetime as _dt
from typing import Any, Callable, Mapping, Optional

from ..cypher.ast import ExistsPattern, Expression, Query
from ..cypher.errors import CypherError
from ..cypher.executor import QueryExecutor
from ..cypher.expressions import EvaluationContext, evaluate
from ..cypher.planner import PLAN_CACHE
from ..graph.delta import GraphDelta
from ..graph.model import Node
from ..graph.store import PropertyGraph
from ..tx.errors import TransactionAborted
from ..tx.manager import TransactionManager
from ..tx.transaction import Transaction
from .ast import (
    ActionTime,
    EventType,
    Granularity,
    InstalledTrigger,
    ItemKind,
    TriggerDefinition,
)
from .context import (
    ExecutionContext,
    TriggerBindings,
    TriggerFiring,
    bindings_for,
    item_bindings,
)
from .errors import TriggerExecutionError, TriggerRecursionError
from .events import Activation, compute_activations
from .incremental import IncrementalTriggerViews
from .registry import TriggerRegistry

#: Maximum cascade depth before the engine assumes non-termination.
DEFAULT_MAX_CASCADE_DEPTH = 16
#: Maximum nesting of autonomous (DETACHED) transactions.
DEFAULT_MAX_DETACHED_DEPTH = 4


def _abort_procedure(args, invocation):
    """``CALL db.abort('reason')`` — abort the surrounding transaction.

    Registered in every trigger-statement executor so that ONCOMMIT
    triggers can reject the transaction, as the paper's semantics allow.
    """
    reason = str(args[0]) if args else "aborted by trigger"
    raise TransactionAborted(reason)


class TriggerEngine:
    """Evaluates installed triggers against the deltas of a transaction."""

    def __init__(
        self,
        graph: PropertyGraph,
        registry: TriggerRegistry,
        manager: TransactionManager,
        clock: Callable[[], _dt.datetime] | None = None,
        max_cascade_depth: int = DEFAULT_MAX_CASCADE_DEPTH,
        max_detached_depth: int = DEFAULT_MAX_DETACHED_DEPTH,
        incremental_conditions: bool = True,
    ) -> None:
        self.graph = graph
        self.registry = registry
        self.manager = manager
        self.clock = clock or _dt.datetime.now
        self.max_cascade_depth = max_cascade_depth
        self.max_detached_depth = max_detached_depth
        #: Evaluate view-compilable FOR EACH condition queries against
        #: delta-maintained materialized views (the top tier of the
        #: incremental → sequential demotion ladder; see
        #: :mod:`repro.triggers.incremental`).  Off, every condition query
        #: runs its own executor per activation — the reference behaviour
        #: the differential tests compare against.
        self.incremental_conditions = incremental_conditions
        self.views: Optional[IncrementalTriggerViews] = (
            IncrementalTriggerViews(graph, registry) if incremental_conditions else None
        )
        #: Counters observing the incremental evaluator.
        self.incremental_stats = {
            "incremental_runs": 0,
            "incremental_activations": 0,
            "view_rebuilds": 0,
        }
        #: Per-trigger evaluation trace: which tier ran, how often, and
        #: why demotions happened (see :meth:`evaluation_report`).
        self.tier_trace: dict[str, dict[str, dict[str, int]]] = {}
        #: Audit log of trigger firings (cleared with :meth:`clear_firings`).
        self.firings: list[TriggerFiring] = []
        # Condition and statement texts are compiled through the global
        # parse+plan cache (repro.cypher.planner.PLAN_CACHE), shared with
        # the executor and the compatibility emulators.
        self._detached_depth = 0
        #: Extra procedures made available inside trigger statements.
        self.procedures = {"db.abort": _abort_procedure, "abort": _abort_procedure}

    # ------------------------------------------------------------------
    # public entry points (driven by GraphSession / TransactionManager hooks)
    # ------------------------------------------------------------------

    def run_statement_triggers(self, tx: Transaction, delta: GraphDelta) -> GraphDelta:
        """Process BEFORE and AFTER triggers for one statement's delta."""
        # Both rounds see the same delta, so they can share one label summary
        # (built lazily by whichever round first has triggers to filter).
        shared: list[_DeltaLabelSummary] = []
        before = self._process(
            tx, delta, (ActionTime.BEFORE,), depth=0, parent=None, shared_summary=shared
        )
        after = self._process(
            tx, delta, (ActionTime.AFTER,), depth=0, parent=None, shared_summary=shared
        )
        if before.is_empty():
            return after
        if after.is_empty():
            return before
        return before.merge(after)

    def run_commit_triggers(self, tx: Transaction, delta: GraphDelta) -> GraphDelta:
        """Process ONCOMMIT triggers for the whole transaction delta."""
        return self._process(tx, delta, (ActionTime.ONCOMMIT,), depth=0, parent=None)

    def run_detached_triggers(self, delta: GraphDelta) -> Optional[GraphDelta]:
        """Process DETACHED triggers in an autonomous transaction.

        Returns the delta committed by the autonomous transaction, or None
        when no DETACHED trigger had activations (no transaction is opened
        in that case).
        """
        triggers = self.registry.ordered((ActionTime.DETACHED,), enabled_only=True)
        if not triggers:
            return None
        if not any(compute_activations(t.definition, delta) for t in triggers):
            return None
        if self._detached_depth >= self.max_detached_depth:
            raise TriggerRecursionError(
                self.max_detached_depth, [t.name for t in triggers]
            )
        self._detached_depth += 1
        try:
            tx = self.manager.begin(metadata={"source": "detached-trigger"})
            try:
                self._process(tx, delta, (ActionTime.DETACHED,), depth=0, parent=None)
                committed = self.manager.commit(tx)
            except Exception:
                if tx.is_active:
                    self.manager.rollback(tx)
                raise
            return committed
        finally:
            self._detached_depth -= 1

    def clear_firings(self) -> None:
        """Reset the audit log of trigger firings."""
        self.firings.clear()

    # ------------------------------------------------------------------
    # core processing loop
    # ------------------------------------------------------------------

    def _process(
        self,
        tx: Transaction,
        delta: GraphDelta,
        times: tuple[ActionTime, ...],
        depth: int,
        parent: Optional[ExecutionContext],
        shared_summary: Optional[list["_DeltaLabelSummary"]] = None,
    ) -> GraphDelta:
        """Run all triggers of ``times`` over ``delta``; cascade recursively.

        ``shared_summary`` is a one-element memo cell letting sibling calls
        over the *same* delta (the BEFORE and AFTER rounds of one statement)
        share the label summary; cascades operate on new deltas and pass
        nothing.
        """
        if delta.is_empty():
            return GraphDelta()
        if depth > self.max_cascade_depth:
            chain = parent.chain() if parent else []
            raise TriggerRecursionError(self.max_cascade_depth, chain)

        produced_total = GraphDelta()
        triggers = self.registry.ordered(times, enabled_only=True)
        if triggers:
            if shared_summary is None:
                touched = _DeltaLabelSummary(delta)
            else:
                if not shared_summary:
                    shared_summary.append(_DeltaLabelSummary(delta))
                touched = shared_summary[0]
            # Activations depend only on the trigger's event selector, not
            # on its condition or action — triggers sharing a selector
            # (every ``AFTER CREATE ON 'X' FOR EACH NODE`` gate in a
            # firehose suite, say) share one scan of the delta.  The
            # refresh of the NEW side stays per trigger in _run_trigger,
            # so later triggers still see earlier triggers' writes.
            activation_memo: dict[tuple, list] = {}
            for installed in triggers:
                if not _may_activate(installed.definition, touched):
                    continue
                produced = self._run_trigger(
                    installed, tx, delta, depth, parent, activation_memo
                )
                if not produced.is_empty():
                    produced_total.extend(produced)

        if not produced_total.is_empty():
            cascade_times = self._cascade_times(times)
            nested = self._process(
                tx, produced_total, cascade_times, depth + 1,
                parent or ExecutionContext("(statement)", depth, 0, Granularity.ALL),
            )
            # ``produced_total`` was just handed to the nested round: fold
            # into a copy so nothing that kept it sees it grow.
            produced_total = produced_total.merge(nested)
        return produced_total

    def _cascade_times(self, times: tuple[ActionTime, ...]) -> tuple[ActionTime, ...]:
        """Which action times participate in cascading rounds.

        Changes produced by ONCOMMIT (or DETACHED) triggers are still inside
        the same transaction (autonomous one for DETACHED), so statement-time
        triggers react to them as well; the converse does not hold.
        """
        if ActionTime.ONCOMMIT in times:
            return (ActionTime.BEFORE, ActionTime.AFTER, ActionTime.ONCOMMIT)
        if ActionTime.DETACHED in times:
            return (ActionTime.BEFORE, ActionTime.AFTER, ActionTime.DETACHED)
        return (ActionTime.BEFORE, ActionTime.AFTER)

    def _run_trigger(
        self,
        installed: InstalledTrigger,
        tx: Transaction,
        delta: GraphDelta,
        depth: int,
        parent: Optional[ExecutionContext],
        activation_memo: Optional[dict[tuple, list]] = None,
    ) -> GraphDelta:
        trigger = installed.definition
        if activation_memo is None:
            activations = compute_activations(trigger, delta)
        else:
            selector = (trigger.item, trigger.event, trigger.label, trigger.property)
            activations = activation_memo.get(selector)
            if activations is None:
                activations = compute_activations(trigger, delta)
                activation_memo[selector] = activations
        if not activations:
            return GraphDelta()
        activations = [self._refresh_new_side(a) for a in activations]
        run = _TriggerRun(self, installed, tx, depth, parent, len(activations))

        if trigger.condition is not None and trigger.granularity == Granularity.EACH:
            compiled = self._compiled_condition(trigger)

            # Predicate tier: a WHEN body that is a plain predicate (no
            # condition query, no EXISTS, no REFERENCING aliases) only
            # needs OLD/NEW and the bare expression evaluator to decide
            # whether it fires; suppressed activations skip the bindings
            # machinery entirely.
            if not compiled.is_query and not compiled.has_exists and not trigger.referencing:
                eval_context = EvaluationContext(graph=self.graph, clock=self.clock)
                parsed = compiled.parsed
                for activation in activations:
                    row = {"OLD": activation.old, "NEW": activation.new}
                    try:
                        value = evaluate(parsed, row, eval_context)
                    except CypherError as exc:
                        raise TriggerExecutionError(trigger.name, "condition", exc) from exc
                    if value is True:
                        binding = item_bindings(trigger, activation)
                        run.fire(binding, [dict(binding.variables)])
                    else:
                        run.fire(None, _NO_ROWS)
                self._note_tier(trigger.name, "predicate")
                return run.produced

            # Incremental tier: evaluate each activation against the
            # trigger's delta-maintained condition view.  The view is live —
            # the store's mutation listeners fold every firing's writes into
            # it before the next activation evaluates — so lazy
            # per-activation evaluation is sequential-equal by construction,
            # at any activation count.  Conditions outside the compiled
            # footprint demote to the sequential tier below.
            if compiled.is_query and self.views is not None:
                view = self.views.view_for(installed, compiled.parsed)
                if view is not None:
                    self._note_tier(trigger.name, "incremental")
                    return self._run_incremental(run, view, trigger, activations)
                reason = self.views.rejection_reason(trigger.name)
                self._note_demotion(trigger.name, reason or "ineligible")

        # Sequential tier (the reference): one condition execution per
        # activation.  Every tier funnels firings through the same
        # _TriggerRun.fire, so their accounting cannot diverge.
        self._note_tier(trigger.name, "sequential")
        for binding in bindings_for(trigger, activations):
            run.fire(binding, self._condition_rows(trigger, binding, tx))
        return run.produced

    def _run_incremental(
        self,
        run: "_TriggerRun",
        view,
        trigger: TriggerDefinition,
        activations: list[Activation],
    ) -> GraphDelta:
        """Replay activations against the trigger's live condition view.

        Each activation is evaluated lazily, *after* every earlier
        activation's firings have flowed into the view through the store's
        mutation listeners — exactly what sequential evaluation sees.  A
        condition error therefore surfaces at the same activation position
        (with the same earlier firings on the audit log) as the reference,
        so it is raised directly rather than demoted.
        """
        stats = self.incremental_stats
        stats["incremental_runs"] += 1
        stats["incremental_activations"] += len(activations)
        context = EvaluationContext(graph=self.graph, clock=self.clock)
        # The epoch/bulk rail only needs re-checking after something could
        # have mutated mid-replay — i.e. after a firing ran an action.  The
        # replay itself is single-threaded, so between non-firing
        # activations the view provably cannot have been invalidated.
        check_view = True
        referencing = trigger.referencing
        rows_for = view.rows_for
        fire = run.fire
        for activation in activations:
            if check_view:
                if view.ensure_current(self.graph):
                    stats["view_rebuilds"] += 1
                check_view = False
            if referencing:
                base = dict(item_bindings(trigger, activation).variables)
            else:
                base = {"OLD": activation.old, "NEW": activation.new}
            try:
                rows = rows_for(base, context)
            except TransactionAborted:
                raise
            except CypherError as exc:
                raise TriggerExecutionError(trigger.name, "condition", exc) from exc
            if rows:
                fire(item_bindings(trigger, activation), rows)
                check_view = True
            else:
                fire(None, _NO_ROWS)
        return run.produced

    def _refresh_new_side(self, activation):
        """Re-read the NEW side from the store so earlier triggers' writes are visible.

        The OLD side stays frozen at its pre-event snapshot, as required by
        the transition-variable semantics.
        """
        new = activation.new
        if new is None:
            return activation
        if isinstance(new, Node):
            refreshed = self.graph.node_or_none(new.id)
        else:
            refreshed = self.graph.relationship_or_none(new.id)
        if refreshed is new or refreshed is None:
            return activation
        return Activation(
            item=activation.item, old=activation.old, new=refreshed, property=activation.property
        )

    # ------------------------------------------------------------------
    # condition handling
    # ------------------------------------------------------------------

    def _condition_rows(
        self, trigger: TriggerDefinition, binding: TriggerBindings, tx: Transaction
    ) -> list[dict[str, Any]]:
        """Rows surviving the WHEN condition (one empty row when it is absent)."""
        if trigger.condition is None:
            return [{}]
        compiled = self._compiled_condition(trigger)
        parsed = compiled.parsed
        try:
            if isinstance(parsed, Query):
                # Condition queries end in a wildcard RETURN, a pipeline
                # breaker, so the stream is already materialised; consuming
                # it directly skips the eager QueryResult wrapper and the
                # per-row copy it would force.
                executor = self._executor(tx, binding)
                _, records = executor.stream(parsed, bindings=dict(binding.variables))
                return list(records)
            # Plain expression: a WHERE filter over the single bindings row.
            # (Running it through a wildcard-RETURN query would project the
            # very same row back, so evaluate it directly, and only build a
            # full executor if an EXISTS pattern actually needs one.  EXISTS
            # itself now early-exits: the executor's pattern pipeline stops
            # at the first witness row.)
            value = self._evaluate_condition_expression(
                parsed, binding.variables, tx, binding, compiled.exists_query
            )
            return [dict(binding.variables)] if value is True else []
        except TransactionAborted:
            raise
        except CypherError as exc:
            raise TriggerExecutionError(trigger.name, "condition", exc) from exc

    def _evaluate_condition_expression(
        self,
        parsed: Expression,
        row: dict[str, Any],
        tx: Transaction,
        binding: TriggerBindings,
        exists_query: Optional[Query],
    ) -> Any:
        executor: list[QueryExecutor] = []  # built lazily, shared across EXISTS evaluations

        def match_exists(exists: ExistsPattern, exists_row: dict[str, Any]) -> bool:
            if not executor:
                created = self._executor(tx, binding)
                if exists_query is not None:
                    # Plan the EXISTS sub-patterns against the bindings row,
                    # so they start at the transition variables they name.
                    created.plan_expression(exists_query, row)
                executor.append(created)
            return executor[0]._exists_matcher(exists, exists_row)

        context = EvaluationContext(
            graph=self.graph,
            clock=self.clock,
            pattern_matcher=match_exists,
        )
        return evaluate(parsed, row, context)

    def _compiled_condition(self, trigger: TriggerDefinition):
        try:
            return PLAN_CACHE.condition_compiled(trigger.condition or "")
        except CypherError as exc:
            raise TriggerExecutionError(trigger.name, "condition", exc) from exc

    # ------------------------------------------------------------------
    # statement handling
    # ------------------------------------------------------------------

    def _execute_statement(
        self,
        trigger: TriggerDefinition,
        binding: TriggerBindings,
        condition_row: Mapping[str, Any],
        tx: Transaction,
        context: ExecutionContext,
    ) -> None:
        executor = self._executor(tx, binding)
        bindings = {**binding.variables, **condition_row}
        try:
            # Passing the text routes the statement through the global
            # parse+plan cache (shared with every other execution layer).
            executor.execute(trigger.statement, bindings=bindings)
        except TransactionAborted:
            raise
        except CypherError as exc:
            raise TriggerExecutionError(trigger.name, "statement", exc) from exc

    def _executor(self, tx: Transaction, binding: TriggerBindings) -> QueryExecutor:
        return QueryExecutor(
            self.graph,
            transaction=tx,
            clock=self.clock,
            virtual_labels=binding.virtual_labels,
            procedures=self.procedures,
        )

    # ------------------------------------------------------------------
    # statistics
    # ------------------------------------------------------------------

    def _note_tier(self, name: str, tier: str) -> None:
        entry = self.tier_trace.get(name)
        if entry is None:
            entry = self.tier_trace[name] = {"tiers": {}, "demotions": {}}
        tiers = entry["tiers"]
        tiers[tier] = tiers.get(tier, 0) + 1

    def _note_demotion(self, name: str, reason: str) -> None:
        entry = self.tier_trace.get(name)
        if entry is None:
            entry = self.tier_trace[name] = {"tiers": {}, "demotions": {}}
        demotions = entry["demotions"]
        demotions[reason] = demotions.get(reason, 0) + 1

    def evaluation_report(self) -> dict[str, dict[str, Any]]:
        """Per-trigger evaluation observability (tiers, demotions, views).

        For every installed trigger: which evaluation tier handled each
        run (``incremental``/``sequential``/``predicate``),
        every demotion with its reason, and — when a condition view
        exists — the view's alpha-memory size and maintenance counters.
        Surfaced through :meth:`GraphSession.explain_triggers` and the
        per-statement :class:`~repro.cypher.result.ResultSummary`.
        """
        report: dict[str, dict[str, Any]] = {}
        for installed in self.registry.ordered():
            name = installed.name
            trace = self.tier_trace.get(name)
            entry: dict[str, Any] = {
                "tiers": dict(trace["tiers"]) if trace else {},
                "demotions": dict(trace["demotions"]) if trace else {},
            }
            if self.views is not None:
                view = self.views.view(name)
                if view is not None:
                    entry["view"] = {
                        "partial_matches": view.partial_matches(),
                        "invariant": view.invariant,
                        **view.stats,
                    }
                else:
                    reason = self.views.rejection_reason(name)
                    if reason is not None:
                        entry["ineligible"] = reason
            report[name] = entry
        return report

    def execution_counts(self) -> dict[str, int]:
        """Executions per trigger (from the registry's counters)."""
        return {t.name: t.executions for t in self.registry.ordered()}

    def firing_summary(self) -> dict[str, dict[str, int]]:
        """Per-trigger summary of the audit log."""
        summary: dict[str, dict[str, int]] = {}
        for firing in self.firings:
            entry = summary.setdefault(
                firing.trigger_name, {"executed": 0, "suppressed": 0, "max_depth": 0}
            )
            if firing.executed:
                entry["executed"] += 1
            else:
                entry["suppressed"] += 1
            entry["max_depth"] = max(entry["max_depth"], firing.depth)
        return summary


# ---------------------------------------------------------------------------
# per-trigger execution bookkeeping
# ---------------------------------------------------------------------------

#: Shared empty condition-row list for suppressed fast-path firings.
_NO_ROWS: list[dict[str, Any]] = []


class _TriggerRun:
    """Bookkeeping for one trigger's firings over one delta.

    Every evaluation tier (predicate, incremental, sequential) funnels
    statement execution, the executed/suppressed counters and the
    :class:`TriggerFiring` audit records through :meth:`fire`, so their
    semantics cannot diverge.
    """

    __slots__ = (
        "engine", "installed", "trigger", "tx", "depth", "parent",
        "activation_count", "context", "produced", "_action_time",
    )

    def __init__(
        self,
        engine: "TriggerEngine",
        installed: InstalledTrigger,
        tx: Transaction,
        depth: int,
        parent: Optional[ExecutionContext],
        activation_count: int,
    ) -> None:
        self.engine = engine
        self.installed = installed
        self.trigger = installed.definition
        self.tx = tx
        self.depth = depth
        self.parent = parent
        self.activation_count = activation_count
        # The context frame is only needed when a condition actually passes;
        # most firings on the hot path are suppressed, so build it lazily.
        self.context: Optional[ExecutionContext] = None
        self.produced = GraphDelta()
        # Hoisted out of fire(): the enum attribute access is measurable
        # at firehose activation counts.
        self._action_time = installed.definition.time.value

    def fire(
        self,
        binding: Optional[TriggerBindings],
        condition_rows: list[dict[str, Any]],
    ) -> None:
        """Run the action for each surviving row and record one firing."""
        executed = bool(condition_rows)
        if executed:
            if self.context is None:
                self.context = ExecutionContext(
                    trigger_name=self.trigger.name,
                    depth=self.depth,
                    activation_count=self.activation_count,
                    granularity=self.trigger.granularity,
                    parent=self.parent,
                )
            self.tx.end_statement()  # isolate the trigger's own changes
            for row in condition_rows:
                self.engine._execute_statement(
                    self.trigger, binding, row, self.tx, self.context
                )
            self.produced.extend(self.tx.end_statement())
            self.installed.executions += 1
        else:
            self.installed.suppressed += 1
        self.engine.firings.append(
            TriggerFiring(
                trigger_name=self.trigger.name,
                depth=self.depth,
                activation_count=self.activation_count,
                condition_rows=len(condition_rows),
                executed=executed,
                action_time=self._action_time,
            )
        )


# ---------------------------------------------------------------------------
# cheap trigger/delta prefiltering
# ---------------------------------------------------------------------------


class _DeltaLabelSummary:
    """Label/type footprint of a delta, built once per processing round.

    :func:`_may_activate` checks a trigger's monitored label against these
    sets before the per-trigger activation computation runs; with many
    installed triggers targeting disjoint labels this avoids walking the
    delta once per trigger.  The check over-approximates
    :func:`~repro.triggers.events.compute_activations` (it may say yes when
    there are no activations, never the reverse).
    """

    __slots__ = (
        "created_node_labels", "deleted_node_labels",
        "assigned_label_node_labels", "removed_label_node_labels",
        "node_prop_set_labels", "node_prop_removed_labels",
        "created_rel_types", "deleted_rel_types",
        "rel_prop_set_types", "rel_prop_removed_types",
    )

    def __init__(self, delta: GraphDelta) -> None:
        self.created_node_labels: set[str] = set()
        for node in delta.created_nodes:
            self.created_node_labels.update(node.labels)
        self.deleted_node_labels: set[str] = set()
        for node in delta.deleted_nodes:
            self.deleted_node_labels.update(node.labels)
        self.assigned_label_node_labels: set[str] = set()
        for assignment in delta.assigned_labels:
            self.assigned_label_node_labels.update(assignment.node.labels)
        self.removed_label_node_labels: set[str] = set()
        for removal in delta.removed_labels:
            self.removed_label_node_labels.update(removal.node.labels)
        self.node_prop_set_labels: set[str] = set()
        self.rel_prop_set_types: set[str] = set()
        for change in delta.assigned_properties:
            if change.is_node:
                self.node_prop_set_labels.update(change.item.labels)
            else:
                self.rel_prop_set_types.add(change.item.type)
        self.node_prop_removed_labels: set[str] = set()
        self.rel_prop_removed_types: set[str] = set()
        for change in delta.removed_properties:
            if change.is_node:
                self.node_prop_removed_labels.update(change.item.labels)
            else:
                self.rel_prop_removed_types.add(change.item.type)
        self.created_rel_types = {rel.type for rel in delta.created_relationships}
        self.deleted_rel_types = {rel.type for rel in delta.deleted_relationships}


def _may_activate(trigger: TriggerDefinition, touched: _DeltaLabelSummary) -> bool:
    """Can ``trigger`` possibly have activations in the summarised delta?"""
    label = trigger.label
    if trigger.item == ItemKind.NODE:
        if trigger.event == EventType.CREATE:
            return label in touched.created_node_labels
        if trigger.event == EventType.DELETE:
            return label in touched.deleted_node_labels
        if trigger.event == EventType.SET:
            if trigger.property is None:
                return (
                    label in touched.assigned_label_node_labels
                    or label in touched.node_prop_set_labels
                )
            return label in touched.node_prop_set_labels
        if trigger.property is None:
            return (
                label in touched.removed_label_node_labels
                or label in touched.node_prop_removed_labels
            )
        return label in touched.node_prop_removed_labels
    if trigger.event == EventType.CREATE:
        return label in touched.created_rel_types
    if trigger.event == EventType.DELETE:
        return label in touched.deleted_rel_types
    if trigger.event == EventType.SET:
        return label in touched.rel_prop_set_types
    return label in touched.rel_prop_removed_types
