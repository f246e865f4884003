"""Execution contexts and transition-variable binding.

Each trigger execution receives:

* *bindings* — variables visible to the WHEN condition and to the action
  statement.  For item granularity these are ``OLD``/``NEW`` (and their
  aliases); for set granularity they are ``OLDNODES``/``NEWNODES`` or
  ``OLDRELS``/``NEWRELS`` (and aliases) bound to lists;
* *virtual labels* — label-shaped views of the same sets, so that condition
  queries written as patterns (``MATCH (pn:NEWNODES)-[:TreatedAt]-(h)``)
  work exactly as in the paper's examples;
* an :class:`ExecutionContext` frame pushed on the engine's stack, which is
  how the SQL3-style cascading semantics (and its depth limit) are
  implemented.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from .ast import Granularity, TransitionVariable, TriggerDefinition
from .events import Activation


@dataclass(frozen=True)
class TriggerBindings:
    """Variables and virtual labels exposed to one trigger execution."""

    variables: dict[str, Any] = field(default_factory=dict)
    virtual_labels: dict[str, set[int]] = field(default_factory=dict)


def transition_names(trigger: TriggerDefinition) -> set[str]:
    """Every name an activation's bindings may use for OLD/NEW.

    Used by the incremental view compiler: a condition that uses one of
    these names as a label or pattern variable resolves per-activation
    state, which a shared materialized view cannot model.
    """
    names = {"OLD", "NEW"}
    for alias in trigger.referencing:
        names.add(alias.alias)
    return names


def item_bindings(trigger: TriggerDefinition, activation: Activation) -> TriggerBindings:
    """Bindings for one FOR EACH activation (OLD/NEW and aliases)."""
    if not trigger.referencing:
        # Hot path: without REFERENCING aliases the names are fixed.
        variables = {"OLD": activation.old, "NEW": activation.new}
        virtual_labels: dict[str, set[int]] = {}
        if activation.old is not None:
            virtual_labels["OLD"] = {activation.old.id}
        if activation.new is not None:
            virtual_labels["NEW"] = {activation.new.id}
        return TriggerBindings(variables=variables, virtual_labels=virtual_labels)
    variables = {}
    virtual_labels = {}
    names = {
        TransitionVariable.OLD: trigger.alias_for(TransitionVariable.OLD),
        TransitionVariable.NEW: trigger.alias_for(TransitionVariable.NEW),
    }
    variables[names[TransitionVariable.OLD]] = activation.old
    variables[names[TransitionVariable.NEW]] = activation.new
    # The default names stay visible even when aliases are declared, so a
    # condition can use either form.
    variables.setdefault("OLD", activation.old)
    variables.setdefault("NEW", activation.new)
    for name, value in list(variables.items()):
        if value is not None:
            virtual_labels[name] = {value.id}
    return TriggerBindings(variables=variables, virtual_labels=virtual_labels)


def set_bindings(trigger: TriggerDefinition, activations: list[Activation]) -> TriggerBindings:
    """Bindings for one FOR ALL execution (OLDNODES/NEWNODES/OLDRELS/NEWRELS)."""
    old_items = [a.old for a in activations if a.old is not None]
    new_items = [a.new for a in activations if a.new is not None]
    if trigger.item.value == "NODE":
        old_variable, new_variable = TransitionVariable.OLDNODES, TransitionVariable.NEWNODES
    else:
        old_variable, new_variable = TransitionVariable.OLDRELS, TransitionVariable.NEWRELS

    variables: dict[str, Any] = {}
    virtual_labels: dict[str, set[int]] = {}
    for variable, items in ((old_variable, old_items), (new_variable, new_items)):
        alias = trigger.alias_for(variable)
        variables[alias] = list(items)
        variables.setdefault(variable.value, list(items))
        ids = {item.id for item in items}
        virtual_labels[alias] = ids
        virtual_labels.setdefault(variable.value, ids)
    return TriggerBindings(variables=variables, virtual_labels=virtual_labels)


def bindings_for(
    trigger: TriggerDefinition, activations: list[Activation]
) -> list[TriggerBindings]:
    """One bindings object per execution of ``trigger`` over ``activations``.

    FOR EACH produces one entry per activation; FOR ALL produces a single
    entry covering the whole set.
    """
    if trigger.granularity == Granularity.EACH:
        return [item_bindings(trigger, activation) for activation in activations]
    return [set_bindings(trigger, activations)]


@dataclass
class ExecutionContext:
    """One frame of the trigger execution stack (SQL3-style contexts).

    The stack records which trigger is currently executing and at which
    cascade depth; it powers the recursion limit, error reporting and the
    execution traces surfaced by the benchmark harness.
    """

    trigger_name: str
    depth: int
    activation_count: int
    granularity: Granularity
    parent: Optional["ExecutionContext"] = None

    def chain(self) -> list[str]:
        """Trigger names from the outermost frame to this one."""
        names: list[str] = []
        frame: Optional[ExecutionContext] = self
        while frame is not None:
            names.append(frame.trigger_name)
            frame = frame.parent
        return list(reversed(names))


@dataclass(frozen=True, slots=True)
class TriggerFiring:
    """Audit record of one trigger statement execution (kept by the engine).

    ``slots=True``: one record is appended per activation, so construction
    cost is visible at firehose rates.
    """

    trigger_name: str
    depth: int
    activation_count: int
    condition_rows: int
    executed: bool
    action_time: str

    def __str__(self) -> str:
        status = "executed" if self.executed else "suppressed"
        return (
            f"{self.trigger_name} [{self.action_time}] depth={self.depth} "
            f"activations={self.activation_count} {status}"
        )
