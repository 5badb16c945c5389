"""Audit of the wake contract the optimized engine relies on.

The optimized round loop polls a process only when its declared
``next_activity`` round is due, when it has mail, or when it crashes or
rejoins.  That is sound only if every protocol keeps this contract: for
a process whose declared wake is later than round ``r``,

* ``send(r)`` returns nothing and changes no state, and
* with no mail, ``receive(r, [])`` leaves its state unchanged.

These tests check the contract on the reference loop, which still polls
every process every round (``fast_forward=False``), for every
fuzz-rotation family under the rotation's own fault scenarios, plus
AB-consensus with each Byzantine behaviour.  A family that breaks the
contract must fix its ``next_activity``; none is exempt.
"""

import random
import types

import pytest

from repro import api
from repro.check.driver import FAMILIES, sample_config, sample_instance
from repro.sim import Engine

#: families whose processes sleep between the rounds of their schedule
SPARSE_FAMILIES = {
    "consensus-few",
    "consensus-many",
    "aea",
    "scv",
    "gossip",
    "checkpointing",
    "ab-consensus",
}

_SCALARS = (bool, int, float, complex, str, bytes, type(None))


def _reachable(root, into: set[int]) -> None:
    """Collect the ids of the mutable objects reachable from ``root``."""
    stack = [root]
    while stack:
        value = stack.pop()
        if isinstance(value, _SCALARS) or id(value) in into:
            continue
        into.add(id(value))
        if isinstance(value, dict):
            stack.extend(value.keys())
            stack.extend(value.values())
        elif isinstance(value, (list, tuple, set, frozenset)):
            stack.extend(value)
        elif not isinstance(value, (types.FunctionType, types.MethodType)):
            stack.extend(getattr(value, "__dict__", {}).values())
            for slot in getattr(type(value), "__slots__", ()):
                if hasattr(value, slot):
                    stack.append(getattr(value, slot))


def shared_objects(processes) -> set[int]:
    """Ids of objects reachable from more than one process (overlay
    graphs, parameters, the signature service): their state is not any
    one process's state."""
    owners: dict[int, int] = {}
    shared: set[int] = set()
    for proc in processes:
        seen: set[int] = set()
        _reachable(proc.__dict__, seen)
        for key in seen:
            if owners.setdefault(key, proc.pid) != proc.pid:
                shared.add(key)
    return shared


def deep_state(root, opaque: set[int]):
    """A comparable value snapshot of everything ``root`` owns, following
    nested components (``state_digest`` stops at the first object)."""
    ancestors: set[int] = set()

    def walk(value):
        kind = type(value)
        if kind in _SCALARS:
            return value
        if kind is tuple and all(type(item) in _SCALARS for item in value):
            return value
        key = id(value)
        if key in opaque:
            return ("shared", key)
        if key in ancestors:
            return ("cycle",)
        if isinstance(value, (types.FunctionType, types.MethodType)):
            return ("callable", value.__qualname__)
        if isinstance(value, random.Random):
            return ("rng", value.getstate())
        ancestors.add(key)
        if isinstance(value, dict):
            out = ("dict", tuple((walk(k), walk(v)) for k, v in value.items()))
        elif isinstance(value, (list, tuple)):
            out = (type(value).__name__, tuple(walk(item) for item in value))
        elif isinstance(value, (set, frozenset)):
            out = ("set", frozenset(walk(item) for item in value))
        else:
            slots = tuple(
                walk(getattr(value, slot))
                for slot in getattr(type(value), "__slots__", ())
                if hasattr(value, slot)
            )
            out = (
                type(value).__name__,
                walk(getattr(value, "__dict__", {})),
                slots,
            )
        ancestors.discard(key)
        return out

    return walk(root)


class WakeAudit:
    """Swaps each process's class for an audited subclass that records
    its declared wake after every ``receive`` and checks the contract on
    every ``send``/``receive`` made before that wake."""

    def __init__(self, processes):
        self.opaque = shared_objects(processes)
        #: pid -> wake declared after its last receive (absent: due now)
        self.wake: dict[int, int] = {}
        #: pid -> (round, state) captured at a send made before the wake
        self.idle_send: dict[int, tuple[int, object]] = {}
        self.idle_sends = 0
        self.idle_receives = 0
        classes: dict[type, type] = {}
        for proc in processes:
            base = type(proc)
            if base not in classes:
                classes[base] = self._audited(base)
            proc.__class__ = classes[base]

    def state(self, proc):
        return (proc.state_digest(), deep_state(proc, self.opaque))

    def _audited(self, base: type) -> type:
        audit = self

        def on_start(proc):
            base.on_start(proc)
            # (Re)started, e.g. by a churn rejoin: due at once.
            audit.wake.pop(proc.pid, None)
            audit.idle_send.pop(proc.pid, None)

        def send(proc, rnd):
            wake = audit.wake.get(proc.pid, rnd)
            if wake <= rnd:
                return base.send(proc, rnd)
            before = audit.state(proc)
            out = list(base.send(proc, rnd))
            assert not out, (
                f"{base.__name__} pid {proc.pid} sent {out!r} in round {rnd}, "
                f"before its declared wake {wake}"
            )
            assert audit.state(proc) == before, (
                f"{base.__name__} pid {proc.pid}: send({rnd}) changed state "
                f"before its declared wake {wake}"
            )
            audit.idle_send[proc.pid] = (rnd, before)
            audit.idle_sends += 1
            return out

        def receive(proc, rnd, inbox):
            idle = audit.idle_send.pop(proc.pid, None)
            base.receive(proc, rnd, inbox)
            if idle is not None and not inbox:
                assert audit.state(proc) == idle[1], (
                    f"{base.__name__} pid {proc.pid}: receive({rnd}, []) "
                    f"changed state before its declared wake "
                    f"{audit.wake[proc.pid]}"
                )
                audit.idle_receives += 1
            if not proc.halted:
                audit.wake[proc.pid] = proc.next_activity(rnd)

        return type(
            f"WakeAudited{base.__name__}",
            (base,),
            {"on_start": on_start, "send": send, "receive": receive},
        )


def audit_run(recipe: dict, **execution) -> WakeAudit:
    prepared = api.prepare_recipe(recipe, **execution)
    audit = WakeAudit(prepared.processes)
    result = Engine(
        prepared.processes,
        prepared.adversary,
        byzantine=prepared.byzantine,
        max_rounds=prepared.max_rounds,
        fast_forward=False,
        optimized=False,
    ).run()
    assert result.metrics.rounds > 0
    return audit


def _rotation_configs(per_family: int = 2):
    for index in range(per_family * len(FAMILIES)):
        config = sample_config(0, index)
        yield pytest.param(config, id=f"{config.family}-{index}-{config.kind}")


@pytest.mark.parametrize("config", list(_rotation_configs()))
def test_rotation_family_keeps_wake_contract(config):
    execution: dict = {"max_rounds": config.max_rounds}
    if config.recipe["name"] != "ab_consensus":
        execution["crashes"] = "random" if config.scenario is None else None
    if config.scenario is not None:
        execution["scenario"] = config.scenario
    audit = audit_run(config.recipe, seed=config.index, **execution)
    if config.family in SPARSE_FAMILIES:
        # The audit must have had idle polls to check, or it proved
        # nothing.  The baselines declare every round (rnd + 1), so
        # they keep the contract trivially.
        assert audit.idle_sends > 0
        assert audit.idle_receives > 0


@pytest.mark.parametrize("behaviour", ["silent", "equivocate", "spam"])
def test_ab_consensus_keeps_wake_contract(behaviour):
    recipe = sample_instance("ab-consensus", random.Random(7), 7, n=16, t=4)
    recipe["behaviour"] = behaviour
    recipe["byzantine"] = [0, 9]
    audit = audit_run(recipe)
    # Spammers reach every node every round, so only the idle sends of
    # the honest nodes are certain to be exercised.
    assert audit.idle_sends > 0
