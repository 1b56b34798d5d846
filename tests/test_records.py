"""The records built per message and per delivery.

Messages, events, actions and the simulator's delivery records are plain
slotted dataclasses: cheap to build, compared by value,
not hashable and mutable by Python's rules. Every recipient of a multicast
shares one message object, so the program must never change a message once
it is sent; the run-wide check below watches every message each node
receives or returns, by identity, and fails on the first field that moves.
The records that are set members or cache keys stay frozen and hashable.
"""
from dataclasses import fields, replace

import pytest

import test_acceptance
from test_acceptance import FAULT_MATRIX, _fault_injected_violations
from rblab.adversary import WitnessAutomaton, build_world
from rblab.codec import CodedElement, CodeParams
from rblab.core import (
    BroadcastRequest,
    Deliver,
    MsgKind,
    Multicast,
    Receive,
    Send,
    WireMessage,
)
from rblab.protocols import RESILIENCE, ProtocolConfig, ProtocolKind, make_automaton
from rblab.simnet import (
    DeliverRecord,
    NetParams,
    Topology,
    check_acc_consistency,
    check_broadcast_properties,
)

ELEMENT = CodedElement(index=2, data=b"\x01\x02", claimed_len=3)


def _msg() -> WireMessage:
    return WireMessage(MsgKind.ECHO, 1, 7, digest=bytes(32), element=ELEMENT)


# Each slotted record class, built from fresh but equal field values.
SLOTTED = {
    WireMessage: _msg,
    BroadcastRequest: lambda: BroadcastRequest(b"payload", 3),
    Receive: lambda: Receive(2, _msg()),
    Send: lambda: Send(4, _msg()),
    Multicast: lambda: Multicast(_msg()),
    Deliver: lambda: Deliver(1, b"payload", 3),
    DeliverRecord: lambda: DeliverRecord(0.5, b"payload", 2),
}


@pytest.mark.parametrize("cls", SLOTTED, ids=lambda cls: cls.__name__)
def test_record_classes_are_slotted_and_compare_by_value(cls):
    record, twin = SLOTTED[cls](), SLOTTED[cls]()
    assert "__slots__" in vars(cls)
    assert not hasattr(record, "__dict__")
    assert record == twin and record is not twin
    first = fields(cls)[0]
    other = replace(record, **{first.name: None})
    assert other != record


def test_a_message_repr_names_every_field():
    assert repr(WireMessage(MsgKind.MSG, 0, 1, payload=b"m")) == (
        "WireMessage(kind=<MsgKind.MSG: 1>, source=0, h=1, payload=b'm', "
        "digest=None, element=None, instance=None)")


def test_set_members_and_cache_keys_stay_hashable():
    for make in (lambda: CodedElement(2, b"\x01", 1), Topology, NetParams,
                 lambda: CodeParams(7, 3)):
        a, b = make(), make()
        assert a == b and hash(a) == hash(b)
        assert len({a, b}) == 1


@pytest.mark.parametrize("kind", list(ProtocolKind), ids=lambda kind: kind.value)
def test_step_rejects_an_event_that_is_not_one(kind):
    automaton = make_automaton(ProtocolConfig(kind, RESILIENCE[kind] + 1, 1, node=0))
    for event in (object(), Send(1, _msg()), Deliver(0, b"m", 1), _msg()):
        with pytest.raises(TypeError):
            automaton.step(event)
    assert automaton.instances == {}


def test_the_witness_strawman_rejects_a_non_event_and_tallies_only_what_it_reads():
    node = WitnessAutomaton(5, 1, node=0, deliver_threshold=1)
    for event in (object(), Send(1, _msg()), Deliver(0, b"m", 1), _msg()):
        with pytest.raises(TypeError):
            node.step(event)
    # Any one ECHO it tallied would deliver at this threshold, and a MSG
    # from its source would make it witness.
    ignored = [WireMessage(kind, 2, 1, payload=b"v") for kind in
               (MsgKind.ACC, MsgKind.REQ, MsgKind.FWD, MsgKind.HASH_RB)]
    ignored += [WireMessage(kind, 2, 1, digest=bytes(32)) for kind in (MsgKind.MSG, MsgKind.ECHO)]
    for msg in ignored:
        assert node.step(Receive(2, msg)) == []
    assert node.supporters == {} and node.witnessed == {} and node.delivered == set()
    assert node.instances == {}


# -- no message changes after it is sent ---------------------------------------

def _fields(msg: WireMessage) -> tuple:
    return (msg.kind, msg.source, msg.h, msg.payload, msg.digest, msg.element,
            msg.instance)


class _Watch:
    """Snapshots the fields of every message a watched node receives or
    returns in a Send or a Multicast, by identity and holding a reference so
    no id is reused, and compares them all again at every later receive."""

    def __init__(self) -> None:
        self.seen: dict[int, tuple[WireMessage, tuple]] = {}
        self.receives = 0

    def note(self, msg: WireMessage) -> None:
        if id(msg) not in self.seen:
            self.seen[id(msg)] = (msg, _fields(msg))

    def check(self) -> None:
        for msg, snapshot in self.seen.values():
            assert _fields(msg) == snapshot, f"{msg!r} changed after it was sent"

    def wrap(self, automaton) -> None:
        step = automaton.step

        def watched(event):
            if type(event) is Receive:
                self.receives += 1
                self.check()
                self.note(event.msg)
            actions = step(event)
            for action in actions:
                if type(action) in (Send, Multicast):
                    self.note(action.msg)
            return actions

        automaton.step = watched


def _watched_build_world(watch: _Watch):
    def build(*args, **kwargs):
        world = build_world(*args, **kwargs)
        for automaton in world.automata:
            watch.wrap(automaton)
        return world
    return build


@pytest.mark.parametrize("kind", list(ProtocolKind), ids=lambda kind: kind.value)
def test_no_message_changes_after_it_is_sent_in_honest_worlds(kind):
    for f in (1, 2):
        watch = _Watch()
        n = RESILIENCE[kind] * f + 1
        world = build_world(kind, n, f, seed=f, net=NetParams(base_delay=1.0, jitter=1.0))
        for automaton in world.automata:
            watch.wrap(automaton)
        for h, source in enumerate((0, n - 1, n // 2), start=1):
            world.broadcast(source, bytes([h]) * (40 + h), h, at=0.5 * h)
        world.run()
        watch.check()
        assert check_broadcast_properties(world) + check_acc_consistency(world) == []
        assert len(watch.seen) >= 3 and watch.receives >= 3 * n


@pytest.mark.parametrize("kind, strategies", FAULT_MATRIX,
                         ids=[kind.value for kind, _ in FAULT_MATRIX])
def test_no_message_changes_after_it_is_sent_under_faults(kind, strategies, monkeypatch):
    # The fault matrix's own cells (Silent, Crash, EquivocatingSource and
    # CorruptRelay), with every automaton watched from the start.
    for strategy in strategies:
        receives = 0
        for f in (1, 2):
            for seed in range(5):
                watch = _Watch()
                monkeypatch.setattr(test_acceptance, "build_world",
                                    _watched_build_world(watch))
                assert _fault_injected_violations(kind, f, strategy, seed) == []
                watch.check()
                receives += watch.receives
        assert receives > 100, strategy
