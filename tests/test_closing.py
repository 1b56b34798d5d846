"""Closed instances: once a node has delivered and sent its votes, the
instance's record shrinks to what a REQ is answered from, and every later
message but a REQ is dropped unread.

Each protocol's node 0 is driven past close by an honest run of one
broadcast, then fed every message of that run again and of a run of
another payload under the same (source, h), from every sender, plus FWDs
of both payloads. None may act or make a record. A REQ is answered from the
closed record as from the open one: each sender's first, for a payload the
node held, and no later one.
"""
from collections import deque

import pytest

from rblab import hashing
from rblab.codec import CodeParams, encode
from rblab.core import (
    CLOSED,
    BroadcastRequest,
    Closed,
    Instance,
    MsgKind,
    Receive,
    Send,
    WireMessage,
    expand,
)
from rblab.protocols import RESILIENCE, ProtocolConfig, ProtocolKind, make_automaton
from rblab.protocols.base import Fetching
from rblab.simnet import RunStats

SOURCE, H = 1, 1
PAYLOAD, OTHER = b"the broadcast payload", b"another payload, same instance"
ANSWERS_REQS = {ProtocolKind.EC_CRB, ProtocolKind.H_BRB_3F1, ProtocolKind.H_BRB_5F1,
                ProtocolKind.EC_BRB_3F1, ProtocolKind.EC_BRB_4F1}

VOTES = {MsgKind.MSG, MsgKind.ECHO, MsgKind.ACC, MsgKind.FWD}
LATE_KINDS = {
    ProtocolKind.CRB_FLOOD: {MsgKind.MSG, MsgKind.FWD},
    ProtocolKind.EC_CRB: VOTES,
    ProtocolKind.BRACHA: VOTES,
    ProtocolKind.H_BRB_3F1: VOTES,
    ProtocolKind.H_BRB_5F1: VOTES - {MsgKind.ACC},
    ProtocolKind.EC_BRB_3F1: VOTES,
    ProtocolKind.EC_BRB_4F1: VOTES | {MsgKind.HASH_RB},
}


def _n(kind):
    return max(4, RESILIENCE[kind] + 1)


def _honest_run(kind, payload):
    """The automata after an honest FIFO run of one broadcast of ``payload``
    from SOURCE, and every (sender, message) node 0 received."""
    n = _n(kind)
    nodes = [make_automaton(ProtocolConfig(kind, n, 1, node=i)) for i in range(n)]
    queue = deque((SOURCE, a) for a in expand(
        nodes[SOURCE].step(BroadcastRequest(payload, H)), n) if isinstance(a, Send))
    received = []
    for _ in range(10_000):
        if not queue:
            break
        frm, send = queue.popleft()
        if send.to == 0:
            received.append((frm, send.msg))
        queue.extend((send.to, a) for a in expand(
            nodes[send.to].step(Receive(frm, send.msg)), n) if isinstance(a, Send))
    assert not queue, "the run does not quiesce"
    return nodes, received


def _late_messages(kind):
    """Every message node 0 took in honest runs of PAYLOAD and of OTHER, and
    a FWD of each, as sent by every node."""
    n = _n(kind)
    messages = [msg for payload in (PAYLOAD, OTHER) for _, msg in _honest_run(kind, payload)[1]]
    messages += [WireMessage(MsgKind.FWD, SOURCE, H, payload=m) for m in (PAYLOAD, OTHER)]
    return [(frm, msg) for msg in messages for frm in range(n)]


@pytest.mark.parametrize("kind", list(ProtocolKind), ids=lambda kind: kind.value)
def test_a_closed_instance_drops_late_messages_and_answers_each_req_once(kind):
    nodes, _ = _honest_run(kind, PAYLOAD)
    assert all(type(node.instances[(SOURCE, H)]) is Closed for node in nodes)
    # Exactly the protocols on the fetch layer answer REQs; the others
    # close to the shared empty record.
    assert all(isinstance(node, Fetching) == (kind in ANSWERS_REQS) for node in nodes)
    assert all((node.instances[(SOURCE, H)] is CLOSED) == (kind not in ANSWERS_REQS)
               for node in nodes)
    node = nodes[0]
    record = node.instances[(SOURCE, H)]
    late = _late_messages(kind)
    assert {msg.kind for _, msg in late} == LATE_KINDS[kind]
    for frm, msg in late:
        assert node.step(Receive(frm, msg)) == [], (frm, msg)
    # No record was made or reopened, nested ones included.
    assert list(node.instances.items()) == [((SOURCE, H), record)]
    if kind is ProtocolKind.EC_BRB_4F1:
        assert node.inner.instances == {}
    req = WireMessage(MsgKind.REQ, SOURCE, H, digest=hashing.digest(PAYLOAD))
    fwd = WireMessage(MsgKind.FWD, SOURCE, H, payload=PAYLOAD)
    for frm in range(_n(kind)):
        first = [Send(frm, fwd)] if kind in ANSWERS_REQS else []
        assert node.step(Receive(frm, req)) == first
        assert node.step(Receive(frm, req)) == []
    assert list(node.instances.items()) == [((SOURCE, H), record)]


def test_a_closed_record_keeps_every_payload_held():
    # An h-brb-5f1 node echoes the digest of its source's MSG, then
    # delivers another digest that n-f ECHOs back: it holds both at close
    # and answers a REQ for either.
    n, s, h = 6, 5, 1
    node = make_automaton(ProtocolConfig(ProtocolKind.H_BRB_5F1, n, 1, node=0))
    a, b = b"echoed", b"delivered"
    node.step(Receive(s, WireMessage(MsgKind.MSG, s, h, payload=a)))
    echo_b = WireMessage(MsgKind.ECHO, s, h, digest=hashing.digest(b))
    actions = [action for j in range(1, 6) for action in node.step(Receive(j, echo_b))]
    assert [x.to for x in actions if isinstance(x, Send)] == [1, 2]  # REQs at f+1
    actions = node.step(Receive(1, WireMessage(MsgKind.FWD, s, h, payload=b)))
    assert [x.payload for x in actions if not isinstance(x, Send)] == [b]
    record = node.instances[(s, h)]
    assert type(record) is Closed and sorted(record.held[1::2]) == sorted([a, b])
    for j, m in ((3, a), (4, b)):
        req = WireMessage(MsgKind.REQ, s, h, digest=hashing.digest(m))
        assert node.step(Receive(j, req)) == [Send(j, WireMessage(MsgKind.FWD, s, h, payload=m))]


def test_instances_stay_open_until_their_last_vote():
    # A bracha node that delivers on n-f ACCs before any ECHO has still to
    # echo the source's MSG, so it keeps the instance open until it has.
    node = make_automaton(ProtocolConfig(ProtocolKind.BRACHA, 4, 1, node=0))
    acc = WireMessage(MsgKind.ACC, SOURCE, H, payload=PAYLOAD)
    for j in (1, 2, 3):
        node.step(Receive(j, acc))
    rec = node.instances[(SOURCE, H)]
    assert type(rec) is Instance and rec.delivered and rec.acc_sent and not rec.echo_sent
    actions = node.step(Receive(SOURCE, WireMessage(MsgKind.MSG, SOURCE, H, payload=PAYLOAD)))
    assert [x.msg.kind for x in actions] == [MsgKind.ECHO]
    assert type(node.instances[(SOURCE, H)]) is Closed
    # Likewise an ec-crb node that decodes from k ECHOs before its own MSG.
    node = make_automaton(ProtocolConfig(ProtocolKind.EC_CRB, 4, 1, node=0))
    elements = encode(PAYLOAD, CodeParams(4, 3))
    for j in (1, 2, 3):
        node.step(Receive(j, WireMessage(MsgKind.ECHO, SOURCE, H, element=elements[j])))
    rec = node.instances[(SOURCE, H)]
    assert type(rec) is Instance and rec.delivered and rec.acc_sent
    actions = node.step(Receive(SOURCE, WireMessage(MsgKind.MSG, SOURCE, H, element=elements[0])))
    assert [x.msg.kind for x in actions] == [MsgKind.ECHO]
    assert type(node.instances[(SOURCE, H)]) is Closed


def test_acc_bookkeeping_is_one_voter_mask_per_instance_and_digest():
    stats = RunStats(4)
    d1, d2 = hashing.digest(b"one"), hashing.digest(b"two")
    for node in (2, 0, 3):
        stats.vouch(0, 1, node, d1)
    stats.vouch(0, 2, 1, d2)
    assert stats._accs == {(0, 1, d1): 0b1101, (0, 2, d2): 0b0010}
    assert stats.acc_digests == {(0, 1): {0: {d1}, 2: {d1}, 3: {d1}}, (0, 2): {1: {d2}}}
    stats.vouch(0, 1, 3, d2)
    stats.vouch(0, 1, 1, d1)
    assert stats._accs == {(0, 1, d1): 0b1111, (0, 2, d2): 0b0010, (0, 1, d2): 0b1000}
    assert stats.acc_digests == {(0, 1): {0: {d1}, 1: {d1}, 2: {d1}, 3: {d1, d2}},
                                 (0, 2): {1: {d2}}}
