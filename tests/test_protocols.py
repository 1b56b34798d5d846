"""Broadcast automata: config validation, quorum walkthroughs, wave counts."""
import sys
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import stretch_link
from rblab import hashing
from rblab.adversary import CorruptRelay, build_world
from rblab.codec import CodedElement, CodeParams, encode
from rblab.core import (
    HEADER_SIZE,
    KIND_VARIANTS,
    BodyVariant,
    BroadcastRequest,
    Deliver,
    Instance,
    MsgKind,
    Multicast,
    Receive,
    Send,
    WireMessage,
    decode_envelope,
    encode_envelope,
    expand,
)
from rblab.protocols import (
    RESILIENCE,
    BadCodeParams,
    ProtocolConfig,
    ProtocolKind,
    ResilienceViolation,
    ecbrb,
    make_automaton,
)
from rblab.protocols.base import Automaton
from rblab.protocols.bracha import Bracha
from rblab.protocols.crb import CrbFlood, EcCrb
from rblab.protocols.ecbrb import EcBrb3f1, EcBrb4f1
from rblab.protocols.hbrb import HBrb3f1, HBrb5f1
from rblab.simnet import NetParams, check_broadcast_properties


# The protocols that tolerate Byzantine nodes: n >= 3f+1 or more.
BYZANTINE_KINDS = frozenset(kind for kind, c in RESILIENCE.items() if c >= 3)


def _auto(kind, n, f, node=0, k=None):
    return make_automaton(ProtocolConfig(kind, n, f, node, k=k))


def _recv(automaton, frm, msg):
    return automaton.step(Receive(frm, msg))


def _record(automaton, s, h):
    """The record of instance (s, h), opened if the node has none."""
    return automaton.instances.setdefault((s, h), Instance())


def _sends(automaton, actions):
    """The Sends in ``actions`` once its multicasts are expanded to ``automaton``'s n nodes."""
    return [a for a in expand(actions, automaton.n) if isinstance(a, Send)]


def _delivers(actions):
    return [a for a in actions if isinstance(a, Deliver)]


# -- configuration ----------------------------------------------------------

def test_resilience_floors():
    for kind, c in RESILIENCE.items():
        for f in (1, 2):
            floor = c * f + 1
            ProtocolConfig(kind, floor, f, 0).validate()
            with pytest.raises(ResilienceViolation) as err:
                ProtocolConfig(kind, floor - 1, f, 0).validate()
            assert f"needs n >= {c}f+1 = {floor}" in str(err.value)


def test_resilience_floor_message_names_protocol():
    with pytest.raises(ResilienceViolation) as err:
        ProtocolConfig(ProtocolKind.H_BRB_5F1, 4, 1, 0).validate()
    assert "h-brb-5f1 needs n >= 5f+1 = 6, got n=4" in str(err.value)


def test_code_dimension_rules():
    with pytest.raises(BadCodeParams) as err:
        ProtocolConfig(ProtocolKind.EC_BRB_4F1, 13, 3, 0, k=5).validate()
    assert "requires k = n-3f = 4, got k=5" in str(err.value)
    with pytest.raises(BadCodeParams) as err:
        ProtocolConfig(ProtocolKind.EC_BRB_3F1, 7, 2, 0, k=4).validate()
    assert "requires k = f+1 = 3" in str(err.value)
    # Matching explicit k is accepted.
    ProtocolConfig(ProtocolKind.EC_BRB_4F1, 13, 3, 0, k=4).validate()
    ProtocolConfig(ProtocolKind.EC_BRB_3F1, 7, 2, 0, k=3).validate()


def test_ec_crb_k_bounds():
    ProtocolConfig(ProtocolKind.EC_CRB, 5, 1, 0, k=4).validate()
    ProtocolConfig(ProtocolKind.EC_CRB, 5, 1, 0, k=1).validate()
    for bad in (0, 5):
        with pytest.raises(BadCodeParams) as err:
            ProtocolConfig(ProtocolKind.EC_CRB, 5, 1, 0, k=bad).validate()
        assert "1 <= k <= n-f = 4" in str(err.value)


def test_uncoded_protocols_reject_k():
    with pytest.raises(BadCodeParams) as err:
        ProtocolConfig(ProtocolKind.BRACHA, 4, 1, 0, k=2).validate()
    assert "does not take a code dimension" in str(err.value)


def test_misc_config_guards():
    with pytest.raises(ValueError):
        ProtocolConfig(ProtocolKind.BRACHA, 4, 1, 4).validate()
    with pytest.raises(ResilienceViolation):
        ProtocolConfig(ProtocolKind.BRACHA, 0, 0, 0).validate()
    with pytest.raises(ResilienceViolation):
        ProtocolConfig(ProtocolKind.BRACHA, 4, -1, 0).validate()
    with pytest.raises(BadCodeParams):
        ProtocolConfig(ProtocolKind.EC_CRB, 256, 0, 0).validate()
    # Sub-floor worlds are constructible when explicitly unguarded.
    ProtocolConfig(ProtocolKind.BRACHA, 3, 1, 0, strict_resilience=False).validate()


def test_resolved_k():
    assert ProtocolConfig(ProtocolKind.EC_CRB, 5, 1, 0).resolved_k() == 4
    assert ProtocolConfig(ProtocolKind.EC_CRB, 5, 1, 0, k=2).resolved_k() == 2
    assert ProtocolConfig(ProtocolKind.EC_BRB_3F1, 7, 2, 0).resolved_k() == 3
    assert ProtocolConfig(ProtocolKind.EC_BRB_4F1, 13, 3, 0).resolved_k() == 4
    assert ProtocolConfig(ProtocolKind.BRACHA, 4, 1, 0).resolved_k() is None


def test_make_automaton_maps_kinds():
    expect = {
        ProtocolKind.CRB_FLOOD: CrbFlood,
        ProtocolKind.EC_CRB: EcCrb,
        ProtocolKind.BRACHA: Bracha,
        ProtocolKind.H_BRB_3F1: HBrb3f1,
        ProtocolKind.H_BRB_5F1: HBrb5f1,
        ProtocolKind.EC_BRB_3F1: EcBrb3f1,
        ProtocolKind.EC_BRB_4F1: EcBrb4f1,
    }
    for kind, cls in expect.items():
        f = 1
        n = RESILIENCE[kind] * f + 1
        assert isinstance(_auto(kind, n, f), cls)


# -- whole-world message counts ----------------------------------------------

def _count_run(kind, n, f, payload=b"count me"):
    world = build_world(kind, n, f)
    world.broadcast(0, payload, 1)
    stats = world.run()
    assert check_broadcast_properties(world) == []
    assert stats.total_sent_bytes() == stats.total_recv_bytes()
    assert stats.total_sent_count() == stats.total_recv_count()
    assert not stats.double_deliveries
    assert len(stats.delivers) == n
    return stats


def test_flood_sends_n_plus_n_squared():
    stats = _count_run(ProtocolKind.CRB_FLOOD, 4, 0)
    assert stats.total_sent_count() == 4 + 16
    assert stats.total_sent_count(MsgKind.MSG) == 20


def test_double_echo_sends_n_plus_2n_squared():
    stats = _count_run(ProtocolKind.BRACHA, 4, 1)
    assert stats.total_sent_count(MsgKind.MSG) == 4
    assert stats.total_sent_count(MsgKind.ECHO) == 16
    assert stats.total_sent_count(MsgKind.ACC) == 16
    assert stats.total_sent_count() == 36


def test_digest_double_echo_counts_match_payload_variant():
    stats = _count_run(ProtocolKind.H_BRB_3F1, 4, 1)
    assert stats.total_sent_count() == 36
    assert stats.total_sent_count(MsgKind.REQ) == 0
    assert stats.total_sent_count(MsgKind.FWD) == 0


def test_single_echo_wave_counts():
    stats = _count_run(ProtocolKind.H_BRB_5F1, 6, 1)
    assert stats.total_sent_count(MsgKind.MSG) == 6
    assert stats.total_sent_count(MsgKind.ECHO) == 36
    assert stats.total_sent_count() == 42


def test_coded_crash_variant_counts():
    stats = _count_run(ProtocolKind.EC_CRB, 4, 1)
    assert stats.total_sent_count(MsgKind.MSG) == 4
    assert stats.total_sent_count(MsgKind.ECHO) == 16
    assert stats.total_sent_count(MsgKind.ACC) == 16


def test_nested_digest_broadcast_doubles_message_count():
    stats = _count_run(ProtocolKind.EC_BRB_4F1, 5, 1)
    assert stats.total_sent_count(MsgKind.HASH_RB) == 55
    assert stats.total_sent_count(MsgKind.MSG) == 5
    assert stats.total_sent_count(MsgKind.ECHO) == 25
    assert stats.total_sent_count(MsgKind.ACC) == 25
    assert stats.total_sent_count() == 110


# -- payload double echo, step by step ----------------------------------------

def test_double_echo_walkthrough():
    node = _auto(ProtocolKind.BRACHA, 4, 1, node=0)
    m, h = b"walk", 1
    echo = WireMessage(MsgKind.ECHO, 3, h, payload=m)
    assert _recv(node, 1, echo) == []
    # Second distinct echoer reaches f+1: amplify.
    acts = _recv(node, 2, echo)
    assert [a.to for a in _sends(node, acts)] == [0, 1, 2, 3]
    assert all(a.msg.kind is MsgKind.ECHO and a.msg.payload == m
               for a in _sends(node, acts))
    # Duplicate sender and equivocating same-sender echo both ignored.
    assert _recv(node, 2, echo) == []
    assert _recv(node, 1, WireMessage(MsgKind.ECHO, 3, h, payload=b"liar")) == []
    # Third echoer reaches n-f: accept wave (echo already sent).
    acts = _recv(node, 3, echo)
    assert all(a.msg.kind is MsgKind.ACC for a in _sends(node, acts))
    assert len(_sends(node, acts)) == 4
    acc = WireMessage(MsgKind.ACC, 3, h, payload=m)
    assert _recv(node, 1, acc) == []
    assert _recv(node, 2, acc) == []
    acts = _recv(node, 3, acc)
    assert _delivers(acts) == [Deliver(3, m, h)]
    # Further support never re-delivers.
    assert _delivers(_recv(node, 0, acc)) == []


def test_double_echo_accept_short_circuit():
    node = _auto(ProtocolKind.BRACHA, 4, 1, node=0)
    m, h = b"fast accept", 2
    _recv(node, 3, WireMessage(MsgKind.MSG, 3, h, payload=m))
    acc = WireMessage(MsgKind.ACC, 3, h, payload=m)
    assert _recv(node, 1, acc) == []
    # f+1 accepts trigger the node's own accept without n-f echoes.
    acts = _recv(node, 2, acc)
    sends = _sends(node, acts)
    assert len(sends) == 4 and all(a.msg.kind is MsgKind.ACC for a in sends)


def test_double_echo_ignores_digest_only_votes():
    node = _auto(ProtocolKind.BRACHA, 4, 1, node=0)
    digest = hashing.digest(b"x")
    assert _recv(node, 1, WireMessage(MsgKind.ECHO, 3, 1, digest=digest)) == []
    assert _recv(node, 1, WireMessage(MsgKind.ACC, 3, 1, digest=digest)) == []


# -- digest double echo with payload fetch ------------------------------------

def test_digest_vote_fetch_walkthrough():
    node = _auto(ProtocolKind.H_BRB_3F1, 4, 1, node=3)
    m, h = b"fetch me", 1
    d = hashing.digest(m)
    acc = WireMessage(MsgKind.ACC, 0, h, digest=d)
    assert _recv(node, 0, acc) == []
    # Exactly f+1 accepts for an unknown payload: ask the voters.
    acts = _recv(node, 1, acc)
    reqs = _sends(node, acts)
    assert [a.to for a in reqs] == [0, 1]
    assert all(a.msg.kind is MsgKind.REQ and a.msg.digest == d for a in reqs)
    # Forwarded copies count only from nodes actually asked...
    fwd = WireMessage(MsgKind.FWD, 0, h, payload=m)
    assert _recv(node, 2, fwd) == []
    # ...only when the payload hashes to the requested digest...
    assert _recv(node, 0, WireMessage(MsgKind.FWD, 0, h, payload=b"forged")) == []
    # ...and only the first FWD of each: node 0 had its one.
    assert _recv(node, 0, fwd) == []
    acts = _recv(node, 1, fwd)
    sends = _sends(node, acts)
    assert len(sends) == 4 and all(a.msg.kind is MsgKind.ACC for a in sends)
    assert all(a.msg.digest == d for a in sends)
    acts = _recv(node, 2, acc)
    assert _delivers(acts) == [Deliver(0, m, h)]


def test_payload_requests_are_answered_once_per_asker():
    holder = _auto(ProtocolKind.H_BRB_3F1, 4, 1, node=1)
    m, h = b"held payload", 1
    d = hashing.digest(m)
    _recv(holder, 0, WireMessage(MsgKind.MSG, 0, h, payload=m))
    acts = _recv(holder, 2, WireMessage(MsgKind.REQ, 0, h, digest=d))
    assert [ (a.to, a.msg.kind, a.msg.payload) for a in _sends(holder, acts) ] \
        == [(2, MsgKind.FWD, m)]
    # Same asker again: budget consumed.
    assert _recv(holder, 2, WireMessage(MsgKind.REQ, 0, h, digest=d)) == []
    # A request for a digest the holder cannot resolve burns the budget too.
    unknown = hashing.digest(b"not held")
    assert _recv(holder, 3, WireMessage(MsgKind.REQ, 0, h, digest=unknown)) == []
    assert _recv(holder, 3, WireMessage(MsgKind.REQ, 0, h, digest=d)) == []


def test_single_echo_wave_walkthrough():
    node = _auto(ProtocolKind.H_BRB_5F1, 6, 1, node=0)
    m, h = b"one wave", 1
    d = hashing.digest(m)
    echo = WireMessage(MsgKind.ECHO, 5, h, digest=d)
    assert _recv(node, 1, echo) == []
    # f+1 echoes for an unknown payload: fetch from the echoers.
    acts = _recv(node, 2, echo)
    assert [a.to for a in _sends(node, acts)] == [1, 2]
    assert all(a.msg.kind is MsgKind.REQ for a in _sends(node, acts))
    assert _recv(node, 1, WireMessage(MsgKind.FWD, 5, h, payload=m)) == []
    assert _recv(node, 3, echo) == []
    # n-2f echoes: amplify with our own echo.
    acts = _recv(node, 4, echo)
    sends = _sends(node, acts)
    assert len(sends) == 6 and all(a.msg.kind is MsgKind.ECHO for a in sends)
    # n-f echoes: deliver, with no accept wave in this protocol.
    acts = _recv(node, 5, echo)
    assert _delivers(acts) == [Deliver(5, m, h)]
    assert _sends(node, acts) == []


# -- the double-echo engine's table and fetch triggers ------------------------

def test_send_all_is_one_multicast_and_expands_to_n_sends():
    for kind in ProtocolKind:
        n = RESILIENCE[kind] + 1
        node = _auto(kind, n, 1, node=1)
        msg = WireMessage(MsgKind.ECHO, 0, 1, payload=b"to all")
        actions = node.send_all(msg)
        assert actions == [Multicast(msg)]
        # The Send list a multicast stands for: every node, in order.
        assert expand(actions, n) == [Send(to, msg) for to in range(n)]


def test_expand_keeps_action_order():
    a, b = (WireMessage(MsgKind.REQ, 0, 1, digest=bytes(32)),
            WireMessage(MsgKind.ACC, 0, 1, digest=bytes(32)))
    deliver = Deliver(0, b"p", 1)
    assert expand([Send(2, a), Multicast(b), deliver], 3) == \
        [Send(2, a), Send(0, b), Send(1, b), Send(2, b), deliver]
    assert expand([], 3) == []


def _late_msg_actions(kind, n, echoers):
    """A node's actions on the source's MSG after ECHOs from ``echoers``."""
    m, s, h = b"late source", 0, 1
    node = _auto(kind, n, 1, node=n - 1)
    echo = WireMessage(MsgKind.ECHO, s, h, payload=m) if kind is ProtocolKind.BRACHA \
        else WireMessage(MsgKind.ECHO, s, h, digest=hashing.digest(m))
    for j in echoers:
        _recv(node, j, echo)
    actions = _recv(node, s, WireMessage(MsgKind.MSG, s, h, payload=m))
    rec = _record(node, s, h)
    names = ["deliver" if isinstance(a, Deliver) else a.msg.kind.name for a in actions]
    return names, rec


def test_own_echo_on_a_late_msg_completes_the_quorum():
    # n-f-1 other ECHOs, then the source's MSG: the node's own ECHO makes
    # n-f, so it must accept (or, without an ACC wave, deliver) right away.
    names, rec = _late_msg_actions(ProtocolKind.BRACHA, 4, [1, 2])
    assert names == ["ACC"]              # bracha amplified its ECHO at f+1 already
    assert len(rec.candidates[b"late source"].echoes) == 3  # bracha keys on the payload
    assert rec.acc_sent
    names, rec = _late_msg_actions(ProtocolKind.H_BRB_3F1, 4, [1, 2])
    assert names == ["ECHO", "ACC"]      # digest ECHOs alone could not amplify
    assert rec.acc_sent
    names, rec = _late_msg_actions(ProtocolKind.H_BRB_5F1, 6, [1, 2, 3, 4])
    assert names == ["ECHO", "deliver"]
    assert rec.delivered


ENGINE_KINDS = (ProtocolKind.BRACHA, ProtocolKind.H_BRB_3F1, ProtocolKind.H_BRB_5F1,
                ProtocolKind.EC_BRB_3F1)


def _first_action_counts(node, votes):
    """Feed ``votes`` in order; for each action kind (ECHO, ACC, REQ sends
    and deliveries), the number of votes fed when the node first took it."""
    firsts = {}
    for count, (frm, msg) in enumerate(votes, 1):
        for action in _recv(node, frm, msg):
            name = "deliver" if isinstance(action, Deliver) else action.msg.kind.name
            firsts.setdefault(name, count)
    return firsts


@pytest.mark.parametrize("kind", ENGINE_KINDS, ids=lambda kind: kind.value)
def test_threshold_table_where_quorums_differ(kind):
    # At n=4, f=1 the walkthroughs cannot tell f+1 from n-2f; here every
    # entry of the table has its own count.
    f = 2
    n = 11 if kind is ProtocolKind.H_BRB_5F1 else 7
    m, s, h = b"thresholds", 1, 1
    d = hashing.digest(m)
    elements = encode(m, CodeParams(n, f + 1))
    senders = range(1, n)

    def held_node():
        node = _auto(kind, n, f, node=0)
        _record(node, s, h).hold(d, m)
        return node

    def vote(vote_kind, j):
        if kind is ProtocolKind.BRACHA:
            return j, WireMessage(vote_kind, s, h, payload=m)
        if kind is ProtocolKind.EC_BRB_3F1 and vote_kind is MsgKind.ECHO:
            return j, WireMessage(vote_kind, s, h, digest=d, element=elements[j])
        return j, WireMessage(vote_kind, s, h, digest=d)

    by_echoes = _first_action_counts(held_node(), [vote(MsgKind.ECHO, j) for j in senders])
    by_accs = _first_action_counts(held_node(), [vote(MsgKind.ACC, j) for j in senders])
    if kind is ProtocolKind.H_BRB_5F1:
        # No ACC wave: amplify at n-2f ECHOs, deliver at n-f, ignore ACCs.
        assert by_echoes == {"ECHO": n - 2 * f, "deliver": n - f}
        assert by_accs == {}
    else:
        assert by_echoes == {"ECHO": f + 1, "ACC": n - f}
        assert by_accs == {"ACC": f + 1, "deliver": n - f}


def test_fetch_triggers_on_accepts_for_an_unheld_digest():
    # h-brb-3f1 and ec-brb-3f1 ask the ACC backers once, at exactly f+1 of
    # them, and no later ACC sender while the payload is missing.
    n, f = 7, 2
    d = hashing.digest(b"never held")
    acc = WireMessage(MsgKind.ACC, 6, 1, digest=d)
    for kind in (ProtocolKind.H_BRB_3F1, ProtocolKind.EC_BRB_3F1):
        node = _auto(kind, n, f, node=0)
        asked = [[(a.to, a.msg.kind) for a in _sends(node, _recv(node, j, acc))]
                 for j in range(1, f + 4)]
        assert asked == [[]] * f + [[(j, MsgKind.REQ) for j in range(1, f + 2)]] + [[]] * 2, kind


# -- coded Byzantine broadcast, low-rate variant -------------------------------

def test_coded_vote_reassembly_tolerates_garbage_elements():
    # One corrupt relay (f = 1) echoes garbage at its own position 2, with
    # the true claimed length or with a false one. Garbage of the true
    # length is one error among the held elements, so the payload decodes
    # once m >= k + 2 = 4 elements are held (at the source's MSG); garbage
    # of another length sits apart and the two honest ECHOs decode alone.
    m, s, h = b"reassembled from coded votes", 3, 1
    d = hashing.digest(m)
    elements = encode(m, CodeParams(4, 2))
    width = len(elements[0].data)
    for garbage, decoded_at in ((CodedElement(2, b"\xff" * width, len(m)), "MSG"),
                                (CodedElement(2, b"\x00" * 50, 99), "ECHO 3")):
        node = _auto(ProtocolKind.EC_BRB_3F1, 4, 1, node=0)
        steps = [
            ("ECHO 1", 1, WireMessage(MsgKind.ECHO, s, h, digest=d, element=garbage)),
            ("ECHO 2", 2, WireMessage(MsgKind.ECHO, s, h, digest=d, element=elements[2])),
            ("ECHO 3", 3, WireMessage(MsgKind.ECHO, s, h, digest=d, element=elements[3])),
            ("MSG", s, WireMessage(MsgKind.MSG, s, h, digest=d, element=elements[0])),
        ]
        sent = {label: _sends(node, _recv(node, frm, msg)) for label, frm, msg in steps}
        assert next(label for label, sends in sent.items() if sends) == decoded_at
        sends = [a for batch in sent.values() for a in batch]
        echoes = [a for a in sends if a.msg.kind is MsgKind.ECHO]
        accs = [a for a in sends if a.msg.kind is MsgKind.ACC]
        assert len(echoes) == 4 and len(accs) == 4
        # The echo carries this node's own element, index node+1.
        assert all(a.msg.element == elements[0] for a in echoes)
        acc = WireMessage(MsgKind.ACC, s, h, digest=d)
        assert _recv(node, 1, acc) == []
        assert _recv(node, 2, acc) == []
        assert _delivers(_recv(node, 3, acc)) == [Deliver(s, m, h)]


@pytest.mark.parametrize("kind", [ProtocolKind.EC_BRB_3F1, ProtocolKind.EC_BRB_4F1],
                         ids=lambda kind: kind.value)
def test_misindexed_coded_element_is_not_held(kind):
    # Node j only ever sends the element at position j+1, and the source
    # sends node i position i+1. An ECHO from node 1 that carries position
    # 3 is dropped, so it cannot void or take node 2's position.
    n = RESILIENCE[kind] + 1
    m, s, h = b"misindexed", n - 1, 1
    d = hashing.digest(m)
    node = _auto(kind, n, 1, node=0)
    elements = encode(m, node.params)
    digest = d if kind is ProtocolKind.EC_BRB_3F1 else None
    forged = CodedElement(3, bytes(len(elements[2].data)), len(m))
    assert _recv(node, 1, WireMessage(MsgKind.ECHO, s, h, digest=digest, element=forged)) == []
    rec = _record(node, s, h)
    assert rec.echo_voted == 0 and rec.elements is None and not rec.candidates
    # Likewise a MSG whose element is not at this node's position.
    assert _recv(node, s, WireMessage(MsgKind.MSG, s, h, digest=digest, element=elements[1])) == []
    assert not rec.msg_seen
    _recv(node, 2, WireMessage(MsgKind.ECHO, s, h, digest=digest, element=elements[2]))
    if kind is ProtocolKind.EC_BRB_3F1:
        assert rec.candidates[d].decoder.groups == {len(m): {3: elements[2].data}}
    else:
        assert rec.elements == {elements[2]}


# -- coded Byzantine broadcast, high-rate variant ------------------------------

def _tunneled(inner):
    return WireMessage(MsgKind.HASH_RB, inner.source, inner.h,
                       payload=encode_envelope(inner))


def test_nested_envelope_guards():
    node = _auto(ProtocolKind.EC_BRB_4F1, 5, 1, node=0)
    d = hashing.digest(b"m")
    assert _recv(node, 4, WireMessage(MsgKind.HASH_RB, 4, 1,
                                      payload=b"garbage")) == []
    # Untagged inner envelope.
    plain = WireMessage(MsgKind.MSG, 4, 1, payload=d)
    assert _recv(node, 4, _tunneled(plain)) == []
    # Source mismatch between carrier and inner envelope.
    crossed = WireMessage(MsgKind.MSG, 3, 1, payload=d, instance="hash-rb")
    outer = WireMessage(MsgKind.HASH_RB, 4, 1, payload=encode_envelope(crossed))
    assert _recv(node, 4, outer) == []
    # Inner kinds outside the nested broadcast's vocabulary.
    req = WireMessage(MsgKind.REQ, 4, 1, digest=d, instance="hash-rb")
    assert _recv(node, 4, _tunneled(req)) == []


def test_rejected_tunneled_envelopes_stay_rejected_on_every_copy():
    # Each envelope's parse is kept for the instance, so every later copy
    # of a rejected one must be rejected again, and a good one accepted.
    node = _auto(ProtocolKind.EC_BRB_4F1, 5, 1, node=0)
    d = hashing.digest(b"m")
    other_source = encode_envelope(WireMessage(MsgKind.MSG, 3, 1, payload=d, instance="hash-rb"))
    other_h = encode_envelope(WireMessage(MsgKind.MSG, 4, 2, payload=d, instance="hash-rb"))
    for envelope in (b"garbage", other_source, other_h):
        for frm in (4, 4, 2, 4):
            assert _recv(node, frm, WireMessage(MsgKind.HASH_RB, 4, 1, payload=envelope)) == []
    assert node.inner.instances == {}
    assert len(_record(node, 4, 1).tunneled) == 3
    # Distinct envelopes past the cap are still rejected, but not held.
    for i in range(2 * ecbrb._TUNNEL_MEMO_CAP):
        garbage = WireMessage(MsgKind.HASH_RB, 4, 1, payload=b"garbage %d" % i)
        assert _recv(node, 4, garbage) == [] and _recv(node, 4, garbage) == []
    assert len(_record(node, 4, 1).tunneled) == ecbrb._TUNNEL_MEMO_CAP
    good = _tunneled(WireMessage(MsgKind.MSG, 4, 1, payload=d, instance="hash-rb"))
    assert len(_sends(node, _recv(node, 4, good))) == 5
    assert _recv(node, 4, good) == []          # the nested MSG counts once


def test_nested_digest_broadcast_echoes_through_tunnel():
    node = _auto(ProtocolKind.EC_BRB_4F1, 5, 1, node=0)
    d = hashing.digest(b"tunnel payload")
    inner = WireMessage(MsgKind.MSG, 4, 1, payload=d, instance="hash-rb")
    acts = _recv(node, 4, _tunneled(inner))
    sends = _sends(node, acts)
    assert len(sends) == 5
    assert all(a.msg.kind is MsgKind.HASH_RB for a in sends)
    from rblab.core import decode_envelope
    relayed = decode_envelope(sends[0].msg.payload)
    assert relayed.kind is MsgKind.ECHO and relayed.payload == d
    assert relayed.instance == "hash-rb"


def test_tunnel_keeps_multicast_and_unicast_shape():
    d = hashing.digest(b"shape")
    echo = WireMessage(MsgKind.ECHO, 4, 1, payload=d)
    fwd = WireMessage(MsgKind.FWD, 4, 1, payload=d)
    out = EcBrb4f1._tunnel([Multicast(echo), Send(2, fwd), Deliver(4, d, 1)])
    assert [type(a) for a in out] == [Multicast, Send]
    assert out[1].to == 2
    for action, inner in zip(out, (echo, fwd)):
        assert action.msg.kind is MsgKind.HASH_RB
        relayed = decode_envelope(action.msg.payload)
        assert (relayed.kind, relayed.payload, relayed.instance) == \
            (inner.kind, d, "hash-rb")


def test_accept_votes_relay_at_f_plus_1_without_payload():
    node = _auto(ProtocolKind.EC_BRB_4F1, 5, 1, node=0)
    d = hashing.digest(b"whatever")
    acc = WireMessage(MsgKind.ACC, 4, 1, digest=d)
    assert _recv(node, 1, acc) == []
    acts = _recv(node, 2, acc)
    sends = _sends(node, acts)
    assert len(sends) == 5 and all(a.msg.kind is MsgKind.ACC for a in sends)
    assert _recv(node, 3, acc) == []


def test_quorum_of_accepts_triggers_fetch_then_delivery():
    node = _auto(ProtocolKind.EC_BRB_4F1, 5, 1, node=0)
    m, h = b"fetched after accept quorum", 1
    d = hashing.digest(m)
    # The nested broadcast has endorsed the digest.
    _record(node, 4, h).endorsed = d
    acc = WireMessage(MsgKind.ACC, 4, h, digest=d)
    _recv(node, 1, acc)
    _recv(node, 2, acc)
    _recv(node, 3, acc)
    acts = _recv(node, 4, acc)
    reqs = _sends(node, acts)
    assert [a.to for a in reqs] == [1, 2, 3, 4]
    assert all(a.msg.kind is MsgKind.REQ and a.msg.digest == d for a in reqs)
    # Forged forward is rejected; a genuine one completes delivery.
    assert _recv(node, 2, WireMessage(MsgKind.FWD, 4, h, payload=b"no")) == []
    acts = _recv(node, 1, WireMessage(MsgKind.FWD, 4, h, payload=m))
    assert _delivers(acts) == [Deliver(4, m, h)]


def test_slow_source_link_is_bridged_by_a_payload_fetch():
    # The source's link to node 1 carries node 1's element and the source's
    # own ECHO and ACC, so node 1 holds too few elements to decode when n-f
    # ACCs back the endorsed digest: it asks those backers, and each FWD
    # carries the payload alone.
    m = bytes(range(100))
    world = build_world(ProtocolKind.EC_BRB_4F1, 5, 1, net=NetParams(base_delay=1.0),
                        record_trace=True)
    stretch_link(world, 0, 1)
    world.broadcast(0, m, 1)
    stats = world.run()
    assert check_broadcast_properties(world) == []
    assert len(stats.delivers) == 5
    assert stats.total_sent_count(MsgKind.REQ) > 0
    fwds = [row for row in world.trace if row.kind == "FWD"]
    assert fwds and {(row.node, row.size) for row in fwds} == {(1, HEADER_SIZE + len(m))}


def test_element_flood_only_from_source():
    node = _auto(ProtocolKind.EC_BRB_4F1, 5, 1, node=0)
    elements = encode(b"payload here", CodeParams(5, 2))
    relayed = WireMessage(MsgKind.MSG, 4, 1, element=elements[0])
    assert _recv(node, 3, relayed) == []
    acts = _recv(node, 4, relayed)
    sends = _sends(node, acts)
    assert len(sends) == 5 and all(a.msg.kind is MsgKind.ECHO for a in sends)
    assert _recv(node, 4, relayed) == []


# -- crash-tolerant protocols ---------------------------------------------------

def test_flood_refloods_once_and_delivers():
    node = _auto(ProtocolKind.CRB_FLOOD, 4, 0, node=1)
    m = WireMessage(MsgKind.MSG, 0, 1, payload=b"flood")
    acts = _recv(node, 0, m)
    assert len(_sends(node, acts)) == 4
    assert _delivers(acts) == [Deliver(0, b"flood", 1)]
    assert _recv(node, 2, m) == []


def test_coded_crash_decode_and_rescue():
    m, h = b"rescue payload", 1
    elements = encode(m, CodeParams(4, 3))
    node = _auto(ProtocolKind.EC_CRB, 4, 1, node=0)
    acts = _recv(node, 3, WireMessage(MsgKind.MSG, 3, h, element=elements[0]))
    assert all(a.msg.kind is MsgKind.ECHO for a in _sends(node, acts))
    assert _recv(node, 1, WireMessage(MsgKind.ECHO, 3, h, element=elements[1])) == []
    acts = _recv(node, 2, WireMessage(MsgKind.ECHO, 3, h, element=elements[2]))
    assert _delivers(acts) == [Deliver(3, m, h)]
    accs = [a for a in _sends(node, acts) if a.msg.kind is MsgKind.ACC]
    assert len(accs) == 4 and all(a.msg.payload == m for a in accs)
    # A node with no elements at all is rescued by the full-payload accept.
    empty = _auto(ProtocolKind.EC_CRB, 4, 1, node=2)
    acts = _recv(empty, 0, WireMessage(MsgKind.ACC, 3, h, payload=m))
    assert _delivers(acts) == [Deliver(3, m, h)]


# -- source wave shapes -----------------------------------------------------------

def test_source_waves():
    m, h = b"initial wave", 3
    bracha = _auto(ProtocolKind.BRACHA, 4, 1, node=2)
    sends = _sends(bracha, bracha.step(BroadcastRequest(m, h)))
    assert [a.to for a in sends] == [0, 1, 2, 3]
    assert all(a.msg.kind is MsgKind.MSG and a.msg.payload == m for a in sends)
    coded = _auto(ProtocolKind.EC_BRB_3F1, 4, 1, node=2)
    sends = _sends(coded, coded.step(BroadcastRequest(m, h)))
    expected = encode(m, CodeParams(4, 2))
    assert [a.msg.element for a in sends] == expected
    assert all(a.msg.digest == hashing.digest(m) for a in sends)
    assert [a.msg.element.index for a in sends] == [1, 2, 3, 4]


# -- Byzantine inputs -------------------------------------------------------------

FUZZ_PAYLOADS = (b"fuzzed payload", b"x", bytes(40))
FUZZ_FIELDS = {
    BodyVariant.PAYLOAD: ("payload",),
    BodyVariant.DIGEST: ("digest",),
    BodyVariant.ELEMENT: ("element",),
    BodyVariant.DIGEST_ELEMENT: ("digest", "element"),
}
# A payload with a digest fits no body variant; a peer may still send it.
FUZZ_SHAPES = [*FUZZ_FIELDS.values(), ("payload", "digest")]


def _fuzz_n(kind):
    return max(4, RESILIENCE[kind] + 1)


def _mostly(pool, other):
    """Draw mostly from ``pool`` (three of four branches), else from ``other``."""
    pool = st.sampled_from(pool)
    return st.one_of(pool, pool, pool, other)


@st.composite
def _fuzz_message(draw, kind):
    """A well-typed message a Byzantine peer could send: any kind and body
    variant, digests, elements and tunneled envelopes. Values come mostly
    from small pools so votes pile up on the same instances and digests
    and quorums, requests and deliveries are reached."""
    n = _fuzz_n(kind)
    k = ProtocolConfig(kind, n, 1, 0).resolved_k() or 1
    source, h = draw(_mostly([0], st.integers(0, n - 1))), draw(_mostly([1], st.just(2)))
    payload = draw(_mostly(FUZZ_PAYLOADS[:1], st.sampled_from(FUZZ_PAYLOADS[1:])
                           | st.binary(max_size=8)))
    digest = draw(_mostly([hashing.digest(payload)], st.sampled_from(
        [hashing.digest(FUZZ_PAYLOADS[1]), bytes(32), b"", b"\x01" * 5])))
    shards = encode(payload, CodeParams(n, k))
    element = draw(_mostly(shards, st.builds(
        CodedElement, index=st.integers(0, n + 2),
        data=st.sampled_from([shards[0].data, b""]) | st.binary(max_size=8),
        claimed_len=st.sampled_from([0, 1, len(payload), 40]) | st.integers(0, 2**32 - 1))))
    msg_kind = draw(st.sampled_from(list(MsgKind)))
    fields = draw(_mostly([FUZZ_FIELDS[v] for v in sorted(KIND_VARIANTS[msg_kind])],
                          st.sampled_from(FUZZ_SHAPES)))
    body = {name: {"payload": payload, "digest": digest, "element": element}[name]
            for name in fields}
    if msg_kind is MsgKind.HASH_RB and draw(st.booleans()):
        inner = WireMessage(draw(st.sampled_from([MsgKind.MSG, MsgKind.ECHO, MsgKind.ACC])),
                            source, h, payload=digest if draw(st.booleans()) else payload,
                            instance=draw(_mostly(["hash-rb"], st.none())))
        body = {"payload": encode_envelope(inner)}
    instance = draw(_mostly([None], st.just("hash-rb")))
    frm = draw(st.integers(0, n - 1))
    return frm, WireMessage(msg_kind, source, h, instance=instance, **body)


def _honest_receipts(kind):
    """Every (sender, message) node 0 receives in an honest run of one
    broadcast of FUZZ_PAYLOADS[0] from node 0, in FIFO order."""
    n = _fuzz_n(kind)
    nodes = [_auto(kind, n, 1, node=i) for i in range(n)]
    wave = nodes[0].step(BroadcastRequest(FUZZ_PAYLOADS[0], 1))
    queue = deque((0, a) for a in _sends(nodes[0], wave))
    received = []
    while queue:
        frm, send = queue.popleft()
        if send.to == 0:
            received.append((frm, send.msg))
        queue.extend((send.to, a)
                     for a in _sends(nodes[send.to], nodes[send.to].step(Receive(frm, send.msg))))
    return received


@pytest.mark.parametrize("kind", list(ProtocolKind), ids=lambda kind: kind.value)
def test_byzantine_inputs_never_raise_and_repeats_are_ignored(kind):
    # Honest traffic, sampled in any order and with gaps, carries the node
    # through its quorums, fetches and delivery while the fuzzed messages
    # land on live state.
    honest = st.sampled_from(_honest_receipts(kind))
    fuzzed = _fuzz_message(kind)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.one_of(honest, fuzzed), min_size=10, max_size=40))
    def run(received):
        node = _auto(kind, _fuzz_n(kind), 1, node=0)
        for frm, msg in received:
            _recv(node, frm, msg)
            again = _recv(node, frm, msg)
            if kind in BYZANTINE_KINDS:
                assert again == [], (frm, msg)

    run()


# -- one record lookup per receive ---------------------------------------------

FETCHING_KINDS = {ProtocolKind.H_BRB_3F1, ProtocolKind.H_BRB_5F1,
                  ProtocolKind.EC_BRB_3F1, ProtocolKind.EC_BRB_4F1}


class _CountingGets(dict):
    """An instance table that counts its ``get`` calls."""

    gets = 0

    def get(self, key, default=None):
        self.gets += 1
        return super().get(key, default)


def _handlers_reached_only_through_step(monkeypatch, cls, called):
    """Make every handler of ``cls`` record its calls in ``called`` and
    fail unless ``Automaton.step`` made the call; a call by attribute name
    bypasses ``step``'s table and fails too."""
    step_code = Automaton.step.__code__
    table = {}
    for kind, handler in cls._handler_of.items():
        def through_step(self, *args, _handler=handler, _kind=kind):
            assert sys._getframe(1).f_code is step_code, f"{_kind.name} handler called directly"
            called.add((cls.__name__, _kind.name))
            return _handler(self, *args)
        table[kind] = through_step

        def direct(self, *args, _kind=kind):
            raise AssertionError(f"{cls.__name__} called its {_kind.name} handler by name")
        monkeypatch.setattr(cls, Automaton._HANDLERS[kind], direct)
    monkeypatch.setattr(cls, "_handler_of", table)


@pytest.mark.parametrize("kind", list(ProtocolKind), ids=lambda kind: kind.value)
def test_a_receive_looks_its_record_up_once(kind, monkeypatch):
    n = max(5, RESILIENCE[kind] + 1)
    world = build_world(kind, n, 1, seed=3, net=NetParams(base_delay=1.0, jitter=0.5))
    relay = n - 1
    if kind in BYZANTINE_KINDS:
        world.attach_adversary(relay, CorruptRelay(seed=3))

    def slow_into_node_1(src, dst, msg):
        # Node 1 hears the source and every honest ECHO late, so the
        # protocols that fetch must fetch the payload there (ec-brb-3f1
        # decodes any two honest ECHOs, so it fetches only past a corrupt
        # relay's).
        if dst != 1 or src == dst:
            return None
        if src == 0:
            return 250.0
        return 100.0 if msg.kind is MsgKind.ECHO and src != relay else None
    world.delay_policy = slow_into_node_1
    called: set = set()
    classes = {type(world.automata[0])}
    if kind is ProtocolKind.EC_BRB_4F1:
        classes.add(type(world.automata[0].inner))
    for cls in classes:
        _handlers_reached_only_through_step(monkeypatch, cls, called)
    receives = []
    for node in world.automata:
        node.instances = table = _CountingGets(node.instances)

        def step(event, real=node.step, table=table):
            before = table.gets
            actions = real(event)
            if isinstance(event, Receive):
                receives.append(table.gets - before)
            return actions
        node.step = step
    for h in range(1, 9):
        world.broadcast(h % n, bytes([h]) * 200, h, at=0.5 * h)
    world.run()
    assert check_broadcast_properties(world) == []
    assert len(receives) == world.stats.total_recv_count()
    assert max(receives) == 1
    # The run reached the handlers of the kinds the protocol acts on.
    reached = {name for cls, name in called if cls == type(world.automata[0]).__name__}
    expected = {"MSG", "ECHO"} if kind is not ProtocolKind.CRB_FLOOD else {"MSG"}
    if kind not in (ProtocolKind.CRB_FLOOD, ProtocolKind.H_BRB_5F1):
        expected.add("ACC")
    if kind in FETCHING_KINDS:
        expected |= {"REQ", "FWD"}
    if kind is ProtocolKind.EC_BRB_4F1:
        expected.add("HASH_RB")
        assert {("Bracha", "MSG"), ("Bracha", "ECHO"), ("Bracha", "ACC")} <= called
    assert expected <= reached
