"""Fault strategies, the naive witness strawman, and scripted timelines."""
import random
import time

import pytest

from rblab import codec, hashing
from rblab.adversary import (
    SCENARIOS,
    ConfigMismatch,
    Crash,
    CorruptRelay,
    EquivocatingSource,
    Silent,
    Strategy,
    UnknownScenario,
    WitnessAutomaton,
    build_witness_world,
    build_world,
    corrupt_element,
    phase_of,
    run_scenario,
    script_exec1,
    script_helper4,
)
from rblab.codec import CodedElement, CodeParams, encode
from rblab.core import (
    BroadcastRequest,
    Deliver,
    MsgKind,
    Multicast,
    Receive,
    Send,
    WireMessage,
    expand,
)
from rblab.protocols import RESILIENCE, ProtocolKind, ecbrb, make_automaton
from rblab.simnet import (
    FaultBudgetExceeded,
    NetParams,
    check_acc_consistency,
    check_broadcast_properties,
)


# -- naive witness protocol ------------------------------------------------------

def _witness(threshold, double=False, n=5, f=1):
    return WitnessAutomaton(n, f, 0, threshold, allow_double_witness=double)


def test_witness_threshold_bounds():
    _witness(1)
    _witness(5)
    with pytest.raises(ValueError):
        _witness(0)
    with pytest.raises(ValueError):
        _witness(6)


def test_witness_source_and_direct_witness():
    node = _witness(3)
    acts = node.step(BroadcastRequest(b"m", 1))
    assert [type(a) for a in acts] == [Multicast]  # one action per wave
    wave = expand(acts, node.n)
    assert [a.to for a in wave] == [0, 1, 2, 3, 4]
    assert all(a.msg.kind is MsgKind.MSG for a in wave)
    # Direct witness: MSG from its claimed source triggers a witness wave.
    msg = WireMessage(MsgKind.MSG, 2, 1, payload=b"v")
    wave = expand(node.step(Receive(2, msg)), node.n)
    assert all(a.msg.kind is MsgKind.ECHO and a.msg.payload == b"v" for a in wave)
    assert len(wave) == 5
    # A relayed MSG (sender is not the source) is not trusted.
    assert node.step(Receive(3, msg)) == []
    # Single-witness rule: a second value gets no wave.
    other = WireMessage(MsgKind.MSG, 2, 1, payload=b"w")
    assert node.step(Receive(2, other)) == []


def test_witness_indirect_threshold_and_delivery():
    node = _witness(3)
    wit = WireMessage(MsgKind.ECHO, 4, 1, payload=b"v")
    assert node.step(Receive(1, wit)) == []
    assert node.step(Receive(1, wit)) == []  # same sender
    # f+1 distinct witnesses: witness indirectly.
    acts = expand(node.step(Receive(2, wit)), node.n)
    assert len(acts) == 5 and all(isinstance(a, Send) for a in acts)
    acts = node.step(Receive(3, wit))
    assert acts == [Deliver(4, b"v", 1)]
    # (source, index) delivers only once, whatever arrives later.
    assert node.step(Receive(0, wit)) == []


def test_double_witness_toggle():
    plain = _witness(5)
    wit1 = WireMessage(MsgKind.ECHO, 4, 1, payload=b"v1")
    wit2 = WireMessage(MsgKind.ECHO, 4, 1, payload=b"v2")
    for frm in (1, 2):
        plain.step(Receive(frm, wit1))
    # Already witnessed v1: v2 support counts but triggers no second wave.
    for frm in (1, 2):
        assert plain.step(Receive(frm, wit2)) == []

    eager = _witness(5, double=True)
    for frm in (1, 2):
        eager.step(Receive(frm, wit1))
    acts = eager.step(Receive(1, wit2))
    assert acts == []
    acts = expand(eager.step(Receive(2, wit2)), eager.n)
    assert len(acts) == 5  # second witness wave, for the second value
    # But each value is witnessed at most once.
    assert eager.step(Receive(3, wit2)) == []


def test_witness_automaton_counts():
    world = build_witness_world(1, 4)
    assert world.n == 5
    node = world.automata[0]
    assert isinstance(node, WitnessAutomaton)
    wit = WireMessage(MsgKind.ECHO, 4, 1, payload=b"v")
    node.step(Receive(1, wit))
    node.step(Receive(2, wit))
    assert node.witness_counts(4, 1) == {b"v": 2}
    assert node.witness_counts(3, 1) == {}


# -- fault strategies --------------------------------------------------------------

class _Scripted:
    """An automaton stub for node ``me`` of ``n`` that answers each step
    with the next of ``steps``."""

    def __init__(self, *steps, n=4, me=0):
        self.n, self.me = n, me
        self.steps = list(steps)

    def step(self, event):
        return self.steps.pop(0)


_REQUEST = BroadcastRequest(b"x", 1)


def test_silent_strategy_suppresses_everything():
    node = _witness(3)
    silent = Silent().wrap(node)
    assert silent.step(_REQUEST) == []
    assert silent.step(Receive(2, WireMessage(MsgKind.MSG, 2, 1, payload=b"v"))) == []
    assert node.witnessed == {}  # the honest automaton is never stepped


def test_crash_truncates_mid_multicast():
    msg = WireMessage(MsgKind.MSG, 0, 1, payload=b"x")
    wave = [Send(i, msg) for i in range(4)]
    crash = Crash(after_sends=2).wrap(
        _Scripted([Multicast(msg)], [Multicast(msg)], [Deliver(0, b"x", 1)]))
    assert crash.step(_REQUEST) == wave[:2]
    # Dead afterwards, deliveries included.
    assert crash.step(_REQUEST) == []
    assert crash.step(_REQUEST) == []


def test_crash_budget_spares_non_send_actions_before_cutoff():
    msg = WireMessage(MsgKind.MSG, 0, 1, payload=b"x")
    deliver = Deliver(0, b"x", 1)
    crash = Crash(after_sends=1).wrap(_Scripted([deliver, Multicast(msg)], n=3))
    assert crash.step(_REQUEST) == [deliver, Send(0, msg)]


def test_crash_budget_cuts_a_world_fan_out_partway():
    # Node 1 sends a 4-copy ECHO multicast, then its ACC multicast; a budget
    # of 6 lets two ACC copies out, and the node's sent total is exactly 6.
    world = build_world(ProtocolKind.BRACHA, 4, 1)
    world.attach_adversary(1, Crash(after_sends=6))
    world.broadcast(0, b"cut mid-wave", 1)
    world.run()
    from rblab.simnet import check_broadcast_properties
    assert check_broadcast_properties(world) == []
    sent = world.stats.sent_count[1]
    assert sum(sent.values()) == 6
    assert (sent[MsgKind.ECHO], sent[MsgKind.ACC]) == (4, 2)


def test_corrupt_relay_in_a_world_sees_one_send_per_recipient():
    seen = []  # (actions given, actions returned) per transform call

    class Recording(CorruptRelay):
        def transform(self, actions):
            out = super().transform(actions)
            seen.append((list(actions), out))
            return out

    world = build_world(ProtocolKind.EC_BRB_3F1, 4, 1, seed=3)
    world.attach_adversary(2, Recording(seed=3))
    world.broadcast(0, b"relayed per recipient", 1)
    world.run()
    from rblab.simnet import check_broadcast_properties
    assert check_broadcast_properties(world) == []
    given = [a for actions, _ in seen for a in actions if not isinstance(a, Deliver)]
    assert given and all(type(a) is Send for a in given)
    echo_in, echo_out = next(
        (actions, out) for actions, out in seen
        if any(a.msg.kind is MsgKind.ECHO for a in actions if isinstance(a, Send)))
    assert [a.to for a in echo_in] == [0, 1, 2, 3]
    # Each copy to another node carries its own corrupted element.
    assert [a.msg.element == e.msg.element for a, e in zip(echo_out, echo_in)] \
        == [False, False, True, False]
    assert world.stats.sent_count[2][MsgKind.ECHO] == 4


@pytest.mark.parametrize("kind", [ProtocolKind.BRACHA, ProtocolKind.EC_BRB_3F1])
def test_a_wrapper_sees_every_event_of_its_node(kind):
    # Node 2 broadcasts once and relays node 0's broadcast. Its wrapper gets
    # each event in the order the trace shows it, the ones its automaton
    # answers with nothing included.
    events, answers = [], []

    class Recording(Strategy):
        def step(self, event):
            events.append(event)
            answers.append(super().step(event))
            return answers[-1]

    world = build_world(kind, 4, 1, net=NetParams(base_delay=1.0, jitter=0.5),
                        record_trace=True)
    world.attach_adversary(2, Recording())
    world.broadcast(2, b"the faulty node's own", 1)
    world.broadcast(0, b"some steps say nothing", 1, at=0.3)
    world.run()
    assert check_broadcast_properties(world) == []
    assert events[0] == BroadcastRequest(b"the faulty node's own", 1)
    seen = [("bcast", 2, "-", 2) if type(e) is BroadcastRequest
            else ("recv", e.frm, e.msg.kind.name, e.msg.source) for e in events]
    assert seen == [(row.event, row.frm, row.kind, row.source) for row in world.trace
                    if row.node == 2 and row.event != "deliver"]
    receives = sum(type(e) is Receive for e in events)
    assert receives == sum(world.stats.recv_count[2].values())
    assert [] in answers


def test_crashed_source_leaves_no_violations():
    world = build_world(ProtocolKind.BRACHA, 4, 1)
    world.attach_adversary(0, Crash(after_sends=2))
    world.broadcast(0, b"dying words", 1)
    world.run()
    from rblab.simnet import check_broadcast_properties
    assert check_broadcast_properties(world) == []


def test_corrupt_element_is_deterministic_and_minimal():
    e = CodedElement(5, b"\x01\x02\x03\x04", 7)
    c1 = corrupt_element(e, "key")
    c2 = corrupt_element(e, "key")
    assert c1 == c2
    assert c1.index == 5 and c1.claimed_len == 7
    assert c1.data != e.data and len(c1.data) == len(e.data)
    diff = sum(a != b for a, b in zip(c1.data, e.data))
    assert diff == 1
    empty = corrupt_element(CodedElement(2, b"", 9), "key")
    assert empty == CodedElement(2, b"", 8)


def test_corrupt_relay_touches_only_foreign_element_sends():
    relay = CorruptRelay(seed=3)
    element = encode(b"some payload", CodeParams(4, 2))[0]
    own = Send(1, WireMessage(MsgKind.ECHO, 0, 1, element=element))
    loop = Send(1, WireMessage(MsgKind.ECHO, 0, 1, element=element))
    digest_only = Send(2, WireMessage(MsgKind.ACC, 0, 1,
                                      digest=hashing.digest(b"d")))
    deliver = Deliver(0, b"p", 1)
    out = relay.wrap(_Scripted([own, loop, digest_only, deliver], me=1)).step(_REQUEST)
    assert out[0].msg.element == element          # loopback intact
    assert out[2] == digest_only and out[3] == deliver
    out = relay.wrap(_Scripted([Send(3, own.msg)], me=0)).step(_REQUEST)
    assert out[0].msg.element != element
    assert out[0].msg.element.index == element.index
    # Same seed, same node, same link: same corruption.
    again = CorruptRelay(seed=3).wrap(_Scripted([Send(3, own.msg)], me=0)).step(_REQUEST)
    assert again[0].msg.element == out[0].msg.element


def test_equivocating_source_builds_consistent_per_recipient_waves():
    world = build_world(ProtocolKind.EC_BRB_3F1, 4, 1)
    m1, m2 = b"left story", b"right story"
    world.attach_adversary(0, EquivocatingSource({3: m2}))
    sends = world.automata[0].step(BroadcastRequest(m1, 1))
    assert [s.to for s in sends] == [0, 1, 2, 3]
    params = CodeParams(4, 2)
    for to in range(3):
        assert sends[to].msg.digest == hashing.digest(m1)
        assert sends[to].msg.element == encode(m1, params)[to]
    assert sends[3].msg.digest == hashing.digest(m2)
    assert sends[3].msg.element == encode(m2, params)[3]


def test_equivocating_source_builds_each_variant_once():
    n, m1, m2 = 5, b"left story", b"right story"
    partition = {1: m2, 3: m2}
    world = build_world(ProtocolKind.EC_BRB_4F1, n, 1)
    automaton = world.automata[0]
    build, built = automaton.source_sends, []

    def counted(payload, h):
        built.append(payload)
        return build(payload, h)

    automaton.source_sends = counted
    world.attach_adversary(0, EquivocatingSource(partition))
    sends = world.automata[0].step(BroadcastRequest(m1, 1))
    assert sorted(built) == sorted([m1, m2])
    # Each recipient gets what a wave built for it alone would send it.
    expected = []
    for to in range(n):
        wave = build(partition.get(to, m1), 1)
        expected += [s for s in expand(wave, n) if s.to == to]
    assert sends == expected


def test_fault_budget_is_enforced():
    world = build_world(ProtocolKind.BRACHA, 4, 1)
    world.attach_adversary(0, Silent())
    with pytest.raises(FaultBudgetExceeded):
        world.attach_adversary(1, Silent())
    world.attach_adversary(1, Silent(), allow_overfault=True)
    assert world.byzantine == {0, 1}


def test_a_node_is_made_faulty_once():
    # A second wrapper would stack on the first: a corrupt relay would
    # corrupt twice.
    world = build_world(ProtocolKind.EC_BRB_3F1, 7, 2)
    relay = CorruptRelay()
    world.attach_adversary(2, relay)
    with pytest.raises(ValueError, match="node 2 is already faulty"):
        world.attach_adversary(2, CorruptRelay())
    for node in (-1, 7):
        with pytest.raises(ValueError, match=rf"node {node} outside \[0, 7\)"):
            world.attach_adversary(node, Silent())
    assert world.byzantine == {2} and world.automata[2] is relay
    assert type(relay.automaton) is type(world.automata[0])


class _Twins(Strategy):
    """Two honest automata under one id, as Twins (Bano et al., "Twins: BFT
    Systems Made Robust", OPODIS 2021) runs a faulty node. Twin 0 hears and
    speaks to the nodes in ``side``, twin 1 to the others, the node itself
    included: a receive goes to the twin of its sender's side, and each
    twin's sends are filtered to its side. Both twins' deliveries are kept."""

    def __init__(self, side):
        self.side = frozenset(side)

    def wrap(self, automaton):
        self.twins = (automaton, make_automaton(automaton.config))
        return super().wrap(automaton)

    def step(self, event):
        twin = 0 if type(event) is Receive and event.frm in self.side else 1
        return [action for action in expand(self.twins[twin].step(event), self.automaton.n)
                if type(action) is not Send or (action.to in self.side) == (twin == 0)]


def test_a_twins_wrapper_runs_on_attach_adversary_alone():
    # bracha at n=4, f=1: node 3 runs as two honest twins, each talking to
    # one side of the honest nodes, and the properties hold.
    for seed in range(6):
        side = random.Random(seed).sample(range(3), 1 + seed % 2)
        world = build_world(ProtocolKind.BRACHA, 4, 1, seed=seed,
                            net=NetParams(base_delay=1.0, jitter=0.5))
        twins = _Twins(side)
        world.attach_adversary(3, twins)
        for h in (1, 2):
            world.broadcast(h - 1, bytes([seed, h]) * 8, h, at=0.4 * h)
        world.run()
        assert world.byzantine == {3}
        assert check_broadcast_properties(world) + check_acc_consistency(world) == []
        assert all(twin.instances for twin in twins.twins), seed
        assert world.stats.sent_count[3][MsgKind.ECHO] > 0


# -- decode cost under corrupt relays ----------------------------------------------

def _corrupt_relay_world(kind, f, payload):
    """One broadcast from node 0 with CorruptRelay on nodes 1..f, run to the end."""
    n = RESILIENCE[kind] * f + 1
    world = build_world(kind, n, f, seed=0, net=NetParams(base_delay=1, jitter=0.5))
    for node in range(1, f + 1):
        world.attach_adversary(node, CorruptRelay())
    world.broadcast(0, payload, 1)
    world.run()
    return world


# Measured on a 2-core shared x86-64 host at 1.4 s and 0.2 s; the
# k-subset searches these runs used to take were killed after 200 s. The
# elements are delivered as the wire carries them, without their codeword,
# so every decode takes the full path.
@pytest.mark.parametrize("kind, f, budget_s", [
    (ProtocolKind.EC_BRB_3F1, 13, 15.0),
    (ProtocolKind.EC_BRB_4F1, 10, 5.0),
], ids=["ec-brb-3f1-n40", "ec-brb-4f1-n41"])
def test_corrupt_relays_at_large_f_finish_within_budget(kind, f, budget_s, wire_round_trip):
    wire_round_trip()
    started = time.perf_counter()
    world = _corrupt_relay_world(kind, f, bytes(range(64)))
    elapsed = time.perf_counter() - started
    assert check_broadcast_properties(world) + check_acc_consistency(world) == []
    honest = set(range(world.n)) - set(range(1, f + 1))
    assert honest <= {node for node, _, _ in world.stats.delivers}
    assert elapsed < budget_s, f"{elapsed:.1f}s"


@pytest.mark.parametrize("kind", [ProtocolKind.EC_BRB_3F1, ProtocolKind.EC_BRB_4F1],
                         ids=lambda kind: kind.value)
def test_decode_work_is_linear_in_f_under_corrupt_relays(kind, monkeypatch, wire_round_trip):
    # A decode makes 1 gf_matmul call per check and 1 more per locator round
    # (the interpolation), and runs at most f locator rounds: 2f + 1 in all.
    # Shards are wider than _GATHER_MAX_WIDTH so that a search over
    # k-subsets would also show up as gf_matmul calls.
    matmul = codec.gf_matmul
    calls = [0]

    def counted(a, b):
        calls[0] += 1
        return matmul(a, b)

    bound = [0]
    worst: dict[int, int] = {}

    def per_decode(decode):
        def measured(*args):
            before = calls[0]
            out = decode(*args)
            used = calls[0] - before
            worst[bound[0]] = max(worst.get(bound[0], 0), used)
            assert used <= 2 * bound[0] + 1, (kind.value, bound[0], used)
            return out
        return measured

    def worst_per_f():
        worst.clear()
        for f in range(1, 11):
            bound[0] = f
            width = codec._GATHER_MAX_WIDTH + 1
            world = _corrupt_relay_world(kind, f, bytes(range(256)) * (width * (f + 1) // 256 + 1))
            assert check_broadcast_properties(world) + check_acc_consistency(world) == []
        return dict(worst)

    monkeypatch.setattr(codec, "gf_matmul", counted)
    monkeypatch.setattr(ecbrb, "decode_correcting", per_decode(ecbrb.decode_correcting))
    monkeypatch.setattr(codec.SubsetDecoder, "add", per_decode(codec.SubsetDecoder.add))
    kept = worst_per_f()
    if kind is ProtocolKind.EC_BRB_4F1:
        # From n - f positions on, the budget is f, so the f corrupt shards
        # sit within it of the codeword the honest ones carry: no product.
        assert set(kept.values()) == {0}, kept
    wire_round_trip()
    stripped = worst_per_f()
    # Without codewords, the corrupt elements did make decodes run the locator.
    assert max(stripped.values()) > 2, stripped


# -- scripted timelines --------------------------------------------------------------

def test_scripts_validate_world_shape():
    with pytest.raises(ConfigMismatch):
        script_exec1(build_world(ProtocolKind.BRACHA, 6, 1))
    with pytest.raises(ConfigMismatch):
        script_helper4(build_world(ProtocolKind.H_BRB_3F1, 5, 1))


def test_phase_boundaries_belong_to_the_ending_phase():
    assert phase_of(0.9, 0.9) == 0
    assert phase_of(0.91, 0.9) == 1
    assert phase_of(2.7, 0.9) == 2
    assert phase_of(5.0, 1.0) == 4


@pytest.mark.parametrize("f", [1, 2])
def test_low_threshold_splits_honest_nodes(f):
    result = run_scenario("exec1", f=f)
    assert result.passed
    assert result.details["unsafe_payloads"] >= 2
    assert result.details["safe_payloads"] <= 1


@pytest.mark.parametrize("f", [1, 2])
def test_two_phase_starvation_counts(f):
    result = run_scenario("exec2", f=f)
    assert result.passed


def test_slow_node_delivery_lands_in_phase_five():
    result = run_scenario("helper4")
    assert result.passed
    assert any("phase r+5" in msg for msg in result.messages)


def test_scenario_registry_all_pass():
    for name in SCENARIOS:
        result = run_scenario(name, seed=1)
        assert result.passed, f"{name}: {result.messages}"
        assert result.name == name
        assert result.messages


def test_exec_scripts_cannot_break_real_protocols():
    result = run_scenario("exec1", protocol="bracha")
    assert result.passed
    assert result.details["payloads"] <= 1
    result = run_scenario("exec2", protocol="h-brb-3f1")
    assert result.passed


def test_unknown_scenario_lists_choices():
    with pytest.raises(UnknownScenario) as err:
        run_scenario("nope")
    assert "corrupt-relay" in str(err.value)


def test_scripted_strategy_is_mute():
    world = build_witness_world(1, 2)
    info = script_exec1(world)
    assert world.byzantine == set(info.groups["B"])
    for node in info.groups["B"]:
        assert type(world.automata[node]) is Silent
        assert world.automata[node].step(_REQUEST) == []
