"""Byzantine strategies, scripted bad executions, and a breakable strawman.

Strategies bind to one node and shape only that node's output: Silent
swallows everything, Crash stops mid-multicast after a send budget,
EquivocatingSource hands different payloads to different recipients,
and CorruptRelay flips bytes inside the coded elements it relays. A
scenario that injects a node's traffic itself attaches Silent to it. The
simulator expands a faulty node's multicasts (``core.expand``), so
``transform`` sees one Send per recipient.

The witness protocol here is deliberately naive: a node announces
("witnesses") a value when it hears it from the source or from f+1 other
witnesses, and delivers at a configurable count. It exists to mechanize
lower-bound constructions: the scripted timelines below drive it into an
agreement violation at threshold floor((n+f)/2), show that no rule can
finish within two phases, and show a six-node execution that delays one
node of the real digest-voting protocol to phase r+5.
"""
from __future__ import annotations

import inspect
import math
import random
from dataclasses import dataclass, replace

from . import hashing
from .codec import CodedElement
from .core import (
    Action,
    BroadcastRequest,
    Deliver,
    Event,
    MsgKind,
    Multicast,
    NodeId,
    Payload,
    Receive,
    Send,
    SeqIndex,
    WireMessage,
    expand,
)
from .protocols import RESILIENCE, ProtocolConfig, ProtocolKind, make_automaton
from .simnet import NetParams, SimWorld, Topology


class ConfigMismatch(ValueError):
    """The world's shape does not fit the script's requirements."""


class UnknownScenario(KeyError):
    """No scenario registered under that name."""


class ScenarioOptionError(ValueError):
    """An option the scenario does not take, or a value it cannot run."""


def build_world(kind: ProtocolKind, n: int, f: int, *, k: int | None = None,
                topology: Topology | None = None, net: NetParams | None = None,
                seed: int = 0, strict_resilience: bool = True,
                record_trace: bool = False, max_steps: int = 1_000_000) -> SimWorld:
    """One automaton per node, wired into a fresh simulated network."""
    automata = [
        make_automaton(ProtocolConfig(kind, n, f, node=i, k=k,
                                      strict_resilience=strict_resilience))
        for i in range(n)
    ]
    return SimWorld(automata, topology=topology or Topology(),
                    net=net or NetParams(), seed=seed,
                    record_trace=record_trace, max_steps=max_steps)


# -- strategies ---------------------------------------------------------------

class Strategy:
    """Hooks the simulator calls for a faulty node. Default: behave honestly."""

    def source_actions(self, world: SimWorld, node: NodeId, automaton,
                       payload: Payload, h: SeqIndex) -> list[Action] | None:
        """Replace the node's initial broadcast wave; None keeps the default."""
        return None

    def transform(self, world: SimWorld, node: NodeId, automaton,
                  actions: list[Action]) -> list[Action]:
        """Rewrite the node's outgoing actions, given one Send per recipient."""
        return actions


class Silent(Strategy):
    """Receives everything, emits nothing."""

    def source_actions(self, world, node, automaton, payload, h):
        return []

    def transform(self, world, node, automaton, actions):
        return []


class Crash(Strategy):
    """Honest until a send budget runs out, then dead; the budget can expire
    mid-multicast, truncating the fan-out partway through."""

    def __init__(self, after_sends: int):
        self.remaining = after_sends

    def transform(self, world, node, automaton, actions):
        if self.remaining <= 0:
            return []
        out: list[Action] = []
        for action in actions:
            if isinstance(action, Send):
                if self.remaining == 0:
                    break
                self.remaining -= 1
            out.append(action)
        return out


class EquivocatingSource(Strategy):
    """Sends recipient-dependent payloads in its broadcast wave, then runs
    the protocol honestly. The per-recipient waves come from the automaton's
    own pure send builder, so coded elements, digests, and any nested
    broadcast stay internally consistent per recipient. Each distinct
    variant's wave is built once and shared by the recipients it goes to."""

    def __init__(self, partition: dict[NodeId, Payload]):
        self.partition = dict(partition)

    def source_actions(self, world, node, automaton, payload, h):
        waves: dict[Payload, list[Action]] = {}
        sends: list[Action] = []
        for to in range(world.n):
            variant = self.partition.get(to, payload)
            wave = waves.get(variant)
            if wave is None:
                wave = waves[variant] = expand(automaton.source_sends(variant, h), world.n)
            sends += [s for s in wave if s.to == to]
        return sends


def corrupt_element(element: CodedElement, seed) -> CodedElement:
    """Deterministically mutate an element's body, keeping its index."""
    rnd = random.Random(seed)
    if element.data:
        pos = rnd.randrange(len(element.data))
        flip = rnd.randrange(1, 256)
        data = bytearray(element.data)
        data[pos] ^= flip
        return CodedElement(element.index, bytes(data), element.claimed_len)
    return CodedElement(element.index, element.data, element.claimed_len ^ 1)


class CorruptRelay(Strategy):
    """Relays protocol traffic but flips bytes in every coded element it
    sends to others (headers and its own loopback copies stay intact)."""

    def __init__(self, seed: int = 0):
        self.seed = seed

    def transform(self, world, node, automaton, actions):
        out: list[Action] = []
        for action in actions:
            if isinstance(action, Send) and action.to != node \
                    and action.msg.element is not None:
                msg = action.msg
                key = (f"{self.seed}:{node}:{action.to}:{int(msg.kind)}:"
                       f"{msg.source}:{msg.h}:{msg.element.index}")
                out.append(Send(action.to,
                                replace(msg, element=corrupt_element(msg.element, key))))
            else:
                out.append(action)
        return out


# -- naive witness protocol ---------------------------------------------------

@dataclass
class WitnessProtocolConfig:
    """Parameters of the strawman: deliver after ``deliver_threshold``
    witness messages; ``allow_double_witness`` lets a node witness more
    than one value per broadcast (used only by the scripted timelines)."""

    n: int
    f: int
    deliver_threshold: int
    allow_double_witness: bool = False

    def validate(self) -> None:
        if not 1 <= self.deliver_threshold <= self.n:
            raise ValueError(
                f"deliver_threshold {self.deliver_threshold} outside [1, {self.n}]")


class WitnessAutomaton:
    """One node of the strawman witness protocol (see the module docstring)."""

    def __init__(self, config: WitnessProtocolConfig, node: NodeId):
        config.validate()
        self.config = config
        self.n = config.n
        self.f = config.f
        self.me = node
        self.supporters: dict[tuple[NodeId, SeqIndex, Payload], set[NodeId]] = {}
        self.witnessed: dict[tuple[NodeId, SeqIndex], set[Payload]] = {}
        self.delivered: set[tuple[NodeId, SeqIndex]] = set()

    def step(self, event: Event) -> list[Action]:
        if isinstance(event, BroadcastRequest):
            return self.source_sends(event.payload, event.h)
        if not isinstance(event, Receive):
            raise TypeError(f"unknown event {event!r}")
        msg = event.msg
        if msg.payload is None:
            return []
        s, h, m = msg.source, msg.h, msg.payload
        if msg.kind is MsgKind.MSG:
            if event.frm != s:
                return []
            return self._witness(s, h, m)
        if msg.kind is not MsgKind.ECHO:
            return []
        senders = self.supporters.setdefault((s, h, m), set())
        if event.frm in senders:
            return []
        senders.add(event.frm)
        actions: list[Action] = []
        if len(senders) >= self.f + 1:
            actions += self._witness(s, h, m)
        if len(senders) >= self.config.deliver_threshold and (s, h) not in self.delivered:
            self.delivered.add((s, h))
            actions.append(Deliver(s, m, h))
        return actions

    def _witness(self, s: NodeId, h: SeqIndex, m: Payload) -> list[Action]:
        # One value per broadcast, or each value once under double witnessing.
        done = self.witnessed.setdefault((s, h), set())
        if (m in done) if self.config.allow_double_witness else done:
            return []
        done.add(m)
        return [Multicast(WireMessage(MsgKind.ECHO, s, h, payload=m))]

    def source_sends(self, payload: Payload, h: SeqIndex) -> list[Action]:
        return [Multicast(WireMessage(MsgKind.MSG, self.me, h, payload=payload))]

    def witness_counts(self, s: NodeId, h: SeqIndex) -> dict[Payload, int]:
        return {m: len(senders) for (ss, hh, m), senders
                in self.supporters.items() if (ss, hh) == (s, h)}


def build_witness_world(f: int, deliver_threshold: int, *,
                        allow_double_witness: bool = False, n: int | None = None,
                        seed: int = 0) -> SimWorld:
    n = 5 * f if n is None else n
    config = WitnessProtocolConfig(n, f, deliver_threshold, allow_double_witness)
    return SimWorld([WitnessAutomaton(config, i) for i in range(n)], seed=seed)


# -- scripted executions -------------------------------------------------------

@dataclass
class ScriptInfo:
    """What a script installed: the faulty source, the sequence index, the
    competing payloads, the node groups, and the phase length."""

    source: NodeId
    h: SeqIndex
    m1: Payload
    m2: Payload
    groups: dict[str, list[NodeId]]
    phase: float


def _groups(f: int) -> dict[str, list[NodeId]]:
    return {
        "S1": list(range(0, f)),
        "S2": list(range(f, 2 * f)),
        "S3": list(range(2 * f, 3 * f)),
        "S4": list(range(3 * f, 4 * f)),
        "B": list(range(4 * f, 5 * f)),
    }


def _wit(world: SimWorld, s: NodeId, h: SeqIndex, m: Payload) -> WireMessage:
    """A witness message for whichever protocol family the world runs:
    payload-carrying protocols vouch with the value itself, digest-voting
    ones with its hash."""
    from .protocols.bracha import Bracha

    if isinstance(world.automata[0], (WitnessAutomaton, Bracha)):
        return WireMessage(MsgKind.ECHO, s, h, payload=m)
    return WireMessage(MsgKind.ECHO, s, h, digest=hashing.digest(m))


def _require_5f(world: SimWorld, script: str) -> int:
    f = world.automata[0].f
    if world.n != 5 * f or f < 1:
        raise ConfigMismatch(f"{script} needs n = 5f, got n={world.n} f={f}")
    return f


def script_exec1(world: SimWorld, m1: Payload = b"value-one",
                 m2: Payload = b"value-two") -> ScriptInfo:
    """Split-brain timeline: the faulty source gives S1 and S4 different
    values and backs each side's value with its witness votes; the middle
    groups see value one first and vouch for it, then (when double
    witnessing is allowed) vouch for value two as well. Links into S4 are
    slow, so S4 completes a quorum on value two, fed by S1's own
    double-witness votes, before the value-one votes arrive. S1 and the
    middle deliver value one while S4 delivers value two."""
    f = _require_5f(world, "exec1")
    g = _groups(f)
    s1, s4, bz = set(g["S1"]), set(g["S4"]), set(g["B"])
    b = g["B"][0]
    h = 1
    for node in g["B"]:
        world.attach_adversary(node, Silent())

    def policy(frm: int, to: int, msg: WireMessage) -> float | None:
        if frm in bz:
            return None
        if frm in s1:
            return 0.4 if to in s4 else 0.0015
        if frm in s4:
            return 0.4 if to in s1 else 0.002
        return 0.5 if to in s4 else 0.001

    world.delay_policy = policy
    for to in g["S1"]:
        world.inject(0.0, b, to, WireMessage(MsgKind.MSG, b, h, payload=m1), delay=0.5)
    for to in g["S4"]:
        world.inject(0.0, b, to, WireMessage(MsgKind.MSG, b, h, payload=m2), delay=0.5)
    for frm in g["B"]:
        for to in g["S1"]:
            world.inject(1.0, frm, to, _wit(world, b, h, m1), delay=0.0005)
        for to in g["S4"]:
            world.inject(1.0, frm, to, _wit(world, b, h, m2), delay=0.0005)
        for to in g["S2"] + g["S3"]:
            world.inject(1.0, frm, to, _wit(world, b, h, m1), delay=0.001)
        for to in g["S2"] + g["S3"]:
            world.inject(1.0, frm, to, _wit(world, b, h, m2), delay=0.002)
    return ScriptInfo(b, h, m1, m2, g, phase=1.0)


def script_exec2(world: SimWorld, m1: Payload = b"value-one",
                 m2: Payload = b"value-two") -> ScriptInfo:
    """Two-phase starvation timeline: after two phases every S2 node holds
    exactly 3f witnesses for m1 and 2f for m2, both below the safe
    threshold, so no two-phase delivery rule can fire."""
    f = _require_5f(world, "exec2")
    g = _groups(f)
    bz = set(g["B"])
    b = g["B"][0]
    h = 1
    for node in g["B"]:
        world.attach_adversary(node, Silent())

    def policy(frm: int, to: int, msg: WireMessage) -> float | None:
        return None if frm in bz else 1.0

    world.delay_policy = policy
    for to in g["S1"]:
        world.inject(0.0, b, to, WireMessage(MsgKind.MSG, b, h, payload=m1), delay=0.5)
    for to in g["S2"]:
        world.inject(0.0, b, to, WireMessage(MsgKind.MSG, b, h, payload=m2), delay=0.5)
    for frm in g["B"]:
        for to in g["S1"] + g["S3"] + g["S4"]:
            world.inject(1.0, frm, to, _wit(world, b, h, m1), delay=0.5)
        for to in g["S2"]:
            world.inject(1.0, frm, to, _wit(world, b, h, m2), delay=0.5)
    return ScriptInfo(b, h, m1, m2, g, phase=1.0)


def script_helper4(world: SimWorld, m: Payload = b"good-value",
                   m_evil: Payload = b"evil-value", *,
                   equivocate: bool = True) -> ScriptInfo:
    """Six-node slow-node timeline for the digest-voting 3f+1 protocol: the
    faulty source shows node 0 a different value, and vote deliveries to
    node 0 are timed so its payload request can only start after the vote
    quorum lands, pushing its delivery to phase r+5."""
    f = world.automata[0].f
    if world.n != 6 or f != 1:
        raise ConfigMismatch(f"helper4 needs n=6 f=1, got n={world.n} f={f}")
    b, victim = 5, 0
    h = 1
    digest = hashing.digest(m)
    world.attach_adversary(b, Silent())

    def policy(frm: int, to: int, msg: WireMessage) -> float | None:
        if frm == b:
            return None
        if msg.kind is MsgKind.ACC and to == victim:
            return 1.4
        return 0.9

    world.delay_policy = policy
    first = WireMessage(MsgKind.MSG, b, h, payload=m_evil if equivocate else m)
    world.inject(0.0, b, victim, first, delay=0.9)
    for to in range(1, 5):
        world.inject(0.0, b, to, WireMessage(MsgKind.MSG, b, h, payload=m), delay=0.9)
    for to in range(1, 5):
        world.inject(1.0, b, to, WireMessage(MsgKind.ECHO, b, h, digest=digest), delay=0.5)
    for to in range(1, 5):
        world.inject(2.0, b, to, WireMessage(MsgKind.ACC, b, h, digest=digest), delay=0.5)
    world.inject(2.0, b, victim, WireMessage(MsgKind.ACC, b, h, digest=digest), delay=1.3)
    groups = {"victim": [victim], "honest": list(range(1, 5)), "B": [b]}
    return ScriptInfo(b, h, m, m_evil, groups, phase=0.9)


def phase_of(time: float, phase: float) -> int:
    """Phase index of an event time; a boundary belongs to the ending phase."""
    return math.floor((time - 1e-9) / phase)


# -- scenario registry ---------------------------------------------------------

@dataclass
class ScenarioResult:
    name: str
    passed: bool
    details: dict
    messages: list[str]


def _honest_payloads(world: SimWorld, s: NodeId, h: SeqIndex) -> set[Payload]:
    honest = world.honest
    return {rec.payload for (i, ss, hh), rec in world.stats.delivers.items()
            if i in honest and (ss, hh) == (s, h)}


def _substitute_world(protocol: str, n: int, f: int, seed: int) -> SimWorld:
    kind = ProtocolKind(protocol)
    strict = n >= RESILIENCE[kind] * f + 1
    return build_world(kind, n, f, seed=seed, strict_resilience=strict)


def scenario_exec1(seed: int = 0, f: int = 1, protocol: str | None = None) -> ScenarioResult:
    n = 5 * f
    messages = []
    if protocol is not None:
        world = _substitute_world(protocol, n, f, seed)
        info = script_exec1(world)
        world.run()
        payloads = _honest_payloads(world, info.source, info.h)
        passed = len(payloads) <= 1
        messages.append(f"{protocol}: {len(payloads)} distinct honest payloads")
        return ScenarioResult("exec1", passed,
                              {"protocol": protocol, "payloads": len(payloads)}, messages)
    unsafe = (n + f) // 2
    world_a = build_witness_world(f, unsafe, allow_double_witness=True, seed=seed)
    info = script_exec1(world_a)
    world_a.run()
    split = _honest_payloads(world_a, info.source, info.h)
    violated = len(split) > 1
    messages.append(f"threshold {unsafe}: {len(split)} distinct honest payloads")
    world_b = build_witness_world(f, unsafe + 1, allow_double_witness=False, seed=seed)
    info_b = script_exec1(world_b)
    world_b.run()
    safe = _honest_payloads(world_b, info_b.source, info_b.h)
    messages.append(f"threshold {unsafe + 1}: {len(safe)} distinct honest payloads")
    return ScenarioResult("exec1", violated and len(safe) <= 1,
                          {"unsafe_payloads": len(split), "safe_payloads": len(safe)},
                          messages)


def scenario_exec2(seed: int = 0, f: int = 1, protocol: str | None = None) -> ScenarioResult:
    n = 5 * f
    boundary = 3.0
    if protocol is not None:
        world = _substitute_world(protocol, n, f, seed)
        info = script_exec2(world)
        world.run()
        honest = world.honest
        times = [rec.time for (i, s, h), rec in world.stats.delivers.items()
                 if i in honest and (s, h) == (info.source, info.h)]
        passed = all(t >= boundary for t in times)
        return ScenarioResult(
            "exec2", passed, {"protocol": protocol, "deliveries": len(times)},
            [f"{protocol}: {len(times)} deliveries, none before t={boundary}"
             if passed else f"{protocol}: delivery before t={boundary}"])
    world = build_witness_world(f, 3 * f + 1, seed=seed)
    info = script_exec2(world)
    world.run(until=boundary)
    ok = True
    messages = []
    for node in info.groups["S2"]:
        counts = world.automata[node].witness_counts(info.source, info.h)
        got = (counts.get(info.m1, 0), counts.get(info.m2, 0))
        if got != (3 * f, 2 * f):
            ok = False
            messages.append(f"node {node}: counts {got} != ({3 * f}, {2 * f})")
        if (node, info.source, info.h) in world.stats.delivers:
            ok = False
            messages.append(f"node {node} delivered below the safe threshold")
    if ok:
        messages.append(f"every S2 node holds exactly (m1: {3 * f}, m2: {2 * f}) at t={boundary}")
    return ScenarioResult("exec2", ok, {"f": f}, messages)


def scenario_helper4(seed: int = 0) -> ScenarioResult:
    world = build_world(ProtocolKind.H_BRB_3F1, 6, 1, seed=seed)
    info = script_helper4(world)
    world.run()
    stats = world.stats
    messages = []
    ok = True
    for node in info.groups["honest"]:
        rec = stats.delivers.get((node, info.source, info.h))
        if rec is None or rec.payload != info.m1 or phase_of(rec.time, info.phase) > 2:
            ok = False
            messages.append(f"node {node} missed the phase r+2 delivery")
    rec = stats.delivers.get((0, info.source, info.h))
    if rec is None:
        ok = False
        messages.append("node 0 never delivered")
    else:
        phase = phase_of(rec.time, info.phase)
        if rec.payload != info.m1 or phase != 5:
            ok = False
        messages.append(f"node 0 delivered in phase r+{phase} (t={rec.time})")
    return ScenarioResult("helper4", ok, {"n": 6, "f": 1}, messages)


def scenario_equivocate_split(seed: int = 0, f: int = 2,
                              payload_len: int = 4096) -> ScenarioResult:
    from .core import HEADER_SIZE
    from .simnet import check_broadcast_properties

    n = 3 * f + 1
    world = build_world(ProtocolKind.H_BRB_3F1, n, f, seed=seed,
                        net=NetParams(base_delay=1.0, jitter=0.5))
    rng = random.Random(seed)
    m1 = bytes(rng.randrange(256) for _ in range(payload_len))
    m2 = bytes(rng.randrange(256) for _ in range(payload_len))
    partition = {to: (m1 if to < n - f else m2) for to in range(n)}
    world.attach_adversary(0, EquivocatingSource(partition))
    world.broadcast(0, m1, h=1)
    world.run()
    violations = check_broadcast_properties(world)
    bound = (f + 1) * (payload_len + HEADER_SIZE)
    recv_bytes = world.stats.recv_bytes
    worst = max(recv_bytes[node][MsgKind.FWD] for node in world.honest)
    messages = [f"worst-case FWD bytes per honest node: {worst} (bound {bound})"]
    messages += violations
    return ScenarioResult("equivocate-split", not violations and worst <= bound,
                          {"fwd_bound": bound, "fwd_worst": worst}, messages)


def scenario_corrupt_relay(seed: int = 0, payload_len: int = 512) -> ScenarioResult:
    from .simnet import check_broadcast_properties

    n, f = 13, 3
    world = build_world(ProtocolKind.EC_BRB_4F1, n, f, seed=seed,
                        net=NetParams(base_delay=1.0, jitter=0.5))
    for node in (1, 2, 3):
        world.attach_adversary(node, CorruptRelay(seed=seed + node))
    rng = random.Random(seed)
    payload = bytes(rng.randrange(256) for _ in range(payload_len))
    world.broadcast(0, payload, h=1)
    world.run()
    violations = check_broadcast_properties(world)
    honest = world.honest
    delivered = sum(1 for (i, s, h) in world.stats.delivers
                    if i in honest and (s, h) == (0, 1))
    messages = [f"{delivered}/{len(honest)} honest nodes delivered"]
    messages += violations
    return ScenarioResult("corrupt-relay", not violations,
                          {"honest_deliveries": delivered}, messages)


def scenario_silent(seed: int = 0) -> ScenarioResult:
    from .simnet import check_broadcast_properties

    world = build_world(ProtocolKind.H_BRB_3F1, 4, 1, seed=seed,
                        net=NetParams(base_delay=1.0, jitter=0.5))
    world.attach_adversary(3, Silent())
    world.broadcast(0, b"quiet-test", h=1)
    world.run()
    violations = check_broadcast_properties(world)
    honest = world.honest
    delivered = sum(1 for (i, s, h) in world.stats.delivers
                    if i in honest and (s, h) == (0, 1))
    return ScenarioResult("silent", not violations,
                          {"honest_deliveries": delivered},
                          [f"{delivered}/{len(honest)} honest nodes delivered"]
                          + violations)


SCENARIOS = {
    "exec1": scenario_exec1,
    "exec2": scenario_exec2,
    "helper4": scenario_helper4,
    "equivocate-split": scenario_equivocate_split,
    "corrupt-relay": scenario_corrupt_relay,
    "silent": scenario_silent,
}


def run_scenario(name: str, **params) -> ScenarioResult:
    """Run a named scenario. An option it does not take, an unknown
    protocol and f < 1 raise ScenarioOptionError."""
    fn = SCENARIOS.get(name)
    if fn is None:
        raise UnknownScenario(f"unknown scenario {name!r}; "
                              f"choices: {', '.join(sorted(SCENARIOS))}")
    takes = inspect.signature(fn).parameters
    for option in params:
        if option not in takes:
            raise ScenarioOptionError(f"scenario {name!r} takes no option {option!r}; "
                                      f"it takes: {', '.join(takes)}")
    protocols = [kind.value for kind in ProtocolKind]
    if params.get("protocol", protocols[0]) not in protocols:
        raise ScenarioOptionError(f"unknown protocol {params['protocol']!r}; "
                                  f"choices: {', '.join(protocols)}")
    if params.get("f", 1) < 1:
        raise ScenarioOptionError(f"f must be at least 1, got {params['f']}")
    return fn(**params)
