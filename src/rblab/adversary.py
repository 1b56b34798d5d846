"""Byzantine strategies, scripted bad executions, and a breakable strawman.

Strategies bind to one node and shape only that node's output: Silent
swallows everything, Crash stops mid-multicast after a send budget,
EquivocatingSource hands different payloads to different recipients,
and CorruptRelay flips bytes inside the coded elements it relays. A
scenario that injects a node's traffic itself attaches Silent to it. The
simulator expands a faulty node's multicasts (``core.expand``), so
``transform`` sees one Send per recipient; it is not called for a step
that returned no actions.

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
from dataclasses import dataclass

from . import hashing
from .codec import CodedElement
from .core import (
    HEADER_SIZE,
    Action,
    Deliver,
    MsgKind,
    Multicast,
    NodeId,
    Payload,
    Send,
    SeqIndex,
    WireMessage,
    expand,
)
from .protocols import RESILIENCE, ProtocolConfig, ProtocolKind, make_automaton
from .protocols.base import Automaton
from .protocols.bracha import Bracha
from .simnet import (
    DeliverRecord,
    NetParams,
    SimWorld,
    Topology,
    check_broadcast_properties,
)


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
        """Rewrite the node's outgoing actions, given one Send per recipient.
        It must map [] to []: the simulator skips the call when the node's
        step returned no actions."""
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
                corrupted = WireMessage(msg.kind, msg.source, msg.h, msg.payload, msg.digest,
                                        corrupt_element(msg.element, key), msg.instance)
                out.append(Send(action.to, corrupted))
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


class WitnessAutomaton(Automaton):
    """One node of the strawman witness protocol (see the module docstring).
    ``Automaton.step`` dispatches its events and sends the source's MSG
    wave; it handles MSG and ECHO only and ignores every other kind."""

    def __init__(self, config: WitnessProtocolConfig, node: NodeId):
        config.validate()
        self.config = config
        self.n = config.n
        self.f = config.f
        self.me = node
        self.instances = {}  # looked up by ``step``; the strawman opens none
        self.supporters: dict[tuple[NodeId, SeqIndex, Payload], set[NodeId]] = {}
        self.witnessed: dict[tuple[NodeId, SeqIndex], set[Payload]] = {}
        self.delivered: set[tuple[NodeId, SeqIndex]] = set()

    def on_msg(self, frm: NodeId, msg: WireMessage, rec: None) -> list[Action]:
        if msg.payload is None or frm != msg.source:
            return []
        return self._witness(msg.source, msg.h, msg.payload)

    def on_echo(self, frm: NodeId, msg: WireMessage, rec: None) -> list[Action]:
        s, h, m = msg.source, msg.h, msg.payload
        if m is None:
            return []
        senders = self.supporters.setdefault((s, h, m), set())
        if frm in senders:
            return []
        senders.add(frm)
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

    def witness_counts(self, s: NodeId, h: SeqIndex) -> dict[Payload, int]:
        return {m: len(senders) for (ss, hh, m), senders
                in self.supporters.items() if (ss, hh) == (s, h)}


def build_witness_world(f: int, deliver_threshold: int, *,
                        allow_double_witness: bool = False, seed: int = 0) -> SimWorld:
    n = 5 * f
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


# The two values the exec scripts' faulty source splits the nodes over.
_M1, _M2 = b"value-one", b"value-two"


def _five_groups(world: SimWorld, script: str) -> tuple[int, dict[str, list[NodeId]]]:
    """Check that ``world`` has n = 5f, split its nodes into groups S1, S2,
    S3, S4 and B of f nodes each, and silence B, whose traffic the script
    injects. Returns f and the groups."""
    f = world.automata[0].f
    if world.n != 5 * f or f < 1:
        raise ConfigMismatch(f"{script} needs n = 5f, got n={world.n} f={f}")
    groups = {name: list(range(i * f, (i + 1) * f))
              for i, name in enumerate(("S1", "S2", "S3", "S4", "B"))}
    for node in groups["B"]:
        world.attach_adversary(node, Silent())
    return f, groups


def _wit(world: SimWorld, s: NodeId, h: SeqIndex, m: Payload) -> WireMessage:
    """A witness message for whichever protocol family the world runs:
    payload-carrying protocols vouch with the value itself, digest-voting
    ones with its hash."""
    if isinstance(world.automata[0], (WitnessAutomaton, Bracha)):
        return WireMessage(MsgKind.ECHO, s, h, payload=m)
    return WireMessage(MsgKind.ECHO, s, h, digest=hashing.digest(m))


def script_exec1(world: SimWorld) -> ScriptInfo:
    """Split-brain timeline: the faulty source gives S1 and S4 different
    values and backs each side's value with its witness votes; the middle
    groups see value one first and vouch for it, then (when double
    witnessing is allowed) vouch for value two as well. Links into S4 are
    slow, so S4 completes a quorum on value two, fed by S1's own
    double-witness votes, before the value-one votes arrive. S1 and the
    middle deliver value one while S4 delivers value two."""
    f, g = _five_groups(world, "exec1")
    s1, s4 = set(g["S1"]), set(g["S4"])
    b = g["B"][0]
    h = 1

    def policy(frm: int, to: int, msg: WireMessage) -> float:
        if frm in s1:
            return 0.4 if to in s4 else 0.0015
        if frm in s4:
            return 0.4 if to in s1 else 0.002
        return 0.5 if to in s4 else 0.001

    world.delay_policy = policy
    for to in g["S1"]:
        world.inject(0.0, b, to, WireMessage(MsgKind.MSG, b, h, payload=_M1), delay=0.5)
    for to in g["S4"]:
        world.inject(0.0, b, to, WireMessage(MsgKind.MSG, b, h, payload=_M2), delay=0.5)
    for frm in g["B"]:
        for to in g["S1"]:
            world.inject(1.0, frm, to, _wit(world, b, h, _M1), delay=0.0005)
        for to in g["S4"]:
            world.inject(1.0, frm, to, _wit(world, b, h, _M2), delay=0.0005)
        for to in g["S2"] + g["S3"]:
            world.inject(1.0, frm, to, _wit(world, b, h, _M1), delay=0.001)
        for to in g["S2"] + g["S3"]:
            world.inject(1.0, frm, to, _wit(world, b, h, _M2), delay=0.002)
    return ScriptInfo(b, h, _M1, _M2, g, phase=1.0)


def script_exec2(world: SimWorld) -> ScriptInfo:
    """Two-phase starvation timeline: after two phases every S2 node holds
    exactly 3f witnesses for m1 and 2f for m2, both below the safe
    threshold, so no two-phase delivery rule can fire."""
    f, g = _five_groups(world, "exec2")
    b = g["B"][0]
    h = 1
    world.delay_policy = lambda frm, to, msg: 1.0
    for to in g["S1"]:
        world.inject(0.0, b, to, WireMessage(MsgKind.MSG, b, h, payload=_M1), delay=0.5)
    for to in g["S2"]:
        world.inject(0.0, b, to, WireMessage(MsgKind.MSG, b, h, payload=_M2), delay=0.5)
    for frm in g["B"]:
        for to in g["S1"] + g["S3"] + g["S4"]:
            world.inject(1.0, frm, to, _wit(world, b, h, _M1), delay=0.5)
        for to in g["S2"]:
            world.inject(1.0, frm, to, _wit(world, b, h, _M2), delay=0.5)
    return ScriptInfo(b, h, _M1, _M2, g, phase=1.0)


def script_helper4(world: SimWorld, *, equivocate: bool = True) -> ScriptInfo:
    """Six-node slow-node timeline for the digest-voting 3f+1 protocol: the
    faulty source shows node 0 a different value, and vote deliveries to
    node 0 are timed so its payload request can only start after the vote
    quorum lands, pushing its delivery to phase r+5."""
    f = world.automata[0].f
    if world.n != 6 or f != 1:
        raise ConfigMismatch(f"helper4 needs n=6 f=1, got n={world.n} f={f}")
    m, m_evil = b"good-value", b"evil-value"
    b, victim = 5, 0
    h = 1
    digest = hashing.digest(m)
    world.attach_adversary(b, Silent())

    def policy(frm: int, to: int, msg: WireMessage) -> float:
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


def _honest_deliveries(world: SimWorld, s: NodeId, h: SeqIndex) -> list[DeliverRecord]:
    """The delivery records of broadcast (s, h) at the honest nodes."""
    honest = world.honest
    return [rec for (i, ss, hh), rec in world.stats.delivers.items()
            if i in honest and (ss, hh) == (s, h)]


def _substitute_world(protocol: str, n: int, f: int, seed: int) -> SimWorld:
    kind = ProtocolKind(protocol)
    strict = n >= RESILIENCE[kind] * f + 1
    return build_world(kind, n, f, seed=seed, strict_resilience=strict)


def scenario_exec1(seed: int = 0, f: int = 1, protocol: str | None = None) -> ScenarioResult:
    n = 5 * f
    if protocol is not None:
        world = _substitute_world(protocol, n, f, seed)
        info = script_exec1(world)
        world.run()
        payloads = len({rec.payload for rec in _honest_deliveries(world, info.source, info.h)})
        return ScenarioResult("exec1", payloads <= 1, {"protocol": protocol, "payloads": payloads},
                              [f"{protocol}: {payloads} distinct honest payloads"])
    # The strawman splits at the unsafe threshold under double witnessing,
    # and holds at the next threshold without it.
    unsafe = (n + f) // 2
    counts, messages = [], []
    for threshold in (unsafe, unsafe + 1):
        world = build_witness_world(f, threshold, allow_double_witness=threshold == unsafe,
                                    seed=seed)
        info = script_exec1(world)
        world.run()
        counts.append(len({rec.payload for rec in _honest_deliveries(world, info.source, info.h)}))
        messages.append(f"threshold {threshold}: {counts[-1]} distinct honest payloads")
    split, safe = counts
    return ScenarioResult("exec1", split > 1 and safe <= 1,
                          {"unsafe_payloads": split, "safe_payloads": safe}, messages)


def scenario_exec2(seed: int = 0, f: int = 1, protocol: str | None = None) -> ScenarioResult:
    n = 5 * f
    boundary = 3.0
    if protocol is not None:
        world = _substitute_world(protocol, n, f, seed)
        info = script_exec2(world)
        world.run()
        times = [rec.time for rec in _honest_deliveries(world, info.source, info.h)]
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


def _one_broadcast(kind: ProtocolKind, n: int, f: int, seed: int,
                   faulty: dict[NodeId, Strategy],
                   payload: Payload) -> tuple[SimWorld, list[str]]:
    """Node 0 broadcasts ``payload`` once, as h = 1, over jittered links,
    with each ``faulty`` node under its strategy. Returns the finished
    world and its broadcast-property violations."""
    world = build_world(kind, n, f, seed=seed, net=NetParams(base_delay=1.0, jitter=0.5))
    for node, strategy in faulty.items():
        world.attach_adversary(node, strategy)
    world.broadcast(0, payload, h=1)
    world.run()
    return world, check_broadcast_properties(world)


def scenario_equivocate_split(seed: int = 0, f: int = 2) -> ScenarioResult:
    n, payload_len = 3 * f + 1, 4096
    rng = random.Random(seed)
    m1 = bytes(rng.randrange(256) for _ in range(payload_len))
    m2 = bytes(rng.randrange(256) for _ in range(payload_len))
    partition = {to: (m1 if to < n - f else m2) for to in range(n)}
    world, violations = _one_broadcast(ProtocolKind.H_BRB_3F1, n, f, seed,
                                       {0: EquivocatingSource(partition)}, m1)
    bound = (f + 1) * (payload_len + HEADER_SIZE)
    recv_bytes = world.stats.recv_bytes
    worst = max(recv_bytes[node][MsgKind.FWD] for node in world.honest)
    messages = [f"worst-case FWD bytes per honest node: {worst} (bound {bound})"]
    messages += violations
    return ScenarioResult("equivocate-split", not violations and worst <= bound,
                          {"fwd_bound": bound, "fwd_worst": worst}, messages)


def scenario_corrupt_relay(seed: int = 0) -> ScenarioResult:
    faulty = {node: CorruptRelay(seed=seed + node) for node in (1, 2, 3)}
    rng = random.Random(seed)
    payload = bytes(rng.randrange(256) for _ in range(512))
    world, violations = _one_broadcast(ProtocolKind.EC_BRB_4F1, 13, 3, seed, faulty, payload)
    delivered = len(_honest_deliveries(world, 0, 1))
    return ScenarioResult("corrupt-relay", not violations, {"honest_deliveries": delivered},
                          [f"{delivered}/{len(world.honest)} honest nodes delivered"]
                          + violations)


def scenario_silent(seed: int = 0) -> ScenarioResult:
    world, violations = _one_broadcast(ProtocolKind.H_BRB_3F1, 4, 1, seed,
                                       {3: Silent()}, b"quiet-test")
    delivered = len(_honest_deliveries(world, 0, 1))
    return ScenarioResult("silent", not violations, {"honest_deliveries": delivered},
                          [f"{delivered}/{len(world.honest)} honest nodes delivered"]
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
