"""SimWorld against the plain-loop simulator in oracle_simnet.py.

The drawn worlds vary the protocol, n, f, k and topology; jitter and
bandwidth caps; broadcasts at colliding times; faulty nodes under every
strategy, the pass-through one included; a delay policy; injected
messages; ``run(until=...)`` slices; and a step cap. Both simulators
run each world from fresh automata and must agree on every trace row,
delivery record, tally, ACC digest and event count after each slice.
"""
import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import stretch_link
from oracle_simnet import CapReached, OracleWorld
from rblab.adversary import CorruptRelay, Crash, EquivocatingSource, Silent, Strategy
from rblab.codec import CodedElement
from rblab.core import KIND_VARIANTS, BodyVariant, MsgKind, WireMessage
from rblab.protocols import RESILIENCE, ProtocolConfig, ProtocolKind, make_automaton
from rblab.simnet import NetParams, SimWorld, StepCapExceeded, Topology, TopologyKind

MAX_N = 8
_TIMES = (0.0, 0.0, 0.05, 0.3, 1.0)
_STRATEGIES = {"none": Strategy, "silent": Silent, "crash": Crash,
               "equivocate": EquivocatingSource, "corrupt": CorruptRelay}
_POLICIES = (None, "stretch", "table")
_KIND_VARIANTS = [(kind, variant) for kind, variants in KIND_VARIANTS.items()
                  for variant in sorted(variants)]


def _payload(rnd: random.Random) -> bytes:
    return rnd.randbytes(rnd.randrange(49))


def _strategy_args(name: str, n: int, rnd: random.Random) -> tuple:
    if name == "crash":
        return (rnd.randrange(3 * n + 1),)
    if name == "equivocate":
        return ({to: _payload(rnd) for to in rnd.sample(range(n), rnd.randrange(n + 1))},)
    if name == "corrupt":
        return (rnd.randrange(100),)
    return ()


def _message(n: int, payloads: list[bytes], rnd: random.Random) -> WireMessage:
    """A well-formed message of any kind and body, often about a real broadcast."""
    kind, variant = rnd.choice(_KIND_VARIANTS)
    payload = digest = element = None
    if variant is BodyVariant.PAYLOAD:
        payload = rnd.choice(payloads) if rnd.random() < 0.5 else _payload(rnd)
    if variant in (BodyVariant.DIGEST, BodyVariant.DIGEST_ELEMENT):
        digest = hashlib.sha256(rnd.choice(payloads)).digest() if rnd.random() < 0.5 \
            else rnd.randbytes(32)
    if variant in (BodyVariant.ELEMENT, BodyVariant.DIGEST_ELEMENT):
        element = CodedElement(rnd.randint(1, n), rnd.randbytes(rnd.randrange(17)),
                               rnd.randrange(49))
    return WireMessage(kind, rnd.randrange(n), rnd.randint(1, 2),
                       payload=payload, digest=digest, element=element)


@st.composite
def _worlds(draw, kind):
    """One world as plain data. Hypothesis draws its size: n, f and how many
    broadcasts, faulty nodes, injected messages and run slices it has. The
    rest comes from a ``Random`` seeded by one more draw, which keeps drawing
    cheap enough for hundreds of worlds per protocol."""
    resilience = RESILIENCE[kind]
    f = draw(st.integers(0, (MAX_N - 1) // resilience))
    n = draw(st.integers(resilience * f + 1, min(resilience * f + 3, MAX_N)))
    rnd = random.Random(draw(st.integers(0, 2**32 - 1)))
    broadcasts = {(rnd.randrange(n), rnd.randint(1, 2)): (_payload(rnd), rnd.choice(_TIMES))
                  for _ in range(draw(st.integers(1, 3)))}
    payloads = [payload for payload, _ in broadcasts.values()]
    faulty = rnd.sample(range(n), draw(st.integers(0, f)))
    injects = [(rnd.choice(_TIMES), rnd.randrange(n), rnd.randrange(n),
                _message(n, payloads, rnd), rnd.choice((None, None, 0.0, 0.2)))
               for _ in range(draw(st.integers(0, 3)))]
    untils = sorted(rnd.choice((0.0, 0.1, 0.5, 1.0, 2.5))
                    for _ in range(draw(st.integers(0, 3))))
    k = None
    if kind is ProtocolKind.EC_CRB and rnd.random() < 0.5:
        k = rnd.randint(1, n - f)
    topology = rnd.choice(list(TopologyKind))
    if topology is TopologyKind.TREE:
        fanout = rnd.randint(2, 3)
        rnd.randint(0, 1)  # unused, but drawn so that each seed draws the same world
        topology = Topology(topology, fanout=fanout)
    else:
        topology = Topology(topology, fanout=rnd.randint(1, 3))
    strategies = []
    for node in faulty:
        name = rnd.choice(tuple(_STRATEGIES))
        strategies.append((node, name, _strategy_args(name, n, rnd)))
    policy = rnd.choice(_POLICIES)
    if policy == "stretch":
        policy = (policy, rnd.randrange(n), rnd.randrange(n))
    elif policy == "table":
        links = [(rnd.randrange(n), rnd.randrange(n)) for _ in range(rnd.randint(1, 4))]
        policy = (policy, {link: rnd.choice((0.0, 0.02, 0.7, 3.0)) for link in links},
                  frozenset(rnd.sample(list(MsgKind), rnd.randint(1, len(MsgKind)))))
    return dict(
        kind=kind, n=n, f=f, k=k, topology=topology,
        net=NetParams(base_delay=rnd.choice((0.0, 0.1, 1.0)),
                      jitter=rnd.choice((0.0, 0.05, 0.5)),
                      bandwidth=rnd.choice((None, 2_000.0, 50_000.0)),
                      source_bandwidth=rnd.choice((None, 500.0, 10_000.0))),
        seed=rnd.randrange(2**16), max_steps=rnd.choice((1_000_000, 1_000_000, 3, 17)),
        strategies=strategies, policy=policy, injects=injects,
        broadcasts=[(source, h, payload, at)
                    for (source, h), (payload, at) in broadcasts.items()],
        untils=untils + [None],
    )


def _build(spec, world_class, **kwargs):
    automata = [make_automaton(ProtocolConfig(spec["kind"], spec["n"], spec["f"], node=i,
                                              k=spec["k"]))
                for i in range(spec["n"])]
    world = world_class(automata, topology=spec["topology"], net=spec["net"],
                        seed=spec["seed"], max_steps=spec["max_steps"], **kwargs)
    for node, name, args in spec["strategies"]:
        world.attach_adversary(node, _STRATEGIES[name](*args))
    policy = spec["policy"]
    if policy and policy[0] == "stretch":
        stretch_link(world, policy[1], policy[2])
    elif policy:
        _, table, kinds = policy
        world.delay_policy = \
            lambda frm, to, msg: table.get((frm, to)) if msg.kind in kinds else None
    for source, h, payload, at in spec["broadcasts"]:
        world.broadcast(source, payload, h, at=at)
    for at, frm, to, msg, delay in spec["injects"]:
        world.inject(at, frm, to, msg, delay=delay)
    return world


def _run(world, until, cap) -> int:
    """Run until ``until``, resuming after each tripped step cap; the trips."""
    trips = 0
    while True:
        try:
            world.run(until=until)
            return trips
        except cap:
            trips += 1


def _simulated(world):
    stats = world.stats
    return dict(
        time=world.time,
        trace=list(world.trace),
        delivers={key: (rec.time, rec.payload, rec.depth)
                  for key, rec in stats.delivers.items()},
        double_deliveries=stats.double_deliveries,
        sent_count=stats.sent_count, sent_bytes=stats.sent_bytes,
        recv_count=stats.recv_count, recv_bytes=stats.recv_bytes,
        acc_digests=stats.acc_digests, events_processed=stats.events_processed)


def _reference(oracle):
    return dict(
        time=oracle.time, trace=oracle.trace, delivers=oracle.delivers,
        double_deliveries=oracle.double_deliveries,
        sent_count=oracle.sent_count, sent_bytes=oracle.sent_bytes,
        recv_count=oracle.recv_count, recv_bytes=oracle.recv_bytes,
        acc_digests=oracle.acc_digests, events_processed=oracle.events_processed)


@pytest.mark.parametrize("kind", list(ProtocolKind), ids=lambda kind: kind.value)
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_simworld_matches_the_reference_loop(kind, data):
    spec = data.draw(_worlds(kind))
    world = _build(spec, SimWorld, record_trace=True)
    oracle = _build(spec, OracleWorld)
    for until in spec["untils"]:
        trips = _run(world, until, StepCapExceeded)
        assert _run(oracle, until, CapReached) == trips
        assert _simulated(world) == _reference(oracle)
    assert world.quiescent() and not oracle.heap
