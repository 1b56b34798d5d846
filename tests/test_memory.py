"""Memory: finished worlds are freed by refcount, live ones stay small.

With the cyclic garbage collector off, dropping a world after its run must
leave nothing for ``gc.collect()`` to find. A reference cycle through an
automaton would keep every shard and decoded payload of the world alive
until a full collection happens to run, so memory would grow with the
number of finished worlds rather than stay flat.

A world that is still alive holds per-broadcast state in every automaton
and in the simulator's records; its size per broadcast is budgeted.

A faulty node that repeats a message with fresh payloads must not grow what
an honest node holds, nor make it hash each copy.
"""
import dataclasses
import gc
import os
import platform
import random
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path

import tracemalloc

import pytest

import rblab
from rblab import bench, hashing
from rblab.core import MsgKind, Receive, WireMessage
from rblab.protocols import RESILIENCE, ProtocolConfig, ProtocolKind, make_automaton
from rblab.simnet import NetParams, SimWorld, check_broadcast_properties
from test_acceptance import FAULT_MATRIX, _fault_injected_violations


@contextmanager
def collector_off():
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def run_bulk(kind: ProtocolKind) -> list[str]:
    """One honest 64 KiB broadcast at n=19 and the largest f up to 6."""
    n = 19
    f = min(6, (n - 1) // RESILIENCE[kind])
    world = SimWorld([make_automaton(ProtocolConfig(kind, n, f, node=i)) for i in range(n)],
                     net=NetParams(base_delay=1.0, jitter=0.5), seed=19)
    world.broadcast(3, random.Random(19).randbytes(64 * 1024), 1)
    world.run()
    return check_broadcast_properties(world)


@pytest.mark.parametrize("kind", list(ProtocolKind), ids=lambda kind: kind.value)
def test_bulk_world_is_freed_by_refcount(kind):
    with collector_off():
        assert run_bulk(kind) == []
        assert gc.collect() == 0


@pytest.mark.parametrize("strategy", ["silent", "crash", "equivocate", "corrupt-relay"])
def test_fault_matrix_worlds_are_freed_by_refcount(strategy):
    left = {}
    with collector_off():
        for kind, strategies in FAULT_MATRIX:
            if strategy not in strategies:
                continue
            for f in (1, 2):
                assert _fault_injected_violations(kind, f, strategy, 0) == []
                left[(kind.value, f)] = gc.collect()
    assert left and set(left.values()) == {0}, left


# Bytes a finished world still holds per broadcast (tracemalloc), for the
# stream configs at 300 x 1 KiB broadcasts: about 1.25x the measured 8.83
# KiB (bracha) and 7.55 KiB (h-brb-3f1). Tuple-keyed per-node maps held 19.3
# and 18.4 KiB. ec-brb-4f1 holds 24.46 KiB; its budget of 1.1x that fails
# if the tunneled envelopes' parses are not dropped on delivery (they added
# 4.6 KiB).
HELD_BUDGET_KIB = {"bracha": 11.0, "h-brb-3f1": 9.4, "ec-brb-4f1": 26.9}
CONFIGS = Path(__file__).resolve().parent.parent / "configs" / "tables"


@pytest.mark.parametrize("kind", sorted(HELD_BUDGET_KIB))
def test_held_state_per_broadcast_is_within_budget(kind):
    broadcasts = 300
    config = dataclasses.replace(bench.load_config(CONFIGS / f"{kind}-fat-tree-42mbit.ini"),
                                 broadcasts=broadcasts)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        row, world = bench.run_experiment(config)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert row["deliveries"] == broadcasts * config.n and row["error"] == ""
    assert held / broadcasts / 1024 < HELD_BUDGET_KIB[kind]


HEAP_CHURN = """
import resource
import rblab.simnet

def churn():
    blocks = [bytearray(900_000) for _ in range(4)]
    del blocks

big = bytearray(1 << 20)  # lifts glibc's sliding mmap threshold to 1 MiB
del big
churn()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(5):
    churn()
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc heap thresholds")
def test_freed_heap_is_reused_not_refaulted():
    # Four 0.9 MB blocks freed together leave 3.6 MB at the top of the
    # heap, past glibc's sliding trim threshold; were it given back to the
    # OS, each of the five rounds would fault over 600 pages in again.
    src = str(Path(rblab.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", HEAP_CHURN], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert int(out) < 200


# Each case: the protocol, the messages node 0 takes first, the faulty
# sender, and the message it then repeats with a fresh 1 KiB payload each
# time (instance (3, 1), n=9, f=2). Only the first vote or MSG may count;
# node 6 was never asked for a payload, so its FWDs are unsolicited.
HONEST_MSG = (3, WireMessage(MsgKind.MSG, 3, 1, payload=b"honest"))
HONEST_DIGEST = hashing.digest(b"honest")
FLOODS = {
    "bracha-echo": (ProtocolKind.BRACHA, [HONEST_MSG], 6,
                    lambda m: WireMessage(MsgKind.ECHO, 3, 1, payload=m)),
    "bracha-acc": (ProtocolKind.BRACHA, [HONEST_MSG], 6,
                   lambda m: WireMessage(MsgKind.ACC, 3, 1, payload=m)),
    "bracha-msg": (ProtocolKind.BRACHA, [], 3,
                   lambda m: WireMessage(MsgKind.MSG, 3, 1, payload=m)),
    "h-brb-3f1-msg": (ProtocolKind.H_BRB_3F1, [], 3,
                      lambda m: WireMessage(MsgKind.MSG, 3, 1, payload=m)),
    "h-brb-3f1-fwd": (ProtocolKind.H_BRB_3F1, [HONEST_MSG], 6,
                      lambda m: WireMessage(MsgKind.FWD, 3, 1, payload=m)),
    "ec-brb-4f1-fwd": (ProtocolKind.EC_BRB_4F1,
                       [(1, WireMessage(MsgKind.ACC, 3, 1, digest=HONEST_DIGEST))], 6,
                       lambda m: WireMessage(MsgKind.FWD, 3, 1, payload=m, digest=HONEST_DIGEST)),
}


@pytest.mark.parametrize("case", sorted(FLOODS))
def test_repeated_byzantine_messages_are_neither_held_nor_hashed(case, monkeypatch):
    kind, prime, frm, make = FLOODS[case]
    hashed = []
    real_digest = hashing.digest

    def counting_digest(data):
        hashed.append(len(data))
        return real_digest(data)

    monkeypatch.setattr(hashing, "digest", counting_digest)
    held = {}
    for count in (1_000, 10_000):
        node = make_automaton(ProtocolConfig(kind, 9, 2, node=0))
        hashed.clear()
        for j, msg in prime:
            node.step(Receive(j, msg))
        rng = random.Random(count)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for _ in range(count):
                node.step(Receive(frm, make(rng.randbytes(1024))))
            held[count] = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(hashed) <= 1, (count, len(hashed))
    # Ten times the messages hold no more: at most the first one's state.
    assert held[10_000] - held[1_000] < 1024 and held[1_000] < 4096, held
