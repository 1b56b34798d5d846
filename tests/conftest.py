"""Shared pytest plumbing for the suite.

Acceptance tests report one PASS/FAIL line each through record_criterion();
the collected lines are printed in a dedicated terminal section at the end
of the run so the verdict on every headline property is visible at a glance.
"""
import hashlib

import pytest

from rblab import hashing, simnet
from rblab.core import Receive, decode_envelope, encode_envelope

_criterion_lines: list[str] = []


class Sha256Runs:
    """Stands in for ``hashlib`` in ``rblab.hashing`` and counts the SHA-256
    runs for which ``counts()`` is true."""

    def __init__(self, counts=lambda: True):
        self.runs = 0
        self.counts = counts

    def sha256(self, data=b""):
        if self.counts():
            self.runs += 1
        return hashlib.sha256(data)


def count_sha256_runs(monkeypatch, counts=lambda: True) -> Sha256Runs:
    """Count SHA-256 runs from here on. An unrelated input is hashed first,
    so ``hashing.digest`` remembers nothing a test's inputs could match."""
    hashing.digest(b"unrelated")
    runs = Sha256Runs(counts)
    monkeypatch.setattr(hashing, "hashlib", runs)
    return runs


@pytest.fixture
def wire_round_trip(monkeypatch):
    """A switch: once called, the simulator builds each ``Receive`` around
    ``decode_envelope(encode_envelope(msg))``, so a node gets only what the
    wire carries (no element carries its codeword) for the rest of the test."""

    def receive(frm, msg):
        return Receive(frm, decode_envelope(encode_envelope(msg)))

    return lambda: monkeypatch.setattr(simnet, "Receive", receive)


def stretch_link(world, frm: int, to: int) -> None:
    """Make the directed link ``frm -> to`` 100 times slower: each copy on it
    propagates for (hops * base_delay + jitter * draw) * 100, drawing from the
    world's RNG where the default delay would, and only when there is jitter.
    Other links keep the default. The policy holds no reference to the world,
    which keeps the world free of cycles."""
    base = world.hops[frm][to] * world.net.base_delay
    jitter, draw = world.net.jitter, world.rng.random

    def policy(src, dst, msg):
        if src != frm or dst != to:
            return None
        delay = base
        if jitter:
            delay += jitter * draw()
        return delay * 100.0

    world.delay_policy = policy


def record_criterion(name: str, passed: bool, detail: str = "") -> None:
    """Record one acceptance-criterion outcome for the end-of-run summary."""
    status = "PASS" if passed else "FAIL"
    line = f"[{status}] {name}"
    if detail:
        line += f" | {detail}"
    _criterion_lines.append(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _criterion_lines:
        return
    terminalreporter.section("acceptance criteria")
    for line in _criterion_lines:
        terminalreporter.write_line(line)
