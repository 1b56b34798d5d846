"""Reliable-broadcast protocol automata.

Seven deterministic state machines share one event interface: feed a
BroadcastRequest or Receive event to ``Automaton.step`` and collect Send,
Multicast and Deliver actions. Two tolerate crash faults only (flooding and its
erasure-coded variant); the rest tolerate Byzantine nodes at resilience
n >= 3f+1, 4f+1, or 5f+1 depending on how they trade redundancy for
latency and bandwidth.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum


class ProtocolKind(str, Enum):
    CRB_FLOOD = "crb-flood"
    EC_CRB = "ec-crb"
    BRACHA = "bracha"
    H_BRB_3F1 = "h-brb-3f1"
    H_BRB_5F1 = "h-brb-5f1"
    EC_BRB_3F1 = "ec-brb-3f1"
    EC_BRB_4F1 = "ec-brb-4f1"


class ResilienceViolation(ValueError):
    """n is too small for the protocol's fault bound."""


class BadCodeParams(ValueError):
    """The code dimension k conflicts with the protocol's rule for it."""


# Minimum n as a multiple of f, plus one: n >= RESILIENCE[kind] * f + 1.
RESILIENCE: dict[ProtocolKind, int] = {
    ProtocolKind.CRB_FLOOD: 1,
    ProtocolKind.EC_CRB: 1,
    ProtocolKind.BRACHA: 3,
    ProtocolKind.H_BRB_3F1: 3,
    ProtocolKind.H_BRB_5F1: 5,
    ProtocolKind.EC_BRB_3F1: 3,
    ProtocolKind.EC_BRB_4F1: 4,
}

# Coded protocol -> (its rule for the code dimension k, k as a function of
# (n, f)). ec-crb takes any 1 <= k <= n-f and defaults to n-f; the others
# require exactly their k.
CODE_DIMENSION = {
    ProtocolKind.EC_CRB: ("n-f", lambda n, f: n - f),
    ProtocolKind.EC_BRB_3F1: ("f+1", lambda n, f: f + 1),
    ProtocolKind.EC_BRB_4F1: ("n-3f", lambda n, f: n - 3 * f),
}


@dataclass
class ProtocolConfig:
    """Parameters shared by every automaton of one run."""

    kind: ProtocolKind
    n: int
    f: int
    node: int
    k: int | None = None
    strict_resilience: bool = True

    def validate(self) -> None:
        if self.n < 1:
            raise ResilienceViolation(f"n={self.n} must be positive")
        if self.f < 0:
            raise ResilienceViolation(f"f={self.f} must be non-negative")
        if not 0 <= self.node < self.n:
            raise ValueError(f"node id {self.node} outside [0, {self.n})")
        floor = RESILIENCE[self.kind] * self.f + 1
        if self.strict_resilience and self.n < floor:
            raise ResilienceViolation(
                f"{self.kind.value} needs n >= {RESILIENCE[self.kind]}f+1 = {floor}, got n={self.n}")
        if self.kind not in CODE_DIMENSION:
            if self.k is not None:
                raise BadCodeParams(f"{self.kind.value} does not take a code dimension")
            return
        if self.n > 255:
            raise BadCodeParams(f"coded protocols require n <= 255, got {self.n}")
        rule, k_of = CODE_DIMENSION[self.kind]
        required = k_of(self.n, self.f)
        if self.kind is ProtocolKind.EC_CRB:
            k = self.resolved_k()
            if not 1 <= k <= required:
                raise BadCodeParams(
                    f"{self.kind.value} requires 1 <= k <= {rule} = {required}, got k={k}")
        elif self.k is not None and self.k != required:
            raise BadCodeParams(
                f"{self.kind.value} requires k = {rule} = {required}, got k={self.k}")

    def resolved_k(self) -> int | None:
        """The code dimension the protocol will actually use."""
        if self.kind not in CODE_DIMENSION:
            return None
        return self.k if self.k is not None else CODE_DIMENSION[self.kind][1](self.n, self.f)


def make_automaton(config: ProtocolConfig):
    """Build the node's automaton; its constructor validates the config."""
    return _CLASSES[config.kind](config)


# At the end: the protocol modules import this package's names above.
from . import bracha, crb, ecbrb, hbrb

_CLASSES: dict[ProtocolKind, type] = {  # kind -> automaton class
    ProtocolKind.CRB_FLOOD: crb.CrbFlood,
    ProtocolKind.EC_CRB: crb.EcCrb,
    ProtocolKind.BRACHA: bracha.Bracha,
    ProtocolKind.H_BRB_3F1: hbrb.HBrb3f1,
    ProtocolKind.H_BRB_5F1: hbrb.HBrb5f1,
    ProtocolKind.EC_BRB_3F1: ecbrb.EcBrb3f1,
    ProtocolKind.EC_BRB_4F1: ecbrb.EcBrb4f1,
}
