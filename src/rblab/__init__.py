"""rblab: a laboratory for reliable-broadcast protocols.

Seven crash- and Byzantine-tolerant broadcast protocols implemented as
deterministic event-driven automata, an MDS erasure codec over GF(2^8), a
deterministic discrete-event network simulator with switched topologies
and bandwidth modeling, a library of Byzantine strategies and scripted
worst-case executions, and a benchmark CLI.
"""
from .adversary import (
    ConfigMismatch,
    CorruptRelay,
    Crash,
    EquivocatingSource,
    ScenarioResult,
    Silent,
    Strategy,
    UnknownScenario,
    WitnessAutomaton,
    WitnessProtocolConfig,
    build_witness_world,
    build_world,
    corrupt_element,
    phase_of,
    run_scenario,
    script_exec1,
    script_exec2,
    script_helper4,
)
from .codec import (
    CodecError,
    CodedElement,
    CodeParams,
    SubsetDecoder,
    decode_correcting,
    decode_erasure,
    encode,
)
from .core import (
    BroadcastRequest,
    Deliver,
    MalformedEnvelope,
    MsgKind,
    Multicast,
    Receive,
    Send,
    WireMessage,
    decode_envelope,
    encode_envelope,
    envelope_size,
    expand,
)
from .protocols import (
    BadCodeParams,
    ProtocolConfig,
    ProtocolKind,
    RESILIENCE,
    ResilienceViolation,
    make_automaton,
)
from .simnet import (
    FaultBudgetExceeded,
    InvalidTopology,
    NetParams,
    NotDelivered,
    SimWorld,
    StepCapExceeded,
    Topology,
    TopologyKind,
    causal_depth,
    check_acc_consistency,
    check_broadcast_properties,
    run,
)

__version__ = "0.1.0"

__all__ = [
    "BadCodeParams", "BroadcastRequest", "CodecError", "CodeParams",
    "CodedElement", "ConfigMismatch", "CorruptRelay", "Crash", "Deliver",
    "EquivocatingSource", "FaultBudgetExceeded",
    "InvalidTopology", "MalformedEnvelope", "MsgKind", "Multicast", "NetParams",
    "NotDelivered", "ProtocolConfig", "ProtocolKind", "RESILIENCE",
    "Receive", "ResilienceViolation", "ScenarioResult", "Send",
    "SimWorld", "StepCapExceeded", "Strategy", "SubsetDecoder", "Topology",
    "TopologyKind", "UnknownScenario", "WireMessage", "WitnessAutomaton",
    "WitnessProtocolConfig", "build_witness_world", "build_world",
    "causal_depth", "check_acc_consistency", "check_broadcast_properties",
    "corrupt_element", "decode_correcting", "decode_envelope",
    "decode_erasure", "encode", "encode_envelope", "envelope_size", "expand",
    "make_automaton", "phase_of", "run",
    "run_scenario", "script_exec1", "script_exec2", "script_helper4",
    "Silent", "__version__",
]
