"""Span tracer that wraps rblab's public functions from outside.

Nothing under ``src/`` knows about it. ``install`` replaces each traced
function at the place its callers look it up: a module attribute for
names bound with ``from ... import`` (``crb.encode``, ``simnet.envelope_size``),
the defining module for names called through it (``hashing.digest``,
``codec.gf_matmul``), and the class for methods (``Automaton.step``).
``uninstall`` puts the originals back, so an untraced run pays nothing.

Spans live in flat in-memory arrays (name, start, end, parent, trial,
amount) and are written out once, at the end. ``amount`` is the work a
span did, counted at the same boundary: bytes hashed or multiplied, sends
returned by a step, 1 for a successful correcting decode.
"""
from __future__ import annotations

import time
from array import array
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from rblab import adversary, bench, codec, hashing, simnet
from rblab.core import Send
from rblab.protocols import RESILIENCE, ProtocolConfig, ProtocolKind, crb, ecbrb, make_automaton
from rblab.protocols.base import Automaton

SETUP_TRIAL = -1  # trial id of spans recorded outside the timed trials


def _nbytes_of_b(args, out):
    return args[1].nbytes


def _len_of_first(args, out):
    return len(args[0])


def _decoded(args, out):
    return int(out is not None)


def _sends(args, out):
    return sum(type(action) is Send for action in out)


def _strategy_classes():
    found, todo = [], [adversary.Strategy]
    while todo:
        cls = todo.pop()
        found.append(cls)
        todo.extend(cls.__subclasses__())
    return [cls for cls in found if "transform" in vars(cls)]


def _step_kinds() -> dict[type, str]:
    """Automaton class -> protocol kind, learned through make_automaton."""
    kinds = {}
    for kind in ProtocolKind:
        config = ProtocolConfig(kind, RESILIENCE[kind] + 1, 1, node=0)
        kinds[type(make_automaton(config))] = kind.value
    return kinds


def patch_table():
    """(span name, [(owner, attribute)], amount function) for every layer
    boundary the benchmark traces."""
    return [
        ("codec.gf_matmul", [(codec, "gf_matmul")], _nbytes_of_b),
        ("codec.encode", [(crb, "encode"), (ecbrb, "encode")], _len_of_first),
        # SubsetDecoder.add looks decode_erasure up in codec's own globals.
        ("codec.decode_erasure", [(crb, "decode_erasure"), (codec, "decode_erasure")], None),
        ("codec.decode_correcting", [(ecbrb, "decode_correcting")], _decoded),
        ("codec.subset_add", [(codec.SubsetDecoder, "add")], None),
        ("hashing.digest", [(hashing, "digest")], _len_of_first),
        ("core.envelope_size", [(simnet, "envelope_size")], None),
        ("core.encode_envelope", [(ecbrb, "encode_envelope")], None),
        ("core.decode_envelope", [(ecbrb, "decode_envelope")], None),
        ("protocols.step", [(Automaton, "step")], _sends),
        ("protocols.digest_of", [(Automaton, "digest_of")], None),
        ("simnet.run", [(simnet.SimWorld, "run")], None),
        ("simnet.check", [(simnet, "check_broadcast_properties"),
                          (simnet, "check_acc_consistency")], None),
        ("adversary.transform", [(cls, "transform") for cls in _strategy_classes()], None),
        ("adversary.build_world", [(adversary, "build_world")], None),
        ("bench.load_config", [(bench, "load_config")], None),
    ]


class Tracer:
    """Records a span for every call to a wrapped function while installed."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.trial = array("i")
        self.amount = array("q")
        self.start = array("d")
        self.end = array("d")
        self.trial_id = SETUP_TRIAL
        self._stack = [-1]
        self._patches = None  # (owner, attribute, original, wrapper), built on first install
        self.installed = False

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def install(self) -> None:
        if self.installed:
            return
        if self._patches is None:
            step_ids = {cls: self.name_id(f"protocols.step.{kind}")
                        for cls, kind in _step_kinds().items()}
            self._patches = [
                (owner, attr, original,
                 self._wrap(original, self.name_id(name), amount,
                            step_ids if name == "protocols.step" else None))
                for name, sites, amount in patch_table()
                for owner, attr in sites
                for original in [vars(owner)[attr]]]
        for owner, attr, _, wrapped in self._patches:
            setattr(owner, attr, wrapped)
        self.installed = True

    def uninstall(self) -> None:
        if not self.installed:
            return
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)
        self.installed = False

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.trial.append(self.trial_id)
        self.amount.append(0)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, nid: int, amount, by_class):
        open_, close, amounts = self._open, self._close, self.amount

        def traced(*args, **kwargs):
            idx = open_(nid if by_class is None else by_class.get(type(args[0]), nid))
            try:
                out = fn(*args, **kwargs)
            finally:
                close(idx)
            if amount is not None:
                amounts[idx] = amount(args, out)
            return out

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def span(self, name: str):
        """A span around the benchmark's own code; recorded only while installed."""
        if not self.installed:
            yield
            return
        idx = self._open(self.name_id(name))
        try:
            yield
        finally:
            self._close(idx)

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "trial": np.frombuffer(self.trial, dtype=np.int32).copy(),
            "amount": np.frombuffer(self.amount, dtype=np.int64).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, names=np.array(self.names), **self.arrays())


class SpanTable:
    """Per-name aggregates over spans."""

    def __init__(self, tracer: Tracer, trials=None):
        """Spans of the given trial ids; by default of every timed trial."""
        a = tracer.arrays()
        self.names = tracer.names
        dur = a["end"] - a["start"]
        children = np.zeros_like(dur)
        nested = a["parent"] >= 0
        np.add.at(children, a["parent"][nested], dur[nested])
        keep = a["trial"] >= 0 if trials is None else np.isin(a["trial"], list(trials))
        self.name = a["name"][keep]
        self.parent_name = np.where(nested, a["name"][a["parent"]], -1)[keep]
        self.dur = dur[keep]
        self.self_time = (dur - children)[keep]
        self.amount = a["amount"][keep]

    def ids(self, prefix: str) -> list[int]:
        """Name ids equal to ``prefix`` or below it (``prefix.<kind>``)."""
        return [i for i, n in enumerate(self.names)
                if n == prefix or n.startswith(prefix + ".")]

    def _mask(self, prefix: str, parent: str | None = None) -> np.ndarray:
        mask = np.isin(self.name, self.ids(prefix))
        if parent is not None:
            mask &= np.isin(self.parent_name, self.ids(parent))
        return mask

    def calls(self, prefix: str, parent: str | None = None) -> int:
        return int(self._mask(prefix, parent).sum())

    def busy(self, prefix: str) -> float:
        """Wall time inside the layer, not double-counting nested calls to it."""
        mask = self._mask(prefix) & ~np.isin(self.parent_name, self.ids(prefix))
        return float(self.dur[mask].sum())

    def self_s(self, prefix: str) -> float:
        return float(self.self_time[self._mask(prefix)].sum())

    def amount_of(self, prefix: str, parent: str | None = None) -> int:
        return int(self.amount[self._mask(prefix, parent)].sum())


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(t: SpanTable, setup: SpanTable, events: int,
              overhead: float) -> dict[str, tuple[float, str, str]]:
    """Every per-layer metric: name -> (value, unit, better)."""
    mb = 1e6
    m: dict[str, tuple[float, str, str]] = {}

    def put(name, value, unit, better="lower"):
        m[name] = (value, unit, better)

    put("codec.gf_matmul.calls", t.calls("codec.gf_matmul"), "count")
    put("codec.gf_matmul.busy_s", t.busy("codec.gf_matmul"), "s")
    put("codec.gf_matmul.mb_per_s",
        _ratio(t.amount_of("codec.gf_matmul") / mb, t.busy("codec.gf_matmul")), "MB/s", "higher")
    put("codec.encode.busy_s", t.busy("codec.encode"), "s")
    put("codec.encode.mb_per_s",
        _ratio(t.amount_of("codec.encode") / mb, t.busy("codec.encode")), "MB/s", "higher")
    corrections = t.calls("codec.decode_correcting")
    put("codec.decode_correcting.calls", corrections, "count")
    put("codec.decode_correcting.busy_s", t.busy("codec.decode_correcting"), "s")
    put("codec.decode_correcting.ok_ratio",
        _ratio(t.amount_of("codec.decode_correcting"), corrections), "ratio", "higher")
    put("codec.decode_correcting.matmul_per_call",
        _ratio(t.calls("codec.gf_matmul", parent="codec.decode_correcting"), corrections),
        "calls/call")
    adds = t.calls("codec.subset_add")
    put("codec.subset_add.calls", adds, "count")
    put("codec.subset_add.busy_s", t.busy("codec.subset_add"), "s")
    put("codec.subset_add.decodes_per_add",
        _ratio(t.calls("codec.decode_erasure", parent="codec.subset_add"), adds), "calls/call")
    put("codec.decode_erasure.calls", t.calls("codec.decode_erasure"), "count")
    put("codec.decode_erasure.busy_s", t.busy("codec.decode_erasure"), "s")
    hashed = t.amount_of("hashing.digest")
    put("hashing.digest.calls", t.calls("hashing.digest"), "count")
    put("hashing.digest.mb", hashed / mb, "MB")
    put("hashing.digest.busy_s", t.busy("hashing.digest"), "s")
    put("hashing.digest.bookkeeping_share",
        _ratio(t.amount_of("hashing.digest", parent="simnet.run"), hashed), "ratio")
    memo_calls = t.calls("protocols.digest_of")
    put("protocols.digest_of.hit_ratio",
        1.0 - _ratio(t.calls("hashing.digest", parent="protocols.digest_of"), memo_calls)
        if memo_calls else 0.0, "ratio", "higher")
    put("core.envelope_size.calls_per_event",
        _ratio(t.calls("core.envelope_size"), events), "calls/event")
    put("core.envelope_size.busy_s", t.busy("core.envelope_size"), "s")
    put("core.encode_envelope.calls", t.calls("core.encode_envelope"), "count")
    put("core.decode_envelope.calls", t.calls("core.decode_envelope"), "count")
    put("core.decode_envelope.busy_s", t.busy("core.decode_envelope"), "s")
    steps = t.calls("protocols.step")
    put("protocols.step.calls", steps, "count")
    put("protocols.step.self_s", t.self_s("protocols.step"), "s")
    put("protocols.step.sends_per_call", _ratio(t.amount_of("protocols.step"), steps), "sends/call")
    for kind in ProtocolKind:
        put(f"protocols.step.{kind.value}.self_s", t.self_s(f"protocols.step.{kind.value}"), "s")
    put("simnet.run.self_s", t.self_s("simnet.run"), "s")
    put("simnet.run.self_us_per_event", _ratio(t.self_s("simnet.run") * 1e6, events), "us/event")
    put("simnet.events", events, "count")
    put("simnet.check.busy_s", t.busy("simnet.check"), "s")
    put("adversary.transform.calls", t.calls("adversary.transform"), "count")
    put("adversary.transform.busy_s", t.busy("adversary.transform"), "s")
    put("adversary.build_world.busy_s", t.busy("adversary.build_world"), "s")
    put("bench.load_config.busy_s", setup.busy("bench.load_config"), "s")
    put("bench.payload_gen.busy_s", setup.busy("bench.payload_gen"), "s")
    put("trace.overhead_share", overhead, "ratio")
    return m
