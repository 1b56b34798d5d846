"""Shared machinery for the broadcast automata.

Every automaton is a pure-ish state machine: ``step(event)`` mutates only
the automaton's own bookkeeping and returns the list of Send / Multicast /
Deliver actions the node performs in response. Nothing here touches a clock
or a socket, which keeps runs replayable and lets tests drive single
handlers.

A message to everyone is one ``Multicast`` action (``send_all``), which
reaches the node itself too (the transport loops the copy back), so
handler code never special-cases the local node: the source learns about
its own broadcast the same way everyone else does. ``core.expand`` lists a
Multicast as one Send per recipient.

Per-instance state lives in one record per (source, h), kept in
``Automaton.instances``: a ``core.Instance`` while the instance is open.
``step`` looks the record up once per received message and hands it to the
handler, which opens a new one only where it got none, and reads and
writes its fields directly: the sent and delivered flags, and per digest
(per payload in bracha) a ``core.Candidate`` with its payload and its ECHO
and ACC backers. Handlers make their cheap checks (vote and FWD masks,
``msg_seen``, whom a payload was requested from) before they hash, so a
repeated vote, MSG or FWD, or an unsolicited FWD, is neither hashed nor
held. Once a node's only work left for an instance is answering REQs, its
protocol ``close``s the instance (see ``core``), and ``step`` passes it
nothing but REQs from then on.

``DoubleEcho`` is the one quorum engine of bracha, h-brb-3f1, h-brb-5f1
and ec-brb-3f1; they differ only in what a vote carries and in how a node
gets a payload it lacks.
"""
from __future__ import annotations

from .. import hashing
from ..core import (
    CLOSED,
    Action,
    BroadcastRequest,
    Candidate,
    Closed,
    Deliver,
    Digest,
    Event,
    Instance,
    MsgKind,
    Multicast,
    NodeId,
    Payload,
    Receive,
    Send,
    SeqIndex,
    WireMessage,
)
from . import ProtocolConfig

_REQ = MsgKind.REQ  # read per message: cheaper than the enum member


class Automaton:
    """Base class: event dispatch, fan-out helpers, delivery bookkeeping."""

    def __init__(self, config: ProtocolConfig):
        config.validate()
        self.config = config
        self.n = config.n
        self.f = config.f
        self.me = config.node
        self.instances: dict[tuple[NodeId, SeqIndex], Instance] = {}
        # Quorum sizes, read on every vote.
        self.f_plus_1 = self.f + 1
        self.n_minus_f = self.n - self.f

    def digest_of(self, payload: Payload) -> Digest:
        """The digest of ``payload``, uncached: handlers hash only payloads
        new to their instance. A method so that perfbench's
        ``protocols.digest_of`` span can patch it by name."""
        return hashing.digest(payload)

    # -- event entry point -------------------------------------------------
    def step(self, event: Event) -> list[Action]:
        if isinstance(event, Receive):
            msg = event.msg
            kind = msg.kind
            handler = self._handler_of.get(kind)
            if handler is None:
                return []
            # The one lookup of the instance's record; a closed instance
            # takes REQs only.
            rec = self.instances.get((msg.source, msg.h))
            if type(rec) is Closed and kind is not _REQ:
                return []
            return handler(self, event.frm, msg, rec)
        if isinstance(event, BroadcastRequest):
            return self.source_sends(event.payload, event.h)
        raise TypeError(f"unknown event {event!r}")

    def source_sends(self, payload: Payload, h: SeqIndex) -> list[Action]:
        """Build the source's initial sends without touching state: by
        default one MSG with the whole payload, multicast to every node.

        Pure by design: the source's own state updates happen when its
        loopback copies arrive, and adversary strategies expand this
        builder's output to craft per-recipient splits of the initial wave.
        """
        return self.send_all(WireMessage(MsgKind.MSG, self.me, h, payload=payload))

    # -- handlers (override per protocol) ----------------------------------
    # Each takes the sender, the message and the instance's record as
    # ``step`` found it: the open Instance, a Closed one (``on_req`` only),
    # or None.
    def on_msg(self, frm: NodeId, msg: WireMessage, rec: Instance | None) -> list[Action]:
        return []

    def on_echo(self, frm: NodeId, msg: WireMessage, rec: Instance | None) -> list[Action]:
        return []

    def on_acc(self, frm: NodeId, msg: WireMessage, rec: Instance | None) -> list[Action]:
        return []

    def on_req(self, frm: NodeId, msg: WireMessage,
               rec: Instance | Closed | None) -> list[Action]:
        return []

    def on_fwd(self, frm: NodeId, msg: WireMessage, rec: Instance | None) -> list[Action]:
        return []

    def on_hash_rb(self, frm: NodeId, msg: WireMessage, rec: Instance | None) -> list[Action]:
        return []

    _HANDLERS = {
        MsgKind.MSG: "on_msg",
        MsgKind.ECHO: "on_echo",
        MsgKind.ACC: "on_acc",
        MsgKind.REQ: "on_req",
        MsgKind.FWD: "on_fwd",
        MsgKind.HASH_RB: "on_hash_rb",
    }

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # Kind -> handler function, resolved once per class for ``step``.
        cls._handler_of = {kind: getattr(cls, name) for kind, name in cls._HANDLERS.items()}

    # -- action helpers -----------------------------------------------------
    def send_all(self, msg: WireMessage) -> list[Action]:
        """``msg`` to every node, as one action."""
        return [Multicast(msg)]

    def request_payload(self, s: NodeId, h: SeqIndex, c: Candidate,
                        backers: list[NodeId]) -> list[Action]:
        """REQ the payload behind a digest from the nodes that vouched for it."""
        req = WireMessage(MsgKind.REQ, s, h, digest=c.digest)
        return [Send(j, req) for j in c.ask(backers)]

    def close(self, s: NodeId, h: SeqIndex, rec: Instance) -> None:
        """Swap open instance (s, h)'s record for its closed one."""
        self.instances[(s, h)] = CLOSED

    def deliver_once(self, rec: Instance, source: NodeId, payload: Payload, h: SeqIndex,
                     out: list[Action]) -> None:
        """Append a Deliver unless (source, h) was already delivered."""
        if rec.delivered:
            return
        rec.delivered = True
        out.append(Deliver(source, payload, h))


class DoubleEcho(Automaton):
    """Double echo with one threshold table: the source's MSG counts as the
    node's own ECHO; it amplifies at f+1 ECHOs, accepts (sends its ACC) at
    n-f ECHOs or f+1 ACCs, and delivers at n-f ACCs. Without an ACC wave
    (n >= 5f+1) it amplifies at n-2f ECHOs and delivers at n-f ECHOs.
    Votes are tallied per candidate key, so an equivocating source splits
    its support instead of pooling it. A node closes the instance once it
    has delivered and sent its ECHO and, with an ACC wave, its ACC.

    A subclass supplies its vote body (``vote``) and either its payload
    resolver (``learn``, or votes that carry the payload) or its fetch
    trigger (``fetch``). By default the MSG carries the payload and votes
    its digest.
    """

    ACC_WAVE = True

    def __init__(self, config: ProtocolConfig):
        super().__init__(config)
        n, f = self.n, self.f
        never = n + 1  # more votes than there are senders
        if self.ACC_WAVE:
            self.amplify_at, self.accept_at, self.deliver_at = f + 1, n - f, never
        else:
            self.amplify_at, self.accept_at, self.deliver_at = n - 2 * f, never, n - f

    def msg_digest(self, msg: WireMessage) -> Digest | None:
        """The candidate key the source's MSG backs; None if it is malformed."""
        return None if msg.payload is None else self.digest_of(msg.payload)

    def learn(self, c: Candidate, msg: WireMessage) -> None:
        """Keep what the source's MSG carries for its digest."""
        if c.payload is None:
            c.payload = msg.payload

    def vote(self, kind: MsgKind, s: NodeId, h: SeqIndex, c: Candidate,
             element=None) -> WireMessage:
        """This node's ECHO or ACC for ``c`` (``element``: the MSG's, if echoed)."""
        return WireMessage(kind, s, h, digest=c.digest)

    def fetch(self, s: NodeId, h: SeqIndex, c: Candidate) -> list[Action]:
        """Ask for ``c``'s missing payload; run by every check without it."""
        return []

    def on_msg(self, frm: NodeId, msg: WireMessage, rec: Instance | None) -> list[Action]:
        if frm != msg.source:
            return []
        if rec is not None and rec.msg_seen:
            return []
        digest = self.msg_digest(msg)
        if digest is None:
            return []
        s, h = msg.source, msg.h
        if rec is None:
            rec = self.instances[(s, h)] = Instance()
        rec.msg_seen = True
        rec.count_echo(digest, self.me)
        c = rec.candidate(digest)
        self.learn(c, msg)
        actions: list[Action] = []
        if not rec.echo_sent:
            rec.echo_sent = True
            actions += self.send_all(self.vote(MsgKind.ECHO, s, h, c, msg.element))
        # The node's own ECHO may complete a quorum the earlier ECHOs began.
        actions += self.check(rec, s, h, c)
        return actions

    def on_echo(self, frm: NodeId, msg: WireMessage, rec: Instance | None) -> list[Action]:
        return self.tally(frm, msg, rec, msg.digest, Instance.count_echo)

    def on_acc(self, frm: NodeId, msg: WireMessage, rec: Instance | None) -> list[Action]:
        return self.tally(frm, msg, rec, msg.digest, Instance.count_acc)

    def tally(self, frm: NodeId, msg: WireMessage, rec: Instance | None,
              key: Digest | None, count, payload: Payload | None = None) -> list[Action]:
        """Count ``frm``'s vote for candidate ``key`` with ``count`` (ECHO or
        ACC) in ``rec``, opened if None, hold the ``payload`` the vote
        carries, if any, and run the check."""
        if key is None:
            return []
        s, h = msg.source, msg.h
        if rec is None:
            rec = self.instances[(s, h)] = Instance()
        c = count(rec, key, frm)
        if c is None:
            return []
        if c.payload is None:
            c.payload = payload
        return self.check(rec, s, h, c)

    def check(self, rec: Instance, s: NodeId, h: SeqIndex, c: Candidate) -> list[Action]:
        """Apply the threshold table to ``c``; fetch its payload while missing."""
        m = c.payload
        if m is None:
            return self.fetch(s, h, c)
        actions: list[Action] = []
        echoes, accs = len(c.echoes), len(c.accs)
        if echoes >= self.amplify_at and not rec.echo_sent:
            rec.echo_sent = True
            actions += self.send_all(self.vote(MsgKind.ECHO, s, h, c))
        if (echoes >= self.accept_at or accs >= self.f_plus_1) and not rec.acc_sent:
            rec.acc_sent = True
            actions += self.send_all(self.vote(MsgKind.ACC, s, h, c))
        if accs >= self.n_minus_f or echoes >= self.deliver_at:
            self.deliver_once(rec, s, m, h, actions)
        if rec.delivered and rec.echo_sent and (rec.acc_sent or not self.ACC_WAVE):
            self.close(s, h, rec)
        return actions
