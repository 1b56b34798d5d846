"""Golden outputs: fixed-seed results pinned by SHA-256.

Each shipped example config is run through the CLI twice, once for its
``--csv`` report and once for its event trace; every registered scenario
is run through ``rblab scenario`` with its worlds traced; every
``configs/tables`` config, cut to 20 broadcasts, pins its protocol on its
link model; inline configs pin ec-crb and h-brb-5f1, which no shipped
config runs, and the `equivocate` and `crash` strategies as a config sets
them up; and one hash per protocol covers a drawn sweep of its small
adversarial worlds (f in {1, 2}, four strategies, injected messages), so
a change to one protocol moves only its own sweep hash. The table
configs, the inline configs and the sweep must also give the same hashes
with every message delivered as its wire bytes parse. The hashes cover
every simulated byte count, ordering, time and recorded ACC digest, so a
change that is meant to be output-neutral (a speed-up, a
refactor) must leave all of them unchanged. A change that alters simulated
results on purpose re-records them and says why.
"""
import contextlib
import hashlib
import io
import random
from pathlib import Path

import pytest

from conftest import stretch_link
from rblab import adversary, bench
from rblab.adversary import CorruptRelay, Crash, EquivocatingSource, Silent, build_world
from rblab.codec import CodedElement
from rblab.core import KIND_VARIANTS, BodyVariant, WireMessage
from rblab.protocols import RESILIENCE, ProtocolKind
from rblab.protocols.base import Fetching
from rblab.protocols.bracha import Bracha
from rblab.simnet import NetParams, TopologyKind

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
EXAMPLES = CONFIGS / "examples"
TABLE_BROADCASTS = 20

CONFIG_HASHES = {
    "coded-fault-sweep.ini": (
        "cadecdda465f165346ef62b34c68fd3f45556324e2c8d05e0149eec557358dca",
        "17acfcc1537dda503d8873771fb92bb05ed4221f5797609052ca51e76784966f"),
    "quickstart.ini": (
        "78f6c7f4d581cc576867164e8cde661757cd86e1f2b95c5337225e79bdd63507",
        "5a0f8c32dc4e4c317534cf7fffde9a24e0baa012a61f9e3fd566da87b3fb6383"),
    "source-limited-500kb.ini": (
        "896cc89cfbfe322f2b1dacf951e9c7379237cfd3b8e7b169f865955d3b724614",
        "967555f9ce314e1486d301d5197973b374dc4311e1055355c77615cb2d5fe975"),
    "source-limited-50kb.ini": (
        "09c13766682ccbd66dc78d16b056d0d6fa3e1becd0448afd2f56c4c0f476b11c",
        "e28cdacb0376960a5604c85e703c921531336e8896464b5ce70860486715fddd"),
}

SCENARIO_HASHES = {
    "exec1":
        "d46470f6ed9875b96a6741fa84da4c8374fcbb136f64706e9a10ba71e1411141",
    "exec2":
        "c7bb21efe98a7c95d6a1cb9b3ef4f739418ad53f0e274debe517d0d3ae674564",
    "helper4":
        "f88a9b627be75252f894581d966b52347521be5119142fef2aa554afb2503e14",
    "silent":
        "c99694a57c29f885c5e559fb821953252fbb9837174ed03f6b49eae35b2a27af",
    "corrupt-relay":
        "367751ce0afa522cac66274af8340a374c782f9e2ab176a32c849e125d462e1d",
    "equivocate-split":
        "439f62fc96f6a035d60c6647092e99c9ebf60f242a25ad35b3910a135dda931c",
}

TABLE_HASHES = {
    "bracha-fat-tree-42mbit.ini":
        "95b1083e1fd07176358a8f40fac24aa9eded7f5683285e34056e458c80846960",
    "bracha-fat-tree-unlimited.ini":
        "2342f767ad7529c111bd8cfc16c0ef01f729f582083509e3e3b816f7632e7d71",
    "bracha-linear-42mbit.ini":
        "b198ac72f33174a51c5d80ffb781a3f468f654d665596a86d1f60800601a421c",
    "bracha-linear-unlimited.ini":
        "86e416076a0dac795f27f5454cc1ff997db2092df94a04c822faa26292f76542",
    "bracha-tree-42mbit.ini":
        "8ad7df2527232f0c235f290a4156a693d4073080a5a00feb051d4380ce5e867e",
    "bracha-tree-unlimited.ini":
        "56e4df64f19f0f77d1658b3db22b47d7c08323474bbb9643efbf9d3cd4ebe126",
    "crb-flood-fat-tree-42mbit.ini":
        "34df90535c92b022d28c7416a51e69d94c2e459cf66c11266b621fd0870df94d",
    "crb-flood-fat-tree-unlimited.ini":
        "553aa4a72e59a5ad56b33f4be0f2e19d4b60d7a905f579ee31abd380194d9211",
    "crb-flood-linear-42mbit.ini":
        "777af8d75a56699aab53dffdb2245917e8615cf046d526e8c0a35b7df8c98416",
    "crb-flood-linear-unlimited.ini":
        "3b527b1317f14adc8933e000235d85c51475816ad3d9ca69362d73b9df6e69f8",
    "crb-flood-tree-42mbit.ini":
        "d344b131cc5c9ec8be830711b1cc3dfa25029b972f719979a595b0a7547b6744",
    "crb-flood-tree-unlimited.ini":
        "5650e2200b3106020899882ff4639e9a218d856274dfc5632137024bed5ab907",
    "ec-brb-3f1-fat-tree-42mbit.ini":
        "2c3f7afaf3911f112f10e205518e21fbcf5849a7b32a5a50e59aa31b4840dd33",
    "ec-brb-3f1-fat-tree-unlimited.ini":
        "78ec288ed9c55a936d90c28d5946aa7468fe37d70c40b038570d84631194cc3e",
    "ec-brb-3f1-linear-42mbit.ini":
        "6e1138280cf9912bc3874296fd83201129994eb3f0b757d50f4346d55294b703",
    "ec-brb-3f1-linear-unlimited.ini":
        "345385dda4ae83dc388f0acb20001d71f1fe26764caa4deca385fe3a293cf827",
    "ec-brb-3f1-tree-42mbit.ini":
        "47bbd764cb7b0191764f97f110c7968e3be86327b7449dd8f24e99c0b4ece0a1",
    "ec-brb-3f1-tree-unlimited.ini":
        "40d031e8bf0a77c59673f111a3b5cbc6e85feabc3453b283ba344dd59d805ee5",
    "ec-brb-4f1-fat-tree-42mbit.ini":
        "b49c0978814376dde5cb5f1fd7e0c32e68d07771fd41a10c8695c2ddb275691b",
    "ec-brb-4f1-fat-tree-unlimited.ini":
        "2409783edaaa6ef2b9a8c1a34eae35d41d9df7cbd32e447ad27b05f8d2ac7937",
    "ec-brb-4f1-linear-42mbit.ini":
        "23807187f516a1a692bb4e7aabdbbf45854da8cc8c2cc1275af32ef31cf20fc5",
    "ec-brb-4f1-linear-unlimited.ini":
        "3ae00fe78cad5bf52c33d8dc26d97c741b5dc12bd0a41a337166d3c1fcd7840d",
    "ec-brb-4f1-tree-42mbit.ini":
        "263f027958ffc6019b98a69e22e487b96f6849531498c00f810d4807d82dc9dc",
    "ec-brb-4f1-tree-unlimited.ini":
        "17e03df38533a8f19bef83b58b87f9f792d2c057b0a4d5459b7b822f648e87e7",
    "h-brb-3f1-fat-tree-42mbit.ini":
        "07fe130d6c593fdd20d76b9e3f941d42f4490493844a7f5ea338ebd30acaae9b",
    "h-brb-3f1-fat-tree-unlimited.ini":
        "e383502db438939fd568d7869f4862cc560eb52abc3cdcb8f4caa12f050b55ea",
    "h-brb-3f1-linear-42mbit.ini":
        "478ce733ed093d9c4f3d8c42316c42fcde95b98e8650e62f67884337920ac1ca",
    "h-brb-3f1-linear-unlimited.ini":
        "8116d754328345a12f380c8149aadbc0ab6ad89354da77b981d7eead9ba0be03",
    "h-brb-3f1-tree-42mbit.ini":
        "b3c50b3532b3b9b448f2fa00c32da2e83349cb4400880b09dad6da214bcf4181",
    "h-brb-3f1-tree-unlimited.ini":
        "46fae07472401671840a6b8d6b73524081969f4848b895e23e636df2f566920d",
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _world_record(world) -> bytes:
    """The trace plus every counter and record the analysis layer reads."""
    stats = world.stats
    parts = [bench.trace_to_text(world)]
    for name in ("sent_count", "sent_bytes", "recv_count", "recv_bytes"):
        counters = getattr(stats, name)
        parts.append(repr([sorted((k.name, v) for k, v in c.items())
                           for c in counters]))
    parts.append(repr(sorted((key, rec.time, rec.payload, rec.depth)
                             for key, rec in stats.delivers.items())))
    parts.append(repr(sorted((key, sorted((node, sorted(ds))
                                          for node, ds in per_node.items()))
                             for key, per_node in stats.acc_digests.items())))
    parts.append(repr((stats.double_deliveries, stats.events_processed,
                       world.time)))
    return "\n".join(parts).encode()


def config_outputs(name: str, tmp_path) -> tuple[str, str]:
    path = EXAMPLES / name
    csv_out, trace_out = tmp_path / "report.csv", tmp_path / "trace.tsv"
    assert bench.main(["run", str(path), "--csv", "--out", str(csv_out)]) == 0
    assert bench.main(["trace", str(path), "--out", str(trace_out)]) == 0
    return _sha(csv_out.read_bytes()), _sha(trace_out.read_bytes())


def scenario_output(name: str, monkeypatch) -> str:
    worlds = []

    def traced(build):
        def traced_build(*args, **kwargs):
            world = build(*args, **kwargs)
            world.record_trace = True
            worlds.append(world)
            return world
        return traced_build

    for builder in ("build_world", "build_witness_world"):
        monkeypatch.setattr(adversary, builder, traced(getattr(adversary, builder)))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert bench.main(["scenario", name]) == 0
    assert worlds
    return _sha(out.getvalue().encode()
                + b"".join(_world_record(w) for w in worlds))


def table_output(name: str) -> str:
    config = bench.load_config(CONFIGS / "tables" / name)
    config.broadcasts = TABLE_BROADCASTS
    row, world = bench.run_experiment(config, record_trace=True)
    return _sha(bench.rows_to_csv([row]).encode() + _world_record(world))


def test_every_example_config_is_pinned():
    assert sorted(CONFIG_HASHES) == sorted(p.name for p in EXAMPLES.glob("*.ini"))


@pytest.mark.parametrize("name", sorted(CONFIG_HASHES))
def test_example_config_outputs_match_golden(name, tmp_path):
    assert config_outputs(name, tmp_path) == CONFIG_HASHES[name]


@pytest.mark.parametrize("name", sorted(SCENARIO_HASHES))
def test_scenario_outputs_match_golden(name, monkeypatch):
    assert scenario_output(name, monkeypatch) == SCENARIO_HASHES[name]


def test_every_scenario_is_pinned():
    assert sorted(SCENARIO_HASHES) == sorted(adversary.SCENARIOS)


def test_every_table_config_is_pinned():
    assert sorted(TABLE_HASHES) == sorted(p.name for p in (CONFIGS / "tables").glob("*.ini"))


@pytest.mark.parametrize("name", sorted(TABLE_HASHES))
def test_table_config_outputs_match_golden(name):
    assert table_output(name) == TABLE_HASHES[name]


@pytest.mark.parametrize("name", sorted(TABLE_HASHES))
def test_table_config_outputs_are_the_same_through_the_wire(name, wire_round_trip):
    wire_round_trip()
    assert table_output(name) == TABLE_HASHES[name]


# -- protocols no shipped config runs -------------------------------------------

INLINE_CONFIGS = {
    "ec-crb-tree-42mbit": dict(
        kind=ProtocolKind.EC_CRB, n=5, f=1, topology=TopologyKind.TREE, fanout=2,
        base_delay=0.0005, bandwidth_mbit=42.0, gap=0.001, seed=7),
    "h-brb-5f1-fat-tree-jitter": dict(
        kind=ProtocolKind.H_BRB_5F1, n=6, f=1, topology=TopologyKind.FAT_TREE,
        fanout=2, base_delay=0.0005, jitter=0.0004, gap=0.001, seed=7),
    "bracha-linear-equivocate": dict(
        kind=ProtocolKind.BRACHA, n=4, f=1, topology=TopologyKind.LINEAR,
        base_delay=0.0005, jitter=0.0004, bandwidth_mbit=42.0, gap=0.001, seed=7,
        strategy="equivocate"),
    "h-brb-3f1-fat-tree-crash": dict(
        kind=ProtocolKind.H_BRB_3F1, n=4, f=1, topology=TopologyKind.FAT_TREE,
        fanout=2, base_delay=0.0005, jitter=0.0004, gap=0.001, seed=7,
        strategy="crash", crash_after=5),
}

INLINE_HASHES = {
    "ec-crb-tree-42mbit":
        "5b3af6fed3c96d9d7e844bc1ce771b1da54fd447edbafb5b0b6d1c17618ec22c",
    "h-brb-5f1-fat-tree-jitter":
        "aed9e3e394a62ed73471bb7b82edae228d95a9e6b01089c309289b6e006335d3",
    "bracha-linear-equivocate":
        "2111bbb40984af16c8257f09381a042c30d45de0af52c167d6bfb38ceacb7073",
    "h-brb-3f1-fat-tree-crash":
        "b2459c2b968ebd76a9acd3411771df86136496fad2e13b7cf54f2b963a81a62a",
}


def inline_output(name: str) -> str:
    config = bench.ExperimentConfig(**INLINE_CONFIGS[name], broadcasts=TABLE_BROADCASTS)
    config.validate()
    row, world = bench.run_experiment(config, record_trace=True)
    return _sha(bench.rows_to_csv([row]).encode() + _world_record(world))


@pytest.mark.parametrize("name", sorted(INLINE_HASHES))
def test_inline_config_outputs_match_golden(name):
    assert inline_output(name) == INLINE_HASHES[name]


@pytest.mark.parametrize("name", sorted(INLINE_HASHES))
def test_inline_config_outputs_are_the_same_through_the_wire(name, wire_round_trip):
    wire_round_trip()
    assert inline_output(name) == INLINE_HASHES[name]


# -- a drawn adversarial sweep ------------------------------------------------------

SWEEP_STRATEGIES = ("silent", "crash", "equivocate", "corrupt-relay")
SWEEP_SEEDS = 10
SWEEP_HASHES = {
    ProtocolKind.CRB_FLOOD:
        "4a23cacefeda90c15627cde51d9177de67cd2bbafcfe71728740c9f7d3a38934",
    ProtocolKind.EC_CRB:
        "23def0b1261ab3509bace32fb9218c069685f5c171d77cead90cd2d5fdcce335",
    ProtocolKind.BRACHA:
        "0b5de7c3e7bc2988d00d4b3ae5aaf39aef8c319e61cedbe14f37c10d1d65cbec",
    ProtocolKind.H_BRB_3F1:
        "4b9e9ae2e92011e41cbfb291740df8e1644a0ec6113270ee3150730370d25993",
    ProtocolKind.H_BRB_5F1:
        "0d01be05a316d251f2ab3dbe204afbe63a31675b6211b3b111b22cd0367bea88",
    ProtocolKind.EC_BRB_3F1:
        "06d82432f1897bb4e7489f74218db56c8a52a2d173875af3a85bd35ff61db602",
    ProtocolKind.EC_BRB_4F1:
        "db6039b961ce5457cb886a89a44643cb63ee3d50776fdbaacbb9a89675fc0f5f",
}
_VARIANTS = [(kind, variant) for kind, variants in KIND_VARIANTS.items()
             for variant in sorted(variants)]


def _injected(n: int, payloads: list[bytes], rnd: random.Random) -> WireMessage:
    """A well-formed message of any kind and body, often about the real
    broadcast, with an element at any position."""
    kind, variant = rnd.choice(_VARIANTS)
    payload = digest = element = None
    if variant is BodyVariant.PAYLOAD:
        payload = rnd.choice(payloads) if rnd.random() < 0.5 else rnd.randbytes(8)
    if variant in (BodyVariant.DIGEST, BodyVariant.DIGEST_ELEMENT):
        digest = hashlib.sha256(rnd.choice(payloads)).digest() if rnd.random() < 0.5 \
            else rnd.randbytes(32)
    if variant in (BodyVariant.ELEMENT, BodyVariant.DIGEST_ELEMENT):
        element = CodedElement(rnd.randint(1, n), rnd.randbytes(rnd.randrange(1, 9)),
                               rnd.randrange(33))
    return WireMessage(kind, rnd.randrange(n), 1, payload=payload, digest=digest,
                       element=element)


def _sweep_world(kind: ProtocolKind, f: int, strategy: str, seed: int):
    """One small world: the protocol at n = its minimum or one more, with
    jitter, maybe a slow link, f faulty nodes (the source alone for
    ``equivocate``), and up to three messages injected by a faulty node."""
    rnd = random.Random(f"{kind.value}:{f}:{strategy}:{seed}")
    n = RESILIENCE[kind] * f + 1 + rnd.randrange(2)
    world = build_world(kind, n, f, seed=rnd.getrandbits(32),
                        net=NetParams(base_delay=1.0, jitter=1.0), record_trace=True)
    if rnd.random() < 0.5:
        stretch_link(world, *rnd.sample(range(n), 2))
    source = rnd.randrange(n)
    payload = rnd.randbytes(rnd.randrange(1, 33))
    others = [i for i in range(n) if i != source]
    if strategy == "equivocate":
        alt = rnd.randbytes(rnd.randrange(1, 33))
        faulty = [source]
        world.attach_adversary(source, EquivocatingSource(
            {to: alt for to in range(n) if rnd.random() < 0.5}))
    else:
        faulty = rnd.sample(others, f)
        for node in faulty:
            world.attach_adversary(node, {
                "silent": Silent,
                "crash": lambda: Crash(after_sends=rnd.randrange(2 * n + 2)),
                "corrupt-relay": lambda: CorruptRelay(seed=rnd.getrandbits(32)),
            }[strategy]())
    world.broadcast(source, payload, 1)
    for _ in range(rnd.randrange(4)):
        world.inject(rnd.choice((0.0, 0.5, 2.0)), rnd.choice(faulty), rnd.randrange(n),
                     _injected(n, [payload], rnd))
    world.run()
    return world


def sweep_output(kind: ProtocolKind) -> str:
    digest = hashlib.sha256()
    for f in (1, 2):
        for strategy in SWEEP_STRATEGIES:
            for seed in range(SWEEP_SEEDS):
                digest.update(_world_record(_sweep_world(kind, f, strategy, seed)))
    return digest.hexdigest()


def sweep_outputs() -> dict[ProtocolKind, str]:
    return {kind: sweep_output(kind) for kind in ProtocolKind}


def test_adversarial_sweep_matches_golden():
    assert sweep_outputs() == SWEEP_HASHES


def test_adversarial_sweep_is_the_same_through_the_wire(wire_round_trip):
    # The simulator's shortcuts lean on object state the wire does not
    # carry; delivering every message as its wire bytes parse moves no output.
    wire_round_trip()
    assert sweep_outputs() == SWEEP_HASHES


def test_bracha_never_fetches():
    # Every bracha vote carries its payload and is learned from, so the
    # engine's fetch rule never runs for bracha, honest or under attack.
    # bracha has no fetch layer: a check that reached for one would raise.
    assert not issubclass(Bracha, Fetching)
    assert not hasattr(Bracha, "fetch") and not hasattr(Bracha, "request_payload")
    for name in sorted(TABLE_HASHES):
        if name.startswith("bracha-"):
            assert table_output(name) == TABLE_HASHES[name], name
    assert inline_output("bracha-linear-equivocate") == INLINE_HASHES["bracha-linear-equivocate"]
    assert sweep_output(ProtocolKind.BRACHA) == SWEEP_HASHES[ProtocolKind.BRACHA]
