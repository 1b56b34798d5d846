"""Golden outputs: fixed-seed results pinned by SHA-256.

Each shipped example config is run through the CLI twice, once for its
``--csv`` report and once for its event trace; every registered scenario
is run through ``rblab scenario`` with its worlds traced; and four
``configs/tables`` configs, cut to 20 broadcasts, pin the ec-brb-3f1 and
crb-flood automata and the linear and tree link models. The hashes
cover every simulated byte count, ordering, time and recorded ACC digest,
so a change that is meant to be output-neutral (a speed-up, a refactor)
must leave all of them unchanged. A change that alters simulated results
on purpose re-records them and says why.
"""
import contextlib
import hashlib
import io
from pathlib import Path

import pytest

from rblab import adversary, bench

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
    "bracha-linear-42mbit.ini":
        "b198ac72f33174a51c5d80ffb781a3f468f654d665596a86d1f60800601a421c",
    "crb-flood-fat-tree-unlimited.ini":
        "553aa4a72e59a5ad56b33f4be0f2e19d4b60d7a905f579ee31abd380194d9211",
    "ec-brb-3f1-fat-tree-42mbit.ini":
        "2c3f7afaf3911f112f10e205518e21fbcf5849a7b32a5a50e59aa31b4840dd33",
    "ec-brb-4f1-tree-42mbit.ini":
        "263f027958ffc6019b98a69e22e487b96f6849531498c00f810d4807d82dc9dc",
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


@pytest.mark.parametrize("name", sorted(TABLE_HASHES))
def test_table_config_outputs_match_golden(name):
    assert table_output(name) == TABLE_HASHES[name]
