"""Tests of the benchmark itself: where spans fire, that tracing changes no
result, that BENCHMARK.json matches what run.py prints, and that the
stream workload is the run users get from `rblab run`.

    python3 -m pytest perfbench/tests
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import hostspeed  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from rblab import bench, codec, hashing, simnet  # noqa: E402
from rblab.protocols.base import Automaton  # noqa: E402

SEED = 5


def _trials(workload):
    if isinstance(workload, workloads.Stream):
        # The shipped worlds, cut to their first 60 broadcasts (three windows each).
        return [workloads.Trial("cut", [(config, schedule[:60])
                                        for config, schedule in workload.worlds])]
    return workload.cycle(0)


def _plain_and_traced(name):
    tracer = tracing.Tracer()
    workload = workloads.make(name, SEED, tracer, ROOT)
    tracer.install()
    try:
        workload.setup()
    finally:
        tracer.uninstall()
    trials = _trials(workload)
    plain = [run.timed_trial(workload, trial, True) for trial in trials]
    tracer.install()
    try:
        traced = []
        for i, trial in enumerate(trials):
            tracer.trial_id = i
            traced.append(run.timed_trial(workload, trial, True))
    finally:
        tracer.uninstall()
    setup = tracing.SpanTable(tracer, [tracing.SETUP_TRIAL])
    return plain, traced, tracing.SpanTable(tracer), setup


@pytest.fixture(scope="module", params=workloads.NAMES)
def traced_run(request):
    return request.param, _plain_and_traced(request.param)


def test_traced_run_reproduces_untraced_fingerprint(traced_run):
    _, (plain, traced, _, _) = traced_run
    assert [r.fingerprint for r in traced] == [r.fingerprint for r in plain]
    assert run.fingerprint(traced) == run.fingerprint(plain)
    assert all(r.failed == 0 for r in plain + traced)


# Span names that must fire (True) or stay silent (False) per workload.
EXPECTED_SPANS = {
    "bulk-64k": {
        "codec.gf_matmul": True, "codec.encode": True, "codec.decode_erasure": True,
        "codec.decode_correcting": True, "codec.subset_add": True, "hashing.digest": True,
        "core.envelope_size": True, "core.encode_envelope": True, "protocols.step": True,
        "protocols.digest_of": True, "simnet.run": True, "simnet.check": True,
        "adversary.transform": False, "adversary.build_world": False,
    },
    "stream-1k": {
        "codec.gf_matmul": True, "core.envelope_size": True, "core.decode_envelope": True,
        "protocols.step": True, "simnet.run": True, "simnet.check": True,
        "adversary.transform": False, "adversary.build_world": False,
    },
    "fault-sweep": {
        "codec.decode_correcting": True, "codec.subset_add": True, "core.envelope_size": True,
        "protocols.step": True, "simnet.run": True, "adversary.transform": True,
        "adversary.build_world": True,
    },
}
SETUP_SPANS = {"bulk-64k": ("bench.payload_gen",),
               "stream-1k": ("bench.load_config", "bench.payload_gen"),
               "fault-sweep": ("bench.payload_gen",)}


def test_spans_fire_where_expected(traced_run):
    name, (_, _, table, setup) = traced_run
    fired = {span: table.calls(span) > 0 for span in EXPECTED_SPANS[name]}
    assert fired == EXPECTED_SPANS[name]
    for span in SETUP_SPANS[name]:
        assert setup.calls(span) > 0, span


def test_bookkeeping_hashes_sit_under_the_simulator():
    _, _, table, _ = _plain_and_traced("bulk-64k")
    # bracha ACCs carry the payload, which the simulator hashes to record votes.
    assert table.amount_of("hashing.digest", parent="simnet.run") > 0
    assert table.calls("hashing.digest", parent="protocols.digest_of") > 0
    assert table.calls("protocols.step.bracha") > 0


def test_uninstall_restores_every_patched_name():
    originals = [(owner, attr, vars(owner)[attr])
                 for _, sites, _ in tracing.patch_table() for owner, attr in sites]
    tracer = tracing.Tracer()
    tracer.install()
    assert codec.gf_matmul is not originals[0][2]
    tracer.uninstall()
    for owner, attr, original in originals:
        assert vars(owner)[attr] is original, (owner, attr)
    assert hashing.digest.__module__ == "rblab.hashing"
    assert Automaton.step.__qualname__ == "Automaton.step"
    assert simnet.SimWorld.run.__qualname__ == "SimWorld.run"


def test_stream_worlds_match_rblab_run():
    workload = workloads.Stream(SEED, tracing.Tracer(), ROOT)
    workload.setup()
    paths = sorted((ROOT / "configs" / "tables").glob(workload.pattern))
    cut = [(config, schedule[:50]) for config, schedule in workload.worlds]
    outcome = workload.run(workloads.Trial("cut", cut))
    assert not outcome.violations
    assert len(outcome.samples) == len(cut) * 3  # two windows of 20 and the drain
    for path, (config, _), world in zip(paths, cut, outcome.worlds):
        short = bench.load_config(path)
        short.seed, short.broadcasts = config.seed, 50
        row, _ = bench.run_experiment(short)
        assert (row["deliveries"], row["total_bytes"], row["duration"]) == \
            (len(world.stats.delivers), world.stats.total_sent_bytes(), world.time)


def test_host_speed_rescales_by_the_probes_around_a_sample():
    speed = hostspeed.HostSpeed("interp")
    speed.times, speed.factors = [10.0, 20.0], [1.0, 2.0]
    assert speed.rescale(15.0, 3.0) == pytest.approx(2.0)
    assert speed.rescale(25.0, 3.0) == pytest.approx(1.5)
    assert speed.rescale(5.0, 3.0) == pytest.approx(3.0)
    assert speed.probe() > 0 and len(speed.times) == 3
    # The probe is the benchmark's own code: a change to rblab cannot move it.
    source = (BENCH / "hostspeed.py").read_text()
    assert "import rblab" not in source and "from rblab" not in source


def test_benchmark_json_matches_what_run_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    empty = tracing.SpanTable(tracing.Tracer())
    layer = tracing.per_layer(empty, empty, 0, 0.0)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == \
        {name: (unit, better) for name, (_, unit, better) in layer.items()}


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fault-sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
