"""Cross-check the tracer's span shares against cProfile on the same trials.

    python3 perfbench/profile_check.py --seed 1

Runs bulk-64k (``--cycles`` cycles) and stream-1k (its worlds cut to their
first ``--stream-broadcasts`` broadcasts) once under cProfile and once traced,
and prints, per group of trials, the seconds and the share of trial wall
time each reports for the same functions. cProfile charges every Python
call and nothing inside numpy, which inflates the wall time it divides by;
matching seconds mean the spans sit where the work is. Prints one JSON
object.
"""
from __future__ import annotations

import argparse
import cProfile
import json
import pstats
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

# span name -> (defining file suffix, function name) as cProfile keys it
FUNCTIONS = {
    "codec.gf_matmul": ("rblab/codec.py", "gf_matmul"),
    "hashing.digest": ("rblab/hashing.py", "digest"),
    "core.envelope_size": ("rblab/core.py", "envelope_size"),
    "protocols.step": ("rblab/protocols/base.py", "step"),
    "codec.decode_correcting": ("rblab/codec.py", "decode_correcting"),
}
GROUPS = {
    "bulk-64k": {"coded": {"ec-crb", "ec-brb-3f1", "ec-brb-4f1"}, "bracha": {"bracha"},
                 "all": None},
    "stream-1k": {"all": None},
}


def _cumtime(stats: pstats.Stats, suffix: str, func: str) -> float:
    """Cumulative time of the outermost calls (cProfile counts recursion once)."""
    return sum(ct for (path, _, name), (_, _, _, ct, _) in stats.stats.items()
               if name == func and path.endswith(suffix))


def _trials(workload, cycles: int, stream_broadcasts: int):
    if isinstance(workload, workloads.Stream):
        return [workloads.Trial("cut", [(config, schedule[:stream_broadcasts])
                                        for config, schedule in workload.worlds])]
    return [t for c in range(cycles) for t in workload.cycle(c)]


def check(name: str, seed: int, cycles: int, stream_broadcasts: int) -> dict:
    workload = workloads.make(name, seed, tracing.Tracer(), ROOT)
    workload.setup()
    for trial in workload.warmup_trials():
        workload.run(trial)
    trials = _trials(workload, cycles, stream_broadcasts)
    out = {}
    for group, labels in GROUPS[name].items():
        chosen = [(i, t) for i, t in enumerate(trials) if labels is None or t.label in labels]
        profile = cProfile.Profile()
        profiled_wall = 0.0
        for _, trial in chosen:
            t0 = time.perf_counter()
            profile.enable()
            workload.run(trial)
            profile.disable()
            profiled_wall += time.perf_counter() - t0
        stats = pstats.Stats(profile)
        traced_wall = 0.0
        tracer = tracing.Tracer()
        tracer.install()
        try:
            for i, trial in chosen:
                tracer.trial_id = i
                t0 = time.perf_counter()
                workload.run(trial)
                traced_wall += time.perf_counter() - t0
        finally:
            tracer.uninstall()
        spans = tracing.SpanTable(tracer, [i for i, _ in chosen])
        out[group] = {
            "trials": len(chosen),
            "profiled_wall_s": profiled_wall,
            "traced_wall_s": traced_wall,
            "seconds": {span: {"cprofile": _cumtime(stats, *where), "spans": spans.busy(span)}
                        for span, where in FUNCTIONS.items()},
            "share": {span: {"cprofile": _cumtime(stats, *where) / profiled_wall,
                             "spans": spans.busy(span) / traced_wall}
                      for span, where in FUNCTIONS.items()},
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--cycles", type=int, default=3)
    parser.add_argument("--stream-broadcasts", type=int, default=400)
    args = parser.parse_args(argv)
    result = {name: check(name, args.seed, args.cycles, args.stream_broadcasts)
              for name in GROUPS}
    print(json.dumps(result, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
