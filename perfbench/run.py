"""rblab-bench: wall-clock and simulated metrics for rblab, end to end and per layer.

    python3 perfbench/run.py --workload bulk-64k --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; rblab is imported from ``src/``. Each
workload (see workloads.py) runs as a closed loop of trials in one
single-threaded process, for at least ``--seconds`` and at least the
workload's minimum number of cycles. Every trial's properties are checked
(broadcast properties and ACC consistency) and folded into a report
fingerprint.

``--trace 0`` prints the end-to-end metrics. Wall-clock ones:
``setup_s`` (import rblab, load configs, generate inputs, warm up; the
median of this process and six fresh child processes that only set up,
so work moved into import or set-up shows), ``bcast_per_s`` and
``events_per_s`` (median over cycles of per-cycle rates), ``trial_ms_p50``
and ``trial_ms_p90`` (per-trial wall time; on stream-1k per slice of 20
broadcasts of one world), ``peak_rss_mb``. The times are rescaled to the
reference host speed by the probes of hostspeed.py, taken between trials,
so that the host's slow and fast phases cancel (see README.md, "Noise and
host speed"). Simulated
ones, over a fixed prefix of trials (the minimum cycles) so they repeat
exactly for a seed: bytes and messages
sent per broadcast, delivery latency p50/p99 in simulated seconds, and
``depth_max``, the deepest honest delivery of each broadcast (its causal
round count), averaged over broadcasts. Failed broadcasts go to
``failed``/``attempted`` (``failed_share`` is printed above the JSON).
The warm-up trials are re-run at the end and must reproduce their
fingerprints.

``--trace 1`` runs every trial twice, untraced and with every layer
boundary wrapped (tracer.py), in alternating order; the two must give the
same fingerprint. It prints the per-layer metrics, the tracing overhead
(traced against untraced wall time of the same trials) and writes the
spans to ``perfbench/out/spans-<workload>.npz``.

The last line of stdout is one JSON object: correct, attempted, failed
(broadcasts) and metrics.
"""
from __future__ import annotations

import time

_STARTED = time.perf_counter()  # set-up time includes importing rblab

import argparse
import hashlib
import json
import resource
import statistics
import subprocess
import sys
import zlib
from dataclasses import dataclass, field
from pathlib import Path

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 6

E2E_UNITS = {
    "setup_s": "s",
    "bcast_per_s": "1/s",
    "events_per_s": "1/s",
    "trial_ms_p50": "ms",
    "trial_ms_p90": "ms",
    "peak_rss_mb": "MB",
    "wire_bytes_per_bcast": "B",
    "msgs_per_bcast": "count",
    "sim_latency_p50": "sim_s",
    "sim_latency_p99": "sim_s",
    "depth_max": "rounds",
}


@dataclass
class Record:
    """One timed trial, reduced to what the report needs."""

    wall_s: float
    samples: list[tuple[float, float]]  # (midpoint, seconds) of each timing sample
    broadcasts: int
    events: int
    failed: int
    sent_bytes: int
    sent_msgs: int
    fingerprint: str
    cycle: int
    latencies: list[float] = field(default_factory=list)
    depths: list[int] = field(default_factory=list)  # deepest honest delivery per broadcast
    violations: list[str] = field(default_factory=list)


def summarize(trial, outcome, t0: float, wall_s: float, in_prefix: bool) -> Record:
    canon, latencies, depths = [], [], []
    events = sent_bytes = sent_msgs = 0
    for world, starts in zip(outcome.worlds, outcome.starts):
        stats = world.stats
        delivers = stats.delivers
        canon.append((
            stats.events_processed,
            sorted((int(k), n) for c in stats.sent_count for k, n in c.items()),
            sorted((int(k), n) for c in stats.sent_bytes for k, n in c.items()),
            sorted((i, s, h, repr(rec.time), rec.depth, len(rec.payload),
                    zlib.crc32(rec.payload)) for (i, s, h), rec in delivers.items()),
        ))
        events += stats.events_processed
        sent_bytes += stats.total_sent_bytes()
        sent_msgs += stats.total_sent_count()
        if in_prefix:
            latencies += [rec.time - starts[(s, h)] for (i, s, h), rec in delivers.items()
                          if (s, h) in starts]
            deepest: dict[tuple[int, int], int] = {}
            honest = world.honest
            for (i, s, h), rec in delivers.items():
                if i in honest:
                    deepest[(s, h)] = max(deepest.get((s, h), 0), rec.depth)
            depths += deepest.values()
    canon.append(sorted(outcome.violations))
    broadcasts = sum(map(len, outcome.starts))
    return Record(
        wall_s=wall_s,
        samples=outcome.samples or [(t0 + wall_s / 2, wall_s)],
        broadcasts=broadcasts,
        events=events,
        failed=broadcasts if outcome.violations else 0,
        sent_bytes=sent_bytes,
        sent_msgs=sent_msgs,
        fingerprint=hashlib.sha256(repr(canon).encode()).hexdigest(),
        cycle=trial.cycle,
        latencies=latencies,
        depths=depths,
        violations=outcome.violations[:3],
    )


def timed_trial(workload, trial, in_prefix: bool) -> Record:
    t0 = time.perf_counter()
    outcome = workload.run(trial)
    wall = time.perf_counter() - t0
    return summarize(trial, outcome, t0, wall, in_prefix)


def prefix_len(workload) -> int:
    return workload.min_cycles * len(workload.cycle(0))


def closed_loop(workload, seconds: float, run_one, between=lambda: None):
    """Whole cycles until ``seconds`` have passed and the minimum is met;
    ``run_one(trial, index, in_prefix)`` runs and summarizes one trial, and
    ``between()`` runs before each trial."""
    keep = prefix_len(workload)
    results = []
    started = time.perf_counter()
    c = 0
    while c < workload.min_cycles or (
            c < workload.max_cycles and time.perf_counter() - started < seconds):
        for trial in workload.cycle(c):
            between()
            results.append(run_one(trial, len(results), len(results) < keep))
        c += 1
    return results


def traced_pair(workload, tracer):
    """Run each trial untraced and traced, alternating which goes first so
    neither side always finds the caches warmed by the other."""
    def run_one(trial, index, in_prefix):
        pair = {}
        for traced in ((False, True) if index % 2 == 0 else (True, False)):
            if traced:
                tracer.trial_id = index
                tracer.install()
            try:
                pair[traced] = timed_trial(workload, trial, in_prefix)
            finally:
                tracer.uninstall()
        return pair[False], pair[True]
    return run_one


def fingerprint(records) -> str:
    return hashlib.sha256("".join(r.fingerprint for r in records).encode()).hexdigest()


def percentile(values, q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def rescaled_wall(r: Record, speed) -> float:
    """The trial's wall time at the reference host speed, rescaled by the
    probes around each of its timing samples."""
    raw = sum(s for _, s in r.samples)
    return r.wall_s * sum(speed.rescale(t, s) for t, s in r.samples) / raw


def per_cycle_median(records, count, speed) -> float:
    """Median over cycles of count/wall: every cycle holds the whole mix,
    and the median drops cycles hit by a burst of load from elsewhere."""
    work: dict[int, list[float]] = {}
    for r in records:
        totals = work.setdefault(r.cycle, [0.0, 0.0])
        totals[0] += count(r)
        totals[1] += rescaled_wall(r, speed)
    return statistics.median(n / wall for n, wall in work.values())


def end_to_end(records, keep: int, setup_s: float, speed) -> dict[str, float]:
    samples = [speed.rescale(t, s) for r in records for t, s in r.samples]
    prefix = records[:keep]
    bcasts = sum(r.broadcasts for r in prefix)
    latencies = [x for r in prefix for x in r.latencies]
    depths = [d for r in prefix for d in r.depths]
    return {
        "setup_s": setup_s,
        "bcast_per_s": per_cycle_median(records, lambda r: r.broadcasts, speed),
        "events_per_s": per_cycle_median(records, lambda r: r.events, speed),
        "trial_ms_p50": percentile(samples, 50) * 1e3,
        "trial_ms_p90": percentile(samples, 90) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "wire_bytes_per_bcast": sum(r.sent_bytes for r in prefix) / bcasts,
        "msgs_per_bcast": sum(r.sent_msgs for r in prefix) / bcasts,
        "sim_latency_p50": percentile(latencies, 50),
        "sim_latency_p99": percentile(latencies, 99),
        "depth_max": sum(depths) / len(depths),
    }


def set_up(workload) -> tuple[float, list[Record]]:
    """Generate the inputs and run the warm-up trials; returns the set-up
    time since process start and the warm-up records."""
    workload.setup()
    warm = [timed_trial(workload, trial, False) for trial in workload.warmup_trials()]
    return time.perf_counter() - _STARTED, warm



def rerun_matches(workload, warm) -> bool:
    """Re-run the warm-up trials after the measurement: a program whose
    results depend on what ran before in the process fails this."""
    again = [timed_trial(workload, trial, False) for trial in workload.warmup_trials()]
    return [r.fingerprint for r in again] == [r.fingerprint for r in warm]


def probe_setup(args) -> list[float]:
    """Set-up time of fresh processes that only set up."""
    out = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-probe"],
            cwd=ROOT, capture_output=True, text=True, timeout=150, check=True)
        out.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])
    return out


def report_lines(records, checked, keep) -> list[str]:
    failed = sum(r.failed for r in checked)
    attempted = sum(r.broadcasts for r in checked)
    samples = sum(len(r.samples) for r in records)
    lines = [f"trials {len(records)} (simulated metrics over the first {keep}), "
             f"timing samples {samples}",
             f"failed_share {failed / attempted:.6g} share  "
             f"({failed} of {attempted} broadcasts checked)"]
    lines += [f"violation: {v}" for r in checked for v in r.violations][:5]
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="only set up, print the set-up time and exit")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    try:
        import tracer as tracing
        import workloads
    except ImportError as exc:
        print(f"error: cannot import rblab from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2

    tracer = tracing.Tracer()
    workload = workloads.make(args.workload, args.seed, tracer, ROOT)

    if args.setup_probe:
        print(json.dumps({"setup_s": set_up(workload)[0]}))
        return 0

    if args.trace:
        tracer.install()
        _, warm = set_up(workload)
        tracer.uninstall()
        keep = prefix_len(workload)
        pairs = closed_loop(workload, args.seconds, traced_pair(workload, tracer))
        plain = [p for p, _ in pairs]
        traced = [t for _, t in pairs]
        deterministic = (fingerprint(traced) == fingerprint(plain)
                         and rerun_matches(workload, warm))
        overhead = sum(r.wall_s for r in traced) / sum(r.wall_s for r in plain) - 1.0
        layer = tracing.per_layer(
            tracing.SpanTable(tracer), tracing.SpanTable(tracer, [tracing.SETUP_TRIAL]),
            sum(r.events for r in traced), overhead)
        tracer.write(HERE / "out" / f"spans-{args.workload}.npz")
        records, checked = plain, plain + traced + warm
        metrics = {name: {"value": v, "unit": u} for name, (v, u, _) in layer.items()}
    else:
        own_setup, warm = set_up(workload)
        keep = prefix_len(workload)
        speed = hostspeed.HostSpeed(workload.speed_kernel)
        workload.between = speed.tick  # stream-1k also probes between its slices
        records = closed_loop(
            workload, args.seconds, lambda trial, _, in_prefix:
            timed_trial(workload, trial, in_prefix), speed.tick)
        speed.probe()
        deterministic = rerun_matches(workload, warm)
        checked = records + warm
        # Rescaled by the run's median probe: a probe inside a short set-up
        # process varies with the process more than with the host.
        setup_s = (statistics.median([own_setup] + probe_setup(args))
                   / statistics.median(speed.factors))
        values = end_to_end(records, keep, setup_s, speed)
        print(f"host speed: {len(speed.factors)} probes of the {speed.kernel!r} kernel, "
              f"slowdown median {statistics.median(speed.factors):.3f} "
              f"(range {min(speed.factors):.3f}-{max(speed.factors):.3f})")
        metrics = {name: {"value": v, "unit": E2E_UNITS[name]} for name, v in values.items()}

    failed = sum(r.failed for r in checked)
    attempted = sum(r.broadcasts for r in checked)
    for line in report_lines(records, checked, keep):
        print(line)
    print(f"fingerprint {fingerprint(records[:keep])} deterministic={deterministic}")
    width = max(map(len, metrics))
    for name, m in metrics.items():
        print(f"{name.ljust(width)}  {m['value']:.6g} {m['unit']}")
    correct = failed == 0 and deterministic
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
