"""The three rblab-bench workloads.

Each workload is a closed loop of trials: build a world, run it to
quiescence, check its properties, then start the next. Trials come in
cycles that repeat the workload's mix (every protocol, every shipped
config, every fault cell), and all inputs derive from the benchmark seed.
Inputs are generated in ``setup``, before timing; the ``warmup_trials``,
one per protocol, run untimed so numpy's first calls and the codec's cached
matrices are paid for in set-up time, not in the measurement.

Worlds are built and driven only through public API: ``make_automaton``,
``SimWorld``, ``SimWorld.delay_policy``, ``run(until=...)``,
``adversary.build_world`` and the strategies, ``bench.load_config``.
Names the tracer wraps are looked up through their module at call time.
"""
from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from pathlib import Path

from rblab import adversary, bench, simnet
from rblab.protocols import RESILIENCE, ProtocolConfig, ProtocolKind, make_automaton


@dataclass(frozen=True)
class Trial:
    label: str
    spec: object
    cycle: int = -1  # position in the closed loop; -1 outside it (warm-up, tests)


@dataclass
class Outcome:
    """What one trial leaves behind for checking and reporting."""

    worlds: list[simnet.SimWorld]
    starts: list[dict[tuple[int, int], float]]  # per world: (source, h) -> send time
    violations: list[str]
    samples: list[tuple[float, float]] = field(default_factory=list)  # sub-trial (midpoint, seconds)


def _violations(world) -> list[str]:
    return simnet.check_broadcast_properties(world) + simnet.check_acc_consistency(world)


def _checked(world, starts) -> Outcome:
    return Outcome([world], [starts], _violations(world))


def _run_to_quiescence(world) -> list[str]:
    try:
        world.run()
    except simnet.StepCapExceeded as exc:
        return [f"step cap: {exc}"]
    return []


# -- bulk-64k -----------------------------------------------------------------

class Bulk:
    """Honest 64 KiB broadcasts at n=19 on one jittery switch, cycling all
    seven protocols at the largest f each tolerates (capped at 6). Wide
    shards through the codec and large inputs through hashing."""

    name = "bulk-64k"
    # The hostspeed.py kernel closest to its hot path: gf_matmul is 55-60% of
    # the coded trials, which take most of its time.
    speed_kernel = "gf"
    n = 19
    f_cap = 6
    payload_len = 64 * 1024
    pool_size = 28
    net = simnet.NetParams(base_delay=1.0, jitter=0.5)
    min_cycles = 15   # >= 100 trials, so p90 has >= 10 samples past it
    max_cycles = 400

    def __init__(self, seed: int, tracer):
        self.seed = seed
        self.tracer = tracer

    def f_of(self, kind: ProtocolKind) -> int:
        return min(self.f_cap, (self.n - 1) // RESILIENCE[kind])

    def setup(self) -> None:
        rng = random.Random(f"{self.seed}:{self.name}:payloads")
        with self.tracer.span("bench.payload_gen"):
            self.pool = [rng.randbytes(self.payload_len) for _ in range(self.pool_size)]

    def _cycle(self, tag, c: int) -> list[Trial]:
        rng = random.Random(f"{self.seed}:{self.name}:{tag}")
        return [Trial(kind.value, (kind, rng.randrange(self.n), rng.getrandbits(32),
                                   rng.randrange(self.pool_size)), c)
                for kind in ProtocolKind]

    def cycle(self, c: int) -> list[Trial]:
        return self._cycle(c, c)

    def warmup_trials(self) -> list[Trial]:
        return self._cycle("warmup", -1)

    def run(self, trial: Trial) -> Outcome:
        kind, source, world_seed, payload = trial.spec
        f = self.f_of(kind)
        automata = [make_automaton(ProtocolConfig(kind, self.n, f, node=i))
                    for i in range(self.n)]
        world = simnet.SimWorld(automata, net=self.net, seed=world_seed)
        world.broadcast(source, self.pool[payload], 1)
        stuck = _run_to_quiescence(world)
        outcome = _checked(world, {(source, 1): 0.0})
        outcome.violations += stuck
        return outcome


# -- stream-1k ----------------------------------------------------------------

class Stream:
    """The five shipped fat-tree 42 Mbit/s configs, each one long-lived
    world with its 2000 broadcasts of 1 KiB: the grid users already run.
    Only here does per-instance state accumulate.

    One trial holds all five worlds and advances them in turn, ``window``
    broadcasts at a time, so each world's cost is spread over the whole run
    rather than over one stretch of it; the worlds are independent, so the
    results equal running them one after another. The per-trial timing
    samples are the wall times of these slices. ``between`` is called after
    each round of slices, outside the timed parts."""

    name = "stream-1k"
    speed_kernel = "interp"
    pattern = "*-fat-tree-42mbit.ini"
    configs_expected = 5
    window = 20
    warmup_broadcasts = 20
    # One pass, about 20 s on a 2-core machine.
    min_cycles = 1
    max_cycles = 1

    def __init__(self, seed: int, tracer, root: Path):
        self.seed = seed
        self.tracer = tracer
        self.root = root
        self.between = lambda: None

    def setup(self) -> None:
        paths = sorted((self.root / "configs" / "tables").glob(self.pattern))
        if len(paths) != self.configs_expected:
            raise FileNotFoundError(
                f"want {self.configs_expected} configs matching {self.pattern}, found {len(paths)}")
        self.worlds = []
        for path in paths:
            config = bench.load_config(path)
            config.seed = random.Random(f"{self.seed}:{self.name}:{path.stem}").getrandbits(32)
            with self.tracer.span("bench.payload_gen"):
                # The same recipe as `rblab run <config> --seed <config.seed>`.
                rng = random.Random(config.seed)
                schedule = [(i * config.gap, config.source,
                             rng.randbytes(config.payload_size), i + 1)
                            for i in range(config.broadcasts)]
            self.worlds.append((config, schedule))

    def cycle(self, c: int) -> list[Trial]:
        return [Trial("five-configs", self.worlds, c)]

    def warmup_trials(self) -> list[Trial]:
        return [Trial("warmup", [(config, schedule[: self.warmup_broadcasts])
                                 for config, schedule in self.worlds])]

    def run(self, trial: Trial) -> Outcome:
        worlds, bounds = [], []
        for config, schedule in trial.spec:
            automata = [make_automaton(ProtocolConfig(config.kind, config.n, config.f,
                                                      node=i, k=config.k))
                        for i in range(config.n)]
            world = simnet.SimWorld(automata, topology=config.topology_obj(),
                                    net=config.net_params(), seed=config.seed)
            for at, source, payload, h in schedule:
                world.broadcast(source, payload, h, at=at)
            worlds.append(world)
            bounds.append([schedule[i][0]
                           for i in range(self.window, len(schedule), self.window)] + [None])
        samples = []
        stuck: list[str] = []
        for k in range(max(map(len, bounds))):
            for world, until in zip(worlds, bounds):
                if k >= len(until) or world in stuck:
                    continue
                t0 = time.perf_counter()
                try:
                    world.run(until=until[k])
                except simnet.StepCapExceeded:
                    stuck.append(world)
                    continue
                finally:
                    t1 = time.perf_counter()
                    samples.append(((t0 + t1) / 2, t1 - t0))
            self.between()
        violations = [v for world in worlds for v in _violations(world)]
        violations += [f"step cap in world {worlds.index(w)}" for w in stuck]
        starts = [{(s, h): at for at, s, _, h in schedule} for _, schedule in trial.spec]
        return Outcome(worlds, starts, violations, samples)


# -- fault-sweep --------------------------------------------------------------

# The cells of the acceptance fault matrix (criterion 1).
FAULT_MATRIX = [
    (ProtocolKind.H_BRB_3F1, ("silent", "crash", "equivocate")),
    (ProtocolKind.H_BRB_5F1, ("silent", "crash", "equivocate")),
    (ProtocolKind.EC_BRB_3F1, ("silent", "crash", "equivocate", "corrupt-relay")),
    (ProtocolKind.EC_BRB_4F1, ("silent", "crash", "equivocate", "corrupt-relay")),
]
FAULT_CELLS = [(kind, f, strategy) for kind, strategies in FAULT_MATRIX
               for f in (1, 2, 3) for strategy in strategies]


class SlowLink:
    """Fixed delay on one directed link; draws nothing from the world RNG,
    so the schedule does not depend on how the simulator spends randomness."""

    delay = 200.0  # 100x the two-hop base delay

    def __init__(self, frm: int, to: int):
        self.link = (frm, to)

    def __call__(self, frm, to, msg):
        return self.delay if (frm, to) == self.link else None


@dataclass(frozen=True)
class Schedule:
    kind: ProtocolKind
    f: int
    strategy: str
    n: int
    slow_link: tuple[int, int] | None
    world_seed: int
    source: int
    payload: bytes
    faulty: tuple  # per strategy: nodes, (node, after_sends), (alt, partition), (node, seed)


def draw_schedule(kind: ProtocolKind, f: int, strategy: str, tag: str) -> Schedule:
    """One randomized schedule, drawn in the order acceptance criterion 1 draws."""
    rng = random.Random(f"{tag}:{kind.value}:{f}:{strategy}")
    n = RESILIENCE[kind] * f + 1
    slow = None
    if rng.random() < 0.5:
        a = rng.randrange(n)
        b = rng.randrange(n)
        while b == a:
            b = rng.randrange(n)
        slow = (a, b)
    world_seed = rng.getrandbits(32)
    source = rng.randrange(n)
    payload = rng.randbytes(rng.randrange(1, 33))
    others = [i for i in range(n) if i != source]
    if strategy == "silent":
        faulty = tuple(rng.sample(others, f))
    elif strategy == "crash":
        faulty = tuple((node, rng.randrange(0, 2 * n + 2)) for node in rng.sample(range(n), f))
    elif strategy == "equivocate":
        alt = rng.randbytes(rng.randrange(1, 33))
        faulty = (alt, tuple(to for to in range(n) if rng.random() < 0.5))
    elif strategy == "corrupt-relay":
        faulty = tuple((node, rng.getrandbits(32)) for node in rng.sample(others, f))
    else:
        raise ValueError(strategy)
    return Schedule(kind, f, strategy, n, slow, world_seed, source, payload, faulty)


class FaultSweep:
    """Randomized fault schedules over the four Byzantine protocols, f in
    {1,2,3}, four strategies, 1-32 B payloads, base delay 1 with jitter 1,
    and one slow link in half of them: fresh small worlds, narrow shards,
    correcting decodes under corruption, and the adversary layer."""

    name = "fault-sweep"
    speed_kernel = "interp"
    net = simnet.NetParams(base_delay=1.0, jitter=1.0)
    min_cycles = 20   # the simulated metrics' spread across seeds shrinks with the prefix
    max_cycles = 200

    def __init__(self, seed: int, tracer):
        self.seed = seed
        self.tracer = tracer

    def setup(self) -> None:
        with self.tracer.span("bench.payload_gen"):
            self.cycles = [[Trial(f"{kind.value}/f{f}/{strategy}",
                                  draw_schedule(kind, f, strategy, f"{self.seed}:{c}"), c)
                            for kind, f, strategy in FAULT_CELLS]
                           for c in range(self.max_cycles)]

    def cycle(self, c: int) -> list[Trial]:
        return self.cycles[c]

    def warmup_trials(self) -> list[Trial]:
        return [Trial("warmup", draw_schedule(kind, 2, strategies[-1], f"{self.seed}:warmup"))
                for kind, strategies in FAULT_MATRIX]

    def run(self, trial: Trial) -> Outcome:
        sc: Schedule = trial.spec
        world = adversary.build_world(sc.kind, sc.n, sc.f, seed=sc.world_seed, net=self.net)
        if sc.slow_link is not None:
            world.delay_policy = SlowLink(*sc.slow_link)
        if sc.strategy == "silent":
            for node in sc.faulty:
                world.attach_adversary(node, adversary.Silent())
        elif sc.strategy == "crash":
            for node, after in sc.faulty:
                world.attach_adversary(node, adversary.Crash(after_sends=after))
        elif sc.strategy == "equivocate":
            alt, receivers = sc.faulty
            world.attach_adversary(sc.source, adversary.EquivocatingSource(
                {to: alt for to in receivers}))
        else:
            for node, seed in sc.faulty:
                world.attach_adversary(node, adversary.CorruptRelay(seed=seed))
        world.broadcast(sc.source, sc.payload, 1)
        stuck = _run_to_quiescence(world)
        outcome = _checked(world, {(sc.source, 1): 0.0})
        outcome.violations += stuck
        return outcome


def make(name: str, seed: int, tracer, root: Path):
    if name == Bulk.name:
        return Bulk(seed, tracer)
    if name == Stream.name:
        return Stream(seed, tracer, root)
    if name == FaultSweep.name:
        return FaultSweep(seed, tracer)
    raise ValueError(f"unknown workload {name!r}; choices: {', '.join(NAMES)}")


NAMES = (Bulk.name, Stream.name, FaultSweep.name)
