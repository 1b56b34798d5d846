"""Benchmark harness: INI experiment configs, a CLI, and CSV reports.

An experiment config is an INI file with up to four flat sections:
[protocol], [network], [workload] and [adversary]. ``_SCHEMA``
declares each section's keys once, each with the ``ExperimentConfig`` field
it sets and the parser of its value; a key left out takes the field's
default (docs/configuration.md documents them). Unknown sections or keys
are rejected. ``load_config`` raises ParseError for malformed files and
ValidationError (naming the violated bound) for semantically impossible
ones. ``run_experiment`` executes one config and returns a flat report row;
``run_matrix`` runs many and sorts the rows. The ``rblab`` entry point
exposes run / matrix / scenario / trace.
"""
from __future__ import annotations

import argparse
import configparser
import csv
import io
import json
import math
import random
import sys
from dataclasses import dataclass
from pathlib import Path

from .adversary import (
    Crash,
    CorruptRelay,
    EquivocatingSource,
    ScenarioOptionError,
    Silent,
    UnknownScenario,
    build_world,
    run_scenario,
)
from .core import MsgKind
from .protocols import ProtocolConfig, ProtocolKind
from .simnet import (
    FaultBudgetExceeded,
    NetParams,
    SimWorld,
    StepCapExceeded,
    Topology,
    TopologyKind,
    TraceRow,
)


class ParseError(ValueError):
    """The config file is not a well-formed experiment description."""


class ValidationError(ValueError):
    """The config describes an impossible experiment; names the bound."""


# One ``msgs_<kind>`` column per message kind, in ``MsgKind`` order.
_MSG_COLUMNS = {f"msgs_{kind.name.lower()}": kind for kind in MsgKind}
REPORT_COLUMNS = (
    "protocol", "n", "f", "k", "L", "seed", "topology", "bandwidth",
    "broadcasts", "deliveries", "duration", "throughput",
    "mean_latency", "max_latency", "source_bytes", "total_bytes",
    *_MSG_COLUMNS, "depth", "error",
)


def _equivocator(config: ExperimentConfig, node: int) -> EquivocatingSource:
    alt = random.Random(config.seed ^ 0xE0E0).randbytes(config.payload_size)
    half = (config.n + 1) // 2
    return EquivocatingSource({to: alt for to in range(half, config.n)})


# [adversary] strategy -> the constructor of a faulty node's strategy, given
# the config and the node.
_STRATEGY_OF = {
    "silent": lambda config, node: Silent(),
    "crash": lambda config, node: Crash(config.crash_after),
    "equivocate": _equivocator,
    "corrupt-relay": lambda config, node: CorruptRelay(seed=config.seed + node),
}
STRATEGIES = ("none", *_STRATEGY_OF)


@dataclass
class ExperimentConfig:
    """One fully-resolved experiment description."""

    kind: ProtocolKind
    n: int
    f: int
    k: int | None = None
    topology: TopologyKind = TopologyKind.SINGLE_SWITCH
    fanout: int = 2
    base_delay: float = 0.1
    jitter: float = 0.0
    bandwidth_mbit: float | None = None
    source_bandwidth_kbytes: float | None = None
    source: int = 0
    broadcasts: int = 1
    payload_size: int = 1024
    gap: float = 0.0
    seed: int = 0
    strategy: str = "none"
    adversary_nodes: tuple[int, ...] | None = None
    crash_after: int = 0

    def net_params(self) -> NetParams:
        bandwidth = None if self.bandwidth_mbit is None \
            else self.bandwidth_mbit * 1e6 / 8
        source_bw = None if self.source_bandwidth_kbytes is None \
            else self.source_bandwidth_kbytes * 1000
        return NetParams(base_delay=self.base_delay, jitter=self.jitter,
                         bandwidth=bandwidth, source_bandwidth=source_bw)

    def topology_obj(self) -> Topology:
        return Topology(self.topology, fanout=self.fanout)

    def validate(self) -> None:
        try:
            ProtocolConfig(self.kind, self.n, self.f, node=0, k=self.k).validate()
            self.topology_obj().validate(self.n)
        except ValueError as exc:
            raise ValidationError(str(exc)) from None
        if not 0 <= self.source < self.n:
            raise ValidationError(f"source {self.source} outside [0, {self.n})")
        if self.broadcasts < 1:
            raise ValidationError("broadcasts must be >= 1")
        if self.payload_size < 1:
            raise ValidationError("payload_size must be >= 1")
        # Written so that NaN fails each check.
        if not all(0 <= value < math.inf for value in (self.gap, self.base_delay, self.jitter)):
            raise ValidationError("gap, base_delay, and jitter must be >= 0 and finite")
        for name in ("bandwidth_mbit", "source_bandwidth_kbytes"):
            value = getattr(self, name)
            if value is not None and not 0 < value < math.inf:
                raise ValidationError(f"{name} must be positive and finite")
        if self.strategy not in STRATEGIES:
            raise ValidationError(
                f"unknown strategy {self.strategy!r}; choices: {', '.join(STRATEGIES)}")
        if self.adversary_nodes is not None:
            if self.strategy == "none":
                raise ValidationError(
                    "[adversary] nodes needs a strategy; set one or leave the key out")
            if not self.adversary_nodes:
                raise ValidationError(
                    "[adversary] nodes is empty; name at least one node or leave the key out")
            bad = [i for i in self.adversary_nodes if not 0 <= i < self.n]
            if bad:
                raise ValidationError(f"adversary nodes {bad} outside [0, {self.n})")
            twice = sorted({i for i in self.adversary_nodes if self.adversary_nodes.count(i) > 1})
            if twice:
                raise ValidationError(f"[adversary] nodes names {twice} more than once")
        if self.strategy != "none" and not self.faulty_nodes():
            raise ValidationError(
                f"[adversary] strategy {self.strategy!r} has no node to corrupt: with nodes "
                f"left out it picks one other than the source, and n={self.n} has none")
        if self.strategy == "crash" and self.crash_after < 0:
            raise ValidationError("crash_after must be >= 0")
        # An equivocation acts only through the source's first wave.
        if self.strategy == "equivocate" and self.adversary_nodes is not None \
                and set(self.adversary_nodes) != {self.source}:
            raise ValidationError(
                f"[adversary] strategy 'equivocate' corrupts only the source, so nodes "
                f"must name the source {self.source} alone, got {list(self.adversary_nodes)}")

    def faulty_nodes(self) -> list[int]:
        """``nodes`` in the order given; left out, one node: the source for
        ``equivocate``, else the highest-numbered node that is not the source."""
        if self.strategy == "none":
            return []
        if self.adversary_nodes is not None:
            return list(self.adversary_nodes)
        if self.strategy == "equivocate":
            return [self.source]
        return [node for node in range(self.n - 1, -1, -1) if node != self.source][:1]


def _node_list(raw: str) -> tuple[int, ...]:
    return tuple(int(part) for part in raw.split(",") if part.strip())


def _choice(enum, what: str):
    """A parser of ``enum``'s values that names the choices when it fails."""
    def parse(raw: str):
        try:
            return enum(raw)
        except ValueError:
            choices = ", ".join(member.value for member in enum)
            raise ValidationError(
                f"unknown {what} {raw!r}; choices: {choices}") from None
    return parse


# [section] -> key -> (ExperimentConfig field, parser of the raw value).
# A key left out takes the field's default.
_SCHEMA = {
    "protocol": {"kind": ("kind", _choice(ProtocolKind, "protocol kind")),
                 "n": ("n", int), "f": ("f", int), "k": ("k", int)},
    "network": {"topology": ("topology", _choice(TopologyKind, "topology")),
                "fanout": ("fanout", int),
                "base_delay": ("base_delay", float), "jitter": ("jitter", float),
                "bandwidth_mbit": ("bandwidth_mbit", float),
                "source_bandwidth_kbytes": ("source_bandwidth_kbytes", float)},
    "workload": {"source": ("source", int), "broadcasts": ("broadcasts", int),
                 "payload_size": ("payload_size", int), "gap": ("gap", float),
                 "seed": ("seed", int)},
    "adversary": {"strategy": ("strategy", str),
                  "nodes": ("adversary_nodes", _node_list),
                  "crash_after": ("crash_after", int)},
}
# Parse errors name a value's type as docs/configuration.md does.
_TYPE_NAMES = {_node_list: "int list"}


def load_config(path) -> ExperimentConfig:
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ParseError(f"{path}: {exc}") from None
    except configparser.Error as exc:
        raise ParseError(str(exc)) from None
    if parser.defaults():
        raise ParseError(f"[{parser.default_section}] is not supported; "
                         "give each key in its own section")
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ParseError(f"unknown section [{section}]")
        for key in parser[section]:
            if key not in _SCHEMA[section]:
                raise ParseError(f"unknown key {key!r} in [{section}]")
    for key in ("kind", "n", "f"):
        if not parser.has_option("protocol", key):
            raise ParseError(f"[protocol] is missing required key {key!r}")
    values = {}
    for section, keys in _SCHEMA.items():
        for key, (name, parse) in keys.items():
            if not parser.has_option(section, key):
                continue
            raw = parser.get(section, key)
            try:
                values[name] = parse(raw)
            except ValidationError:
                raise
            except ValueError:
                raise ParseError(f"[{section}] {key} = {raw!r} is not a valid "
                                 f"{_TYPE_NAMES.get(parse, parse.__name__)}") from None
    config = ExperimentConfig(**values)
    config.validate()
    return config


def _workload(config: ExperimentConfig) -> list[tuple[float, int, bytes, int]]:
    rng = random.Random(config.seed)
    return [(i * config.gap, config.source, rng.randbytes(config.payload_size), i + 1)
            for i in range(config.broadcasts)]


def build_experiment(config: ExperimentConfig, *, record_trace: bool = False,
                     allow_overfault: bool = False) -> SimWorld:
    world = build_world(config.kind, config.n, config.f, k=config.k,
                        topology=config.topology_obj(), net=config.net_params(),
                        seed=config.seed, record_trace=record_trace)
    try:
        for node in config.faulty_nodes():
            world.attach_adversary(node, _STRATEGY_OF[config.strategy](config, node),
                                   allow_overfault=allow_overfault)
    except (FaultBudgetExceeded, ValueError) as exc:
        raise ValidationError(str(exc)) from None
    return world


def run_experiment(config: ExperimentConfig, *, record_trace: bool = False,
                   allow_overfault: bool = False) -> tuple[dict, SimWorld]:
    """Run one experiment; returns (report row, finished world)."""
    world = build_experiment(config, record_trace=record_trace,
                             allow_overfault=allow_overfault)
    workload = _workload(config)
    for at, source, payload, h in workload:
        world.broadcast(source, payload, h, at=at)
    error = ""
    try:
        world.run()
    except StepCapExceeded as exc:
        error = str(exc)
    stats = world.stats
    started = {(source, h): at for at, source, _, h in workload}
    latencies = [rec.time - started[(s, h)]
                 for (i, s, h), rec in stats.delivers.items() if (s, h) in started]
    honest = world.honest
    depths = [rec.depth for (i, s, h), rec in stats.delivers.items() if i in honest]
    deliveries = len(stats.delivers)
    duration = world.time
    resolved_k = ProtocolConfig(config.kind, config.n, config.f, node=0,
                                k=config.k).resolved_k()
    row = {
        "protocol": config.kind.value,
        "n": config.n,
        "f": config.f,
        "k": resolved_k if resolved_k is not None else "",
        "L": config.payload_size,
        "seed": config.seed,
        "topology": config.topology.value,
        "bandwidth": config.bandwidth_mbit if config.bandwidth_mbit is not None
                     else "unlimited",
        "broadcasts": config.broadcasts,
        "deliveries": deliveries,
        "duration": duration,
        "throughput": deliveries / duration if duration > 0 else "",
        "mean_latency": sum(latencies) / len(latencies) if latencies else "",
        "max_latency": max(latencies) if latencies else "",
        "source_bytes": sum(stats.sent_bytes[config.source].values()),
        "total_bytes": stats.total_sent_bytes(),
        **{column: stats.total_sent_count(kind) for column, kind in _MSG_COLUMNS.items()},
        "depth": max(depths) if depths else "",
        "error": error,
    }
    return row, world


def _error_row(name: str, error: str) -> dict:
    row = {column: "" for column in REPORT_COLUMNS}
    row["protocol"] = name
    row["error"] = error
    return row


def run_matrix(paths, *, seed: int | None = None,
               allow_overfault: bool = False) -> list[dict]:
    """Run every config; failures become error rows instead of aborting."""
    rows: list[dict] = []
    for path in paths:
        try:
            config = load_config(path)
            if seed is not None:
                config.seed = seed
            row, _ = run_experiment(config, allow_overfault=allow_overfault)
        except (ParseError, ValidationError) as exc:
            row = _error_row(Path(path).stem, str(exc))
        rows.append(row)
    rows.sort(key=lambda r: (str(r["protocol"]), str(r["topology"]),
                             str(r["bandwidth"])))
    return rows


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.10g}"
    return str(value)


def rows_to_csv(rows) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(REPORT_COLUMNS)
    for row in rows:
        writer.writerow([_fmt(row[column]) for column in REPORT_COLUMNS])
    return buffer.getvalue()


def trace_to_text(world: SimWorld) -> str:
    lines = ["\t".join(TraceRow._fields)]
    lines += ["\t".join(map(str, row)) for row in world.trace]
    return "\n".join(lines) + "\n"


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _row_text(row: dict, args) -> str:
    if args.json:
        return json.dumps({c: row[c] for c in REPORT_COLUMNS}, indent=2) + "\n"
    if args.csv:
        return rows_to_csv([row])
    width = max(len(c) for c in REPORT_COLUMNS)
    return "".join(f"{c.ljust(width)}  {_fmt(row[c])}\n" for c in REPORT_COLUMNS)


def _cmd_run(args) -> int:
    """``run`` and ``trace``: load ``args.config``, apply ``--seed``, run it
    and write the report, or for ``trace`` the event trace."""
    trace = args.command == "trace"
    try:
        config = load_config(args.config)
        if args.seed is not None:
            config.seed = args.seed
        row, world = run_experiment(config, record_trace=trace,
                                    allow_overfault=args.allow_overfault)
    except (ParseError, ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _emit(trace_to_text(world) if trace else _row_text(row, args), args.out)
    return 1 if row["error"] else 0


def _expand(paths) -> list[Path]:
    files: list[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            files += sorted(path.glob("*.ini"))
        else:
            files.append(path)
    return files


def _cmd_matrix(args) -> int:
    rows = run_matrix(_expand(args.configs), seed=args.seed,
                      allow_overfault=args.allow_overfault)
    _emit(rows_to_csv(rows), args.out)
    return 0


def _cmd_scenario(args) -> int:
    params = {"seed": args.seed, "f": args.f, "protocol": args.protocol}
    params = {key: value for key, value in params.items() if value is not None}
    try:
        result = run_scenario(args.name, **params)
    except (UnknownScenario, ScenarioOptionError) as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)  # a KeyError's str() quotes it
        return 2
    print(f"{'PASS' if result.passed else 'FAIL'} {result.name}")
    for message in result.messages:
        print(f"  {message}")
    return 0 if result.passed else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="rblab",
        description="Reliable-broadcast protocol laboratory benchmark CLI.")
    sub = parser.add_subparsers(dest="command", required=True)
    # The options run, matrix and trace share.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=None,
                        help="override the workload seed")
    common.add_argument("--out", default=None, help="write the output here")
    common.add_argument("--allow-overfault", action="store_true",
                        help="permit more faulty nodes than f")

    p_run = sub.add_parser("run", parents=[common], help="run one experiment config")
    p_run.add_argument("config", help="path to an INI experiment config")
    p_run.add_argument("--csv", action="store_true", help="emit CSV")
    p_run.add_argument("--json", action="store_true", help="emit JSON")
    p_run.set_defaults(fn=_cmd_run)

    p_matrix = sub.add_parser("matrix", parents=[common],
                              help="run many configs, emit sorted CSV")
    p_matrix.add_argument("configs", nargs="+",
                          help="config files or directories of .ini files")
    p_matrix.set_defaults(fn=_cmd_matrix)

    p_scenario = sub.add_parser("scenario", help="run a named adversarial scenario")
    p_scenario.add_argument("name")
    p_scenario.add_argument("--seed", type=int, default=0)
    p_scenario.add_argument("--f", type=int, default=None)
    p_scenario.add_argument("--protocol", default=None,
                            help="substitute a real protocol into the script")
    p_scenario.set_defaults(fn=_cmd_scenario)

    p_trace = sub.add_parser("trace", parents=[common],
                             help="run one config and dump the event trace")
    p_trace.add_argument("config")
    p_trace.set_defaults(fn=_cmd_run)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
