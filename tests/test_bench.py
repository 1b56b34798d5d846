"""Experiment configs, report rows, CSV output, and the CLI."""
import dataclasses
import json
import re
from pathlib import Path

import pytest

from rblab import bench
from rblab.adversary import ScenarioResult
from rblab.bench import (
    _SCHEMA,
    REPORT_COLUMNS,
    STRATEGIES,
    ExperimentConfig,
    ParseError,
    ValidationError,
    load_config,
    main,
    run_experiment,
    run_matrix,
    rows_to_csv,
    trace_to_text,
)
from rblab.protocols import ProtocolKind
from rblab.simnet import TopologyKind, TraceRow

GOOD = """\
[protocol]
kind = bracha
n = 4
f = 1

[network]
topology = single-switch
base_delay = 0.05

[workload]
broadcasts = 3
payload_size = 64
seed = 5

[adversary]
strategy = silent
"""


def _write(tmp_path, text, name="exp.ini"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def test_load_config_happy_path(tmp_path):
    config = load_config(_write(tmp_path, GOOD))
    assert config.kind is ProtocolKind.BRACHA
    assert (config.n, config.f, config.k) == (4, 1, None)
    assert config.topology is TopologyKind.SINGLE_SWITCH
    assert config.base_delay == 0.05
    assert config.broadcasts == 3
    assert config.payload_size == 64
    assert config.seed == 5
    assert config.strategy == "silent"
    assert config.faulty_nodes() == [3]


def test_load_config_defaults(tmp_path):
    config = load_config(_write(tmp_path, "[protocol]\nkind = crb-flood\nn = 3\nf = 0\n"))
    assert config.payload_size == 1024
    assert config.broadcasts == 1
    assert config.seed == 0
    assert config.strategy == "none"
    assert config.bandwidth_mbit is None
    assert config.faulty_nodes() == []


@pytest.mark.parametrize("text,needle", [
    (GOOD + "\n[extra]\nx = 1\n", "unknown section"),
    (GOOD.replace("base_delay", "basedelay"), "unknown key"),
    (GOOD.replace("n = 4", "n = four"), "not a valid int"),
    ("[protocol]\nkind = bracha\nn = 4\n", "missing required key 'f'"),
    ("no section header\n", ""),
])
def test_parse_errors(tmp_path, text, needle):
    with pytest.raises(ParseError) as err:
        load_config(_write(tmp_path, text))
    assert needle in str(err.value)


def test_missing_file_is_a_parse_error(tmp_path):
    with pytest.raises(ParseError):
        load_config(tmp_path / "absent.ini")


DOCS = Path(__file__).resolve().parent.parent / "docs" / "configuration.md"
# Default-column words for a key whose field has no default or a None one.
NO_VALUE = {"required", "protocol-specific", "unlimited", "none", "auto"}


def _documented_keys() -> dict[str, dict[str, str]]:
    """Section -> key -> default column, from the reference's key tables."""
    tables: dict[str, dict[str, str]] = {}
    for line in DOCS.read_text(encoding="utf-8").splitlines():
        heading = re.match(r"## `\[(\w+)\]`", line)
        if heading:
            rows = tables[heading.group(1)] = {}
        elif line.startswith("| `"):
            key, _, default = (cell.strip() for cell in line.split("|")[1:4])
            rows[key.strip("`")] = default
    return tables


def test_the_configuration_reference_matches_the_schema():
    defaults = {f.name: f.default for f in dataclasses.fields(ExperimentConfig)}
    tables = _documented_keys()
    assert list(tables) == list(_SCHEMA)
    for section, rows in tables.items():
        assert list(rows) == list(_SCHEMA[section]), section
        for key, documented in rows.items():
            value = defaults[_SCHEMA[section][key][0]]
            if documented in NO_VALUE:
                assert value is dataclasses.MISSING or value is None, key
            elif documented.startswith("`"):
                assert getattr(value, "value", value) == documented.strip("`"), key
            else:
                assert type(value) in (int, float) and value == type(value)(documented), key


def test_the_wire_format_names_the_trace_columns_in_order():
    text = (DOCS.parent / "wire-format.md").read_text(encoding="utf-8")
    section = text.split("## Event trace", 1)[1]
    fields_line = section.split("```", 2)[1].strip()
    assert tuple(fields_line.split()) == TraceRow._fields


def test_the_wire_format_names_the_report_columns_in_order():
    text = (DOCS.parent / "wire-format.md").read_text(encoding="utf-8")
    section = text.split("## Report CSV", 1)[1].split("\n## ", 1)[0]
    listed = section.split("in\norder:", 1)[1].split(".\n", 1)[0]
    assert tuple(re.findall(r"[a-z_A-Z]+", listed)) == REPORT_COLUMNS


def test_the_strategy_row_lists_every_strategy_in_order():
    row = next(line for line in DOCS.read_text(encoding="utf-8").splitlines()
               if line.startswith("| `strategy` |"))
    meaning = row.split("|")[4]
    assert re.findall(r"`([^`]+)`", meaning) == list(STRATEGIES)


@pytest.mark.parametrize("text,needle", [
    ("[protocol]\nkind = h-brb-5f1\nn = 4\nf = 1\n", "needs n >= 5f+1 = 6"),
    ("[protocol]\nkind = ec-brb-4f1\nn = 13\nf = 3\nk = 5\n",
     "requires k = n-3f = 4, got k=5"),
    ("[protocol]\nkind = paxos\nn = 4\nf = 1\n", "unknown protocol kind"),
    (GOOD.replace("single-switch", "mesh"), "unknown topology"),
    (GOOD.replace("strategy = silent", "strategy = evil"), "unknown strategy"),
    (GOOD.replace("topology = single-switch",
                  "topology = tree\nfanout = 1"), "tree of n=4 hosts needs fanout >= 2, got 1"),
    (GOOD.replace("[workload]", "[workload]\nsource = 9"),
     "source 9 outside"),
    (GOOD.replace("strategy = silent", "strategy = crash\ncrash_after = -1"),
     "crash_after must be >= 0"),
    (GOOD.replace("seed = 5", "seed = 5\ngap = nan"), "jitter must be >= 0 and finite"),
])
def test_validation_errors_name_the_bound(tmp_path, text, needle):
    with pytest.raises(ValidationError) as err:
        load_config(_write(tmp_path, text))
    assert needle in str(err.value)


def test_an_empty_node_list_is_refused_not_run_without_faults(tmp_path):
    # strategy = silent with an empty `nodes =` once ran with no faulty node.
    text = "[protocol]\nkind = bracha\nn = 4\nf = 1\n\n[adversary]\nstrategy = silent\nnodes =\n"
    with pytest.raises(ValidationError, match=r"\[adversary\] nodes is empty"):
        load_config(_write(tmp_path, text))
    with pytest.raises(ValidationError, match=r"\[adversary\] nodes is empty"):
        ExperimentConfig(kind=ProtocolKind.BRACHA, n=4, f=1, strategy="silent",
                         adversary_nodes=()).validate()
    row, world = run_experiment(load_config(_write(tmp_path, text.replace("=\n", "= 2\n"))))
    assert world.byzantine == {2} and row["error"] == ""


def test_a_repeated_node_is_refused_not_run_as_one_faulty_node(tmp_path, capsys):
    # nodes = 2,2 once ran with one faulty node, the second attach
    # replacing the first.
    text = "[protocol]\nkind = bracha\nn = 7\nf = 2\n\n[adversary]\nstrategy = silent\n"
    path = _write(tmp_path, text + "nodes = 2,5,2\n")
    with pytest.raises(ValidationError) as err:
        load_config(path)
    assert str(err.value) == "[adversary] nodes names [2] more than once"
    assert main(["run", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {err.value}\n"
    config = load_config(_write(tmp_path, text + "nodes = 2,5\n"))
    assert config.faulty_nodes() == [2, 5]


def test_nodes_without_a_strategy_are_refused_not_run_honestly(tmp_path, capsys):
    # nodes = 3 with no strategy once ran with no faulty node.
    text = "[protocol]\nkind = bracha\nn = 4\nf = 1\n\n[adversary]\nnodes = 3\n"
    path = _write(tmp_path, text)
    with pytest.raises(ValidationError) as err:
        load_config(path)
    assert str(err.value) == "[adversary] nodes needs a strategy; set one or leave the key out"
    assert main(["run", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {err.value}\n"
    row, world = run_experiment(load_config(_write(tmp_path, text + "strategy = silent\n")))
    assert world.byzantine == {3} and row["error"] == ""


def test_a_strategy_with_no_node_to_corrupt_is_refused_not_run_honestly(tmp_path, capsys):
    # crb-flood at n = 1 with `silent` once ran with no faulty node: left
    # out, `nodes` picks a node other than the source, and there is none.
    text = "[protocol]\nkind = crb-flood\nn = 1\nf = 0\n\n[adversary]\nstrategy = silent\n"
    path = _write(tmp_path, text)
    with pytest.raises(ValidationError) as err:
        load_config(path)
    assert str(err.value) == (
        "[adversary] strategy 'silent' has no node to corrupt: with nodes left out "
        "it picks one other than the source, and n=1 has none")
    assert main(["run", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {err.value}\n"
    for fixed in (text + "nodes = 0\n", text.replace("silent", "equivocate")):
        assert load_config(_write(tmp_path, fixed)).faulty_nodes() == [0]


def test_a_bad_node_list_names_its_documented_type(tmp_path):
    with pytest.raises(ParseError) as err:
        load_config(_write(tmp_path, GOOD + "nodes = 1,x\n"))
    assert str(err.value) == "[adversary] nodes = '1,x' is not a valid int list"


def test_a_default_section_is_rejected_by_its_own_name(tmp_path):
    with pytest.raises(ParseError) as err:
        load_config(_write(tmp_path, "[DEFAULT]\nseed = 3\n\n" + GOOD))
    assert str(err.value).startswith("[DEFAULT] is not supported")


def test_config_object_validation_bounds():
    base = dict(kind=ProtocolKind.BRACHA, n=4, f=1)
    with pytest.raises(ValidationError, match="broadcasts"):
        ExperimentConfig(**base, broadcasts=0).validate()
    with pytest.raises(ValidationError, match="payload_size"):
        ExperimentConfig(**base, payload_size=0).validate()
    with pytest.raises(ValidationError, match="must be >= 0"):
        ExperimentConfig(**base, jitter=-1.0).validate()
    with pytest.raises(ValidationError, match="bandwidth_mbit"):
        ExperimentConfig(**base, bandwidth_mbit=0.0).validate()
    # NaN passes a plain ``< 0`` check; a gap of nan once ran to nan times.
    nan, inf = float("nan"), float("inf")
    for name in ("gap", "base_delay", "jitter"):
        for value in (nan, inf):
            with pytest.raises(ValidationError, match="must be >= 0 and finite"):
                ExperimentConfig(**base, **{name: value}).validate()
    for name in ("bandwidth_mbit", "source_bandwidth_kbytes"):
        for value in (nan, inf):
            with pytest.raises(ValidationError, match=f"{name} must be positive and finite"):
                ExperimentConfig(**base, **{name: value}).validate()
    with pytest.raises(ValidationError, match="adversary nodes"):
        ExperimentConfig(**base, strategy="silent",
                         adversary_nodes=(7,)).validate()


def test_equivocate_refuses_nodes_it_would_run_honestly(tmp_path):
    # An equivocation acts only through the source's first wave: a node
    # list naming another node once ran an honest experiment that reported
    # that node as faulty.
    text = ("[protocol]\nkind = bracha\nn = 7\nf = 2\n\n"
            "[adversary]\nstrategy = equivocate\n")
    for extra in ("nodes = 2\n", "nodes = 0, 2\n"):
        with pytest.raises(ValidationError) as err:
            load_config(_write(tmp_path, text + extra))
        assert str(err.value).startswith(
            "[adversary] strategy 'equivocate' corrupts only the source, so nodes "
            "must name the source 0 alone, got [")
    for extra in ("", "nodes = 0\n"):
        assert load_config(_write(tmp_path, text + extra)).faulty_nodes() == [0]
    moved = load_config(_write(tmp_path, text.replace("[adversary]", "[workload]\nsource = 3\n\n"
                                                     "[adversary]") + "nodes = 3\n"))
    assert moved.faulty_nodes() == [3]


def test_faulty_node_selection():
    # Without `nodes`, one node is faulty: the highest-numbered node that
    # is not the source, or the source for equivocate.
    config = ExperimentConfig(kind=ProtocolKind.BRACHA, n=5, f=1, strategy="silent")
    assert config.faulty_nodes() == [4]
    config.source = 4
    assert config.faulty_nodes() == [3]
    config.strategy = "equivocate"
    assert config.faulty_nodes() == [4]
    config.strategy = "silent"
    config.adversary_nodes = (1, 4, 0)
    assert config.faulty_nodes() == [1, 4, 0]


def test_net_params_unit_conversions():
    config = ExperimentConfig(kind=ProtocolKind.BRACHA, n=4, f=1,
                              bandwidth_mbit=42.0,
                              source_bandwidth_kbytes=500.0)
    net = config.net_params()
    assert net.bandwidth == pytest.approx(42e6 / 8)
    assert net.source_bandwidth == pytest.approx(500_000)


def test_run_experiment_row_shape():
    config = ExperimentConfig(kind=ProtocolKind.CRB_FLOOD, n=4, f=0,
                              broadcasts=10, payload_size=32, seed=3)
    row, world = run_experiment(config)
    assert set(row) == set(REPORT_COLUMNS)
    assert row["protocol"] == "crb-flood"
    assert row["deliveries"] == 40
    assert row["msgs_msg"] == 10 * (4 + 16)
    assert row["depth"] == 1
    assert row["error"] == ""
    assert row["k"] == ""
    assert row["bandwidth"] == "unlimited"
    assert row["throughput"] == pytest.approx(40 / world.time)
    assert row["source_bytes"] > 0


def test_coded_run_reports_k():
    config = ExperimentConfig(kind=ProtocolKind.EC_BRB_3F1, n=4, f=1,
                              payload_size=128)
    row, _ = run_experiment(config)
    assert row["k"] == 2
    assert row["deliveries"] == 4


def test_csv_header_matches_report_columns():
    config = ExperimentConfig(kind=ProtocolKind.BRACHA, n=4, f=1)
    row, _ = run_experiment(config)
    text = rows_to_csv([row])
    header, data = text.strip().split("\n")
    assert header == ",".join(REPORT_COLUMNS)
    assert len(data.split(",")) == len(REPORT_COLUMNS)


def test_rerun_with_same_seed_is_byte_identical(tmp_path):
    text = GOOD.replace("base_delay = 0.05", "base_delay = 0.05\njitter = 0.2")
    path = _write(tmp_path, text)

    def one():
        row, world = run_experiment(load_config(path), record_trace=True)
        return rows_to_csv([row]), trace_to_text(world)

    csv_a, trace_a = one()
    csv_b, trace_b = one()
    assert csv_a == csv_b
    assert trace_a == trace_b
    row_c, world_c = run_experiment(
        load_config(_write(tmp_path, text.replace("seed = 5", "seed = 6"),
                           name="other.ini")), record_trace=True)
    assert trace_to_text(world_c) != trace_a


def test_matrix_collects_and_sorts_rows(tmp_path):
    _write(tmp_path, GOOD, name="b_double_echo.ini")
    _write(tmp_path, "[protocol]\nkind = crb-flood\nn = 3\nf = 0\n",
           name="a_flood.ini")
    _write(tmp_path, "[protocol]\nkind = h-brb-5f1\nn = 4\nf = 1\n",
           name="z_broken.ini")
    rows = run_matrix(sorted(tmp_path.glob("*.ini")))
    assert [row["protocol"] for row in rows] == ["bracha", "crb-flood", "z_broken"]
    broken = rows[-1]
    assert "5f+1" in broken["error"]
    assert all(broken[c] == "" for c in REPORT_COLUMNS
               if c not in ("protocol", "error"))
    reseeded = run_matrix(sorted(tmp_path.glob("*.ini")), seed=11)
    config = load_config(tmp_path / "b_double_echo.ini")
    config.seed = 11
    assert reseeded[0] == run_experiment(config)[0] != rows[0]
    assert [row["seed"] for row in reseeded] == [11, 11, ""]


def test_cli_run_and_exit_codes(tmp_path, capsys):
    path = _write(tmp_path, GOOD)
    out = tmp_path / "row.json"
    assert main(["run", str(path), "--json", "--out", str(out)]) == 0
    row = json.loads(out.read_text())
    assert list(row) == list(REPORT_COLUMNS)
    assert row["seed"] == 5
    assert main(["run", str(path), "--seed", "9", "--json",
                 "--out", str(out)]) == 0
    assert json.loads(out.read_text())["seed"] == 9
    bad = _write(tmp_path, "[protocol]\nkind = h-brb-5f1\nn = 4\nf = 1\n",
                 name="bad.ini")
    assert main(["run", str(bad)]) == 2
    assert "error:" in capsys.readouterr().err
    assert main(["run", str(path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    width = max(map(len, REPORT_COLUMNS))
    assert [line[:width].rstrip() for line in lines] == list(REPORT_COLUMNS)
    assert lines[REPORT_COLUMNS.index("seed")] == "seed".ljust(width) + "  5"


def test_a_step_capped_run_reports_its_error(tmp_path, monkeypatch):
    build_world = bench.build_world
    monkeypatch.setattr(bench, "build_world",
                        lambda *args, **kw: build_world(*args, **kw, max_steps=5))
    out = tmp_path / "row.json"
    assert main(["run", str(_write(tmp_path, GOOD)), "--json", "--out", str(out)]) == 1
    row = json.loads(out.read_text())
    assert row["error"] == "exceeded 5 events"


def test_an_over_f_config_runs_only_with_allow_overfault(tmp_path, capsys):
    path = _write(tmp_path, GOOD + "nodes = 2,3\n")
    assert main(["run", str(path)]) == 2
    assert capsys.readouterr().err == "error: attaching faulty node #2 exceeds f=1\n"
    out = tmp_path / "row.json"
    assert main(["run", str(path), "--allow-overfault", "--json", "--out", str(out)]) == 0
    row = json.loads(out.read_text())
    assert row["error"] == "" and row["deliveries"] == 0


def test_cli_run_refuses_an_output_section_and_a_tree_depth(tmp_path, capsys):
    # `rblab run --out` and `rblab trace --out` write the report and the trace.
    csv_file = tmp_path / "row.csv"
    text = GOOD + f"\n[output]\ncsv = {csv_file}\n"
    assert main(["run", str(_write(tmp_path, text))]) == 2
    assert capsys.readouterr().err == "error: unknown section [output]\n"
    assert not csv_file.exists()
    text = GOOD.replace("topology = single-switch", "topology = tree\ndepth = 3")
    with pytest.raises(ParseError, match=r"^unknown key 'depth' in \[network\]$"):
        load_config(_write(tmp_path, text))


def test_cli_matrix_is_exit_zero_even_with_broken_configs(tmp_path, capsys):
    _write(tmp_path, GOOD, name="good.ini")
    _write(tmp_path, "[protocol]\nkind = nope\nn = 4\nf = 1\n", name="bad.ini")
    out = tmp_path / "matrix.csv"
    assert main(["matrix", str(tmp_path), "--out", str(out)]) == 0
    lines = out.read_text().strip().split("\n")
    assert len(lines) == 3  # header + two rows
    assert lines[0] == ",".join(REPORT_COLUMNS)


def test_cli_matrix_takes_config_files_as_well_as_directories(tmp_path):
    # A file argument is one config; a directory argument is every .ini in
    # it. The other config beside the file is not read.
    configs = tmp_path / "configs"
    configs.mkdir()
    good = _write(configs, GOOD, name="good.ini")
    _write(configs, "[protocol]\nkind = nope\nn = 4\nf = 1\n", name="bad.ini")
    flood = _write(tmp_path, "[protocol]\nkind = crb-flood\nn = 3\nf = 0\n", name="flood.ini")
    out = tmp_path / "matrix.csv"
    assert main(["matrix", str(good), "--out", str(out)]) == 0
    assert out.read_text() == rows_to_csv([run_experiment(load_config(good))[0]])
    assert main(["matrix", str(flood), str(configs), "--out", str(out)]) == 0
    assert out.read_text() == rows_to_csv(run_matrix([flood, configs / "bad.ini", good]))
    assert len(out.read_text().strip().split("\n")) == 4  # header + three rows


def test_cli_scenario_exit_codes(tmp_path, capsys, monkeypatch):
    assert main(["scenario", "silent"]) == 0
    assert "PASS silent" in capsys.readouterr().out
    assert main(["scenario", "does-not-exist"]) == 2
    assert capsys.readouterr().err.startswith("error: unknown scenario 'does-not-exist'; choices: ")

    def fake(name, **params):
        return ScenarioResult(name, False, {}, ["forced failure"])

    monkeypatch.setattr("rblab.bench.run_scenario", fake)
    assert main(["scenario", "silent"]) == 1
    assert "FAIL silent" in capsys.readouterr().out


@pytest.mark.parametrize("argv, reason", [
    (["helper4", "--protocol", "bracha", "--f", "3"], "scenario 'helper4' takes no option 'f'"),
    (["exec1", "--protocol", "nope"], "unknown protocol 'nope'"),
    (["exec1", "--f", "0"], "f must be at least 1, got 0"),
    (["equivocate-split", "--f", "0"], "f must be at least 1, got 0"),
])
def test_cli_scenario_rejects_options_it_cannot_use(argv, reason, capsys):
    # Exit 2 with a one-line error, as for a bad config; exit 1 means the
    # scenario ran and failed.
    assert main(["scenario", *argv]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith(f"error: {reason}") and out.err.count("\n") == 1


def test_cli_trace_subcommand(tmp_path):
    path = _write(tmp_path, GOOD)
    out = tmp_path / "events.tsv"
    assert main(["trace", str(path), "--out", str(out)]) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0].split("\t") == list(
        ("index", "time", "event", "node", "frm", "kind", "source", "h",
         "size", "depth"))
    assert any("\tdeliver\t" in line for line in lines[1:])
