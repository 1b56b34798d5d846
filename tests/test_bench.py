"""Experiment configs, report rows, CSV output, and the CLI."""
import dataclasses
import json
import re
from pathlib import Path

import pytest

from rblab.adversary import ScenarioResult
from rblab.bench import (
    _SCHEMA,
    REPORT_COLUMNS,
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
from rblab.simnet import TopologyKind

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
count = 1
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


@pytest.mark.parametrize("text,needle", [
    ("[protocol]\nkind = h-brb-5f1\nn = 4\nf = 1\n", "needs n >= 5f+1 = 6"),
    ("[protocol]\nkind = ec-brb-4f1\nn = 13\nf = 3\nk = 5\n",
     "requires k = n-3f = 4, got k=5"),
    ("[protocol]\nkind = paxos\nn = 4\nf = 1\n", "unknown protocol kind"),
    (GOOD.replace("single-switch", "mesh"), "unknown topology"),
    (GOOD.replace("strategy = silent", "strategy = evil"), "unknown strategy"),
    (GOOD.replace("topology = single-switch",
                  "topology = tree\ndepth = 1\nfanout = 2"), "hosts 2 < n=4"),
    (GOOD.replace("[workload]", "[workload]\nsource = 9"),
     "source 9 outside"),
])
def test_validation_errors_name_the_bound(tmp_path, text, needle):
    with pytest.raises(ValidationError) as err:
        load_config(_write(tmp_path, text))
    assert needle in str(err.value)


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
    with pytest.raises(ValidationError, match="adversary nodes"):
        ExperimentConfig(**base, strategy="silent",
                         adversary_nodes=(7,)).validate()


def test_faulty_node_selection():
    config = ExperimentConfig(kind=ProtocolKind.BRACHA, n=5, f=1,
                              strategy="silent", count=2)
    assert config.faulty_nodes() == [4, 3]
    config.source = 4
    assert config.faulty_nodes() == [3, 2]
    config.strategy = "equivocate"
    assert config.faulty_nodes() == [4]
    config.strategy = "silent"
    config.adversary_nodes = (1,)
    assert config.faulty_nodes() == [1]


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


def test_cli_run_writes_declared_outputs(tmp_path):
    csv_file = tmp_path / "row.csv"
    trace_file = tmp_path / "run.trace"
    text = GOOD + f"\n[output]\ncsv = {csv_file}\ntrace = {trace_file}\n"
    assert main(["run", str(_write(tmp_path, text)), "--out",
                 str(tmp_path / "report.txt")]) == 0
    assert csv_file.read_text().startswith("protocol,")
    first_line = trace_file.read_text().splitlines()[0]
    assert first_line == "index\ttime\tevent\tnode\tfrm\tkind\tsource\th\tsize\tdepth"


def test_cli_matrix_is_exit_zero_even_with_broken_configs(tmp_path, capsys):
    _write(tmp_path, GOOD, name="good.ini")
    _write(tmp_path, "[protocol]\nkind = nope\nn = 4\nf = 1\n", name="bad.ini")
    out = tmp_path / "matrix.csv"
    assert main(["matrix", str(tmp_path), "--out", str(out)]) == 0
    lines = out.read_text().strip().split("\n")
    assert len(lines) == 3  # header + two rows
    assert lines[0] == ",".join(REPORT_COLUMNS)


def test_cli_scenario_exit_codes(tmp_path, capsys, monkeypatch):
    assert main(["scenario", "silent"]) == 0
    assert "PASS silent" in capsys.readouterr().out
    assert main(["scenario", "does-not-exist"]) == 2
    capsys.readouterr()

    def fake(name, **params):
        return ScenarioResult(name, False, {}, ["forced failure"])

    monkeypatch.setattr("rblab.bench.run_scenario", fake)
    assert main(["scenario", "silent"]) == 1
    assert "FAIL silent" in capsys.readouterr().out


def test_cli_trace_subcommand(tmp_path):
    path = _write(tmp_path, GOOD)
    out = tmp_path / "events.tsv"
    assert main(["trace", str(path), "--out", str(out)]) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0].split("\t") == list(
        ("index", "time", "event", "node", "frm", "kind", "source", "h",
         "size", "depth"))
    assert any("\tdeliver\t" in line for line in lines[1:])
