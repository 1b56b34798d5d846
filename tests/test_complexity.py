"""The closed-form costs in docs/complexity.md, checked against the simulator.

Each table row is parsed from the document and evaluated, so the document
cannot drift from what an honest world sends: every row must equal the
per-kind tallies of ``RunStats`` exactly.
"""
import random
import re
from pathlib import Path

import pytest

from rblab.adversary import build_world
from rblab.core import HEADER_SIZE, MsgKind
from rblab.protocols import RESILIENCE, ProtocolConfig, ProtocolKind
from rblab.simnet import check_broadcast_properties

DOC = Path(__file__).resolve().parent.parent / "docs" / "complexity.md"
LENGTHS = (1, 1000, 65536)


def _python(formula: str) -> str:
    """A table formula as a Python expression in n, f, k and L."""
    expr = formula.replace("²", "**2").replace(" ", "")
    expr = re.sub(r"⌈([^⌈⌉/]+)/([^⌈⌉]+)⌉", r"(-(-(\1)//(\2)))", expr)
    # Juxtaposition is multiplication: 45n, n(...), (...)(...).
    return re.sub(r"(?<=[\w)])(?=[(A-Za-z])", "*", expr)


def _rows() -> dict[str, dict[str, tuple[str, str]]]:
    """Protocol -> kind -> (messages, bytes) formulas, from the table."""
    rows: dict[str, dict[str, tuple[str, str]]] = {}
    for line in DOC.read_text(encoding="utf-8").splitlines():
        if line.startswith("| `"):
            protocol, kind, messages, size = (cell.strip() for cell in line.split("|")[1:5])
            rows.setdefault(protocol.strip("`"), {})[kind] = (_python(messages), _python(size))
    return rows


ROWS = _rows()


def _cost(formula: str, n: int, f: int, k: int, L: int) -> int:
    return eval(formula, {"__builtins__": {}}, dict(n=n, f=f, k=k, L=L))


def test_the_formulas_parse():
    assert _python("(n + n²)(18 + ⌈L/k⌉) + 45n²") == \
        "(n+n**2)*(18+(-(-(L)//(k))))+45*n**2"
    assert sorted(ROWS) == sorted(kind.value for kind in ProtocolKind)


@pytest.mark.parametrize("protocol", sorted(ROWS))
def test_each_row_matches_an_honest_world(protocol):
    kind = ProtocolKind(protocol)
    rows = ROWS[protocol]
    r = RESILIENCE[kind]
    for n in range(r + 1, 41):
        for f in sorted(f for f in {1, (n - 1) // 2, (n - 1) // r} if r * f < n):
            k = ProtocolConfig(kind, n, f, 0).resolved_k()
            for L in LENGTHS:
                world = build_world(kind, n, f, seed=n)
                world.broadcast(n // 2, random.Random(L).randbytes(L), 1)
                stats = world.run()
                assert check_broadcast_properties(world) == []
                got = {m.name: (stats.total_sent_count(m), stats.total_sent_bytes(m))
                       for m in MsgKind if stats.total_sent_count(m)}
                got["all"] = (stats.total_sent_count(), stats.total_sent_bytes())
                # Every kind sent has its row, so no REQ or FWD was sent.
                assert got == {name: (_cost(msgs, n, f, k, L), _cost(size, n, f, k, L))
                               for name, (msgs, size) in rows.items()}, (n, f, L)


def test_the_stated_comparisons_hold():
    def total(protocol, n, f, L):
        return _cost(ROWS[protocol]["all"][1], n, f, n - f, L)

    assert total("ec-crb", 19, 6, 65536) == 1_939_045
    assert total("crb-flood", 19, 6, 65536) == 24_908_620
    assert [_cost(ROWS["ec-crb"][kind][1], 19, 6, 13, 65536) for kind in ("MSG", "ECHO", "ACC")] \
        == [96_140, 1_826_660, 16_245]
    # A digest ACC outweighs a payload ACC (header and L bytes) below L = 32.
    acc = _cost(ROWS["ec-crb"]["ACC"][1], 19, 6, 13, 1) // 19**2
    assert [L for L in range(1, 100) if acc > HEADER_SIZE + L] == list(range(1, 32))
    # At n = 19, f = 6, ec-crb sends fewer bytes than crb-flood from L = 52 up.
    cheaper = [L for L in range(1, 1000)
               if total("ec-crb", 19, 6, L) < total("crb-flood", 19, 6, L)]
    assert cheaper == list(range(52, 1000))
    # The Byzantine protocols at n = 19, 64 KiB, each at its largest f.
    assert [_cost(ROWS[protocol]["all"][1], 19, f, 7, 65536) for protocol, f in (
        ("bracha", 6), ("h-brb-3f1", 6), ("h-brb-5f1", 3), ("ec-brb-3f1", 6), ("ec-brb-4f1", 4))] \
        == [48_571_809, 1_277_921, 1_261_676, 3_593_185, 3_624_003]
    # Coding cuts the source's wave, not the total: the MSG rows at f = 6, k = 7.
    assert [_cost(ROWS[protocol]["MSG"][1], 19, 6, 7, 65536)
            for protocol in ("h-brb-3f1", "ec-brb-3f1")] == [1_245_431, 178_847]
    coded, hashed = ROWS["ec-brb-3f1"]["all"][1], ROWS["h-brb-3f1"]["all"][1]
    assert all(_cost(coded, n, 1, k, L) > _cost(hashed, n, 1, k, L)
               for n in range(4, 41) for k in range(1, n + 1) for L in LENGTHS)
