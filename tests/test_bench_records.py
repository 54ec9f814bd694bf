"""Every ``BENCH_<pr>.json`` at the repo root is a usable benchmark record.

A record names the commit it was measured against, the core count of the
machine it ran on (the loopback numbers depend on it), and its end-to-end
results.
"""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
RECORDS = sorted(ROOT.glob("BENCH_*.json"))


def test_records_exist():
    assert RECORDS, f"no BENCH_*.json under {ROOT.name}/"


@pytest.mark.parametrize("path", RECORDS, ids=[p.name for p in RECORDS])
def test_record_has_required_fields(path):
    doc = json.loads(path.read_text())
    assert isinstance(doc, dict)
    assert doc.get("parent_commit"), "missing parent_commit"
    cores = doc.get("machine", {}).get("cores")
    assert isinstance(cores, int) and cores > 0, "missing machine.cores"
    assert doc.get("end_to_end"), "missing end_to_end"
