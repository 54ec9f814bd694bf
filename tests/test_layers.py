"""``tools/layers.py`` runs on a short budget and times every stage it names.

There is no speed gate: the figures depend on the host.
"""

import json
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "layers.py"


def test_every_stage_median_is_positive():
    out = subprocess.run([sys.executable, "-B", str(TOOL), "--rounds", "3", "--frames", "20"],
                         capture_output=True, text=True, check=True, timeout=120).stdout
    lines = out.splitlines()
    assert lines[0].startswith("cores: ")  # printed before the process pins itself
    doc = json.loads(lines[-1])
    assert set(doc["stages"]) == {"gen_test_image", "packetize_image", "push_all", "step_all",
                                  "image_ok", "frame", "header_codec", "to_bytes", "from_bytes", "feed", "step"}
    for stage, row in doc["stages"].items():
        assert row["q1"] <= row["median"] <= row["q3"], stage
        assert row["median"] > 0, stage
    faults = doc["minor_faults"]  # may be 0 in every round
    assert 0 <= faults["q1"] <= faults["median"] <= faults["q3"]
