"""README.md states the contract, not measurements.

Times and memory figures go stale with every change to the code or the
host, so they live in CHANGES.md and the BENCH_*.json files; README
cites those files by name.
"""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MEASUREMENT = re.compile(r"\b\d[\d.,]*\s?(?:ms|s|MB|GB)\b")


def test_readme_states_no_measurement():
    in_block, found = False, []
    for number, line in enumerate((ROOT / "README.md").read_text().splitlines(), 1):
        if line.startswith("```"):
            in_block = not in_block
        elif not in_block and MEASUREMENT.search(line):
            found.append(f"{number}: {line}")
    assert found == []
