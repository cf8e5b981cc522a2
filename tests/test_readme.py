"""README.md states the contract, not measurements.

Times and memory figures go stale with every change to the code or the
host, so they live in CHANGES.md and the BENCH_*.json files; README
cites those files by name.  Its commands are rows of tests/contract.py,
which every check of the CLI contract runs.
"""

import re
import shlex

import contract
from support import ROOT

MEASUREMENT = re.compile(r"\b\d[\d.,]*\s?(?:ms|s|MB|GB)\b")


def test_readme_states_no_measurement():
    in_block, found = False, []
    for number, line in enumerate((ROOT / "README.md").read_text().splitlines(), 1):
        if line.startswith("```"):
            in_block = not in_block
        elif not in_block and MEASUREMENT.search(line):
            found.append(f"{number}: {line}")
    assert found == []


def test_readme_commands_are_rows_whose_first_line_is_their_comment():
    rows = {tuple(shlex.split(row.line)): row for row in contract.ROWS}
    lines = [line for line in (ROOT / "README.md").read_text().splitlines()
             if line.startswith("schurkit ")]
    assert len(lines) >= 8
    for line in lines:
        row = rows.get(tuple(shlex.split(line, comments=True)[1:]))
        assert row is not None and (row.code, row.err) == (0, ""), line
        comment = line.partition(" # ")[2].strip()
        assert not comment or row.out.splitlines()[0] == comment, line
