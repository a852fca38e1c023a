"""Every python block of README.md runs as written.

Each block runs in its own namespace, in a directory that holds the
fixture CSV files and the ``graph.ttl`` that ``trokit ingest`` makes of them.
"""

import io
import re
from pathlib import Path

from trokit.cli import run

from conftest import FIXTURES

README = Path(__file__).parent.parent / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"), re.M | re.S)


def test_readme_python_blocks_run(tmp_path, monkeypatch, capsys):
    assert len(BLOCKS) >= 2
    for name in ("contracts.csv", "roles.csv"):
        (tmp_path / name).write_bytes((FIXTURES / name).read_bytes())
    monkeypatch.chdir(tmp_path)
    argv = ["ingest", "--contracts", "contracts.csv", "--roles", "roles.csv", "--out", "graph.ttl"]
    assert run(argv, out=io.StringIO(), err=io.StringIO()) == 0
    for i, block in enumerate(BLOCKS):
        exec(compile(block, f"README.md python block {i + 1}", "exec"), {"__name__": "readme"})
    printed = capsys.readouterr().out
    assert '"patternId": "AWARD-TO-LINKED-ORG"' in printed  # the library example's findings
    assert '"M. Zabala"' in printed  # the query example's insert, written out
