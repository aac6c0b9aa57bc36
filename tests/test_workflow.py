"""CI's floors job installs the oldest Python, numpy and scipy that pyproject.toml declares.

Both files are read as plain text: Python 3.10, the declared floor, has no tomllib.
"""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_floors_job_pins_the_declared_floors():
    project = (ROOT / "pyproject.toml").read_text()
    declared = {"python": re.search(r'^requires-python = ">=([\d.]+)"$', project, re.M)[1]}
    declared.update((name, re.search(rf'^\s*"{name}>=([\d.]+)"', project, re.M)[1]) for name in ("numpy", "scipy"))
    workflow = (ROOT / ".github" / "workflows" / "tests.yml").read_text()
    entry = re.search(r'^\s*- python: "([\d.]+)".*\n\s*floors: "numpy==([\d.]+)\.\* scipy==([\d.]+)\.\*"$', workflow, re.M)
    assert entry, "the workflow's matrix has no entry with floors"
    assert dict(zip(("python", "numpy", "scipy"), entry.groups())) == declared
    # the entry's values reach the interpreter and the install
    assert "python-version: ${{ matrix.python }}" in workflow
    assert 'pip install -e ".[test]" ${{ matrix.floors }}' in workflow
