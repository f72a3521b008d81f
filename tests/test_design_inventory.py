"""DESIGN.md's module inventory matches the source tree.

Section 3 of DESIGN.md is a table with one row per package under
``src/repro``. Every package directory must have a row, and every path a
row names (a backticked ``.py`` file or ``/``-terminated directory,
relative to ``src/repro``) must exist.
"""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"
PATH_TOKEN = re.compile(r"`([\w/]+(?:\.py|/))`")


def inventory_rows() -> list[str]:
    text = (ROOT / "DESIGN.md").read_text(encoding="utf-8")
    section = text.split("## 3. Module inventory", 1)[1].split("\n## ", 1)[0]
    return [line for line in section.splitlines() if line.startswith("| `")]


def test_every_package_has_a_row():
    listed = {
        match.group(1).rstrip("/")
        for row in inventory_rows()
        for match in [PATH_TOKEN.match(row.split("|")[1].strip())]
        if match
    }
    packages = {
        init.parent.relative_to(PACKAGE).as_posix()
        for init in PACKAGE.rglob("__init__.py")
        if init.parent != PACKAGE
    }
    assert packages, "no packages found under src/repro"
    assert sorted(packages - listed) == []


def test_every_named_path_exists():
    named = {token for row in inventory_rows() for token in PATH_TOKEN.findall(row)}
    assert named, "the inventory names no paths"
    assert sorted(path for path in named if not (PACKAGE / path).exists()) == []
