"""The package root exports exactly the names README documents."""

import re
from pathlib import Path

import pbes

README = Path(__file__).resolve().parents[1] / "README.md"
LIST_INTRO = "The package root exports `__version__` and these names:"


def documented_root_names():
    """Backticked names in the bullet list that follows ``LIST_INTRO``."""
    lines = README.read_text(encoding="utf-8").splitlines()
    start = lines.index(LIST_INTRO) + 1
    while not lines[start].strip():
        start += 1
    names = []
    for line in lines[start:]:
        if not line.startswith("- "):
            break
        names.extend(re.findall(r"`([A-Za-z_]\w*)`", line))
    return names


def test_root_exports_match_readme():
    documented = documented_root_names()
    assert len(documented) == len(set(documented))
    assert sorted(pbes.__all__) == sorted(documented)
    namespace = {}
    exec("from pbes import *", namespace)
    assert all(name in namespace for name in pbes.__all__)
    assert isinstance(pbes.__version__, str)
