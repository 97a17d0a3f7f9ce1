"""The package root exports exactly the names README documents, and
README's run-config example lists exactly the config keys."""

import dataclasses
import json
import re
import typing
from pathlib import Path

import pbes
from pbes.cli import _JSON_KEYS, _STREAM_KINDS, parse_experiment_config

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


RUN_CONFIG_INTRO = "This example lists every key:"


def readme_run_config():
    """The JSON document in the first fenced block after ``RUN_CONFIG_INTRO``."""
    text = README.read_text(encoding="utf-8")
    block = re.search(r"```json\n(.*?)```", text[text.index(RUN_CONFIG_INTRO):], re.S)
    return json.loads(block.group(1))


def assert_lists_every_key(cls, section, where):
    """``section``'s keys are ``cls``'s JSON keys, and so on down every section."""
    hints = typing.get_type_hints(cls)
    fields = {_JSON_KEYS.get(f.name, f.name): hints[f.name] for f in dataclasses.fields(cls)}
    assert sorted(section) == sorted(fields), where
    for key, hint in fields.items():
        if dataclasses.is_dataclass(hint):
            assert_lists_every_key(hint, section[key], f"{where}.{key}")
        elif set(typing.get_args(hint)) == set(_STREAM_KINDS.values()):
            [(kind, body)] = section[key].items()
            assert_lists_every_key(_STREAM_KINDS[kind], body, f"{where}.{key}.{kind}")


def test_readme_run_config_lists_every_key():
    doc = readme_run_config()
    parse_experiment_config(doc, Path("."))
    assert_lists_every_key(pbes.ExperimentConfig, doc, "config root")
