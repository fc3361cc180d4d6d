"""The README's library examples run as written."""
from __future__ import annotations

import importlib
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run_in_order():
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text("utf-8"),
                        flags=re.MULTILINE | re.DOTALL)
    assert len(blocks) >= 2
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)


def test_module_map_names_resolve_in_their_modules():
    """Every backticked name of a module map row is defined in that row's
    module; a dotted name resolves attribute by attribute."""
    text = README.read_text("utf-8")
    table = text[text.index("## Module map"):].split("\n\n")[1]
    rows = re.findall(r"^\| `(spencerkit\.\w+)` \| (.*) \|$", table,
                      flags=re.MULTILINE)
    assert len(rows) >= 7
    missing = []
    for module_name, contents in rows:
        module = importlib.import_module(module_name)
        for name in re.findall(r"`([\w.]+)`", contents):
            first, *rest = name.split(".")
            owner = getattr(module, first, None)
            if getattr(owner, "__module__", module_name) != module_name:
                owner = None            # imported, not defined, here
            for part in rest:
                owner = getattr(owner, part, None)
            if owner is None:
                missing.append(f"{module_name}: {name}")
    assert missing == []


def test_task_table_lists_each_kinds_keys():
    """The README's task table gives every kind in ``scenario.TASKS`` with
    exactly its keys, marking ``?`` the optional integers."""
    from spencerkit.scenario import TASKS
    text = README.read_text("utf-8")
    table = text[text.index("Task kinds and their specific keys"):]
    table = table.split("\n\n")[1]
    rows = dict(re.findall(r"^\| `(\w+)` \| (.*) \|$", table,
                           flags=re.MULTILINE))
    listed = {kind: {key.rstrip("?"): key.endswith("?")
                     for key in re.findall(r"`(\w+\??)`", keys)}
              for kind, keys in rows.items()}
    assert listed == {kind: {key: kind_of == "int"
                             for key, kind_of in keys.items()}
                      for kind, (_, keys) in TASKS.items()}
