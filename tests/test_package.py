"""Checks on the package as a whole: its exports and the README's library example."""

import importlib
import pkgutil
import re
from pathlib import Path

import hcc


def test_every_all_name_resolves():
    # a deletion that leaves its name in some __all__ fails here, not in a user's star import
    modules = [hcc] + [importlib.import_module(f"hcc.{info.name}") for info in pkgutil.iter_modules(hcc.__path__)]
    assert len(modules) > 1
    for module in modules:
        missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
        assert missing == [], module.__name__


def test_readme_library_example_prints_its_comments(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    (block,) = re.findall(r"```python\n(.*?)```", readme, re.S)
    exec(compile(block, "README.md", "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    # each print's comment starts with what it prints, quoted or followed by ": why"
    comments = [
        line.split("#", 1)[1].split(":")[0].strip().strip('"')
        for line in block.splitlines()
        if line.startswith("print(")
    ]
    assert printed == comments == ["1 2 1 4", "c", "True"]
