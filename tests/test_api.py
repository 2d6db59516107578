"""The public surface: what the README shows is exported, and the test
oracles reach the library only through public names."""

import ast
import re
from pathlib import Path

import ppmopt

ROOT = Path(__file__).resolve().parent.parent


def _ppmopt_imports(source: str):
    """(module, name) of every `from ppmopt... import name` in source."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module \
                and node.module.split(".")[0] == "ppmopt":
            for alias in node.names:
                yield node.module, alias.name


def test_readme_library_imports_are_exported():
    library = (ROOT / "README.md").read_text().split("## Library", 1)[1]
    code = re.search(r"```python\n(.*?)```", library, re.S).group(1)
    names = {name for _, name in _ppmopt_imports(code)}
    assert names and names <= set(ppmopt.__all__), names - set(ppmopt.__all__)


def test_oracles_import_no_private_name():
    oracles = sorted((ROOT / "tests").glob("*_oracle.py"))
    assert len(oracles) >= 3
    for path in oracles:
        for module, name in _ppmopt_imports(path.read_text()):
            parts = (*module.split("."), name)
            assert not any(p.startswith("_") for p in parts), (path.name, module, name)
