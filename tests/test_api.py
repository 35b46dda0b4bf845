"""The package's public API: what `from nakayama import *` exports."""

import ast
from pathlib import Path

import nakayama


def test_all_lists_each_imported_public_name_once():
    tree = ast.parse(Path(nakayama.__file__).read_text())
    imported = {a.asname or a.name
                for node in tree.body if isinstance(node, ast.ImportFrom)
                for a in node.names}
    names = nakayama.__all__
    assert len(names) == len(set(names))
    assert all(hasattr(nakayama, name) for name in names)
    assert set(names) == {name for name in imported if not name.startswith("_")}
