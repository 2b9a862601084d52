"""Module boundaries: no module reaches into another's private helpers."""
from __future__ import annotations

import ast
from pathlib import Path

import thetaprod

PACKAGE = Path(thetaprod.__file__).parent


def test_no_module_imports_a_private_name():
    private = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                private += [f"{path.name}: from .{node.module} import {a.name}"
                            for a in node.names if a.name.startswith("_")]
    assert private == []
