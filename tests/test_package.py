"""Tests for the package's public surface."""

import ast
from pathlib import Path

import afalib


def _imported_public_names() -> list[str]:
    tree = ast.parse(Path(afalib.__file__).read_text(encoding="utf-8"))
    return [
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if not (alias.asname or alias.name).startswith("_")
    ]


def test_all_lists_exactly_the_imported_public_names():
    names = _imported_public_names()
    assert len(afalib.__all__) == len(set(afalib.__all__))
    assert sorted(afalib.__all__) == sorted(names)


def test_star_import_binds_exactly_all():
    namespace: dict = {}
    exec("from afalib import *", namespace)
    namespace.pop("__builtins__")
    assert set(namespace) == set(afalib.__all__)
    assert all(namespace[name] is getattr(afalib, name) for name in namespace)
