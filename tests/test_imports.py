"""Every name a hilb2 module imports is used in that module, and the
package exports exactly the names its __init__ imports.

Read with the standard-library ast module only. The package __init__ is
exempt from the unused-import check, because it imports names to
re-export them.
"""

import ast
import os
import types

import pytest

import hilb2

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                   "src", "hilb2")
MODULES = sorted(f for f in os.listdir(SRC)
                 if f.endswith(".py") and f != "__init__.py")


def unused_imports(source):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_the_check_sees_an_unused_import():
    assert unused_imports("import os\nimport sys\nfrom a import b, c as d\n"
                          "sys.exit(d)\n") == [(1, "os"), (3, "b")]


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_import(module):
    with open(os.path.join(SRC, module), encoding="utf-8") as fh:
        assert unused_imports(fh.read()) == [], module


def test_the_package_exports_exactly_what_its_init_imports():
    with open(os.path.join(SRC, "__init__.py"), encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    imported = {alias.asname or alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.level
                for alias in node.names}
    assert hilb2.__all__ == sorted(imported) + ["__version__"]
    star = {}
    exec("from hilb2 import *", star)
    assert star.keys() - {"__builtins__"} == set(hilb2.__all__)
    assert not [name for name in hilb2.__all__
                if isinstance(getattr(hilb2, name), types.ModuleType)]
