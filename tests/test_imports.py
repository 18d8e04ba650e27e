"""Every name a hilb2 module imports is used in that module, every private
function of the package has a caller, the package exports exactly the
names its __init__ imports, and importing it loads no dataclasses, inspect
or typing.

Read with the standard-library ast module only. The package __init__ is
exempt from the unused-import check, because it imports names to
re-export them.
"""

import ast
import collections
import os
import subprocess
import sys
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


def uncalled_private_functions(sources):
    """The private functions and methods (one leading underscore) defined
    in the sources that no code outside their own def names, sorted."""
    trees = [ast.parse(source) for source in sources]
    named = collections.Counter(
        node.id if isinstance(node, ast.Name) else node.attr
        for tree in trees for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute)))
    uncalled = []
    for tree in trees:
        for node in ast.walk(tree):
            if (isinstance(node, ast.FunctionDef) and node.name.startswith("_")
                    and not node.name.startswith("__")):
                own = sum(1 for inner in ast.walk(node)
                          if node.name in (getattr(inner, "id", None),
                                           getattr(inner, "attr", None)))
                if named[node.name] == own:
                    uncalled.append(node.name)
    return sorted(uncalled)


def test_the_check_sees_a_private_function_without_a_caller():
    a = "def _used():\n    return _loop()\n\ndef _loop():\n    return 1\n"
    b = ("import a\n\ndef _alone(n):\n    return _alone(n - 1)\n\n"
         "class C:\n    def _method(self):\n        return a._used()\n")
    assert uncalled_private_functions([a, b]) == ["_alone", "_method"]


def test_every_private_function_has_a_caller():
    sources = []
    for module in MODULES + ["__init__.py"]:
        with open(os.path.join(SRC, module), encoding="utf-8") as fh:
            sources.append(fh.read())
    assert uncalled_private_functions(sources) == []


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


def test_importing_the_package_loads_no_dataclasses_inspect_or_typing():
    # -S keeps site from loading typing before hilb2 is imported
    env = dict(os.environ, PYTHONPATH=os.path.normpath(os.path.join(SRC, os.pardir)))
    code = ("import hilb2, sys; "
            "print(sorted({'dataclasses', 'inspect', 'typing'} & set(sys.modules)))")
    done = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                          capture_output=True, text=True, check=True, timeout=60)
    assert done.stdout == "[]\n"
