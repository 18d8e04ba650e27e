"""Every name a hilb2 module imports is used in that module, no module
counts with collections.Counter (its constructor and + run as Python code,
and plain dicts made every check measurably faster), no module spells an
integral flag key outside the IntegralFlags declaration, no module but
spaces, which writes and parses descriptor text, spells a key of the
format, every private function of the package has a caller, the package
exports exactly the names of its export table, importing it loads none of
its modules until one is used, a command loads only the modules it uses,
and loading them all loads no dataclasses, inspect or typing.

The source checks read with the standard-library ast module only.
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
MODULES = sorted(f for f in os.listdir(SRC) if f.endswith(".py"))
# the modules whose names the package exports; cli is its front end
PACKAGE_MODULES = ["betti", "catalog", "exdiv", "gf2", "kernel", "report",
                   "spaces", "steenrod", "verify"]


def unused_imports(source):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom):
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


def counter_uses(source):
    """The lines that import collections.Counter or name it as an attribute
    of collections."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module == "collections":
            lines += [node.lineno for alias in node.names if alias.name == "Counter"]
        elif (isinstance(node, ast.Attribute) and node.attr == "Counter"
              and isinstance(node.value, ast.Name) and node.value.id == "collections"):
            lines.append(node.lineno)
    return sorted(lines)


def test_the_check_sees_a_counter():
    assert counter_uses("from collections import Counter as C, deque\n"
                        "import collections\nc = collections.Counter()\n"
                        "q = collections.deque()\n") == [1, 3]


@pytest.mark.parametrize("module", MODULES)
def test_no_module_counts_with_counter(module):
    with open(os.path.join(SRC, module), encoding="utf-8") as fh:
        assert counter_uses(fh.read()) == [], module


def flag_key_literals(source):
    """The lines of the string literals that are exactly an IntegralFlags
    field name, such as a dict key or a subscript. The declaration's one
    string of every name, docstrings and messages that mention a flag are
    not field names, so they pass."""
    fields = set(hilb2.IntegralFlags._fields)
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Constant) and isinstance(node.value, str)
                  and node.value in fields)


def test_the_check_sees_a_flag_key_literal():
    assert flag_key_literals(
        'F = namedtuple("F", "two_torsion_free torsion_free")\n'
        'def f(d):\n    """d["torsion_free"] is read by field."""\n'
        '    return {"torsion_free": d.torsion_free}, "needs torsion_free"\n'
        'g = d["even_degrees_only"]\n') == [4, 5]


@pytest.mark.parametrize("module", MODULES)
def test_only_integral_flags_spells_the_flag_keys(module):
    with open(os.path.join(SRC, module), encoding="utf-8") as fh:
        assert flag_key_literals(fh.read()) == [], module


# the keys of the descriptor format that only its writer and parser spell
FORMAT_KEYS = {"complex_dimension", "compact", "classes", "from", "result"}


def format_key_literals(source):
    """The lines of the string literals that are exactly a key of the
    descriptor format; a docstring that shows the format is not one."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Constant)
                  and node.value in FORMAT_KEYS)


def test_the_check_sees_a_format_key_literal():
    assert format_key_literals(
        'def f(n):\n    """Writes {"compact": true, "classes": []}."""\n'
        '    return {"complex_dimension": n, "k": 1, "from": "h"}\n'
        'g = d["result"]\n') == [3, 3, 4]


@pytest.mark.parametrize("module", sorted(set(MODULES) - {"spaces.py"}))
def test_only_spaces_spells_the_format_keys(module):
    with open(os.path.join(SRC, module), encoding="utf-8") as fh:
        assert format_key_literals(fh.read()) == [], module


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
    for module in MODULES:
        with open(os.path.join(SRC, module), encoding="utf-8") as fh:
            sources.append(fh.read())
    assert uncalled_private_functions(sources) == []


# the public names, pinned so that any change to the export table shows here
EXPORTS = [
    "BettiTable", "DescriptorError", "GroupProfile", "IntegralFlags",
    "InvalidDescriptor", "KernelGenerator", "ManifoldDescriptor",
    "NegativeRank", "Report", "Sq1NotZero", "TorsionFlagRequired",
    "UnknownCatalogName", "UnknownClass", "UnstableModule", "adem_expand",
    "betti_config", "betti_exceptional", "betti_hilb2_closed",
    "betti_hilb2_exact", "betti_of_x", "betti_sym2_f2", "catalog_get",
    "catalog_names", "catalog_text", "check_duality", "check_euler",
    "coefficient", "corollary_check", "descriptor_to_json",
    "descriptor_violations", "format_exclass", "hilb_restriction",
    "integral_sym2", "is_sq1_zero", "kernel_dimensions", "kernel_generators",
    "known_answers", "ladder", "load_descriptor", "parse_descriptor",
    "redundant_degrees", "run_suite", "span_dims_by_degree", "sq",
    "validate_module", "__version__"]


def test_the_package_exports_exactly_the_names_of_its_table():
    assert hilb2.__all__ == EXPORTS
    for module, names in hilb2._EXPORTS.items():
        for name in names:
            assert getattr(hilb2, name) is getattr(getattr(hilb2, module), name), name
    assert hilb2.validate_module is hilb2.steenrod.validate
    star = {}
    exec("from hilb2 import *", star)
    assert star.keys() - {"__builtins__"} == set(hilb2.__all__)
    assert not [name for name, value in star.items()
                if isinstance(value, types.ModuleType)]
    assert set(hilb2.__all__) <= set(dir(hilb2))


def test_an_unknown_name_is_not_in_the_package():
    with pytest.raises(AttributeError, match="module 'hilb2' has no attribute 'nope'"):
        hilb2.nope
    with pytest.raises(ImportError, match="cannot import name 'nope' from 'hilb2'"):
        exec("from hilb2 import nope", {})


def run_without_site(code):
    """The stdout of `python -S -c code` with the package on its path; -S
    keeps site from loading modules before the code runs."""
    env = dict(os.environ, PYTHONPATH=os.path.normpath(os.path.join(SRC, os.pardir)))
    done = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                          capture_output=True, text=True, check=True, timeout=60)
    return done.stdout


LOADED = "sorted(m for m in sys.modules if m.startswith('hilb2'))"


def test_a_lazy_import_stays_lazy():
    out = run_without_site(
        f"import hilb2, sys; print({LOADED}); hilb2.load_descriptor; print({LOADED}); "
        f"print([getattr(hilb2, m).__name__ for m in {PACKAGE_MODULES}])")
    assert out.splitlines() == [
        "['hilb2']",
        "['hilb2', 'hilb2.gf2', 'hilb2.report', 'hilb2.spaces', 'hilb2.steenrod']",
        str([f"hilb2.{m}" for m in PACKAGE_MODULES])]


@pytest.mark.parametrize("argv,extra", [
    (["validate", "p2"], []), (["catalog", "show", "p2"], []),
    (["kernel", "p2"], ["exdiv", "kernel"]),
    (["check", "p2"], ["betti", "exdiv", "kernel", "verify"])])
def test_a_command_loads_only_the_modules_it_uses(argv, extra):
    out = run_without_site(
        f"import hilb2.cli, sys; code = hilb2.cli.main({argv}); print(code, {LOADED})")
    used = ["catalog", "cli", "gf2", "report", "spaces", "steenrod"] + extra
    assert out.splitlines()[-1] == f"0 {['hilb2'] + [f'hilb2.{m}' for m in sorted(used)]}"


def test_importing_the_package_loads_no_dataclasses_inspect_or_typing():
    out = run_without_site(
        "import hilb2.cli, sys; from hilb2 import *; "
        "print(len([m for m in sys.modules if m.startswith('hilb2.')])); "
        "print(sorted({'dataclasses', 'inspect', 'typing'} & set(sys.modules)))")
    assert out == "10\n[]\n"
