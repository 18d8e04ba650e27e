"""CLI output on three benchmark-shaped products, pinned byte for byte.

K3 x P^1, P^2 x P^3 and Enriques x P^1 (the last with Sq^1 != 0, so its
kernel has generators of families 3 and 4) are built with the benchmark's
generators in bench/inputs.py and written as descriptor files. Four
commands run on each through cli.main, and their exit code, stdout and
stderr must equal the stored record in golden_products.json. To rewrite
the record after a deliberate output change:

    PYTHONPATH=src python tests/test_golden_products.py
"""

import json
import os
import sys
import tempfile

import pytest

from conftest import run
from hilb2 import catalog_text

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join(HERE, "golden_products.json")
sys.path.insert(0, os.path.join(HERE, os.pardir, "bench"))
import inputs  # noqa: E402  (the benchmark's descriptor generators)


def products():
    k3 = json.loads(catalog_text("k3"))
    enriques = json.loads(catalog_text("enriques_x"))
    p = {n: inputs.projective(n) for n in (1, 2, 3)}
    return {"k3xp1": inputs.product(k3, p[1]),
            "p2xp3": inputs.product(p[2], p[3]),
            "enriquesxp1": inputs.product(enriques, p[1])}


def commands(path):
    return [["validate", path, "--json"],
            ["kernel", path, "--generators"],
            ["check", path, "--json", "--seed", "3"],
            ["betti", path, "--space", "hilb2", "--method", "both",
             "--format", "json"]]


def write_products(folder):
    """Write each product as <name>.json in folder; return the names."""
    descs = products()
    for name, desc in descs.items():
        with open(os.path.join(folder, f"{name}.json"), "w",
                  encoding="utf-8") as fh:
            json.dump(desc, fh)
    return list(descs)


def record(folder):
    """The record, run from folder so that argv holds bare file names."""
    names = write_products(folder)
    cwd = os.getcwd()
    os.chdir(folder)
    try:
        return {name: [run(argv) for argv in commands(f"{name}.json")]
                for name in names}
    finally:
        os.chdir(cwd)


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


def test_golden_covers_the_products(golden):
    assert sorted(golden) == sorted(products())
    assert all(len(golden[name]) == 4 for name in golden)


@pytest.mark.parametrize("name", sorted(products()))
def test_cli_output_on_product(name, golden, tmp_path, monkeypatch):
    write_products(tmp_path)
    monkeypatch.chdir(tmp_path)
    for expected in golden[name]:
        assert run(expected[0]) == expected


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as folder:
        rec = record(folder)
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(rec, fh, indent=1)
        fh.write("\n")
