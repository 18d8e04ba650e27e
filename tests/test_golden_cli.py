"""CLI output on the catalog, pinned byte for byte.

For every catalog entry a fixed list of commands runs through cli.main,
and its exit code, stdout and stderr must equal the stored record in
golden_cli.json. To rewrite the record after a deliberate output change:

    PYTHONPATH=src python tests/test_golden_cli.py
"""

import json
import os

import pytest

from conftest import run
from hilb2 import catalog_names

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "golden_cli.json")


def commands(name):
    return ([["validate", name], ["validate", name, "--json"]]
            + [["betti", name, "--space", space]
               for space in ("x", "exceptional", "sym2", "config", "hilb2")]
            + [["betti", name, "--space", "hilb2", "--method", "both",
                "--format", "json"],
               ["kernel", name], ["kernel", name, "--generators"],
               ["integral", name, "--space", "sym2"],
               ["check", name], ["check", name, "--json", "--seed", "3"],
               ["catalog", "show", name], ["catalog", "export", name]])


def record():
    return {name: [run(argv) for argv in commands(name)]
            for name in catalog_names()}


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


def test_golden_covers_the_catalog(golden):
    assert sorted(golden) == sorted(catalog_names())


@pytest.mark.parametrize("name", catalog_names())
def test_cli_output_on_catalog_entry(name, golden):
    for expected in golden[name]:
        assert run(expected[0]) == expected


if __name__ == "__main__":
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(record(), fh, indent=1)
        fh.write("\n")
