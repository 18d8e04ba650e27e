"""The README's examples: every JSON block loads, and every `$ hilb2 ...`
session prints exactly what the README shows."""

import os
import re
import shlex

import pytest

from hilb2 import cli, load_descriptor

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "README.md")
with open(README, encoding="utf-8") as fh:
    BLOCKS = re.findall(r"^```(\w*)\n(.*?)^```$", fh.read(), re.M | re.S)

JSON_BLOCKS = [body for lang, body in BLOCKS if lang == "json"]
SESSIONS = [
    (line[len("$ hilb2 "):], expected)
    for lang, body in BLOCKS if not lang
    for line, expected in re.findall(r"^(\$ hilb2 .*)\n((?:(?!\$ ).*\n)*)",
                                     body, re.M)
]


def test_readme_has_examples():
    assert len(JSON_BLOCKS) >= 2 and len(SESSIONS) >= 4


@pytest.mark.parametrize("text", JSON_BLOCKS,
                         ids=[f"block{i}" for i in range(len(JSON_BLOCKS))])
def test_readme_json_blocks_load(text):
    load_descriptor(text)


@pytest.mark.parametrize("command,expected", SESSIONS,
                         ids=[command for command, _ in SESSIONS])
def test_readme_sessions_replay(command, expected, capsys):
    assert cli.main(shlex.split(command)) == 0
    assert capsys.readouterr().out == expected
