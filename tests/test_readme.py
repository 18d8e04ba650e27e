"""The README's examples: every JSON block loads, every `$ hilb2 ...`
session prints exactly what the README shows, and every python block runs
and prints the value that each `# <literal>` comment shows."""

import ast
import contextlib
import io
import os
import re
import shlex
import tokenize

import pytest

from hilb2 import cli, load_descriptor

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "README.md")
with open(README, encoding="utf-8") as fh:
    BLOCKS = re.findall(r"^```(\w*)\n(.*?)^```$", fh.read(), re.M | re.S)

JSON_BLOCKS = [body for lang, body in BLOCKS if lang == "json"]
PYTHON_BLOCKS = [body for lang, body in BLOCKS if lang == "python"]
SESSIONS = [
    (line[len("$ hilb2 "):], expected)
    for lang, body in BLOCKS if not lang
    for line, expected in re.findall(r"^(\$ hilb2 .*)\n((?:(?!\$ ).*\n)*)",
                                     body, re.M)
]


def test_readme_has_examples():
    assert len(JSON_BLOCKS) >= 2 and len(SESSIONS) >= 4 and PYTHON_BLOCKS


@pytest.mark.parametrize("text", JSON_BLOCKS,
                         ids=[f"block{i}" for i in range(len(JSON_BLOCKS))])
def test_readme_json_blocks_load(text):
    load_descriptor(text)


@pytest.mark.parametrize("command,expected", SESSIONS,
                         ids=[command for command, _ in SESSIONS])
def test_readme_sessions_replay(command, expected, capsys):
    assert cli.main(shlex.split(command)) == 0
    assert capsys.readouterr().out == expected


def printed_values(code):
    """[(stdout, value)] for each top-level statement of code whose last
    line ends in a comment that ast.literal_eval reads; every statement is
    run, in order, in one namespace."""
    comments = {tok.start[0]: tok.string[1:].strip()
                for tok in tokenize.generate_tokens(io.StringIO(code).readline)
                if tok.type == tokenize.COMMENT}
    namespace, out = {}, []
    for stmt in ast.parse(code).body:
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            exec(compile(ast.Module([stmt], []), README, "exec"), namespace)
        try:
            value = ast.literal_eval(comments.get(stmt.end_lineno, ""))
        except (ValueError, SyntaxError):
            continue
        out.append((stdout.getvalue(), value))
    return out


@pytest.mark.parametrize("code", PYTHON_BLOCKS,
                         ids=[f"block{i}" for i in range(len(PYTHON_BLOCKS))])
def test_readme_python_blocks_print_their_comments(code):
    checked = printed_values(code)
    assert checked
    for stdout, value in checked:
        assert stdout == f"{value}\n"
