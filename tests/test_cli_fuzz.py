"""Fuzzing `hilb2 validate`: any file ends in exit code 0, 1 or 2, never in
an exception."""

import io
import json
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hilb2 import catalog_names, catalog_text, cli

CATALOG = {name: catalog_text(name) for name in catalog_names()}

# values of other JSON types to swap in
OTHER = st.one_of(st.none(), st.booleans(), st.integers(-3, 40),
                  st.text(max_size=4), st.lists(st.integers(0, 3), max_size=3),
                  st.just({}))


def _paths(obj, prefix=()):
    """The path of every value nested inside obj."""
    if isinstance(obj, dict):
        items = obj.items()
    elif isinstance(obj, list):
        items = enumerate(obj)
    else:
        return
    for key, value in items:
        yield prefix + (key,)
        yield from _paths(value, prefix + (key,))


@st.composite
def mutated_catalog(draw):
    """A catalog entry with a few keys deleted or values swapped."""
    obj = json.loads(CATALOG[draw(st.sampled_from(sorted(CATALOG)))])
    for _ in range(draw(st.integers(1, 3))):
        paths = list(_paths(obj))
        if not paths:
            break
        path = draw(st.sampled_from(paths))
        parent = obj
        for key in path[:-1]:
            parent = parent[key]
        if draw(st.booleans()):
            del parent[path[-1]]
        else:
            parent[path[-1]] = draw(OTHER)
    return json.dumps(obj).encode()


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.one_of(st.binary(max_size=200), mutated_catalog()))
def test_validate_ends_in_an_exit_code(tmp_path, data):
    path = tmp_path / "input.json"
    path.write_bytes(data)
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        code = cli.main(["validate", str(path)])
    assert code in (0, 1, 2)
