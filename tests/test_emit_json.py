"""``cli._emit_json`` prints exactly what ``json.dumps(indent=2, sort_keys=True)`` prints."""

import inspect
import io
import json
from contextlib import redirect_stdout

import pytest
from hypothesis import find, given, settings
from hypothesis import strategies as st

from whlink import cli

texts = st.text() | st.text(st.sampled_from('a"\\/\n\t\x00\x1f\x7fé€ 😀'))
leaves = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-(10**400), max_value=10**400)
    | st.floats()
    | texts
)
trees = st.recursive(
    leaves,
    lambda children: st.lists(children)
    | st.lists(children).map(tuple)
    | st.lists(texts)
    # delta_poly's digit strings, and now and then a character _quote escapes
    | st.lists(st.integers().map(str) | st.sampled_from('"\\\x00\n\x7fé'))
    | st.dictionaries(texts, children),
    max_leaves=40,
)


def printed(emit, payload) -> str:
    out = io.StringIO()
    with redirect_stdout(out):
        emit(payload)
    return out.getvalue()


def agrees(emit, payload) -> bool:
    return printed(emit, payload) == json.dumps(payload, indent=2, sort_keys=True) + "\n"


@settings(max_examples=150, deadline=None)
@given(trees)
def test_emitter_prints_what_json_dumps_prints(payload):
    assert agrees(cli._emit_json, payload)


@pytest.mark.parametrize(
    "payload",
    [
        {},
        [],
        (),
        {"a": [], "b": {}, "c": ()},
        [[], {}, [[]], [{}], {"x": []}, {"y": {}}],
        {"deep": {"er": [{"est": [[], {}, ""]}]}},
        ["1", 2, "3", None, True, False, -4.5, [], "é\"\\"],
        {"strings": ["a", "b"], "mixed": ["a", 1], "ints": [1, -2, 10**100]},
        ("t", "u"),
        "top-level string",
        7,
        None,
        float("nan"),
    ],
)
def test_emitter_on_mixed_lists_and_empty_containers(payload):
    assert agrees(cli._emit_json, payload)


def test_emitter_refuses_a_non_string_key():
    with pytest.raises(TypeError):
        cli._emit_json({1: "one"})


@pytest.mark.parametrize(
    "correct, planted",
    [
        ('sep = ",\\n" + inner', 'sep = ", \\n" + inner'),  # ", " as the item separator
        ("for k in sorted(value)", "for k in value"),  # keys left unsorted
        # strings joined between plain quotes though one holds a '"', or a
        # control character
        ("plain.isprintable() and '\"' not in plain", "plain.isprintable()"),
        ("plain.isascii() and plain.isprintable()", "plain.isascii()"),
    ],
)
def test_planted_fault_fails_the_property(correct, planted):
    source = inspect.getsource(cli._json_text)
    assert source.count(correct) == 1
    namespace = {"json": json, "_quote": cli._quote}
    exec(source.replace(correct, planted), namespace)
    faulty = namespace["_json_text"]
    find(trees, lambda payload: not agrees(lambda p: print(faulty(p, "")), payload))


def test_a_cover_quotes_its_keys_not_its_coefficients(monkeypatch):
    # _quote runs on each dict key and each string a dict holds, never on a
    # coefficient: the base link's Delta has 8401 of them
    calls = []
    quote = cli._quote
    monkeypatch.setattr(cli, "_quote", lambda s: calls.append(s) or quote(s))
    argv = ["cover", "--weights", "1,1,3", "--degree", "31", "-k", "158", "--format", "json"]
    out = io.StringIO()
    with redirect_stdout(out):
        assert cli.main(argv) == 0
    payload = json.loads(out.getvalue())

    def keys_and_strings(value) -> int:
        if isinstance(value, dict):
            return sum(1 + isinstance(v, str) + keys_and_strings(v) for v in value.values())
        if isinstance(value, list):
            return sum(map(keys_and_strings, value))
        return 0

    assert len(payload["base"]["delta_poly"]) == 8401
    assert len(calls) == keys_and_strings(payload) == 49
