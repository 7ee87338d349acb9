"""``cli._emit_json`` prints exactly what ``json.dumps(indent=2, sort_keys=True)`` prints.

It takes what a payload holds (dicts with ``str`` keys, lists, strings,
ints, bools and None) and refuses anything else with ``TypeError``.  The
property test names one counterexample per planted fault in
``_json_text``, so each plant fails it on an explicit example, with no
search and no example database.
"""

import inspect
import io
import json
from contextlib import redirect_stdout

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from whlink import cli

texts = st.text() | st.text(st.sampled_from('a"\\/\n\t\x00\x1f\x7fé€ 😀'))
leaves = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-(10**400), max_value=10**400)
    | texts
)
trees = st.recursive(
    leaves,
    lambda children: st.lists(children)
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
@example([1, 2])  # the item separator
@example({"b": 0, "a": 0})  # key order
@example(['"'])  # and the three below: strings that _quote escapes
@example(["\\"])
@example(["\x00"])
@example(["é"])
def test_emitter_prints_what_json_dumps_prints(payload):
    assert agrees(cli._emit_json, payload)


@pytest.mark.parametrize(
    "payload",
    [
        {},
        [],
        ["", ""],
        {"a": [], "b": {}, "c": [[]]},
        [[], {}, [[]], [{}], {"x": []}, {"y": {}}],
        {"deep": {"er": [{"est": [[], {}, ""]}]}},
        ["1", 2, "3", None, True, False, -4, [], "é\"\\"],
        {"strings": ["a", "b"], "mixed": ["a", 1], "ints": [1, -2, 10**100]},
        ["t", "u"],
        "top-level string",
        7,
        None,
    ],
)
def test_emitter_on_mixed_lists_and_empty_containers(payload):
    assert agrees(cli._emit_json, payload)


@pytest.mark.parametrize(
    "payload",
    [-4.5, float("nan"), ("t", "u"), {"a": ["b", ()]}, {1: "one"}],
    ids=["float", "nan", "tuple", "nested tuple", "non-str key"],
)
def test_emitter_refuses_what_no_payload_holds(payload):
    with pytest.raises(TypeError):
        cli._emit_json(payload)


# each plant, and the explicit example of the property test that it fails
CAUGHT_BY = {
    'sep = ", \\n" + inner': [1, 2],  # ", " as the item separator
    "for k in value": {"b": 0, "a": 0},  # keys left unsorted
    # strings joined between plain quotes though one holds a '"'
    "plain is not None": ['"'],
}


@pytest.mark.parametrize(
    "correct, planted",
    [
        ('sep = ",\\n" + inner', 'sep = ", \\n" + inner'),
        ("for k in sorted(value)", "for k in value"),
        ("plain is not None and len(_quote(plain)) == len(plain) + 2", "plain is not None"),
    ],
)
def test_planted_fault_fails_the_property(monkeypatch, correct, planted):
    source = inspect.getsource(cli._json_text)
    assert source.count(correct) == 1
    namespace = {"_quote": cli._quote}
    exec(source.replace(correct, planted), namespace)
    faulty = namespace["_json_text"]
    monkeypatch.setattr(cli, "_emit_json", lambda payload: print(faulty(payload, "")))
    with pytest.raises(Exception) as info:
        test_emitter_prints_what_json_dumps_prints()
    # one failure, or a group of them when more than one example fails
    failures = getattr(info.value, "exceptions", [info.value])
    assert all(isinstance(failure, AssertionError) for failure in failures)
    notes = ["\n".join(getattr(failure, "__notes__", [])) for failure in failures]
    assert all("Falsifying explicit example" in note for note in notes)
    assert any(f"payload={CAUGHT_BY[planted]!r}," in note for note in notes)


def test_a_cover_quotes_its_keys_not_its_coefficients(monkeypatch):
    # _quote runs on each dict key, each string a dict holds and once on each
    # list of strings, never on a coefficient: the base link's Delta has 8401
    calls = []
    quote = cli._quote
    monkeypatch.setattr(cli, "_quote", lambda s: calls.append(s) or quote(s))
    argv = ["cover", "--weights", "1,1,3", "--degree", "31", "-k", "158", "--format", "json"]
    out = io.StringIO()
    with redirect_stdout(out):
        assert cli.main(argv) == 0
    payload = json.loads(out.getvalue())

    def quoted(value) -> int:
        if isinstance(value, dict):
            return sum(1 + isinstance(v, str) + quoted(v) for v in value.values())
        if isinstance(value, list):
            strings = bool(value) and all(isinstance(v, str) for v in value)
            return strings + sum(map(quoted, value))
        return 0

    assert len(payload["base"]["delta_poly"]) == 8401
    assert "".join(payload["base"]["delta_poly"]) in calls  # quoted once, joined
    assert len(calls) == quoted(payload) == 50
