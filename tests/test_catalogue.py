import ast
import contextlib
import gc
import json
import sys
import threading
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from forge import catalogue
from forge.catalogue import (TYPE_TAGS, CatalogueError, dump_json, load_catalogue, parse_json,
                             parse_catalogue, required_args)
from forge.retrieval import HashEmbedder, ToolIndex, nearest_distractors

from conftest import CATALOGUE_TOOLS, SEED_TOOL, json_encoder_garbage


def write_catalogue(tmp_path, tools):
    path = tmp_path / "catalogue.json"
    path.write_text(json.dumps(tools), encoding="utf-8")
    return path


def render_all(cat):
    return cat.render(cat.names())


def test_load_sample_catalogue(tmp_path):
    path = write_catalogue(tmp_path, CATALOGUE_TOOLS)
    cat = load_catalogue(path)
    assert len(cat) == 6
    assert SEED_TOOL in cat
    tool = cat.get(SEED_TOOL)
    assert list(tool.params) == ["nodeId", "transportRequestId"]


def test_single_tool_catalogue(tmp_path):
    path = write_catalogue(tmp_path, [CATALOGUE_TOOLS[0]])
    cat = load_catalogue(path)
    assert len(cat) == 1


def test_empty_catalogue_rejected(tmp_path):
    path = write_catalogue(tmp_path, [])
    with pytest.raises(CatalogueError, match="at least one tool"):
        load_catalogue(path)


def test_duplicate_names_rejected(tmp_path):
    path = write_catalogue(tmp_path, [CATALOGUE_TOOLS[0], CATALOGUE_TOOLS[0]])
    with pytest.raises(CatalogueError, match="duplicate"):
        load_catalogue(path)


def test_malformed_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("[{", encoding="utf-8")
    with pytest.raises(CatalogueError, match="malformed"):
        load_catalogue(path)


def test_missing_file(tmp_path):
    with pytest.raises(CatalogueError, match="cannot read"):
        load_catalogue(tmp_path / "nope.json")


def test_unknown_type_tag():
    bad = [{"name": "t", "description": "d",
            "parameters": {"p": {"type": "float", "description": "x", "required": True}}}]
    with pytest.raises(CatalogueError, match="unknown type"):
        parse_catalogue(json.dumps(bad))


def test_missing_param_key():
    bad = [{"name": "t", "description": "d",
            "parameters": {"p": {"type": "string", "description": "x"}}}]
    with pytest.raises(CatalogueError, match="missing key 'required'"):
        parse_catalogue(json.dumps(bad))


def test_missing_tool_key():
    with pytest.raises(CatalogueError, match="missing key"):
        parse_catalogue(json.dumps([{"name": "t", "description": "d"}]))


_PARAM = {"type": "string", "description": "x", "required": True}
_TOOL = {"name": "t", "description": "d", "parameters": {"p": _PARAM}}


def _without(d, key):
    return {k: v for k, v in d.items() if k != key}


def _with_param(**change):
    return [{**_TOOL, "parameters": {"p": {**_PARAM, **change}}}]


@pytest.mark.parametrize("entries, message", [
    (["t"], "tool entry must be a JSON object"),
    ([_without(_TOOL, "name")], "tool entry missing key 'name'"),
    ([_without(_TOOL, "description")], "tool entry missing key 'description'"),
    ([_without(_TOOL, "parameters")], "tool entry missing key 'parameters'"),
    ([{**_TOOL, "name": ""}], "tool name must be a non-empty string"),
    ([{**_TOOL, "description": 3}], "tool 't': description must be a string"),
    ([{**_TOOL, "parameters": []}], "tool 't': parameters must be an object"),
    ([{**_TOOL, "parameters": {"p": "string"}}], "tool 't': parameter 'p' must be an object"),
    ([{**_TOOL, "parameters": {"p": _without(_PARAM, "type")}}],
     "tool 't': parameter 'p' missing key 'type'"),
    ([{**_TOOL, "parameters": {"p": _without(_PARAM, "description")}}],
     "tool 't': parameter 'p' missing key 'description'"),
    ([{**_TOOL, "parameters": {"p": _without(_PARAM, "required")}}],
     "tool 't': parameter 'p' missing key 'required'"),
    (_with_param(type="float"), "tool 't': parameter 'p' has unknown type 'float'"),
    (_with_param(type=["string"]), "tool 't': parameter 'p' has unknown type ['string']"),
    (_with_param(description=""), "tool 't': parameter 'p' description must be non-empty"),
    (_with_param(required="yes"), "tool 't': parameter 'p' required must be boolean"),
    ([_TOOL, _TOOL], "duplicate tool name: 't'"),
    ("[" * 5000, "malformed catalogue JSON: maximum recursion depth exceeded while "
                 "decoding a JSON array from a unicode string"),
    ("[" + "1" * 5000 + "]", "malformed catalogue JSON: Exceeds the limit (4300 digits) for "
                             "integer string conversion: value has 5000 digits; use "
                             "sys.set_int_max_str_digits() to increase the limit"),
], ids=["entry-not-object", "missing-name", "missing-description", "missing-parameters",
        "empty-name", "description-not-string", "parameters-not-object", "param-not-object",
        "param-missing-type", "param-missing-description", "param-missing-required",
        "unknown-type", "list-type", "empty-param-description", "required-not-boolean",
        "duplicate-name", "nested-past-recursion-limit", "integer-past-digit-limit"])
def test_catalogue_error_messages(entries, message):
    """Each fault's message; a str row is the file text itself."""
    with pytest.raises(CatalogueError) as exc:
        parse_catalogue(entries if isinstance(entries, str) else json.dumps(entries))
    assert str(exc.value) == message


@pytest.mark.parametrize("text", [
    '"caf\\ud83d"', '["ok", {"k": "\\udc00 first"}]', '{"\\ud800": 1}',
    '"\\ude00\\ud83d"', b'"caf\\ud83d"', b'"caf\xed\xa0\xbd"',
], ids=["high-escape", "nested-low-escape", "key", "pair-in-the-wrong-order", "bytes-escape",
        "bytes-encoded-surrogate"])
def test_parse_json_refuses_a_lone_surrogate(text):
    """UTF-8 cannot encode a lone surrogate, so a fingerprint, a prompt or
    a written line would fail on it: ``parse_json`` refuses one, whether a
    JSON escape or (in bytes) an encoded surrogate brings it in."""
    with pytest.raises(ValueError, match="lone surrogate|can't decode"):
        parse_json(text)


@pytest.mark.parametrize("text, value", [
    ('"\\ud83d\\ude00 \\u00e9"', "\U0001f600 \u00e9"),
    ('"\\\\ud83d"', "\\ud83d"),  # an escaped backslash, then plain text
    (b'"\xf0\x9f\x98\x80"', "\U0001f600"),
    (b'\xef\xbb\xbf"\xc3\xa9"', "\u00e9"),  # json.loads skips a UTF-8 BOM on bytes too
], ids=["surrogate-pair-escape", "escaped-backslash", "bytes", "bytes-with-utf8-bom"])
def test_parse_json_reads_text_utf8_can_encode(text, value):
    assert parse_json(text) == value


def test_parse_json_is_the_one_decoder_of_outside_json():
    """In ``src/forge``, only ``parse_json`` calls ``json.loads`` or names
    RecursionError, and nothing calls a reply's ``.json()``: what malformed
    JSON raises is decided in one place."""
    found = []
    for path in sorted(Path(catalogue.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        exempt = {id(node) for top in tree.body
                  if path.name == "catalogue.py" and isinstance(top, ast.FunctionDef)
                  and top.name == "parse_json" for node in ast.walk(top)}
        for node in ast.walk(tree):
            if id(node) in exempt:
                continue
            if (isinstance(node, ast.Attribute) and node.attr == "loads"
                    and isinstance(node.value, ast.Name) and node.value.id == "json"):
                found.append(f"{path.name}:{node.lineno}: json.loads")
            elif isinstance(node, ast.ImportFrom) and node.module == "json":
                found.append(f"{path.name}:{node.lineno}: from json import")
            elif isinstance(node, ast.Name) and node.id == "RecursionError":
                found.append(f"{path.name}:{node.lineno}: RecursionError")
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                  and node.func.attr == "json"):
                found.append(f"{path.name}:{node.lineno}: .json()")
    assert found == []


def test_no_module_reads_an_input_file_as_text():
    """In ``src/forge`` nothing calls ``.read_text(`` and no ``open`` reads in
    text mode (a mode with none of ``b``, ``w``, ``a`` or ``x``): every input
    reaches ``parse_json`` as bytes, so its UTF-8 and BOM rules have one owner."""
    found = []
    for path in sorted(Path(catalogue.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name == "read_text":
                found.append(f"{path.name}:{node.lineno}: .read_text()")
            elif name == "open":
                # open(file, mode) takes the mode second, Path.open(mode) first
                args = node.args[1:] if isinstance(func, ast.Name) else node.args
                mode = next((k.value for k in node.keywords if k.arg == "mode"),
                            args[0] if args else ast.Constant("r"))
                if not (isinstance(mode, ast.Constant) and set(str(mode.value)) & set("bwax")):
                    found.append(f"{path.name}:{node.lineno}: open() in text mode")
    assert found == []


def test_dump_json_is_the_one_writer_of_indented_json():
    """In ``src/forge`` no call passes ``indent=`` to ``json.dumps`` or
    ``JSONEncoder``, which would select json's pure-Python encoder, and
    ``export.py`` calls no ``json.dumps``: it splices each line from
    per-message encodings."""
    found = []
    for path in sorted(Path(catalogue.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name in ("dumps", "JSONEncoder") and any(k.arg == "indent" for k in node.keywords):
                found.append(f"{path.name}:{node.lineno}: {name}(indent=...)")
            elif path.name == "export.py" and name == "dumps":
                found.append(f"{path.name}:{node.lineno}: dumps")
    assert found == []


def _wide_catalogue(n_tools: int) -> list[dict]:
    """``n_tools`` tools of four parameters each, the shape of a paper-scale catalogue."""
    return [{"name": f"tool_{i}", "description": f"does thing {i} for the operator",
             "parameters": {f"p{j}": {"type": TYPE_TAGS[(i + j) % len(TYPE_TAGS)],
                                      "description": f"value {j}", "required": j < 2}
                            for j in range(4)}}
            for i in range(n_tools)]


def test_parse_catalogue_runs_no_gc_collection():
    """A 5,000-tool parse allocates about 6 containers per tool and makes no
    cycle: with the collector paused it starts no collection."""
    text = json.dumps(_wide_catalogue(5000))
    starts = []

    def note(phase, info):
        if phase == "start":
            starts.append(info["generation"])

    assert gc.isenabled()
    gc.callbacks.append(note)
    try:
        cat = parse_catalogue(text)
    finally:
        gc.callbacks.remove(note)
    assert len(cat) == 5000 and starts == []


def test_only_the_catalogue_parse_pauses_the_gc():
    """In ``src/forge`` only ``catalogue.py`` imports ``gc`` or names
    ``no_gc``, and there ``no_gc`` decorates ``parse_catalogue`` alone: an
    index block frees what it makes, so a pause there saves no collection."""
    found = []
    for path in sorted(Path(catalogue.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        home = path.name == "catalogue.py"
        decorators = {id(dec) for fn in tree.body if home and isinstance(fn, ast.FunctionDef)
                      and fn.name == "parse_catalogue" for dec in fn.decorator_list}
        for node in ast.walk(tree):
            name = (node.id if isinstance(node, ast.Name)
                    else node.attr if isinstance(node, ast.Attribute)
                    else node.name if isinstance(node, ast.alias)
                    else node.module if isinstance(node, ast.ImportFrom) else None)
            if name == "gc" and not home or name == "no_gc" and id(node) not in decorators:
                found.append(f"{path.name}:{node.lineno}: {name}")
    assert found == []


@pytest.mark.parametrize("text", [
    json.dumps(CATALOGUE_TOOLS),
    json.dumps(CATALOGUE_TOOLS + CATALOGUE_TOOLS[:1]),
    "[" * 5000,
], ids=["valid", "duplicate-last-tool", "nested-past-recursion-limit"])
@pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
def test_parse_catalogue_restores_the_callers_gc_state(text, enabled):
    """The pause re-enables the collector only if the caller had it on, also
    when a CatalogueError leaves the paused region."""
    (gc.enable if enabled else gc.disable)()
    try:
        with contextlib.suppress(CatalogueError):
            parse_catalogue(text)
        after = gc.isenabled()
    finally:
        gc.enable()
    assert after is enabled


def test_required_args_filters_flags(cat):
    tool = cat.get("fn_3310_warehouse_resource_management")
    assert required_args(tool) == ["warehouseId"]


def test_required_args_empty_for_param_free(cat):
    assert required_args(cat.get("fn_6642_delivery_schedule_refresh")) == []


def test_required_args_seed_tool(cat):
    # both flags confirmed required in the fixture entry
    assert set(required_args(cat.get(SEED_TOOL))) == {"nodeId", "transportRequestId"}


def test_required_args_subset_of_params(cat):
    for tool in cat.tools:
        assert set(required_args(tool)) <= set(tool.params)


def test_load_is_pure_function_of_bytes(tmp_path):
    p1 = write_catalogue(tmp_path, CATALOGUE_TOOLS)
    assert render_all(load_catalogue(p1)) == render_all(load_catalogue(p1))


def test_round_trip_preserves_catalogue(tmp_path):
    path = write_catalogue(tmp_path, CATALOGUE_TOOLS)
    cat = load_catalogue(path)
    again = parse_catalogue(render_all(cat))
    assert render_all(again) == render_all(cat)
    assert [t.name for t in again.tools] == [t.name for t in cat.tools]


def test_extra_fields_preserved_on_round_trip():
    tools = [dict(CATALOGUE_TOOLS[0])]
    tools[0] = {**tools[0], "x-vendor": {"team": "scm"}}
    cat = parse_catalogue(json.dumps(tools))
    assert json.loads(render_all(cat))[0]["x-vendor"] == {"team": "scm"}


# ---------------------------------------------------------------------------
# a tool is built from its checked entry on first read


def _count_builds(monkeypatch) -> list[str]:
    """The names of the ``Tool`` objects constructed from now on, in order."""
    built, init = [], catalogue.Tool.__init__

    def counting(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self.name)

    monkeypatch.setattr(catalogue.Tool, "__init__", counting)
    return built


def test_a_distractor_query_builds_only_the_tools_it_reads(monkeypatch):
    """Loading 5,000 tools, indexing them and drawing one seed's k
    distractors, then reading the seed and each distractor as a dialogue
    does, builds those k + 1 tools and no other."""
    built = _count_builds(monkeypatch)
    cat = parse_catalogue(json.dumps(_wide_catalogue(5000)))
    tools = ToolIndex(cat, HashEmbedder(64))
    dset = nearest_distractors(tools, "tool_17", 5)
    for name in ["tool_17", *dset.names(), "tool_17"]:
        cat.get(name)
    assert sorted(built) == sorted(["tool_17", *dset.names()])


def test_tools_builds_once_in_catalogue_order():
    """``tools`` is every tool in catalogue order, equal to a fresh build,
    reusing those ``get`` built; after its first access it is a plain list."""
    text = json.dumps(CATALOGUE_TOOLS)
    cat = parse_catalogue(text)
    seed = cat.get(SEED_TOOL)
    assert cat.tools is cat.tools and isinstance(cat.tools, list)
    assert [t.name for t in cat.tools] == cat.names() == [t["name"] for t in CATALOGUE_TOOLS]
    assert cat.tools[cat.index[SEED_TOOL]] is seed
    assert all(cat.get(t.name) is t for t in cat.tools)
    fresh = parse_catalogue(text)
    assert cat.tools == [fresh.get(name) for name in fresh.names()]


def test_get_from_eight_threads_returns_equal_tools():
    """Eight threads that read one catalogue's tools at once, switching
    every microsecond, all get the one tool each name keeps, and it equals
    a fresh build: the built-tool map needs no lock."""
    cat, fresh = (parse_catalogue(json.dumps(CATALOGUE_TOOLS)) for _ in range(2))
    names = cat.names()
    start, got = threading.Barrier(8), [None] * 8

    def read(i):
        start.wait()
        got[i] = [cat.get(name) for name in (names if i % 2 else names[::-1])]

    threads = [threading.Thread(target=read, args=(i,)) for i in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for i, tools in enumerate(got):
        for tool in tools:
            assert tool is cat.get(tool.name) and tool == fresh.get(tool.name)
        assert sorted(tool.name for tool in tools) == sorted(names), i


# ---------------------------------------------------------------------------
# rendering: the spliced per-tool strings against one whole-list encoding

_text = st.text(alphabet=st.characters(codec="utf-8"), max_size=12)
# a catalogue file may hold NaN, which json.loads accepts
_json = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | _text,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_text, inner, max_size=3),
    max_leaves=6)
_param = st.fixed_dictionaries(
    {"type": st.sampled_from(TYPE_TAGS), "description": _text.filter(bool),
     "required": st.booleans()},
    optional={"x-extra": _json, "enum": st.lists(_text, max_size=3)})


@st.composite
def catalogues_and_names(draw):
    names = draw(st.lists(_text.filter(bool), min_size=1, max_size=5, unique=True))
    tools = [draw(st.fixed_dictionaries(
        {"name": st.just(n), "description": _text,
         "parameters": st.dictionaries(_text, _param, max_size=3)},
        optional={"x-vendor": _json, "tags": st.lists(_text, max_size=2)}))
        for n in names]
    picked = draw(st.lists(st.sampled_from(names), max_size=6))
    return parse_catalogue(json.dumps(tools)), picked


@settings(deadline=None)
@given(catalogues_and_names())
def test_render_matches_whole_list_encoding(drawn):
    cat, names = drawn
    expected = json.dumps([cat.get(n).to_dict() for n in names], ensure_ascii=False, indent=2)
    assert cat.render(names) == expected
    assert render_all(cat) == json.dumps([t.to_dict() for t in cat.tools],
                                         ensure_ascii=False, indent=2)
    for n in names:
        assert cat.get(n).json_text == json.dumps(cat.get(n).to_dict(),
                                                  ensure_ascii=False, indent=2)


# keys and strings that need escaping: quote, backslash, control characters,
# U+2028, non-ASCII and non-BMP characters
_escaped = st.text(alphabet=st.sampled_from('"\\\x00\x1f\x7f\n\t\u2028\u00e9\U0001f600')
                   | st.characters(codec="utf-8"), max_size=8)
_value = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | _escaped
    | st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0, 2**64, -2**64 - 1,
                       10**30]),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_escaped, inner, max_size=4),
    max_leaves=16)


@given(_value)
@example([None, True, False, -0.0, float("nan"), float("inf"), float("-inf"), 2**64,
          -2**64 - 1, 0, 1.5e300])
@example({"required": True, "default": None, "minimum": -0.0, "maximum": 2**64 + 1})
@example(float("nan"))
def test_dump_json_matches_indented_json_dumps(value):
    assert dump_json(value) == json.dumps(value, ensure_ascii=False, indent=2)


def test_dump_json_refuses_a_key_that_is_not_a_string():
    with pytest.raises(TypeError):
        dump_json({1: "a key that JSON-decoded data never holds"})


def test_rendering_every_tool_leaves_no_json_encoder_garbage():
    """``Tool.json_text`` encodes through ``dump_json``, which leaves no
    closure cycle of json's pure-Python encoder for the cyclic GC."""
    cat = parse_catalogue(json.dumps(CATALOGUE_TOOLS + _wide_catalogue(50)))
    assert json_encoder_garbage(lambda: render_all(cat)) == []


def test_render_edge_cases():
    cat = parse_catalogue(json.dumps([
        {"name": "bare", "description": "", "parameters": {}},
        {"name": "n\u00e9st\"ed\\", "description": "line 1\nline 2\t\u2603",
         "parameters": {"p": {"type": "object", "description": "d", "required": False,
                              "schema": {"a": [1, {"b": None}], "c": {}}}},
         "x-vendor": {"team": ["scm", {"lead": "\u00e9"}], "empty": []}},
    ]))
    assert cat.render([]) == "[]" == json.dumps([], indent=2)
    for names in (["bare"], ["bare", "bare"], ["n\u00e9st\"ed\\", "bare"]):
        assert cat.render(names) == json.dumps([cat.get(n).to_dict() for n in names],
                                               ensure_ascii=False, indent=2)
    with pytest.raises(KeyError):
        cat.render(["missing"])
