import ast
import contextlib
import gc
import json
import sys
import threading
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from forge import catalogue
from forge.catalogue import (MAX_DEPTH, TYPE_TAGS, CatalogueError, dump_json, load_catalogue,
                             parse_json, parse_catalogue, required_args)
from forge.retrieval import HashEmbedder, ToolIndex, nearest_distractors

from conftest import CATALOGUE_TOOLS, SEED_TOOL, json_encoder_garbage
from oracles import whole_decode_catalogue


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
    ("[" * 5000, "malformed catalogue JSON: JSON nested deeper than 64 levels"),
    ([{**_TOOL, "x-extra": json.loads("[" * (MAX_DEPTH - 1) + "]" * (MAX_DEPTH - 1))}],
     "malformed catalogue JSON: JSON nested deeper than 64 levels"),
    ("[" * (MAX_DEPTH + 1), "malformed catalogue JSON: JSON nested deeper than 64 levels"),
    ("[" * MAX_DEPTH, "malformed catalogue JSON: Expecting value: line 1 column 65 (char 64)"),
    ("[" + "1" * 5000 + "]", "malformed catalogue JSON: Exceeds the limit (4300 digits) for "
                             "integer string conversion: value has 5000 digits; use "
                             "sys.set_int_max_str_digits() to increase the limit"),
], ids=["entry-not-object", "missing-name", "missing-description", "missing-parameters",
        "empty-name", "description-not-string", "parameters-not-object", "param-not-object",
        "param-missing-type", "param-missing-description", "param-missing-required",
        "unknown-type", "list-type", "empty-param-description", "required-not-boolean",
        "duplicate-name", "nested-past-recursion-limit", "nested-past-max-depth",
        "cut-short-past-max-depth", "cut-short-at-max-depth", "integer-past-digit-limit"])
def test_catalogue_error_messages(entries, message):
    """Each fault's message; a str row is the file text itself. A text cut
    short after opening more than ``MAX_DEPTH`` levels reports the depth,
    the first fault in reading order, as a 5,000-deep one does on every
    interpreter."""
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


# what decodes JSON text, and what a decode too deep raises
_DECODER_NAMES = {"loads", "JSONDecoder", "make_scanner", "scan_once", "raw_decode",
                  "RecursionError"}


def test_parse_json_is_the_one_decoder_of_outside_json():
    """In ``src/forge``, only ``parse_json`` and the catalogue's array reader
    (``_read_tools`` and its scanner ``_scan``) call ``json.loads``, name a
    JSON decoder or scanner or name RecursionError, and nothing calls a
    reply's ``.json()``: the reader hands every fault to ``parse_json``, so
    what malformed JSON raises is decided in one place."""
    found = []
    for path in sorted(Path(catalogue.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        exempt = {id(node) for top in tree.body if path.name == "catalogue.py" and (
                      isinstance(top, ast.FunctionDef) and top.name in ("parse_json", "_read_tools")
                      or isinstance(top, ast.Assign) and ast.unparse(top.targets) == "_scan")
                  for node in ast.walk(top)}
        for node in ast.walk(tree):
            if id(node) in exempt:
                continue
            name = (node.id if isinstance(node, ast.Name)
                    else node.attr if isinstance(node, ast.Attribute) else None)
            if name in _DECODER_NAMES:
                found.append(f"{path.name}:{node.lineno}: {name}")
            elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "json":
                found.append(f"{path.name}:{node.lineno}: from json import")
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
    """A 5,000-tool parse holds one tool object's containers at a time and
    keeps none: with the collector on it starts no collection."""
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


def test_no_module_names_gc():
    """No module in ``src/forge`` imports or names ``gc``: the catalogue
    parse keeps no container per tool and an index block frees what it
    makes, so a GC pause would save no collection anywhere."""
    found = []
    for path in sorted(Path(catalogue.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            name = (node.id if isinstance(node, ast.Name)
                    else node.attr if isinstance(node, ast.Attribute)
                    else node.name if isinstance(node, ast.alias)
                    else node.module if isinstance(node, ast.ImportFrom) else None)
            if name in ("gc", "no_gc"):
                found.append(f"{path.name}:{node.lineno}: {name}")
    assert found == []


def test_no_module_names_getrecursionlimit():
    """No module in ``src/forge`` reads the recursion limit: how deep a JSON
    value may nest is ``MAX_DEPTH``, the same on every interpreter."""
    found = []
    for path in sorted(Path(catalogue.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            name = (node.id if isinstance(node, ast.Name)
                    else node.attr if isinstance(node, ast.Attribute)
                    else node.name if isinstance(node, ast.alias) else None)
            if name == "getrecursionlimit":
                found.append(f"{path.name}:{node.lineno}: {name}")
    assert found == []


@pytest.mark.parametrize("text", [
    json.dumps(CATALOGUE_TOOLS),
    json.dumps(CATALOGUE_TOOLS + CATALOGUE_TOOLS[:1]),
    "[" * 5000,
], ids=["valid", "duplicate-last-tool", "nested-past-recursion-limit"])
@pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
def test_parse_catalogue_restores_the_callers_gc_state(text, enabled):
    """The parse leaves the collector as the caller had it, also when a
    CatalogueError ends it."""
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


# ---------------------------------------------------------------------------
# the array reader against one whole decode (oracles.whole_decode_catalogue)


def _oracle_tool(entry: dict) -> catalogue.Tool:
    """The ``Tool`` of a checked tool object, transcribed: the three known
    keys of the tool and of each parameter, every other key an extra."""
    params = {p: catalogue.ParamSpec(spec["type"], spec["description"], spec["required"],
                                     {k: v for k, v in spec.items()
                                      if k not in ("type", "description", "required")})
              for p, spec in entry["parameters"].items()}
    extra = {k: v for k, v in entry.items() if k not in ("name", "description", "parameters")}
    return catalogue.Tool(entry["name"], entry["description"], params, extra)


def assert_reads_as_whole_decode(text):
    """``parse_catalogue`` of ``text`` raises the oracle's CatalogueError
    message, or gives its names, tools (``to_dict`` and ``json_text``, read
    through ``get`` and through ``tools``) and embedding texts."""
    try:
        names, entries, texts = whole_decode_catalogue(text)
    except CatalogueError as exc:
        with pytest.raises(CatalogueError) as got:
            parse_catalogue(text)
        assert str(got.value) == str(exc)
        return
    cat = parse_catalogue(text)
    assert cat.names() == names and cat.texts == texts and len(cat) == len(names)
    expected = [_oracle_tool(e) for e in entries]
    # repr tells -0.0 from 0.0 and compares NaN, which == does not
    got = [cat.get(name) for name in reversed(names)][::-1]
    for tools in (got, parse_catalogue(text).tools):
        assert [repr(t.to_dict()) for t in tools] == [repr(t.to_dict()) for t in expected]
        assert [t.json_text for t in tools] == [t.json_text for t in expected]


_word = st.text(alphabet=st.sampled_from("abz_ é日\U0001f600\"\\\n"), max_size=6)
_tool_object = st.fixed_dictionaries(
    {"name": st.sampled_from(["t0", "t1", "t2", "té", "t\U0001f600"]),
     "description": _word,
     "parameters": st.dictionaries(_word, st.fixed_dictionaries(
         {"type": st.sampled_from(TYPE_TAGS + ("float",)), "description": _word,
          "required": st.booleans()},
         optional={"enum": st.lists(_word, max_size=2), "x-n": st.integers() | st.floats()}),
         max_size=3)},
    optional={"x-vendor": st.dictionaries(_word, st.none() | _word, max_size=2)})
# the layouts a catalogue file comes in
_LAYOUTS = {
    "default": json.dumps,
    "indent": lambda v: json.dumps(v, indent=2),
    "compact": lambda v: json.dumps(v, separators=(",", ":")),
    "raw-utf8": lambda v: json.dumps(v, ensure_ascii=False),
    "tab-indent": lambda v: json.dumps(v, indent="\t", ensure_ascii=False),
    "padded": lambda v: "\t\r\n " + json.dumps(v) + "\r\n\t",
    "wide-separators": lambda v: json.dumps(v, separators=(" ,\n\t ", " : ")),
}
# what a mutation inserts: JSON punctuation, whitespace, escapes, a BOM,
# a whole duplicate tool object
_INSERTS = [",", "]", "[", "{", "}", '"', ":", " ", "  ", "\t", "\r\n", "1", "-", "null",
            "\\", "\\ud83d", "\\ude00", "\\u00e9", "﻿", "\x00", "é",
            ', {"name": "t0", "description": "", "parameters": {}}']


@st.composite
def catalogue_texts(draw):
    text = _LAYOUTS[draw(st.sampled_from(sorted(_LAYOUTS)))](
        draw(st.lists(_tool_object, max_size=4)))
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(text)))
        kind = draw(st.sampled_from(["delete", "insert", "truncate"]))
        if kind == "delete":
            text = text[:at] + text[at + draw(st.integers(1, 4)):]
        elif kind == "insert":
            text = text[:at] + draw(st.sampled_from(_INSERTS)) + text[at:]
        else:
            text = text[:at]
    return text.encode("utf-8") if draw(st.booleans()) else text


@settings(max_examples=400, deadline=None)
@given(catalogue_texts())
def test_reading_one_tool_at_a_time_equals_one_whole_decode(text):
    assert_reads_as_whole_decode(text)


_TWO = json.dumps(CATALOGUE_TOOLS[:2])
_BOM_TEXT = "﻿" + _TWO


@pytest.mark.parametrize("text", [
    _TWO.replace("}, {", "},  {"),
    _TWO.replace("}, {", "}\r\n,\t{"),
    _BOM_TEXT,
    _BOM_TEXT.encode("utf-8"),
    json.dumps([CATALOGUE_TOOLS[0], {**CATALOGUE_TOOLS[1], "description": "caf\ud83d"}]),
    json.dumps([CATALOGUE_TOOLS[0], {**CATALOGUE_TOOLS[1], "description": "\U0001f600"}]),
    json.dumps([{**CATALOGUE_TOOLS[0], "description": 3}, CATALOGUE_TOOLS[1]])[:-1] + "}]",
    json.dumps([{**CATALOGUE_TOOLS[0], "description": 3}, CATALOGUE_TOOLS[1]]),
    _TWO[:-1] + ",]",
    "[]",
    " [ \n ] ",
    json.dumps(CATALOGUE_TOOLS[0]),
    _TWO + " x",
    _TWO.encode("utf-8") + b"\xff",
], ids=["two-spaces-after-a-comma", "whitespace-around-a-comma", "bom-str", "bom-bytes",
        "lone-surrogate-in-tool-2", "surrogate-pair-in-tool-2",
        "schema-fault-in-tool-1-then-malformed-json", "schema-fault-in-tool-1",
        "trailing-comma", "empty-array", "empty-array-with-whitespace", "top-level-object",
        "trailing-data", "bytes-not-utf8"])
def test_reader_examples_read_as_whole_decode(text):
    assert_reads_as_whole_decode(text)


def test_a_schema_fault_loses_to_malformed_json_after_it():
    """The first tool's schema fault is found first by the reader, but a
    whole decode finds the malformed JSON at the end first, and its message wins."""
    text = json.dumps([{**CATALOGUE_TOOLS[0], "description": 3}, CATALOGUE_TOOLS[1]])[:-1]
    with pytest.raises(CatalogueError, match="^malformed catalogue JSON: Expecting"):
        parse_catalogue(text)


def _with_extra(value_text: str) -> str:
    """Two tools, the second with an extra field whose JSON is ``value_text``."""
    return json.dumps([CATALOGUE_TOOLS[0], {**CATALOGUE_TOOLS[1], "x-extra": "#"}]).replace(
        '"#"', value_text)


def _nested(depth: int, under: str) -> str:
    """A catalogue ``depth`` levels deep through an extra field of its
    second tool (``under="tool"``, inside the array and the tool) or of that
    tool's parameter (``"parameter"``, also inside ``parameters`` and it)."""
    if under == "tool":
        return _with_extra("[" * (depth - 2) + "]" * (depth - 2))
    tool = CATALOGUE_TOOLS[1]
    (pname, param), = tool["parameters"].items()
    text = json.dumps([CATALOGUE_TOOLS[0], {**tool, "parameters": {pname: {**param, "x": "#"}}}])
    return text.replace('"#"', "[" * (depth - 4) + "]" * (depth - 4))


@pytest.mark.parametrize("under", ["tool", "parameter"])
def test_a_catalogue_max_depth_deep_is_read_and_renders(under):
    """A tool whose extra field, or whose parameter's, makes the catalogue
    exactly ``MAX_DEPTH`` deep is read one tool at a time as a whole decode
    reads it, and its ``json_text`` renders."""
    text = _nested(MAX_DEPTH, under)
    assert_reads_as_whole_decode(text)
    tool = parse_catalogue(text).get(CATALOGUE_TOOLS[1]["name"])
    assert json.loads(tool.json_text) == json.loads(text)[1]


@pytest.mark.parametrize("under", ["tool", "parameter"])
def test_a_catalogue_one_level_past_max_depth_is_refused_by_both_reads(under):
    message = f"malformed catalogue JSON: JSON nested deeper than {MAX_DEPTH} levels"
    for parse in (whole_decode_catalogue, parse_catalogue):
        with pytest.raises(CatalogueError) as exc:
            parse(_nested(MAX_DEPTH + 1, under))
        assert str(exc.value) == message


def test_a_wide_tool_is_read_in_one_pass(monkeypatch):
    """A tool holding 1,000 sibling ``[]`` (its extra field 2 levels deep)
    is read one tool at a time, never decoded whole."""
    text = _with_extra("[" + ",".join(["[]"] * 1000) + "]")
    assert_reads_as_whole_decode(text)

    def whole_decode(text):
        raise AssertionError("the catalogue was decoded whole")

    monkeypatch.setattr(catalogue, "parse_json", whole_decode)
    assert parse_catalogue(text).get(CATALOGUE_TOOLS[1]["name"]).extra == {"x-extra": [[]] * 1000}


def test_parse_catalogue_keeps_less_than_its_text():
    """A 5,000-tool parse of a str keeps, and at its peak holds, fewer bytes
    than the text has characters: offsets, names and embedding texts, with
    no container per tool."""
    text = json.dumps(_wide_catalogue(5000))
    tracemalloc.start()
    try:
        cat = parse_catalogue(text)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(cat) == 5000 and cat.text is text
    assert kept <= peak <= len(text), (kept, peak, len(text))
