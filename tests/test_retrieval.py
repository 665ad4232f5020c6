import ast
import gc
import json
import math
import random
import threading
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from forge import retrieval
from forge.catalogue import parse_catalogue
from forge.gateway import ChatMessage, CompletionRequest, GatewayError, complete
from forge.retrieval import (
    DistractorSet,
    HashEmbedder,
    RemoteEmbedder,
    ToolIndex,
    VectorIndex,
    candidate_pool,
    nearest_distractors,
    search_catalogue,
    tool_text,
)
from forge.scenario import PersonaStore, sample_persona

from conftest import SEED_TOOL, chat, remote_backend
from oracles import naive_hash_embed, naive_top_k


def make_cat(entries):
    tools = []
    for name, desc, params in entries:
        tools.append({
            "name": name,
            "description": desc,
            "parameters": {
                p: {"type": "string", "description": f"{p} value", "required": True}
                for p in params
            },
        })
    return parse_catalogue(json.dumps(tools))


def test_tool_text_with_params():
    cat = make_cat([("A", "B", ["p"])])
    tool = cat.get("A")
    assert tool_text(tool) == "A\nB\np: p value"


def test_tool_text_param_free():
    cat = make_cat([("A", "B", [])])
    assert tool_text(cat.get("A")) == "A\nB"


def test_tool_text_seed_tool(cat):
    text = tool_text(cat.get(SEED_TOOL))
    assert "nodeId" in text and "transportRequestId" in text


def test_hash_embedder_deterministic():
    emb = HashEmbedder()
    text = "Track shipments across the network"
    assert np.array_equal(emb.embed(text), emb.embed(text))
    assert emb.embed(text).shape == (256,)
    assert pytest.approx(1.0) == float(np.linalg.norm(emb.embed(text)))


def test_hash_embedder_empty_text_is_zero_vector():
    emb = HashEmbedder()
    assert float(np.linalg.norm(emb.embed("!!!"))) == 0.0


def test_nearest_distractors_brute_force_small():
    cat = make_cat([
        ("seed", "alpha beta gamma", []),
        ("close", "alpha beta delta", []),
        ("far", "omega psi chi", []),
    ])
    emb = HashEmbedder()
    dset = nearest_distractors(ToolIndex(cat, emb), "seed", 2)
    vectors = {t.name: emb.embed(tool_text(t)).tolist() for t in cat.tools}
    expected = naive_top_k(vectors, "seed", 2)
    assert dset.names() == [name for name, _ in expected]
    assert dset.members[0][0] == "close"


def test_k_larger_than_catalogue_truncates(cat, emb):
    dset = nearest_distractors(ToolIndex(cat, emb), SEED_TOOL, 50)
    assert len(dset.members) == len(cat) - 1
    assert SEED_TOOL not in dset.names()


def test_textual_twin_ranks_first():
    cat = make_cat([
        ("seed", "retrieve transport logs for a node", []),
        ("twin", "retrieve transport logs for a node", []),
        ("other", "refresh delivery schedules", []),
    ])
    dset = nearest_distractors(ToolIndex(cat, HashEmbedder()), "seed", 2)
    # identical description differs only in the name line; still maximal overlap
    assert dset.names()[0] == "twin"


def test_scores_non_increasing(cat, emb):
    dset = nearest_distractors(ToolIndex(cat, emb), SEED_TOOL, 5)
    scores = [s for _, s in dset.members]
    assert scores == sorted(scores, reverse=True)


def test_unknown_seed_rejected(cat, emb):
    with pytest.raises(KeyError):
        nearest_distractors(ToolIndex(cat, emb), "no_such_tool", 3)


def test_retrieval_matches_exhaustive_scan_on_random_catalogues():
    emb = HashEmbedder()
    rng = random.Random(20240812)
    words = ("ship order invoice ledger carrier node request zone rate audit "
             "stock refund quote asset ticket alert route batch cycle").split()
    for trial in range(25):
        n_tools = rng.randrange(2, 40)
        entries = []
        for i in range(n_tools):
            desc = " ".join(rng.choices(words, k=rng.randrange(3, 10)))
            entries.append((f"tool_{trial}_{i}", desc, []))
        cat = make_cat(entries)
        seed = rng.choice(cat.names())
        k = rng.randrange(1, n_tools + 2)
        dset = nearest_distractors(ToolIndex(cat, emb), seed, k)
        vectors = {t.name: emb.embed(tool_text(t)).tolist() for t in cat.tools}
        expected = naive_top_k(vectors, seed, k)
        assert dset.names() == [name for name, _ in expected]


def test_candidate_pool_contains_seed_and_all_members():
    dset = DistractorSet(seed="s", members=(("a", 0.9), ("b", 0.8)))
    pool = candidate_pool("s", dset, rng_seed=1)
    assert sorted(pool) == ["a", "b", "s"]
    assert len(pool) == 3


def test_candidate_pool_deterministic():
    dset = DistractorSet(seed="s", members=(("a", 0.9), ("b", 0.8)))
    assert candidate_pool("s", dset, 42) == candidate_pool("s", dset, 42)


def test_candidate_pool_seed_mismatch_rejected():
    dset = DistractorSet(seed="s", members=(("a", 0.9),))
    with pytest.raises(ValueError):
        candidate_pool("other", dset, 1)


def test_gold_position_roughly_uniform():
    dset = DistractorSet(seed="s", members=(("a", 0.9), ("b", 0.8)))
    counts = [0, 0, 0]
    trials = 1000
    for seed in range(trials):
        counts[candidate_pool("s", dset, seed).index("s")] += 1
    expected = trials / 3
    chi2 = sum((c - expected) ** 2 / expected for c in counts)
    # 2 degrees of freedom; 13.8 is the 0.999 quantile
    assert chi2 < 13.8, counts


def test_search_catalogue_orders_by_query_similarity(cat, emb):
    hits = search_catalogue(ToolIndex(cat, emb), "review actions during transport requests",
                            3)
    assert len(hits) == 3
    assert hits[0][0] == SEED_TOOL


# ---------------------------------------------------------------------------
# exactness of the index against the exhaustive float64 scan


@pytest.mark.parametrize("dimension", [8, 256])
def test_hash_embedder_bytes_equal_counting_loop(dimension):
    rng = random.Random(dimension)
    vocab = [f"w{i}" for i in range(300)] + ["Ship", "order-id", "naïve", "K\u212a"]
    texts = ["", "!!!", "a a a a", "\ud800 lone surrogate"]
    texts += [" ".join(rng.choices(vocab, k=rng.randrange(1, 40))) for _ in range(300)]
    emb = HashEmbedder(dimension)
    for text in texts:
        assert emb.embed(text).tobytes() == naive_hash_embed(text, dimension).tobytes(), text


# lone surrogates, characters whose lowercase is (or holds) ASCII, full-width
# letters and digits, and punctuation around plain ASCII tokens
_EMBED_TEXT = st.text(alphabet=st.characters() | st.sampled_from(
    list("abcXYZ019 -_.,!?\t\n") + ["\ud800", "\udfff", "\u212a", "\u0130", "\u00df",
                                    "\u00e9", "\uff21", "\uff41", "\uff11", "\u2603",
                                    "\U0001f600"]), max_size=40)


@settings(max_examples=300, deadline=None)
@given(dimension=st.sampled_from([8, 256]), texts=st.lists(_EMBED_TEXT, min_size=1, max_size=4))
def test_hash_embedder_equals_reference_embedder(dimension, texts):
    emb = HashEmbedder(dimension)
    for text in texts:
        assert emb.embed(text).tobytes() == naive_hash_embed(text, dimension).tobytes()
    index = VectorIndex(texts, emb)
    for row, text in enumerate(texts):
        assert index.matrix[row].tobytes() == emb.embed(text).astype(np.float32).tobytes()


# row counts around the index's 64-row build blocks
@pytest.mark.parametrize("dimension", [16, 256])
@pytest.mark.parametrize("n", [1, 63, 64, 65, 129])
def test_block_build_equals_single_embeds(n, dimension):
    rng = random.Random(n)
    # "", "!!" and a lone surrogate add no token; "naïve" splits into two
    vocab = [f"w{i}" for i in range(30)] + ["!!", "\ud800", "naïve", "K\u212a", "日本語"]
    texts = [" ".join(rng.choices(vocab, k=rng.randrange(0, 12))) for _ in range(n)]
    texts[-1] = "\udfff !!"
    emb = HashEmbedder(dimension)
    names = [f"t{i:03d}" for i in range(n)]
    index = VectorIndex(texts, emb, names)
    vectors = {name: emb.embed(text) for name, text in zip(names, texts)}
    counts, norms = emb.count_many(texts)
    assert (counts / norms[:, None]).tobytes() == np.array(list(vectors.values())).tobytes()
    assert index._norms.tobytes() == norms.tobytes()
    for row, name in enumerate(names):
        assert index.matrix[row].tobytes() == vectors[name].astype(np.float32).tobytes()
        assert index._max_norm >= np.linalg.norm(vectors[name])
    assert not index.matrix[-1].any()
    for row in range(0, n, 7):
        top = index.top(vectors[names[row]], 5, exclude=row)
        assert [(names[r], s) for r, s in top] == naive_top_k(vectors, names[row], 5)


def test_index_build_holds_no_catalogue_wide_temporary():
    rng = random.Random(5)
    vocab = [f"word{i}" for i in range(2000)]
    texts = [" ".join(rng.choices(vocab, k=45)) for _ in range(5000)]
    emb = HashEmbedder()
    started = not tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        index = VectorIndex(texts, emb)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if started:
            tracemalloc.stop()
    assert peak <= index.matrix.nbytes + 2 ** 20


def scan_distractors(cat, seed, k, emb):
    seed_vec = emb.embed(tool_text(cat.get(seed)))
    scored = [(float(np.dot(seed_vec, emb.embed(tool_text(t)))), t.name)
              for t in cat.tools if t.name != seed]
    scored.sort(key=lambda item: (-item[0], item[1]))
    return [(name, score) for score, name in scored[:k]]


def scan_search(cat, query, k, emb):
    query_vec = emb.embed(query)
    scored = sorted((-float(np.dot(query_vec, emb.embed(tool_text(t)))), t.name)
                    for t in cat.tools)
    return [(name, -neg) for neg, name in scored[:k]]


def scan_personas(personas, query_vec, k, emb):
    scored = sorted((-float(np.dot(query_vec, emb.embed(p))), idx)
                    for idx, p in enumerate(personas))
    return [(idx, -neg) for neg, idx in scored[:max(1, min(k, len(scored)))]]


def bits(pairs):
    return [(key, float(score).hex()) for key, score in pairs]


_WORDS = "ship order invoice ledger node zone rate audit !!".split()
_text = st.lists(st.sampled_from(_WORDS), max_size=6).map(" ".join)


@st.composite
def retrieval_case(draw):
    descriptions = draw(st.lists(_text, min_size=1, max_size=3))
    tools = []
    for i in range(draw(st.integers(1, 12))):
        # a punctuation-only name adds no token, so equal descriptions tie exactly
        name = "-" * (i + 1) if draw(st.booleans()) else f"tool{i}"
        tools.append({"name": name, "description": draw(st.sampled_from(descriptions)),
                      "parameters": {}})
    personas = draw(st.lists(st.sampled_from(descriptions + ["!!!"]).filter(bool),
                             min_size=1, max_size=8))
    return {
        "dimension": draw(st.sampled_from([8, 256])),
        "cat": parse_catalogue(json.dumps(tools)),
        "personas": personas,
        "seed": draw(st.sampled_from([t["name"] for t in tools])),
        "query": draw(_text),
        "k": draw(st.integers(1, len(tools) + 2)),
    }


@settings(max_examples=300, deadline=None)
@given(retrieval_case())
def test_index_top_k_equals_exhaustive_scan(case):
    emb = HashEmbedder(case["dimension"])
    cat, seed, k = case["cat"], case["seed"], case["k"]
    tools = ToolIndex(cat, emb)
    dset = nearest_distractors(tools, seed, k)
    assert bits(dset.members) == bits(scan_distractors(cat, seed, k, emb))
    assert (bits(search_catalogue(tools, case["query"], k))
            == bits(scan_search(cat, case["query"], k, emb)))

    personas = case["personas"]
    tool = cat.get(seed)
    query_vec = emb.embed(tool_text(tool))
    expected = scan_personas(personas, query_vec, k, emb)
    assert bits(VectorIndex(personas, emb).top(query_vec, max(1, k))) == bits(expected)
    index = VectorIndex(PersonaStore(personas=personas, embedder=emb).personas, emb)
    for rng_seed in range(3):
        pick = expected[random.Random(rng_seed).randrange(len(expected))][0]
        assert sample_persona(index, tools.rows([cat.index[seed]])[0], k,
                              rng_seed) == personas[pick]


# ---------------------------------------------------------------------------
# a build embeds each text once; a query embeds only its free text


class CountingEmbedder(HashEmbedder):
    """Counts the rows of the one counter, which ``embed`` passes through."""

    def __init__(self, dimension: int = 256):
        super().__init__(dimension)
        self.calls = 0
        self._lock = threading.Lock()

    def count_many(self, texts):
        with self._lock:
            self.calls += len(texts)
        return super().count_many(texts)


def test_queries_cost_one_build_plus_shortlists():
    """The shortlist is re-scored from the rows the build kept: a search
    embeds its query once, a distractor query and a persona draw from a
    tool's row nothing."""
    rng = random.Random(11)
    vocab = [f"term{i}" for i in range(80)]
    n_tools, k, m = 400, 5, 40
    cat = make_cat([(f"tool_{i}", " ".join(rng.choices(vocab, k=10)), ["id"])
                    for i in range(n_tools)])
    emb = CountingEmbedder()
    tools = ToolIndex(cat, emb)
    assert emb.calls == n_tools

    for i in range(m):
        before = emb.calls
        if i % 2:
            search_catalogue(tools, " ".join(rng.choices(vocab, k=6)), k)
            assert emb.calls - before == 1
        else:
            nearest_distractors(tools, f"tool_{i}", k)
            assert emb.calls == before

    store = PersonaStore.bundled(emb)
    before = emb.calls
    personas = VectorIndex(store.personas, emb)
    assert emb.calls - before == len(store.personas)
    for i in range(m):
        sample_persona(personas, tools.rows([i])[0], 10, i)
    assert emb.calls - before == len(store.personas)


def test_an_index_row_has_one_way_in_and_one_way_out():
    """In ``src/forge`` no ``embed_many`` is defined or named, only
    ``VectorIndex.__init__`` and ``HashEmbedder.embed`` call ``count_many``,
    and ``scenario.py`` calls no ``.embed``: a persona draw reads the seed
    tool's index row."""
    found = []
    callers = {("VectorIndex", "__init__"), ("HashEmbedder", "embed")}
    for path in sorted(Path(retrieval.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        builder = {id(node) for top in tree.body
                   if path.name == "retrieval.py" and isinstance(top, ast.ClassDef)
                   for fn in top.body
                   if isinstance(fn, ast.FunctionDef) and (top.name, fn.name) in callers
                   for node in ast.walk(fn)}
        for node in ast.walk(tree):
            name = (node.name if isinstance(node, ast.FunctionDef)
                    else node.attr if isinstance(node, ast.Attribute)
                    else node.id if isinstance(node, ast.Name) else None)
            called = (node.func.attr if isinstance(node, ast.Call)
                      and isinstance(node.func, ast.Attribute) else None)
            if name == "embed_many":
                found.append(f"{path.name}:{node.lineno}: embed_many")
            elif called == "count_many" and id(node) not in builder:
                found.append(f"{path.name}:{node.lineno}: count_many()")
            elif called == "embed" and path.name == "scenario.py":
                found.append(f"{path.name}:{node.lineno}: .embed()")
    assert found == []


# ---------------------------------------------------------------------------
# an index gives back each row's exact float64 embedding


def rows_bytes(index):
    """Each row's bytes, read one row at a time and all at once."""
    rows = [index.rows([i])[0].tobytes() for i in range(len(index.texts))]
    assert [row.tobytes() for row in index.rows(slice(None))] == rows
    return rows


@settings(max_examples=200, deadline=None)
@given(dimension=st.sampled_from([7, 8, 256]), texts=st.lists(_EMBED_TEXT, min_size=1,
                                                               max_size=70))
@example(dimension=8, texts=["", "naïve K\u212a 日本語", "\ud800", "ab " * 40, "!!"])
def test_index_rows_are_bitwise_embeds(dimension, texts):
    emb = HashEmbedder(dimension)
    index = VectorIndex(texts, emb)
    assert index._rows is None  # restored from the float32 matrix and the norms
    assert rows_bytes(index) == [emb.embed(text).tobytes() for text in texts]
    query = emb.embed(texts[0])
    assert bits(index.top(query, 5)) == bits(scan_personas(texts, query, 5, emb))


_PARAM = {"type": "string", "description": "the value", "required": True}


@pytest.mark.parametrize("entries", [
    [{"name": "plain", "description": "one thing", "parameters": {"a": _PARAM}},
     {"name": "bare", "description": "", "parameters": {}, "x-vendor": {"team": "scm"}}],
    [{"name": "extra", "description": "alpha beta", "x-vendor": {"team": ["scm"]},
      "parameters": {"a": {**_PARAM, "enum": ["x", "y"]},
                     "b": {**_PARAM, "default": None, "description": "beta value"}}},
     {"name": "extra2", "description": "alpha gamma", "tags": [],
      "parameters": {"c": {**_PARAM, "x-note": {"description": "not this one"}}}}],
    [{"parameters": {"b": {"required": False, "description": "second", "type": "integer"},
                     "a": {"description": "first", "type": "string", "required": True}},
      "description": "reordered keys", "name": "reordered"},
     {"description": "reordered too", "name": "other", "parameters": {}}],
    [{"name": "naïve_größe", "description": "Größe der Ware, 日本語 K\u212a — ünïcödé",
      "parameters": {"größe": {**_PARAM, "description": "Maß in cm ☃"},
                     "日本": {**_PARAM, "description": "地域 \U0001f600"}}},
     {"name": "ascii", "description": "Grosse der Ware", "parameters": {"g": _PARAM}}],
], ids=["extra-tool-key", "extra-param-keys", "reordered-keys", "non-ascii"])
def test_tool_index_rows_are_bitwise_embeds_of_built_tools(entries):
    """A ``ToolIndex`` reads its texts from the catalogue's entries without
    building a tool; each row is still bitwise ``embed(tool_text(tool))``."""
    cat = parse_catalogue(json.dumps(entries))
    emb = HashEmbedder(16)
    tools = ToolIndex(cat, emb)
    assert tools.texts == [tool_text(cat.get(name)) for name in cat.names()]
    assert rows_bytes(tools) == [emb.embed(tool_text(cat.get(name))).tobytes()
                                 for name in cat.names()]


@pytest.mark.parametrize("past", [0, 3, 64, 100], ids=lambda row: f"row{row}")
def test_index_with_a_count_past_the_bound_keeps_float64_rows(monkeypatch, past):
    """A hash row with a count at the bound cannot be restored from float32:
    the index then keeps float64 rows, those before the row's block too."""
    monkeypatch.setattr(retrieval, "_EXACT_COUNT", 4)
    descriptions = [f"alpha beta w{i} w{i % 3}" for i in range(130)]
    descriptions[past] = "alpha " * 4 + "naïve"
    cat = make_cat([(f"t{i:03d}", desc, []) for i, desc in enumerate(descriptions)])
    emb = HashEmbedder(16)
    tools = ToolIndex(cat, emb)
    assert tools._norms is None
    assert rows_bytes(tools) == [emb.embed(text).tobytes() for text in tools.texts]
    dset = nearest_distractors(tools, "t001", 5)
    assert bits(dset.members) == bits(scan_distractors(cat, "t001", 5, emb))


# ---------------------------------------------------------------------------
# remote embedder against a local stub


@pytest.fixture
def embedding_server(loopback):
    """A loopback embeddings endpoint; ``.inputs`` lists each request's texts
    and ``.gc_enabled`` whether the collector was on when it arrived."""
    inputs, gc_enabled = [], []

    def respond(body):
        inputs.append(body["input"])
        gc_enabled.append(gc.isenabled())
        # unnormalized: the client must normalize
        data = [{"index": i, "embedding": (3.0 * HashEmbedder(16).embed(t)).tolist()}
                for i, t in enumerate(body["input"])]
        return 200, {}, {"data": data}, 0.0

    _, server = loopback(respond)
    return SimpleNamespace(endpoint=f"http://127.0.0.1:{server.server_address[1]}/v1/embeddings",
                           inputs=inputs, gc_enabled=gc_enabled)


def test_remote_embed_normalizes_one_text_per_request(embedding_server):
    emb = RemoteEmbedder(embedding_server.endpoint, "stub-embed", 16)
    vec = emb.embed("alpha beta")
    assert embedding_server.inputs == [["alpha beta"]]
    assert np.allclose(vec, HashEmbedder(16).embed("alpha beta"))
    assert math.isclose(float(np.linalg.norm(vec)), 1.0)


def test_remote_embed_rejects_wrong_dimension(embedding_server):
    emb = RemoteEmbedder(embedding_server.endpoint, "stub-embed", 32)
    with pytest.raises(GatewayError, match="dimension"):
        emb.embed("alpha")


@pytest.mark.parametrize("payload, message", [
    ({"object": "list"}, "missing key 'data'"),
    ([{"embedding": [1.0] * 16}], "list indices"),
    ({"data": [{"embedding": [float("nan")] * 16}]}, "finite values"),
    (b'{"data": ' + b"[" * 5000 + b"]" * 5000 + b"}", "maximum recursion depth"),
    ({"data": [{"embedding": [1, 10**400]}]}, "int too large to convert to float"),
], ids=["no-data", "top-level-array", "nan", "nested-past-recursion-limit",
        "int-past-float-range"])
def test_remote_embed_malformed_reply_is_gateway_error(loopback, payload, message):
    """A reply the embedder cannot read is a GatewayError, the failure that
    costs one dialogue, and is not retried."""
    endpoint, server = loopback(lambda body: (200, {}, payload, 0.0))
    emb = RemoteEmbedder(endpoint, "stub-embed", 16)
    with pytest.raises(GatewayError, match=message):
        emb.embed("alpha")
    assert len(server.ports) == 1


def test_hash_embed_never_pauses_the_gc(monkeypatch):
    """A query runs inside dialogues on worker threads, where a GC pause's
    save/restore is not safe for overlapping calls, and an index block frees
    what it makes, so a pause there saves no collection: neither ``embed``
    nor ``count_many`` disables the collector."""
    disabled = []
    monkeypatch.setattr(gc, "disable", lambda: disabled.append("disable"))
    emb = HashEmbedder(16)
    emb.embed("alpha beta")
    emb.embed("")
    emb.count_many(["alpha beta", "gamma"])
    VectorIndex([f"w{i} alpha" for i in range(130)], emb)
    assert disabled == []


def test_remote_calls_run_with_the_gc_enabled(embedding_server, loopback):
    """The GC pause never covers a remote call: a remote index build and a
    remote ``complete`` reach the server with the collector on."""
    cat = make_cat([(f"tool_{i}", f"alpha w{i}", []) for i in range(70)])
    ToolIndex(cat, RemoteEmbedder(embedding_server.endpoint, "stub-embed", 16))
    assert embedding_server.gc_enabled == [True] * 70
    seen = []

    def respond(model_id, req):
        seen.append(gc.isenabled())
        return "hello", 0.0

    endpoint, _ = loopback(chat(respond))
    req = CompletionRequest(messages=(ChatMessage("user", "hi"),))
    assert complete(remote_backend("m", endpoint), req) == "hello"
    assert seen == [True]


def test_remote_index_build_embeds_each_tool_once(embedding_server):
    n_tools = 40
    cat = make_cat([(f"tool_{i}", f"alpha beta w{i} w{i % 7}", []) for i in range(n_tools)])
    emb = RemoteEmbedder(embedding_server.endpoint, "stub-embed", 16)
    tools = ToolIndex(cat, emb)
    assert len(embedding_server.inputs) == n_tools
    hits = search_catalogue(tools, "alpha w3", 3)
    assert embedding_server.inputs[n_tools:] == [["alpha w3"]]
    search_catalogue(tools, "beta w5", 3)
    dset = nearest_distractors(tools, "tool_4", 3)
    assert embedding_server.inputs[n_tools:] == [["alpha w3"], ["beta w5"]]
    assert hits == scan_search(cat, "alpha w3", 3, emb)
    assert dset.members == tuple(scan_distractors(cat, "tool_4", 3, emb))


def test_remote_index_rows_equal_re_embedding(embedding_server):
    texts = [f"alpha beta w{i} w{i % 7}" for i in range(70)] + ["", "naïve"]
    emb = RemoteEmbedder(embedding_server.endpoint, "stub-embed", 16)
    index = VectorIndex(texts, emb)
    assert rows_bytes(index) == [emb.embed(text).tobytes() for text in texts]
