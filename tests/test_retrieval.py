import json
import math
import random
import re
import threading
import zlib
from http.server import BaseHTTPRequestHandler, HTTPServer

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from forge.catalogue import parse_catalogue
from forge.retrieval import (
    DistractorSet,
    EmbeddingCache,
    HashEmbedder,
    RemoteEmbedder,
    VectorIndex,
    candidate_pool,
    nearest_distractors,
    search_catalogue,
    tool_text,
)
from forge.scenario import PersonaStore, sample_persona

from conftest import SEED_TOOL
from oracles import naive_top_k


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
    dset = nearest_distractors(cat, "seed", 2, emb)
    vectors = {t.name: emb.embed(tool_text(t)).tolist() for t in cat.tools}
    expected = naive_top_k(vectors, "seed", 2)
    assert dset.names() == [name for name, _ in expected]
    assert dset.members[0][0] == "close"


def test_k_larger_than_catalogue_truncates(cat, emb):
    dset = nearest_distractors(cat, SEED_TOOL, 50, emb)
    assert len(dset.members) == len(cat) - 1
    assert SEED_TOOL not in dset.names()


def test_textual_twin_ranks_first():
    cat = make_cat([
        ("seed", "retrieve transport logs for a node", []),
        ("twin", "retrieve transport logs for a node", []),
        ("other", "refresh delivery schedules", []),
    ])
    dset = nearest_distractors(cat, "seed", 2, HashEmbedder())
    # identical description differs only in the name line; still maximal overlap
    assert dset.names()[0] == "twin"


def test_scores_non_increasing(cat, emb):
    dset = nearest_distractors(cat, SEED_TOOL, 5, emb)
    scores = [s for _, s in dset.members]
    assert scores == sorted(scores, reverse=True)


def test_unknown_seed_rejected(cat, emb):
    with pytest.raises(KeyError):
        nearest_distractors(cat, "no_such_tool", 3, emb)


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
        dset = nearest_distractors(cat, seed, k, emb)
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
    hits = search_catalogue(cat, "review actions during transport requests", 3, emb)
    assert len(hits) == 3
    assert hits[0][0] == SEED_TOOL


def test_embedding_cache_round_trip(tmp_path):
    emb = HashEmbedder()
    cache = EmbeddingCache(emb)
    v1 = cache.embed("alpha beta")
    cache.save(tmp_path / "cache.json")
    fresh = EmbeddingCache(HashEmbedder())
    fresh.load(tmp_path / "cache.json")
    assert np.allclose(fresh.embed("alpha beta"), v1)


def test_embedding_cache_rejects_other_embedder(tmp_path):
    cache = EmbeddingCache(HashEmbedder(dimension=256))
    cache.save(tmp_path / "cache.json")
    other = EmbeddingCache(HashEmbedder(dimension=64))
    with pytest.raises(ValueError, match="embedder"):
        other.load(tmp_path / "cache.json")


def test_embedding_cache_concurrent_identical_keys():
    from concurrent.futures import ThreadPoolExecutor

    cache = EmbeddingCache(HashEmbedder())
    texts = [f"text {i % 4}" for i in range(64)]
    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(cache.embed, texts))
    baseline = {t: HashEmbedder().embed(t) for t in set(texts)}
    for text, vec in zip(texts, results):
        assert np.array_equal(vec, baseline[text])
    assert len(cache._vectors) == 4


# ---------------------------------------------------------------------------
# exactness of the index against the exhaustive float64 scan


def loop_embed(text: str, dimension: int) -> np.ndarray:
    """HashEmbedder as a per-token counting loop."""
    vec = np.zeros(dimension, dtype=np.float64)
    for token in re.findall(r"[a-z0-9]+", text.lower()):
        vec[zlib.crc32(token.encode("utf-8")) % dimension] += 1.0
    norm = np.linalg.norm(vec)
    if norm > 0:
        vec /= norm
    return vec


@pytest.mark.parametrize("dimension", [8, 256])
def test_hash_embedder_bytes_equal_counting_loop(dimension):
    rng = random.Random(dimension)
    vocab = [f"w{i}" for i in range(300)] + ["Ship", "order-id", "naïve", "K\u212a"]
    texts = ["", "!!!", "a a a a", "\ud800 lone surrogate"]
    texts += [" ".join(rng.choices(vocab, k=rng.randrange(1, 40))) for _ in range(300)]
    emb = HashEmbedder(dimension)
    for text in texts:
        assert emb.embed(text).tobytes() == loop_embed(text, dimension).tobytes(), text


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
    dset = nearest_distractors(cat, seed, k, emb)
    assert bits(dset.members) == bits(scan_distractors(cat, seed, k, emb))
    assert (bits(search_catalogue(cat, case["query"], k, emb))
            == bits(scan_search(cat, case["query"], k, emb)))

    personas = case["personas"]
    tool = cat.get(seed)
    query_vec = emb.embed(tool_text(tool))
    expected = scan_personas(personas, query_vec, k, emb)
    assert bits(VectorIndex(personas, emb).top(query_vec, max(1, k))) == bits(expected)
    store = PersonaStore(personas=personas, embedder=emb)
    for rng_seed in range(3):
        pick = expected[random.Random(rng_seed).randrange(len(expected))][0]
        assert sample_persona(store, tool, k, rng_seed) == personas[pick]


# ---------------------------------------------------------------------------
# the index is built once per catalogue and embedder identity


class CountingEmbedder(HashEmbedder):
    def __init__(self, dimension: int = 256):
        super().__init__(dimension)
        self.calls = 0
        self._lock = threading.Lock()

    def embed(self, text):
        with self._lock:
            self.calls += 1
        return super().embed(text)


def test_queries_cost_one_build_plus_shortlists():
    rng = random.Random(11)
    vocab = [f"term{i}" for i in range(80)]
    n_tools, k, m = 400, 5, 40
    cat = make_cat([(f"tool_{i}", " ".join(rng.choices(vocab, k=10)), ["id"])
                    for i in range(n_tools)])
    emb = CountingEmbedder()
    VectorIndex([tool_text(t) for t in cat.tools], emb)
    assert emb.calls == n_tools

    emb = CountingEmbedder()
    search_catalogue(cat, "term1 term2 term3", k, emb)
    first = emb.calls
    assert n_tools < first <= n_tools + 1 + 3 * k
    for i in range(m):
        if i % 2:
            search_catalogue(cat, " ".join(rng.choices(vocab, k=6)), k, emb)
        else:
            nearest_distractors(cat, f"tool_{i}", k, emb)
    assert emb.calls - first <= m * (1 + 3 * k)
    assert list(cat._indexes) == [emb.identity]

    store = PersonaStore.bundled(emb)
    before = emb.calls
    for i in range(m):
        sample_persona(store, cat.get(f"tool_{i}"), 10, i)
    assert emb.calls - before <= len(store.personas) + m * (1 + 3 * 10)


# ---------------------------------------------------------------------------
# remote embedder against a local stub


class EmbeddingHandler(BaseHTTPRequestHandler):
    inputs: list[list[str]] = []

    def do_POST(self):
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        EmbeddingHandler.inputs.append(body["input"])
        # unnormalized: the client must normalize
        data = [{"index": i, "embedding": (3.0 * HashEmbedder(16).embed(t)).tolist()}
                for i, t in enumerate(body["input"])]
        payload = json.dumps({"data": data}).encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, *args):
        pass


@pytest.fixture
def embedding_server():
    server = HTTPServer(("127.0.0.1", 0), EmbeddingHandler)
    EmbeddingHandler.inputs = []
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.05},
                              daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_address[1]}/v1/embeddings"
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)
    assert not thread.is_alive()


def test_remote_embed_normalizes_one_text_per_request(embedding_server):
    emb = RemoteEmbedder(embedding_server, "stub-embed", 16)
    vec = emb.embed("alpha beta")
    assert EmbeddingHandler.inputs == [["alpha beta"]]
    assert np.allclose(vec, HashEmbedder(16).embed("alpha beta"))
    assert math.isclose(float(np.linalg.norm(vec)), 1.0)


def test_remote_embed_rejects_wrong_dimension(embedding_server):
    emb = RemoteEmbedder(embedding_server, "stub-embed", 32)
    with pytest.raises(ValueError, match="dimension"):
        emb.embed("alpha")


def test_remote_index_build_embeds_each_tool_once(embedding_server):
    n_tools = 40
    cat = make_cat([(f"tool_{i}", f"alpha beta w{i} w{i % 7}", []) for i in range(n_tools)])
    emb = RemoteEmbedder(embedding_server, "stub-embed", 16)
    hits = search_catalogue(cat, "alpha w3", 3, emb)
    build = len(EmbeddingHandler.inputs)
    assert n_tools < build < 2 * n_tools
    search_catalogue(cat, "beta w5", 3, emb)
    assert len(EmbeddingHandler.inputs) - build < n_tools
    assert hits == scan_search(cat, "alpha w3", 3, emb)
