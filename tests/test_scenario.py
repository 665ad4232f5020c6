import json

import numpy as np
import pytest

from forge.gateway import Transcript
from forge.retrieval import VectorIndex, tool_text
from forge.scenario import (
    GoalLeakError,
    PersonaStore,
    Scenario,
    SlotTypeError,
    _value_matches,
    build_scenario,
    goal_request,
    sample_gold_args,
    sample_goal,
    sample_persona,
    slots_request,
)
from conftest import SEED_TOOL, build_replay_world, scripted_backend


@pytest.fixture
def store(emb):
    return PersonaStore.bundled(emb)


def index(store: PersonaStore) -> VectorIndex:
    """The persona index a command builds once from its store."""
    return VectorIndex(store.personas, store.embedder)


def test_bundled_store_loads(store):
    assert len(store.personas) >= 50


def test_store_rejects_empty(emb):
    with pytest.raises(ValueError):
        PersonaStore(personas=[], embedder=emb)


def test_store_file_loader(tmp_path, emb):
    path = tmp_path / "p.json"
    path.write_text(json.dumps(["a persona", "another persona"]), encoding="utf-8")
    assert PersonaStore.load(path, emb).personas == ["a persona", "another persona"]


def test_singleton_store_always_selected(cat, emb):
    personas = index(PersonaStore(personas=["only one"], embedder=emb))
    query = emb.embed(tool_text(cat.get(SEED_TOOL)))
    for seed in range(5):
        assert sample_persona(personas, query, 10, seed) == "only one"


def test_sample_persona_reproducible(cat, store):
    query = store.embedder.embed(tool_text(cat.get(SEED_TOOL)))
    a = sample_persona(index(store), query, 3, 99)
    b = sample_persona(index(store), query, 3, 99)
    assert a == b


def test_sample_persona_draws_from_top_k(cat, store):
    tool = cat.get(SEED_TOOL)
    query = store.embedder.embed(tool_text(tool))
    scored = sorted(
        ((-float(np.dot(query, store.embedder.embed(p))), i)
         for i, p in enumerate(store.personas)))
    top3 = {store.personas[i] for _, i in scored[:3]}
    personas = index(store)
    for seed in range(20):
        assert sample_persona(personas, query, 3, seed) in top3


def test_logistics_persona_in_top_k_for_logistics_tool(cat, emb):
    personas = [
        "A logistics operations manager tracking transport requests across nodes",
        "A payroll administrator preparing the monthly run",
        "A recruiter tracking candidate pipelines",
        "A benefits coordinator answering leave questions",
        "A communications officer drafting newsletters",
        "An events coordinator booking venues",
        "A legal operations specialist tracking contracts",
        "A data protection officer handling requests",
        "A risk analyst scoring vendors",
        "An internal auditor sampling expense reports",
    ]
    store = PersonaStore(personas=personas, embedder=emb)
    tool = cat.get(SEED_TOOL)
    query = emb.embed(tool_text(tool))
    scored = sorted(
        ((-float(np.dot(query, emb.embed(p))), i) for i, p in enumerate(personas)))
    top3 = {personas[i] for _, i in scored[:3]}
    assert personas[0] in top3
    hits = {sample_persona(index(store), query, 3, seed) for seed in range(50)}
    assert hits <= top3


def goal_backend(tool, persona, rng_seed, replies_by_attempt):
    t = Transcript()
    for attempt, reply in replies_by_attempt.items():
        t.register(goal_request(tool, persona, rng_seed, attempt), reply, "m-goal")
    return scripted_backend("m-goal", t)


def test_sample_goal_accepts_clean_reply(cat):
    tool = cat.get(SEED_TOOL)
    gw = goal_backend(tool, "p", 5, {0: "Track actions during transport activities."})
    assert sample_goal(gw, tool, "p", 5) == "Track actions during transport activities."


def test_sample_goal_regenerates_on_tool_name_leak(cat):
    tool = cat.get(SEED_TOOL)
    gw = goal_backend(tool, "p", 5, {
        0: f"Use {SEED_TOOL} to watch transports.",
        1: "Watch what happens to our transports.",
    })
    assert sample_goal(gw, tool, "p", 5) == "Watch what happens to our transports."


def test_sample_goal_regenerates_on_param_name_leak(cat):
    tool = cat.get(SEED_TOOL)
    gw = goal_backend(tool, "p", 5, {
        0: "Check the nodeId for our transports.",
        1: "Check on our transports.",
    })
    assert sample_goal(gw, tool, "p", 5) == "Check on our transports."


def test_sample_goal_gives_up_after_three_leaks(cat):
    tool = cat.get(SEED_TOOL)
    leak = f"Look at {SEED_TOOL} today."
    gw = goal_backend(tool, "p", 5, {0: leak, 1: leak, 2: leak})
    with pytest.raises(GoalLeakError):
        sample_goal(gw, tool, "p", 5)


def slots_backend(tool, persona, rng_seed, replies_by_attempt):
    t = Transcript()
    for attempt, reply in replies_by_attempt.items():
        t.register(slots_request(tool, persona, rng_seed, attempt), reply, "m-slots")
    return scripted_backend("m-slots", t)


def test_sample_gold_args_replays_sample_values(cat):
    tool = cat.get(SEED_TOOL)
    gw = slots_backend(tool, "p", 5, {
        0: '{"nodeId": 437292, "transportRequestId": 957841}'})
    assert sample_gold_args(gw, tool, "p", 5) == {
        "nodeId": 437292, "transportRequestId": 957841}


def test_sample_gold_args_param_free_tool_needs_no_llm(cat):
    tool = cat.get("fn_6642_delivery_schedule_refresh")
    gw = scripted_backend("unused", Transcript())
    assert sample_gold_args(gw, tool, "p", 5) == {}


def test_sample_gold_args_type_gate_forces_regeneration(cat):
    tool = cat.get("fn_2231_logistics_order_tracking")  # orderId: string
    gw = slots_backend(tool, "p", 5, {
        0: '{"orderId": 12}',
        1: '{"orderId": "ORD-12"}',
    })
    assert sample_gold_args(gw, tool, "p", 5) == {"orderId": "ORD-12"}


def test_sample_gold_args_gives_up_after_three_mismatches(cat):
    tool = cat.get("fn_2231_logistics_order_tracking")
    gw = slots_backend(tool, "p", 5, {i: '{"orderId": 12}' for i in range(3)})
    with pytest.raises(SlotTypeError):
        sample_gold_args(gw, tool, "p", 5)


def test_sample_gold_args_nested_reply_costs_one_attempt(cat):
    """A reply nested past the recursion limit, or holding an integer past
    Python's digit limit, bare or inside the braces the fallback search
    finds, is one unreadable attempt."""
    tool = cat.get("fn_2231_logistics_order_tracking")
    gw = slots_backend(tool, "p", 5, {
        0: "[" * 5000 + "]" * 5000,
        1: '{"orderId": ' + '{"a": ' * 5000 + "1" + "}" * 5001,
        2: '{"orderId": "ORD-12"}',
    })
    assert sample_gold_args(gw, tool, "p", 5) == {"orderId": "ORD-12"}
    gw = slots_backend(tool, "p", 5, {
        0: '{"orderId": ' + "1" * 5000 + "}",
        1: 'args: {"orderId": ' + "1" * 5000 + "}",
        2: '{"orderId": "ORD-12"}',
    })
    assert sample_gold_args(gw, tool, "p", 5) == {"orderId": "ORD-12"}


def test_sample_gold_args_requires_exact_key_set(cat):
    tool = cat.get(SEED_TOOL)
    gw = slots_backend(tool, "p", 5, {
        0: '{"nodeId": 1}',  # missing transportRequestId
        1: '{"nodeId": 1, "transportRequestId": 2, "bonus": 3}',  # superset
        2: '{"nodeId": 1, "transportRequestId": 2}',
    })
    assert sample_gold_args(gw, tool, "p", 5) == {"nodeId": 1, "transportRequestId": 2}


def test_sample_gold_args_tolerates_code_fences(cat):
    tool = cat.get("fn_2231_logistics_order_tracking")
    gw = slots_backend(tool, "p", 5, {
        0: '```json\n{"orderId": "ORD-9"}\n```'})
    assert sample_gold_args(gw, tool, "p", 5) == {"orderId": "ORD-9"}


def test_sample_gold_args_finds_an_embedded_object(cat):
    tool = cat.get("fn_2231_logistics_order_tracking")
    gw = slots_backend(tool, "p", 5, {
        0: "Sure: {not json} as asked",
        1: 'Here you go: {"orderId": "ORD-7"} as asked',
    })
    assert sample_gold_args(gw, tool, "p", 5) == {"orderId": "ORD-7"}


@pytest.mark.parametrize("tag,value,matches", [
    ("string", "x", True), ("string", 1, False),
    ("integer", 3, True), ("integer", 2.5, False), ("integer", True, False),
    ("number", 2.5, True), ("number", 3, True), ("number", False, False),
    ("number", "2.5", False),
    ("boolean", True, True), ("boolean", 1, False),
    ("array", [1], True), ("array", (1,), False), ("array", {}, False),
    ("object", {"a": 1}, True), ("object", [], False),
])
def test_value_matches_type_tag(tag, value, matches):
    assert _value_matches(tag, value) is matches


def test_build_scenario_full_scripted_run():
    world = build_replay_world()
    scn = build_scenario(world.tools, world.personas, world.backends["goal"],
                         SEED_TOOL, 5, world.rng_seed)
    assert scn.to_dict() == world.scenario.to_dict()
    assert len(scn.pool) == 6  # 1 gold + 5 distractors
    assert SEED_TOOL in scn.pool
    assert set(scn.gold_args) == {"nodeId", "transportRequestId"}


def test_build_scenario_replay_is_deterministic():
    w1 = build_replay_world()
    w2 = build_replay_world()
    s1 = build_scenario(w1.tools, w1.personas, w1.backends["goal"], SEED_TOOL, 5, w1.rng_seed)
    s2 = build_scenario(w2.tools, w2.personas, w2.backends["goal"], SEED_TOOL, 5, w2.rng_seed)
    assert s1.to_dict() == s2.to_dict()


def test_build_scenario_pool_clamps_to_catalogue(cat, emb):
    # only 6 tools exist, so k=50 yields all 5 non-seed tools
    world = build_replay_world()
    scn = build_scenario(world.tools, world.personas, world.backends["goal"],
                         SEED_TOOL, 5, world.rng_seed)
    assert len(scn.pool) == len(world.cat)


def test_scenario_round_trip():
    world = build_replay_world()
    d = world.scenario.to_dict()
    assert Scenario.from_dict(d).to_dict() == d


@pytest.mark.parametrize("key,value", [
    ("rng_seed", "abc"), ("rng_seed", 1.5), ("rng_seed", True), ("persona", 5),
    ("pool", "x"), ("pool", [SEED_TOOL, 3]), ("seed_tool", None), ("goal", ["g"]),
    ("gold_args", [["nodeId", 1]])])
def test_scenario_from_dict_checks_types(key, value):
    d = {**build_replay_world().scenario.to_dict(), key: value}
    with pytest.raises(ValueError, match=f"scenario {key} must be"):
        Scenario.from_dict(d)
