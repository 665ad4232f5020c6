"""The benchmark plans every dialogue with its own exact index
(``bench/inputs.py``'s ``World``), and its correctness gate compares the
plan with forge's output bytes. Here the planner's retrieval must equal
forge's, with the same score bits, so a drift between the two shows up in
tier-1 rather than only when the benchmark runs."""

import random
import runpy
from pathlib import Path

import pytest

from forge.retrieval import ToolIndex, VectorIndex, nearest_distractors, search_catalogue
from forge.scenario import sample_persona

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture(scope="module")
def inputs() -> dict:
    return runpy.run_path(str(BENCH / "inputs.py"), run_name="bench_inputs")


def bits(pairs):
    return [(key, float(score).hex()) for key, score in pairs]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_bench_world_retrieves_as_forge_does(inputs, seed):
    rng = random.Random(seed)
    shape = inputs["CatalogueShape"](tools=200 + 50 * seed, desc_words=rng.choice((3, 8, 14)),
                                     params=rng.randrange(4), required=0)
    world = inputs["World"].build(inputs["make_catalogue"](rng, shape))
    tools = ToolIndex(world.cat, world.emb)
    personas = VectorIndex(world.store.personas, world.emb)

    for name in rng.sample(world.cat.names(), 20):
        dset = nearest_distractors(tools, name, inputs["K_DISTRACTORS"])
        assert bits(world.distractors(name).members) == bits(dset.members)
        # the planner embeds the tool's text, forge reads the tool's index row
        row = tools.rows([world.cat.index[name]])[0]
        for rng_seed in range(3):
            assert (world.persona(world.cat.get(name), rng_seed)
                    == sample_persona(personas, row, inputs["PERSONA_K"], rng_seed))

    # a query with no token scores every tool 0, so only the name tie-break orders it
    queries = [inputs["words"](rng, rng.randrange(1, 10)) for _ in range(20)] + ["!!! ???"]
    for query in queries:
        k = rng.randrange(1, 12)
        hits = search_catalogue(tools, query, k)
        assert world.search(query, k) == [name for name, _ in hits]
        assert (bits(world.index.top(world.emb.embed(query), k))
                == bits((world.cat.index[name], score) for name, score in hits))
