"""Scenario construction: persona, goal, distractors and gold argument map
for one seed tool.

Persona selection uses top-k retrieval with seeded randomization over the
persona store. Goal and slot values come from LLM generators behind the
gateway, each gated by a post-check with up to three regeneration attempts
(every attempt uses a distinct derived seed, so scripted transcripts can
replay regeneration paths).
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

from .catalogue import Catalogue, Tool, required_args
from .gateway import BackendConfig, ChatMessage, CompletionRequest, complete
from .prompts import get_prompt, render
from .retrieval import (
    DistractorSet,
    Embedder,
    VectorIndex,
    cached_index,
    candidate_pool,
    nearest_distractors,
    tool_text,
)
from .seeds import split_seed

GEN_TEMPERATURE = 0.7
REGEN_ATTEMPTS = 3


class ScenarioError(Exception):
    """Base class for scenario-construction failures."""


class GoalLeakError(ScenarioError):
    """Goal generation kept leaking tool or parameter names."""


class SlotTypeError(ScenarioError):
    """Slot generation kept violating the declared parameter types."""


@dataclass
class PersonaStore:
    personas: list[str]
    embedder: Embedder
    _indexes: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.personas:
            raise ValueError("persona store must contain at least one persona")
        if any(not p for p in self.personas):
            raise ValueError("persona entries must be non-empty")

    @classmethod
    def load(cls, path: str | Path, embedder: Embedder) -> "PersonaStore":
        entries = json.loads(Path(path).read_text(encoding="utf-8"))
        if not isinstance(entries, list) or not all(isinstance(p, str) for p in entries):
            raise ValueError("persona file must be a JSON array of strings")
        return cls(personas=entries, embedder=embedder)

    @classmethod
    def bundled(cls, embedder: Embedder) -> "PersonaStore":
        text = resources.files("forge").joinpath("assets/personas.json").read_text(encoding="utf-8")
        return cls(personas=json.loads(text), embedder=embedder)


@dataclass
class Scenario:
    """Everything one synthesized dialogue is seeded with."""

    seed_tool: str
    persona: str
    goal: str
    distractors: DistractorSet
    pool: list[str]
    gold_args: dict
    rng_seed: int

    @property
    def scenario_id(self) -> str:
        return f"{self.seed_tool}@{self.rng_seed}"

    def to_dict(self) -> dict:
        return {
            "scenario_id": self.scenario_id,
            "seed_tool": self.seed_tool,
            "persona": self.persona,
            "goal": self.goal,
            "distractors": self.distractors.to_dict(),
            "pool": list(self.pool),
            "gold_args": self.gold_args,
            "rng_seed": self.rng_seed,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Scenario":
        return cls(
            seed_tool=d["seed_tool"],
            persona=d["persona"],
            goal=d["goal"],
            distractors=DistractorSet.from_dict(d["distractors"]),
            pool=list(d["pool"]),
            gold_args=dict(d["gold_args"]),
            rng_seed=d["rng_seed"],
        )


def sample_persona(store: PersonaStore, seed_tool: Tool, k: int, rng_seed: int) -> str:
    """Pick a persona via top-k similarity then a uniform seeded draw.

    k clamps to the store size; top-k ties break by store order.
    """
    emb = store.embedder
    index = cached_index(store, emb, lambda: VectorIndex(store.personas, emb))
    top = index.top(emb.embed(tool_text(seed_tool)), max(1, k))
    return store.personas[top[random.Random(rng_seed).randrange(len(top))][0]]


def _gen_request(prompt: str, seed: int) -> CompletionRequest:
    return CompletionRequest(
        messages=(ChatMessage("user", prompt),),
        temperature=GEN_TEMPERATURE,
        seed=seed,
        max_tokens=512,
    )


def goal_request(seed_tool: Tool, persona: str, rng_seed: int, attempt: int = 0) -> CompletionRequest:
    """The exact goal-generation request for a given attempt (public so
    scripted transcripts can be keyed ahead of a replay run)."""
    prompt = render(get_prompt("goal_gen:v1"), persona=persona, tool_text=tool_text(seed_tool))
    return _gen_request(prompt, split_seed(rng_seed, f"goal:{attempt}"))


def slots_request(seed_tool: Tool, persona: str, rng_seed: int, attempt: int = 0) -> CompletionRequest:
    """The exact slot-generation request for a given attempt."""
    required = required_args(seed_tool)
    specs = {
        p: {"type": seed_tool.params[p].type_tag, "description": seed_tool.params[p].description}
        for p in required
    }
    prompt = render(
        get_prompt("slot_gen:v1"),
        persona=persona,
        param_specs=json.dumps(specs, ensure_ascii=False, indent=2),
    )
    return _gen_request(prompt, split_seed(rng_seed, f"slots:{attempt}"))


def _leaks_names(goal: str, tool: Tool) -> bool:
    lowered = goal.lower()
    if tool.name.lower() in lowered:
        return True
    return any(pname.lower() in lowered for pname in tool.params)


def sample_goal(gw: BackendConfig, seed_tool: Tool, persona: str, rng_seed: int) -> str:
    """One-sentence user goal that names neither the tool nor its params."""
    for attempt in range(REGEN_ATTEMPTS):
        reply = complete(gw, goal_request(seed_tool, persona, rng_seed, attempt))
        goal = reply.strip()
        if goal and not _leaks_names(goal, seed_tool):
            return goal
    raise GoalLeakError(
        f"goal generation leaked tool/parameter names {REGEN_ATTEMPTS} times "
        f"for {seed_tool.name!r}"
    )


def _value_matches(type_tag: str, value: object) -> bool:
    if type_tag == "string":
        return isinstance(value, str)
    if type_tag == "integer":
        return isinstance(value, int) and not isinstance(value, bool)
    if type_tag == "number":
        return isinstance(value, (int, float)) and not isinstance(value, bool)
    if type_tag == "boolean":
        return isinstance(value, bool)
    if type_tag == "array":
        return isinstance(value, list)
    if type_tag == "object":
        return isinstance(value, dict)
    return False


def _extract_json_object(text: str) -> dict | None:
    cleaned = text.strip()
    if cleaned.startswith("```"):
        cleaned = re.sub(r"^```[a-zA-Z]*\n?", "", cleaned)
        cleaned = re.sub(r"\n?```$", "", cleaned).strip()
    try:
        obj = json.loads(cleaned)
    except json.JSONDecodeError:
        match = re.search(r"\{.*\}", cleaned, re.DOTALL)
        if not match:
            return None
        try:
            obj = json.loads(match.group(0))
        except json.JSONDecodeError:
            return None
    return obj if isinstance(obj, dict) else None


def sample_gold_args(gw: BackendConfig, seed_tool: Tool, persona: str, rng_seed: int) -> dict:
    """Sample a type-checked value for every required parameter.

    Param-free tools return {} without any LLM call.
    """
    required = required_args(seed_tool)
    if not required:
        return {}
    for attempt in range(REGEN_ATTEMPTS):
        reply = complete(gw, slots_request(seed_tool, persona, rng_seed, attempt))
        values = _extract_json_object(reply)
        if values is None or set(values) != set(required):
            continue
        if all(_value_matches(seed_tool.params[p].type_tag, values[p]) for p in required):
            return {p: values[p] for p in required}
    raise SlotTypeError(
        f"slot generation failed type checks {REGEN_ATTEMPTS} times for {seed_tool.name!r}"
    )


def build_scenario(cat: Catalogue, store: PersonaStore, gw: BackendConfig,
                   seed_tool: str, k: int, rng_seed: int,
                   persona_k: int = 10, slot_gw: BackendConfig | None = None) -> Scenario:
    """Compose a full Scenario for one seed tool.

    Deterministic given (rng_seed, scripted transcripts): every random
    draw and every LLM request seed derives from rng_seed.
    """
    tool = cat.get(seed_tool)
    dset = nearest_distractors(cat, seed_tool, k, store.embedder)
    pool = candidate_pool(seed_tool, dset, split_seed(rng_seed, "pool"))
    persona = sample_persona(store, tool, persona_k, split_seed(rng_seed, "persona"))
    goal = sample_goal(gw, tool, persona, rng_seed)
    gold_args = sample_gold_args(slot_gw or gw, tool, persona, rng_seed)
    return Scenario(
        seed_tool=seed_tool,
        persona=persona,
        goal=goal,
        distractors=dset,
        pool=pool,
        gold_args=gold_args,
        rng_seed=rng_seed,
    )
