"""Scenario construction: persona, goal, distractors and gold argument map
for one seed tool.

Persona selection uses top-k retrieval with seeded randomization over the
persona store's index, built once per command like the catalogue's
``ToolIndex``; its query is the seed tool's row of that ``ToolIndex``. Goal
and slot values come from LLM generators behind the gateway, each gated by
a post-check with up to three regeneration attempts (every attempt uses a
distinct derived seed, so scripted transcripts can replay regeneration
paths).
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from .catalogue import TAG_TYPES, Tool, dump_json, parse_json, required_args, typed
from .gateway import BackendConfig, CompletionRequest, complete, prompt_request
from .prompts import get_prompt, render
from .retrieval import (
    DistractorSet,
    Embedder,
    ToolIndex,
    VectorIndex,
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

    def __post_init__(self):
        if not isinstance(self.personas, list) or not all(
                isinstance(p, str) for p in self.personas):
            raise ValueError("personas must be a JSON array of strings")
        if not self.personas:
            raise ValueError("persona store must contain at least one persona")
        if any(not p for p in self.personas):
            raise ValueError("persona entries must be non-empty")

    @classmethod
    def load(cls, path: str | Path, embedder: Embedder) -> "PersonaStore":
        return cls(parse_json(Path(path).read_text(encoding="utf-8")), embedder)

    @classmethod
    def bundled(cls, embedder: Embedder) -> "PersonaStore":
        text = resources.files("forge").joinpath("assets/personas.json").read_text(encoding="utf-8")
        return cls(parse_json(text), embedder)


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
        """The scenario a ``to_dict`` record describes; a field of the wrong
        JSON type is a ValueError naming the field."""
        pool = typed("scenario pool", d["pool"], list, "an array of tool names")
        if not all(isinstance(name, str) for name in pool):
            raise ValueError(f"scenario pool must be an array of tool names, got {pool!r}")
        return cls(
            seed_tool=typed("scenario seed_tool", d["seed_tool"], str, "a string"),
            persona=typed("scenario persona", d["persona"], str, "a string"),
            goal=typed("scenario goal", d["goal"], str, "a string"),
            distractors=DistractorSet.from_dict(d["distractors"]),
            pool=list(pool),
            gold_args=dict(typed("scenario gold_args", d["gold_args"], dict, "a JSON object")),
            rng_seed=typed("scenario rng_seed", d["rng_seed"], int, "an integer"),
        )


def sample_persona(personas: VectorIndex, query: np.ndarray, k: int, rng_seed: int) -> str:
    """Pick a persona via top-k similarity to the float64 ``query`` (the
    seed tool's embedding) then a uniform seeded draw.

    k clamps to the store size; top-k ties break by store order.
    """
    top = personas.top(query, max(1, k))
    return personas.texts[top[random.Random(rng_seed).randrange(len(top))][0]]


def goal_request(seed_tool: Tool, persona: str, rng_seed: int, attempt: int = 0) -> CompletionRequest:
    """The exact goal-generation request for a given attempt (public so
    scripted transcripts can be keyed ahead of a replay run)."""
    prompt = render(get_prompt("goal_gen:v1"), persona=persona, tool_text=tool_text(seed_tool))
    return prompt_request(prompt, split_seed(rng_seed, f"goal:{attempt}"), GEN_TEMPERATURE, 512)


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
        param_specs=dump_json(specs),
    )
    return prompt_request(prompt, split_seed(rng_seed, f"slots:{attempt}"), GEN_TEMPERATURE, 512)


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
    """Whether ``value`` has ``type_tag``'s JSON type. A bool is an int to
    Python, but JSON keeps it apart: it matches only ``boolean``."""
    return (isinstance(value, TAG_TYPES[type_tag])
            and isinstance(value, bool) == (type_tag == "boolean"))


def _extract_json_object(text: str) -> dict | None:
    cleaned = text.strip()
    if cleaned.startswith("```"):
        cleaned = re.sub(r"^```[a-zA-Z]*\n?", "", cleaned)
        cleaned = re.sub(r"\n?```$", "", cleaned).strip()
    try:
        obj = parse_json(cleaned)
    except ValueError:
        match = re.search(r"\{.*\}", cleaned, re.DOTALL)
        if not match:
            return None
        try:
            obj = parse_json(match.group(0))
        except ValueError:
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


def build_scenario(tools: ToolIndex, personas: VectorIndex, gw: BackendConfig,
                   seed_tool: str, k: int, rng_seed: int,
                   persona_k: int = 10, slot_gw: BackendConfig | None = None) -> Scenario:
    """Compose a full Scenario for one seed tool.

    Deterministic given (rng_seed, scripted transcripts): every random
    draw and every LLM request seed derives from rng_seed. ``tools`` and
    ``personas`` must share one embedder (``cli`` builds both from the
    config's): the persona query is the seed tool's row of ``tools``,
    bitwise ``embed(tool_text(tool))``, so the draw embeds nothing.
    """
    tool = tools.cat.get(seed_tool)
    dset = nearest_distractors(tools, seed_tool, k)
    pool = candidate_pool(seed_tool, dset, split_seed(rng_seed, "pool"))
    query = tools.rows([tools.cat.index[seed_tool]])[0]
    persona = sample_persona(personas, query, persona_k, split_seed(rng_seed, "persona"))
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
