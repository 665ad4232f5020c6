"""Two-phase dialogue synthesis: tool selection, then parameter filling.

A user-proxy agent and an assistant agent alternate turns. In the selection
stage the assistant only sees candidates returned by a live retrieval over
the catalogue (queried with the user's opening utterance) and must narrow
them down by asking questions. Once it commits to a tool, the committing
message is removed; if the commitment was correct, the retained prefix
continues into the filling stage where the assistant, now told the correct
tool, elicits the remaining argument values and finally raises the call.

Commitment signal: the first tool_calls emission during the selection
stage, or an explicit "<<select: tool_name>>" marker inside the thought
trace. The marker exists so scripted agents can commit without fabricating
a premature call stub.

With scripted gateway backends the whole engine is bit-deterministic:
every LLM request seed derives from the scenario seed and the position in
the dialogue.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass, field

from .catalogue import Catalogue
from .gateway import BackendConfig, ChatMessage, CompletionRequest, complete
from .prompts import get_prompt, render
from .retrieval import Embedder, search_catalogue
from .scenario import Scenario
from .seeds import split_seed

SELECT_MARKER_RE = re.compile(r"<<select:\s*([^>]+?)\s*>>")

TERMINATED_TOOL_CALL = "tool_call"
TERMINATED_TURN_CAP = "turn_cap"

# sampling settings shared by the user-proxy and assistant agents
AGENT_TEMPERATURE = 0.7
AGENT_MAX_TOKENS = 1024


class AssistantFormatError(ValueError):
    """Raw assistant output does not follow the think/response wire format."""


class SynthesisRejected(Exception):
    """The dialogue was discarded by a synthesis-stage rule."""


class WrongToolError(SynthesisRejected):
    """The assistant committed to a tool other than the seed tool."""


class RetrieverMissError(SynthesisRejected):
    """Live retrieval failed to surface the seed tool in every attempt."""


@dataclass(frozen=True)
class ToolCall:
    name: str
    args: dict

    def to_dict(self) -> dict:
        return {"name": self.name, "args": self.args}


@dataclass
class UserTurn:
    text: str

    def to_dict(self) -> dict:
        return {"role": "user", "content": self.text}


@dataclass
class AssistantTurn:
    """One assistant message: private thought plus a public payload.

    The payload is either natural-language content or a tool_calls list.
    ``raw`` is set instead when the output could not be parsed (evaluation
    keeps such turns and scores them as abstentions).
    """

    thought: str | None
    content: str = ""
    tool_calls: list[ToolCall] | None = None
    raw: str | None = None

    @property
    def malformed(self) -> bool:
        return self.raw is not None

    def public_text(self) -> str:
        if self.malformed:
            return self.raw
        if self.tool_calls:
            return serialize_tool_calls(self.tool_calls)
        return self.content

    def to_dict(self) -> dict:
        d: dict = {"role": "assistant", "thought": self.thought, "content": self.content,
                   "tool_calls": [c.to_dict() for c in self.tool_calls] if self.tool_calls else None}
        if self.raw is not None:
            d["raw"] = self.raw
        return d


def _message_from_dict(d: dict) -> UserTurn | AssistantTurn:
    if d["role"] == "user":
        return UserTurn(text=d["content"])
    if d["role"] == "assistant":
        calls = d.get("tool_calls")
        return AssistantTurn(
            thought=d.get("thought"),
            content=d.get("content", ""),
            tool_calls=[ToolCall(c["name"], dict(c["args"])) for c in calls] if calls else None,
            raw=d.get("raw"),
        )
    raise ValueError(f"unknown message role: {d['role']!r}")


@dataclass
class DialogueTrace:
    """A synthesized or evaluated dialogue, stored as a flat message list.

    Well-formed traces alternate user/assistant strictly; the flat layout
    lets validators represent and reject malformed sequences too.
    phase_boundary is the number of turn pairs whose user utterance was
    produced during the selection stage; filling-stage user turns start
    after it.
    """

    dialogue_id: str
    scenario_ref: str
    messages: list = field(default_factory=list)
    phase_boundary: int | None = None
    terminated_by: str = TERMINATED_TURN_CAP

    def user_turns(self) -> list[UserTurn]:
        return [m for m in self.messages if isinstance(m, UserTurn)]

    def assistant_turns(self) -> list[AssistantTurn]:
        return [m for m in self.messages if isinstance(m, AssistantTurn)]

    def pair_count(self) -> int:
        return len(self.assistant_turns())

    def turns(self) -> list[tuple[UserTurn, AssistantTurn]]:
        """Strictly alternating (user, assistant) pairs; raises if malformed."""
        msgs = self.messages
        if len(msgs) % 2 != 0:
            raise ValueError("trace does not pair up: odd message count")
        pairs = []
        for i in range(0, len(msgs), 2):
            u, a = msgs[i], msgs[i + 1]
            if not isinstance(u, UserTurn) or not isinstance(a, AssistantTurn):
                raise ValueError(f"trace does not alternate at message {i}")
            pairs.append((u, a))
        return pairs

    def to_dict(self) -> dict:
        return {
            "dialogue_id": self.dialogue_id,
            "scenario_ref": self.scenario_ref,
            "messages": [m.to_dict() for m in self.messages],
            "phase_boundary": self.phase_boundary,
            "terminated_by": self.terminated_by,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "DialogueTrace":
        return cls(
            dialogue_id=d["dialogue_id"],
            scenario_ref=d["scenario_ref"],
            messages=[_message_from_dict(m) for m in d["messages"]],
            phase_boundary=d.get("phase_boundary"),
            terminated_by=d.get("terminated_by", TERMINATED_TURN_CAP),
        )


@dataclass
class EngineConfig:
    t_max: int = 12
    regen_attempts: int = 5

    def __post_init__(self):
        if self.t_max < 2:
            raise ValueError("t_max must be >= 2")
        if self.regen_attempts < 1:
            raise ValueError("regen_attempts must be >= 1")


# ---------------------------------------------------------------------------
# wire format


def serialize_tool_calls(calls: list[ToolCall]) -> str:
    return json.dumps([c.to_dict() for c in calls], ensure_ascii=False)


def serialize_assistant_turn(turn: AssistantTurn) -> str:
    """Render a turn back into the raw wire format the agents emit."""
    if turn.malformed:
        return turn.raw
    return f"<think>{turn.thought}</think> {turn.public_text()}"


def parse_assistant_output(raw: str) -> AssistantTurn:
    """Split raw assistant output into thought and payload.

    The payload is a tool-call list when it starts with '[', otherwise
    natural-language content. Raises AssistantFormatError on a missing
    think block, an empty payload, or a bracket-led payload that fails to
    parse as a list of {"name", "args"} objects.
    """
    if not raw:
        raise AssistantFormatError("empty assistant output")
    open_idx = raw.find("<think>")
    if open_idx < 0:
        raise AssistantFormatError("missing <think> marker")
    close_idx = raw.find("</think>", open_idx)
    if close_idx < 0:
        raise AssistantFormatError("missing </think> marker")
    thought = raw[open_idx + len("<think>"):close_idx].strip()
    remainder = raw[close_idx + len("</think>"):].strip()
    if not remainder:
        raise AssistantFormatError("assistant payload is empty")
    if remainder.startswith("["):
        try:
            entries = json.loads(remainder)
        except json.JSONDecodeError as exc:
            raise AssistantFormatError(f"unparseable tool-call JSON: {exc}") from exc
        if not isinstance(entries, list) or not entries:
            raise AssistantFormatError("tool-call list is empty")
        calls = []
        for entry in entries:
            if not isinstance(entry, dict) or "name" not in entry or "args" not in entry:
                raise AssistantFormatError(f"malformed tool-call entry: {entry!r}")
            if not isinstance(entry["args"], dict):
                raise AssistantFormatError("tool-call args must be an object")
            calls.append(ToolCall(name=str(entry["name"]), args=dict(entry["args"])))
        return AssistantTurn(thought=thought, content="", tool_calls=calls)
    return AssistantTurn(thought=thought, content=remainder, tool_calls=None)


# ---------------------------------------------------------------------------
# canonical value comparison


_INT_RE = re.compile(r"[+-]?\d+")


def _as_number(value: object) -> int | float | None:
    if isinstance(value, bool):
        return None
    if isinstance(value, (int, float)):
        return value
    if isinstance(value, str):
        text = value.strip()
        if _INT_RE.fullmatch(text):
            return int(text)
        try:
            number = float(text)
        except ValueError:
            return None
        # "nan" parses but never equals itself; compare it as text instead.
        return None if number != number else number
    return None


def canonical_equal(a: object, b: object) -> bool:
    """Value equality as used pipeline-wide for tool arguments.

    Numbers compare numerically regardless of textual form, strings after
    trimming surrounding whitespace, booleans strictly; containers
    recursively.
    """
    if isinstance(a, bool) or isinstance(b, bool):
        return isinstance(a, bool) and isinstance(b, bool) and a == b
    na, nb = _as_number(a), _as_number(b)
    if na is not None and nb is not None:
        return na == nb
    if isinstance(a, str) and isinstance(b, str):
        return a.strip() == b.strip()
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(canonical_equal(x, y) for x, y in zip(a, b))
    if isinstance(a, dict) and isinstance(b, dict):
        return set(a) == set(b) and all(canonical_equal(a[k], b[k]) for k in a)
    return a == b


def args_equal(args: dict, gold: dict) -> bool:
    """Exact key-set equality plus canonical value equality."""
    return set(args) == set(gold) and all(canonical_equal(args[k], gold[k]) for k in gold)


STOP_CONTINUE = "continue"
STOP_SUCCESS = "success"
STOP_CAP_PENDING = "cap_pending"


def check_stopping(turn: AssistantTurn, scn: Scenario, at_cap: bool = False) -> str:
    """Classify a parsed assistant turn against the stopping criteria.

    Success requires a single call to the seed tool whose argument map
    equals the gold map exactly: no missing or superfluous keys, values
    canonically equal.
    """
    if turn.tool_calls and len(turn.tool_calls) == 1:
        call = turn.tool_calls[0]
        if call.name == scn.seed_tool and args_equal(call.args, scn.gold_args):
            return STOP_SUCCESS
    return STOP_CAP_PENDING if at_cap else STOP_CONTINUE


def committed_tool(turn: AssistantTurn) -> str | None:
    """Selection-stage commitment signal, if any (see module docstring)."""
    if turn.tool_calls:
        return turn.tool_calls[0].name
    if turn.thought:
        match = SELECT_MARKER_RE.search(turn.thought)
        if match:
            return match.group(1)
    return None


# ---------------------------------------------------------------------------
# request construction (pure; tests rebuild these to key scripted transcripts).
# Prompt assets and sampling settings are fixed; the builders keep their
# ``cfg`` parameter so existing call sites stay valid.


def render_history(messages: list, thoughts: bool = False) -> str:
    """One ``User:`` / ``Assistant:`` line per message, assistant turns by
    their public text; with ``thoughts`` a non-empty thought adds an
    ``Assistant (thinking):`` line before its turn."""
    lines = []
    for m in messages:
        if isinstance(m, UserTurn):
            lines.append(f"User: {m.text}")
            continue
        if thoughts and m.thought:
            lines.append(f"Assistant (thinking): {m.thought}")
        lines.append(f"Assistant: {m.public_text()}")
    return "\n".join(lines)


def render_tools_block(cat: Catalogue, names: list[str]) -> str:
    return json.dumps([cat.get(n).to_dict() for n in names], ensure_ascii=False, indent=2)


def selection_system_prompt(cat: Catalogue, names: list[str], cfg: EngineConfig) -> str:
    return render(get_prompt("assistant_system:v1"), tools=render_tools_block(cat, names))


def filling_system_prompt(cat: Catalogue, names: list[str], gold: str, cfg: EngineConfig) -> str:
    return render(
        get_prompt("assistant_filling:v1"),
        gold_tool=json.dumps(cat.get(gold).to_dict(), ensure_ascii=False, indent=2),
        tools=render_tools_block(cat, names),
    )


def user_system_prompt(scn: Scenario, cat: Catalogue, cfg: EngineConfig) -> str:
    persona = f"{scn.persona} Your current objective: {scn.goal}"
    return render(
        get_prompt("user_proxy:v1"),
        user_persona=persona,
        gold_tool=json.dumps(cat.get(scn.seed_tool).to_dict(), ensure_ascii=False, indent=2),
        parameter_values=json.dumps(scn.gold_args, ensure_ascii=False, indent=2),
        distractor_tools=render_tools_block(cat, scn.distractors.names()),
    )


def assistant_request(sys_prompt: str, messages: list, seed: int,
                      cfg: EngineConfig) -> CompletionRequest:
    """Context h^a_t: full history with prior thoughts, ending on a user turn."""
    chat = [ChatMessage("system", sys_prompt)]
    for m in messages:
        if isinstance(m, UserTurn):
            chat.append(ChatMessage("user", m.text))
        else:
            chat.append(ChatMessage("assistant", serialize_assistant_turn(m)))
    return CompletionRequest(messages=tuple(chat), temperature=AGENT_TEMPERATURE,
                             seed=seed, max_tokens=AGENT_MAX_TOKENS)


def user_request(sys_prompt: str, messages: list, seed: int,
                 cfg: EngineConfig) -> CompletionRequest:
    """Context h^u_t from the proxy's perspective: its own utterances appear
    as assistant turns, the assistant's public replies as user turns;
    thoughts stay hidden."""
    chat = [ChatMessage("system", sys_prompt)]
    for m in messages:
        if isinstance(m, UserTurn):
            chat.append(ChatMessage("assistant", m.text))
        else:
            chat.append(ChatMessage("user", m.public_text()))
    return CompletionRequest(messages=tuple(chat), temperature=AGENT_TEMPERATURE,
                             seed=seed, max_tokens=AGENT_MAX_TOKENS)


def shuffled_candidates(names: list[str], rng_seed: int) -> list[str]:
    """Deterministic presentation order with the gold position uniform."""
    out = sorted(names)
    random.Random(rng_seed).shuffle(out)
    return out


# ---------------------------------------------------------------------------
# the two synthesis stages


@dataclass
class SelectionOutcome:
    """Retained prefix after a successful commitment (ends with a pending
    user turn), or a complete capped trace when no commitment happened."""

    messages: list
    presented: list[str]
    capped: bool = False


def run_tool_selection(scn: Scenario, cat: Catalogue, emb: Embedder,
                       gw_user: BackendConfig, gw_asst: BackendConfig,
                       cfg: EngineConfig) -> SelectionOutcome:
    """Run the selection stage.

    Regenerates from scratch (same seed tool, fresh derived seeds) when live
    retrieval misses the seed tool, up to cfg.regen_attempts total attempts.
    Raises WrongToolError if the assistant commits to a distractor and
    RetrieverMissError when every attempt misses.
    """
    sys_u = user_system_prompt(scn, cat, cfg)
    for attempt in range(cfg.regen_attempts):
        label = f"sel:{attempt}"
        messages: list = []
        opening = complete(gw_user, user_request(
            sys_u, messages, split_seed(scn.rng_seed, f"{label}:user:0"), cfg)).strip()
        retrieved = [name for name, _ in search_catalogue(cat, opening, len(scn.pool), emb)]
        if scn.seed_tool not in retrieved:
            continue
        presented = shuffled_candidates(retrieved, split_seed(scn.rng_seed, f"{label}:present"))
        sys_a = selection_system_prompt(cat, presented, cfg)
        messages.append(UserTurn(opening))
        while True:
            raw = complete(gw_asst, assistant_request(
                sys_a, messages, split_seed(scn.rng_seed, f"{label}:asst:{len(messages)}"), cfg))
            turn = parse_assistant_output(raw)
            chosen = committed_tool(turn)
            if chosen is not None:
                if chosen != scn.seed_tool:
                    raise WrongToolError(
                        f"assistant committed to {chosen!r}, expected {scn.seed_tool!r}")
                # correct commitment: drop the committing message, keep the prefix
                return SelectionOutcome(messages=messages, presented=presented)
            messages.append(turn)
            if len(messages) // 2 >= cfg.t_max:
                return SelectionOutcome(messages=messages, presented=presented, capped=True)
            nxt = complete(gw_user, user_request(
                sys_u, messages, split_seed(scn.rng_seed, f"{label}:user:{len(messages)}"), cfg)).strip()
            messages.append(UserTurn(nxt))
    raise RetrieverMissError(
        f"seed tool {scn.seed_tool!r} absent from retrieval in "
        f"{cfg.regen_attempts} attempts")


def run_param_filling(prefix: SelectionOutcome, scn: Scenario, cat: Catalogue,
                      gw_user: BackendConfig, gw_asst: BackendConfig,
                      cfg: EngineConfig) -> DialogueTrace:
    """Run the filling stage on a selection prefix.

    The assistant now has the seed tool confirmed in its context and asks
    for missing values; the proxy discloses them. Terminates on any
    tool_calls emission or at the turn cap. Param-free tools produce an
    immediate call without further user input.
    """
    messages = list(prefix.messages)
    boundary = sum(1 for m in messages if isinstance(m, UserTurn))
    sys_a = filling_system_prompt(cat, prefix.presented, scn.seed_tool, cfg)
    sys_u = user_system_prompt(scn, cat, cfg)
    terminated = TERMINATED_TURN_CAP
    while True:
        raw = complete(gw_asst, assistant_request(
            sys_a, messages, split_seed(scn.rng_seed, f"fill:asst:{len(messages)}"), cfg))
        turn = parse_assistant_output(raw)
        messages.append(turn)
        if turn.tool_calls:
            terminated = TERMINATED_TOOL_CALL
            break
        if len(messages) // 2 >= cfg.t_max:
            break
        nxt = complete(gw_user, user_request(
            sys_u, messages, split_seed(scn.rng_seed, f"fill:user:{len(messages)}"), cfg)).strip()
        messages.append(UserTurn(nxt))
    return DialogueTrace(
        dialogue_id=scn.scenario_id,
        scenario_ref=scn.scenario_id,
        messages=messages,
        phase_boundary=boundary,
        terminated_by=terminated,
    )


def synthesize_dialogue(scn: Scenario, cat: Catalogue, emb: Embedder,
                        gw_user: BackendConfig, gw_asst: BackendConfig,
                        cfg: EngineConfig) -> DialogueTrace:
    """Full two-phase synthesis for one scenario."""
    prefix = run_tool_selection(scn, cat, emb, gw_user, gw_asst, cfg)
    if prefix.capped:
        boundary = sum(1 for m in prefix.messages if isinstance(m, UserTurn))
        return DialogueTrace(
            dialogue_id=scn.scenario_id,
            scenario_ref=scn.scenario_id,
            messages=prefix.messages,
            phase_boundary=boundary,
            terminated_by=TERMINATED_TURN_CAP,
        )
    return run_param_filling(prefix, scn, cat, gw_user, gw_asst, cfg)
