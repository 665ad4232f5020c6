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

from .catalogue import Catalogue, parse_json, typed
from .gateway import (BackendConfig, ChatMessage, CompletionRequest, GatewayError, complete,
                      fan_out)
from .prompts import get_prompt, render
from .retrieval import ToolIndex, search_catalogue
from .scenario import Scenario, ScenarioError
from .seeds import split_seed

SELECT_MARKER_RE = re.compile(r"<<select:\s*([^>]+?)\s*>>")

TERMINATED_TOOL_CALL = "tool_call"
TERMINATED_TURN_CAP = "turn_cap"

# sampling settings shared by the user-proxy and assistant agents
AGENT_TEMPERATURE = 0.7
AGENT_MAX_TOKENS = 1024

# what the user proxy is shown for an empty assistant reply (a malformed turn)
EMPTY_REPLY = "(empty reply)"


class AssistantFormatError(ValueError):
    """Raw assistant output does not follow the think/response wire format."""


class SynthesisRejected(Exception):
    """The dialogue was discarded by a synthesis-stage rule."""


class WrongToolError(SynthesisRejected):
    """The assistant committed to a tool other than the seed tool."""


class RetrieverMissError(SynthesisRejected):
    """Live retrieval failed to surface the seed tool in every attempt."""


class BlankUtteranceError(Exception):
    """The user proxy's reply holds nothing but whitespace."""


# Failures that cost one dialogue, not the whole run; caught only in ``run_items``.
DIALOGUE_ERRORS = (GatewayError, ScenarioError, AssistantFormatError, BlankUtteranceError)


def run_items(fn, items, workers: int, then=None, then_workers: int = 1):
    """``gateway.fan_out``, except that an item whose ``fn`` raises one of
    ``DIALOGUE_ERRORS`` gets the exception in place of its result; any
    other exception ends the iteration at its item.

    With ``then`` (``fan_out``'s second stage), an item whose ``fn``
    returned gets the pair (result, ``then(result)``), ``then``'s own
    failure standing in for its value; an item whose ``fn`` failed still
    gets the exception, and ``then`` never sees it."""
    def caught(call, arg):
        try:
            return call(arg)
        except DIALOGUE_ERRORS as exc:
            return exc

    def paired(result):
        return result if isinstance(result, Exception) else (result, caught(then, result))

    return fan_out(lambda item: caught(fn, item), items, workers,
                   paired if then is not None else None, then_workers)


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


def _call_from_dict(c: dict) -> ToolCall:
    typed("tool call", c, dict, "an object")
    return ToolCall(typed("tool call name", c["name"], str, "a string"),
                    dict(typed("tool call args", c["args"], dict, "an object")))


def _message_from_dict(d: dict) -> UserTurn | AssistantTurn:
    typed("trace message", d, dict, "an object")
    if d["role"] == "user":
        return UserTurn(text=typed("message content", d["content"], str, "a string"))
    if d["role"] == "assistant":
        calls = typed("message tool_calls", d.get("tool_calls"), (list, type(None)),
                      "null or an array of calls")
        return AssistantTurn(
            thought=typed("message thought", d.get("thought"), (str, type(None)),
                          "a string or null"),
            content=typed("message content", d.get("content", ""), str, "a string"),
            tool_calls=[_call_from_dict(c) for c in calls] if calls else None,
            raw=typed("message raw", d.get("raw"), (str, type(None)), "a string or null"),
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

    def assistant_turns(self) -> list[AssistantTurn]:
        return [m for m in self.messages if isinstance(m, AssistantTurn)]

    def pair_count(self) -> int:
        return len(self.assistant_turns())

    def turns(self) -> list[tuple[UserTurn, AssistantTurn]]:
        """The (user, assistant) pairs, ``[]`` for no messages. The one owner
        of the trace-shape rule: raises ValueError at the first message out
        of alternation, else when the last message is a user turn."""
        msgs = self.messages
        for i, msg in enumerate(msgs):
            if i % 2 == 0 and not isinstance(msg, UserTurn):
                raise ValueError(f"alternation: message {i} should be a user turn")
            if i % 2 and not isinstance(msg, AssistantTurn):
                raise ValueError(f"alternation: message {i} should be an assistant turn")
        if len(msgs) % 2:
            raise ValueError("alternation: dialogue must end with an assistant turn")
        return list(zip(msgs[::2], msgs[1::2]))

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
        """The trace a ``to_dict`` record describes; a field of the wrong
        JSON type is a ValueError naming the field."""
        messages = typed("trace messages", d["messages"], list, "an array of objects")
        return cls(
            dialogue_id=typed("trace dialogue_id", d["dialogue_id"], str, "a string"),
            scenario_ref=typed("trace scenario_ref", d["scenario_ref"], str, "a string"),
            messages=[_message_from_dict(m) for m in messages],
            phase_boundary=typed("trace phase_boundary", d.get("phase_boundary"),
                                 (int, type(None)), "an integer or null"),
            terminated_by=typed("trace terminated_by", d.get("terminated_by", TERMINATED_TURN_CAP),
                                str, "a string"),
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
            entries = parse_json(remainder)
        except ValueError as exc:
            raise AssistantFormatError(f"unparseable tool-call JSON: {exc}") from exc
        if not isinstance(entries, list) or not entries:
            raise AssistantFormatError("tool-call list is empty")
        calls = []
        for entry in entries:
            if not isinstance(entry, dict) or "name" not in entry or "args" not in entry:
                raise AssistantFormatError(f"malformed tool-call entry: {entry!r}")
            if not isinstance(entry["name"], str):
                raise AssistantFormatError("tool-call name must be a string")
            if not isinstance(entry["args"], dict):
                raise AssistantFormatError("tool-call args must be an object")
            calls.append(ToolCall(name=entry["name"], args=dict(entry["args"])))
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
        try:  # an integer string too long for int() compares as text
            number = int(text) if _INT_RE.fullmatch(text) else float(text)
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
# Prompt assets and sampling settings are fixed; the trailing ``cfg`` is
# unread and stays only while the benchmark's input generator still passes
# an EngineConfig positionally. Tool JSON comes from
# the catalogue (``Tool.json_text``, ``Catalogue.render``), encoded once per
# tool however many prompts show it. ``assistant_context`` is the one owner
# of the assistant's context: ``assistant_request`` sends it and
# ``export.slice_dialogue`` trains on it.


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


def selection_system_prompt(cat: Catalogue, names: list[str], cfg=None) -> str:
    return render(get_prompt("assistant_system:v1"), tools=cat.render(names))


def filling_system_prompt(cat: Catalogue, names: list[str], gold: str, cfg=None) -> str:
    return render(
        get_prompt("assistant_filling:v1"),
        gold_tool=cat.get(gold).json_text,
        tools=cat.render(names),
    )


def user_system_prompt(scn: Scenario, cat: Catalogue, cfg=None) -> str:
    persona = f"{scn.persona} Your current objective: {scn.goal}"
    return render(
        get_prompt("user_proxy:v1"),
        user_persona=persona,
        gold_tool=cat.get(scn.seed_tool).json_text,
        parameter_values=json.dumps(scn.gold_args, ensure_ascii=False, indent=2),
        distractor_tools=cat.render(scn.distractors.names()),
    )


def assistant_context(sys_prompt: str, messages: list) -> list[tuple[str, str]]:
    """Context h^a_t as (role, content) pairs: the system prompt, then the
    full history with assistant turns in their wire format, thoughts kept."""
    context = [("system", sys_prompt)]
    for m in messages:
        if isinstance(m, UserTurn):
            context.append(("user", m.text))
        else:
            context.append(("assistant", serialize_assistant_turn(m)))
    return context


def assistant_request(sys_prompt: str, messages: list, seed: int,
                      cfg=None) -> CompletionRequest:
    """The assistant's request for context h^a_t, ending on a user turn."""
    chat = tuple(ChatMessage(role, content)
                 for role, content in assistant_context(sys_prompt, messages))
    return CompletionRequest(messages=chat, temperature=AGENT_TEMPERATURE,
                             seed=seed, max_tokens=AGENT_MAX_TOKENS)


def user_request(sys_prompt: str, messages: list, seed: int,
                 cfg=None) -> CompletionRequest:
    """Context h^u_t from the proxy's perspective: its own utterances appear
    as assistant turns, the assistant's public replies as user turns
    (``EMPTY_REPLY`` for an empty malformed one); thoughts stay hidden."""
    chat = [ChatMessage("system", sys_prompt)]
    for m in messages:
        if isinstance(m, UserTurn):
            chat.append(ChatMessage("assistant", m.text))
        else:
            chat.append(ChatMessage("user", m.public_text() or EMPTY_REPLY))
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
    user turn), or a complete capped trace when no commitment happened.
    ``user_prompt`` is the scenario's rendered user-proxy system prompt,
    which filling reuses."""

    messages: list
    presented: list[str]
    user_prompt: str
    capped: bool = False


def utterance(reply: str) -> str:
    """A user-proxy reply as the text of a user turn: stripped, and a
    BlankUtteranceError when nothing is left."""
    text = reply.strip()
    if not text:
        raise BlankUtteranceError("user proxy reply is blank")
    return text


def _user_utterance(scn: Scenario, label: str, sys_u: str, messages: list,
                    gw_user: BackendConfig) -> str:
    return utterance(complete(gw_user, user_request(
        sys_u, messages, split_seed(scn.rng_seed, f"{label}:user:{len(messages)}"))))


def _converse(scn: Scenario, label: str, sys_a: str, sys_u: str, messages: list,
              gw_user: BackendConfig, gw_asst: BackendConfig, t_max: int,
              ends_stage) -> AssistantTurn | None:
    """Alternate assistant and user turns on ``messages``, which ends on a
    user turn. Returns the first assistant turn for which ``ends_stage``
    holds, without appending it, or None once ``t_max`` pairs are reached."""
    while True:
        raw = complete(gw_asst, assistant_request(
            sys_a, messages, split_seed(scn.rng_seed, f"{label}:asst:{len(messages)}")))
        turn = parse_assistant_output(raw)
        if ends_stage(turn):
            return turn
        messages.append(turn)
        if len(messages) // 2 >= t_max:
            return None
        messages.append(UserTurn(_user_utterance(scn, label, sys_u, messages, gw_user)))


def run_tool_selection(scn: Scenario, tools: ToolIndex,
                       gw_user: BackendConfig, gw_asst: BackendConfig,
                       cfg: EngineConfig) -> SelectionOutcome:
    """Run the selection stage.

    Regenerates from scratch (same seed tool, fresh derived seeds) when live
    retrieval misses the seed tool, up to cfg.regen_attempts total attempts.
    Raises WrongToolError if the assistant commits to a distractor and
    RetrieverMissError when every attempt misses.
    """
    cat = tools.cat
    sys_u = user_system_prompt(scn, cat)
    for attempt in range(cfg.regen_attempts):
        label = f"sel:{attempt}"
        opening = _user_utterance(scn, label, sys_u, [], gw_user)
        retrieved = [name for name, _ in search_catalogue(tools, opening, len(scn.pool))]
        if scn.seed_tool not in retrieved:
            continue
        presented = shuffled_candidates(retrieved, split_seed(scn.rng_seed, f"{label}:present"))
        messages: list = [UserTurn(opening)]
        # a tool call named "" is still a commitment, so test for None
        commit = _converse(scn, label, selection_system_prompt(cat, presented), sys_u,
                           messages, gw_user, gw_asst, cfg.t_max,
                           lambda turn: committed_tool(turn) is not None)
        if commit is None:
            return SelectionOutcome(messages=messages, presented=presented,
                                    user_prompt=sys_u, capped=True)
        chosen = committed_tool(commit)
        if chosen != scn.seed_tool:
            raise WrongToolError(
                f"assistant committed to {chosen!r}, expected {scn.seed_tool!r}")
        # correct commitment: the committing message is dropped, the prefix kept
        return SelectionOutcome(messages=messages, presented=presented, user_prompt=sys_u)
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
    immediate call without further user input. A capped selection prefix
    has no turns left and comes back as the capped trace.
    """
    messages = list(prefix.messages)
    boundary = sum(1 for m in messages if isinstance(m, UserTurn))
    call = None if prefix.capped else _converse(
        scn, "fill", filling_system_prompt(cat, prefix.presented, scn.seed_tool),
        prefix.user_prompt, messages, gw_user, gw_asst, cfg.t_max,
        lambda turn: bool(turn.tool_calls))
    if call is not None:
        messages.append(call)
    return DialogueTrace(
        dialogue_id=scn.scenario_id,
        scenario_ref=scn.scenario_id,
        messages=messages,
        phase_boundary=boundary,
        terminated_by=TERMINATED_TURN_CAP if call is None else TERMINATED_TOOL_CALL,
    )


def synthesize_dialogue(scn: Scenario, tools: ToolIndex,
                        gw_user: BackendConfig, gw_asst: BackendConfig,
                        cfg: EngineConfig) -> DialogueTrace:
    """Full two-phase synthesis for one scenario."""
    prefix = run_tool_selection(scn, tools, gw_user, gw_asst, cfg)
    return run_param_filling(prefix, scn, tools.cat, gw_user, gw_asst, cfg)
