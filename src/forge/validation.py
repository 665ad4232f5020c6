"""Dialogue validation: functional validators in fixed order, then
the LLM judges. Any failure rejects the dialogue.

Functional order is Format -> Toolcall -> Toolargs with short-circuit:
later validators assume the structure the earlier ones established.
LLM judges (relevancy, critique) are equally authoritative; they run
concurrently when any of them is remote and inline when all are
scripted. Each judge makes one gateway call, whose retries are its
backend's ``retry_limit``; a GatewayError is an infrastructure error that
costs the dialogue, not a verdict.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .catalogue import Catalogue
from .engine import AssistantTurn, DialogueTrace, arg_faults, render_history
from .gateway import (
    BackendConfig,
    CompletionRequest,
    GatewayError,
    call_width,
    complete,
    fan_out,
    prompt_request,
)
from .prompts import get_prompt, render
from .scenario import Scenario
from .seeds import dialogue_seed

JUDGE_TEMPERATURE = 0.0
JUDGES = ("relevancy", "critique")
# a verdict's leading word (FAIL, FAILED, FAILURE, ...) and optional colon
_VERDICT_WORD = re.compile(r"\w+:?")


@dataclass
class ValidationReport:
    dialogue_id: str
    verdict: str  # accept | reject; error when engine.run_items caught the cascade's failure
    failures: list[tuple[str, str]] = field(default_factory=list)

    @property
    def accepted(self) -> bool:
        return self.verdict == "accept"

    def to_dict(self) -> dict:
        return {
            "dialogue_id": self.dialogue_id,
            "verdict": self.verdict,
            "failures": [[name, reason] for name, reason in self.failures],
        }


def validate_format(d: DialogueTrace) -> tuple[bool, str | None]:
    """Structural checks: a non-empty dialogue, ``DialogueTrace.turns``'
    trace-shape rule (alternation, no blank user turn), then non-empty
    thoughts and the three-section assistant schema."""
    if not d.messages:
        return False, "alternation: empty dialogue"
    try:
        d.turns()
    except ValueError as exc:
        return False, str(exc)
    for i in range(1, len(d.messages), 2):
        msg = d.messages[i]
        if msg.malformed:
            return False, f"assistant turn {i} is malformed raw output"
        if not (msg.thought or "").strip():
            return False, f"thought: assistant turn {i} has no reasoning trace"
        has_content = bool(msg.content.strip())
        has_calls = bool(msg.tool_calls)
        if not has_content and not has_calls:
            return False, f"assistant turn {i} has neither content nor tool calls"
        if has_content and has_calls:
            return False, f"assistant turn {i} mixes content and tool calls"
    return True, None


def validate_toolcall(d: DialogueTrace, scn: Scenario) -> tuple[bool, str | None]:
    """The dialogue must end with exactly one call to the seed tool."""
    final = d.messages[-1]
    if not isinstance(final, AssistantTurn) or not final.tool_calls:
        return False, "final assistant turn carries no tool call"
    if len(final.tool_calls) != 1:
        return False, f"final turn carries {len(final.tool_calls)} tool calls, expected 1"
    if final.tool_calls[0].name != scn.seed_tool:
        return False, (
            f"final call names {final.tool_calls[0].name!r}, expected {scn.seed_tool!r}"
        )
    return True, None


def validate_toolargs(d: DialogueTrace, scn: Scenario) -> tuple[bool, str | None]:
    """Final call arguments must equal the gold map exactly."""
    faults = arg_faults(d.messages[-1].tool_calls[0].args, scn.gold_args)
    for label, keys in zip(("missing required args", "superfluous args",
                            "wrong values for args"), faults):
        if keys:
            return False, f"{label}: {sorted(keys)}"
    return True, None


def _parse_verdict(reply: str) -> tuple[bool, str | None]:
    text = reply.strip()
    if text.upper().startswith("PASS"):
        return True, None
    if text.upper().startswith("FAIL"):
        reason = text[_VERDICT_WORD.match(text).end():].strip() or "judge flagged the dialogue"
        return False, reason
    return False, f"unrecognized judge verdict: {text[:120]}"


def judge_requests(d: DialogueTrace, scn: Scenario,
                   cat: Catalogue) -> dict[str, CompletionRequest]:
    """The exact judge requests for a dialogue (public so scripted
    transcripts can be keyed ahead of a replay run)."""
    gold = cat.get(scn.seed_tool)
    gold_block = f"{gold.name}\n{gold.description}"
    prompts = {
        "relevancy": render(
            get_prompt("relevancy_judge:v1"),
            gold_tool=gold_block,
            dialogue=render_history(d.messages),
        ),
        "critique": render(
            get_prompt("critique_judge:v1"),
            dialogue=render_history(d.messages, thoughts=True),
        ),
    }
    return {name: prompt_request(prompt, dialogue_seed(d.dialogue_id, name),
                                 JUDGE_TEMPERATURE, 256)
            for name, prompt in prompts.items()}


def validate_llm(d: DialogueTrace, scn: Scenario, cat: Catalogue,
                 judges: dict[str, BackendConfig]) -> list[tuple[str, str]]:
    """Run the relevancy and critique judges, concurrently when any of them
    is remote (``call_width``) and inline otherwise.

    Returns the list of judge failures (empty = pass). A judge's one
    ``complete`` call retries only as its backend's ``retry_limit`` allows;
    a GatewayError it raises is raised as a GatewayError "<name> judge
    failed: ...", which costs the dialogue (``engine.DIALOGUE_ERRORS``), not
    a reject verdict.
    """
    requests_by_judge = judge_requests(d, scn, cat)

    def _run(name: str) -> tuple[bool, str | None]:
        try:
            reply = complete(judges[name], requests_by_judge[name])
        except GatewayError as exc:
            raise GatewayError(f"{name} judge failed: {exc}") from exc
        return _parse_verdict(reply)

    workers = max(call_width(judges[name], len(JUDGES)) for name in JUDGES)
    failures = []
    for name, (ok, reason) in zip(JUDGES, list(fan_out(_run, JUDGES, workers))):
        if not ok:
            failures.append((name, reason))
    return failures


def run_cascade(d: DialogueTrace, scn: Scenario, cat: Catalogue,
                judges: dict[str, BackendConfig] | None = None) -> ValidationReport:
    """Format -> Toolcall -> Toolargs with short-circuit, then LLM judges.

    Pass judges=None to run the functional stage only (offline smoke runs).
    """
    report = ValidationReport(dialogue_id=d.dialogue_id, verdict="accept")
    # looked up by name at call time, so a patched module attribute takes effect
    functional = (
        ("format", lambda: validate_format(d)),
        ("toolcall", lambda: validate_toolcall(d, scn)),
        ("toolargs", lambda: validate_toolargs(d, scn)),
    )
    for name, check in functional:
        ok, reason = check()
        if not ok:
            report.verdict = "reject"
            report.failures.append((name, reason))
            return report
    if judges is not None:
        judge_failures = validate_llm(d, scn, cat, judges)
        if judge_failures:
            report.verdict = "reject"
            report.failures.extend(judge_failures)
    return report
