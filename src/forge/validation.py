"""Dialogue validation: functional validators in fixed order, then
concurrent LLM judges. Any failure rejects the dialogue.

Functional order is Format -> Toolcall -> Toolargs with short-circuit:
later validators assume the structure the earlier ones established.
LLM judges (relevancy, critique) run concurrently and are equally
authoritative. Gateway failures during the judge stage are infrastructure
errors, not verdicts; the stage is retried once before giving up.

Stage timings are in-memory diagnostics only; the on-disk report format
omits them so replays stay byte-identical.
"""

from __future__ import annotations

import time
import zlib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

from .catalogue import Catalogue
from .engine import AssistantTurn, DialogueTrace, UserTurn, args_equal, render_history
from .gateway import BackendConfig, ChatMessage, CompletionRequest, GatewayError, complete
from .prompts import get_prompt, render
from .scenario import Scenario
from .seeds import split_seed

JUDGE_TEMPERATURE = 0.0
JUDGES = ("relevancy", "critique")


class ValidationInfraError(Exception):
    """Judge plumbing failed (after one retry); distinct from a reject verdict."""


@dataclass
class ValidationReport:
    dialogue_id: str
    verdict: str  # accept | reject
    failures: list[tuple[str, str]] = field(default_factory=list)
    stage_timings: dict[str, float] = field(default_factory=dict)

    @property
    def accepted(self) -> bool:
        return self.verdict == "accept"

    def to_dict(self) -> dict:
        return {
            "dialogue_id": self.dialogue_id,
            "verdict": self.verdict,
            "failures": [[name, reason] for name, reason in self.failures],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ValidationReport":
        return cls(
            dialogue_id=d["dialogue_id"],
            verdict=d["verdict"],
            failures=[(n, r) for n, r in d.get("failures", [])],
        )


def validate_format(d: DialogueTrace) -> tuple[bool, str | None]:
    """Structural checks: strict user/assistant alternation, non-empty
    thoughts, and the three-section assistant schema."""
    if not d.messages:
        return False, "alternation: empty dialogue"
    for i, msg in enumerate(d.messages):
        expect_user = i % 2 == 0
        if expect_user and not isinstance(msg, UserTurn):
            return False, f"alternation: message {i} should be a user turn"
        if not expect_user and not isinstance(msg, AssistantTurn):
            return False, f"alternation: message {i} should be an assistant turn"
    if len(d.messages) % 2 != 0:
        return False, "alternation: dialogue must end with an assistant turn"
    for i, msg in enumerate(d.messages):
        if isinstance(msg, UserTurn):
            if not msg.text.strip():
                return False, f"user turn {i} is empty"
            continue
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
    call = d.messages[-1].tool_calls[0]
    gold = scn.gold_args
    missing = set(gold) - set(call.args)
    if missing:
        return False, f"missing required args: {sorted(missing)}"
    extra = set(call.args) - set(gold)
    if extra:
        return False, f"superfluous args: {sorted(extra)}"
    if not args_equal(call.args, gold):
        wrong = [k for k in gold if not args_equal({k: call.args[k]}, {k: gold[k]})]
        return False, f"wrong values for args: {sorted(wrong)}"
    return True, None


def _judge_request(prompt: str, seed: int) -> CompletionRequest:
    return CompletionRequest(
        messages=(ChatMessage("user", prompt),),
        temperature=JUDGE_TEMPERATURE,
        seed=seed,
        max_tokens=256,
    )


def _parse_verdict(reply: str) -> tuple[bool, str | None]:
    text = reply.strip()
    if text.upper().startswith("PASS"):
        return True, None
    if text.upper().startswith("FAIL"):
        reason = text[4:].lstrip(":").strip() or "judge flagged the dialogue"
        return False, reason
    return False, f"unrecognized judge verdict: {text[:120]}"


def _judge_seed(d: DialogueTrace, label: str) -> int:
    return split_seed(zlib.crc32(d.dialogue_id.encode("utf-8")), label)


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
    return {name: _judge_request(prompt, _judge_seed(d, name))
            for name, prompt in prompts.items()}


def validate_llm(d: DialogueTrace, scn: Scenario, cat: Catalogue,
                 judges: dict[str, BackendConfig],
                 timings: dict[str, float] | None = None) -> list[tuple[str, str]]:
    """Run the relevancy and critique judges concurrently.

    Returns the list of judge failures (empty = pass). GatewayErrors are
    retried once per judge, then raised as ValidationInfraError. Each
    judge's own wall time, retry included, is stored in ``timings``.
    """
    requests_by_judge = judge_requests(d, scn, cat)

    def _run(name: str) -> tuple[bool, str | None, float]:
        start = time.perf_counter()
        req = requests_by_judge[name]
        try:
            reply = complete(judges[name], req)
        except GatewayError:
            try:
                reply = complete(judges[name], req)
            except GatewayError as exc:
                raise ValidationInfraError(f"{name} judge failed twice: {exc}") from exc
        return (*_parse_verdict(reply), time.perf_counter() - start)

    failures = []
    with ThreadPoolExecutor(max_workers=len(JUDGES)) as pool:
        results = {name: pool.submit(_run, name) for name in JUDGES}
        for name in JUDGES:
            ok, reason, elapsed = results[name].result()
            if timings is not None:
                timings[name] = elapsed
            if not ok:
                failures.append((name, reason))
    return failures


def run_cascade(d: DialogueTrace, scn: Scenario, cat: Catalogue,
                judges: dict[str, BackendConfig] | None = None) -> ValidationReport:
    """Format -> Toolcall -> Toolargs with short-circuit, then LLM judges.

    Pass judges=None to run the functional stage only (offline smoke runs).
    """
    report = ValidationReport(dialogue_id=d.dialogue_id, verdict="accept")
    functional = (
        ("format", lambda: validate_format(d)),
        ("toolcall", lambda: validate_toolcall(d, scn)),
        ("toolargs", lambda: validate_toolargs(d, scn)),
    )
    for name, check in functional:
        start = time.perf_counter()
        ok, reason = check()
        report.stage_timings[name] = time.perf_counter() - start
        if not ok:
            report.verdict = "reject"
            report.failures.append((name, reason))
            return report
    if judges is not None:
        judge_failures = validate_llm(d, scn, cat, judges, report.stage_timings)
        if judge_failures:
            report.verdict = "reject"
            report.failures.extend(judge_failures)
    return report
