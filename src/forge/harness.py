"""Static and dynamic evaluation of a candidate assistant backend.

Static: re-decode every assistant turn against the frozen gold user
utterances. Dynamic: full on-policy rollout where each user utterance is
produced by a multi-sampling, permutation-debiased voting ensemble.
The two protocols share one rollout and differ only in where each user
turn comes from.

Unparseable assistant output never aborts a run: the turn is recorded as
malformed and scores as abstention downstream.
"""

from __future__ import annotations

import logging
import random
import re
from dataclasses import dataclass

from .catalogue import Catalogue
from .engine import (
    AssistantFormatError,
    AssistantTurn,
    DialogueTrace,
    EngineConfig,
    TERMINATED_TOOL_CALL,
    TERMINATED_TURN_CAP,
    UserTurn,
    assistant_request,
    parse_assistant_output,
    render_history,
    run_items,
    selection_system_prompt,
    user_request,
    user_system_prompt,
    utterance,
)
from .gateway import (
    MAX_IN_FLIGHT,
    BackendConfig,
    CompletionRequest,
    call_width,
    complete,
    fan_out,
    prompt_request,
    sample_n,
)
from .metrics import MetricReport, Reference, conv_relevancy, score_corpus
from .prompts import get_prompt, render
from .scenario import Scenario
from .seeds import split_seed

logger = logging.getLogger(__name__)


@dataclass
class EvalTask:
    """One benchmark task: static when it has a gold dialogue to re-decode
    against, dynamic (a voting rollout) when it has none."""

    scenario: Scenario
    gold_dialogue: DialogueTrace | None = None

    @property
    def kind(self) -> str:
        return "static" if self.gold_dialogue is not None else "dynamic"


@dataclass
class VotingConfig:
    generator: BackendConfig
    voter: BackendConfig
    n_samples: int = 3
    m_voters: int = 3
    rng_seed: int = 0

    def __post_init__(self):
        if self.n_samples < 1 or self.m_voters < 1:
            raise ValueError("n_samples and m_voters must be >= 1")


def invert_vote(perm: list[int], position: int) -> int:
    """Map a voter's 1-based pick from the permuted list back to the
    0-based original candidate index.

    perm[i] is the original index displayed at position i.
    """
    if not 1 <= position <= len(perm):
        raise IndexError(f"position {position} outside permutation of size {len(perm)}")
    return perm[position - 1]


def pool_votes(votes: list[int]) -> int:
    """Mode over original indices; ties break to the lowest index."""
    if not votes:
        raise ValueError("no votes to pool")
    counts: dict[int, int] = {}
    for v in votes:
        counts[v] = counts.get(v, 0) + 1
    best = max(counts.values())
    return min(v for v, c in counts.items() if c == best)


def _parse_vote(reply: str, n: int) -> int | None:
    """First integer in the reply if it is a valid 1..n position."""
    match = re.search(r"\d+", reply)
    try:
        value = int(match.group(0)) if match else 0
    except ValueError:  # more digits than int() reads: never a valid position
        return None
    return value if 1 <= value <= n else None


def voter_request(scn: Scenario, messages: list, candidates: list[str], rng_seed: int,
                  j: int) -> tuple[list[int], CompletionRequest]:
    """Voter j's seeded permutation and its exact request (public so
    scripted transcripts can be keyed ahead of a replay run). perm[i] is
    the original index of the candidate shown at position i + 1."""
    turn_key = len(messages)
    perm = list(range(len(candidates)))
    random.Random(split_seed(rng_seed, f"perm:{turn_key}:{j}")).shuffle(perm)
    listing = "\n".join(f"{pos + 1}. {candidates[orig]}" for pos, orig in enumerate(perm))
    prompt = render(
        get_prompt("voter:v1"),
        persona=scn.persona,
        goal=scn.goal,
        history=render_history(messages) or "(conversation start)",
        candidates=listing,
    )
    return perm, prompt_request(prompt, split_seed(rng_seed, f"vote:{turn_key}:{j}"), 0.0, 8)


def vote_utterance(scn: Scenario, user_prompt: str, messages: list,
                   vcfg: VotingConfig) -> str:
    """Produce one user utterance via sample-then-vote; ``user_prompt`` is
    the scenario's rendered user-proxy system prompt.

    n candidates come from the generator; each of m voters sees them in its
    own seeded permutation and picks one; picks are inverted back to
    original indices and pooled by mode (lowest index on ties). Out-of-range
    or unparseable votes are discarded; if every vote is discarded the
    first candidate wins with a logged warning.

    A remote generator's n samples and a remote voter's m calls are each
    issued at once; votes are parsed and pooled in voter order, so the
    result does not depend on which reply arrives first.
    """
    turn_key = len(messages)
    gen_req = user_request(user_prompt, messages, split_seed(vcfg.rng_seed, f"gen:{turn_key}"))
    candidates = [c.strip() for c in sample_n(vcfg.generator, gen_req, vcfg.n_samples)]
    if vcfg.n_samples == 1:
        return candidates[0]
    ballots = [voter_request(scn, messages, candidates, vcfg.rng_seed, j)
               for j in range(vcfg.m_voters)]
    replies = list(fan_out(lambda ballot: complete(vcfg.voter, ballot[1]), ballots,
                           call_width(vcfg.voter, vcfg.m_voters)))
    votes = []
    for (perm, _), reply in zip(ballots, replies):
        position = _parse_vote(reply, vcfg.n_samples)
        if position is not None:
            votes.append(invert_vote(perm, position))
    if not votes:
        logger.warning("all votes discarded at turn %s of %s; falling back to candidate 1",
                       turn_key, scn.scenario_id)
        return candidates[0]
    return candidates[pool_votes(votes)]


def _decode_assistant(assistant: BackendConfig, sys_prompt: str, messages: list,
                      seed: int) -> AssistantTurn:
    raw = complete(assistant, assistant_request(sys_prompt, messages, seed))
    try:
        return parse_assistant_output(raw)
    except AssistantFormatError:
        return AssistantTurn(thought=None, raw=raw)


def _rollout(scn: Scenario, assistant: BackendConfig, cat: Catalogue, kind: str, label: str,
             next_user) -> DialogueTrace:
    """The rollout both protocols share. ``next_user(messages)`` returns the
    next user utterance, or None to end the rollout; assistant turn t is
    decoded with the seed label ``{label}:asst:{t}``. The trace ends by
    tool_call when any assistant turn carries calls, else by turn_cap."""
    sys_a = selection_system_prompt(cat, scn.pool)
    messages: list = []
    while (utterance := next_user(messages)) is not None:
        t = len(messages) // 2 + 1  # the pair this utterance opens
        messages.append(UserTurn(utterance))
        messages.append(_decode_assistant(assistant, sys_a, messages,
                                          split_seed(scn.rng_seed, f"{label}:asst:{t}")))
    called = any(turn.tool_calls for turn in messages[1::2])
    return DialogueTrace(f"{scn.scenario_id}#{kind}", scn.scenario_id, messages,
                         terminated_by=TERMINATED_TOOL_CALL if called else TERMINATED_TURN_CAP)


def eval_static(task: EvalTask, assistant: BackendConfig, cat: Catalogue) -> DialogueTrace:
    """Decode each assistant turn against frozen gold user utterances.

    Gold user turns are never mutated; the assistant conditions on them
    plus its own earlier replies.
    """
    users = iter([user.text for user, _ in task.gold_dialogue.turns()])
    return _rollout(task.scenario, assistant, cat, "static", "static",
                    lambda messages: next(users, None))


def eval_dynamic(scn: Scenario, assistant: BackendConfig, cat: Catalogue,
                 vcfg: VotingConfig, t_max: int) -> DialogueTrace:
    """On-policy rollout with the frozen voting user-proxy.

    Terminates on any tool_calls emission or at the turn cap.
    """
    sys_u = user_system_prompt(scn, cat)

    def next_user(messages: list) -> str | None:
        if len(messages) >= 2 * t_max or (messages and messages[-1].tool_calls):
            return None
        return utterance(vote_utterance(scn, sys_u, messages, vcfg))

    return _rollout(scn, assistant, cat, "dynamic", "dyn", next_user)


def run_benchmark(tasks: list[EvalTask], assistant: BackendConfig, cat: Catalogue,
                  vcfg: VotingConfig | None, judge: BackendConfig | None,
                  ecfg: EngineConfig, concurrency: int = 1,
                  exclusions: set[str] | None = None, on_trace=None,
                  ) -> tuple[MetricReport | None, list[DialogueTrace], list[dict]]:
    """Run every task, score the finished traces, return (report, traces, failed).

    Rollouts run ``concurrency`` at a time. A finished trace's rubric grading
    starts as soon as its rollout returns, while the other rollouts go on, on
    a judge stage ``MAX_IN_FLIGHT`` wide (inline for a scripted judge);
    each dialogue still sums its grades in turn order. Every finished trace
    is returned for audit, including excluded ones; exclusions (scenario
    ids) are neither graded nor aggregated. Each task whose rollout fails
    (``engine.DIALOGUE_ERRORS``) adds a ``{"dialogue_id", "error"}`` row to
    ``failed`` and to the report's ``per_dialogue``; a failed grading keeps
    its trace and gives its row a null conv_rel and an ``error``. The report
    is None when tasks failed and no finished task is left to score.
    ``on_trace(d)``, if given, gets each finished trace in task order as
    soon as its task and every earlier one are done.
    """
    if vcfg is None and any(task.gold_dialogue is None for task in tasks):
        raise ValueError("tasks without a gold dialogue require a voting config")
    excluded = exclusions or set()

    def _run(task: EvalTask) -> DialogueTrace:
        if task.kind == "static":
            return eval_static(task, assistant, cat)
        return eval_dynamic(task.scenario, assistant, cat, vcfg, ecfg.t_max)

    def _grade(d: DialogueTrace) -> float | None:
        if judge is None or d.scenario_ref in excluded:
            return None
        return conv_relevancy(d, judge)

    results = run_items(_run, tasks, concurrency, _grade,
                        call_width(judge, MAX_IN_FLIGHT) if judge is not None else 1)
    traces, failed, scored, grades = [], [], [], []
    for task, result in zip(tasks, results):
        if isinstance(result, Exception):
            failed.append({"dialogue_id": f"{task.scenario.scenario_id}#{task.kind}",
                           "error": str(result)})
            continue
        d, grade = result
        traces.append(d)
        if on_trace is not None:
            on_trace(d)
        if d.scenario_ref not in excluded:
            scored.append((d, Reference(task.scenario.seed_tool, task.scenario.gold_args)))
            grades.append(grade)
    if not scored and failed:
        return None, traces, failed
    report = score_corpus(scored, grades if judge is not None else None)
    report.per_dialogue += failed
    return report, traces, failed
