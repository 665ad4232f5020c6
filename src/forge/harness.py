"""Static and dynamic evaluation of a candidate assistant backend.

Static: re-decode every assistant turn against the frozen gold user
utterances. Dynamic: full on-policy rollout where each user utterance is
produced by a multi-sampling, permutation-debiased voting ensemble.

Unparseable assistant output never aborts a run: the turn is recorded as
malformed and scores as abstention downstream.
"""

from __future__ import annotations

import logging
import random
import re
from concurrent.futures import ThreadPoolExecutor
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
    selection_system_prompt,
    user_request,
    user_system_prompt,
)
from .gateway import BackendConfig, ChatMessage, CompletionRequest, complete, sample_n
from .metrics import MetricReport, Reference, score_corpus
from .prompts import get_prompt, render
from .scenario import Scenario
from .seeds import split_seed

logger = logging.getLogger(__name__)

MODE_STATIC = "static"
MODE_DYNAMIC = "dynamic"


@dataclass
class EvalTask:
    scenario: Scenario
    mode: str
    gold_dialogue: DialogueTrace | None = None

    def __post_init__(self):
        if self.mode not in (MODE_STATIC, MODE_DYNAMIC):
            raise ValueError(f"unknown eval mode: {self.mode!r}")
        if self.mode == MODE_STATIC and self.gold_dialogue is None:
            raise ValueError("static tasks require a gold dialogue")


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
    if not match:
        return None
    value = int(match.group(0))
    return value if 1 <= value <= n else None


def vote_utterance(scn: Scenario, cat: Catalogue, messages: list,
                   vcfg: VotingConfig, ecfg: EngineConfig) -> str:
    """Produce one user utterance via sample-then-vote.

    n candidates come from the generator; each of m voters sees them in its
    own seeded permutation and picks one; picks are inverted back to
    original indices and pooled by mode (lowest index on ties). Out-of-range
    or unparseable votes are discarded; if every vote is discarded the
    first candidate wins with a logged warning.
    """
    turn_key = len(messages)
    gen_req = user_request(
        user_system_prompt(scn, cat, ecfg), messages,
        split_seed(vcfg.rng_seed, f"gen:{turn_key}"), ecfg)
    candidates = [c.strip() for c in sample_n(vcfg.generator, gen_req, vcfg.n_samples)]
    if vcfg.n_samples == 1:
        return candidates[0]
    votes = []
    for j in range(vcfg.m_voters):
        perm = list(range(vcfg.n_samples))
        random.Random(split_seed(vcfg.rng_seed, f"perm:{turn_key}:{j}")).shuffle(perm)
        listing = "\n".join(
            f"{pos + 1}. {candidates[orig]}" for pos, orig in enumerate(perm))
        prompt = render(
            get_prompt("voter:v1"),
            persona=scn.persona,
            goal=scn.goal,
            history=render_history(messages) or "(conversation start)",
            candidates=listing,
        )
        req = CompletionRequest(
            messages=(ChatMessage("user", prompt),),
            temperature=0.0,
            seed=split_seed(vcfg.rng_seed, f"vote:{turn_key}:{j}"),
            max_tokens=8,
        )
        position = _parse_vote(complete(vcfg.voter, req), vcfg.n_samples)
        if position is None:
            continue
        votes.append(invert_vote(perm, position))
    if not votes:
        logger.warning("all votes discarded at turn %s of %s; falling back to candidate 1",
                       turn_key, scn.scenario_id)
        return candidates[0]
    return candidates[pool_votes(votes)]


def _decode_assistant(assistant: BackendConfig, sys_prompt: str, messages: list,
                      seed: int, ecfg: EngineConfig) -> AssistantTurn:
    raw = complete(assistant, assistant_request(sys_prompt, messages, seed, ecfg))
    try:
        return parse_assistant_output(raw)
    except AssistantFormatError:
        return AssistantTurn(thought=None, raw=raw)


def eval_static(task: EvalTask, assistant: BackendConfig, cat: Catalogue,
                ecfg: EngineConfig) -> DialogueTrace:
    """Decode each assistant turn against frozen gold user utterances.

    Gold user turns are never mutated; the assistant conditions on them
    plus its own earlier replies.
    """
    scn = task.scenario
    gold_pairs = task.gold_dialogue.turns()
    sys_a = selection_system_prompt(cat, scn.pool, ecfg)
    messages: list = []
    for t, (gold_user, _) in enumerate(gold_pairs, start=1):
        messages.append(UserTurn(gold_user.text))
        turn = _decode_assistant(
            assistant, sys_a, messages, split_seed(scn.rng_seed, f"static:asst:{t}"), ecfg)
        messages.append(turn)
    called = any(t.tool_calls for t in messages if isinstance(t, AssistantTurn))
    return DialogueTrace(
        dialogue_id=f"{scn.scenario_id}#static",
        scenario_ref=scn.scenario_id,
        messages=messages,
        phase_boundary=None,
        terminated_by=TERMINATED_TOOL_CALL if called else TERMINATED_TURN_CAP,
    )


def eval_dynamic(scn: Scenario, assistant: BackendConfig, cat: Catalogue,
                 vcfg: VotingConfig, t_max: int, ecfg: EngineConfig) -> DialogueTrace:
    """On-policy rollout with the frozen voting user-proxy.

    Terminates on any tool_calls emission or at the turn cap.
    """
    messages: list = []
    terminated = TERMINATED_TURN_CAP
    sys_a = selection_system_prompt(cat, scn.pool, ecfg)
    for t in range(1, t_max + 1):
        utterance = vote_utterance(scn, cat, messages, vcfg, ecfg)
        messages.append(UserTurn(utterance))
        turn = _decode_assistant(
            assistant, sys_a, messages, split_seed(scn.rng_seed, f"dyn:asst:{t}"), ecfg)
        messages.append(turn)
        if turn.tool_calls:
            terminated = TERMINATED_TOOL_CALL
            break
    return DialogueTrace(
        dialogue_id=f"{scn.scenario_id}#dynamic",
        scenario_ref=scn.scenario_id,
        messages=messages,
        phase_boundary=None,
        terminated_by=terminated,
    )


def run_benchmark(tasks: list[EvalTask], assistant: BackendConfig, cat: Catalogue,
                  vcfg: VotingConfig | None, judge: BackendConfig | None,
                  ecfg: EngineConfig, t_max: int = 12, concurrency: int = 1,
                  exclusions: set[str] | None = None) -> tuple[MetricReport, list[DialogueTrace]]:
    """Run every task, score the traces, return (report, traces).

    All traces are returned for audit, including excluded ones; exclusions
    (scenario ids) are only dropped from metric aggregation.
    """
    if not tasks:
        raise ValueError("benchmark requires at least one task")
    dynamic = [t for t in tasks if t.mode == MODE_DYNAMIC]
    if dynamic and vcfg is None:
        raise ValueError("dynamic tasks require a voting config")

    def _run(task: EvalTask) -> DialogueTrace:
        if task.mode == MODE_STATIC:
            return eval_static(task, assistant, cat, ecfg)
        return eval_dynamic(task.scenario, assistant, cat, vcfg, t_max, ecfg)

    if concurrency > 1:
        with ThreadPoolExecutor(max_workers=concurrency) as pool:
            traces = list(pool.map(_run, tasks))
    else:
        traces = [_run(task) for task in tasks]
    refs = {
        task.scenario.scenario_id: Reference(task.scenario.seed_tool, task.scenario.gold_args)
        for task in tasks
    }
    excluded = exclusions or set()
    scored = [d for d in traces if d.scenario_ref not in excluded]
    if not scored:
        raise ValueError("every task was excluded; nothing to score")
    report = score_corpus(scored, refs, judge=judge)
    return report, traces
