"""Seeded synthetic inputs for the benchmark workloads.

Everything here derives from the workload seed: the catalogue, the
scenarios, the planned dialogue of every seed tool and the scripted replies
keyed by request fingerprint. Transcripts are built by walking forge's
public request builders in the same order the engine, the validator, the
scorer and the harness call them, so every fingerprint the run produces has
a registered reply.

Retrieval results needed to plan a dialogue come from ``ExactIndex``: the
catalogue is embedded once and queried by matrix product, and the few
candidates near the k-th score are re-scored with the same ``np.dot`` call
forge uses. That keeps setup cheap at N=5,000 while producing the same
ranking and the same score floats as ``nearest_distractors`` and
``search_catalogue``.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field

import numpy as np

from forge.catalogue import TYPE_TAGS, Catalogue, Tool, parse_catalogue, required_args
from forge.engine import (
    AssistantTurn,
    DialogueTrace,
    EngineConfig,
    UserTurn,
    assistant_request,
    filling_system_prompt,
    parse_assistant_output,
    selection_system_prompt,
    shuffled_candidates,
    user_request,
    user_system_prompt,
)
from forge.gateway import ChatMessage, CompletionRequest, Transcript, fingerprint
from forge.metrics import rubric_request
from forge.prompts import get_prompt, render
from forge.retrieval import DistractorSet, HashEmbedder, candidate_pool, tool_text
from forge.scenario import PersonaStore, Scenario, goal_request, slots_request
from forge.seeds import split_seed
from forge.validation import judge_requests

MODELS = {"goal": "m-goal", "user_proxy": "m-user", "assistant": "m-asst",
          "relevancy": "m-rel", "critique": "m-crit", "judge": "m-judge",
          "voter": "m-voter"}

K_DISTRACTORS = 5
PERSONA_K = 10
_TIE_MARGIN = 1e-9


def _vocabulary(size: int = 4000) -> list[str]:
    """Fixed pseudo-word vocabulary of 4-6 letter words.

    Parameter names join two of these, so they are longer than any single
    word and a goal made of vocabulary words can never leak one.
    """
    rng = random.Random(20250703)
    syllables = [c + v for c in "bcdfghjklmnprstvz" for v in "aeiou"]
    words: set[str] = set()
    while len(words) < size:
        words.add("".join(rng.choice(syllables) for _ in range(rng.choice((2, 3)))))
    return sorted(words)


VOCAB = _vocabulary()


def words(rng: random.Random, n: int) -> str:
    return " ".join(rng.choices(VOCAB, k=n))


def sentence(rng: random.Random, n: int) -> str:
    return words(rng, n).capitalize() + "."


# ---------------------------------------------------------------------------
# catalogue


@dataclass(frozen=True)
class CatalogueShape:
    tools: int
    desc_words: int
    params: int
    required: int
    param_desc_words: int = 6


def make_catalogue(rng: random.Random, shape: CatalogueShape) -> list[dict]:
    """Tool dicts with fixed description length and parameter count; the
    parameter types cycle through every type tag."""
    out = []
    for i in range(shape.tools):
        params = {}
        while len(params) < shape.params:
            a, b = rng.sample(VOCAB, 2)
            j = len(params)
            params[a + b.capitalize()] = {
                "type": TYPE_TAGS[(i + j) % len(TYPE_TAGS)],
                "description": sentence(rng, shape.param_desc_words),
                "required": j < shape.required,
            }
        a, b = rng.sample(VOCAB, 2)
        out.append({"name": f"fn_{i:05d}_{a}_{b}",
                    "description": sentence(rng, shape.desc_words),
                    "parameters": params})
    return out


class ExactIndex:
    """Top-k by inner product with forge's ordering: score descending, then
    the tie key ascending (tool name, or persona position)."""

    def __init__(self, vectors: list[np.ndarray], ties: list):
        self.matrix = np.stack(vectors)
        self.ties = ties

    def top(self, query: np.ndarray, k: int, exclude: int | None = None) -> list[tuple[int, float]]:
        approx = self.matrix @ query
        if exclude is not None:
            approx[exclude] = -np.inf
        k = min(k, len(approx) - (exclude is not None))
        kth = np.partition(approx, len(approx) - k)[len(approx) - k]
        rows = np.nonzero(approx >= kth - _TIE_MARGIN)[0]
        scored = sorted(((-float(np.dot(query, self.matrix[r].copy())), self.ties[r], int(r))
                         for r in rows if r != exclude))
        return [(r, -neg) for neg, _, r in scored[:k]]


@dataclass
class World:
    """A parsed catalogue with its retrieval and persona indexes."""

    tools_json: list[dict]
    cat: Catalogue
    emb: HashEmbedder
    index: ExactIndex
    store: PersonaStore
    persona_index: ExactIndex

    @classmethod
    def build(cls, tools_json: list[dict]) -> "World":
        cat = parse_catalogue(json.dumps(tools_json))
        emb = HashEmbedder()
        index = ExactIndex([emb.embed(tool_text(t)) for t in cat.tools], cat.names())
        store = PersonaStore.bundled(emb)
        personas = ExactIndex([emb.embed(p) for p in store.personas],
                              list(range(len(store.personas))))
        return cls(tools_json, cat, emb, index, store, personas)

    def distractors(self, name: str) -> DistractorSet:
        row = self.cat.index[name]
        top = self.index.top(self.index.matrix[row].copy(), K_DISTRACTORS, exclude=row)
        return DistractorSet(seed=name, members=tuple((self.cat.tools[r].name, s) for r, s in top))

    def search(self, query: str, k: int) -> list[str]:
        return [self.cat.tools[r].name for r, _ in self.index.top(self.emb.embed(query), k)]

    def persona(self, tool: Tool, rng_seed: int) -> str:
        top = self.persona_index.top(self.emb.embed(tool_text(tool)), PERSONA_K)
        return self.store.personas[top[random.Random(rng_seed).randrange(len(top))][0]]


# ---------------------------------------------------------------------------
# values and replies

_BAD_VALUE = {"string": 7, "integer": "seven", "number": "many", "boolean": "yes",
              "array": "none", "object": "none"}


def gold_value(rng: random.Random, type_tag: str):
    if type_tag == "string":
        return "-".join(rng.sample(VOCAB, 2))
    if type_tag == "integer":
        return rng.randrange(1000, 999999)
    if type_tag == "number":
        return round(rng.uniform(1.0, 999.0), 2)
    if type_tag == "boolean":
        return rng.random() < 0.5
    if type_tag == "array":
        return rng.sample(VOCAB, 2)
    return {"key": rng.choice(VOCAB)}


def wrong_value(value):
    if isinstance(value, bool):
        return not value
    if isinstance(value, (int, float)):
        return value + 1
    if isinstance(value, str):
        return value + "-x"
    if isinstance(value, list):
        return value + ["extra"]
    return {"key": "other"}


def gold_args(rng: random.Random, tool: Tool) -> dict:
    return {p: gold_value(rng, tool.params[p].type_tag) for p in required_args(tool)}


def call_reply(rng: random.Random, calls: list[tuple[str, dict]]) -> str:
    payload = json.dumps([{"name": n, "args": a} for n, a in calls], ensure_ascii=False)
    return f"<think>{words(rng, 12)}</think> {payload}"


def ask_reply(rng: random.Random, n_words: int, thought: bool = True) -> str:
    think = words(rng, max(6, n_words // 4)) if thought else ""
    return f"<think>{think}</think> {sentence(rng, n_words)[:-1]}?"


def commit_reply(rng: random.Random, name: str) -> str:
    return f"<think>{words(rng, 10)} <<select: {name}>></think> Let me set that up."


# ---------------------------------------------------------------------------
# generate: planned dialogues

ACCEPTED = "accepted"
GEN_KINDS = {
    "accept": ACCEPTED, "goal_regen": ACCEPTED, "slot_regen": ACCEPTED,
    "retriever_regen": ACCEPTED, "wrong_tool": "wrong_tool", "turn_cap": "turn_cap",
    "reject_format": "reject:format", "reject_toolcall": "reject:toolcall",
    "reject_toolargs": "reject:toolargs", "reject_relevancy": "reject:relevancy",
    "reject_critique": "reject:critique",
}


@dataclass(frozen=True)
class DialoguePlan:
    tool: str
    kind: str  # a key of GEN_KINDS
    questions: int  # selection-stage assistant questions before the commitment
    asks: int  # filling-stage assistant questions before the final call
    turn_words: int

    @property
    def outcome(self) -> str:
        return GEN_KINDS[self.kind]


@dataclass
class GenerateScript:
    """Replies for one ``forge generate`` run plus everything its outputs
    must equal."""

    transcript: Transcript = field(default_factory=Transcript)
    outcomes: dict[str, str] = field(default_factory=dict)
    scenarios: list[Scenario] = field(default_factory=list)
    accepted: list[DialogueTrace] = field(default_factory=list)
    rubric_grades: dict[str, list[int]] = field(default_factory=dict)

    def register(self, req: CompletionRequest, reply, role: str) -> None:
        self.transcript.register(req, reply, MODELS[role])

    def corpus_bytes(self) -> bytes:
        return _jsonl([d.to_dict() for d in self.accepted])

    def scenarios_bytes(self) -> bytes:
        return _jsonl([s.to_dict() for s in self.scenarios])


def _jsonl(records: list[dict]) -> bytes:
    return "".join(json.dumps(r, ensure_ascii=False) + "\n" for r in records).encode("utf-8")


def _opening(world: World, rng: random.Random, tool: Tool, k: int, n_words: int, hit: bool) -> str:
    """An opening utterance that live retrieval ranks the seed tool into
    the top k (hit) or out of it (planned miss)."""
    for _ in range(64):
        if hit:
            text = f"{tool.description[:-1]} {words(rng, max(0, n_words - 25))}".strip()
        else:
            text = sentence(rng, max(8, n_words))
        if (tool.name in world.search(text, k)) == hit:
            return text
    raise RuntimeError(f"could not plan an opening for {tool.name} (hit={hit})")


def script_dialogue(world: World, script: GenerateScript, ecfg: EngineConfig,
                    root_seed: int, plan: DialoguePlan, rng: random.Random,
                    judges: bool) -> None:
    """Register every reply one planned dialogue consumes, in engine order."""
    cat = world.cat
    name, kind, n = plan.tool, plan.kind, plan.turn_words
    tool = cat.get(name)
    rng_seed = split_seed(root_seed, f"dialogue:{name}")
    dset = world.distractors(name)
    pool = candidate_pool(name, dset, split_seed(rng_seed, "pool"))
    persona = world.persona(tool, split_seed(rng_seed, "persona"))

    goal = sentence(rng, 16)
    attempt = 0
    if kind == "goal_regen":
        script.register(goal_request(tool, persona, rng_seed, 0), f"{goal} Use {name}.", "goal")
        attempt = 1
    script.register(goal_request(tool, persona, rng_seed, attempt), goal, "goal")
    gold = gold_args(rng, tool)
    attempt = 0
    if kind == "slot_regen":
        bad = dict(gold)
        first = next(iter(bad))
        bad[first] = _BAD_VALUE[tool.params[first].type_tag]
        script.register(slots_request(tool, persona, rng_seed, 0), json.dumps(bad), "goal")
        attempt = 1
    script.register(slots_request(tool, persona, rng_seed, attempt), json.dumps(gold), "goal")
    scn = Scenario(seed_tool=name, persona=persona, goal=goal, distractors=dset, pool=pool,
                   gold_args=gold, rng_seed=rng_seed)
    script.scenarios.append(scn)
    script.outcomes[name] = plan.outcome

    # selection stage
    sys_u = user_system_prompt(scn, cat, ecfg)
    attempt = 0
    if kind == "retriever_regen":
        miss = _opening(world, rng, tool, len(pool), n, hit=False)
        script.register(user_request(sys_u, [], split_seed(rng_seed, "sel:0:user:0"), ecfg),
                        miss, "user_proxy")
        attempt = 1
    label = f"sel:{attempt}"
    opening = _opening(world, rng, tool, len(pool), n, hit=True)
    script.register(user_request(sys_u, [], split_seed(rng_seed, f"{label}:user:0"), ecfg),
                    opening, "user_proxy")
    presented = shuffled_candidates(world.search(opening, len(pool)),
                                    split_seed(rng_seed, f"{label}:present"))
    sys_sel = selection_system_prompt(cat, presented, ecfg)
    msgs: list = [UserTurn(opening)]
    for _ in range(plan.questions):
        raw = ask_reply(rng, n)
        script.register(assistant_request(sys_sel, msgs, split_seed(
            rng_seed, f"{label}:asst:{len(msgs)}"), ecfg), raw, "assistant")
        msgs.append(parse_assistant_output(raw))
        utterance = sentence(rng, n)
        script.register(user_request(sys_u, msgs, split_seed(
            rng_seed, f"{label}:user:{len(msgs)}"), ecfg), utterance, "user_proxy")
        msgs.append(UserTurn(utterance))
    other = next(p for p in presented if p != name)
    script.register(assistant_request(sys_sel, msgs, split_seed(
        rng_seed, f"{label}:asst:{len(msgs)}"), ecfg),
        commit_reply(rng, other if kind == "wrong_tool" else name), "assistant")
    if kind == "wrong_tool":
        return

    # filling stage
    boundary = len(msgs) // 2 + 1
    sys_fill = filling_system_prompt(cat, presented, name, ecfg)
    asked = 0
    while True:
        if kind != "turn_cap" and asked == plan.asks:
            if kind == "reject_toolcall":
                raw = call_reply(rng, [(other, gold)])
            elif kind == "reject_toolargs":
                first = next(iter(gold))
                raw = call_reply(rng, [(name, {**gold, first: wrong_value(gold[first])})])
            else:
                raw = call_reply(rng, [(name, gold)])
        else:
            raw = ask_reply(rng, n, thought=not (kind == "reject_format" and asked == 0))
        script.register(assistant_request(sys_fill, msgs, split_seed(
            rng_seed, f"fill:asst:{len(msgs)}"), ecfg), raw, "assistant")
        turn = parse_assistant_output(raw)
        msgs.append(turn)
        asked += 1
        if turn.tool_calls or len(msgs) // 2 >= ecfg.t_max:
            break
        utterance = sentence(rng, n)
        script.register(user_request(sys_u, msgs, split_seed(
            rng_seed, f"fill:user:{len(msgs)}"), ecfg), utterance, "user_proxy")
        msgs.append(UserTurn(utterance))
    trace = DialogueTrace(dialogue_id=scn.scenario_id, scenario_ref=scn.scenario_id,
                          messages=msgs, phase_boundary=boundary,
                          terminated_by="tool_call" if msgs[-1].tool_calls else "turn_cap")
    if not judges or kind in ("turn_cap", "reject_format", "reject_toolcall", "reject_toolargs"):
        if plan.outcome == ACCEPTED:
            script.accepted.append(trace)
        return
    verdicts = {"relevancy": "PASS", "critique": "PASS"}
    if kind == "reject_relevancy":
        verdicts["relevancy"] = f"FAIL: {words(rng, 8)}"
    if kind == "reject_critique":
        verdicts["critique"] = f"FAIL: {words(rng, 8)}"
    for judge, req in judge_requests(trace, scn, cat).items():
        script.register(req, verdicts[judge], judge)
    if plan.outcome == ACCEPTED:
        script.accepted.append(trace)


def planned_grades(turns: int) -> list[int]:
    """Rubric grades by turn index: a fixed pattern, so conv_rel is planned."""
    grades = [3 if t % 3 else 2 for t in range(1, turns + 1)]
    if turns > 1:
        grades[-1] = 1
    return grades


def script_rubric(script: GenerateScript) -> None:
    """Register a rubric grade for every assistant turn of the accepted corpus."""
    for d in script.accepted:
        script.rubric_grades[d.dialogue_id] = grades = planned_grades(d.pair_count())
        for t, grade in enumerate(grades, start=1):
            script.register(rubric_request(d, t), str(grade), "judge")


GRADE_VALUE = {1: 0.0, 2: 0.5, 3: 1.0}


def planned_conv_rel(traces: list[DialogueTrace], grades: dict[str, list[int]]) -> float:
    """Mean over dialogues of the mean rubric value, summed in corpus order."""
    values = []
    for d in traces:
        total = 0.0
        for g in grades[d.dialogue_id]:
            total += GRADE_VALUE[g]
        values.append(total / len(grades[d.dialogue_id]))
    return sum(values) / len(values)


# ---------------------------------------------------------------------------
# dynamic bench: planned rollouts

BENCH_KINDS = ("acc_first", "acc_late", "wrong_args", "wrong_tool", "extra_key",
               "abstain", "malformed_then_call", "multi_call")


def _render_history(messages: list) -> str:
    # the voter prompt's history block, as the harness renders it
    lines = []
    for m in messages:
        if isinstance(m, UserTurn):
            lines.append(f"User: {m.text}")
        else:
            lines.append(f"Assistant: {m.public_text()}")
    return "\n".join(lines) if lines else "(conversation start)"


@dataclass
class BenchScript:
    """Stub replies for one dynamic ``forge bench run`` plus the planned
    traces and report values."""

    replies: dict[str, str] = field(default_factory=dict)
    scenarios: list[Scenario] = field(default_factory=list)
    traces: list[DialogueTrace] = field(default_factory=list)
    final_calls: list[list[tuple[str, dict]]] = field(default_factory=list)
    rubric_grades: dict[str, list[int]] = field(default_factory=dict)

    def register(self, req: CompletionRequest, reply: str, role: str) -> None:
        fp = fingerprint(MODELS[role], req)
        if self.replies.get(fp, reply) != reply:
            raise RuntimeError(f"two planned replies for one request ({role})")
        self.replies[fp] = reply

    def traces_bytes(self) -> bytes:
        return _jsonl([d.to_dict() for d in self.traces])


def bench_scenario(world: World, rng: random.Random, name: str, rng_seed: int) -> Scenario:
    tool = world.cat.get(name)
    dset = world.distractors(name)
    return Scenario(seed_tool=name, persona=world.persona(tool, split_seed(rng_seed, "persona")),
                    goal=sentence(rng, 16), distractors=dset,
                    pool=candidate_pool(name, dset, split_seed(rng_seed, "pool")),
                    gold_args=gold_args(rng, tool), rng_seed=rng_seed)


def _assistant_plan(kind: str, scn: Scenario, t_max: int) -> list:
    """Per turn: None to ask a question, "malformed", or a call list."""
    gold = (scn.seed_tool, scn.gold_args)
    other = next(p for p in scn.pool if p != scn.seed_tool)
    first = next(iter(scn.gold_args))
    wrong = {**scn.gold_args, first: wrong_value(scn.gold_args[first])}
    final = {
        "acc_first": [gold],
        "acc_late": [gold],
        "wrong_args": [(scn.seed_tool, wrong)],
        "wrong_tool": [(other, dict(scn.gold_args))],
        "extra_key": [(scn.seed_tool, {**scn.gold_args, "extraFlagValue": True})],
        "malformed_then_call": [gold],
        "multi_call": [gold, (other, {})],
    }
    if kind == "abstain":
        return [None] * t_max
    if kind == "acc_first":
        return [final[kind]]
    if kind == "acc_late":
        return [None, None, final[kind]]
    if kind == "malformed_then_call":
        return ["malformed", final[kind]]
    return [None, final[kind]]


def script_rollout(world: World, script: BenchScript, ecfg: EngineConfig, scn: Scenario,
                   kind: str, vote_seed: int, n_samples: int, m_voters: int, t_max: int,
                   rng: random.Random, turn_words: int) -> None:
    """Register the generator samples, voter picks and assistant replies of
    one dynamic rollout, then the rubric grades of its trace."""
    cat = world.cat
    sys_u = user_system_prompt(scn, cat, ecfg)
    sys_a = selection_system_prompt(cat, scn.pool, ecfg)
    messages: list = []
    final_call: list = []
    for t, step in enumerate(_assistant_plan(kind, scn, t_max), start=1):
        turn_key = len(messages)
        gen_req = user_request(sys_u, messages, split_seed(vote_seed, f"gen:{turn_key}"), ecfg)
        candidates = [sentence(rng, turn_words) for _ in range(n_samples)]
        for i, text in enumerate(candidates):
            script.register(CompletionRequest(messages=gen_req.messages,
                                              temperature=gen_req.temperature,
                                              seed=gen_req.seed + i,
                                              max_tokens=gen_req.max_tokens), text, "user_proxy")
        winner = (t + len(scn.seed_tool)) % n_samples
        for j in range(m_voters):
            perm = list(range(n_samples))
            random.Random(split_seed(vote_seed, f"perm:{turn_key}:{j}")).shuffle(perm)
            listing = "\n".join(f"{pos + 1}. {candidates[orig]}" for pos, orig in enumerate(perm))
            prompt = render(get_prompt("voter:v1"), persona=scn.persona, goal=scn.goal,
                            history=_render_history(messages), candidates=listing)
            req = CompletionRequest(messages=(ChatMessage("user", prompt),), temperature=0.0,
                                    seed=split_seed(vote_seed, f"vote:{turn_key}:{j}"),
                                    max_tokens=8)
            # the last voter dissents, so pooling has a minority to overrule
            pick = winner if j < m_voters - 1 else (winner + 1) % n_samples
            script.register(req, str(perm.index(pick) + 1), "voter")
        messages.append(UserTurn(candidates[winner]))
        if step is None:
            raw = ask_reply(rng, turn_words)
        elif step == "malformed":
            raw = f"I will look into that {words(rng, turn_words)}"
        else:
            raw = call_reply(rng, step)
            final_call = step
        script.register(assistant_request(sys_a, messages, split_seed(
            scn.rng_seed, f"dyn:asst:{t}"), ecfg), raw, "assistant")
        turn = (AssistantTurn(thought=None, raw=raw) if step == "malformed"
                else parse_assistant_output(raw))
        messages.append(turn)
        if turn.tool_calls:
            break
    trace = DialogueTrace(dialogue_id=f"{scn.scenario_id}#dynamic", scenario_ref=scn.scenario_id,
                          messages=messages, phase_boundary=None,
                          terminated_by="tool_call" if final_call else "turn_cap")
    script.scenarios.append(scn)
    script.traces.append(trace)
    script.final_calls.append(final_call)
    script.rubric_grades[trace.dialogue_id] = grades = planned_grades(trace.pair_count())
    for t, grade in enumerate(grades, start=1):
        script.register(rubric_request(trace, t), str(grade), "judge")


def planned_report(scenarios: list[Scenario], final_calls: list[list[tuple[str, dict]]],
                   traces: list[DialogueTrace], grades: dict[str, list[int]]) -> dict:
    """Acc, TAR, TCP, TCR, PKP, PKR and conv_rel computed from the planned
    first tool-bearing turn of each dialogue, by the metric definitions."""
    n = len(traces)
    acc = tar = tool_num = key_num = tcp_den = pkp_den = pkr_den = 0
    for scn, calls in zip(scenarios, final_calls):
        gold_keys = set(scn.gold_args)
        pkr_den += len(gold_keys)
        if not calls:
            tar += 1
            continue
        args: dict[str, dict] = {}
        for name, a in calls:
            args.setdefault(name, a)
        keys = set().union(*(set(a) for a in args.values()))
        tcp_den += len(args)
        pkp_den += len(keys)
        if set(args) == {scn.seed_tool} and args[scn.seed_tool] == scn.gold_args:
            acc += 1
        if scn.seed_tool in args:
            tool_num += 1
            key_num += len(keys & gold_keys)

    def ratio(a: int, b: int) -> float | None:
        return a / b if b else None

    return {"acc": acc / n, "tar": tar / n, "tcp": ratio(tool_num, tcp_den),
            "tcr": ratio(tool_num, n), "pkp": ratio(key_num, pkp_den),
            "pkr": ratio(key_num, pkr_den), "conv_rel": planned_conv_rel(traces, grades)}
