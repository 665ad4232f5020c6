"""Corpus evaluation metrics over dialogue traces.

Tool-call metrics score the first tool-bearing assistant turn of each
dialogue against its reference (gold tool + gold argument map). Precision
and recall aggregate over the whole corpus; per-dialogue indicators are
kept for audit. Lexical metrics cover only user-visible assistant prose:
private thoughts and tool-call JSON payloads are excluded, and tokens are
lowercased maximal runs of word characters (values are tokenizer-relative,
so the tokenizer is fixed here and nowhere else).

Zero-denominator ratios (e.g. precision on an all-abstaining corpus) are
reported as None, never silently 0 or 1.
"""

from __future__ import annotations

import re
import zlib
from dataclasses import dataclass, field

from .engine import AssistantTurn, DialogueTrace, args_equal, render_history
from .gateway import BackendConfig, ChatMessage, CompletionRequest, complete
from .prompts import get_prompt, render
from .seeds import split_seed

NGRAM_SIZES = (2, 3, 4)

_TOKEN_RE = re.compile(r"\w+")

_GRADE_VALUE = {1: 0.0, 2: 0.5, 3: 1.0}


@dataclass(frozen=True)
class CallRecord:
    """The scored call of one dialogue: tool-name set and per-tool args of
    the first tool-bearing turn. Empty when the dialogue never calls."""

    tnames: frozenset[str]
    args_by_tool: dict[str, dict]
    t_dagger: int | None

    @property
    def is_empty(self) -> bool:
        return not self.tnames

    def keys(self) -> set[str]:
        """Union of argument-key names across the called tools."""
        out: set[str] = set()
        for args in self.args_by_tool.values():
            out.update(args)
        return out


@dataclass(frozen=True)
class Reference:
    gold_tool: str
    gold_args: dict

    def keys(self) -> set[str]:
        return set(self.gold_args)


def extract_call(d: DialogueTrace) -> CallRecord:
    """First tool-bearing assistant turn; later calls are ignored.

    Malformed assistant turns carry no call and so count as abstention.
    """
    for t, turn in enumerate(d.assistant_turns(), start=1):
        if turn.tool_calls:
            args_by_tool: dict[str, dict] = {}
            names = []
            for call in turn.tool_calls:
                names.append(call.name)
                args_by_tool.setdefault(call.name, dict(call.args))
            return CallRecord(tnames=frozenset(names), args_by_tool=args_by_tool, t_dagger=t)
    return CallRecord(tnames=frozenset(), args_by_tool={}, t_dagger=None)


def dialogue_indicators(c: CallRecord, g: Reference) -> tuple[int, int, int]:
    """(acc, ftr, tar) for one dialogue.

    acc: the call invokes exactly the gold tool with exactly the gold args.
    ftr: count of invoked tools that are not the gold tool.
    tar: the dialogue never invoked anything.
    """
    if c.is_empty:
        return 0, 0, 1
    acc = int(
        c.tnames == {g.gold_tool}
        and args_equal(c.args_by_tool.get(g.gold_tool, {}), g.gold_args)
    )
    ftr = sum(1 for name in c.tnames if name != g.gold_tool)
    return acc, ftr, 0


def corpus_prf(pairs: list[tuple[CallRecord, Reference]]) -> tuple[
        float | None, float | None, float | None, float | None]:
    """(TCP, TCR, PKP, PKR) over a corpus of (prediction, reference) pairs.

    Numerators run over the aligned pairs (non-empty predictions that
    include the gold tool); precision denominators over all predictions,
    recall denominators over all references. Zero denominators yield None.
    """
    if not pairs:
        raise ValueError("corpus_prf requires a non-empty corpus")
    aligned = [(c, g) for c, g in pairs if not c.is_empty and g.gold_tool in c.tnames]
    tool_num = sum(len(c.tnames & {g.gold_tool}) for c, g in aligned)
    key_num = sum(len(c.keys() & g.keys()) for c, g in aligned)
    tcp_den = sum(len(c.tnames) for c, _ in pairs)
    tcr_den = len(pairs)  # each reference names exactly one tool
    pkp_den = sum(len(c.keys()) for c, _ in pairs)
    pkr_den = sum(len(g.keys()) for _, g in pairs)

    def _ratio(num: int, den: int) -> float | None:
        return num / den if den else None

    return (_ratio(tool_num, tcp_den), _ratio(tool_num, tcr_den),
            _ratio(key_num, pkp_den), _ratio(key_num, pkr_den))


# ---------------------------------------------------------------------------
# conversational quality


def parse_grade(reply: str) -> int:
    match = re.search(r"[123]", reply)
    if not match:
        raise ValueError(f"rubric judge returned no grade: {reply[:120]!r}")
    return int(match.group(0))


def rubric_request(d: DialogueTrace, t: int) -> CompletionRequest:
    """The exact rubric request for assistant turn t (1-based); public so
    scripted transcripts can be keyed ahead of a replay run. The judge sees
    every message before that turn, thoughts omitted."""
    at = [i for i, m in enumerate(d.messages) if isinstance(m, AssistantTurn)][t - 1]
    prompt = render(
        get_prompt("rubric_judge:v1"),
        history=render_history(d.messages[:at]),
        reply=d.messages[at].public_text(),
    )
    base = zlib.crc32(d.dialogue_id.encode("utf-8"))
    return CompletionRequest(
        messages=(ChatMessage("user", prompt),),
        temperature=0.0,
        seed=split_seed(base, f"rubric:{t}"),
        max_tokens=8,
    )


def conv_relevancy(d: DialogueTrace, gw_judge: BackendConfig) -> float:
    """Mean rubric grade over assistant turns, mapped to [0, 1].

    The judge sees the user-visible prefix and the reply's public text;
    thoughts are excluded from both.
    """
    turns = d.assistant_turns()
    if not turns:
        raise ValueError(f"dialogue {d.dialogue_id} has no assistant turns")
    total = 0.0
    for t in range(1, len(turns) + 1):
        total += _GRADE_VALUE[parse_grade(complete(gw_judge, rubric_request(d, t)))]
    return total / len(turns)


# ---------------------------------------------------------------------------
# lexical diversity


def tokenize(text: str) -> list[str]:
    return _TOKEN_RE.findall(text.lower())


def _assistant_prose(d: DialogueTrace) -> list[str]:
    """Assistant text a user would see: content (or raw fallback), never
    thoughts or tool-call JSON."""
    out = []
    for turn in d.assistant_turns():
        if turn.malformed:
            out.append(turn.raw)
        elif not turn.tool_calls:
            out.append(turn.content)
    return out


def lexical_metrics(corpus: list[DialogueTrace]) -> tuple[float | None, dict[int, float | None]]:
    """(TTR, {n: NGD_n}) over assistant prose, corpus-wide.

    N-grams never span message boundaries. Undefined values (no tokens /
    no n-grams of that size) are None.
    """
    token_lists = []
    for d in corpus:
        for text in _assistant_prose(d):
            token_lists.append(tokenize(text))
    total_tokens = sum(len(toks) for toks in token_lists)
    unique_tokens = set(tok for toks in token_lists for tok in toks)
    ttr = len(unique_tokens) / total_tokens if total_tokens else None
    ngd: dict[int, float | None] = {}
    for n in NGRAM_SIZES:
        seen: set[tuple[str, ...]] = set()
        count = 0
        for toks in token_lists:
            for i in range(len(toks) - n + 1):
                seen.add(tuple(toks[i:i + n]))
                count += 1
        ngd[n] = len(seen) / count if count else None
    return ttr, ngd


# ---------------------------------------------------------------------------
# report assembly


def format_metric(v: float | None) -> str:
    return "undefined" if v is None else f"{v:.4f}"


@dataclass
class MetricReport:
    acc: float
    ftr: float
    tar: float
    tcp: float | None
    tcr: float | None
    pkp: float | None
    pkr: float | None
    conv_rel: float | None
    ttr: float | None
    ngd: dict[int, float | None]
    per_dialogue: list[dict] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "acc": self.acc,
            "ftr": self.ftr,
            "tar": self.tar,
            "tcp": self.tcp,
            "tcr": self.tcr,
            "pkp": self.pkp,
            "pkr": self.pkr,
            "conv_rel": self.conv_rel,
            "ttr": self.ttr,
            "ngd": {str(n): v for n, v in sorted(self.ngd.items())},
            "per_dialogue": self.per_dialogue,
        }

    def to_csv_row(self) -> str:
        header = "tcp,tcr,pkp,pkr,acc,ftr,tar,conv_rel,ttr,ngd_2,ngd_3,ngd_4"
        row = ",".join(format_metric(v) for v in (
            self.tcp, self.tcr, self.pkp, self.pkr, self.acc, self.ftr, self.tar,
            self.conv_rel, self.ttr, self.ngd.get(2), self.ngd.get(3), self.ngd.get(4)))
        return f"{header}\n{row}\n"


def score_corpus(traces: list[DialogueTrace], refs: dict[str, Reference],
                 judge: BackendConfig | None = None) -> MetricReport:
    """Full metric suite over a corpus.

    refs maps scenario ids to references; every trace must have one.
    conv_rel is computed only when a rubric judge backend is supplied.
    """
    if not traces:
        raise ValueError("cannot score an empty corpus")
    pairs = []
    rows = []
    acc_sum = ftr_sum = tar_sum = 0
    for d in traces:
        if d.scenario_ref not in refs:
            raise KeyError(f"no reference for scenario {d.scenario_ref!r}")
        ref = refs[d.scenario_ref]
        record = extract_call(d)
        acc, ftr, tar = dialogue_indicators(record, ref)
        acc_sum += acc
        ftr_sum += ftr
        tar_sum += tar
        pairs.append((record, ref))
        rows.append({
            "dialogue_id": d.dialogue_id,
            "acc": acc,
            "ftr": ftr,
            "tar": tar,
            "t_dagger": record.t_dagger,
        })
    tcp, tcr, pkp, pkr = corpus_prf(pairs)
    ttr, ngd = lexical_metrics(traces)
    conv = None
    if judge is not None:
        values = [conv_relevancy(d, judge) for d in traces]
        conv = sum(values) / len(values)
        for row, value in zip(rows, values):
            row["conv_rel"] = value
    n = len(traces)
    return MetricReport(
        acc=acc_sum / n,
        ftr=ftr_sum / n,
        tar=tar_sum / n,
        tcp=tcp,
        tcr=tcr,
        pkp=pkp,
        pkr=pkr,
        conv_rel=conv,
        ttr=ttr,
        ngd=ngd,
        per_dialogue=rows,
    )
