"""Turn-sliced training export and corpus statistics.

A dialogue with T assistant turns becomes T completion samples: sample t
holds the system prompt plus the full message prefix through u_t as
context and the serialized assistant turn a_t as the single learnable
message. The context is ``engine.assistant_context``, the one the
assistant's request carries, so a sample trains on what is served. Loss
masks are message-granular (one learn flag per message); token-level
masking is the trainer's job downstream.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

from .engine import DialogueTrace, assistant_context

# Reference fine-tuning settings shipped in the manifest for documentation.
# The exporter never trains anything.
REFERENCE_TRAINING_SETTINGS = {
    "method": "lora",
    "lora_rank": 16,
    "lora_alpha": 16,
    "optimizer": "adamw",
    "peak_learning_rate": 1e-4,
    "lr_schedule": "cosine",
    "epochs": 1,
    "precision": "8bit",
    "completion_batch_size": 1,
}


@dataclass
class SftSample:
    """One (context, target) pair with message-level learn flags."""

    dialogue_id: str
    turn_index: int
    messages: list[dict]  # {"role", "content", "learn"}; exactly one learn=True

    def to_dict(self) -> dict:
        return {
            "dialogue_id": self.dialogue_id,
            "turn_index": self.turn_index,
            "messages": self.messages,
        }


def slice_dialogue(d: DialogueTrace, sys_prompt: str) -> list[SftSample]:
    """Expand a T-assistant-turn dialogue into exactly T samples."""
    turns = len(d.turns())  # raises unless the messages alternate strictly
    # entry 2t is a_t; the entries before it are its serving context
    context = assistant_context(sys_prompt, d.messages)
    return [
        SftSample(dialogue_id=d.dialogue_id, turn_index=t, messages=[
            {"role": role, "content": content, "learn": i == 2 * t}
            for i, (role, content) in enumerate(context[:2 * t + 1])])
        for t in range(1, turns + 1)
    ]


def export(samples: list[SftSample], path: str | Path) -> dict:
    """Write samples to disk and return the export manifest.

    Deterministic: the same samples always produce the same bytes, so the
    manifest hash doubles as a corpus identity.
    """
    path = Path(path)
    lines = [json.dumps(s.to_dict(), ensure_ascii=False) for s in samples]
    payload = "\n".join(lines) + ("\n" if lines else "")
    path.write_text(payload, encoding="utf-8")
    return {
        "format": "chat-jsonl",
        "path": str(path),
        "sample_count": len(samples),
        "dialogue_count": len({s.dialogue_id for s in samples}),
        "sha256": hashlib.sha256(payload.encode("utf-8")).hexdigest(),
        "reference_training_settings": dict(REFERENCE_TRAINING_SETTINGS),
        "training_executed": False,
    }


@dataclass
class CorpusStats:
    """Histograms over a trace corpus; every histogram's mass equals the
    corpus size."""

    turns: dict[int, int] = field(default_factory=dict)
    params: dict[int, int] = field(default_factory=dict)
    disamb_turns: dict[int, int] = field(default_factory=dict)
    paramfill_turns: dict[int, int] = field(default_factory=dict)
    corpus_size: int = 0

    def to_dict(self) -> dict:
        def _keyed(h: dict[int, int]) -> dict[str, int]:
            return {str(k): h[k] for k in sorted(h)}

        return {
            "corpus_size": self.corpus_size,
            "turns": _keyed(self.turns),
            "params": _keyed(self.params),
            "disamb_turns": _keyed(self.disamb_turns),
            "paramfill_turns": _keyed(self.paramfill_turns),
        }

    def to_csv(self) -> str:
        rows = ["histogram,bucket,count"]
        for name in ("turns", "params", "disamb_turns", "paramfill_turns"):
            hist = getattr(self, name)
            for bucket in sorted(hist):
                rows.append(f"{name},{bucket},{hist[bucket]}")
        return "\n".join(rows) + "\n"


def compute_stats(traces: list[DialogueTrace], gold_arg_counts: dict[str, int]) -> CorpusStats:
    """Tally corpus histograms.

    gold_arg_counts maps scenario id to the seed tool's required-parameter
    count. Disambiguation turns are the pairs before the phase boundary;
    parameter-filling turns are the pairs after it, which is legitimately
    zero for param-free tools or when values surfaced during selection.
    """
    stats = CorpusStats()
    for d in traces:
        if d.phase_boundary is None:
            raise ValueError(f"trace {d.dialogue_id} has no phase boundary")
        t = d.pair_count()
        if not 0 < d.phase_boundary <= t:
            raise ValueError(
                f"trace {d.dialogue_id}: phase boundary {d.phase_boundary} "
                f"out of range for {t} turns")
        if d.scenario_ref not in gold_arg_counts:
            raise KeyError(f"no scenario registered for {d.scenario_ref!r}")
        stats.turns[t] = stats.turns.get(t, 0) + 1
        n_params = gold_arg_counts[d.scenario_ref]
        stats.params[n_params] = stats.params.get(n_params, 0) + 1
        disamb = d.phase_boundary
        fill = t - d.phase_boundary
        stats.disamb_turns[disamb] = stats.disamb_turns.get(disamb, 0) + 1
        stats.paramfill_turns[fill] = stats.paramfill_turns.get(fill, 0) + 1
        stats.corpus_size += 1
    return stats
