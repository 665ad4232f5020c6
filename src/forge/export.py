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
import os
from collections.abc import Iterable
from dataclasses import dataclass, field
from pathlib import Path

from .catalogue import encode_str
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
    # {"role": str, "content": str, "learn": bool}, keys in that order;
    # exactly one learn=True
    messages: list[dict]

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


def _message_json(role: str, content: str, learn: bool) -> str:
    return (f'{{"role": {encode_str(role)}, "content": {encode_str(content)}, '
            f'"learn": {"true" if learn else "false"}}}')


def export(samples: Iterable[SftSample], path: str | Path) -> dict:
    """Write samples to disk and return the export manifest.

    Deterministic: the same samples always produce the same bytes, so the
    manifest hash doubles as a corpus identity. ``samples`` may be any
    iterable: each line is written and hashed as it is made, into a sibling
    temporary file that replaces ``path`` only once every sample is written,
    so memory stays bounded and a failed export leaves ``path`` as it was.

    Each line is ``json.dumps(s.to_dict(), ensure_ascii=False)`` plus a
    newline. A dialogue's samples repeat each other's context, so the line
    is spliced from the encodings of its ``dialogue_id`` and of its
    messages, which are kept, by (role, content, learn), until
    ``dialogue_id`` changes.
    """
    path = Path(path)
    partial = path.with_name(path.name + ".part")
    digest = hashlib.sha256()
    count, dialogues = 0, set()
    current, head, encoded = None, "", {}
    try:
        with open(partial, "wb") as fh:
            for s in samples:
                if s.dialogue_id != current:
                    current, encoded = s.dialogue_id, {}
                    head = f'{{"dialogue_id": {encode_str(current)}, "turn_index": '
                    dialogues.add(current)
                parts = []
                for m in s.messages:
                    key = (m["role"], m["content"], m["learn"])
                    text = encoded.get(key)
                    if text is None:
                        text = encoded[key] = _message_json(*key)
                    parts.append(text)
                line = (f'{head}{s.turn_index}, "messages": [{", ".join(parts)}]}}\n'
                        ).encode("utf-8")
                fh.write(line)
                digest.update(line)
                count += 1
        os.replace(partial, path)
    except BaseException:
        partial.unlink(missing_ok=True)
        raise
    return {
        "format": "chat-jsonl",
        "path": str(path.resolve()),  # the same however --out-dir was spelled
        "sample_count": count,
        "dialogue_count": len(dialogues),
        "sha256": digest.hexdigest(),
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


def compute_stats(pairs: list[tuple[DialogueTrace, int]]) -> CorpusStats:
    """Tally corpus histograms over (trace, gold argument count) pairs; the
    count is the required-parameter count of the trace's seed tool.

    Disambiguation turns are the pairs before the phase boundary;
    parameter-filling turns are the pairs after it, which is legitimately
    zero for param-free tools or when values surfaced during selection.
    A phase boundary that is missing or outside 1..T raises ValueError.
    """
    stats = CorpusStats()
    for d, n_params in pairs:
        if d.phase_boundary is None:
            raise ValueError(f"trace {d.dialogue_id} has no phase boundary")
        t = d.pair_count()
        if not 0 < d.phase_boundary <= t:
            raise ValueError(
                f"trace {d.dialogue_id}: phase boundary {d.phase_boundary} "
                f"out of range for {t} turns")
        stats.turns[t] = stats.turns.get(t, 0) + 1
        stats.params[n_params] = stats.params.get(n_params, 0) + 1
        disamb = d.phase_boundary
        fill = t - d.phase_boundary
        stats.disamb_turns[disamb] = stats.disamb_turns.get(disamb, 0) + 1
        stats.paramfill_turns[fill] = stats.paramfill_turns.get(fill, 0) + 1
        stats.corpus_size += 1
    return stats
