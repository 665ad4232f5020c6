"""Independent brute-force oracles for the test suite.

Deliberately shares no code with the package: the metric formulas, the
value-equality rule and the retrieval scan are transcribed from scratch so
they can catch implementation mistakes on the other side.
Operates on plain trace dicts (the JSONL shapes) only.
"""

from __future__ import annotations

import random
import re


def naive_values_equal(a, b):
    if isinstance(a, bool) or isinstance(b, bool):
        return isinstance(a, bool) and isinstance(b, bool) and a == b

    def as_num(x):
        if isinstance(x, (int, float)) and not isinstance(x, bool):
            return x
        if isinstance(x, str):
            s = x.strip()
            try:
                return int(s)
            except ValueError:
                pass
            try:
                return float(s)
            except ValueError:
                return None
        return None

    na, nb = as_num(a), as_num(b)
    if na is not None and nb is not None:
        return na == nb
    if isinstance(a, str) and isinstance(b, str):
        return a.strip() == b.strip()
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(naive_values_equal(x, y) for x, y in zip(a, b))
    if isinstance(a, dict) and isinstance(b, dict):
        return set(a) == set(b) and all(naive_values_equal(a[k], b[k]) for k in a)
    return a == b


def naive_first_call(trace_dict):
    """(turn index, names list, args-by-name) of the first call, or None."""
    t = 0
    for msg in trace_dict["messages"]:
        if msg["role"] != "assistant":
            continue
        t += 1
        calls = msg.get("tool_calls")
        if calls:
            names = [c["name"] for c in calls]
            args = {}
            for c in calls:
                if c["name"] not in args:
                    args[c["name"]] = c["args"]
            return t, names, args
    return None


def naive_metrics(trace_dicts, refs):
    """All tool-call metrics, straight from the definitions.

    refs maps scenario_ref -> (gold_tool, gold_args). Returns a dict with
    acc/ftr/tar/tcp/tcr/pkp/pkr (None where a denominator is zero).
    """
    n = len(trace_dicts)
    acc_total = ftr_total = tar_total = 0
    tool_num = key_num = 0
    tcp_den = tcr_den = pkp_den = pkr_den = 0
    for d in trace_dicts:
        gold_tool, gold_args = refs[d["scenario_ref"]]
        found = naive_first_call(d)
        tcr_den += 1
        pkr_den += len(gold_args)
        if found is None:
            tar_total += 1
            continue
        _, names, args_by = found
        tset = set(names)
        pred_keys = set()
        for a in args_by.values():
            pred_keys |= set(a)
        tcp_den += len(tset)
        pkp_den += len(pred_keys)
        exact_args = (
            gold_tool in args_by
            and set(args_by[gold_tool]) == set(gold_args)
            and all(naive_values_equal(args_by[gold_tool][k], gold_args[k])
                    for k in gold_args)
        )
        if tset == {gold_tool} and exact_args:
            acc_total += 1
        ftr_total += sum(1 for name in tset if name != gold_tool)
        if gold_tool in tset:
            tool_num += len(tset & {gold_tool})
            key_num += len(pred_keys & set(gold_args))

    def ratio(num, den):
        return num / den if den else None

    return {
        "acc": acc_total / n,
        "ftr": ftr_total / n,
        "tar": tar_total / n,
        "tcp": ratio(tool_num, tcp_den),
        "tcr": ratio(tool_num, tcr_den),
        "pkp": ratio(key_num, pkp_den),
        "pkr": ratio(key_num, pkr_den),
    }


# ---------------------------------------------------------------------------
# random corpus generation for oracle-equivalence runs


GOLD_TOOLS = ["alpha_tool", "beta_tool", "gamma_tool", "delta_tool"]
DISTRACTORS = ["wrong_one", "wrong_two", "wrong_three"]
KEY_POOL = ["k1", "k2", "k3", "k4"]


def _random_args(rng: random.Random, keys):
    out = {}
    for k in keys:
        out[k] = rng.choice([rng.randrange(1000), f"v{rng.randrange(100)}",
                             bool(rng.getrandbits(1))])
    return out


def random_corpus(rng: random.Random, max_dialogues: int = 50):
    """(trace_dicts, refs) covering abstention, distractor calls,
    multi-tool calls, extra/missing keys, wrong values and late calls."""
    n = rng.randrange(1, max_dialogues + 1)
    traces, refs = [], {}
    for i in range(n):
        sid = f"s{i}"
        gold_tool = rng.choice(GOLD_TOOLS)
        gold_keys = rng.sample(KEY_POOL, rng.randrange(0, len(KEY_POOL) + 1))
        gold_args = _random_args(rng, gold_keys)
        refs[sid] = (gold_tool, gold_args)
        case = rng.choice([
            "abstain", "exact", "distractor", "multi", "extra_key",
            "missing_key", "wrong_value", "late_exact",
        ])
        pairs = rng.randrange(1, 4)
        call_turn = pairs if case != "late_exact" else rng.randrange(1, pairs + 1)
        calls = None
        if case == "exact" or case == "late_exact":
            calls = [(gold_tool, dict(gold_args))]
        elif case == "distractor":
            calls = [(rng.choice(DISTRACTORS), _random_args(rng, gold_keys))]
        elif case == "multi":
            calls = [(gold_tool, dict(gold_args)),
                     (rng.choice(DISTRACTORS), _random_args(rng, ["k9"]))]
        elif case == "extra_key":
            args = dict(gold_args)
            args["extra"] = 1
            calls = [(gold_tool, args)]
        elif case == "missing_key":
            args = dict(gold_args)
            if args:
                args.pop(next(iter(args)))
            calls = [(gold_tool, args)]
        elif case == "wrong_value":
            args = dict(gold_args)
            if args:
                k = next(iter(args))
                args[k] = "definitely-not-it"
            calls = [(gold_tool, args)]
        messages = []
        for t in range(1, pairs + 1):
            messages.append({"role": "user", "content": f"user {i} turn {t}"})
            if calls is not None and t == call_turn:
                messages.append({
                    "role": "assistant", "thought": f"th {t}", "content": "",
                    "tool_calls": [{"name": name, "args": args} for name, args in calls],
                })
            else:
                messages.append({
                    "role": "assistant", "thought": f"th {t}",
                    "content": f"reply {i}.{t}", "tool_calls": None,
                })
        traces.append({
            "dialogue_id": f"d{i}",
            "scenario_ref": sid,
            "messages": messages,
            "phase_boundary": None,
            "terminated_by": "tool_call" if calls else "turn_cap",
        })
    return traces, refs


# ---------------------------------------------------------------------------
# retrieval and voting oracles


def naive_top_k(vectors: dict[str, list[float]], seed: str, k: int):
    """Exhaustive top-k by dot product, excluding the seed, name tie-break.

    Uses the same dot-product primitive as the implementation so that
    floating-point summation order cannot flip near-ties; the scan and
    tie-break logic is what this oracle checks.
    """
    import numpy as np

    sv = np.asarray(vectors[seed])
    scored = []
    for name, vec in vectors.items():
        if name == seed:
            continue
        scored.append((name, float(np.dot(sv, np.asarray(vec)))))
    scored.sort(key=lambda item: (-item[1], item[0]))
    return scored[:k]


def naive_vote_winner(perms: list[list[int]], positions: list[int | None], n: int):
    """Mode over inverted votes with lowest-original-index tie-break;
    perms[j][i] is the original index shown at position i; positions are
    1-based picks (None/invalid discarded). Returns the 0-based original
    winner, or 0 when every vote is discarded."""
    originals = []
    for perm, pos in zip(perms, positions):
        if pos is None or not 1 <= pos <= n:
            continue
        originals.append(perm[pos - 1])
    if not originals:
        return 0
    best_count = 0
    winner = None
    for candidate in range(n):
        count = sum(1 for v in originals if v == candidate)
        if count > best_count:
            best_count = count
            winner = candidate
    return winner


def naive_ngd(texts: list[str], n: int) -> float | None:
    """Distinct n-grams over all n-grams of lowercased word tokens, taken
    within each text by plain slicing; None when no text has n tokens."""
    grams = []
    for text in texts:
        toks = re.findall(r"\w+", text.lower())
        grams.extend(tuple(toks[i:i + n]) for i in range(len(toks) - n + 1))
    return len(set(grams)) / len(grams) if grams else None
