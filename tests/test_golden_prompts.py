"""Byte-exact judge, rubric and voter prompts, and the sampling settings
of every single-prompt role.

The scripted transcripts elsewhere are keyed from forge's own
``judge_requests`` / ``rubric_request`` / ``voter_request``, so a drift in
how a dialogue history is rendered would go unnoticed there. These tests
pin the rendered prompts as literal strings. ``max_tokens`` is not part of
the request fingerprint, so only the settings test pins it. The last
tests pin the errors of a prompt asset lookup and of a render.
"""

import pytest

from forge.engine import AssistantTurn, DialogueTrace, ToolCall, UserTurn
from forge.harness import voter_request
from forge.metrics import rubric_request
from forge.prompts import get_prompt, render
from forge.scenario import goal_request, slots_request
from forge.seeds import split_seed
from forge.validation import judge_requests

from conftest import SEED_TOOL, build_replay_world

CALL_TEXT = ('[{"name": "fn_1126_cloud_transport_management", '
             '"args": {"nodeId": 437292, "transportRequestId": 957841}}]')


@pytest.fixture(scope="module")
def world():
    return build_replay_world()


def judged_trace() -> DialogueTrace:
    return DialogueTrace(dialogue_id="golden", scenario_ref="golden", messages=[
        UserTurn("Something is stuck in transport."),
        AssistantTurn(thought="Need the node first.", content="Which node is it on?"),
        UserTurn("Node 437292."),
        AssistantTurn(thought="", content="And the request number?"),
        UserTurn("Request 957841."),
        AssistantTurn(thought=None, raw="no think block here"),
        UserTurn("That is all."),
        AssistantTurn(thought="All inputs known.", tool_calls=[
            ToolCall(SEED_TOOL, {"nodeId": 437292, "transportRequestId": 957841})]),
    ])


def _prompt(req) -> str:
    assert len(req.messages) == 1 and req.messages[0].role == "user"
    return req.messages[0].content


def test_relevancy_prompt_omits_thoughts(world):
    got = _prompt(judge_requests(judged_trace(), world.scenario, world.cat)["relevancy"])
    assert got == (
        "You review synthetic assistant conversations for a tool-calling training corpus.\n"
        "\n"
        "Decide whether the conversation below is semantically relevant to the target "
        "tool: the user's need, the assistant's questions and the final call should all "
        "plausibly concern what this tool does.\n"
        "\n"
        "Reply with a single line: PASS, or FAIL: <short reason>.\n"
        "\n"
        "==== Target Tool ====\n"
        "\n"
        "fn_1126_cloud_transport_management\n"
        "Retrieve and review the logged actions recorded while transport requests move "
        "through a cloud transport node, for monitoring and troubleshooting.\n"
        "\n"
        "==== Conversation ====\n"
        "\n"
        "User: Something is stuck in transport.\n"
        "Assistant: Which node is it on?\n"
        "User: Node 437292.\n"
        "Assistant: And the request number?\n"
        "User: Request 957841.\n"
        "Assistant: no think block here\n"
        "User: That is all.\n"
        f"Assistant: {CALL_TEXT}\n"
    )


def test_critique_prompt_shows_nonempty_thoughts(world):
    got = _prompt(judge_requests(judged_trace(), world.scenario, world.cat)["critique"])
    assert got == (
        "You review synthetic assistant conversations for a tool-calling training corpus.\n"
        "\n"
        "Assess the overall flow of the conversation below:\n"
        "- It should show two stages: first the user's need is disambiguated through "
        "clarifying questions, then the missing argument values are collected.\n"
        "- The user should stay in role (reveal information gradually, answer only what "
        "is asked, never act like an assistant).\n"
        "- The assistant should stay in role (ask targeted questions, include a reasoning "
        "trace, never invent values the user did not provide).\n"
        "\n"
        "Reply with a single line: PASS, or FAIL: <short reason>.\n"
        "\n"
        "==== Conversation ====\n"
        "\n"
        "User: Something is stuck in transport.\n"
        "Assistant (thinking): Need the node first.\n"
        "Assistant: Which node is it on?\n"
        "User: Node 437292.\n"
        "Assistant: And the request number?\n"
        "User: Request 957841.\n"
        "Assistant: no think block here\n"
        "User: That is all.\n"
        "Assistant (thinking): All inputs known.\n"
        f"Assistant: {CALL_TEXT}\n"
    )


RUBRIC_HEAD = (
    "You grade one assistant reply for conversational relevance.\n"
    "\n"
    "Given the dialogue so far and the assistant's reply, judge how well the reply "
    "builds on the conversation:\n"
    "\n"
    "3 = fully grounded: directly advances the user's request given the context\n"
    "2 = partly relevant: related but generic, redundant, or partially off\n"
    "1 = off-topic: ignores or contradicts the context\n"
    "\n"
    "Reply with the single digit 1, 2 or 3 and nothing else.\n"
    "\n"
    "==== Dialogue so far ====\n"
    "\n"
)


def non_alternating_trace() -> DialogueTrace:
    # two user turns, then two assistant turns in a row
    return DialogueTrace(dialogue_id="golden-rubric", scenario_ref="golden", messages=[
        UserTurn("Hello."),
        UserTurn("Are you there?"),
        AssistantTurn(thought="Greet back.", content="Yes, how can I help?"),
        AssistantTurn(thought=None, raw="garbled output"),
        UserTurn("Check my transport."),
        AssistantTurn(thought="Call it.", tool_calls=[ToolCall(SEED_TOOL, {"nodeId": 1})]),
    ])


def test_rubric_prompt_at_first_turn():
    got = _prompt(rubric_request(non_alternating_trace(), 1))
    assert got == RUBRIC_HEAD + (
        "User: Hello.\n"
        "User: Are you there?\n"
        "\n"
        "==== Assistant reply to grade ====\n"
        "\n"
        "Yes, how can I help?\n"
    )


def test_rubric_prompt_at_second_turn_without_alternation():
    got = _prompt(rubric_request(non_alternating_trace(), 2))
    assert got == RUBRIC_HEAD + (
        "User: Hello.\n"
        "User: Are you there?\n"
        "Assistant: Yes, how can I help?\n"
        "\n"
        "==== Assistant reply to grade ====\n"
        "\n"
        "garbled output\n"
    )


def test_rubric_prompt_at_third_turn():
    got = _prompt(rubric_request(non_alternating_trace(), 3))
    assert got == RUBRIC_HEAD + (
        "User: Hello.\n"
        "User: Are you there?\n"
        "Assistant: Yes, how can I help?\n"
        "Assistant: garbled output\n"
        "User: Check my transport.\n"
        "\n"
        "==== Assistant reply to grade ====\n"
        "\n"
        '[{"name": "fn_1126_cloud_transport_management", "args": {"nodeId": 1}}]\n'
    )


def test_voter_prompt_lists_candidates_in_permuted_order(world):
    messages = [UserTurn("Something is stuck in transport."),
                AssistantTurn(thought="Need the node first.", content="Which node is it on?")]
    candidates = ["Node 437292.", "I am not sure.", "It is node 437292, request 957841."]
    perm, req = voter_request(world.scenario, messages, candidates, 777, 0)
    assert perm == [2, 1, 0]
    assert req.seed == split_seed(777, "vote:2:0")
    assert _prompt(req) == (
        "You pick the best next user utterance for an ongoing conversation with an "
        "assistant.\n"
        "\n"
        "The user is A logistics operations manager working to reduce disruption in "
        "regional transport flows. Their goal: Keep a reliable view of every action taken "
        "while our transport requests move through the network.\n"
        "\n"
        "Given the dialogue so far and the numbered candidate utterances, choose the single "
        "candidate that is most natural, stays in character, answers only what the "
        "assistant asked, and does not invent details.\n"
        "\n"
        "Reply with the candidate number only.\n"
        "\n"
        "==== Dialogue so far ====\n"
        "\n"
        "User: Something is stuck in transport.\n"
        "Assistant: Which node is it on?\n"
        "\n"
        "==== Candidates ====\n"
        "\n"
        "1. It is node 437292, request 957841.\n"
        "2. I am not sure.\n"
        "3. Node 437292.\n"
    )


def test_voter_prompt_at_conversation_start(world):
    _, req = voter_request(world.scenario, [], ["a", "b"], 777, 1)
    assert "==== Dialogue so far ====\n\n(conversation start)\n\n" in _prompt(req)


def test_single_prompt_sampling_settings(world):
    tool = world.cat.get(SEED_TOOL)
    persona = world.scenario.persona
    trace = judged_trace()
    judges = judge_requests(trace, world.scenario, world.cat)
    requests = {
        "goal": goal_request(tool, persona, 1),
        "slots": slots_request(tool, persona, 1),
        "relevancy": judges["relevancy"],
        "critique": judges["critique"],
        "rubric": rubric_request(trace, 1),
        "voter": voter_request(world.scenario, [], ["a", "b"], 1, 0)[1],
    }
    assert {role: (r.temperature, r.max_tokens) for role, r in requests.items()} == {
        "goal": (0.7, 512),
        "slots": (0.7, 512),
        "relevancy": (0.0, 256),
        "critique": (0.0, 256),
        "rubric": (0.0, 8),
        "voter": (0.0, 8),
    }


@pytest.mark.parametrize("asset_id", ["no_such_prompt:v1", "voter:v9", "voter"])
def test_unknown_prompt_asset_is_key_error(asset_id):
    with pytest.raises(KeyError, match="unknown prompt asset"):
        get_prompt(asset_id)


def test_missing_template_slot_is_key_error():
    with pytest.raises(KeyError, match=r"slot \{\{goal\}\} not provided"):
        render("{{persona}} wants {{goal}}", persona="p")
