"""Byte-exact judge and rubric prompts.

The scripted transcripts elsewhere are keyed from forge's own
``judge_requests`` / ``rubric_request``, so a drift in how a dialogue
history is rendered would go unnoticed there. These tests pin the rendered
prompts as literal strings.
"""

import pytest

from forge.engine import AssistantTurn, DialogueTrace, ToolCall, UserTurn
from forge.metrics import rubric_request
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
