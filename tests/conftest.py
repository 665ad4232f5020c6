"""Shared fixtures: a small logistics catalogue, a fully scripted replay
world for the end-to-end sample dialogue, corpus factories, and a loopback
chat-completions server for remote backends."""

from __future__ import annotations

import gc
import json
import os
import socket
import threading
import time
import types
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from types import SimpleNamespace

import pytest

from forge.catalogue import Catalogue, parse_catalogue
from forge.engine import (
    AssistantFormatError,
    AssistantTurn,
    DialogueTrace,
    EngineConfig,
    ToolCall,
    UserTurn,
    assistant_request,
    filling_system_prompt,
    parse_assistant_output,
    selection_system_prompt,
    shuffled_candidates,
    user_request,
    user_system_prompt,
)
from forge import gateway
from forge.gateway import BackendConfig, ChatMessage, CompletionRequest, Transcript, fingerprint
from forge.retrieval import (HashEmbedder, ToolIndex, VectorIndex, candidate_pool,
                             nearest_distractors, search_catalogue)
from forge.scenario import PersonaStore, Scenario, goal_request, sample_persona, slots_request
from forge.seeds import split_seed
from forge.validation import judge_requests

ROOT_SEED = 7
SEED_TOOL = "fn_1126_cloud_transport_management"
GOLD_ARGS = {"nodeId": 437292, "transportRequestId": 957841}

TEST_PERSONA = (
    "A logistics operations manager working to reduce disruption in regional transport flows"
)

CATALOGUE_TOOLS = [
    {
        "name": SEED_TOOL,
        "description": "Retrieve and review the logged actions recorded while transport "
                       "requests move through a cloud transport node, for monitoring and "
                       "troubleshooting.",
        "parameters": {
            "nodeId": {
                "type": "integer",
                "description": "Identifier of the transport node whose records to fetch",
                "required": True,
            },
            "transportRequestId": {
                "type": "integer",
                "description": "Identifier of the transport request to inspect",
                "required": True,
            },
        },
    },
    {
        "name": "fn_2231_logistics_order_tracking",
        "description": "Track the fulfilment status of logistics orders across carriers.",
        "parameters": {
            "orderId": {
                "type": "string",
                "description": "Order identifier to track",
                "required": True,
            }
        },
    },
    {
        "name": "fn_3310_warehouse_resource_management",
        "description": "Manage staffing and equipment resources inside a warehouse.",
        "parameters": {
            "warehouseId": {
                "type": "string",
                "description": "Warehouse identifier",
                "required": True,
            },
            "zone": {
                "type": "string",
                "description": "Optional zone filter",
                "required": False,
            },
        },
    },
    {
        "name": "fn_4401_freight_rate_lookup",
        "description": "Look up contracted freight rates for a shipping lane.",
        "parameters": {
            "laneId": {
                "type": "string",
                "description": "Lane identifier",
                "required": True,
            }
        },
    },
    {
        "name": "fn_5520_carrier_assignment",
        "description": "Assign a carrier to an outbound shipment.",
        "parameters": {
            "shipmentId": {
                "type": "string",
                "description": "Shipment identifier",
                "required": True,
            },
            "carrierCode": {
                "type": "string",
                "description": "Preferred carrier code",
                "required": False,
            },
        },
    },
    {
        "name": "fn_6642_delivery_schedule_refresh",
        "description": "Refresh the consolidated delivery schedule for the current day.",
        "parameters": {},
    },
]

GOAL_TEXT = ("Keep a reliable view of every action taken while our transport "
             "requests move through the network.")

RAW_U1 = ("I want to get a better handle on how our transport work is going day to day. "
          "Can you help me find the right way to manage and keep watch over these "
          "logistics activities?")
RAW_A1 = ("<think>The request is broad; several logistics tools could apply. I should "
          "narrow down which aspect they mean.</think> Happy to help. Could you tell me "
          "which part of your logistics work you want to focus on: tracking customer "
          "orders, managing warehouse resources, or reviewing what happens during "
          "transport runs?")
RAW_U2 = ("It's mainly about reviewing everything that happens while our transport "
          "requests are being processed. What would let me keep an eye on those actions?")
RAW_A2_COMMIT = ("<think>They want to review actions on transport requests; that matches "
                 "the cloud transport records tool. "
                 "<<select: fn_1126_cloud_transport_management>></think> "
                 "Let me set that up for you.")
RAW_A2_FILL = ("<think>The confirmed tool needs two identifiers: the node and the "
               "transport request. I should ask for both.</think> I can pull up the "
               "records of what happened during your transport activities. Could you "
               "give me the node identifier and the transport request number so I can "
               "retrieve the right logs?")
RAW_U3 = "Sure, the node is 437292 and the transport request number is 957841."
RAW_A3_CALL = ('<think>I have both identifiers; time to raise the call.</think> '
               '[{"name": "fn_1126_cloud_transport_management", '
               '"args": {"nodeId": 437292, "transportRequestId": 957841}}]')
# a bracket-led reply nested past the interpreter's recursion limit
RAW_NESTED_CALLS = "<think>x</think> " + "[" * 5000 + "]" * 5000
# a tool-call payload holding an integer past Python's 4,300-digit limit
RAW_LONG_INT_CALLS = "<think>x</think> [" + "1" * 5000 + "]"


@pytest.fixture
def cat() -> Catalogue:
    return parse_catalogue(json.dumps(CATALOGUE_TOOLS))


@pytest.fixture
def emb() -> HashEmbedder:
    return HashEmbedder()


def scripted_backend(model_id: str, transcript: Transcript) -> BackendConfig:
    return BackendConfig(kind="scripted", model_id=model_id, transcript=transcript)


def remote_backend(model_id: str, endpoint: str) -> BackendConfig:
    return BackendConfig(kind="remote", model_id=model_id, endpoint=endpoint, retry_limit=0)


class _LoopbackHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"  # keep-alive, so connection reuse is visible
    disable_nagle_algorithm = True  # headers and body are two writes: no delayed-ACK stall

    def do_POST(self):
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        self.server.ports.append(self.client_address[1])
        self.server.headers.append(self.headers)
        status, headers, payload, delay = self.server.respond(body)
        if delay:  # a test may patch time.sleep to record the client's waits
            time.sleep(delay)
        data = payload if isinstance(payload, bytes) else json.dumps(payload).encode("utf-8")
        try:
            self.send_response(status)
            for name, value in headers.items():
                self.send_header(name, value)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(data)))
            self.end_headers()
            self.wfile.write(data)
        except (BrokenPipeError, ConnectionResetError):
            pass  # the client gave up waiting (a timeout) and closed the connection
        if self.server.drop_connections:  # close without a Connection: close header
            self.close_connection = True
            self.connection.shutdown(socket.SHUT_RDWR)
            self.server.dropped.set()

    def log_message(self, *args):
        pass


@pytest.fixture
def loopback():
    """``loopback(respond)`` starts a threaded keep-alive HTTP server and
    returns ``(endpoint, server)``, the endpoint being a chat-completions URL
    (the server answers every path alike). ``respond(body)`` gets each
    request's JSON body and gives the status, a dict of extra headers, the
    JSON payload (or ``bytes`` sent as they are) and the seconds to wait
    before sending it (``chat`` adapts a chat responder); ``server.ports``
    lists the client port of every request received and ``server.headers``
    its headers. Setting ``server.drop_connections`` makes the server drop
    each keep-alive connection after its reply, setting ``server.dropped``
    once it has."""
    servers = []

    def start(respond):
        server = ThreadingHTTPServer(("127.0.0.1", 0), _LoopbackHandler)
        server.respond, server.ports, server.headers = respond, [], []
        server.drop_connections, server.dropped = False, threading.Event()
        thread = threading.Thread(target=server.serve_forever,
                                  kwargs={"poll_interval": 0.05}, daemon=True)
        thread.start()
        servers.append((server, thread))
        return f"http://127.0.0.1:{server.server_address[1]}/v1/chat/completions", server

    yield start
    # the gateway's adapter keeps its pooled connections open; close them so
    # no socket outlives the server and its handler threads see end of stream
    if gateway._adapter is not None:
        gateway._adapter.close()
    for server, thread in servers:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
        assert not thread.is_alive()


@pytest.fixture
def refused_endpoint() -> str:
    """A chat-completions URL on a loopback port that was bound, then closed,
    so every connection to it is refused."""
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
    return f"http://127.0.0.1:{port}/v1/chat/completions"


@pytest.fixture
def no_thread_pool(monkeypatch):
    """Fail the test if any code starts a ``gateway.fan_out`` thread pool."""
    def refuse(*args, **kwargs):
        raise AssertionError("scripted calls must run inline")

    monkeypatch.setattr(gateway, "ThreadPoolExecutor", refuse)


def json_encoder_garbage(fn) -> list[str]:
    """What ``fn()`` leaves the cyclic collector of json's pure-Python
    encoder, one line per object: each ``JSONEncoder``, ``json.encoder``
    function, and cell holding either."""
    def from_encoder(obj) -> bool:
        if isinstance(obj, types.CellType):
            try:
                obj = obj.cell_contents
            except ValueError:  # an empty cell
                return False
        return isinstance(obj, json.JSONEncoder) or (
            isinstance(obj, types.FunctionType) and obj.__module__ == "json.encoder")

    gc.collect()
    debug = gc.get_debug()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        fn()
        gc.collect()
        return [f"{type(o).__name__} {getattr(o, '__qualname__', '')}".strip()
                for o in gc.garbage if from_encoder(o)]
    finally:
        gc.set_debug(debug)
        gc.garbage.clear()


def child_env() -> dict[str, str]:
    """The environment for a fresh interpreter that must import the ``forge``
    under test: its source directory leads ``PYTHONPATH``."""
    src = str(Path(gateway.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def chat_request(body: dict) -> CompletionRequest:
    """The request a chat-completions body carries."""
    return CompletionRequest(
        messages=tuple(ChatMessage(m["role"], m["content"]) for m in body["messages"]),
        temperature=body["temperature"], seed=body.get("seed"), max_tokens=body["max_tokens"])


def chat_reply(text: str) -> dict:
    """A chat-completions payload whose one choice is ``text``."""
    return {"choices": [{"message": {"content": text}}]}


def chat(respond):
    """A ``loopback`` responder from a chat one: ``respond(model_id, request)``
    gives the reply text and the seconds to wait before sending it."""
    def raw(body: dict):
        reply, delay = respond(body["model"], chat_request(body))
        return 200, {}, chat_reply(reply), delay
    return raw


def transcript_responder(transcript: Transcript, delays: dict[str, float]):
    """A ``loopback`` responder that replays ``transcript`` and waits
    ``delays[fingerprint]`` seconds (0 when absent) before each reply."""
    def respond(model_id: str, req: CompletionRequest) -> tuple[str, float]:
        fp = fingerprint(model_id, req)
        return transcript.lookup(fp, 1)[0], delays.get(fp, 0.0)
    return chat(respond)


@pytest.fixture
def stages_run(monkeypatch):
    """The validator stages a cascade runs, in order: each functional
    validator and each judge that ``fan_out`` starts, recorded through
    ``forge.validation``'s attributes."""
    from forge import validation

    ran = []

    def recording(stage, fn):
        def run(*args):
            ran.append(stage)
            return fn(*args)
        return run

    for stage in ("format", "toolcall", "toolargs"):
        name = f"validate_{stage}"
        monkeypatch.setattr(validation, name, recording(stage, getattr(validation, name)))
    fan_out = validation.fan_out
    monkeypatch.setattr(validation, "fan_out", lambda fn, judges, workers: fan_out(
        lambda judge: recording(judge, fn)(judge), judges, workers))
    return ran


GENERIC_GOAL = "Handle the day to day workload smoothly and keep everything tidy."
GENERIC_OPENING = "Please help me sort out a task in my area of work."

_SLOT_SAMPLES = {"string": "sample-value", "integer": 42, "number": 2.5,
                 "boolean": True, "array": [], "object": {}}


def script_minimal_dialogue(transcript: Transcript, tools: ToolIndex, personas: VectorIndex,
                            tool_name: str, root_seed: int = ROOT_SEED) -> DialogueTrace:
    """Register a one-pair scripted dialogue for a seed tool: vague opening,
    immediate commitment, immediate call. Returns the expected trace."""
    from forge.catalogue import required_args

    catalogue = tools.cat
    rng_seed = split_seed(root_seed, f"dialogue:{tool_name}")
    tool = catalogue.get(tool_name)
    dset = nearest_distractors(tools, tool_name, 5)
    pool = candidate_pool(tool_name, dset, split_seed(rng_seed, "pool"))
    persona = sample_persona(personas, tools.rows([catalogue.index[tool_name]])[0], 10,
                             split_seed(rng_seed, "persona"))
    transcript.register(goal_request(tool, persona, rng_seed, 0), GENERIC_GOAL, "m-goal")
    gold_args = {p: _SLOT_SAMPLES[tool.params[p].type_tag] for p in required_args(tool)}
    if gold_args:
        transcript.register(slots_request(tool, persona, rng_seed, 0),
                            json.dumps(gold_args), "m-goal")
    scn = Scenario(seed_tool=tool_name, persona=persona, goal=GENERIC_GOAL,
                   distractors=dset, pool=pool, gold_args=gold_args, rng_seed=rng_seed)
    sys_u = user_system_prompt(scn, catalogue)
    transcript.register(
        user_request(sys_u, [], split_seed(rng_seed, "sel:0:user:0")),
        GENERIC_OPENING, "m-user")
    retrieved = [n for n, _ in search_catalogue(tools, GENERIC_OPENING, len(pool))]
    assert tool_name in retrieved
    presented = shuffled_candidates(retrieved, split_seed(rng_seed, "sel:0:present"))
    msgs = [UserTurn(GENERIC_OPENING)]
    transcript.register(
        assistant_request(selection_system_prompt(catalogue, presented), msgs,
                          split_seed(rng_seed, "sel:0:asst:1")),
        f"<think>Clear enough. <<select: {tool_name}>></think> Working on it.", "m-asst")
    call_raw = (f"<think>All inputs known.</think> "
                f'[{{"name": "{tool_name}", "args": {json.dumps(gold_args)}}}]')
    transcript.register(
        assistant_request(filling_system_prompt(catalogue, presented, tool_name),
                          msgs, split_seed(rng_seed, "fill:asst:1")),
        call_raw, "m-asst")
    trace = DialogueTrace(
        dialogue_id=scn.scenario_id, scenario_ref=scn.scenario_id,
        messages=msgs + [parse_assistant_output(call_raw)],
        phase_boundary=1, terminated_by="tool_call")
    reqs = judge_requests(trace, scn, catalogue)
    transcript.register(reqs["relevancy"], "PASS", "m-rel")
    transcript.register(reqs["critique"], "PASS", "m-crit")
    return trace


def build_replay_world(tmp_path: Path | None = None) -> SimpleNamespace:
    """Construct the fully scripted sample pipeline run.

    Walks the same deterministic request-construction path as the engine,
    registering a reply for every fingerprint the run will produce. Also
    returns the expected final trace for assertions. When tmp_path is
    given, catalogue/personas/transcript/config files are written for CLI
    runs.
    """
    catalogue = parse_catalogue(json.dumps(CATALOGUE_TOOLS))
    embedder = HashEmbedder()
    store = PersonaStore(personas=[TEST_PERSONA], embedder=embedder)
    tools, personas = ToolIndex(catalogue, embedder), VectorIndex(store.personas, embedder)
    rng_seed = split_seed(ROOT_SEED, f"dialogue:{SEED_TOOL}")
    tool = catalogue.get(SEED_TOOL)
    transcript = Transcript()

    # scenario building ----------------------------------------------------
    dset = nearest_distractors(tools, SEED_TOOL, 5)
    pool = candidate_pool(SEED_TOOL, dset, split_seed(rng_seed, "pool"))
    persona = sample_persona(personas, tools.rows([catalogue.index[SEED_TOOL]])[0], 10,
                             split_seed(rng_seed, "persona"))
    assert persona == TEST_PERSONA
    transcript.register(goal_request(tool, persona, rng_seed, 0), GOAL_TEXT, "m-goal")
    transcript.register(slots_request(tool, persona, rng_seed, 0),
                        json.dumps(GOLD_ARGS), "m-goal")
    scn = Scenario(seed_tool=SEED_TOOL, persona=persona, goal=GOAL_TEXT,
                   distractors=dset, pool=pool, gold_args=dict(GOLD_ARGS),
                   rng_seed=rng_seed)

    # selection stage (attempt 0) ------------------------------------------
    engine_requests: list[tuple[str, object]] = []

    def _register_engine(req, reply, model_id):
        transcript.register(req, reply, model_id)
        engine_requests.append(fingerprint(model_id, req))

    sys_u = user_system_prompt(scn, catalogue)
    msgs: list = []
    _register_engine(
        user_request(sys_u, msgs, split_seed(rng_seed, "sel:0:user:0")),
        RAW_U1, "m-user")
    retrieved = [n for n, _ in search_catalogue(tools, RAW_U1, len(pool))]
    assert SEED_TOOL in retrieved
    presented = shuffled_candidates(retrieved, split_seed(rng_seed, "sel:0:present"))
    sys_sel = selection_system_prompt(catalogue, presented)
    msgs.append(UserTurn(RAW_U1))
    _register_engine(
        assistant_request(sys_sel, msgs, split_seed(rng_seed, "sel:0:asst:1")),
        RAW_A1, "m-asst")
    msgs.append(parse_assistant_output(RAW_A1))
    _register_engine(
        user_request(sys_u, msgs, split_seed(rng_seed, "sel:0:user:2")),
        RAW_U2, "m-user")
    msgs.append(UserTurn(RAW_U2))
    _register_engine(
        assistant_request(sys_sel, msgs, split_seed(rng_seed, "sel:0:asst:3")),
        RAW_A2_COMMIT, "m-asst")
    # committing message is dropped; filling resumes from the same prefix

    # filling stage ---------------------------------------------------------
    sys_fill = filling_system_prompt(catalogue, presented, SEED_TOOL)
    _register_engine(
        assistant_request(sys_fill, msgs, split_seed(rng_seed, "fill:asst:3")),
        RAW_A2_FILL, "m-asst")
    msgs.append(parse_assistant_output(RAW_A2_FILL))
    _register_engine(
        user_request(sys_u, msgs, split_seed(rng_seed, "fill:user:4")),
        RAW_U3, "m-user")
    msgs.append(UserTurn(RAW_U3))
    _register_engine(
        assistant_request(sys_fill, msgs, split_seed(rng_seed, "fill:asst:5")),
        RAW_A3_CALL, "m-asst")
    msgs.append(parse_assistant_output(RAW_A3_CALL))

    expected = DialogueTrace(
        dialogue_id=scn.scenario_id,
        scenario_ref=scn.scenario_id,
        messages=msgs,
        phase_boundary=2,
        terminated_by="tool_call",
    )

    # judges ------------------------------------------------------------------
    reqs = judge_requests(expected, scn, catalogue)
    transcript.register(reqs["relevancy"], "PASS", "m-rel")
    transcript.register(reqs["critique"], "PASS", "m-crit")

    # the request whose reply commits to a tool, for tests that override it
    commit_request = assistant_request(
        sys_sel, msgs[:3], split_seed(rng_seed, "sel:0:asst:3"))

    # minimal single-pair dialogues for every other catalogue tool so CLI
    # runs over the full catalogue replay end to end
    extra_traces = {}
    for other in catalogue.names():
        if other != SEED_TOOL:
            extra_traces[other] = script_minimal_dialogue(transcript, tools, personas, other)

    world = SimpleNamespace(
        cat=catalogue,
        emb=embedder,
        store=store,
        tools=tools,
        personas=personas,
        ecfg=EngineConfig(),
        rng_seed=rng_seed,
        scenario=scn,
        transcript=transcript,
        expected_trace=expected,
        presented=presented,
        commit_request=commit_request,
        engine_fingerprints=engine_requests,
        extra_traces=extra_traces,
        backends={
            "goal": scripted_backend("m-goal", transcript),
            "user_proxy": scripted_backend("m-user", transcript),
            "assistant": scripted_backend("m-asst", transcript),
            "relevancy": scripted_backend("m-rel", transcript),
            "critique": scripted_backend("m-crit", transcript),
        },
    )

    if tmp_path is not None:
        tmp_path.mkdir(parents=True, exist_ok=True)
        (tmp_path / "catalogue.json").write_text(
            json.dumps(CATALOGUE_TOOLS), encoding="utf-8")
        (tmp_path / "personas.json").write_text(
            json.dumps([TEST_PERSONA]), encoding="utf-8")
        transcript.save(tmp_path / "transcripts.json")
        config = {
            "catalogue": "catalogue.json",
            "personas": "personas.json",
            "rng_seed": ROOT_SEED,
            "k": 5,
            "out_dir": "out",
            "backends": {
                role: {"kind": "scripted", "model_id": f"m-{short}",
                       "transcript": "transcripts.json"}
                for role, short in (
                    ("goal", "goal"), ("user_proxy", "user"), ("assistant", "asst"),
                    ("relevancy", "rel"), ("critique", "crit"),
                )
            },
        }
        (tmp_path / "config.json").write_text(json.dumps(config), encoding="utf-8")
        world.config_path = tmp_path / "config.json"
        world.tmp_path = tmp_path
    return world


@pytest.fixture
def replay_world() -> SimpleNamespace:
    return build_replay_world()


def paired(traces: list[DialogueTrace], by_scenario: dict) -> list[tuple]:
    """Each trace with the value its ``scenario_ref`` keys in ``by_scenario``."""
    return [(d, by_scenario[d.scenario_ref]) for d in traces]


def static_candidate(world, replies, scn=None, gold=None) -> BackendConfig:
    """Scripted candidate assistant for eval_static over the replay gold: reply
    t answers the ``static:asst:{t}`` request."""
    scn = scn or world.scenario
    gold = gold or world.expected_trace
    transcript = Transcript()
    sys_a = selection_system_prompt(world.cat, scn.pool)
    messages = []
    for t, (gold_user, _) in enumerate(gold.turns(), start=1):
        messages.append(UserTurn(gold_user.text))
        req = assistant_request(sys_a, messages,
                                split_seed(scn.rng_seed, f"static:asst:{t}"))
        transcript.register(req, replies[t - 1], "m-cand")
        try:
            messages.append(parse_assistant_output(replies[t - 1]))
        except AssistantFormatError:
            messages.append(AssistantTurn(thought=None, raw=replies[t - 1]))
    return scripted_backend("m-cand", transcript)


def simple_trace(dialogue_id: str = "d1", scenario_ref: str = "s1",
                 calls: list[tuple[str, dict]] | None = None,
                 pairs: int = 2, call_at: int | None = None,
                 phase_boundary: int | None = None,
                 contents: list[str] | None = None) -> DialogueTrace:
    """Quick well-formed trace: `calls` land on the pair `call_at`
    (default: the last)."""
    messages: list = []
    call_at = call_at if call_at is not None else pairs
    for t in range(1, pairs + 1):
        messages.append(UserTurn(f"user turn {t}"))
        if calls and t == call_at:
            messages.append(AssistantTurn(
                thought=f"thought {t}",
                tool_calls=[ToolCall(name, dict(args)) for name, args in calls]))
        else:
            text = contents[t - 1] if contents else f"assistant reply {t}"
            messages.append(AssistantTurn(thought=f"thought {t}", content=text))
    return DialogueTrace(
        dialogue_id=dialogue_id,
        scenario_ref=scenario_ref,
        messages=messages,
        phase_boundary=phase_boundary,
        terminated_by="tool_call" if calls else "turn_cap",
    )
