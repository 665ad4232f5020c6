"""Loopback chat-completions stub for the remote-gateway workload.

Serves OpenAI-style ``POST /v1/chat/completions`` on 127.0.0.1 from a
fingerprint -> reply JSON file. Each request waits a fixed latency before it
is answered. A fixed share of the fingerprints (the ones whose own sha256
sorts first) are answered 503 on every other arrival, so each call to them
sees exactly one 503 before it succeeds. A fingerprint with no reply is
answered 404 and counted as a miss.

The server is one asyncio thread with HTTP/1.1 keep-alive, so it needs no
more threads than cores however many connections a client opens.
``GET /stats`` returns the counters. The stub stops when its standard input
closes and prints the final counters as one JSON line.

Run: python3 bench/stub.py REPLIES.json --latency-ms 5 --fail-share 0.01
The first line it prints is {"port": N}.
"""

from __future__ import annotations

import argparse
import asyncio
import hashlib
import json
import math
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from forge.gateway import ChatMessage, CompletionRequest, fingerprint  # noqa: E402


class Stub:
    def __init__(self, replies: dict[str, str], latency_s: float, fail_share: float):
        self.replies = replies
        self.latency_s = latency_s
        n_fail = math.ceil(fail_share * len(replies))
        ranked = sorted(replies, key=lambda fp: hashlib.sha256(fp.encode()).hexdigest())
        self.flaky = {fp: False for fp in ranked[:n_fail]}  # fp -> last arrival got a 503
        self.stats = {"requests": 0, "connections": 0, "service_s": 0.0,
                      "unavailable": 0, "misses": 0}

    def _answer(self, body: bytes) -> tuple[int, dict]:
        raw = json.loads(body)
        req = CompletionRequest(
            messages=tuple(ChatMessage(m["role"], m["content"]) for m in raw["messages"]),
            temperature=raw["temperature"], seed=raw.get("seed"),
            max_tokens=raw.get("max_tokens", 1024))
        fp = fingerprint(raw["model"], req)
        if fp in self.flaky:
            self.flaky[fp] = not self.flaky[fp]
            if self.flaky[fp]:
                self.stats["unavailable"] += 1
                return 503, {"error": "unavailable"}
        if fp not in self.replies:
            self.stats["misses"] += 1
            return 404, {"error": f"no reply for fingerprint {fp}"}
        return 200, {"choices": [{"index": 0, "message": {
            "role": "assistant", "content": self.replies[fp]}}]}

    async def handle(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        counted = False
        try:
            while True:
                line = await reader.readline()
                if not line.strip():
                    break
                method, path, _ = line.decode("latin-1").split(" ", 2)
                headers = {}
                while True:
                    h = await reader.readline()
                    if h in (b"\r\n", b"\n", b""):
                        break
                    key, _, value = h.decode("latin-1").partition(":")
                    headers[key.strip().lower()] = value.strip()
                body = await reader.readexactly(int(headers.get("content-length", "0")))
                start = time.perf_counter()
                if method == "GET" and path == "/stats":
                    status, payload = 200, {**self.stats, "cpu_s": time.process_time()}
                else:
                    if not counted:
                        self.stats["connections"] += 1
                        counted = True
                    self.stats["requests"] += 1
                    await asyncio.sleep(self.latency_s)
                    status, payload = self._answer(body)
                data = json.dumps(payload).encode("utf-8")
                close = headers.get("connection", "").lower() == "close"
                writer.write(
                    f"HTTP/1.1 {status} {'OK' if status == 200 else 'Error'}\r\n"
                    f"Content-Type: application/json\r\nContent-Length: {len(data)}\r\n"
                    f"Connection: {'close' if close else 'keep-alive'}\r\n\r\n".encode("latin-1")
                    + data)
                await writer.drain()
                if path != "/stats":
                    self.stats["service_s"] += time.perf_counter() - start
                if close:
                    break
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            writer.close()


async def serve(stub: Stub) -> None:
    server = await asyncio.start_server(stub.handle, "127.0.0.1", 0)
    print(json.dumps({"port": server.sockets[0].getsockname()[1]}), flush=True)
    loop = asyncio.get_running_loop()
    stdin_closed = asyncio.Event()

    def _on_stdin() -> None:
        if not sys.stdin.buffer.read1(4096):
            loop.remove_reader(sys.stdin.fileno())
            stdin_closed.set()

    loop.add_reader(sys.stdin.fileno(), _on_stdin)
    async with server:
        await stdin_closed.wait()
    print(json.dumps({**stub.stats, "cpu_s": time.process_time()}), flush=True)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("replies")
    parser.add_argument("--latency-ms", type=float, default=5.0)
    parser.add_argument("--fail-share", type=float, default=0.01)
    args = parser.parse_args()
    replies = json.loads(Path(args.replies).read_text(encoding="utf-8"))
    asyncio.run(serve(Stub(replies, args.latency_ms / 1000.0, args.fail_share)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
