"""Stand-in for an OpenAI-compatible chat-completions endpoint.

The stub runs as its own process, so its cost never lands in the process being
measured. A reply is a pure function of the prompt, the choice index and how
many samples of that prompt were already served since the last reset. Each
prompt hashes to its own success probability (a Beta(2, 2) draw), so the
pipeline's allocation is not flat. Nothing here calls into ``uab``, so the
stub's cost does not move when the simulator or the pipeline changes.

Run ``python3 bench/stub.py``. It serves at most ``nproc`` connections at a
time and refuses every FAULT_EVERY-th POST with a 503. The process prints
``{"port": <port>}`` and then takes one JSON command a line on stdin, answering
each with one JSON line on stdout:

- ``{"cmd": "reset", "delay_s": 0.02}`` drops open connections, zeroes the
  counters and the per-prompt sample numbering, and sets the delay added to
  every request;
- ``{"cmd": "stats"}`` returns the POSTs seen, faults injected, samples served
  and the peak number of requests in flight since the last reset;
- ``{"cmd": "stop"}`` (or end of input) shuts the server down.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import socket
import subprocess
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

#: Replies carry TOKENS tokens, each with logprob TEMPERATURE*log(p), so the
#: mean token NLL is -TEMPERATURE*log(p) and the pipeline's default
#: score-to-probability map (T = 0.2) recovers p exactly: a noiseless signal.
TEMPERATURE = 0.2
TOKENS = 8
DISTRACTORS = 4
P_FLOOR = 1e-9

#: Every FAULT_EVERY-th POST is refused with a 503, once.
FAULT_EVERY = 20

COMPLETIONS_PATH = "/v1/chat/completions"


def nproc() -> int:
    """CPUs this process may run on, as ``nproc`` counts them."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _unit(*parts) -> float:
    """A uniform draw in [0, 1) keyed by ``parts``."""
    digest = hashlib.sha256("\x1f".join(str(p) for p in parts).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") / 2.0**64


def success_prob(prompt: str) -> float:
    """Per-prompt success probability: the median of three uniforms is Beta(2, 2)."""
    return sorted(_unit(prompt, "p", k) for k in range(3))[1]


def gold_answer(prompt: str) -> str:
    """The answer a correct sample gives; digits sort before every distractor."""
    return str(int(_unit(prompt, "gold") * 1_000_000))


def reply_choice(prompt: str, sample_no: int, index: int) -> dict:
    """Choice ``index`` of a reply whose first sample is number ``sample_no``."""
    p = success_prob(prompt)
    if _unit(prompt, "correct", sample_no) < p:
        answer = gold_answer(prompt)
    else:
        answer = f"wrong_{int(_unit(prompt, 'distractor', sample_no) * DISTRACTORS)}"
    logprob = TEMPERATURE * math.log(max(p, P_FLOOR))
    return {
        "index": index,
        "message": {"role": "assistant", "content": f"The final answer is \\boxed{{{answer}}}."},
        "logprobs": {"content": [{"token": "t", "logprob": logprob}] * TOKENS},
        "finish_reason": "stop",
    }


class StubState:
    """Counters and per-prompt sample numbering, shared by the handler threads."""

    def __init__(self):
        self.lock = threading.Lock()
        self.in_flight = 0
        self.reset(0.0)

    def reset(self, delay_s: float) -> None:
        with self.lock:
            self.delay_s = float(delay_s)
            self.posts = 0
            self.faults = 0
            self.samples = 0
            self.peak_in_flight = self.in_flight
            self.served: dict = {}

    def stats(self) -> dict:
        with self.lock:
            return {"posts": self.posts, "faults": self.faults, "samples": self.samples,
                    "peak_in_flight": self.peak_in_flight}


class StubHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    # Without this, a keep-alive client stalls about 40 ms a response on the
    # delayed ACK between the header write and the body write.
    disable_nagle_algorithm = True

    def log_message(self, format, *args):  # noqa: A002 - signature of the base class
        pass

    def _send(self, status: int, obj: dict) -> None:
        data = json.dumps(obj).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def do_POST(self):
        body = self.rfile.read(int(self.headers.get("Content-Length") or 0))
        if self.path != COMPLETIONS_PATH:
            self._send(404, {"error": f"unknown path {self.path}"})
            return
        try:
            request = json.loads(body)
            prompt = request["messages"][-1]["content"]
            n = int(request.get("n", 1))
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            self._send(400, {"error": f"malformed request: {exc}"})
            return
        state = self.server.state
        with state.lock:
            state.posts += 1
            state.in_flight += 1
            state.peak_in_flight = max(state.peak_in_flight, state.in_flight)
            refuse = state.posts % FAULT_EVERY == 0
            if refuse:
                state.faults += 1
            else:
                state.samples += n
                first = state.served.get(prompt, 0)
                state.served[prompt] = first + n
            delay = state.delay_s
        try:
            if delay > 0:
                time.sleep(delay)
            if refuse:
                self._send(503, {"error": "injected fault"})
            else:
                self._send(200, {"choices": [reply_choice(prompt, first + i, i) for i in range(n)]})
        finally:
            with state.lock:
                state.in_flight -= 1


class StubServer(ThreadingHTTPServer):
    """Threaded server that holds at most ``nproc`` connections open."""

    daemon_threads = True

    def __init__(self):
        super().__init__(("127.0.0.1", 0), StubHandler)
        self.state = StubState()
        self._slots = threading.BoundedSemaphore(nproc())
        self._open: set = set()
        self._open_lock = threading.Lock()

    def process_request(self, request, client_address):
        # Further connections wait in the listen backlog until a slot frees.
        self._slots.acquire()
        with self._open_lock:
            self._open.add(request)
        super().process_request(request, client_address)

    def process_request_thread(self, request, client_address):
        try:
            super().process_request_thread(request, client_address)
        finally:
            with self._open_lock:
                self._open.discard(request)
            self._slots.release()

    def drop_connections(self) -> None:
        """Close idle keep-alive connections so that their slots free up."""
        with self._open_lock:
            sockets = list(self._open)
        for sock in sockets:
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass


def serve(commands, replies) -> None:
    server = StubServer()
    # A short poll interval keeps shutdown, and so each stub restart, fast.
    thread = threading.Thread(target=server.serve_forever, args=(0.05,), daemon=True)
    thread.start()
    replies.write(json.dumps({"port": server.server_address[1]}) + "\n")
    replies.flush()
    try:
        for line in commands:
            cmd = json.loads(line)
            if cmd["cmd"] == "stop":
                break
            if cmd["cmd"] == "reset":
                server.drop_connections()
                server.state.reset(cmd["delay_s"])
                out = {"ok": True}
            elif cmd["cmd"] == "stats":
                out = server.state.stats()
            else:
                out = {"error": f"unknown command {cmd['cmd']!r}"}
            replies.write(json.dumps(out) + "\n")
            replies.flush()
    finally:
        server.drop_connections()
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)


class StubProcess:
    """The stub running in a child process, driven over its stdin and stdout."""

    def __init__(self):
        self._proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve())],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        line = self._proc.stdout.readline()
        if not line:
            self.close()
            raise RuntimeError("stub endpoint exited before reporting its port")
        self.base_url = f"http://127.0.0.1:{json.loads(line)['port']}"

    def _command(self, cmd: str, **fields) -> dict:
        self._proc.stdin.write(json.dumps({"cmd": cmd, **fields}) + "\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError(f"stub endpoint exited during {cmd!r}")
        return json.loads(line)

    def reset(self, delay_s: float) -> None:
        self._command("reset", delay_s=delay_s)

    def stats(self) -> dict:
        return self._command("stats")

    def close(self) -> None:
        if self._proc.poll() is None:
            try:
                self._proc.stdin.write(json.dumps({"cmd": "stop"}) + "\n")
                self._proc.stdin.close()
            except OSError:
                pass
            try:
                self._proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self._proc.kill()
                self._proc.wait()
        self._proc.stdout.close()
        if not self._proc.stdin.closed:
            try:
                self._proc.stdin.close()
            except OSError:
                pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


if __name__ == "__main__":
    serve(sys.stdin, sys.stdout)
