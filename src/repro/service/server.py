"""Line-oriented TCP front end for the experiment scheduler.

``repro serve`` wraps one :class:`~repro.service.scheduler.ExperimentScheduler`
in an :class:`ExperimentServer`; ``repro submit`` / ``repro jobs`` talk
to it with the tiny client helpers below.  The protocol is JSON objects,
one per line, UTF-8:

* request ``{"op": "submit", "specs": [<spec dict>, ...], "client": c,
  "follow": bool}`` → response ``{"ok": true, "event": "accepted",
  "job": id, "cells": n}``; with ``follow`` the connection then streams
  ``{"event": "result", "index": i, "key": h, "source": s,
  "payload": {...}}`` as cells land, terminated by ``{"event": "done",
  "counters": {...}}`` (or ``failed`` / ``cancelled``);
* ``{"op": "jobs"}`` → ``{"ok": true, "jobs": [<describe>, ...]}``;
* ``{"op": "job", "id": j}`` → ``{"ok": true, "job": <describe>}``;
* ``{"op": "cancel", "id": j}`` → ``{"ok": true, "cancelled": bool}``;
* ``{"op": "ping"}`` → ``{"ok": true, "event": "pong"}``;
* ``{"op": "events", "after": n, "timeout": t}`` → ``{"ok": true,
  "events": [...], "next": cursor}`` — cursor-paged scheduler events
  from the server's :class:`~repro.service.events.EventFeed`
  (long-polls up to ``timeout`` seconds when past the tail; requires
  the server to have been built with a feed);
* ``{"op": "stats"}`` → ``{"ok": true, "stats": {...}}`` — the
  :class:`~repro.obs.service.ServiceMetrics` snapshot plus
  ``tasks_in_flight``, ``listener_errors`` / ``last_listener_error``
  and worker PIDs, the dashboard's gauge source.

Anything the server rejects answers ``{"ok": false, "error": msg}`` —
a malformed request never kills the service.  A request line may be at
most :data:`MAX_REQUEST_BYTES` (1 MiB, about 1,300 cells per submit);
a longer one is rejected unparsed, and any request text an error echoes
back is cut to 200 characters.  Each connection carries
one request (plus its event stream), which keeps both ends stateless.

Streaming back over TCP composes with the scheduler's dispatch-side
backpressure: the server thread consuming a job's results blocks on
``socket.send`` when the client stalls, stops draining the handle, and
the scheduler stops dispatching that job — a slow ``repro submit
--follow`` throttles only itself.
"""

from __future__ import annotations

import json
import socket
import threading
from typing import Any, Dict, Iterator, List, Optional

from repro.errors import ReproError, ServiceError

__all__ = [
    "ExperimentServer",
    "submit_batch",
    "request",
]

#: Server-side accept timeout; bounds shutdown latency.
_ACCEPT_TICK = 0.2

#: Longest request line the server reads.
MAX_REQUEST_BYTES = 1 << 20

#: Request text echoed in an error is cut to this many characters.
_ECHO_CHARS = 200


def _clip(text: str) -> str:
    """``text`` cut to :data:`_ECHO_CHARS` characters for an error echo."""
    if len(text) <= _ECHO_CHARS:
        return text
    return text[:_ECHO_CHARS] + f"... ({len(text)} chars)"


def _discard_line(rfile) -> None:
    """Drop the rest of an oversized request line, a bounded chunk at a
    time, so that a client still sending reads the error rather than a
    connection reset."""
    while True:
        chunk = rfile.readline(MAX_REQUEST_BYTES)
        if not chunk or chunk.endswith(b"\n"):
            return


def _send(wfile, obj: Dict[str, Any]) -> None:
    wfile.write((json.dumps(obj) + "\n").encode("utf-8"))
    wfile.flush()


class ExperimentServer:
    """Serve one scheduler to TCP clients (one thread per connection)."""

    def __init__(self, scheduler, host: str = "127.0.0.1",
                 port: int = 0, feed=None) -> None:
        self.scheduler = scheduler
        #: Optional :class:`~repro.service.events.EventFeed` backing the
        #: ``events`` op; attach it to the scheduler before passing it
        #: in (``EventFeed().attach(scheduler)``).
        self.feed = feed
        self._sock = socket.create_server((host, port))
        self._sock.settimeout(_ACCEPT_TICK)
        self.host, self.port = self._sock.getsockname()[:2]
        self._stop = threading.Event()
        self._accept_thread: Optional[threading.Thread] = None

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    def start(self) -> "ExperimentServer":
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="repro-serve-accept", daemon=True
        )
        self._accept_thread.start()
        return self

    def serve_forever(self) -> None:
        """Run the accept loop in the calling thread (the CLI path)."""
        self._accept_loop()

    def stop(self) -> None:
        self._stop.set()
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=2.0)
        self._sock.close()

    def __enter__(self) -> "ExperimentServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- internals -----------------------------------------------------------
    def _accept_loop(self) -> None:
        while not self._stop.is_set():
            try:
                conn, _addr = self._sock.accept()
            except socket.timeout:
                continue
            except OSError:
                break
            threading.Thread(
                target=self._serve_connection, args=(conn,),
                name="repro-serve-conn", daemon=True,
            ).start()

    def _serve_connection(self, conn: socket.socket) -> None:
        with conn:
            rfile = conn.makefile("rb")
            wfile = conn.makefile("wb")
            try:
                line = rfile.readline(MAX_REQUEST_BYTES + 1)
                if not line:
                    return
                if len(line) > MAX_REQUEST_BYTES:
                    _send(wfile, {"ok": False, "error": "request line exceeds "
                                  f"{MAX_REQUEST_BYTES} bytes"})
                    _discard_line(rfile)
                    return
                try:
                    req = json.loads(line.decode("utf-8"))
                    if not isinstance(req, dict):
                        raise ValueError("request must be a JSON object")
                except (ValueError, UnicodeDecodeError) as exc:
                    _send(wfile, {"ok": False,
                                  "error": f"bad request: {_clip(str(exc))}"})
                    return
                self._handle(req, wfile)
            except (BrokenPipeError, ConnectionResetError, OSError):
                pass  # client went away; nothing to clean up

    def _handle(self, req: Dict[str, Any], wfile) -> None:
        op = req.get("op")
        if op == "ping":
            _send(wfile, {"ok": True, "event": "pong"})
        elif op == "jobs":
            _send(wfile, {"ok": True, "jobs": self.scheduler.jobs()})
        elif op == "job":
            info = self.scheduler.job(str(req.get("id")))
            if info is None:
                _send(wfile, {"ok": False, "error":
                              f"no such job: {_clip(repr(req.get('id')))}"})
            else:
                _send(wfile, {"ok": True, "job": info})
        elif op == "cancel":
            ok = self.scheduler.cancel(str(req.get("id")))
            _send(wfile, {"ok": True, "cancelled": ok})
        elif op == "events":
            if self.feed is None:
                _send(wfile, {"ok": False,
                              "error": "server has no event feed"})
                return
            try:
                after = int(req.get("after") or 0)
                timeout = min(float(req.get("timeout") or 0.0), 30.0)
            except (TypeError, ValueError) as exc:
                _send(wfile, {"ok": False,
                              "error": f"bad cursor: {_clip(str(exc))}"})
                return
            if timeout > 0:
                events, cursor = self.feed.wait(after, timeout=timeout)
            else:
                events, cursor = self.feed.since(after)
            _send(wfile, {"ok": True, "events": events, "next": cursor})
        elif op == "stats":
            _send(wfile, {
                "ok": True,
                "stats": self.scheduler.stats(),
                "workers": self.scheduler.worker_pids(),
            })
        elif op == "submit":
            self._handle_submit(req, wfile)
        else:
            _send(wfile, {"ok": False,
                          "error": f"unknown op: {_clip(repr(op))}"})

    def _handle_submit(self, req: Dict[str, Any], wfile) -> None:
        from repro.bench.engine import ExperimentSpec
        from repro.scenario import ScenarioSpec

        try:
            specs = [
                ScenarioSpec.from_dict(d) if d.get("kind") == "scenario"
                else ExperimentSpec.from_dict(d)
                for d in req["specs"]
            ]
            if not specs:
                raise ValueError("empty spec list")
        except (ReproError, KeyError, TypeError, ValueError) as exc:
            _send(wfile, {"ok": False, "error": f"bad specs: {_clip(str(exc))}"})
            return
        client = str(req.get("client") or "remote")
        handle = self.scheduler.submit(specs, client=client,
                                       label=str(req.get("label") or ""))
        _send(wfile, {"ok": True, "event": "accepted", "job": handle.id,
                      "cells": handle.job.n_cells})
        if not req.get("follow"):
            # Fire-and-forget: nobody will ever drain this stream, so
            # detach the handle — otherwise `undelivered` only grows
            # until backpressure permanently pauses the job (and every
            # later job queued behind it for this client).
            handle.detach()
            return
        try:
            for cell in handle.results():
                _send(wfile, {
                    "event": "result",
                    "index": cell.index,
                    "key": cell.key,
                    "source": cell.source,
                    "payload": cell.payload,
                })
            _send(wfile, {"event": "done", "counters": handle.counters})
        except ReproError as exc:
            kind = "cancelled" if handle.job.state.value == "cancelled" \
                else "failed"
            _send(wfile, {"event": kind, "error": str(exc)})
        except Exception as exc:  # noqa: BLE001 - report, don't kill server
            _send(wfile, {"event": "failed", "error": str(exc)})


# -- client helpers ---------------------------------------------------------
def _connect(host: str, port: int, timeout) -> socket.socket:
    try:
        return socket.create_connection((host, port), timeout=timeout)
    except OSError as exc:
        raise ServiceError(
            f"cannot reach repro service at {host}:{port} ({exc}); "
            "is 'repro serve' running?"
        ) from exc


def request(host: str, port: int, req: Dict[str, Any],
            timeout: float = 10.0) -> Dict[str, Any]:
    """One request, one response (``jobs`` / ``job`` / ``cancel`` / ``ping``)."""
    with _connect(host, port, timeout) as conn:
        conn.sendall((json.dumps(req) + "\n").encode("utf-8"))
        line = conn.makefile("rb").readline()
    if not line:
        raise ServiceError(f"server at {host}:{port} closed the connection")
    resp = json.loads(line.decode("utf-8"))
    if not resp.get("ok"):
        raise ServiceError(resp.get("error", "request rejected"))
    return resp


def submit_batch(
    host: str,
    port: int,
    spec_dicts: List[dict],
    client: str = "remote",
    follow: bool = False,
    label: str = "",
    timeout: Optional[float] = None,
) -> Iterator[Dict[str, Any]]:
    """Submit a batch; yield protocol events (``accepted`` first, then —
    with ``follow`` — one ``result`` per cell and a terminal event)."""
    req = {"op": "submit", "specs": spec_dicts, "client": client,
           "follow": follow, "label": label}
    with _connect(host, port, timeout) as conn:
        conn.sendall((json.dumps(req) + "\n").encode("utf-8"))
        rfile = conn.makefile("rb")
        first = rfile.readline()
        if not first:
            raise ServiceError(
                f"server at {host}:{port} closed the connection"
            )
        resp = json.loads(first.decode("utf-8"))
        if not resp.get("ok"):
            raise ServiceError(resp.get("error", "submit rejected"))
        yield resp
        if not follow:
            return
        for line in rfile:
            event = json.loads(line.decode("utf-8"))
            yield event
            if event.get("event") in ("done", "failed", "cancelled"):
                return
