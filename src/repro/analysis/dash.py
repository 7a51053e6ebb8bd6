"""Live fleet dashboard: stdlib-only web view of a running service.

``repro dash`` serves a single-page view of an
:class:`~repro.service.scheduler.ExperimentScheduler` — every job's
state and progress streaming in over Server-Sent Events, service-level
gauges, and per-run sparklines read from stored metrics artifacts —
using nothing but :mod:`http.server` and vanilla JavaScript, so it runs
anywhere the simulator runs.

Two backends, one interface:

* :class:`LocalBackend` — the scheduler object lives in this process
  (``repro dash --serve`` spins up both sides at once);
* :class:`RemoteBackend` — the scheduler sits behind ``repro serve``'s
  TCP front end; the dashboard talks the line protocol (``jobs`` /
  ``events`` / ``stats`` ops) like any other client.

Endpoints (all JSON unless noted):

* ``/``                 — the dashboard page (HTML);
* ``/api/jobs``         — job snapshots;
* ``/api/events?after=N[&timeout=T]`` — cursor-paged scheduler events;
* ``/api/stats``        — service metrics snapshot + worker PIDs;
* ``/api/runs``         — stored-result summaries (the run browser);
* ``/api/run/<hash>``   — one run's bottleneck profile and gauge
  sparklines, resolved through :func:`repro.analysis.load`;
* ``/events``           — SSE bridge over ``/api/events`` (text/event-stream);
* ``/report``           — the static HTML sweep report over the store
  and any committed artifact directory (``--results``).
"""

from __future__ import annotations

import json
import threading
import urllib.parse
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import AnalysisError, ReproError

__all__ = ["LocalBackend", "RemoteBackend", "DashboardServer"]

#: Long-poll ceiling per /api/events request (seconds).
_MAX_POLL = 30.0

#: Points per sparkline series sent to the browser.
_SPARK_POINTS = 120


class LocalBackend:
    """Dashboard data straight from an in-process scheduler + feed."""

    def __init__(self, scheduler, feed) -> None:
        self.scheduler = scheduler
        self.feed = feed

    def jobs(self) -> List[Dict[str, Any]]:
        return self.scheduler.jobs()

    def events(
        self, after: int, timeout: float
    ) -> Tuple[List[Dict[str, Any]], int]:
        if timeout > 0:
            return self.feed.wait(after, timeout=timeout)
        return self.feed.since(after)

    def stats(self) -> Dict[str, Any]:
        return {"stats": self.scheduler.stats(),
                "workers": self.scheduler.worker_pids()}


class RemoteBackend:
    """Dashboard data over the ``repro serve`` TCP line protocol."""

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = port

    def _request(self, req: Dict[str, Any], timeout: float = 10.0) -> dict:
        from repro.service.server import request

        return request(self.host, self.port, req, timeout=timeout)

    def jobs(self) -> List[Dict[str, Any]]:
        return self._request({"op": "jobs"}).get("jobs", [])

    def events(
        self, after: int, timeout: float
    ) -> Tuple[List[Dict[str, Any]], int]:
        resp = self._request(
            {"op": "events", "after": after, "timeout": timeout},
            timeout=timeout + 10.0,
        )
        return resp.get("events", []), int(resp.get("next", after))

    def stats(self) -> Dict[str, Any]:
        resp = self._request({"op": "stats"})
        return {
            "stats": resp.get("stats", {}),
            "workers": resp.get("workers", []),
        }


def _downsample(t: List[float], v: List[float]) -> Tuple[List[float], List[float]]:
    if len(v) <= _SPARK_POINTS:
        return t, v
    step = len(v) / _SPARK_POINTS
    idx = [int(i * step) for i in range(_SPARK_POINTS)]
    return [t[i] for i in idx], [v[i] for i in idx]


class DashboardServer:
    """Threaded HTTP server for the dashboard endpoints.

    ``backend`` supplies live job/event/stat data; ``store`` (a
    :class:`~repro.bench.store.ResultStore`) backs the run browser and
    sparklines; ``results_dir`` adds committed text artifacts to the
    ``/report`` sweep analysis.
    """

    def __init__(
        self,
        backend,
        host: str = "127.0.0.1",
        port: int = 0,
        store=None,
        results_dir: Optional[str] = None,
    ) -> None:
        self.backend = backend
        self.store = store
        self.results_dir = results_dir
        dash = self

        class Handler(BaseHTTPRequestHandler):
            def log_message(self, *args) -> None:  # silence stderr
                pass

            def do_GET(self) -> None:  # noqa: N802 - http.server API
                try:
                    dash._route(self)
                except (BrokenPipeError, ConnectionResetError):
                    pass
                except (ReproError, OSError, ValueError) as exc:
                    try:
                        dash._json(self, {"error": str(exc)}, status=500)
                    except OSError:
                        pass

        self._httpd = ThreadingHTTPServer((host, port), Handler)
        self._httpd.daemon_threads = True
        self.host, self.port = self._httpd.server_address[:2]
        self._thread: Optional[threading.Thread] = None

    @property
    def address(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "DashboardServer":
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, name="repro-dash", daemon=True
        )
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Run in the calling thread (the ``repro dash`` CLI path)."""
        self._httpd.serve_forever()

    def stop(self) -> None:
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=2.0)

    def __enter__(self) -> "DashboardServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- responses -----------------------------------------------------------
    def _json(self, handler, payload: Any, status: int = 200) -> None:
        body = json.dumps(payload).encode("utf-8")
        handler.send_response(status)
        handler.send_header("Content-Type", "application/json")
        handler.send_header("Content-Length", str(len(body)))
        handler.end_headers()
        handler.wfile.write(body)

    def _page(self, handler, text: str, content_type: str = "text/html") -> None:
        body = text.encode("utf-8")
        handler.send_response(200)
        handler.send_header("Content-Type", f"{content_type}; charset=utf-8")
        handler.send_header("Content-Length", str(len(body)))
        handler.end_headers()
        handler.wfile.write(body)

    # -- routing -------------------------------------------------------------
    def _route(self, handler) -> None:
        parsed = urllib.parse.urlparse(handler.path)
        path = parsed.path.rstrip("/") or "/"
        query = urllib.parse.parse_qs(parsed.query)
        if path == "/":
            self._page(handler, _INDEX_HTML)
        elif path == "/api/jobs":
            self._json(handler, {"jobs": self.backend.jobs()})
        elif path == "/api/events":
            after = int(query.get("after", ["0"])[0])
            timeout = min(
                float(query.get("timeout", ["0"])[0]), _MAX_POLL
            )
            events, cursor = self.backend.events(after, timeout)
            self._json(handler, {"events": events, "next": cursor})
        elif path == "/api/stats":
            self._json(handler, self.backend.stats())
        elif path == "/api/runs":
            self._json(handler, {"runs": self._runs()})
        elif path.startswith("/api/run/"):
            self._json(handler, self._run_detail(path.rsplit("/", 1)[1]))
        elif path == "/events":
            self._sse(handler, query)
        elif path == "/report":
            self._page(handler, self._report())
        else:
            self._json(handler, {"error": f"no such path: {path}"}, 404)

    # -- data ----------------------------------------------------------------
    def _runs(self) -> List[Dict[str, Any]]:
        if self.store is None:
            return []
        return self.store.entries()

    def _run_detail(self, spec_hash: str) -> Dict[str, Any]:
        from repro.analysis import load
        from repro.obs.report import bottleneck_profile, sparkline

        if self.store is None:
            raise AnalysisError("dashboard has no result store configured")
        loaded = load(spec_hash, store=self.store)
        detail: Dict[str, Any] = {
            "hash": loaded.spec_hash or spec_hash,
            "kind": loaded.kind,
            "label": loaded.label(),
            "source": loaded.source,
            "series": {},
        }
        result = loaded.result
        if result is not None and hasattr(result, "throughput"):
            detail["throughput"] = result.throughput
            detail["latency"] = result.latency
            detail["profile"] = bottleneck_profile(result, strict=False)
        metrics = loaded.metrics or {}
        for qname, s in sorted((metrics.get("series") or {}).items()):
            t, v = _downsample(s["t"], s["v"])
            detail["series"][qname] = {
                "t": t,
                "v": v,
                "spark": sparkline(s["v"]),
            }
        return detail

    def _report(self) -> str:
        from repro.analysis import analyze_sweep, to_html_report

        sources: List[Any] = []
        if self.results_dir:
            sources.append(self.results_dir)
        if self.store is not None:
            sources.append(self.store)
        analysis = analyze_sweep(sources)
        return to_html_report(analysis)

    # -- SSE -----------------------------------------------------------------
    def _sse(self, handler, query: Dict[str, List[str]]) -> None:
        """Bridge the event feed onto one Server-Sent-Events stream."""
        after = int(query.get("after", ["0"])[0])
        handler.send_response(200)
        handler.send_header("Content-Type", "text/event-stream")
        handler.send_header("Cache-Control", "no-cache")
        handler.end_headers()
        while True:
            events, after = self.backend.events(after, timeout=10.0)
            if not events:
                handler.wfile.write(b": keepalive\n\n")
                handler.wfile.flush()
                continue
            for event in events:
                data = json.dumps(event)
                handler.wfile.write(
                    f"id: {event.get('seq', after)}\n"
                    f"data: {data}\n\n".encode("utf-8")
                )
            handler.wfile.flush()


_INDEX_HTML = """<!doctype html>
<html lang="en"><head><meta charset="utf-8">
<title>repro fleet dashboard</title>
<style>
body { font: 14px/1.5 system-ui, sans-serif; margin: 1.5rem auto;
       max-width: 70rem; color: #1a1a2e; }
h1 { font-size: 1.3rem; } h2 { font-size: 1.05rem; margin-top: 1.5rem; }
table { border-collapse: collapse; width: 100%; }
th, td { border: 1px solid #cbd5e1; padding: .25rem .55rem;
         text-align: left; font-variant-numeric: tabular-nums; }
th { background: #eef2f7; }
.state-running { color: #b45309; } .state-done { color: #15803d; }
.state-failed { color: #b91c1c; } .state-cancelled { color: #64748b; }
#stats, #feedstate { color: #64748b; font-size: .9em; }
code { background: #f1f5f9; padding: 0 .25em; }
.spark { font-family: monospace; white-space: pre; }
a { color: #1d4ed8; }
</style></head><body>
<h1>repro fleet dashboard</h1>
<p id="feedstate">connecting…</p>
<h2>Jobs</h2>
<table id="jobs"><thead><tr>
<th>id</th><th>client</th><th>label</th><th>state</th>
<th>progress</th><th>executed</th><th>cached</th><th>predicted</th>
<th>retries</th></tr></thead><tbody></tbody></table>
<p id="stats"></p>
<h2>Stored runs</h2>
<table id="runs"><thead><tr>
<th>hash</th><th>pipeline</th><th>fs</th><th>CPIs/s</th>
<th>source</th><th>gauges</th></tr></thead><tbody></tbody></table>
<p><a href="/report">full sweep report</a></p>
<script>
const esc = s => String(s ?? "").replace(/[&<>"]/g,
  c => ({"&":"&amp;","<":"&lt;",">":"&gt;",'"':"&quot;"}[c]));
const jobs = new Map();
function renderJobs() {
  const rows = [...jobs.values()].map(j => {
    const c = j.counters || {};
    const done = j.results ?? 0;
    return `<tr><td>${esc(j.id)}</td><td>${esc(j.client)}</td>
      <td>${esc(j.label)}</td>
      <td class="state-${esc(j.state)}">${esc(j.state)}</td>
      <td>${done}/${esc(j.cells)}</td><td>${c.executed ?? 0}</td>
      <td>${c.cache_hits ?? 0}</td><td>${c.predicted ?? 0}</td>
      <td>${c.retries ?? 0}</td></tr>`;
  });
  document.querySelector("#jobs tbody").innerHTML = rows.join("");
}
async function refreshJobs() {
  const r = await fetch("/api/jobs"); const data = await r.json();
  for (const j of data.jobs) jobs.set(j.id, j);
  renderJobs();
}
async function refreshStats() {
  const r = await fetch("/api/stats"); const data = await r.json();
  const s = data.stats || {};
  const bits = Object.entries(s)
    .filter(([k]) => !k.includes("{"))
    .map(([k, v]) => `${esc(k.replace("service_", ""))}=${v}`);
  document.getElementById("stats").textContent =
    `workers: ${(data.workers || []).length} · ` + bits.join(" · ");
}
async function refreshRuns() {
  const r = await fetch("/api/runs"); const data = await r.json();
  const rows = [];
  for (const run of (data.runs || []).slice(-40).reverse()) {
    rows.push(`<tr><td><code>${esc((run.hash || "").slice(0, 12))}</code></td>
      <td>${esc(run.pipeline)}</td><td>${esc(run.fs)}</td>
      <td>${run.throughput == null ? "-" : run.throughput.toFixed(4)}</td>
      <td>${esc(run.source)}</td>
      <td class="spark" data-hash="${esc(run.hash)}">…</td></tr>`);
  }
  document.querySelector("#runs tbody").innerHTML = rows.join("");
  for (const cell of document.querySelectorAll("#runs .spark")) {
    fetch(`/api/run/${cell.dataset.hash}`).then(r => r.json()).then(d => {
      const names = Object.keys(d.series || {});
      const q = names.find(n => n.includes("queue_depth")) || names[0];
      cell.textContent = q ? (d.series[q].spark || "") : "(no metrics)";
      if (d.profile) cell.title = `bottleneck: ${d.profile.bottleneck}`;
    }).catch(() => { cell.textContent = "?"; });
  }
}
function connect() {
  const es = new EventSource("/events");
  es.onopen = () => {
    document.getElementById("feedstate").textContent = "live (SSE)";
  };
  es.onmessage = m => {
    const e = JSON.parse(m.data);
    if (e.event === "job") { jobs.set(e.id, e); renderJobs(); }
    if (e.event === "result" || e.event === "job") refreshStats();
    if (e.event === "job" &&
        ["done", "failed", "cancelled"].includes(e.state)) refreshRuns();
  };
  es.onerror = () => {
    document.getElementById("feedstate").textContent =
      "feed disconnected — polling";
    es.close();
    setTimeout(connect, 2000);
  };
}
refreshJobs(); refreshStats(); refreshRuns(); connect();
setInterval(refreshJobs, 5000); setInterval(refreshStats, 5000);
</script></body></html>
"""
