"""Live telemetry exposition over HTTP (stdlib only).

:class:`TelemetryServer` is a ``ThreadingHTTPServer`` serving three
endpoints:

* ``/metrics`` — the Prometheus text exposition
  (:func:`repro.obs.prom.render_prometheus`), byte-identical to
  ``repro report --metrics FILE --prometheus`` for the same registry;
* ``/healthz`` — liveness (always ``200 ok`` while the server runs);
* ``/ledger/summary`` — the aggregated run-ledger view
  (:func:`repro.obs.ledger.summarize`) as JSON.

Two source modes, matching the two CLI entry points:

* **live objects** (``registry=`` / ``ledger=``): the embedded mode —
  ``repro batch --serve-metrics PORT`` starts the server on a
  background thread and requests read the batch's registry and ledger
  as they fill;
* **paths** (``metrics_path=`` / ``ledger_path=``): the standalone
  ``repro serve-metrics`` mode — each request re-reads the documents,
  so a directory that a batch keeps appending to is served fresh.

This is the first concrete piece of ROADMAP item 1's
recovery-as-a-service daemon: the scrape surface exists before the
daemon does.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional

from repro.obs.ledger import RunLedger, read_ledger, summarize
from repro.obs.metrics import MetricsRegistry, load_metrics
from repro.obs.prom import render_prometheus

__all__ = ["TelemetryServer"]


class TelemetryServer:
    """Serves ``/metrics``, ``/healthz`` and ``/ledger/summary``."""

    def __init__(
        self,
        registry: Optional[MetricsRegistry] = None,
        metrics_path: Optional[str] = None,
        ledger: Optional[RunLedger] = None,
        ledger_path: Optional[str] = None,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.registry = registry
        self.metrics_path = metrics_path
        self.ledger = ledger
        self.ledger_path = ledger_path
        self._httpd = ThreadingHTTPServer(
            (host, port), self._handler_class()
        )
        self._httpd.daemon_threads = True
        self._thread: Optional[threading.Thread] = None

    # -- addressing ----------------------------------------------------

    @property
    def host(self) -> str:
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        """The bound port (useful with ``port=0``)."""
        return self._httpd.server_address[1]

    def url(self, path: str = "/") -> str:
        return f"http://{self.host}:{self.port}{path}"

    # -- lifecycle -----------------------------------------------------

    def start(self) -> "TelemetryServer":
        """Serve on a daemon background thread; returns self."""
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, daemon=True
        )
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread (the standalone CLI mode)."""
        self._httpd.serve_forever()

    def stop(self) -> None:
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    # -- payloads ------------------------------------------------------

    def metrics_text(self) -> str:
        """The exposition body; raises LookupError without a source."""
        if self.registry is not None:
            return render_prometheus(self.registry.to_dict())
        if self.metrics_path is not None:
            doc = load_metrics(self.metrics_path)
            if doc is None:
                raise LookupError(
                    f"no metrics document at {self.metrics_path}"
                )
            return render_prometheus(doc)
        raise LookupError("no metrics source configured")

    def ledger_summary(self) -> dict:
        """The summary payload; raises LookupError without a source."""
        if self.ledger is not None:
            return summarize(self.ledger.all_records())
        if self.ledger_path is not None:
            return summarize(read_ledger(self.ledger_path))
        raise LookupError("no ledger source configured")

    # -- request handling ----------------------------------------------

    def _handler_class(self):
        server = self

        class Handler(BaseHTTPRequestHandler):
            def log_message(self, format, *args):  # noqa: A002
                pass  # scrapes must not spam the batch's stderr

            def _send(self, status: int, content_type: str, body: str):
                payload = body.encode("utf-8")
                self.send_response(status)
                self.send_header("Content-Type", content_type)
                self.send_header("Content-Length", str(len(payload)))
                self.end_headers()
                self.wfile.write(payload)

            def do_GET(self):
                path = self.path.split("?", 1)[0]
                if path == "/healthz":
                    self._send(200, "text/plain; charset=utf-8", "ok\n")
                elif path == "/metrics":
                    try:
                        body = server.metrics_text()
                    except LookupError as exc:
                        self._send(
                            503, "text/plain; charset=utf-8", f"{exc}\n"
                        )
                        return
                    self._send(
                        200,
                        "text/plain; version=0.0.4; charset=utf-8",
                        body,
                    )
                elif path == "/ledger/summary":
                    try:
                        summary = server.ledger_summary()
                    except LookupError as exc:
                        self._send(
                            404, "text/plain; charset=utf-8", f"{exc}\n"
                        )
                        return
                    self._send(
                        200,
                        "application/json; charset=utf-8",
                        json.dumps(summary, indent=2, sort_keys=True) + "\n",
                    )
                else:
                    self._send(
                        404, "text/plain; charset=utf-8", "not found\n"
                    )

        return Handler
