"""Telemetry endpoint tests: routing, parity, path-backed serving."""

import json
import urllib.error
import urllib.request

import pytest

from repro.obs import (
    MetricsRegistry,
    RunLedger,
    dump_metrics,
    render_prometheus,
    validate_exposition,
)
from repro.obs.httpexp import TelemetryServer


def _get(url):
    with urllib.request.urlopen(url, timeout=5) as response:
        return response.status, response.headers, response.read()


@pytest.fixture()
def registry():
    reg = MetricsRegistry()
    reg.counter("recover.calls").inc(3)
    reg.counter("rules.fired", rule="R4").inc(7)
    reg.histogram("phase.seconds", phase="tase").observe(0.25)
    return reg


def test_healthz(registry):
    server = TelemetryServer(registry=registry).start()
    try:
        status, _headers, body = _get(server.url("/healthz"))
        assert status == 200
        assert body == b"ok\n"
    finally:
        server.stop()


def test_metrics_is_byte_identical_to_the_cli_exposition(registry):
    server = TelemetryServer(registry=registry).start()
    try:
        status, headers, body = _get(server.url("/metrics"))
        assert status == 200
        assert headers["Content-Type"] == (
            "text/plain; version=0.0.4; charset=utf-8"
        )
        # ``repro report --prometheus`` writes render_prometheus(doc)
        # verbatim; the endpoint must serve the same bytes.
        assert body.decode("utf-8") == render_prometheus(registry.to_dict())
        assert validate_exposition(body.decode("utf-8")) == []
    finally:
        server.stop()


def test_metrics_sees_live_registry_updates(registry):
    server = TelemetryServer(registry=registry).start()
    try:
        _status, _headers, before = _get(server.url("/metrics"))
        registry.counter("recover.calls").inc(10)
        _status, _headers, after = _get(server.url("/metrics"))
        assert before != after
        assert b"recover_calls 13" in after
    finally:
        server.stop()


def test_ledger_summary_json(registry):
    ledger = RunLedger()
    ledger.append({"strategy": "sharded", "tier": "cold", "functions": 2,
                   "elapsed_seconds": 0.5, "phases": {"tase": 0.4}})
    server = TelemetryServer(registry=registry, ledger=ledger).start()
    try:
        status, headers, body = _get(server.url("/ledger/summary"))
        assert status == 200
        assert headers["Content-Type"].startswith("application/json")
        summary = json.loads(body)
        assert summary["records"] == 1
        assert summary["tiers"] == {"cold": 1}
    finally:
        server.stop()


def test_unknown_path_is_404_and_missing_sources_degrade(registry):
    server = TelemetryServer(registry=registry).start()
    try:
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(server.url("/nope"))
        assert excinfo.value.code == 404
        # No ledger configured -> /ledger/summary is 404, not a crash.
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(server.url("/ledger/summary"))
        assert excinfo.value.code == 404
    finally:
        server.stop()


def test_path_backed_serving_rereads_documents(tmp_path, registry):
    metrics_path = str(tmp_path / "metrics.json")
    ledger_path = str(tmp_path / "ledger.jsonl")
    dump_metrics(registry, metrics_path)
    RunLedger(ledger_path).append({"strategy": "sharded", "tier": "cold"})
    server = TelemetryServer(
        metrics_path=metrics_path, ledger_path=ledger_path
    ).start()
    try:
        _status, _headers, body = _get(server.url("/metrics"))
        assert b"recover_calls 3" in body
        # The standalone mode re-reads per scrape: an updated document
        # is visible without restarting the server.
        registry.counter("recover.calls").inc()
        dump_metrics(registry, metrics_path, merge_existing=False)
        _status, _headers, body = _get(server.url("/metrics"))
        assert b"recover_calls 4" in body
        summary = json.loads(_get(server.url("/ledger/summary"))[2])
        assert summary["records"] == 1
    finally:
        server.stop()


def test_missing_metrics_document_is_503(tmp_path):
    server = TelemetryServer(
        metrics_path=str(tmp_path / "absent.json")
    ).start()
    try:
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(server.url("/metrics"))
        assert excinfo.value.code == 503
    finally:
        server.stop()
