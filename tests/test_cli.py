"""CLI: every subcommand end to end."""

import random

import pytest

from repro.abi.codec import encode_call
from repro.abi.signature import FunctionSignature, Visibility
from repro.apps.parchecker import corrupt_calldata
from repro.cli import main
from repro.compiler import compile_contract

TRANSFER = FunctionSignature.parse("transfer(address,uint256)", Visibility.EXTERNAL)


@pytest.fixture(scope="module")
def token_hex():
    contract = compile_contract(
        [TRANSFER, FunctionSignature.parse("pause(bool)", Visibility.PUBLIC)]
    )
    return contract.bytecode.hex()


def test_recover(token_hex, capsys):
    assert main(["recover", token_hex]) == 0
    out = capsys.readouterr().out
    assert "0xa9059cbb(address,uint256)" in out
    assert "(bool)" in out


def test_recover_verbose(token_hex, capsys):
    assert main(["recover", "-v", "0x" + token_hex]) == 0
    out = capsys.readouterr().out
    assert "solidity" in out
    assert "R16" in out  # the address rule fired


def test_recover_from_file(token_hex, tmp_path, capsys):
    path = tmp_path / "code.hex"
    path.write_text(token_hex + "\n")
    assert main(["recover", f"@{path}"]) == 0
    assert "0xa9059cbb" in capsys.readouterr().out


def test_recover_with_database_names(token_hex, tmp_path, capsys):
    from repro.baselines.efsd import SignatureDatabase

    db = SignatureDatabase()
    db.add(TRANSFER)
    path = tmp_path / "db.json"
    db.save(str(path))
    assert main(["recover", "--db", str(path), token_hex]) == 0
    out = capsys.readouterr().out
    assert "transfer(address,uint256)" in out  # the name was resolved
    assert "(bool)" in out  # the unknown function still prints typed


def test_ids(token_hex, capsys):
    assert main(["ids", token_hex]) == 0
    assert "0xa9059cbb" in capsys.readouterr().out


def test_disasm(token_hex, capsys):
    assert main(["disasm", token_hex]) == 0
    out = capsys.readouterr().out
    assert "CALLDATALOAD" in out
    assert "JUMPI" in out


def test_lift(token_hex, capsys):
    assert main(["lift", token_hex]) == 0
    assert "block_0x0:" in capsys.readouterr().out


def test_lift_plus(token_hex, capsys):
    assert main(["lift", "--plus", token_hex]) == 0
    out = capsys.readouterr().out
    assert "arg1: address" in out


def test_lift_structured(capsys):
    loopy = compile_contract(
        [FunctionSignature.parse("g(uint256[2][2])", Visibility.PUBLIC)]
    )
    assert main(["lift", "--structured", loopy.bytecode.hex()]) == 0
    out = capsys.readouterr().out
    assert "while not (" in out


def test_check_valid(token_hex, capsys):
    calldata = encode_call(TRANSFER.selector, list(TRANSFER.params), [0xAB, 5])
    assert main(["check", token_hex, calldata.hex()]) == 0
    assert "valid" in capsys.readouterr().out


def test_check_short_address_attack(token_hex, capsys):
    rng = random.Random(0)
    attack = corrupt_calldata(TRANSFER, [0xAB00, 1000], "short_address", rng)
    assert main(["check", token_hex, attack.hex()]) == 2
    assert "short address attack" in capsys.readouterr().out


def test_check_unknown_function(token_hex, capsys):
    assert main(["check", token_hex, "deadbeef" + "00" * 64]) == 0
    assert "unknown function id" in capsys.readouterr().out


def test_selector(capsys):
    assert main(["selector", "transfer(address,uint256)"]) == 0
    assert capsys.readouterr().out.strip() == "0xa9059cbb"


def test_decode_arguments(token_hex, capsys):
    calldata = encode_call(
        TRANSFER.selector, list(TRANSFER.params), [0xABCD, 5000]
    )
    assert main(["decode", token_hex, calldata.hex()]) == 0
    out = capsys.readouterr().out
    assert "address=0x000000000000000000000000000000000000abcd" in out
    assert "uint256=5000" in out


def test_decode_unknown_function(token_hex, capsys):
    assert main(["decode", token_hex, "deadbeef"]) == 1
    assert "unknown function" in capsys.readouterr().out


def test_decode_garbage_arguments(token_hex, capsys):
    assert main(["decode", token_hex, TRANSFER.selector.hex() + "01"]) == 2
    assert "cannot decode" in capsys.readouterr().out


def test_decode_dynamic_types(tmp_path, capsys):
    sig = FunctionSignature.parse("post(string,uint8[])", Visibility.PUBLIC)
    contract = compile_contract([sig])
    calldata = encode_call(sig.selector, list(sig.params), ["hi", [1, 2]])
    assert main(["decode", contract.bytecode.hex(), calldata.hex()]) == 0
    out = capsys.readouterr().out
    assert "'hi'" in out
    assert "[1, 2]" in out


def test_batch_from_file(token_hex, tmp_path, capsys):
    path = tmp_path / "corpus.txt"
    path.write_text(f"{token_hex}\n# a comment\n0x{token_hex}\n\n")
    assert main(["batch", str(path), "--workers", "0", "--time"]) == 0
    captured = capsys.readouterr()
    assert "contract 0: " in captured.out
    assert "contract 1: " in captured.out
    assert "0xa9059cbb(address,uint256)" in captured.out
    assert "2 contracts (1 unique, 50%)" in captured.err
    assert "contracts/s" in captured.err
    assert "workers=serial" in captured.err


def test_batch_from_directory_with_cache(token_hex, tmp_path, capsys):
    source = tmp_path / "corpus"
    source.mkdir()
    (source / "token.hex").write_text(token_hex)
    (source / "ignored.txt").write_text("not bytecode")
    cache_dir = tmp_path / "cache"
    args = [
        "batch", str(source),
        "--workers", "0", "--cache-dir", str(cache_dir), "--time",
    ]
    assert main(args) == 0
    assert "0 hits / 1 misses" in capsys.readouterr().err
    assert main(args) == 0  # warm: served entirely from the cache
    captured = capsys.readouterr()
    assert "1 hits / 0 misses (100% hit rate)" in captured.err
    assert "0xa9059cbb(address,uint256)" in captured.out


def test_batch_scheduler_flags(token_hex, tmp_path, capsys):
    path = tmp_path / "corpus.txt"
    path.write_text(f"{token_hex}\n")
    expected = "0xa9059cbb(address,uint256)"

    # --unit-size 1 splits the two-selector contract into two units.
    args = ["batch", str(path), "--workers", "0", "--unit-size", "1", "--time"]
    assert main(args) == 0
    captured = capsys.readouterr()
    assert expected in captured.out
    assert "2 units (1 contracts split)" in captured.err

    # The inference memo is off by default: identical output, no
    # infmemo line.
    assert main(["batch", str(path), "--workers", "0", "--time"]) == 0
    captured = capsys.readouterr()
    assert expected in captured.out
    assert "infmemo" not in captured.err


def test_batch_inference_memo_summary(token_hex, tmp_path, capsys):
    """Clone bytecodes: the second unit replays inference from the
    per-process memo and the --time summary shows the probes."""
    path = tmp_path / "corpus.txt"
    path.write_text(f"{token_hex}\n{token_hex}\n")
    args = ["batch", str(path), "--workers", "0",
            "--inference-memo", "--time", "--cache-dir", str(tmp_path / "cache")]
    assert main(args) == 0
    captured = capsys.readouterr()
    assert "0xa9059cbb(address,uint256)" in captured.out
    assert "infmemo" in captured.err


def test_batch_writes_no_function_memo(token_hex, tmp_path, capsys):
    """``repro batch`` keeps the function memo off: a run with a cache
    directory writes its results there and nothing under ``fnmemo``."""
    path = tmp_path / "corpus.txt"
    path.write_text(f"{token_hex}\n")
    cache_dir = tmp_path / "cache"
    assert main(["batch", str(path), "--workers", "0",
                 "--cache-dir", str(cache_dir)]) == 0
    assert "0xa9059cbb(address,uint256)" in capsys.readouterr().out
    assert list(cache_dir.glob("*/*/*.json"))
    assert not (cache_dir / "fnmemo").exists()


def test_batch_and_library_share_one_cache(tmp_path, capsys):
    """``repro batch`` builds the same tool as a default ``SigRec()``, so
    a library run over the CLI's cache directory is served from it."""
    from repro.corpus.export import load_corpus
    from repro.sigrec.api import SigRec
    from repro.sigrec.batch import BatchRecovery

    corpus = tmp_path / "corpus"
    cache_dir = str(tmp_path / "cache")
    assert main(["export-corpus", str(corpus), "--contracts", "4"]) == 0
    assert main(["batch", str(corpus), "--workers", "0",
                 "--cache-dir", cache_dir]) == 0
    capsys.readouterr()
    codes = [case.contract.bytecode for case in load_corpus(str(corpus)).cases]
    runner = BatchRecovery(tool=SigRec(), workers=0, cache_dir=cache_dir)
    runner.recover_all(codes)
    assert (runner.stats.cache_hits, runner.stats.cache_misses) == (4, 0)


def test_batch_empty_source(tmp_path):
    path = tmp_path / "empty.txt"
    path.write_text("\n")
    with pytest.raises(SystemExit):
        main(["batch", str(path)])


def test_batch_bad_hex(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("zz\n")
    with pytest.raises(SystemExit):
        main(["batch", str(path)])


def test_explain(token_hex, capsys):
    assert main(["explain", token_hex, "0xa9059cbb"]) == 0
    out = capsys.readouterr().out
    assert "call-data loads" in out
    assert "rules fired" in out
    assert "recovered: (address,uint256)" in out


def test_explain_unknown_function(token_hex, capsys):
    assert main(["explain", token_hex, "0xdeadbeef"]) == 0
    assert "not found" in capsys.readouterr().out


def test_explain_bad_function_id(token_hex):
    with pytest.raises(SystemExit):
        main(["explain", token_hex, "zz"])


def test_trace(token_hex, capsys):
    calldata = encode_call(TRANSFER.selector, list(TRANSFER.params), [0xA, 1])
    assert main(["trace", token_hex, calldata.hex()]) == 0
    out = capsys.readouterr().out
    assert "CALLDATALOAD" in out
    assert "=> success" in out


def test_trace_failing_call(token_hex, capsys):
    # 3 bytes of calldata: shorter than a selector, falls back to STOP
    # (success); a revert path needs the revert block.
    from repro.evm.asm import Assembler

    asm = Assembler()
    asm.push(0).push(0).op("REVERT")
    assert main(["trace", asm.assemble().hex(), "00"]) == 2
    assert "failed: revert" in capsys.readouterr().out


def test_export_corpus(tmp_path, capsys):
    target = str(tmp_path / "corpus")
    assert main(["export-corpus", target, "--contracts", "3"]) == 0
    out = capsys.readouterr().out
    assert "wrote 3 contracts" in out
    from repro.corpus.export import load_corpus

    corpus = load_corpus(target)
    assert len(corpus) == 3


def test_export_corpus_vyper(tmp_path):
    target = str(tmp_path / "vy")
    assert main(
        ["export-corpus", target, "--contracts", "2", "--language", "vyper"]
    ) == 0
    from repro.corpus.export import load_corpus

    assert load_corpus(target).language.value == "vyper"


def test_bad_hex_rejected():
    with pytest.raises(SystemExit):
        main(["recover", "zzzz"])


def test_recover_empty_bytecode(capsys):
    assert main(["recover", "00"]) == 1
    assert "no public/external functions" in capsys.readouterr().out


def test_lint_clean(token_hex, capsys):
    assert main(["lint", token_hex]) == 0
    out = capsys.readouterr().out
    assert "OK (0 errors" in out
    assert "selectors: 2" in out


def test_lint_json(token_hex, capsys):
    import json

    assert main(["lint", "--json", token_hex]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["ok"] is True
    assert "0xa9059cbb" in data["selectors"]


def test_lint_rejects_malformed(capsys):
    # A lone POP underflows the stack.
    assert main(["lint", "5000"]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out
    assert "stack-underflow" in out


def test_profile_text(capsys):
    from repro.compiler.contract import FunctionSpec
    from repro.compiler.storage import StorageVariableSpec

    contract = compile_contract([
        FunctionSpec(
            TRANSFER,
            storage_ops=(
                ("read", StorageVariableSpec(0, "mapping", depth=1)),
                ("write", StorageVariableSpec(1, "value")),
            ),
        ),
    ])
    assert main(["profile", contract.bytecode.hex()]) == 0
    out = capsys.readouterr().out
    assert "0xa9059cbb(address,uint256)" in out
    assert "mapping(address => uint256)" in out
    assert "lint:" in out


def test_profile_json_validates_and_is_deterministic(token_hex, capsys):
    import json
    import os

    from repro.analysis.schema import validate

    assert main(["profile", "--json", token_hex]) == 0
    first = capsys.readouterr().out
    assert main(["profile", "--json", token_hex]) == 0
    assert capsys.readouterr().out == first

    schema_path = os.path.join(
        os.path.dirname(__file__), "..", "docs", "profile.schema.json"
    )
    with open(schema_path, encoding="utf-8") as handle:
        schema = json.load(handle)
    document = json.loads(first)
    assert validate(document, schema) == []
    assert "0xa9059cbb" in {s["selector"] for s in document["signatures"]}


def test_profile_static_only_skips_recovery(token_hex, capsys):
    import json

    assert main(["profile", "--json", "--static-only", token_hex]) == 0
    document = json.loads(capsys.readouterr().out)
    assert document["signatures"] == []
    assert document["dispatcher"]["selectors"]


def test_inspect(token_hex, capsys):
    assert main(["inspect", token_hex]) == 0
    out = capsys.readouterr().out
    assert "0xa9059cbb ->" in out
    assert "closed region" in out


def test_inspect_json(token_hex, capsys):
    import json

    assert main(["inspect", "--json", token_hex]) == 0
    data = json.loads(capsys.readouterr().out)
    selectors = {f["selector"] for f in data["functions"]}
    assert "0xa9059cbb" in selectors
    assert data["incomplete"] is False
    assert all(f["region_closed"] for f in data["functions"])


def test_inspect_disasm_annotations(token_hex, capsys):
    assert main(["inspect", "--disasm", token_hex]) == 0
    out = capsys.readouterr().out
    assert "; dispatcher" in out
    assert "; entry of 0xa9059cbb" in out


def test_batch_metrics_and_trace_out(token_hex, tmp_path, capsys):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text(f"{token_hex}\n")
    metrics_path = tmp_path / "m.json"
    args = [
        "batch", str(corpus), "--workers", "0",
        "--cache-dir", str(tmp_path / "cache"),
        "--metrics-out", str(metrics_path),
    ]
    assert main(args) == 0  # cold
    assert main(args) == 0  # warm: cache hits land in the same document
    captured = capsys.readouterr()
    assert f"metrics: {metrics_path}" in captured.err

    import json

    doc = json.loads(metrics_path.read_text())
    counters = doc["counters"]
    assert counters["tase.paths"] > 0
    assert counters["cache.misses"] == 1
    assert counters["cache.hits"] == 1
    assert any(k.startswith("rules.fired{rule=") for k in counters)

    # A batch writes no trace: the ledger is its per-recovery record.
    with pytest.raises(SystemExit) as excinfo:
        main(args + ["--trace-out", str(tmp_path / "t.jsonl")])
    assert excinfo.value.code == 2
    assert not (tmp_path / "t.jsonl").exists()


def test_report_renders_metrics_document_and_trace(token_hex, tmp_path, capsys):
    from repro.obs import load_metrics, render_prometheus

    corpus = tmp_path / "corpus.txt"
    corpus.write_text(f"{token_hex}\n")
    metrics_path = tmp_path / "m.json"
    assert main([
        "batch", str(corpus), "--workers", "0",
        "--metrics-out", str(metrics_path),
    ]) == 0
    capsys.readouterr()
    assert main(["report", "--metrics", str(metrics_path)]) == 0
    out = capsys.readouterr().out
    assert "engine" in out
    assert "rules (fired" in out
    # The report reads a metrics document and a ledger, never a trace.
    with pytest.raises(SystemExit) as excinfo:
        main(["report", "--metrics", str(metrics_path), "--trace", "t.jsonl"])
    assert excinfo.value.code == 2
    capsys.readouterr()
    assert main(["report", "--metrics", str(metrics_path), "--prometheus"]) == 0
    out = capsys.readouterr().out
    assert "# TYPE tase_paths counter" in out
    assert "tase_paths " in out
    # Exactly the exposition /metrics serves for the same document.
    assert out == render_prometheus(load_metrics(str(metrics_path)))


def test_report_rejects_missing_metrics_document(tmp_path):
    with pytest.raises(SystemExit):
        main(["report", "--metrics", str(tmp_path / "absent.json")])


def test_report_prometheus_needs_metrics(tmp_path, capsys):
    with pytest.raises(SystemExit, match="--prometheus needs --metrics"):
        main(["report", "--prometheus"])


def test_stats_is_not_a_subcommand(tmp_path, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["stats", str(tmp_path / "m.json")])
    assert excinfo.value.code == 2
    assert "invalid choice: 'stats'" in capsys.readouterr().err


def test_abi_command_emits_standard_abi_json(capsys):
    import json

    from repro.compiler.contract import FunctionSpec

    contract = compile_contract([
        FunctionSpec(FunctionSignature.parse("get()"), mutability="view",
                     returns=("uint256",)),
        FunctionSpec(FunctionSignature.parse("pay(uint256)"),
                     mutability="payable"),
    ])
    assert main(["abi", contract.bytecode.hex()]) == 0
    compact = capsys.readouterr().out
    assert compact.count("\n") == 1  # one compact line
    entries = json.loads(compact)
    assert {e["stateMutability"] for e in entries} == {"view", "payable"}

    assert main(["abi", "--pretty", contract.bytecode.hex()]) == 0
    pretty = capsys.readouterr().out
    assert json.loads(pretty) == entries
    assert pretty.count("\n") > 1


def test_passes_command_lists_pipeline(capsys):
    import json

    assert main(["passes"]) == 0
    out = capsys.readouterr().out
    assert "cfg v1" in out
    assert "mutability v1 <- jumps, dispatcher, reach" in out

    assert main(["passes", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    names = [entry["name"] for entry in doc]
    assert names == [
        "cfg", "jumps", "stack", "dispatcher", "reach",
        "storage", "mutability", "returns", "lint",
    ]
    assert all(entry["version"] >= 1 for entry in doc)


def _free_port():
    import socket

    sock = socket.socket()
    sock.bind(("127.0.0.1", 0))
    port = sock.getsockname()[1]
    sock.close()
    return port


def _poll_http(url, deadline=5.0):
    import time
    import urllib.error
    import urllib.request

    end = time.monotonic() + deadline
    while True:
        try:
            with urllib.request.urlopen(url, timeout=1) as response:
                return response.status, response.read()
        except (urllib.error.URLError, ConnectionError):
            if time.monotonic() >= end:
                raise
            time.sleep(0.05)


def test_batch_observability_outputs_feed_report(token_hex, tmp_path, capsys):
    import json

    corpus = tmp_path / "corpus.txt"
    corpus.write_text(f"{token_hex}\n")
    metrics_path = tmp_path / "m.json"
    ledger_path = tmp_path / "ledger.jsonl"
    assert main([
        "batch", str(corpus), "--workers", "0",
        "--metrics-out", str(metrics_path),
        "--ledger-out", str(ledger_path),
        "--profile-hotspots",
    ]) == 0
    captured = capsys.readouterr()
    assert f"ledger: {ledger_path} (1 records)" in captured.err
    assert "hot superblocks" in captured.err

    with open(ledger_path, encoding="utf-8") as handle:
        (record,) = [json.loads(line) for line in handle if line.strip()]
    assert record["tier"] == "cold" and record["hotspots"]

    assert main([
        "report", "--metrics", str(metrics_path), "--ledger", str(ledger_path),
    ]) == 0
    out = capsys.readouterr().out
    assert "phase time attribution" in out
    assert "run ledger: 1 records" in out
    assert "hot superblocks" in out
    assert "slowest recoveries" in out

    assert main(["report", "--ledger", str(ledger_path), "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["ledger"]["records"] == 1


def test_batch_ledger_is_the_reports_only_per_recovery_source(
    token_hex, tmp_path, capsys
):
    import re

    for command, gone in (
        ("batch", ("--trace-out", "--slowlog-out", "--slowlog-k")),
        ("report", ("--trace", "--slowlog")),
    ):
        with pytest.raises(SystemExit) as excinfo:
            main([command, "--help"])
        assert excinfo.value.code == 0
        listed = set(re.findall(r"--[a-z-]+", capsys.readouterr().out))
        assert listed.isdisjoint(gone), command

    corpus = tmp_path / "corpus.txt"
    corpus.write_text(f"{token_hex}\n")
    ledger_path = tmp_path / "ledger.jsonl"
    assert main([
        "batch", str(corpus), "--workers", "0", "--unit-size", "1",
        "--ledger-out", str(ledger_path),
    ]) == 0
    capsys.readouterr()
    assert main(["report", "--ledger", str(ledger_path)]) == 0
    out = capsys.readouterr().out
    slowest = out[out.index("slowest recoveries"):].splitlines()
    # Each unit of the split contract is one ranked entry, followed by
    # its per-phase seconds.
    assert re.match(r"  [0-9a-f]{16}  job 0 unit \d+  \d+\.\d{3}s  ", slowest[1])
    assert any(re.fullmatch(r"    tase +\d+\.\d{3}s", line) for line in slowest)


def test_report_requires_a_source():
    with pytest.raises(SystemExit):
        main(["report"])


def test_serve_metrics_requires_a_source():
    with pytest.raises(SystemExit):
        main(["serve-metrics"])


def test_serve_metrics_command_serves_saved_documents(
    token_hex, tmp_path, capsys
):
    import threading

    corpus = tmp_path / "corpus.txt"
    corpus.write_text(f"{token_hex}\n")
    metrics_path = tmp_path / "m.json"
    ledger_path = tmp_path / "ledger.jsonl"
    assert main([
        "batch", str(corpus), "--workers", "0",
        "--metrics-out", str(metrics_path),
        "--ledger-out", str(ledger_path),
    ]) == 0
    capsys.readouterr()
    port = _free_port()
    thread = threading.Thread(target=main, args=([
        "serve-metrics", "--metrics", str(metrics_path),
        "--ledger", str(ledger_path), "--port", str(port), "--hold", "3",
    ],))
    thread.start()
    try:
        status, body = _poll_http(f"http://127.0.0.1:{port}/healthz")
        assert (status, body) == (200, b"ok\n")
        status, body = _poll_http(f"http://127.0.0.1:{port}/metrics")
        assert status == 200 and b"tase_paths" in body
        from repro.obs import validate_exposition

        assert validate_exposition(body.decode("utf-8")) == []
        status, body = _poll_http(f"http://127.0.0.1:{port}/ledger/summary")
        import json

        assert json.loads(body)["records"] == 1
    finally:
        thread.join()


def test_batch_serve_metrics_holds_a_live_endpoint(token_hex, tmp_path):
    import threading

    corpus = tmp_path / "corpus.txt"
    corpus.write_text(f"{token_hex}\n")
    port = _free_port()
    thread = threading.Thread(target=main, args=([
        "batch", str(corpus), "--workers", "0",
        "--serve-metrics", str(port), "--serve-hold", "3",
    ],))
    thread.start()
    try:
        # The endpoint stays up through --serve-hold after the batch, so
        # the scrape observes the completed run's counters and ledger.
        status, body = _poll_http(f"http://127.0.0.1:{port}/metrics")
        assert status == 200
        deadline = 3.0
        import json
        import time

        end = time.monotonic() + deadline
        while b"recover_calls" not in body and time.monotonic() < end:
            time.sleep(0.05)
            _status, body = _poll_http(f"http://127.0.0.1:{port}/metrics")
        assert b"recover_calls 1" in body
        _status, summary = _poll_http(
            f"http://127.0.0.1:{port}/ledger/summary"
        )
        assert json.loads(summary)["records"] == 1
    finally:
        thread.join()


def test_batch_profiles_out_writes_one_document_per_contract(
    token_hex, tmp_path, capsys
):
    import json
    import os

    corpus = tmp_path / "corpus.txt"
    corpus.write_text(f"{token_hex}\n{token_hex}\n")
    out_dir = tmp_path / "profiles"
    assert main([
        "batch", str(corpus), "--workers", "0",
        "--profiles-out", str(out_dir),
    ]) == 0
    captured = capsys.readouterr()
    assert "profiles: wrote 2" in captured.err
    assert "contract 0: " in captured.out
    names = sorted(os.listdir(out_dir))
    assert len(names) == 2
    assert names[0].startswith("0000_") and names[1].startswith("0001_")
    docs = [json.loads((out_dir / name).read_text()) for name in names]
    # Identical bytecode -> byte-identical profile documents.
    assert docs[0] == docs[1]
    assert docs[0]["profile_schema"] == 2
    assert "0xa9059cbb" in docs[0]["abi"]
