"""Command-line interface: ``python -m repro <command>``.

Commands
--------

recover   Recover function signatures from runtime bytecode (hex).
batch     Recover many contracts (parallel workers + persistent cache);
          ``--metrics-out`` writes the metrics document, ``--ledger-out``
          one run-ledger record per recovery, ``--profile-hotspots``
          the hot-loop attribution, and ``--serve-metrics PORT``
          exposes live ``/metrics`` + ``/healthz`` + ``/ledger/summary``
          while the batch runs.
report    One document over a metrics document and a run ledger:
          phase-time attribution, engine work, rules, tier hit rates,
          hotspots and the slowest recoveries with their per-phase
          seconds and diagnostics (``--json`` for machines,
          ``--prometheus`` for the metrics text exposition).
serve-metrics
          Standalone telemetry endpoint over saved ``--metrics-out`` /
          ``--ledger-out`` documents.
ids       Extract function ids only (static scan).
disasm    Disassemble runtime bytecode.
lint      Statically verify bytecode: stack discipline, jump targets,
          dispatcher sanity (text or ``--json``).
inspect   Show the static analysis of a contract: the selector → entry
          map, per-function regions and an annotated disassembly.
profile   Emit the unified contract profile: recovered signatures,
          storage layout, dispatcher/CFG/lint facts — deterministic
          JSON with ``--json``.
abi       Emit a standard Solidity ABI JSON array recovered from the
          bytecode alone (inputs, outputs, stateMutability).
passes    List the registered analysis pipeline passes with versions
          and dependency edges (what the cache fingerprints fold in).
lift      Lift bytecode to three-address IR; ``--plus`` enhances the IR
          with recovered signatures (Erays+).
check     Validate a transaction's call data against the signatures
          recovered from the contract (ParChecker).
selector  Compute the 4-byte function id of a canonical signature.

Bytecode arguments accept a hex string (with or without ``0x``) or
``@path`` to read a hex file.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.apps.erays import Erays, EraysPlus
from repro.apps.parchecker import ParChecker
from repro.evm.disasm import disassemble, format_listing
from repro.evm.keccak import selector as compute_selector
from repro.sigrec.api import SigRec
from repro.sigrec.selectors import extract_selectors


def _read_hex(argument: str) -> bytes:
    if argument.startswith("@"):
        with open(argument[1:]) as handle:
            argument = handle.read().strip()
    argument = argument.strip()
    if argument.startswith(("0x", "0X")):
        argument = argument[2:]
    try:
        return bytes.fromhex(argument)
    except ValueError as exc:
        raise SystemExit(f"error: not valid hex bytecode: {exc}")


def _cmd_recover(args: argparse.Namespace) -> int:
    bytecode = _read_hex(args.bytecode)
    tool = SigRec()
    recovered = tool.recover(bytecode)
    if not recovered:
        print("no public/external functions found")
        return 1
    database = None
    if args.db:
        from repro.baselines.efsd import SignatureDatabase

        database = SignatureDatabase.load(args.db)
    for sig in recovered:
        line = f"{sig.selector_hex}({sig.param_list})"
        if database is not None:
            known = database.lookup(sig.selector)
            if known is not None:
                name = known[: known.index("(")]
                marker = "" if known.endswith(f"({sig.param_list})") else "  ! types differ from DB"
                line = f"{sig.selector_hex} {name}({sig.param_list}){marker}"
        if args.verbose:
            confidence = "/".join(sig.confidences) or "-"
            line += (
                f"   [{sig.language}; confidence: {confidence}; "
                f"rules: {', '.join(sig.fired_rules)}]"
            )
        print(line)
    return 0


def _read_batch_source(source: str) -> List[bytes]:
    """Bytecodes from a line-per-contract hex file or a dir of .hex files."""
    import os

    paths: List[str]
    if os.path.isdir(source):
        paths = sorted(
            os.path.join(source, name)
            for name in os.listdir(source)
            if name.endswith(".hex")
        )
        if not paths:
            raise SystemExit(f"error: no .hex files in {source}")
        return [_read_hex(f"@{path}") for path in paths]
    bytecodes: List[bytes] = []
    try:
        handle = open(source)
    except OSError as exc:
        raise SystemExit(f"error: cannot read {source}: {exc}")
    with handle:
        for line_no, line in enumerate(handle, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if line.startswith(("0x", "0X")):
                line = line[2:]
            try:
                bytecodes.append(bytes.fromhex(line))
            except ValueError as exc:
                raise SystemExit(
                    f"error: {source}:{line_no}: not valid hex bytecode: {exc}"
                )
    if not bytecodes:
        raise SystemExit(f"error: no bytecodes in {source}")
    return bytecodes


def _cmd_batch(args: argparse.Namespace) -> int:
    import os

    from repro.sigrec.batch import DEFAULT_UNIT_SIZE, BatchRecovery

    if args.cache_dir and os.path.exists(args.cache_dir) and not os.path.isdir(
        args.cache_dir
    ):
        raise SystemExit(f"error: --cache-dir {args.cache_dir} is not a directory")
    bytecodes = _read_batch_source(args.source)
    metrics = ledger = profiler = server = None
    if args.metrics_out or args.serve_metrics is not None:
        from repro.obs import MetricsRegistry

        metrics = MetricsRegistry()
    if args.ledger_out or args.serve_metrics is not None:
        from repro.obs import RunLedger

        # ``--serve-metrics`` without ``--ledger-out`` keeps the ledger
        # in memory purely for the ``/ledger/summary`` endpoint.
        ledger = RunLedger(args.ledger_out or None)
    if args.profile_hotspots:
        from repro.obs import HotLoopProfiler

        profiler = HotLoopProfiler()
    try:
        tool = SigRec(
            inference_memo=args.inference_memo,
            metrics=metrics,
            ledger=ledger,
            profiler=profiler,
        )
        runner = BatchRecovery(
            tool=tool,
            workers=args.workers,
            cache_dir=args.cache_dir,
            unit_size=(
                args.unit_size
                if args.unit_size is not None
                else DEFAULT_UNIT_SIZE
            ),
        )
        if args.serve_metrics is not None:
            from repro.obs.httpexp import TelemetryServer

            server = TelemetryServer(
                registry=metrics, ledger=ledger, port=args.serve_metrics
            ).start()
            print(f"serving telemetry on {server.url()}", file=sys.stderr)
        if args.profiles_out:
            # profile_all runs recover_all internally (cache-backed),
            # then builds one deterministic profile per input.
            profiles = runner.profile_all(bytecodes)
        else:
            profiles = None
            results = runner.recover_all(bytecodes)
        if server is not None and args.serve_hold > 0:
            import time

            print(
                f"holding the endpoint for {args.serve_hold:g}s",
                file=sys.stderr,
            )
            time.sleep(args.serve_hold)
    finally:
        if server is not None:
            server.stop()
    if profiles is not None:
        for index, profile in enumerate(profiles):
            signatures = " ".join(
                f"{fact['selector']}({','.join(fact['param_types'])})"
                for fact in profile.signatures
            )
            print(
                f"contract {index}: {signatures or '(no public functions)'}"
            )
    else:
        for index, recovered in enumerate(results):
            signatures = " ".join(
                f"{sig.selector_hex}({sig.param_list})" for sig in recovered
            )
            print(f"contract {index}: {signatures or '(no public functions)'}")
    if profiles is not None:
        os.makedirs(args.profiles_out, exist_ok=True)
        for index, profile in enumerate(profiles):
            name = f"{index:04d}_{profile.bytecode_sha256[:12]}.json"
            path = os.path.join(args.profiles_out, name)
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(profile.to_json(indent=2))
                handle.write("\n")
        print(
            f"profiles: wrote {len(profiles)} to {args.profiles_out}",
            file=sys.stderr,
        )
    if args.metrics_out:
        from repro.obs import dump_metrics

        # Merge-on-write: counters accumulate across runs (a cold run's
        # misses and the warm rerun's hits share one document); delete
        # the file to start fresh.
        dump_metrics(metrics, args.metrics_out)
        print(f"metrics: {args.metrics_out}", file=sys.stderr)
    if args.ledger_out:
        print(
            f"ledger: {args.ledger_out} ({ledger.written} records)",
            file=sys.stderr,
        )
    if profiler is not None:
        sys.stderr.write(profiler.render_table())
    if args.time:
        print(f"batch: {runner.stats.summary()}", file=sys.stderr)
    return 0


def _cmd_serve_metrics(args: argparse.Namespace) -> int:
    """Standalone telemetry endpoint over saved documents."""
    from repro.obs.httpexp import TelemetryServer

    if not args.metrics and not args.ledger:
        raise SystemExit("error: need --metrics and/or --ledger to serve")
    server = TelemetryServer(
        metrics_path=args.metrics,
        ledger_path=args.ledger,
        host=args.host,
        port=args.port,
    )
    print(f"serving telemetry on {server.url()}", file=sys.stderr)
    if args.hold is not None:
        import time

        server.start()
        time.sleep(args.hold)
        server.stop()
        return 0
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        server.stop()
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    """One document over a run's metrics document and run ledger."""
    import json

    from repro.obs import load_metrics, read_ledger, render_prometheus
    from repro.obs.report import build_report, render_report

    metrics_doc = ledger_records = None
    if args.metrics:
        metrics_doc = load_metrics(args.metrics)
        if metrics_doc is None:
            raise SystemExit(
                f"error: {args.metrics} is not a metrics document"
            )
    if args.prometheus:
        if metrics_doc is None:
            raise SystemExit("error: --prometheus needs --metrics")
        sys.stdout.write(render_prometheus(metrics_doc))
        return 0
    if args.ledger:
        ledger_records = read_ledger(args.ledger)
    if metrics_doc is None and ledger_records is None:
        raise SystemExit(
            "error: nothing to report — give --metrics and/or --ledger"
        )
    report = build_report(
        metrics_doc=metrics_doc, ledger_records=ledger_records, top=args.top
    )
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        sys.stdout.write(render_report(report, top=args.top))
    return 0


def _cmd_ids(args: argparse.Namespace) -> int:
    bytecode = _read_hex(args.bytecode)
    for selector_value in extract_selectors(bytecode):
        print(f"0x{selector_value:08x}")
    return 0


def _cmd_disasm(args: argparse.Namespace) -> int:
    print(format_listing(disassemble(_read_hex(args.bytecode))))
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.analysis import lint_bytecode

    report = lint_bytecode(_read_hex(args.bytecode))
    if args.json:
        import json

        print(json.dumps(report.to_dict(), indent=2))
    else:
        print(report.render_text())
    return 0 if report.ok else 1


def _cmd_inspect(args: argparse.Namespace) -> int:
    from repro.analysis import analyze

    bytecode = _read_hex(args.bytecode)
    analysis = analyze(bytecode)
    cfg = analysis.cfg
    functions = analysis.reach.functions
    if args.json:
        import json

        payload = {
            "blocks": len(cfg.blocks),
            "incomplete": cfg.incomplete,
            "functions": [
                {
                    "selector": f"0x{sel:08x}",
                    "entry": functions[sel].entry,
                    "region_blocks": len(functions[sel].blocks),
                    "region_closed": functions[sel].complete,
                }
                for sel in analysis.selectors
            ],
            "dispatcher_blocks": sorted(analysis.dispatcher.dispatcher_blocks),
            "unreachable_blocks": sorted(analysis.reach.unreachable),
            "silent_halt_blocks": sorted(analysis.silent_halt_blocks),
            "findings": [
                {
                    "kind": f.kind,
                    "pc": f.pc,
                    "severity": f.severity,
                    "detail": f.detail,
                }
                for f in analysis.findings
            ],
        }
        print(json.dumps(payload, indent=2))
        return 0
    print(
        f"{len(cfg.blocks)} blocks, {len(analysis.selectors)} functions, "
        f"{len(cfg.resolved_targets)} resolved jumps, "
        f"{len(cfg.unresolved_jumps)} unresolved"
    )
    for sel in analysis.selectors:
        function = functions[sel]
        closed = "closed" if function.complete else "open"
        print(
            f"  0x{sel:08x} -> {function.entry:#06x}  "
            f"({len(function.blocks)} reachable blocks, {closed} region)"
        )
    for finding in analysis.findings:
        print(finding.render())
    if args.disasm:
        annotations = {}
        for start in analysis.dispatcher.dispatcher_blocks:
            annotations[start] = "dispatcher"
        for start in analysis.reach.unreachable:
            annotations[start] = "unreachable"
        for start in analysis.silent_halt_blocks:
            annotations[start] = "silent halt"
        for sel, entry in analysis.dispatcher.entries.items():
            annotations[entry] = f"entry of 0x{sel:08x}"
        print(format_listing(disassemble(bytecode), annotations=annotations))
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    """Emit the unified contract profile (signatures + storage + facts)."""
    bytecode = _read_hex(args.bytecode)
    tool = SigRec()
    if args.static_only:
        profile = tool.profile(bytecode, signatures=[])
    else:
        profile = tool.profile(bytecode)
    if args.json:
        # ``to_json`` is the canonical deterministic rendering: sorted
        # keys, no timestamps — byte-identical across runs and machines.
        print(profile.to_json(indent=2))
    else:
        print(profile.render_text())
    return 0


def _cmd_abi(args: argparse.Namespace) -> int:
    """Emit a standard Solidity ABI JSON array from bytecode alone."""
    import json

    bytecode = _read_hex(args.bytecode)
    tool = SigRec()
    entries = tool.abi(bytecode)
    if args.pretty:
        print(json.dumps(entries, indent=2, sort_keys=True))
    else:
        print(json.dumps(entries, sort_keys=True, separators=(",", ":")))
    return 0


def _cmd_passes(args: argparse.Namespace) -> int:
    """List the registered pipeline passes, versions, and edges."""
    from repro.analysis import default_pipeline

    pipeline = default_pipeline()
    if args.json:
        import json

        payload = [
            {
                "name": pass_.name,
                "version": pass_.version,
                "requires": list(pass_.requires),
            }
            for pass_ in pipeline
        ]
        print(json.dumps(payload, indent=2))
        return 0
    for pass_ in pipeline:
        edges = " <- " + ", ".join(pass_.requires) if pass_.requires else ""
        print(f"{pass_.name} v{pass_.version}{edges}")
    return 0


def _cmd_lift(args: argparse.Namespace) -> int:
    bytecode = _read_hex(args.bytecode)
    if args.structured:
        from repro.apps.structurer import Structurer

        print(Structurer().structure(bytecode).render())
        return 0
    if args.plus:
        recovered = SigRec().recover(bytecode)
        result = EraysPlus(recovered).enhance(bytecode)
        print(result.text)
        print(
            f"\n; erays+: {result.added_types} types, "
            f"{result.added_param_names} names, "
            f"{result.added_num_names} num names, "
            f"{result.removed_lines} lines removed",
            file=sys.stderr,
        )
    else:
        print(Erays().lift(bytecode, fold=args.fold).render())
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    bytecode = _read_hex(args.bytecode)
    calldata = _read_hex(args.calldata)
    recovered = SigRec().recover_map(bytecode)
    checker = ParChecker({s: r.param_list for s, r in recovered.items()})
    result = checker.check(calldata)
    if result.short_address_attack:
        print("INVALID: short address attack detected")
    elif not result.valid:
        print("INVALID: " + "; ".join(result.issues))
    elif not result.known_function:
        print("unknown function id (cannot validate)")
    else:
        print("valid")
    return 0 if result.valid else 2


def _cmd_selector(args: argparse.Namespace) -> int:
    print("0x" + compute_selector(args.signature).hex())
    return 0


def _cmd_decode(args: argparse.Namespace) -> int:
    """Decode a transaction's arguments using recovered signatures."""
    from repro.abi.codec import AbiCodecError, decode
    from repro.abi.types import parse_type
    from repro.apps.parchecker import _split_top

    bytecode = _read_hex(args.bytecode)
    calldata = _read_hex(args.calldata)
    if len(calldata) < 4:
        raise SystemExit("error: call data shorter than a function id")
    selector_value = int.from_bytes(calldata[:4], "big")
    recovered = SigRec().recover_map(bytecode)
    signature = recovered.get(selector_value)
    if signature is None:
        print(f"0x{selector_value:08x}: unknown function")
        return 1
    if not signature.param_types:
        print(f"0x{selector_value:08x}()")
        return 0
    types = [parse_type(t) for t in _split_top(signature.param_list)]
    try:
        values = decode(types, calldata[4:], strict=False)
    except AbiCodecError as exc:
        print(f"0x{selector_value:08x}: cannot decode arguments: {exc}")
        return 2
    rendered = ", ".join(
        f"{t.canonical()}={_render_value(t, v)}" for t, v in zip(types, values)
    )
    print(f"0x{selector_value:08x}({rendered})")
    return 0


def _render_value(abi_type, value) -> str:
    canonical = abi_type.canonical()
    if canonical == "address":
        return f"0x{value:040x}"
    if isinstance(value, (bytes, bytearray)):
        return "0x" + bytes(value).hex()
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_render_plain(v) for v in value) + "]"
    return _render_plain(value)


def _render_plain(value) -> str:
    if isinstance(value, (bytes, bytearray)):
        return "0x" + bytes(value).hex()
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_render_plain(v) for v in value) + "]"
    if isinstance(value, str):
        return repr(value)
    return str(value)


def _cmd_trace(args: argparse.Namespace) -> int:
    """Step-trace one message call."""
    from repro.evm.tracer import Tracer

    bytecode = _read_hex(args.bytecode)
    calldata = _read_hex(args.calldata)
    trace = Tracer(bytecode).trace(calldata)
    print(trace.render(limit=args.limit))
    return 0 if trace.result and trace.result.success else 2


def _cmd_export_corpus(args: argparse.Namespace) -> int:
    """Generate and export a ground-truth benchmark corpus to disk."""
    from repro.corpus.datasets import (
        build_open_source_corpus,
        build_vyper_corpus,
    )
    from repro.corpus.export import export_corpus

    if args.language == "vyper":
        corpus = build_vyper_corpus(n_contracts=args.contracts, seed=args.seed)
    else:
        corpus = build_open_source_corpus(
            n_contracts=args.contracts, seed=args.seed,
            quirk_rate=args.quirk_rate,
        )
    manifest = export_corpus(corpus, args.directory)
    print(
        f"wrote {len(corpus)} contracts "
        f"({corpus.function_count} functions) to {args.directory}"
    )
    print(f"manifest: {manifest}")
    return 0


def _cmd_explain(args: argparse.Namespace) -> int:
    bytecode = _read_hex(args.bytecode)
    selector_text = args.function_id.lower()
    if selector_text.startswith("0x"):
        selector_text = selector_text[2:]
    try:
        selector_value = int(selector_text, 16)
    except ValueError:
        raise SystemExit(f"error: not a function id: {args.function_id}")
    print(SigRec().explain(bytecode, selector_value))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SigRec: recover function signatures from EVM bytecode",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("recover", help="recover function signatures")
    p.add_argument("bytecode", help="hex bytecode or @file")
    p.add_argument("-v", "--verbose", action="store_true",
                   help="show language and fired rules")
    p.add_argument("--db", metavar="FILE",
                   help="signature database (JSON) for name resolution")
    p.set_defaults(func=_cmd_recover)

    p = sub.add_parser(
        "batch", help="recover many contracts (parallel + cached)"
    )
    p.add_argument(
        "source",
        help="file with one hex bytecode per line, or a directory of .hex files",
    )
    p.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="process-pool size (default: all cores; 0 = serial)",
    )
    p.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="persistent result cache directory (repeat runs skip analysis)",
    )
    p.add_argument(
        "--time", action="store_true",
        help="print contracts/s, unique ratio, cache hit-rate and workers",
    )
    p.add_argument(
        "--metrics-out", default=None, metavar="FILE",
        help="write (merge-accumulate) the metrics JSON document to FILE",
    )
    p.add_argument(
        "--unit-size", type=int, default=None, metavar="K",
        help="selectors per scheduler unit before a contract splits "
        "into several work-stealing units (0 = never split)",
    )
    p.add_argument(
        "--inference-memo", dest="inference_memo",
        action="store_true", default=False,
        help="enable the inference-memo tier (event-digest keyed; off by "
        "default because the digest costs more than it saves on typical "
        "corpora)",
    )
    p.add_argument(
        "--profiles-out", default=None, metavar="DIR",
        help="write one contract-profile JSON per input to DIR",
    )
    p.add_argument(
        "--ledger-out", default=None, metavar="FILE",
        help="append one run-ledger JSONL record per recovery to FILE",
    )
    p.add_argument(
        "--profile-hotspots", action="store_true", default=False,
        help="attribute TASE steps to superblock entry pcs",
    )
    p.add_argument(
        "--serve-metrics", type=int, default=None, metavar="PORT",
        help="serve live /metrics, /healthz and /ledger/summary on PORT "
        "(0 = ephemeral) while the batch runs",
    )
    p.add_argument(
        "--serve-hold", type=float, default=0.0, metavar="SECONDS",
        help="keep the --serve-metrics endpoint up SECONDS after the "
        "batch finishes (for scrapers)",
    )
    p.set_defaults(func=_cmd_batch)

    p = sub.add_parser(
        "report",
        help="phase attribution, engine work, rules, tier hit rates, "
        "hotspots and slowest recoveries in one document",
    )
    p.add_argument("--metrics", default=None, metavar="FILE",
                   help="metrics JSON written by batch --metrics-out")
    p.add_argument("--ledger", default=None, metavar="FILE",
                   help="run-ledger JSONL written by batch --ledger-out")
    p.add_argument("--json", action="store_true",
                   help="machine-readable report document")
    p.add_argument("--top", type=int, default=10,
                   help="rows per ranking section")
    p.add_argument("--prometheus", action="store_true",
                   help="emit the Prometheus text exposition of --metrics "
                   "instead")
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser(
        "serve-metrics",
        help="standalone /metrics + /healthz + /ledger/summary endpoint "
        "over saved telemetry documents",
    )
    p.add_argument("--metrics", default=None, metavar="FILE",
                   help="metrics JSON to expose (re-read per scrape)")
    p.add_argument("--ledger", default=None, metavar="FILE",
                   help="run-ledger JSONL to summarize (re-read per scrape)")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=9464)
    p.add_argument("--hold", type=float, default=None, metavar="SECONDS",
                   help="serve for SECONDS then exit (default: run forever)")
    p.set_defaults(func=_cmd_serve_metrics)

    p = sub.add_parser("ids", help="extract function ids only")
    p.add_argument("bytecode")
    p.set_defaults(func=_cmd_ids)

    p = sub.add_parser("disasm", help="disassemble bytecode")
    p.add_argument("bytecode")
    p.set_defaults(func=_cmd_disasm)

    p = sub.add_parser(
        "lint", help="statically verify bytecode (stack + jump discipline)"
    )
    p.add_argument("bytecode")
    p.add_argument("--json", action="store_true",
                   help="machine-readable report")
    p.set_defaults(func=_cmd_lint)

    p = sub.add_parser(
        "inspect", help="show the static analysis of a contract"
    )
    p.add_argument("bytecode")
    p.add_argument("--json", action="store_true",
                   help="machine-readable report")
    p.add_argument("--disasm", action="store_true",
                   help="append an annotated disassembly listing")
    p.set_defaults(func=_cmd_inspect)

    p = sub.add_parser(
        "profile",
        help="unified contract profile: signatures + storage layout + "
        "dispatcher/CFG/lint facts",
    )
    p.add_argument("bytecode")
    p.add_argument("--json", action="store_true",
                   help="deterministic JSON document (sorted keys)")
    p.add_argument("--static-only", action="store_true",
                   help="skip signature recovery (static facts only)")
    p.set_defaults(func=_cmd_profile)

    p = sub.add_parser(
        "abi",
        help="standard Solidity ABI JSON recovered from bytecode alone",
    )
    p.add_argument("bytecode")
    p.add_argument("--pretty", action="store_true",
                   help="indented JSON instead of one compact line")
    p.set_defaults(func=_cmd_abi)

    p = sub.add_parser(
        "passes",
        help="list analysis pipeline passes, versions, dependency edges",
    )
    p.add_argument("--json", action="store_true",
                   help="machine-readable list")
    p.set_defaults(func=_cmd_passes)

    p = sub.add_parser("lift", help="lift bytecode to three-address IR")
    p.add_argument("bytecode")
    p.add_argument("--plus", action="store_true",
                   help="enhance with recovered signatures (Erays+)")
    p.add_argument("--structured", action="store_true",
                   help="recover while/if structure instead of flat blocks")
    p.add_argument("--fold", action="store_true",
                   help="inline single-use pure definitions")
    p.set_defaults(func=_cmd_lift)

    p = sub.add_parser("check", help="validate call data (ParChecker)")
    p.add_argument("bytecode", help="the callee contract's bytecode")
    p.add_argument("calldata", help="the transaction's call data")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("selector", help="function id of a signature")
    p.add_argument("signature", help='e.g. "transfer(address,uint256)"')
    p.set_defaults(func=_cmd_selector)

    p = sub.add_parser(
        "explain", help="show the evidence behind one function's recovery"
    )
    p.add_argument("bytecode")
    p.add_argument("function_id", help="e.g. 0xa9059cbb")
    p.set_defaults(func=_cmd_explain)

    p = sub.add_parser(
        "decode", help="decode a transaction's arguments via recovery"
    )
    p.add_argument("bytecode", help="the callee contract's bytecode")
    p.add_argument("calldata", help="the transaction's call data")
    p.set_defaults(func=_cmd_decode)

    p = sub.add_parser("trace", help="step-trace one message call")
    p.add_argument("bytecode")
    p.add_argument("calldata")
    p.add_argument("--limit", type=int, default=200,
                   help="max steps to print")
    p.set_defaults(func=_cmd_trace)

    p = sub.add_parser(
        "export-corpus", help="write a ground-truth benchmark corpus to disk"
    )
    p.add_argument("directory")
    p.add_argument("--contracts", type=int, default=50)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--quirk-rate", type=float, default=0.02)
    p.add_argument("--language", choices=["solidity", "vyper"],
                   default="solidity")
    p.set_defaults(func=_cmd_export_corpus)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
