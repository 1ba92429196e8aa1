"""Shared fixtures for the experiment benchmarks.

Corpora are built once per session; each benchmark file regenerates one
table or figure of the paper's evaluation and records a
paper-vs-measured comparison under ``benchmarks/results/``.
"""

import json
import os
from typing import Callable, List, Mapping

import pytest

from repro.baselines import build_efsd
from repro.corpus.datasets import (
    build_closed_source_corpus,
    build_open_source_corpus,
    build_struct_nested_corpus,
    build_synthesized_dataset,
    build_vyper_corpus,
)
from repro.corpus.evaluate import evaluate_corpus
from repro.sigrec.api import SigRec

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")

# Machine-readable throughput baseline at the repo root: CI uploads it
# as an artifact so regressions are diffable across runs.
BENCH_JSON = os.path.join(os.path.dirname(os.path.dirname(__file__)),
                          "BENCH_throughput.json")


@pytest.fixture(scope="session")
def open_corpus():
    """Dataset 3: the ground-truth "open-source" corpus."""
    return build_open_source_corpus(n_contracts=320, seed=1)


@pytest.fixture(scope="session")
def closed_corpus():
    """Dataset 1: the "closed-source" corpus."""
    return build_closed_source_corpus(n_contracts=200, seed=2)


@pytest.fixture(scope="session")
def dataset2():
    """Dataset 2: 1,000 synthesized functions (fresh, not in any DB)."""
    return build_synthesized_dataset(n_functions=1000, seed=3)


@pytest.fixture(scope="session")
def vyper_corpus():
    return build_vyper_corpus(n_contracts=120, seed=4)


@pytest.fixture(scope="session")
def struct_corpus():
    return build_struct_nested_corpus(n_contracts=150, seed=5)


@pytest.fixture(scope="session")
def efsd(open_corpus, closed_corpus):
    """EFSD covers about half of published signatures (the paper finds
    >49% of open-source signatures missing)."""
    return build_efsd([open_corpus, closed_corpus], coverage=0.5, seed=99)


@pytest.fixture(scope="session")
def tool_databases(open_corpus, closed_corpus, efsd):
    """Per-tool databases: the real OSD/EBD/JEB ship different (and
    differently stale) databases, which is where the paper's per-tool
    spread comes from."""
    corpora = [open_corpus, closed_corpus]
    return {
        "OSD": efsd,  # OSD queries EFSD directly
        "EBD": build_efsd(corpora, coverage=0.38, seed=101),
        "JEB": build_efsd(corpora, coverage=0.27, seed=103),
    }


@pytest.fixture(scope="session")
def open_report(open_corpus):
    """SigRec evaluated once over the open-source corpus."""
    return evaluate_corpus(open_corpus, SigRec())


@pytest.fixture(scope="session")
def sigrec_tool():
    return SigRec()


@pytest.fixture()
def record() -> Callable[[str, List[str]], None]:
    """Write one experiment's paper-vs-measured rows to results/."""

    def _record(name: str, lines: List[str]) -> None:
        os.makedirs(RESULTS_DIR, exist_ok=True)
        path = os.path.join(RESULTS_DIR, f"{name}.txt")
        text = "\n".join(lines) + "\n"
        with open(path, "w") as handle:
            handle.write(text)
        print(f"\n[{name}]")
        print(text)

    return _record


@pytest.fixture()
def bench_json() -> Callable[[str, Mapping], None]:
    """Merge one benchmark's numbers into ``BENCH_throughput.json``.

    Payloads merge *within* their top-level section (several tests may
    contribute keys to one section); a partial benchmark invocation
    never clobbers the other sections' numbers.
    """

    def _bench_json(section: str, payload: Mapping) -> None:
        doc = {"schema": "sigrec-bench:v1"}
        if os.path.exists(BENCH_JSON):
            try:
                with open(BENCH_JSON, encoding="utf-8") as handle:
                    existing = json.load(handle)
                if isinstance(existing, dict):
                    doc.update(existing)
            except (OSError, ValueError):
                pass
        doc["schema"] = "sigrec-bench:v1"
        merged = doc.get(section)
        merged = dict(merged) if isinstance(merged, dict) else {}
        merged.update(payload)
        doc[section] = merged
        tmp = BENCH_JSON + ".tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(doc, handle, indent=2, sort_keys=True)
            handle.write("\n")
        os.replace(tmp, BENCH_JSON)
        print(f"\n[BENCH_throughput.json <- {section}]")

    return _bench_json
