"""Pinned products of every analysis pass.

One sha256 per contract set over the products of all nine default
passes: the resolved CFG tables, every dispatcher-report field, stack
heights and findings, the storage layout, reachability, mutability,
return shapes and lint findings.  A reimplementation of any pass (or of
the abstract-interpretation core under them) must leave these digests
unchanged; a deliberate semantic change bumps the pass version and
re-pins here.
"""

import hashlib
import random

import pytest

from repro.analysis.framework import DEFAULT_PIPELINE
from repro.corpus.datasets import (
    build_abi_corpus,
    build_closed_source_corpus,
    build_storage_corpus,
)
from tests.analysis.test_dataflow import _ci_sample, _codegen_variants


def _storage_corpus():
    return [case.contract.bytecode for case in build_storage_corpus(40, seed=21).cases]


def _abi_corpus():
    return [case.contract.bytecode for case in build_abi_corpus(40, seed=23).cases]


def _mutated():
    """Compiled contracts with three random byte writes each."""
    rng = random.Random(1234)
    codes = []
    for case in build_closed_source_corpus(n_contracts=100, seed=2).cases:
        b = bytearray(case.contract.bytecode)
        for _ in range(3):
            b[rng.randrange(len(b))] = rng.randrange(256)
        codes.append(bytes(b))
    return codes


def _sorted_sets(mapping):
    return sorted((key, sorted(values)) for key, values in mapping.items())


def _products(code):
    """Every default-pipeline product of ``code`` as a canonical tuple."""
    ctx = DEFAULT_PIPELINE.run(code)
    rcfg = ctx["jumps"]
    dispatcher = ctx["dispatcher"]
    stack = ctx["stack"]
    storage = ctx["storage"]
    reach = ctx["reach"]
    return (
        sorted(rcfg.blocks),
        _sorted_sets(rcfg.successors),
        _sorted_sets(rcfg.resolved_targets),
        _sorted_sets(rcfg.invalid_targets),
        sorted(rcfg.unresolved_jumps),
        rcfg.incomplete,
        dispatcher.selectors,
        sorted(dispatcher.entries.items()),
        sorted(dispatcher.dispatcher_blocks),
        _sorted_sets(reach.regions),
        sorted(reach.unreachable),
        dispatcher.findings,
        sorted(stack.entry_heights.items()),
        stack.findings,
        storage.variables,
        storage.accesses,
        storage.unresolved,
        sorted(
            (selector, f.entry, sorted(f.blocks), sorted(f.ops), f.complete)
            for selector, f in reach.functions.items()
        ),
        reach.incomplete,
        sorted(ctx["mutability"].functions.items()),
        sorted(ctx["returns"].functions.items()),
        ctx["lint"],
    )


def _digest(codes):
    digest = hashlib.sha256()
    for code in codes:
        digest.update(repr(_products(code)).encode())
    return digest.hexdigest()


@pytest.mark.parametrize(
    "corpus,count,expected",
    [
        (_ci_sample, 45,
         "c24f7bde2327e1921d3acb8804e11330721f1a6fbbcdcda946601b9dbafcfc58"),
        (_codegen_variants, 13,
         "70fe602c6f18512e583eebacd73cbdc9f1ee44f0f7b61604250aeca207874ee1"),
        (_storage_corpus, 40,
         "8b6fbde89066e8cd0694babbcc73456e1e0eb7f0a3cfb644ac25a65fe8b25e0e"),
        (_abi_corpus, 40,
         "8f8cc087a0dbc2875b873055fd3386a8952923353365219e501694023d7f39cf"),
        (_mutated, 100,
         "77e5f376c7d0f2eb446daa840d59c6e9280099c74dccd40909599c002220225d"),
    ],
    ids=["ci-sample", "codegen-variants", "storage-corpus", "abi-corpus",
         "mutated"],
)
def test_pass_products_are_pinned(corpus, count, expected):
    codes = corpus()
    assert len(codes) == count
    assert _digest(codes) == expected
