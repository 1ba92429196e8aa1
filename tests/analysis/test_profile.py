"""Contract profiles: determinism, round-trips, schema validation."""

import json
import os

import pytest

from repro.abi.signature import FunctionSignature, Language
from repro.analysis import analyze
from repro.analysis.report import (
    PROFILE_SCHEMA_VERSION,
    ContractProfile,
    build_profile,
    profile_bytecode,
)
from repro.analysis.schema import SchemaError, validate, validate_or_raise
from repro.compiler import CodegenOptions, compile_contract
from repro.corpus.datasets import (
    build_abi_corpus,
    build_clone_corpus,
    build_open_source_corpus,
)
from repro.sigrec.api import SigRec
from repro.sigrec.batch import BatchRecovery

SCHEMA_PATH = os.path.join(
    os.path.dirname(__file__), "..", "..", "docs", "profile.schema.json"
)


def _schema():
    with open(SCHEMA_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def _code(signature="transfer(address,uint256)", **options):
    return compile_contract(
        [FunctionSignature.parse(signature)], CodegenOptions(**options)
    ).bytecode


def _variant_bytecodes():
    """A spread of codegen shapes: eras, languages, obfuscation, clones."""
    out = [
        _code(),
        _code("f(uint8,bytes)", version="0.5.5", optimize=True),
        _code("g(int128)", language=Language.SOLIDITY, obfuscate=True),
    ]
    out.extend(
        case.contract.bytecode
        for case in build_clone_corpus(
            n_families=3, clones_per_family=2, seed=11, storage_rate=1.0
        ).cases
    )
    out.extend(
        case.contract.bytecode
        for case in build_open_source_corpus(n_contracts=4, seed=1).cases
    )
    out.extend(
        case.contract.bytecode
        for case in build_abi_corpus(n_contracts=4, seed=23).cases
    )
    return out


def test_profile_round_trips_exactly():
    profile = SigRec().profile(_code())
    clone = ContractProfile.from_dict(profile.to_dict())
    assert clone == profile
    assert clone.to_json() == profile.to_json()


def test_profile_repeated_runs_byte_identical():
    for code in _variant_bytecodes():
        first = SigRec().profile(code).to_json()
        again = SigRec().profile(code).to_json()
        assert first == again


def test_profile_serial_vs_workers_byte_identical(tmp_path):
    bytecodes = _variant_bytecodes()
    serial = BatchRecovery(tool=SigRec(), workers=0).profile_all(bytecodes)
    parallel = BatchRecovery(tool=SigRec(), workers=4).profile_all(bytecodes)
    assert [p.to_json() for p in serial] == [p.to_json() for p in parallel]

    # And through the persistent cache: the rehydrated document renders
    # byte-identically to the freshly built one.
    cold = BatchRecovery(
        tool=SigRec(), workers=0, cache_dir=str(tmp_path)
    ).profile_all(bytecodes)
    warm = BatchRecovery(
        tool=SigRec(), workers=0, cache_dir=str(tmp_path)
    ).profile_all(bytecodes)
    assert [p.to_json() for p in cold] == [p.to_json() for p in serial]
    assert [p.to_json() for p in warm] == [p.to_json() for p in serial]


def test_every_profile_validates_against_checked_in_schema():
    schema = _schema()
    tool = SigRec()
    for code in _variant_bytecodes():
        document = tool.profile(code).to_dict()
        assert validate(document, schema) == []


def test_profile_carries_signatures_and_storage():
    corpus = build_clone_corpus(
        n_families=2, clones_per_family=1, seed=11, storage_rate=1.0
    )
    case = corpus.cases[0]
    profile = SigRec().profile(case.contract.bytecode)
    assert profile.to_dict()["profile_schema"] == PROFILE_SCHEMA_VERSION
    selectors = {s["selector"] for s in profile.signatures}
    declared = {
        "0x" + sig.selector.hex() for sig in case.contract.signatures
    }
    assert selectors == declared
    assert profile.storage["variables"]
    assert profile.passes  # the pass-version provenance


def test_static_only_profile_skips_recovery():
    profile = SigRec().profile(_code(), signatures=[])
    assert profile.signatures == ()
    assert profile.dispatcher["selectors"]  # static facts still present


def test_profile_computes_each_selector_region_once(monkeypatch):
    from repro.analysis.dataflow import ResolvedCFG

    starts = []
    reachable_from = ResolvedCFG.reachable_from

    def counting(self, start):
        starts.append(start)
        return reachable_from(self, start)

    monkeypatch.setattr(ResolvedCFG, "reachable_from", counting)
    signatures = ("a(uint8)", "b(bool)", "c(address)", "d(uint256)")
    code = compile_contract([FunctionSignature.parse(s) for s in signatures])
    profile = SigRec().profile(code.bytecode)
    assert len(profile.signatures) == len(signatures)
    # One walk per selector region, plus one from the entry for the
    # unreachable blocks; storage attribution reuses the reach regions.
    assert len(starts) == len(signatures) + 1


def test_profile_bytecode_helper_matches_build_profile():
    code = _code()
    helper = profile_bytecode(code)
    direct = build_profile(analyze(code), ())
    assert helper.to_json() == direct.to_json()


def test_render_text_mentions_sections():
    text = SigRec().profile(_code()).render_text()
    for fragment in ("contract", "functions", "storage", "lint"):
        assert fragment in text


# -- the subset schema validator ----------------------------------------


def test_validator_rejects_unknown_keyword():
    with pytest.raises(SchemaError, match="oneOf"):
        validate({}, {"oneOf": []})


def test_validator_type_and_required():
    schema = {
        "type": "object",
        "required": ["a"],
        "properties": {"a": {"type": "integer", "minimum": 2}},
        "additionalProperties": False,
    }
    assert validate({"a": 3}, schema) == []
    assert any("missing required" in e for e in validate({}, schema))
    assert any("minimum" in e for e in validate({"a": 1}, schema))
    assert any("unexpected" in e for e in validate({"a": 3, "b": 1}, schema))
    # bool is not a JSON integer even though Python says isinstance.
    assert any("expected integer" in e for e in validate({"a": True}, schema))


def test_validator_enum_pattern_const_items():
    schema = {
        "type": "array",
        "items": {"type": "string", "pattern": "^0x[0-9a-f]{2}$"},
    }
    assert validate(["0xab"], schema) == []
    assert any("does not match" in e for e in validate(["zz"], schema))
    assert any("enum" in e for e in validate("c", {"enum": ["a", "b"]}))
    assert validate(1, {"const": 1}) == []
    assert any("const" in e for e in validate(2, {"const": 1}))


def test_validator_pattern_properties():
    schema = {
        "type": "object",
        "patternProperties": {"^[a-z]+$": {"type": "integer"}},
        "additionalProperties": False,
    }
    assert validate({"abc": 1}, schema) == []
    assert any("unexpected" in e for e in validate({"ABC": 1}, schema))
    assert any(
        "expected integer" in e for e in validate({"abc": "x"}, schema)
    )


def test_validate_or_raise_lists_all_violations():
    schema = {
        "type": "object",
        "required": ["a", "b"],
        "additionalProperties": False,
    }
    with pytest.raises(ValueError, match="2 schema violation"):
        validate_or_raise({}, schema)


def test_checked_in_schema_stays_within_validator_subset():
    # The CI smoke step depends on the validator understanding every
    # keyword the schema uses; an unsupported keyword must surface as a
    # SchemaError here, not silently validate in CI.
    validate({}, _schema())
