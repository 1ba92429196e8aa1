"""Content-addressed caches: one store behind all three caching tiers.

At chain scale the corpus barely changes between runs (the paper's 37M
deployed contracts collapse to 368,679 unique bytecodes, and redeploys
are rare), and distinct bytecodes overwhelmingly share function bodies.
So recovery caches at three tiers, each a :class:`ContentStore`:

* :class:`ResultCache` — whole-contract results, keyed by the SHA-256
  of the runtime bytecode (the same code deployed at a thousand
  addresses is one entry), disk only;
* :class:`FunctionMemo` — one function's inference, keyed by the bytes
  that provably determine it (the dispatcher spine + closed region
  preimage from ``ContractAnalysis.function_preimage``, which includes
  the selector), so a clone-heavy corpus pays for each shared body once;
* :class:`InferenceMemo` — one function's inference, keyed by the
  canonical, selector-independent digest of its TASE event stream
  (:func:`repro.sigrec.events.events_digest`): TASE still runs, but
  functions whose event streams normalize identically share one
  inference, even across unrelated contracts.

Every key folds in a fingerprint of the engine options and the schema
versions (:func:`options_fingerprint`), so results under different
options never mix.  Entries are one JSON file each, laid out as::

    <directory>/<prefix><options fingerprint>/<key[:2]>/<key>.json

with prefix ``""`` for the result cache, ``fn-`` for the function memo
and ``inf-`` for the inference memo, so the tiers can share one
directory (both memos share ``memo_dir``) and an ``rm -rf`` of one
subtree drops exactly one tier of one configuration.  Every entry carries the rule-usage counts of the work it
saved, so a replay reproduces the Fig.-19 statistics of a cold run.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.analysis.framework import pass_versions
from repro.obs.metrics import NULL_REGISTRY, MetricsRegistry
from repro.sigrec.api import RecoveredSignature

#: Bump to invalidate every existing cache entry (serialization layout
#: or inference-rule changes).
SCHEMA_VERSION = 1

#: Schema of the inference-memo tier (the canonical event digest, the
#: :class:`InferenceRecord` layout, and the replay semantics).  Folded
#: into :func:`options_fingerprint`, so a bump relocates *every* tier —
#: the function memo and result cache store inference products too.
INFERENCE_MEMO_SCHEMA_VERSION = 1


def options_fingerprint(options: Dict[str, object]) -> str:
    """A short stable digest of the engine/inference options.

    The *per-pass* analysis schema versions are part of the payload:
    what an analysis pass *means* changes the shard plan, the
    function-memo preimages and the cross-check, so bumping any single
    pass version (:func:`repro.analysis.framework.pass_versions`) lands
    cached results — and every function-memo entry, which shares this
    fingerprint — in a fresh tree.  The inference-memo schema version
    rides along for the same reason: changing the event digest or the
    replay format must invalidate every caching tier at once.
    """
    payload = json.dumps(
        {
            "schema": SCHEMA_VERSION,
            "analysis_schema": pass_versions(),
            "inference_memo_schema": INFERENCE_MEMO_SCHEMA_VERSION,
            "options": options,
        },
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def _counts(value) -> Dict[str, int]:
    """A stored rule -> count object; any other shape is a bad entry."""
    if not isinstance(value, dict):
        raise TypeError("expected a JSON object")
    return {str(rule): int(count) for rule, count in value.items()}


@dataclass(frozen=True)
class InferenceRecord:
    """One memoized inference product, minus the selector.

    Both memos store it: the function-memo key already encodes the
    selector and the inference-memo key is selector-independent, so the
    selector is supplied at replay time by :meth:`to_signature`.  The
    rule and conflict counts let a replay reproduce the Fig.-19
    counters exactly.
    """

    param_types: Tuple[str, ...]
    language: str
    fired_rules: Tuple[str, ...]
    confidences: Tuple[str, ...]  # "high" / "medium" / "low" per param
    rule_counts: Dict[str, int]
    conflicts: Dict[str, int]

    def to_signature(
        self, selector: int, elapsed_seconds: float = 0.0
    ) -> RecoveredSignature:
        # A replay does no inference work, so it reports 0.0 seconds
        # rather than the original run's timing.
        return RecoveredSignature(
            selector=selector,
            param_types=tuple(self.param_types),
            language=self.language,
            elapsed_seconds=elapsed_seconds,
            fired_rules=tuple(self.fired_rules),
            confidences=tuple(self.confidences),
        )

    @classmethod
    def from_inference(
        cls,
        param_types,
        language: str,
        fired_rules,
        confidences,
        rule_counts: Dict[str, int],
        conflicts: Dict[str, int],
    ) -> "InferenceRecord":
        return cls(
            param_types=tuple(param_types),
            language=str(language),
            fired_rules=tuple(fired_rules),
            confidences=tuple(confidences),
            rule_counts={r: c for r, c in rule_counts.items() if c},
            conflicts={r: c for r, c in conflicts.items() if c},
        )

    def to_dict(self) -> dict:
        return {
            "param_types": list(self.param_types),
            "language": self.language,
            "fired_rules": list(self.fired_rules),
            "confidences": list(self.confidences),
            "rule_counts": {r: c for r, c in self.rule_counts.items() if c},
            "conflicts": {r: c for r, c in self.conflicts.items() if c},
        }

    @classmethod
    def from_dict(cls, data: dict) -> "InferenceRecord":
        return cls(
            param_types=tuple(str(t) for t in data["param_types"]),
            language=str(data["language"]),
            fired_rules=tuple(str(r) for r in data["fired_rules"]),
            confidences=tuple(str(c) for c in data["confidences"]),
            rule_counts=_counts(data.get("rule_counts", {})),
            conflicts=_counts(data.get("conflicts", {})),
        )


class LRU:
    """A bounded map evicting the least recently used key.

    Values must not be ``None`` (that is how :meth:`get` reports a
    miss); capacity 0 holds nothing.
    """

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self._items: "OrderedDict[object, object]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._items)

    def get(self, key):
        value = self._items.get(key)
        if value is not None:
            self._items.move_to_end(key)
        return value

    def put(self, key, value) -> None:
        items = self._items
        items[key] = value
        items.move_to_end(key)
        while len(items) > self.capacity:
            items.popitem(last=False)


def _memo_series(name: str) -> Dict[str, Tuple[str, Dict[str, str]]]:
    """The ``<name>.*`` metric series of a two-tier memo."""
    return {
        "memory": (f"{name}.hits", {"tier": "memory"}),
        "disk": (f"{name}.hits", {"tier": "disk"}),
        "miss": (f"{name}.misses", {}),
        "write": (f"{name}.writes", {}),
    }


class ContentStore:
    """An in-process LRU over an optional atomic disk tier.

    Subclasses differ only in :attr:`prefix` (their disk subtree),
    :attr:`series` (their metrics) and codec (:meth:`_encode` /
    :meth:`_decode`; :class:`InferenceRecord` unless overridden).
    ``capacity`` 0 makes the store disk-only; ``directory`` ``None``
    makes it memory-only.  Disk writes are atomic (tmp + rename), so
    concurrent writers are safe, and each entry is stamped with the
    schema version and options fingerprint: a corrupt, stale or
    mis-shaped entry is treated as a miss, never an error.
    """

    #: Disk subtree: ``<directory>/<prefix><fingerprint>/``.
    prefix = ""
    #: Probe event -> (counter name, labels); unlisted events are not
    #: published.  Events: "memory"/"disk" hits, "miss", "stale" (a
    #: present entry that failed validation, also a miss) and "write".
    series: Dict[str, Tuple[str, Dict[str, str]]] = {}

    def __init__(
        self,
        options: Dict[str, object],
        directory: Optional[str] = None,
        capacity: int = 65536,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.options = dict(options)
        self.fingerprint = options_fingerprint(self.options)
        self.directory = directory
        self.metrics = metrics if metrics is not None else NULL_REGISTRY
        self._memory = LRU(capacity)
        self.hits_memory = 0
        self.hits_disk = 0
        self.misses = 0
        #: Misses caused by a *present but invalid* entry (stale schema
        #: or fingerprint, corrupt JSON, wrong shape) rather than absence.
        self.invalidations = 0
        self.writes = 0

    def key_for(self, data: bytes) -> str:
        """The key for the bytes that determine a stored value."""
        digest = hashlib.sha256()
        digest.update(self.fingerprint.encode("ascii"))
        digest.update(b"\x00")
        digest.update(data)
        return digest.hexdigest()

    def get(self, key):
        """The value stored under ``key``, or ``None`` on a miss."""
        value = self._memory.get(key)
        if value is not None:
            self.hits_memory += 1
            self._count("memory")
            return value
        found = self._read(key)
        if found:
            value = found[1]
            self._memory.put(key, value)
            self.hits_disk += 1
            self._count("disk")
            return value
        self.misses += 1
        self._count("miss")
        if found is False:
            self.invalidations += 1
            self._count("stale")
        return None

    def put(self, key, value) -> None:
        self._memory.put(key, value)
        self._write(key, value)

    # ------------------------------------------------------------------

    def _entry_path(self, key: str) -> str:
        assert self.directory is not None
        return os.path.join(
            self.directory,
            f"{self.prefix}{self.fingerprint}",
            key[:2],
            f"{key}.json",
        )

    def _read(self, key):
        """The one entry reader: ``(entry, decoded value)`` for ``key``.

        ``None`` when there is no disk entry, ``False`` when there is
        one but it is not a JSON object stamped with this schema and
        fingerprint whose payload decodes.
        """
        if self.directory is None:
            return None
        try:
            handle = open(self._entry_path(key), "r", encoding="utf-8")
        except OSError:
            return None
        try:
            with handle:
                entry = json.load(handle)
            if (
                not isinstance(entry, dict)
                or entry.get("schema") != SCHEMA_VERSION
                or entry.get("fingerprint") != self.fingerprint
            ):
                return False
            return entry, self._decode(entry)
        except (OSError, ValueError, KeyError, TypeError, OverflowError):
            return False

    def _write(self, key, value) -> None:
        """Count one write and, with a disk tier, store ``value``'s entry
        atomically (tmp + rename): the one writer."""
        if self.directory is not None:
            path = self._entry_path(key)
            os.makedirs(os.path.dirname(path), exist_ok=True)
            entry = {
                "schema": SCHEMA_VERSION,
                "fingerprint": self.fingerprint,
                **self._encode(value),
            }
            fd, tmp_path = tempfile.mkstemp(
                dir=os.path.dirname(path), suffix=".tmp"
            )
            try:
                with os.fdopen(fd, "w", encoding="utf-8") as handle:
                    json.dump(entry, handle)
                os.replace(tmp_path, path)
            except BaseException:
                try:
                    os.unlink(tmp_path)
                except OSError:
                    pass
                raise
        self.writes += 1
        self._count("write")

    def _count(self, event: str) -> None:
        series = self.series.get(event)
        if series is not None and self.metrics is not NULL_REGISTRY:
            self.metrics.counter(series[0], **series[1]).inc()

    def _encode(self, value) -> dict:
        return value.to_dict()

    def _decode(self, entry: dict):
        return InferenceRecord.from_dict(entry)

    # ------------------------------------------------------------------

    @property
    def hits(self) -> int:
        return self.hits_memory + self.hits_disk

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


def _signature_to_dict(sig: RecoveredSignature) -> dict:
    return {
        "selector": sig.selector,
        "param_types": list(sig.param_types),
        "language": sig.language,
        "elapsed_seconds": sig.elapsed_seconds,
        "fired_rules": list(sig.fired_rules),
        "confidences": list(sig.confidences),
    }


def _signature_from_dict(data: dict) -> RecoveredSignature:
    # ``elapsed_seconds`` is deliberately NOT replayed: a cache hit does
    # no inference work, so reporting the original run's timing would
    # corrupt warm-run timing statistics.  The stored value (the cost of
    # the original analysis) stays on disk for forensics.
    return RecoveredSignature(
        selector=data["selector"],
        param_types=tuple(data["param_types"]),
        language=data["language"],
        elapsed_seconds=0.0,
        fired_rules=tuple(data["fired_rules"]),
        confidences=tuple(data["confidences"]),
    )


class ResultCache(ContentStore):
    """On-disk cache of per-bytecode recovery results.

    Keys are the bytecodes themselves (entries are named by their
    SHA-256); ``get`` returns ``(signatures, rule counts)``.  An entry
    may also carry the contract's profile document.
    """

    series = {
        "disk": ("cache.hits", {}),
        "miss": ("cache.misses", {}),
        "stale": ("cache.invalidations", {}),
        "write": ("cache.writes", {}),
    }

    def __init__(
        self,
        directory: str,
        options: Dict[str, object],
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        super().__init__(options, directory, capacity=0, metrics=metrics)

    def put(
        self,
        bytecode: bytes,
        signatures: List[RecoveredSignature],
        rule_counts: Dict[str, int],
        profile: Optional[dict] = None,
    ) -> None:
        entry = {
            "options": self.options,
            "signatures": [_signature_to_dict(s) for s in signatures],
            # Only non-zero counters are stored; zeros are implied.
            "rule_counts": {r: c for r, c in rule_counts.items() if c},
        }
        if profile is not None:
            entry["profile"] = profile
        self._write(bytecode, entry)

    def attach_profile(self, bytecode: bytes, profile: dict) -> bool:
        """Add a profile document to an existing entry, atomically.

        Rewrites the entry file with the profile attached, preserving
        every other field (including the original elapsed timings).
        Returns False when there is no valid entry to attach to — the
        caller should ``put`` a full entry instead.
        """
        found = self._read(bytecode)
        if not found:
            return False
        self._write(bytecode, {**found[0], "profile": profile})
        return True

    def get_profile(self, bytecode: bytes) -> Optional[dict]:
        """The cached contract-profile document, or ``None``.

        Profiles ride in the same entry file as the signatures; an
        entry written before profiling has none, and a stale/corrupt
        entry reads as absent.
        """
        found = self._read(bytecode)
        profile = found[0].get("profile") if found else None
        return profile if isinstance(profile, dict) else None

    def entry_count(self) -> int:
        """Entries on disk for this fingerprint (walks the tree)."""
        root = os.path.join(self.directory, self.fingerprint)
        count = 0
        for _dirpath, _dirnames, filenames in os.walk(root):
            count += sum(1 for f in filenames if f.endswith(".json"))
        return count

    def _entry_path(self, bytecode: bytes) -> str:
        return super()._entry_path(hashlib.sha256(bytecode).hexdigest())

    def _encode(self, entry: dict) -> dict:
        return entry  # ``put`` and ``attach_profile`` build the entry

    def _decode(self, entry: dict):
        return (
            [_signature_from_dict(d) for d in entry["signatures"]],
            _counts(entry.get("rule_counts", {})),
        )


class FunctionMemo(ContentStore):
    """The function-body memo: :class:`InferenceRecord` per region
    preimage (:meth:`key_for`), under ``<directory>/fn-<fingerprint>/``."""

    prefix = "fn-"
    series = _memo_series("memo")


class InferenceMemo(ContentStore):
    """The inference memo: :class:`InferenceRecord` per canonical event
    digest, under ``<directory>/inf-<fingerprint>/``; published as
    ``infmemo.*`` so the function memo's ``memo.*`` series stay
    comparable across versions."""

    prefix = "inf-"
    series = _memo_series("infmemo")

    def key_for(self, events_digest: str) -> str:
        """The memo key for one canonical event-stream digest."""
        return super().key_for(events_digest.encode("ascii"))
