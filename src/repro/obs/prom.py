"""Prometheus text-exposition rendering of a metrics document.

The future service layer scrapes ``/metrics``; this helper turns a
:class:`~repro.obs.metrics.MetricsRegistry` (or its serialized
document) into the ``text/plain; version=0.0.4`` exposition format:
dots in metric names become underscores, labels render as
``name{label="value"}``, and histograms expand into the conventional
cumulative ``_bucket{le=...}`` / ``_sum`` / ``_count`` series.
"""

from __future__ import annotations

import math
import re
from typing import Dict, List, Mapping, Tuple, Union

from repro.obs.metrics import MetricsRegistry, parse_key

_NAME_SAFE = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_:")


def _prom_name(name: str) -> str:
    out = "".join(ch if ch in _NAME_SAFE else "_" for ch in name)
    if out and out[0].isdigit():
        out = "_" + out
    return out


def _escape_label_value(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _prom_labels(labels: Mapping[str, str], extra: str = "") -> str:
    parts = [
        f'{_prom_name(k)}="{_escape_label_value(str(v))}"'
        for k, v in sorted(labels.items())
    ]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


def _format_value(value: float) -> str:
    if isinstance(value, float):
        # Non-finite floats must use the exposition spellings — and the
        # ``int(value)`` probe below would raise on them anyway.
        if math.isnan(value):
            return "NaN"
        if math.isinf(value):
            return "+Inf" if value > 0 else "-Inf"
        if value == int(value):
            return str(int(value))
    return repr(value)


def render_prometheus(source: Union[MetricsRegistry, Mapping]) -> str:
    """The exposition text for a registry or a metrics document."""
    doc = source.to_dict() if isinstance(source, MetricsRegistry) else source
    lines = []
    typed = set()

    def type_line(name: str, kind: str) -> None:
        if name not in typed:
            typed.add(name)
            lines.append(f"# TYPE {name} {kind}")

    for key, value in doc.get("counters", {}).items():
        name, labels = parse_key(key)
        name = _prom_name(name)
        type_line(name, "counter")
        lines.append(f"{name}{_prom_labels(labels)} {_format_value(value)}")
    for key, payload in doc.get("histograms", {}).items():
        name, labels = parse_key(key)
        name = _prom_name(name)
        type_line(name, "histogram")
        cumulative = 0
        for bound, count in zip(payload["bounds"], payload["counts"]):
            cumulative += count
            label_text = _prom_labels(labels, extra=f'le="{bound}"')
            lines.append(f"{name}_bucket{label_text} {cumulative}")
        label_text = _prom_labels(labels, extra='le="+Inf"')
        lines.append(f"{name}_bucket{label_text} {payload['count']}")
        lines.append(
            f"{name}_sum{_prom_labels(labels)} {_format_value(payload['sum'])}"
        )
        lines.append(f"{name}_count{_prom_labels(labels)} {payload['count']}")
    return "\n".join(lines) + ("\n" if lines else "")


# ----------------------------------------------------------------------
# Exposition validation (CI endpoint smoke + tests)
# ----------------------------------------------------------------------

_METRIC_NAME_RE = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*\Z")
_LABEL_NAME_RE = re.compile(r"[a-zA-Z_][a-zA-Z0-9_]*\Z")
_TYPE_KINDS = frozenset(
    ("counter", "gauge", "histogram", "summary", "untyped")
)


def _parse_label_block(line: str, start: int) -> Tuple[Dict[str, str], int]:
    """Parse ``{a="b",...}`` beginning at ``line[start] == '{'``.

    Returns the label dict and the index just past the closing brace;
    raises ValueError on malformed syntax.  Handles the three escapes
    the renderer emits (backslash, quote, newline).
    """
    labels: Dict[str, str] = {}
    i = start + 1
    if i < len(line) and line[i] == "}":
        return labels, i + 1
    while True:
        eq = line.find("=", i)
        if eq == -1:
            raise ValueError("label without '='")
        name = line[i:eq]
        if not _LABEL_NAME_RE.match(name):
            raise ValueError(f"bad label name {name!r}")
        if eq + 1 >= len(line) or line[eq + 1] != '"':
            raise ValueError(f"label {name!r} value is not quoted")
        i = eq + 2
        chars: List[str] = []
        while True:
            if i >= len(line):
                raise ValueError(f"label {name!r} value is unterminated")
            ch = line[i]
            if ch == "\\":
                if i + 1 >= len(line):
                    raise ValueError("dangling escape in label value")
                chars.append(line[i + 1])
                i += 2
                continue
            if ch == '"':
                i += 1
                break
            chars.append(ch)
            i += 1
        labels[name] = "".join(chars)
        if i < len(line) and line[i] == ",":
            i += 1
            continue
        if i < len(line) and line[i] == "}":
            return labels, i + 1
        raise ValueError("label block not closed with '}'")


def _parse_sample(line: str) -> Tuple[str, Dict[str, str], float]:
    """One sample line -> ``(name, labels, value)``; raises ValueError."""
    brace = line.find("{")
    space = line.find(" ")
    if brace != -1 and (space == -1 or brace < space):
        name = line[:brace]
        labels, end = _parse_label_block(line, brace)
        rest = line[end:]
    else:
        name, _, rest = line.partition(" ")
        labels = {}
    fields = rest.split()
    if not fields or len(fields) > 2:  # optional trailing timestamp
        raise ValueError("expected 'value [timestamp]' after the name")
    return name, labels, float(fields[0])


def validate_exposition(text: str) -> List[str]:
    """Structural checks over a text exposition; returns error strings.

    Validates what a scraper would choke on: metric/label name
    charsets, parseable sample values, and — for ``_bucket`` series —
    that cumulative counts are monotone in ``le`` and agree with the
    ``_count`` sample.  An empty list means the exposition parses.
    """
    errors: List[str] = []
    buckets: Dict[Tuple[str, Tuple[Tuple[str, str], ...]],
                  List[Tuple[float, float]]] = {}
    counts: Dict[Tuple[str, Tuple[Tuple[str, str], ...]], float] = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        if line.startswith("#"):
            parts = line.split()
            if len(parts) >= 2 and parts[1] == "TYPE":
                if len(parts) != 4:
                    errors.append(f"line {lineno}: malformed TYPE comment")
                    continue
                if not _METRIC_NAME_RE.match(parts[2]):
                    errors.append(
                        f"line {lineno}: bad metric name {parts[2]!r}"
                    )
                if parts[3] not in _TYPE_KINDS:
                    errors.append(
                        f"line {lineno}: unknown metric type {parts[3]!r}"
                    )
            continue
        try:
            name, labels, value = _parse_sample(line)
        except ValueError as exc:
            errors.append(f"line {lineno}: {exc}")
            continue
        if not _METRIC_NAME_RE.match(name):
            errors.append(f"line {lineno}: bad metric name {name!r}")
            continue
        if name.endswith("_bucket"):
            if "le" not in labels:
                errors.append(
                    f"line {lineno}: bucket sample without an 'le' label"
                )
                continue
            le_text = labels.pop("le")
            try:
                le = float(le_text)
            except ValueError:
                errors.append(f"line {lineno}: bad le bound {le_text!r}")
                continue
            family = (name[: -len("_bucket")],
                      tuple(sorted(labels.items())))
            buckets.setdefault(family, []).append((le, value))
        elif name.endswith("_count"):
            counts[(name[: -len("_count")],
                    tuple(sorted(labels.items())))] = value
    for (base, labels), series in sorted(buckets.items()):
        ordered = sorted(series, key=lambda pair: pair[0])
        label_note = (
            "{" + ",".join(f"{k}={v}" for k, v in labels) + "}"
            if labels else ""
        )
        previous = None
        for le, value in ordered:
            if previous is not None and value < previous:
                errors.append(
                    f"{base}{label_note}: bucket counts not cumulative "
                    f"(le={le:g} has {value:g} < {previous:g})"
                )
            previous = value
        if ordered and ordered[-1][0] != float("inf"):
            errors.append(f"{base}{label_note}: no le=\"+Inf\" bucket")
        total = counts.get((base, labels))
        if total is not None and ordered and ordered[-1][1] != total:
            errors.append(
                f"{base}{label_note}: +Inf bucket {ordered[-1][1]:g} "
                f"!= _count {total:g}"
            )
    return errors
