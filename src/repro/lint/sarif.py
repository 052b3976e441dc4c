"""SARIF 2.1.0 export and fingerprint baselines for lint reports.

Two CI-oriented facilities on top of :class:`~repro.lint.LintReport`:

* :func:`to_sarif` converts reports into one SARIF run consumable by
  code-review tooling (GitHub code scanning, VS Code SARIF viewers).
* Fingerprint baselines let a gate fail only on *new* findings: each
  finding gets a stable content fingerprint (:func:`fingerprint`) that
  survives unrelated line-number drift; ``sslint --write-baseline``
  records the current set and ``sslint --baseline`` suppresses every
  finding already recorded, so a legacy codebase can adopt a new rule
  without first fixing (or annotating) every historical hit.

The fingerprint deliberately drops the line number from source
locations: inserting a docstring above an offending call must not make
the finding "new".  It keeps the message, which for config rules
carries the offending value -- changing a value to a different broken
value is a new finding, which is the desired behavior.

Findings from the graph and partition layers that carry no source
location are fingerprinted differently (v2): their material is just
``rule_id|subject|config_path``, dropping the message.  Those messages
quote quantities derived from the whole constructed network or manifest
(cut counts, shard weights, lookahead values) that legitimately drift
as the planner or topology parameters evolve; a baseline should pin
"this config has a P003 at partition.lookahead", not the exact numbers
of one planner version.

Shard-layer (S-rule) findings always fingerprint as
``rule_id|subject|config_path`` -- even though they carry a source
location -- because their ``config_path`` holds the evidence chain
(``Class:entry->...->method``).  That triple is the identity of the
hazard; messages, severities and line numbers evolve with the analyzer
and the configuration, and a baseline must survive that evolution.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, Iterable, List, Optional

from repro.lint.findings import Finding, LintReport, Severity
from repro.lint.rules import rule_catalog

SARIF_VERSION = "2.1.0"
SARIF_SCHEMA = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemas/sarif-schema-2.1.0.json"
)
FINGERPRINT_KEY = "sslintFingerprint/v2"
BASELINE_VERSION = 1

#: Layers whose location-less findings fingerprint without the message
#: (their messages quote network-derived quantities that drift).
_CONTENT_FREE_LAYERS = {"graph", "partition"}

#: SARIF result levels for our severities (INFO maps to "note").
_LEVELS = {
    Severity.ERROR: "error",
    Severity.WARNING: "warning",
    Severity.INFO: "note",
}


def _split_location(location: Optional[str]):
    """Split ``file.py:12`` into (uri, line); line is None otherwise."""
    if not location:
        return None, None
    uri, _, tail = location.rpartition(":")
    if uri and tail.isdigit():
        return uri, int(tail)
    return location, None


_layer_cache: dict = {}


def _rule_layer(rule_id: str) -> str:
    """The layer of ``rule_id`` (memoized; '' for unknown rules)."""
    if not _layer_cache:
        for known, info in rule_catalog().items():
            _layer_cache[known] = info["layer"]
    return _layer_cache.get(rule_id, "")


def fingerprint(finding: Finding, subject: Optional[str] = None) -> str:
    """A stable content hash of a finding, insensitive to line drift.

    Location-less graph/partition findings hash without the message so
    the fingerprint survives planner/topology evolution; shard-layer
    findings hash rule|subject|evidence-chain regardless of location
    (see module docstring).
    """
    layer = _rule_layer(finding.rule_id)
    uri, _line = _split_location(finding.location)
    if layer == "shard" or (
            uri is None and layer in _CONTENT_FREE_LAYERS):
        material = "|".join([
            finding.rule_id,
            subject or "",
            finding.config_path or "",
        ])
    else:
        material = "|".join([
            finding.rule_id,
            subject or "",
            finding.config_path or "",
            uri or "",
            finding.message,
        ])
    return hashlib.sha1(material.encode("utf-8")).hexdigest()


def to_sarif(reports: Iterable[LintReport]) -> Dict[str, Any]:
    """Render lint reports as a single-run SARIF 2.1.0 log."""
    catalog = rule_catalog()
    results: List[Dict[str, Any]] = []
    used_rules: List[str] = []
    for report in reports:
        for finding in report.sorted_findings():
            if finding.rule_id not in used_rules:
                used_rules.append(finding.rule_id)
            result: Dict[str, Any] = {
                "ruleId": finding.rule_id,
                "level": _LEVELS[finding.severity],
                "message": {"text": finding.message},
                "partialFingerprints": {
                    FINGERPRINT_KEY: fingerprint(finding, report.subject),
                },
            }
            uri, line = _split_location(finding.location)
            if uri is not None:
                physical: Dict[str, Any] = {
                    "artifactLocation": {"uri": uri},
                }
                if line is not None:
                    physical["region"] = {"startLine": line}
                result["locations"] = [{"physicalLocation": physical}]
            elif finding.config_path is not None:
                result["locations"] = [{
                    "logicalLocations": [{
                        "fullyQualifiedName": finding.config_path,
                        "kind": "member",
                    }],
                }]
            properties: Dict[str, Any] = {}
            if report.subject:
                properties["subject"] = report.subject
            if finding.suggestion:
                properties["suggestion"] = finding.suggestion
            if properties:
                result["properties"] = properties
            results.append(result)
    rules = [
        {
            "id": rule_id,
            "shortDescription": {
                "text": catalog[rule_id]["description"],
            },
            "properties": {"layer": catalog[rule_id]["layer"]},
        }
        for rule_id in sorted(used_rules)
        if rule_id in catalog
    ]
    return {
        "$schema": SARIF_SCHEMA,
        "version": SARIF_VERSION,
        "runs": [{
            "tool": {
                "driver": {
                    "name": "sslint",
                    "informationUri": "docs/LINTING.md",
                    "rules": rules,
                },
            },
            "results": results,
        }],
    }


def write_baseline(path: str, reports: Iterable[LintReport]) -> int:
    """Record every current finding's fingerprint; returns the count."""
    prints = sorted({
        fingerprint(finding, report.subject)
        for report in reports
        for finding in report.findings
    })
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(
            {"version": BASELINE_VERSION, "fingerprints": prints},
            handle,
            indent=2,
        )
        handle.write("\n")
    return len(prints)


def load_baseline(path: str) -> frozenset:
    """Load a baseline file written by :func:`write_baseline`."""
    with open(path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    if not isinstance(data, dict) or "fingerprints" not in data:
        raise ValueError(
            f"{path} is not an sslint baseline (expected a JSON object "
            "with a 'fingerprints' list)"
        )
    return frozenset(data["fingerprints"])


def apply_baseline(
    reports: Iterable[LintReport], baseline: frozenset
) -> List[LintReport]:
    """Drop findings whose fingerprint appears in the baseline.

    Returns new reports (the inputs are untouched) carrying only the
    findings a CI gate should still care about.
    """
    filtered: List[LintReport] = []
    for report in reports:
        kept = LintReport(subject=report.subject)
        kept.extend(
            finding
            for finding in report.findings
            if fingerprint(finding, report.subject) not in baseline
        )
        filtered.append(kept)
    return filtered
