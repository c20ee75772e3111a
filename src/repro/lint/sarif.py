"""SARIF 2.1.0 rendering for CI code-scanning integration.

``python -m repro.lint --format sarif`` writes one SARIF run to
*stdout* (stderr keeps the human ``path:line:col: RULE msg`` stream as
the default), which CI uploads as an artifact / code-scanning result.
Only the small stable subset of the spec is emitted: driver + rule
metadata and one ``result`` per finding with a physical location.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Sequence

from .findings import Finding

SARIF_VERSION = "2.1.0"
_SCHEMA_URI = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)

#: One-line rule descriptions for the SARIF rule table.  Keep in sync
#: with the reference table in DESIGN.md.
RULE_DESCRIPTIONS: Dict[str, str] = {
    "DOM101": "wall-clock value reaches sim code, directly or via calls",
    "DOM102": "unseeded or process-global RNG value reaches sim code",
    "DOM103": "iteration over an unordered container into sim state",
    "DOM104": "float accumulation hazard in sim-layer reductions",
    "DOM201": "import violates the declared layering DAG",
    "DOM202": "package missing from the layering DAG",
    "DOM203": "package import cycle or transitive layering escape",
    "DOM301": "unknown telemetry event name",
    "DOM302": "telemetry emission field mismatch",
    "DOM303": "telemetry schema drifted from committed baseline",
    "DOM401": "sim-layer import of an undeclared dependency",
    "DOM501": "guarded state mutated across an await boundary",
    "DOM502": "asyncio task created and immediately discarded",
    "DOM503": "unpicklable callable handed to a process pool",
}


def render_sarif(findings: Sequence[Finding]) -> str:
    """The SARIF document (a JSON string) for ``findings``."""
    rule_ids = sorted({finding.rule for finding in findings})
    rules: List[Dict[str, Any]] = [
        {
            "id": rule_id,
            "shortDescription": {
                "text": RULE_DESCRIPTIONS.get(rule_id, rule_id),
            },
        }
        for rule_id in rule_ids
    ]
    rule_index = {rule_id: index for index, rule_id in enumerate(rule_ids)}
    results: List[Dict[str, Any]] = [
        {
            "ruleId": finding.rule,
            "ruleIndex": rule_index[finding.rule],
            "level": "error",
            "message": {"text": finding.message},
            "locations": [
                {
                    "physicalLocation": {
                        "artifactLocation": {
                            "uri": finding.path.replace("\\", "/"),
                        },
                        "region": {
                            "startLine": finding.line,
                            # SARIF columns are 1-based; findings carry
                            # the AST's 0-based col_offset.
                            "startColumn": finding.col + 1,
                        },
                    },
                },
            ],
        }
        for finding in findings
    ]
    document = {
        "$schema": _SCHEMA_URI,
        "version": SARIF_VERSION,
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "dominolint",
                        "informationUri":
                            "https://example.invalid/dominolint",
                        "rules": rules,
                    },
                },
                "results": results,
            },
        ],
    }
    return json.dumps(document, indent=2, sort_keys=True)


__all__ = ["RULE_DESCRIPTIONS", "SARIF_VERSION", "render_sarif"]
