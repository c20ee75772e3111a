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

#: One-line rule descriptions for the SARIF rule table: the "fires
#: when" column of DESIGN.md's rule reference, without code marks.
RULE_DESCRIPTIONS: Dict[str, str] = {
    "DOM101": "wall-clock value reaches a sim package (import, direct "
              "read, or call hops)",
    "DOM102": "unseeded / process-global RNG value reaches a sim package "
              "(import, direct call, or call hops)",
    "DOM103": "iterating a syntactically set-typed expression",
    "DOM104": "==/!= between float timestamps",
    "DOM201": "import edge absent from the layers DAG",
    "DOM202": "module's package not declared in the layers table",
    "DOM301": "emission of an unknown event kind",
    "DOM302": "emission arity/field mismatch against the registry",
    "DOM303": "event registry drifted from the committed baseline",
    "DOM401": "sim-core import outside the declared dependency list",
    "DOM501": "guarded-state mutation across an await boundary",
    "DOM502": "fire-and-forget create_task/ensure_future",
    "DOM503": "lambda / nested fn / bound method handed to a process pool",
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
