"""Finding records and ``# dominolint: disable=...`` suppressions."""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, FrozenSet, List

#: Inline escape hatch: ``# dominolint: disable=DOM104`` (comma lists
#: and ``disable=all`` accepted).  Matched per source line, so the
#: comment must sit on the line the finding points at.
_DISABLE_RE = re.compile(r"#\s*dominolint:\s*disable=([A-Za-z0-9_,\s]+)")


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation, ordered for stable output."""

    path: str
    line: int
    col: int
    rule: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"


class Suppressions:
    """Per-line suppressed rule sets for one source file."""

    def __init__(self, source: str):
        self._by_line: Dict[int, FrozenSet[str]] = {}
        for lineno, text in enumerate(source.splitlines(), start=1):
            match = _DISABLE_RE.search(text)
            if match is None:
                continue
            rules = frozenset(
                part.strip().upper()
                for part in match.group(1).split(",")
                if part.strip()
            )
            if rules:
                self._by_line[lineno] = rules

    def allows(self, finding: Finding) -> bool:
        """``True`` if ``finding`` survives (is *not* suppressed)."""
        rules = self._by_line.get(finding.line)
        if rules is None:
            return True
        return finding.rule not in rules and "ALL" not in rules

    def filter(self, findings: List[Finding]) -> List[Finding]:
        return [f for f in findings if self.allows(f)]
