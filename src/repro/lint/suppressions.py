"""Inline suppression comments: ``# reprolint: allow[RL001] reason=...``.

A suppression silences named rules on its own line; a comment that stands
alone on a line also covers the next line (for statements too long to carry
a trailing comment).  A reason is mandatory — an ``allow`` without
``reason=`` is itself reported (as RL000) so the escape hatch always leaves
a paper trail.

The same comment channel carries the fixture helper
``# reprolint: module=repro.x.y`` which overrides path-based module
resolution (see :func:`repro.lint.core.module_name_for`).
"""

from __future__ import annotations

import io
import re
import tokenize
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

_DIRECTIVE = re.compile(r"#\s*reprolint:\s*(?P<body>.*)$")
_ALLOW = re.compile(r"allow\[(?P<rules>[A-Z0-9,\s]*)\]")
_REASON = re.compile(r"reason=(?P<reason>.+)$")
_MODULE = re.compile(r"module=(?P<module>[A-Za-z_][\w.]*)")
_RULE_ID = re.compile(r"^RL\d{3}$")


@dataclass
class Suppression:
    """One parsed ``# reprolint:`` directive."""

    line: int
    rules: Tuple[str, ...] = ()
    reason: str = ""
    module_override: str = ""
    malformed: List[str] = field(default_factory=list)

    def allows(self, rule_id: str) -> bool:
        return bool(self.reason) and rule_id in self.rules

    def problems(self) -> List[str]:
        out = list(self.malformed)
        if self.rules and not self.reason:
            out.append(
                "suppression is missing its mandatory reason= "
                f"(allow[{','.join(self.rules)}] reason=<why this is safe>)"
            )
        return out


def _parse_directive(body: str, line: int) -> Suppression:
    supp = Suppression(line=line)
    module = _MODULE.search(body)
    if module:
        supp.module_override = module.group("module")
        return supp
    allow = _ALLOW.search(body)
    if allow is None:
        supp.malformed.append(
            "unrecognised reprolint directive "
            f"{body.strip()!r} (expected allow[RLxxx] reason=... "
            "or module=<dotted.name>)"
        )
        return supp
    rules = tuple(
        token.strip() for token in allow.group("rules").split(",") if token.strip()
    )
    bad = [rule for rule in rules if not _RULE_ID.match(rule)]
    if bad or not rules:
        supp.malformed.append(
            f"allow[...] lists invalid rule id(s) {bad or ['<empty>']}"
        )
    supp.rules = rules
    reason = _REASON.search(body)
    if reason:
        supp.reason = reason.group("reason").strip()
    return supp


def _comment_tokens(source: str):
    """(line, col, text) for every real COMMENT token in ``source``.

    Tokenizing (rather than regex over raw lines) keeps directives inside
    string literals and docstrings — e.g. documentation *about* the
    suppression syntax — from being parsed as directives.
    """
    try:
        for token in tokenize.generate_tokens(io.StringIO(source).readline):
            if token.type == tokenize.COMMENT:
                yield token.start[0], token.start[1], token.string
    except (tokenize.TokenError, IndentationError, SyntaxError):
        return


def parse_suppressions(source: str) -> Dict[int, List[Suppression]]:
    """Map line number -> suppressions active on that line."""
    by_line: Dict[int, List[Suppression]] = {}
    for lineno, col, text in _comment_tokens(source):
        match = _DIRECTIVE.search(text)
        if match is None:
            continue
        supp = _parse_directive(match.group("body"), lineno)
        by_line.setdefault(lineno, []).append(supp)
        if col == 0 or source.splitlines()[lineno - 1][:col].strip() == "":
            # Standalone comment: also covers the following line.
            by_line.setdefault(lineno + 1, []).append(supp)
    return by_line
