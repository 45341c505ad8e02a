"""Findings: the analyzer's diagnostic vocabulary and report container.

Both passes — the static ``System.MP`` call-site checker and the runtime
sanitizer — speak in :class:`Finding` records tagged with a rule ID from
:data:`RULES`.  A :class:`Report` collects, deduplicates, and renders
them (text and JSON), so the CLI, the tests, and the bench integration
all consume one shape.

Rule ID scheme: ``MA-S**`` are static (assembly-walk) rules, ``MA-R**``
are runtime (sanitizer) rules.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace

from repro.il.verifier import Diagnostic

#: Severity levels, in increasing order of gravity.
SEV_INFO = "info"
SEV_WARNING = "warning"
SEV_ERROR = "error"

_SEV_ORDER = {SEV_INFO: 0, SEV_WARNING: 1, SEV_ERROR: 2}


@dataclass(frozen=True)
class Rule:
    """One analyzer rule: an ID, a default severity, and a summary."""

    id: str
    severity: str
    title: str
    description: str


def _rules(*rules: Rule) -> dict[str, Rule]:
    return {r.id: r for r in rules}


RULES: dict[str, Rule] = _rules(
    # ---- call-site rules (repro.analyze.rankflow) -------------------------
    Rule(
        "MA-S00",
        SEV_ERROR,
        "IL verification failure",
        "The method failed baseline IL verification (stack/type discipline); "
        "the MP call-site checks did not run for it.",
    ),
    Rule(
        "MA-S01",
        SEV_ERROR,
        "reference-bearing object in raw transfer",
        "A class with reference fields reaches a raw MP.Send/Recv buffer "
        "argument; the binding will raise ObjectModelViolation at run time. "
        "Use the O-prefixed object transport (MP.OSend/MP.ORecv) instead.",
    ),
    Rule(
        "MA-S02",
        SEV_ERROR,
        "MP call-signature mismatch",
        "An MP.* callintern site disagrees with the declared call-signature "
        "table (arity, return use, or argument kind).",
    ),
    Rule(
        "MA-S03",
        SEV_WARNING,
        "send with no matching receive",
        "A statically resolvable send has no receive anywhere in the "
        "assembly with a compatible tag (and peer, when a world size is "
        "given); the send can never be consumed.",
    ),
    Rule(
        "MA-S04",
        SEV_ERROR,
        "unknown MP internal",
        "A callintern names an MP.* internal that does not exist in the "
        "System.MP surface.",
    ),
    # ---- rank-symbolic message-flow pass (repro.analyze.rankflow) ---------
    Rule(
        "MA-S05",
        SEV_ERROR,
        "collective sequence divergence across rank paths",
        "Two rank-disjoint execution paths call collectives in different "
        "orders (or different collectives, or different counts); every "
        "rank must reach the same collective sequence or the program "
        "deadlocks at the first divergence.",
    ),
    Rule(
        "MA-S06",
        SEV_ERROR,
        "matched send/receive type or length mismatch",
        "A statically matched send/receive pair disagrees on the buffer "
        "element type or the receive buffer is shorter than the send "
        "(truncation / type confusion at the match).",
    ),
    Rule(
        "MA-S07",
        SEV_ERROR,
        "buffer written while a nonblocking transfer is in flight",
        "A store hits a buffer between the nonblocking operation that "
        "posted it and the Wait that completes it on some path — the "
        "static shadow of the runtime sanitizer's MA-R03.",
    ),
    Rule(
        "MA-S08",
        SEV_WARNING,
        "request leak",
        "A nonblocking request handle reaches method exit without a Wait "
        "or Test on some path; its operation may never complete and its "
        "buffer is pinned forever.",
    ),
    Rule(
        "MA-S09",
        SEV_ERROR,
        "cyclic blocking dependency",
        "The rank-symbolic send/receive graph contains a cycle of "
        "synchronous operations (the classic head-to-head Ssend/Recv "
        "exchange): every rank in the cycle blocks on another member.",
    ),
    Rule(
        "MA-S10",
        SEV_WARNING,
        "wildcard receive races a matched pair",
        "An ANY_SOURCE/ANY_TAG receive has more than one statically "
        "matched candidate message in flight; which one it consumes is "
        "timing-dependent — the static shadow of MA-R02.",
    ),
    Rule(
        "MA-S11",
        SEV_ERROR,
        "one-sided operation outside any epoch on a path",
        "An MP.WinPut/WinGet/WinAccumulate site is reachable along a path "
        "on which no epoch-opening call (WinFence, lock, start) has run; "
        "the runtime window layer would report MA-R06 at that site — the "
        "static shadow of the sanitizer's epoch-discipline rule.",
    ),
    # ---- runtime pass (repro.analyze.sanitizer) ---------------------------
    Rule(
        "MA-R01",
        SEV_ERROR,
        "deadlock",
        "Every hosted rank is blocked in a wait and no rank holds anything "
        "in flight: no wait can ever end.",
    ),
    Rule(
        "MA-R02",
        SEV_WARNING,
        "wildcard-receive race",
        "An ANY_SOURCE receive had more than one in-flight send it could "
        "have matched; the match order is timing-dependent.",
    ),
    Rule(
        "MA-R03",
        SEV_ERROR,
        "send buffer modified in flight",
        "The contents of a nonblocking send's buffer changed between the "
        "post and its completion.",
    ),
    Rule(
        "MA-R04",
        SEV_ERROR,
        "overlapping buffer in concurrent operations",
        "A buffer region was posted to a new operation while an earlier "
        "nonblocking operation writing (or reading) the same region was "
        "still in flight.",
    ),
    Rule(
        "MA-R05",
        SEV_ERROR,
        "pin leak at finalize",
        "A pin outlived the run: an unconditional pin never released, or a "
        "conditional pin whose request was still in flight at finalize.",
    ),
    Rule(
        "MA-R06",
        SEV_ERROR,
        "one-sided operation outside an access epoch",
        "A Put/Get/Accumulate was issued on a window with no access epoch "
        "open toward the target (no fence open, target not in the start() "
        "group, no lock held); the operation's completion semantics are "
        "undefined by MPI-2 one-sided rules.",
    ),
    Rule(
        "MA-R07",
        SEV_ERROR,
        "unordered overlapping one-sided operations",
        "Two one-sided operations in the same access epoch touch "
        "overlapping bytes of the same target window and at least one of "
        "them writes without an ordering guarantee (only same-op "
        "accumulates may overlap); the result depends on delivery order.",
    ),
)


@dataclass(frozen=True)
class Finding:
    """One analyzer diagnostic, static or runtime."""

    rule: str
    message: str
    rank: int | None = None
    assembly: str = ""
    method: str = ""
    pc: int | None = None
    details: tuple[tuple[str, object], ...] = ()

    @property
    def severity(self) -> str:
        rule = RULES.get(self.rule)
        return rule.severity if rule is not None else SEV_ERROR

    def where(self) -> str:
        parts = []
        if self.rank is not None:
            parts.append(f"rank {self.rank}")
        if self.assembly or self.method:
            loc = f"{self.assembly}::{self.method}" if self.assembly else self.method
            if self.pc is not None:
                loc += f"@{self.pc}"
            parts.append(loc)
        return ", ".join(parts)

    def to_dict(self) -> dict:
        d: dict = {
            "rule": self.rule,
            "severity": self.severity,
            "message": self.message,
        }
        if self.rank is not None:
            d["rank"] = self.rank
        if self.assembly:
            d["assembly"] = self.assembly
        if self.method:
            d["method"] = self.method
        if self.pc is not None:
            d["pc"] = self.pc
        if self.details:
            d["details"] = dict(self.details)
        return d

    def __str__(self) -> str:
        where = self.where()
        loc = f" [{where}]" if where else ""
        return f"{self.rule} ({self.severity}){loc}: {self.message}"


def meets_threshold(severity: str, threshold: str) -> bool:
    """Is *severity* at least as grave as *threshold*?"""
    return _SEV_ORDER.get(severity, 0) >= _SEV_ORDER.get(threshold, 0)


def finding_from_diagnostic(diag: Diagnostic, rule: str = "MA-S00") -> Finding:
    """Convert an IL-verifier :class:`Diagnostic` into a :class:`Finding`."""
    return Finding(
        rule=rule,
        message=diag.message,
        assembly=diag.assembly,
        method=diag.method,
        pc=diag.pc,
    )


@dataclass
class Report:
    """Deduplicating container for findings from both passes."""

    findings: list[Finding] = field(default_factory=list)
    _seen: dict = field(default_factory=dict, repr=False)

    #: The identity of a finding for deduplication purposes.  A finding
    #: reachable along several execution paths is ONE finding; re-adding
    #: an identical record bumps a ``paths`` count on the original
    #: instead of appending a duplicate.
    @staticmethod
    def dedup_key(finding: Finding) -> tuple:
        return (
            finding.rule,
            finding.rank,
            finding.assembly,
            finding.method,
            finding.pc,
            finding.message,
        )

    def add(self, finding: Finding, *, paths: int = 1) -> bool:
        """Add *finding*; identical findings collapse, carrying a path count.

        Returns True when the finding is new.  A duplicate (same
        :meth:`dedup_key`) increments the stored finding's ``paths``
        detail by *paths* — the number of distinct paths that reached
        the same (rule, method, pc) diagnosis — and returns False.
        """
        key = self.dedup_key(finding)
        idx = self._seen.get(key)
        if idx is not None:
            old = self.findings[idx]
            details = dict(old.details)
            details["paths"] = details.get("paths", 1) + paths
            self.findings[idx] = replace(
                old, details=tuple(sorted(details.items()))
            )
            return False
        self._seen[key] = len(self.findings)
        self.findings.append(finding)
        return True

    def by_rule(self, rule: str) -> list[Finding]:
        return [f for f in self.findings if f.rule == rule]

    @property
    def errors(self) -> list[Finding]:
        return [f for f in self.findings if f.severity == SEV_ERROR]

    def __len__(self) -> int:
        return len(self.findings)

    def __bool__(self) -> bool:
        return bool(self.findings)

    def sorted(self) -> list[Finding]:
        return sorted(
            self.findings,
            key=lambda f: (
                -_SEV_ORDER.get(f.severity, 0),
                f.rule,
                f.rank if f.rank is not None else -1,
                f.assembly,
                f.method,
                f.pc if f.pc is not None else -1,
            ),
        )

    def render_text(self) -> str:
        if not self.findings:
            return "motor-analyzer: no findings\n"
        lines = [f"motor-analyzer: {len(self.findings)} finding(s)"]
        for f in self.sorted():
            lines.append(f"  {f}")
            rule = RULES.get(f.rule)
            if rule is not None:
                lines.append(f"      -> {rule.title}")
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        return json.dumps(
            {
                "findings": [f.to_dict() for f in self.sorted()],
                "counts": self.counts(),
            },
            indent=2,
        )

    def counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for f in self.findings:
            counts[f.rule] = counts.get(f.rule, 0) + 1
        return counts
