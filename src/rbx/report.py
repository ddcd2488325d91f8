"""Machine-readable check verdicts.

A report either passes, fails with a list of violations (identity tag, the
basis inputs that witnessed the failure, and the residual), or is marked
not-applicable.  Reports nest: equivalence-style checks expose one named
sub-report per constituent condition, and the top-level status is "fail"
iff any violation exists anywhere in the tree.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Violation:
    identity: str
    inputs: tuple[str, ...]
    residual: tuple[str, ...]


@dataclass(frozen=True)
class Report:
    check: str
    status: str  # "pass" | "fail" | "n/a"
    violations: tuple[Violation, ...] = ()
    subreports: tuple["Report", ...] = ()
    provenance: dict | None = field(default=None, compare=False)

    @property
    def passed(self) -> bool:
        return self.status != "fail"

    def sub(self, name: str) -> "Report | None":
        for r in self.subreports:
            if r.check == name:
                return r
        return None

    def all_violations(self) -> tuple[Violation, ...]:
        out = list(self.violations)
        for r in self.subreports:
            out.extend(r.all_violations())
        return tuple(out)

    def to_json(self, witness: bool = True) -> dict:
        doc = {
            "check": self.check,
            "status": self.status,
            "violations": [
                {
                    "identity": v.identity,
                    "inputs": list(v.inputs),
                    "residual": list(v.residual) if witness else [],
                }
                for v in self.all_violations()
            ],
        }
        if self.provenance and "seed" in self.provenance:
            doc["seed"] = self.provenance["seed"]
        if self.subreports:
            doc["subchecks"] = [r.to_json(witness) for r in self.subreports]
        return doc


def make_report(check, violations=(), subreports=(), provenance=None, not_applicable=False):
    violations = tuple(violations)
    subreports = tuple(subreports)
    if not_applicable:
        status = "n/a"
    elif violations or any(r.status == "fail" for r in subreports):
        status = "fail"
    else:
        status = "pass"
    return Report(check, status, violations, subreports, provenance)
