"""Report records shared by the verification suites."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

PASS = "pass"
FAIL = "fail"
REJECTED = "rejected"
RECORDED = "recorded"  # outcome reported as data, deliberately not asserted


@dataclass
class LemmaReport:
    """Verdicts for one checked statement on one instance.

    status "rejected" means the instance failed the statement's
    hypotheses and was not judged; it is never conflated with a
    failing verdict.
    """

    lemma: str
    instance: dict[str, Any]
    status: str
    verdicts: dict[str, bool] = field(default_factory=dict)
    dims: dict[str, int] = field(default_factory=dict)
    details: dict[str, Any] = field(default_factory=dict)
    elapsed_s: float = 0.0

    def to_dict(self) -> dict[str, Any]:
        return {
            "lemma": self.lemma,
            "instance": self.instance,
            "status": self.status,
            "verdicts": self.verdicts,
            "dims": self.dims,
            "details": self.details,
            "elapsed_s": self.elapsed_s,
        }


def aggregate_status(reports: list[LemmaReport]) -> str:
    """Overall verdict: pass iff nothing failed (rejections are explained)."""
    return PASS if all(r.status != FAIL for r in reports) else FAIL
