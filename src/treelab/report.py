"""Report records shared by the verification suites, and the one path
from a check to its report: the status rule, the rejection record and
the timing."""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

PASS = "pass"
FAIL = "fail"
REJECTED = "rejected"
RECORDED = "recorded"  # outcome reported as data, deliberately not asserted


@dataclass
class LemmaReport:
    """Verdicts for one checked statement on one instance.

    The status is "pass" iff every verdict holds, unless one is given.
    Status "rejected" means the instance failed the statement's
    hypotheses and was not judged; it is never conflated with a
    failing verdict.
    """

    lemma: str
    instance: dict[str, Any]
    status: Optional[str] = None
    verdicts: dict[str, bool] = field(default_factory=dict)
    dims: dict[str, int] = field(default_factory=dict)
    details: dict[str, Any] = field(default_factory=dict)
    elapsed_s: float = 0.0

    def __post_init__(self) -> None:
        if self.status is None:
            self.status = PASS if all(self.verdicts.values()) else FAIL

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


def timed(check: Callable[..., LemmaReport]) -> Callable[..., LemmaReport]:
    """Stamp the wall time of the whole check on the report it returns."""

    @functools.wraps(check)
    def run(*args: Any, **kwargs: Any) -> LemmaReport:
        t0 = time.perf_counter()
        report = check(*args, **kwargs)
        report.elapsed_s = time.perf_counter() - t0
        return report

    return run


@timed
def rejected(lemma: str, instance: dict[str, Any], reason: str) -> LemmaReport:
    """The report of an instance that fails the statement's hypotheses."""
    return LemmaReport(lemma, instance, REJECTED, details={"reason": reason})


def aggregate_status(reports: list[LemmaReport]) -> str:
    """Overall verdict: pass iff nothing failed (rejections are explained)."""
    return PASS if all(r.status != FAIL for r in reports) else FAIL
