"""Result records shared by the bound checks and the verifier.

Big integers are serialized as decimal strings: several of the quantities
reported here exceed 64 bits and must survive a JSON round trip intact.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any

PASS = "PASS"
FAIL = "FAIL"
SKIPPED = "SKIPPED"


def dumps(obj) -> str:
    """Compact JSON with sorted keys: the byte-deterministic encoding of every report."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _jsonable(value):
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, int):
        return value if -2**53 < value < 2**53 else str(value)
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in sorted(value.items())}
    return value


@dataclass
class Report:
    """Outcome of one verification: a case id, its parameters, and failures.

    Failures carry enough context to reproduce each one.  The status is
    read off the rest: SKIPPED if nothing was checked or extras carries
    "undecided", else FAIL if there is a failure, else PASS.
    """

    case: str
    params: dict[str, Any] = field(default_factory=dict)
    checked: int = 0
    failures: list[dict[str, Any]] = field(default_factory=list)
    extras: dict[str, Any] = field(default_factory=dict)

    @property
    def status(self) -> str:
        if self.checked == 0 or "undecided" in self.extras:
            return SKIPPED
        return FAIL if self.failures else PASS

    @property
    def gates(self) -> bool:
        """Whether a FAIL counts: not for an open statement's probe (extras "conjecture")."""
        return not self.extras.get("conjecture")

    def line(self) -> str:
        """The text form: `case params: status`, the params as `to_dict` writes them."""
        return f"{self.case} {dumps(_jsonable(self.params))}: {self.status}"

    def to_dict(self) -> dict[str, Any]:
        out = {
            "case": self.case,
            "params": _jsonable(self.params),
            "checked": self.checked,
            "status": self.status,
            "failures": [_jsonable(f) for f in self.failures],
        }
        out.update(_jsonable(self.extras))
        return out
