"""Flat check/instance/pass rows and the JSON and CSV writers of every report."""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass

__all__ = ["CheckRow", "json_text", "csv_text"]


@dataclass(frozen=True)
class CheckRow:
    check: str
    instance: str
    passed: bool
    detail: str = ""

    def to_dict(self) -> dict:
        """The detail is kept only on failing rows, so passing output stays stable."""
        out = {"check": self.check, "instance": self.instance, "pass": self.passed}
        if not self.passed:
            out["detail"] = self.detail
        return out


def json_text(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def csv_text(header, rows) -> str:
    """Booleans become true/false, None an empty cell, any other value its str()."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([str(c).lower() if isinstance(c, bool) else c for c in row])
    return buf.getvalue()
