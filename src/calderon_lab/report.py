"""Experiment reports: a canonical JSON document plus CSV tables and a
markdown summary.

The JSON report is byte-reproducible for a fixed config and build: keys
are sorted, scalars use shortest round-trip float representation, and
nothing volatile (timestamps, wall-clock) enters it. Wall-clock numbers
go to a separate sidecar so rerunning an experiment can be diffed against
a stored report directly.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
import tempfile
from dataclasses import asdict, dataclass, field

__all__ = [
    "Verdict",
    "Table",
    "ExperimentReport",
    "atomic_write_text",
    "emit_report",
]


def atomic_write_text(path, text: str) -> None:
    d = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-")
    try:
        with os.fdopen(fd, "w") as f:
            f.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


@dataclass(frozen=True)
class Verdict:
    """One named acceptance rule: observed value against its threshold."""

    name: str
    passed: bool
    value: float
    threshold: float
    comparison: str  # "<=" or ">="


def check(name: str, value: float, threshold: float, comparison: str = "<=") -> Verdict:
    value = float(value)
    if comparison == "<=":
        ok = value <= threshold
    elif comparison == ">=":
        ok = value >= threshold
    else:
        raise ValueError(f"unknown comparison {comparison!r}")
    return Verdict(name, bool(ok), value, float(threshold), comparison)


@dataclass(frozen=True)
class Table:
    columns: tuple
    rows: tuple


@dataclass
class ExperimentReport:
    command: str
    config: dict
    scalars: dict = field(default_factory=dict)
    tables: dict = field(default_factory=dict)
    verdicts: list = field(default_factory=list)
    timings: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(v.passed for v in self.verdicts)

    def add_table(self, name: str, columns, rows) -> None:
        self.tables[name] = Table(tuple(columns), tuple(tuple(r) for r in rows))

    def add_verdict(self, name, value, threshold, comparison="<=") -> Verdict:
        v = check(name, value, threshold, comparison)
        self.verdicts.append(v)
        return v

    def config_digest(self) -> str:
        blob = json.dumps(self.config, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()

    def as_dict(self) -> dict:
        d = asdict(self)
        del d["timings"]  # volatile: it goes to the sidecar
        return {**d, "config_digest": self.config_digest(), "passed": self.passed}

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), sort_keys=True, indent=2) + "\n"

    def to_markdown(self) -> str:
        out = io.StringIO()
        out.write(f"# {self.command}\n\n")
        out.write(f"config digest: `{self.config_digest()}`\n\n")
        if self.scalars:
            out.write("## Scalars\n\n| name | value |\n|---|---|\n")
            for k in sorted(self.scalars):
                out.write(f"| {k} | {self.scalars[k]!r} |\n")
            out.write("\n")
        for name in sorted(self.tables):
            t = self.tables[name]
            out.write(f"## {name}\n\n")
            out.write("| " + " | ".join(str(c) for c in t.columns) + " |\n")
            out.write("|" + "---|" * len(t.columns) + "\n")
            for row in t.rows:
                out.write("| " + " | ".join(repr(x) for x in row) + " |\n")
            out.write("\n")
        out.write("## Verdicts\n\n| rule | value | threshold | result |\n|---|---|---|---|\n")
        for v in self.verdicts:
            res = "pass" if v.passed else "FAIL"
            out.write(f"| {v.name} | {v.value!r} | {v.comparison} {v.threshold!r} | {res} |\n")
        out.write("\n")
        if self.timings:
            out.write("## Timings (not part of the canonical report)\n\n")
            for k in sorted(self.timings):
                out.write(f"- {k}: {self.timings[k]:.3f} s\n")
        return out.getvalue()


def emit_report(report: ExperimentReport, out_dir) -> dict:
    """Write report.json (canonical), one CSV per table, summary.md, and a
    volatile timings sidecar. Returns {artifact name: path}."""
    os.makedirs(out_dir, exist_ok=True)
    written = {}
    p = os.path.join(out_dir, "report.json")
    atomic_write_text(p, report.to_json())
    written["report.json"] = p
    for name in sorted(report.tables):
        t = report.tables[name]
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(t.columns)
        for row in t.rows:
            w.writerow([repr(x) if isinstance(x, float) else x for x in row])
        p = os.path.join(out_dir, f"{name}.csv")
        atomic_write_text(p, buf.getvalue())
        written[f"{name}.csv"] = p
    p = os.path.join(out_dir, "summary.md")
    atomic_write_text(p, report.to_markdown())
    written["summary.md"] = p
    if report.timings:
        p = os.path.join(out_dir, "timings.json")
        atomic_write_text(p, json.dumps(report.timings, sort_keys=True, indent=2) + "\n")
        written["timings.json"] = p
    return written
