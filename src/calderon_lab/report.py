"""The package's JSON boundary: reading JSON documents in, writing
experiment reports out.

Input. Every JSON document the package reads, a config or a dataset
container, goes through one loader, :func:`load_json`, and each of its
objects through one schema reader, :func:`read`, with the converters
below. The loader decodes the file's bytes as UTF-8, whatever the
locale, and turns every parse failure into :class:`ConfigInvalid`: an
unreadable file, bytes that are not UTF-8, text that is not JSON, a
non-finite number (``NaN``, ``Infinity``, an overflowing literal), an
integer literal beyond Python's digit limit, nesting too deep to parse,
and a root that is not an object.

Output. A report is a canonical JSON document plus CSV tables and a
markdown summary. The JSON report is byte-reproducible for a fixed config
and build: keys are sorted, scalars use shortest round-trip float
representation, and nothing volatile (timestamps, wall-clock) enters it.
Wall-clock numbers go to a separate sidecar so rerunning an experiment
can be diffed against a stored report directly.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import numbers
import os
import reprlib
import tempfile
from dataclasses import asdict, dataclass, field
from types import SimpleNamespace

from .errors import ConfigInvalid


def _finite(text: str) -> float:
    """JSON number hook: NaN, Infinity and overflowing literals are refused."""
    x = float(text)
    if not math.isfinite(x):
        raise ConfigInvalid(f"JSON holds the non-finite number {text}")
    return x


def load_json(path) -> dict:
    """The JSON object in the file at ``path``; any failure to read or
    parse it, or a root that is not an object, raises ConfigInvalid."""
    try:
        with open(path, "rb") as f:
            doc = json.loads(f.read().decode("utf-8"), parse_float=_finite, parse_constant=_finite)
    except OSError as e:
        raise ConfigInvalid(f"cannot read {path!r}: {e.strerror}") from e
    # ValueError covers bad UTF-8, bad JSON and an integer literal past the
    # digit limit; RecursionError is nesting deeper than the parser goes
    except (ValueError, RecursionError) as e:
        raise ConfigInvalid(f"{path!r} is not valid JSON: {e}") from e
    if not isinstance(doc, dict):
        raise ConfigInvalid(f"the root of {path!r} must be a JSON object")
    return doc


# -- the schema reader and its converters ------------------------------------

REQUIRED = object()

# quotes a JSON value in a message, cut to a few items, levels and
# characters, so that a huge or deeply nested value cannot flood it; an int
# whose repr raises ValueError (past sys.get_int_max_str_digits) by its bits
class _Quote(reprlib.Repr):
    def repr_int(self, x, level):
        try:
            return super().repr_int(x, level)
        except ValueError:
            return f"<int of {x.bit_length()} bits>"


quote = _Quote().repr


def read(obj, where: str, **schema) -> SimpleNamespace:
    """The keys of the JSON object ``obj``, which messages call ``where``.
    ``schema`` maps every allowed key to ``(convert, default)``: a present
    value becomes ``convert(value)``, an absent one its default, unless that
    is ``REQUIRED``. A non-object, an unknown or missing key and a value the
    converter rejects (TypeError, ValueError, OverflowError) raise
    ConfigInvalid, whose message quotes the offending value cut short;
    other errors of a converter pass through."""
    if not isinstance(obj, dict):
        raise ConfigInvalid(f"{where} must be a JSON object, got {quote(obj)}")
    unknown = sorted(set(obj) - set(schema))
    if unknown:
        raise ConfigInvalid(f"{where} has unknown key(s) {quote(unknown)}; it takes {sorted(schema)}")
    vals = {}
    for key, (convert, default) in schema.items():
        if key not in obj:
            if default is REQUIRED:
                raise ConfigInvalid(f"{where} lacks required key {key!r}")
            vals[key] = default
            continue
        try:
            vals[key] = convert(obj[key])
        except (TypeError, ValueError, OverflowError) as e:
            raise ConfigInvalid(f"{where} key {key!r} has invalid value {quote(obj[key])}: {e}") from e
    return SimpleNamespace(**vals)


def number(v):
    """A JSON number as given; strings and booleans are refused."""
    if isinstance(v, bool) or not isinstance(v, numbers.Real):
        raise TypeError(f"must be a number, not {type(v).__name__}")
    return v


def real(v) -> float:
    return float(number(v))


def integer(v) -> int:
    """Converter for every integer key: a number with a fractional part is
    refused, never truncated."""
    if number(v) != int(v):
        raise ValueError("must be an integer")
    return int(v)


def ranged(kind, lo, hi=math.inf):
    """Converter: ``kind(v)``, which must lie in ``[lo, hi)``."""
    def convert(v):
        x = kind(v)
        if not lo <= x < hi:
            raise ValueError(f"must be at least {lo}" if hi == math.inf else f"must lie in [{lo}, {hi})")
        return x
    return convert


def list_of(item):
    """Converter: a list of 1 to 64 ``item(x)``. An empty one would yield
    no evidence, and each entry of a config list (a size, eps, stride or
    seed) is a unit of work, so the length is checked before any entry."""
    def convert(v):
        if not isinstance(v, (list, tuple)) or not v:
            raise ValueError("must be a non-empty list")
        if len(v) > 64:
            raise ValueError(f"must have at most 64 entries, not {len(v)}")
        return tuple(item(x) for x in v)
    return convert


def choice(*options):
    def convert(v):
        if v not in options:
            raise ValueError(f"must be one of {options}")
        return v
    return convert


def string(v) -> str:
    if not isinstance(v, str):
        raise TypeError(f"must be a string, not {type(v).__name__}")
    return v


# -- reports -----------------------------------------------------------------

# the files emit_report writes besides one CSV per table: the canonical
# report, the markdown summary and the timings sidecar
REPORT_FILES = ("report.json", "summary.md", "timings.json")


def check_out_dir(d) -> list:
    """The directories missing on the way to the output directory ``d``,
    deepest first. It only reads, and raises ConfigInvalid if the nearest
    existing path (``d`` itself when it exists) is not a writable directory."""
    missing, path = [], os.path.abspath(d)
    while not os.path.lexists(path):
        missing.append(path)
        path = os.path.dirname(path)
    if not (os.path.isdir(path) and os.access(path, os.W_OK | os.X_OK)):
        raise ConfigInvalid(f"cannot write into {os.fspath(d)!r}: {path!r} is not a writable directory")
    return missing


def _write_files(d, texts: dict) -> None:
    """Write each ``path: text`` of ``texts``, all in the directory ``d``,
    through temporary files in ``d`` with the mode ``open(path, "w")``
    gives. A path that exists and is not a regular file is refused; the
    others move aside, beside their texts' temporaries, and each text into
    place by ``os.replace``. Any failure raises ConfigInvalid, undoes the
    renames and removes the directories made for ``d``: the old files stay."""
    for path in texts:
        if os.path.lexists(path) and not os.path.isfile(path):
            raise ConfigInvalid(f"cannot write {os.fspath(path)!r}: it exists and is not a regular file")
    made = check_out_dir(d)
    os.umask(umask := os.umask(0))  # reads the umask
    tmps, moves, k, path = [], [], 0, d
    try:
        os.makedirs(d, exist_ok=True)
        for path, text in texts.items():
            fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-")
            tmps.append(tmp)
            os.fchmod(fd, 0o666 & ~umask)
            with os.fdopen(fd, "w") as f:
                f.write(text)
        moves = [(p, t + ".old") for t, p in zip(tmps, texts) if os.path.lexists(p)] + list(zip(tmps, texts))
        for k, (src, path) in enumerate(moves):
            os.replace(src, path)
    except OSError as e:
        for src, dst in reversed(moves[:k]):
            os.replace(dst, src)
        raise ConfigInvalid(f"cannot write {os.fspath(path)!r}: {e.strerror or e}") from e
    else:  # the old files go only once every text is in place
        tmps += [tmp + ".old" for tmp in tmps]
        made = []
    finally:
        for name in tmps:
            if os.path.lexists(name):
                os.unlink(name)
        for name in made:  # rmdir spares a directory that is not empty
            with contextlib.suppress(OSError):
                os.rmdir(name)


@dataclass(frozen=True)
class Verdict:
    """One named acceptance rule: observed value against its threshold."""

    name: str
    passed: bool
    value: float
    threshold: float
    comparison: str  # "<=" or ">="


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
    files: dict = field(default_factory=dict)  # name -> text, written beside the report

    @property
    def passed(self) -> bool:
        return all(v.passed for v in self.verdicts)

    def add_table(self, name: str, columns, rows) -> None:
        self.tables[name] = Table(tuple(columns), tuple(tuple(r) for r in rows))

    def add_verdict(self, name, value, threshold, comparison="<=") -> Verdict:
        """Record and return the verdict ``value <comparison> threshold``;
        an unknown comparison raises KeyError."""
        value, threshold = float(value), float(threshold)
        passed = {"<=": value <= threshold, ">=": value >= threshold}[comparison]
        v = Verdict(name, passed, value, threshold, comparison)
        self.verdicts.append(v)
        return v

    def config_digest(self) -> str:
        blob = json.dumps(self.config, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()

    def as_dict(self) -> dict:
        d = asdict(self)
        del d["timings"], d["files"]  # the volatile sidecar's, and written beside the report
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
    """Write report.json (canonical), one CSV per table, summary.md, a
    volatile timings sidecar and ``report.files``, all through temporary
    files first in one batch, so a target that is not a regular file
    refuses the whole set with ConfigInvalid and leaves ``out_dir`` as it
    was. Returns {artifact name: path} of the report's own files."""
    canonical, summary, timings = REPORT_FILES
    texts = {canonical: report.to_json()}
    for name in sorted(report.tables):
        t = report.tables[name]
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(t.columns)
        for row in t.rows:
            w.writerow([repr(x) if isinstance(x, float) else x for x in row])
        texts[f"{name}.csv"] = buf.getvalue()
    texts[summary] = report.to_markdown()
    if report.timings:
        texts[timings] = json.dumps(report.timings, sort_keys=True, indent=2) + "\n"
    _write_files(out_dir, {os.path.join(out_dir, name): text for name, text in {**report.files, **texts}.items()})
    return {name: os.path.join(out_dir, name) for name in texts}
