"""Versioned CSV artifacts with replay-fidelity float formatting."""

from __future__ import annotations

from pathlib import Path

import numpy as np

from ..errors import DomainError, ShapeError

CSV_VERSION = "eqsentinel-csv v1"


def format_value(value) -> str:
    """Bools as 1/0, floats at 17 significant digits; numpy's through float()."""
    if isinstance(value, float):
        return f"{value:.17g}"
    if type(value) is int:
        return str(value)
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, (np.bool_, np.floating)):
        return f"{float(value):.17g}"
    return str(value)


def write_text(path: Path, text: str) -> Path:
    """Write ``text`` as a new file at ``path``. An existing file or link
    there is removed first, so a link is replaced, not written through, and
    ext4 does not flush the old file's blocks on close as it does for a
    file truncated and rewritten in place."""
    path.parent.mkdir(parents=True, exist_ok=True)
    path.unlink(missing_ok=True)
    path.write_text(text)
    return path


def _write_lines(path: Path, head: list[str], rows, sep: str) -> Path:
    body = [sep.join(map(format_value, row)) for row in rows]
    return write_text(path, "\n".join(head + body) + "\n")


def write_csv(path: Path, schema: str, columns: list[str], rows) -> Path:
    """Write rows with a version/schema comment line above the header."""
    return _write_lines(path, [f"# {CSV_VERSION} schema={schema}", ",".join(columns)], rows, ",")


def write_summary(path: Path, schema: str, entries: dict) -> Path:
    return write_csv(
        path, schema, ["key", "value"], [(k, v) for k, v in entries.items()]
    )


def write_figure_data(path: Path, header: list[str], rows) -> Path:
    """Whitespace-delimited data file, one block per figure."""
    return _write_lines(path, ["# " + " ".join(header)], rows, " ")


def read_utf8(path: Path, error: type[Exception] = DomainError) -> str:
    """A file's UTF-8 text; else ``error``, naming the path and the line."""
    data = Path(path).read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise error(f"{path}: line {line} is not UTF-8 text") from None


def read_csv(path: Path) -> tuple[str, list[str], list[list[str]]]:
    """Read back a versioned CSV as (schema line, columns, raw rows)."""
    lines = read_utf8(path).splitlines()
    if not lines or not lines[0].startswith(f"# {CSV_VERSION} "):
        raise DomainError(f"{path}: line 1 is not an {CSV_VERSION!r} version line")
    if len(lines) < 2:
        raise ShapeError(f"{path}: text ends before its column header line")
    columns = lines[1].split(",")
    rows = [line.split(",") for line in lines[2:] if line]
    return lines[0], columns, rows
