"""Flat check/instance/pass rows and the JSON and CSV writers of every report."""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from itertools import chain, islice, repeat
from json.encoder import encode_basestring_ascii

__all__ = ["CheckRow", "write_json", "json_text", "csv_text"]

_FLUSH = 1 << 9  # pending pieces before a write_json write


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


def _int_list_text(o, indent: str) -> str:
    """The text of a non-empty list of ints at indent."""
    inner = indent + "  "
    return f"[\n{inner}" + f",\n{inner}".join(map(str, o)) + f"\n{indent}]"


def _rows_known(o, indent: str, texts: dict[int, str]) -> bool:
    """Whether every item of o is a row, a list or tuple of ints (not bools) or
    empty; each row's text at indent is added to texts, keyed by the row's id."""
    if all(map(texts.__contains__, map(id, o))):
        return True
    for row in o:
        if id(row) not in texts:
            # keyed by object, [1, True] and an equal [1, 1] never share a text
            if not isinstance(row, (list, tuple)) or not set(map(type, row)) <= {int}:
                return False
            texts[id(row)] = _int_list_text(row, indent) if row else "[]"
    return True


def write_json(obj, sink) -> None:
    """Write the text of json.dumps(obj, indent=2) and a newline to sink, byte for byte.

    Accepts dicts with str keys, lists, tuples, str, int, bool and None, and
    raises TypeError on anything else, floats included, so no report carries
    a floating-point number. In a list whose items are all rows, lists or
    tuples of type-int items (not bools) or empty, each row object is
    rendered once per call for each indent, and the list goes out as those
    texts between commas, _FLUSH pieces at a time, with no loop over its
    items in Python: a fan shares one tuple per distinct exponent tuple
    across all its classes. The memo is keyed by the object's id: every
    object in the document stays reachable from obj until the call returns,
    so no id is reused for another object. More than _FLUSH pending pieces
    go to sink.write after a list item or a slice of rows.
    """
    memo: dict[str, dict[int, str]] = {}  # indent -> id of a row -> its text there
    out: list[str] = []
    emit = out.append

    def flush() -> None:
        sink.write("".join(out))
        out.clear()

    def write(o, indent: str) -> None:
        if isinstance(o, str):
            emit(encode_basestring_ascii(o))
        elif isinstance(o, (list, tuple)):
            if not o:
                emit("[]")
                return
            if set(map(type, o)) == {int}:
                emit(_int_list_text(o, indent))
                return
            inner = indent + "  "
            sep, comma = f"[\n{inner}", f",\n{inner}"
            texts = memo.setdefault(inner, {})
            if _rows_known(o, inner, texts):
                # each row's memo text after a comma, the first comma dropped
                pieces = chain.from_iterable(zip(repeat(comma), map(texts.__getitem__, map(id, o))))
                next(pieces)
                emit(sep)
                for _ in range(0, 2 * len(o) - 1, _FLUSH):
                    out.extend(islice(pieces, _FLUSH))
                    if len(out) > _FLUSH:
                        flush()
                emit(f"\n{indent}]")
                return
            for item in o:
                emit(sep)
                write(item, inner)
                sep = comma
                if len(out) > _FLUSH:
                    flush()
            emit(f"\n{indent}]")
        elif isinstance(o, dict):
            if not o:
                emit("{}")
                return
            inner = indent + "  "
            sep, comma = f"{{\n{inner}", f",\n{inner}"
            for name, value in o.items():
                if not isinstance(name, str):
                    raise TypeError(f"JSON keys must be str, not {type(name).__name__}")
                emit(f"{sep}{encode_basestring_ascii(name)}: ")
                write(value, inner)
                sep = comma
            emit(f"\n{indent}}}")
        elif o is None:
            emit("null")
        elif o is True:
            emit("true")
        elif o is False:
            emit("false")
        elif isinstance(o, int):
            emit(int.__repr__(o))
        else:
            raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")

    try:
        write(obj, "")
    finally:
        # write reaches itself through its closure cell: empty the cell, so the
        # memo and the pieces go now and not at the next cyclic collection
        del write
    emit("\n")
    flush()


def json_text(obj) -> str:
    """The text write_json(obj, sink) writes, as one str."""
    write_json(obj, buf := io.StringIO())
    return buf.getvalue()


def csv_text(header, rows) -> str:
    """Booleans become true/false, None an empty cell, any other value its str()."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([str(c).lower() if isinstance(c, bool) else c for c in row])
    return buf.getvalue()
