"""Flat check/instance/pass rows and the JSON and CSV writers of every report."""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii

__all__ = ["CheckRow", "write_json", "json_text", "csv_text"]

_FLUSH = 1 << 12  # pieces per write_json write: about 256 KiB of a fan report


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


def write_json(obj, sink) -> None:
    """Write the text of json.dumps(obj, indent=2) and a newline to sink, byte for byte.

    Accepts dicts with str keys, lists, tuples, str, int, bool and None, and
    raises TypeError on anything else, floats included, so no
    report carries a floating-point number. A list or tuple object whose items
    are all of type int (not bool) is rendered once per call for each indent
    and reused; a fan shares one tuple per distinct exponent tuple across all
    its classes. The memo is keyed by the object's id: every object in the
    document stays reachable from obj until the call returns, so no id is
    reused for another object. After a list item, more than _FLUSH pending pieces go to sink.write.
    """
    memo: dict[tuple[int, str], str] = {}
    out: list[str] = []
    emit = out.append

    def write(o, indent: str) -> None:
        if isinstance(o, str):
            emit(encode_basestring_ascii(o))
        elif isinstance(o, (list, tuple)):
            if not o:
                emit("[]")
                return
            inner = indent + "  "
            key = (id(o), indent)
            text = memo.get(key)
            # keyed by object, [1, True] and an equal [1, 1] never share a text
            if text is None and set(map(type, o)) == {int}:
                text = memo[key] = f"[\n{inner}" + f",\n{inner}".join(map(str, o)) + f"\n{indent}]"
            if text is not None:
                emit(text)
                return
            sep, comma = f"[\n{inner}", f",\n{inner}"
            for item in o:
                emit(sep)
                write(item, inner)
                sep = comma
                if len(out) > _FLUSH:
                    sink.write("".join(out))
                    out.clear()
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

    write(obj, "")
    emit("\n")
    sink.write("".join(out))


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
