"""Reference version of the edge-list parser that `oddwalk.graph` replaced.

`parse_graph` collects one canonical tuple per edge line in a Python list
and hands it to the validating `Graph` constructor, the parser before it
collected the ends in an int64 buffer.  test_graph.py requires the library
to return equal graphs and raise the same errors with the same messages.
"""

from typing import Optional

from oddwalk.errors import InputError, ParseError
from oddwalk.graph import MAX_VERTICES, Graph, canon_edge


def parse_graph(text: str) -> Graph:
    declared_n: Optional[int] = None
    edges: list[tuple[int, int]] = []
    max_id = -1
    saw_data = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if not saw_data and parts[0] == "n":
            if len(parts) != 2:
                raise ParseError(f"line {lineno}: malformed header {line!r}")
            try:
                declared_n = int(parts[1])
            except ValueError:
                raise ParseError(f"line {lineno}: bad vertex count {parts[1]!r}")
            if declared_n < 0:
                raise ParseError(f"line {lineno}: negative vertex count")
            if declared_n > MAX_VERTICES:
                raise InputError(
                    f"line {lineno}: vertex count {declared_n} exceeds the limit {MAX_VERTICES}"
                )
            saw_data = True
            continue
        saw_data = True
        if len(parts) != 2:
            raise ParseError(f"line {lineno}: expected 'u v', got {line!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(f"line {lineno}: non-integer vertex id in {line!r}")
        if u < 0 or v < 0:
            raise ParseError(f"line {lineno}: negative vertex id in {line!r}")
        if u == v:
            raise ParseError(f"line {lineno}: self-loop at vertex {u}")
        if max(u, v) >= MAX_VERTICES:
            raise InputError(
                f"line {lineno}: vertex id {max(u, v)} exceeds the limit {MAX_VERTICES - 1}"
            )
        edges.append(canon_edge(u, v))
        max_id = max(max_id, u, v)
    n = max_id + 1 if declared_n is None else declared_n
    if declared_n is not None and max_id >= declared_n:
        raise ParseError(f"vertex id {max_id} exceeds declared count {declared_n}")
    return Graph(n, edges)
