"""Request-body validation at the HTTP edge.

Every serving frontend (the single-process server, the cluster router
and its shard workers) parses its ``/ingest`` and ``/predict`` (or
``/decode``) bodies through the one function per route here, so a body
is rejected the same way wherever it lands.  Each function returns a
normalized body holding only plain Python ints and bools, or raises
:class:`BadRequest` (HTTP 400):

- ids, timestamps and ``top_k`` must be integral JSON numbers (``1.5``,
  ``"1"``, ``true`` and ``null`` are rejected, never truncated), and
  each is range-checked *before* any numpy conversion, so no value can
  overflow an ``int64`` or wrap around;
- entity ids lie in ``[0, |E|)``; an ingested relation in ``[0, |R|)``
  (base relations); a queried relation in ``[0, 2|R|)``, or ``[0, |R|)``
  with ``inverse``; ``1 <= top_k <= |E|``;
- event rows are lists of one length, 3 (``events`` with a shared
  ``timestamp``) or 4 (``quads``).
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

#: Timestamps are bounded well inside ``int64`` so that differences
#: between two of them (window deltas) cannot overflow either.
TIME_BOUND = 2 ** 62


class BadRequest(ValueError):
    """Client error: malformed JSON or invalid fields (HTTP 400)."""


def _integer(value, name: str, lo: int, hi: int) -> int:
    """``value`` as an int in ``[lo, hi)``; integral JSON numbers only."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise BadRequest(f"{name} must be an integer, got {value!r}")
    if not lo <= value < hi:
        raise BadRequest(f"{name} {value} out of range [{lo}, {hi})")
    return value


def _flag(body: Dict, name: str) -> bool:
    value = body.get(name, False)
    if not isinstance(value, bool):
        raise BadRequest(f"'{name}' must be true or false, got {value!r}")
    return value


def _top_k(body: Dict, default: int, num_entities: int) -> int:
    return _integer(body.get("top_k", default), "'top_k'", 1, num_entities + 1)


def _rows(
    rows, name: str, width: int, num_entities: int, num_relations: int
) -> List[List[int]]:
    if not isinstance(rows, list) or not rows:
        raise BadRequest(f"'{name}' must be a non-empty list of rows")
    out = []
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != width:
            raise BadRequest(f"'{name}'[{i}] must be a list of {width} integers")
        fact = [
            _integer(row[0], f"'{name}'[{i}] subject", 0, num_entities),
            _integer(row[1], f"'{name}'[{i}] relation", 0, num_relations),
            _integer(row[2], f"'{name}'[{i}] object", 0, num_entities),
        ]
        if width == 4:
            fact.append(_integer(row[3], f"'{name}'[{i}] timestamp", -TIME_BOUND, TIME_BOUND))
        out.append(fact)
    return out


def parse_ingest(body: Dict, num_entities: int, num_relations: int) -> Dict:
    """The validated ``/ingest`` body.

    Returns ``{"events": rows, "timestamp": t, "flush": bool}`` or
    ``{"quads": rows, "flush": bool}``.
    """
    if ("events" in body) == ("quads" in body):
        raise BadRequest("provide exactly one of 'events' (with 'timestamp') or 'quads'")
    flush = _flag(body, "flush")
    if "quads" in body:
        return {"quads": _rows(body["quads"], "quads", 4, num_entities, num_relations),
                "flush": flush}
    if "timestamp" not in body:
        raise BadRequest("'events' requires a 'timestamp'")
    return {
        "events": _rows(body["events"], "events", 3, num_entities, num_relations),
        "timestamp": _integer(body["timestamp"], "'timestamp'", -TIME_BOUND, TIME_BOUND),
        "flush": flush,
    }


def _query(query, default_top_k: int, num_entities: int, num_relations: int) -> Dict:
    if not isinstance(query, dict) or "subject" not in query or "relation" not in query:
        raise BadRequest("each query needs 'subject' and 'relation'")
    inverse = _flag(query, "inverse")
    return {
        "subject": _integer(query["subject"], "'subject'", 0, num_entities),
        "relation": _integer(
            query["relation"], "'relation'", 0, num_relations * (1 if inverse else 2)
        ),
        "inverse": inverse,
        "top_k": _top_k(query, default_top_k, num_entities),
    }


def parse_predict(
    body: Dict, num_entities: int, num_relations: int
) -> Tuple[List[Dict], int, bool]:
    """The validated ``/predict`` (and shard ``/decode``) body.

    Returns ``(queries, default_top_k, single)``: every query as
    ``{"subject", "relation", "inverse", "top_k"}``, the body-level
    ``top_k`` (default 10, capped at ``|E|``), and whether the body was
    one bare query rather than a ``queries`` list.
    """
    default_top_k = _top_k(body, min(10, num_entities), num_entities)
    if "queries" not in body:
        if "subject" not in body or "relation" not in body:
            raise BadRequest("'subject' and 'relation' are required")
        return [_query(body, default_top_k, num_entities, num_relations)], default_top_k, True
    queries: Sequence = body["queries"]
    if not isinstance(queries, list) or not queries:
        raise BadRequest("'queries' must be a non-empty list")
    parsed = [_query(q, default_top_k, num_entities, num_relations) for q in queries]
    return parsed, default_top_k, False
