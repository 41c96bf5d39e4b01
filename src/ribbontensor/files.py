"""The presentation file format.

A presentation file is a JSON document:

    {
      "circles": [["e+", "f-", "g+"], []],
      "vertex_partition": [[0, 1], [2]],
      "boundary_partition": [[0], [1, 2]]
    }

``circles`` lists each circle's arrows in cyclic order as ``label+`` /
``label-`` tokens (``+`` = with the circle's reference direction).  The
partitions are optional; omitted blocks default to singletons.  Each one
given is ``null`` or a list of blocks, each block a list of distinct integer
ids (``true``/``false`` and ``0.0`` are not ids), which together cover the
circles (vertex) or the boundary components (boundary) exactly once.
Boundary ids refer to the canonical enumeration (``info`` prints it).
"""

from __future__ import annotations

import json
from typing import Mapping

from .arrow import ArrowPresentation, Occ
from .errors import ParseError
from .packaged import PackagedPresentation, make_packaged


def _occ_token(occ: Occ) -> str:
    return f"{occ.label}{'+' if occ.forward else '-'}"


def _parse_token(token: str) -> Occ:
    if not isinstance(token, str) or len(token) < 2 or token[-1] not in "+-":
        raise ParseError(f"bad arrow token {token!r}, expected e.g. 'e+' or 'e-'")
    label = token[:-1]
    if any(ch.isspace() for ch in label):
        raise ParseError(f"edge label {label!r} contains whitespace")
    return Occ(label, token[-1] == "+")


def presentation_to_dict(pg: PackagedPresentation) -> dict:
    return {
        "circles": [[_occ_token(o) for o in circ] for circ in pg.ap.circles],
        "vertex_partition": [list(b) for b in pg.vparts.sorted_blocks()],
        "boundary_partition": [list(b) for b in pg.bparts.sorted_blocks()],
    }


def _partition_blocks(data: Mapping, key: str):
    blocks = data.get(key)
    if blocks is None:
        return None
    if not isinstance(blocks, list) or not all(isinstance(b, list) for b in blocks):
        raise ParseError(f"{key!r} must be null or a list of lists of integer ids")
    for block in blocks:
        for item in block:
            if type(item) is not int:
                raise ParseError(f"{key!r} holds {item!r}, which is not an integer id")
        if len(set(block)) != len(block):
            raise ParseError(f"{key!r} block {block} repeats an id")
    return blocks


def presentation_from_dict(data: Mapping) -> PackagedPresentation:
    if not isinstance(data, Mapping) or "circles" not in data:
        raise ParseError("presentation file must be an object with a 'circles' key")
    circles = data["circles"]
    if not isinstance(circles, list) or not all(isinstance(c, list) for c in circles):
        raise ParseError("'circles' must be a list of lists of arrow tokens")
    ap = ArrowPresentation.from_circles(
        [[_parse_token(tok) for tok in circ] for circ in circles]
    )
    return make_packaged(
        ap,
        _partition_blocks(data, "vertex_partition"),
        _partition_blocks(data, "boundary_partition"),
    )


def dumps_presentation(pg: PackagedPresentation) -> str:
    return json.dumps(presentation_to_dict(pg), indent=2) + "\n"


def loads_presentation(text: str) -> PackagedPresentation:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(exc.msg, line=exc.lineno, column=exc.colno) from None
    except (RecursionError, ValueError) as exc:
        # nesting deeper than the recursion limit, or an integer with more
        # digits than the interpreter converts
        raise ParseError(f"bad JSON: {exc}") from None
    return presentation_from_dict(data)
