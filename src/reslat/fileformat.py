"""Reading and writing structure files.

A structure file is JSON with tables keyed by element name.  The order
can be given as covering pairs (any generating relation works), as a
full 0/1 matrix, or implicitly through explicit join and meet tables;
when both an order and explicit tables are present they must agree.
"""

from __future__ import annotations

import json
from pathlib import Path

from .errors import MalformedTables, StructureFileError
from .structure import (
    MAX_ELEMENTS,
    Lattice,
    Structure,
    covers,
    order_from_pairs,
    order_tables,
)


def _name_index(elements) -> dict[str, int]:
    index = {}
    for i, name in enumerate(elements):
        if name in index:
            raise StructureFileError(f"duplicate element name: {name!r}")
        index[name] = i
    return index


def _parse_table(data, field: str, index: dict[str, int]):
    """The rows of an n x n table of element names, as index tuples.

    Each row is looked up with one `map` over `index`.  A cell that is
    not a str never equals a key (an unhashable one raises TypeError), so
    a row fails to map exactly when it holds a cell that is not an element
    name; only then is the row scanned again, to name its first such cell.
    """
    n = len(index)
    if not isinstance(data, list) or len(data) != n:
        raise StructureFileError(f"{field} must be a list of {n} rows")
    rows = []
    lookup = index.__getitem__
    for row in data:
        if not isinstance(row, list) or len(row) != n:
            raise StructureFileError(f"{field} rows must have {n} entries")
        try:
            rows.append(tuple(map(lookup, row)))
        except (KeyError, TypeError):
            bad = next(v for v in row if not isinstance(v, str) or v not in index)
            raise StructureFileError(
                f"{field} entry is not an element name: {bad!r}"
            ) from None
    return tuple(rows)


def _parse_order(data, index: dict[str, int]):
    n = len(index)
    if "order" in data and "leq" in data:
        raise StructureFileError("give order or leq, not both")
    pairs = []
    if "leq" in data:
        matrix = data["leq"]
        if not isinstance(matrix, list) or len(matrix) != n:
            raise StructureFileError(f"leq must be a {n}x{n} 0/1 matrix")
        for x, row in enumerate(matrix):
            if not isinstance(row, list) or len(row) != n:
                raise StructureFileError(f"leq must be a {n}x{n} 0/1 matrix")
            if any(type(v) is not int or v not in (0, 1) for v in row):
                raise StructureFileError(f"leq entries must be 0 or 1, got {row!r}")
            pairs += [(x, y) for y, v in enumerate(row) if v]
    elif not isinstance(data["order"], list):
        raise StructureFileError("order must be a list of [low, high] name pairs")
    for entry in data.get("order", ()):
        if not isinstance(entry, list) or len(entry) != 2:
            raise StructureFileError("order entries must be [low, high] name pairs")
        for v in entry:
            if not isinstance(v, str) or v not in index:
                raise StructureFileError(f"order entry is not an element name: {v!r}")
        pairs.append((index[entry[0]], index[entry[1]]))
    return order_from_pairs(n, pairs)


def _parse_common(data):
    if not isinstance(data, dict):
        raise StructureFileError("structure file must hold a JSON object")
    for field in ("elements", "bot", "top"):
        if field not in data:
            raise StructureFileError(f"missing field: {field}")
    elements = data["elements"]
    if not isinstance(elements, list) or len(elements) < 2:
        raise StructureFileError("elements must list at least two names")
    # Before any order closure or n x n table is built: an order given by
    # covering pairs is linear in n, and those are not.
    if len(elements) > MAX_ELEMENTS:
        raise MalformedTables(f"carrier has more than {MAX_ELEMENTS} elements")
    if not all(isinstance(e, str) for e in elements):
        raise StructureFileError("element names must be strings")
    index = _name_index(elements)
    for field in ("bot", "top"):
        if not isinstance(data[field], str) or data[field] not in index:
            raise StructureFileError(f"{field} is not an element name: {data[field]!r}")
    return elements, index


def _parse_lattice(data, index: dict[str, int]):
    """Join and meet tables from explicit tables, an order, or both."""
    has_tables = "join" in data and "meet" in data
    if not has_tables and ("join" in data or "meet" in data):
        raise StructureFileError("give both join and meet tables, or neither")
    has_order = "order" in data or "leq" in data
    if not has_tables and not has_order:
        raise StructureFileError("give join and meet tables, or an order relation")
    if has_tables:
        tables = (
            _parse_table(data["join"], "join", index),
            _parse_table(data["meet"], "meet", index),
        )
    if has_order:
        derived = order_tables(len(index), _parse_order(data, index), tuple(index))
        if has_tables and derived != tables:
            raise MalformedTables(
                "explicit join/meet tables disagree with the order relation"
            )
        tables = derived
    return tables


def parse_structure(data: dict) -> Structure:
    elements, index = _parse_common(data)
    for field in ("times", "residuum"):
        if field not in data:
            raise StructureFileError(f"missing field: {field}")
    join, meet = _parse_lattice(data, index)
    return Structure(
        n=len(elements),
        names=tuple(elements),
        join=join,
        meet=meet,
        times=_parse_table(data["times"], "times", index),
        residuum=_parse_table(data["residuum"], "residuum", index),
        bot=index[data["bot"]],
        top=index[data["top"]],
    )


def structure_name(data: dict, fallback: str) -> str:
    name = data.get("name", fallback)
    if not isinstance(name, str) or not name:
        raise StructureFileError("name must be a nonempty string")
    return name


def _read_json(path: Path):
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise StructureFileError(f"cannot read {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise StructureFileError(f"{path} is not UTF-8 text: {exc}") from None
    except json.JSONDecodeError as exc:
        raise StructureFileError(f"{path} is not valid JSON: {exc}") from None
    except RecursionError:
        raise StructureFileError(f"{path} nests JSON too deeply") from None


def load_structure(path) -> tuple[Structure, str]:
    """Parse a structure file; returns the structure and its name."""
    path = Path(path)
    data = _read_json(path)
    return parse_structure(data), structure_name(data, path.stem)


def dump_structure(s: Structure, name: str) -> dict:
    """Complete structure file dict; parsing it back gives equal tables."""
    def table(rows):
        return [[s.names[v] for v in row] for row in rows]

    return {
        "name": name,
        "elements": list(s.names),
        "bot": s.names[s.bot],
        "top": s.names[s.top],
        "order": [[s.names[x], s.names[y]] for x, y in covers(s.up)],
        "join": table(s.join),
        "meet": table(s.meet),
        "times": table(s.times),
        "residuum": table(s.residuum),
    }


def load_lattice(path) -> tuple[Lattice, str]:
    """Parse only the lattice part of a structure file.

    The order and tables follow the rules of `parse_structure`: a file
    of more than `MAX_ELEMENTS` elements is refused before they are
    built, and `Lattice` checks the carrier, bot and top as `Structure`
    does; `SearchSpec` checks the lattice axioms.
    """
    path = Path(path)
    data = _read_json(path)
    elements, index = _parse_common(data)
    bot, top = index[data["bot"]], index[data["top"]]
    lat = Lattice(len(elements), tuple(elements), *_parse_lattice(data, index), bot, top)
    return lat, structure_name(data, path.stem)
