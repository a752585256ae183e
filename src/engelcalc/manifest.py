"""JSON manifests for framed spaces, plane fields, and mapping-torus inputs.

Scalar entries are canonical expression strings (see ``trigring.parse``);
rationals serialize as ``"p/q"`` and exact frequencies as
``{"rat": "p/q", "pi": "r/s"}``.  Dumping and re-loading a manifest is exact.
"""

from __future__ import annotations

import json
from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from json.encoder import encode_basestring_ascii as _escape

from .framecalc import ComplexStructure, FramedSpace, VecField
from .trigring import Frequency, parse, rat

__all__ = ["Manifest", "load_manifest", "dump_json", "manifest_from_parts",
           "SECTION_TYPES", "REQUIRED_MEMBERS", "SPACE_SECTIONS"]

# The JSON type of each manifest member, as in docs/manifest.schema.json.  A
# key is a path of member names from the top of the document: "*" stands for
# every entry of an array or every row of an object, so "distribution/*/*"
# is each scalar of each distribution row.  Parents come before children.
SECTION_TYPES = {
    "name": "string",
    "frame": "array",
    "frame/*": "string",
    "coordinates": "array",
    "coordinates/*": "string",
    "structure": "object",
    "structure/*": "array",
    "structure/*/*": "string",
    "derivation": "object",
    "derivation/*": "object",
    "derivation/*/*": "string",
    "periods": "object",
    "periods/*": "object",
    "periods/*/rat": "string",
    "periods/*/pi": "string",
    "complex_structure": "array",
    "complex_structure/*": "array",
    "complex_structure/*/*": "string",
    "distribution": "array",
    "distribution/*": "array",
    "distribution/*/*": "string",
    "parameters": "object",
    "parameters/*": "string",
    "mapping_torus": "object",
    "mapping_torus/coordinate": "string",
    "mapping_torus/V": "array",
    "mapping_torus/V/*": "string",
    "mapping_torus/X": "array",
    "mapping_torus/X/*": "string",
}
# the members the schema requires, as paths of the same form
REQUIRED_MEMBERS = ("frame", "periods/*/rat", "periods/*/pi",
                    "mapping_torus/coordinate", "mapping_torus/V", "mapping_torus/X")
_PY_TYPES = {"string": str, "array": list, "object": Mapping}


@dataclass(frozen=True)
class Manifest:
    name: str
    space: FramedSpace
    J: ComplexStructure | None
    d1: VecField | None
    d2: VecField | None
    parameters: Mapping[str, Fraction]
    mapping_torus: Mapping[str, object] | None  # {"coordinate", "V", "X"}


def _vec_to_json(v: VecField) -> list[str]:
    return [str(c) for c in v.coeffs]


def _vec_from_json(row: list[str], space: FramedSpace, where: str) -> VecField:
    v = VecField.of(*map(parse, row))
    space.require_coordinates(v.coeffs, where)
    return v


def space_to_json(space: FramedSpace) -> dict:
    structure = {}
    for (i, j), v in space.structure.items():
        structure[f"{space.frame[i]},{space.frame[j]}"] = _vec_to_json(v)
    derivation: dict[str, dict[str, str]] = {}
    for i in range(4):
        row = {c: str(s) for c, s in sorted(space.derivation[i].items())}
        if row:
            derivation[space.frame[i]] = row
    out = {
        "frame": list(space.frame),
        "coordinates": list(space.coords),
        "structure": structure,
        "derivation": derivation,
    }
    if space.periods:
        out["periods"] = {c: f.to_json() for c, f in sorted(space.periods.items())}
    return out


def space_from_json(obj: Mapping) -> FramedSpace:
    frame = list(obj["frame"])
    index = {f: i for i, f in enumerate(frame)}

    def frame_index(fname: str, where: str) -> int:
        if fname not in index:
            raise ValueError(f"{where} is not in the frame {frame}")
        return index[fname]

    structure = {}
    for key, comps in obj.get("structure", {}).items():
        names = [f.strip() for f in key.split(",")]
        if len(names) != 2:
            raise ValueError(f"structure key {key!r} must be two frame names "
                             f"joined by one comma, from the frame {frame}")
        i, j = (frame_index(f, f"{f!r} in structure key {key!r}") for f in names)
        if i > j:
            raise ValueError(f"structure key {key!r} must list frame names in order")
        structure[(i, j)] = [parse(c) for c in comps]
    derivation = {}
    for fname, row in obj.get("derivation", {}).items():
        i = frame_index(fname, f"derivation row {fname!r}")
        for coord, s in row.items():
            derivation[(i, coord)] = parse(s)
    periods = {c: Frequency.from_json(p) for c, p in obj.get("periods", {}).items()}
    return FramedSpace(
        frame=frame,
        coords=list(obj.get("coordinates", [])),
        structure=structure,
        derivation=derivation,
        periods=periods or None,
    )


def manifest_from_parts(
    name: str,
    space: FramedSpace,
    J: ComplexStructure | None = None,
    d1: VecField | None = None,
    d2: VecField | None = None,
    parameters: Mapping[str, Fraction] | None = None,
    mapping_torus: Mapping[str, object] | None = None,
) -> dict:
    out = {"name": name, **space_to_json(space)}
    if J is not None:
        out["complex_structure"] = [[str(e) for e in row] for row in J.matrix]
    if d1 is not None and d2 is not None:
        out["distribution"] = [_vec_to_json(d1), _vec_to_json(d2)]
    if parameters:
        out["parameters"] = {k: str(v) for k, v in sorted(parameters.items())}
    if mapping_torus:
        out["mapping_torus"] = {
            "coordinate": mapping_torus["coordinate"],
            "V": _vec_to_json(mapping_torus["V"]),
            "X": _vec_to_json(mapping_torus["X"]),
        }
    return out


def dump_json(doc) -> str:
    """The canonical text of a JSON document, manifest or report: the bytes
    of ``json.dumps(doc, indent=2, sort_keys=True)`` and a newline, written
    in one recursive pass.  Strings go through the C escaper, other scalars
    through ``json.dumps``; object keys must be strings."""
    parts: list[str] = []
    _write_json(doc, "\n", parts)
    parts.append("\n")
    return "".join(parts)


def _write_json(value, newline: str, parts: list[str]) -> None:
    """Append ``value`` as ``json.dumps`` indents it at depth ``newline``."""
    if isinstance(value, str):
        parts.append(_escape(value))
    elif isinstance(value, dict):
        if not value:
            parts.append("{}")
            return
        inner, sep = newline + "  ", "{"
        for key in sorted(value):
            parts += (sep, inner, _escape(key), ": ")
            _write_json(value[key], inner, parts)
            sep = ","
        parts.append(newline + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            parts.append("[]")
            return
        inner, sep = newline + "  ", "["
        for item in value:
            parts += (sep, inner)
            _write_json(item, inner, parts)
            sep = ","
        parts.append(newline + "]")
    else:
        parts.append(json.dumps(value))


def _where(key: str, trail: tuple) -> str:
    """The name, for a diagnostic, of the member at the path ``key`` that
    ``trail`` reaches, the member names and indices from its section down:
    a top-level section by its name, a named member as ``section.member``,
    and an entry of an array or object as a ``row`` when it is itself an
    array or object and as an ``entry`` when it is a string."""
    section, *parts = key.split("/")
    where, prefix = trail[0], section
    for part, name in zip(parts, trail[1:]):
        prefix = f"{prefix}/{part}"
        if part == "*":
            label = "entry" if SECTION_TYPES[prefix] == "string" else "row"
            where = f"{where} {label} {name!r}"
        else:
            where = f"{where}.{part}"
    return where


def _check_members(doc: Mapping) -> None:
    """Raise ValueError naming the first member of the wrong JSON type, or
    else the first required member that is missing.

    One walk: the members at each path of ``SECTION_TYPES`` are found from
    those at its parent path, which come before it and have been checked,
    so every member is visited once, and a name is formed only for the
    member a diagnostic reports.
    """
    # (value, trail) of each member at each path checked so far
    found: dict[str, list[tuple[object, tuple]]] = {}
    for key, kind in SECTION_TYPES.items():
        parent, _, part = key.rpartition("/")
        if not parent:
            members = [(doc[key], (key,))] if key in doc else []
        elif part == "*":
            members = []
            for value, trail in found[parent]:
                items = value.items() if isinstance(value, Mapping) else enumerate(value)
                members += [(v, trail + (k,)) for k, v in items]
        else:
            members = [(value[part], trail + (part,)) for value, trail in found[parent]
                       if part in value]
        for value, trail in members:
            if not isinstance(value, _PY_TYPES[kind]):
                where = _where(key, trail)
                if not parent:
                    where = f"section {where!r}"
                raise ValueError(f"{where} must be a JSON {kind}")
        found[key] = members
    for key in REQUIRED_MEMBERS:
        parent, _, member = key.rpartition("/")
        owners = found[parent] if parent else [(doc, None)]
        for owner, trail in owners:
            if member not in owner:
                where = _where(parent, trail) if parent else "the manifest"
                raise ValueError(f"{where} has no member {member!r}")


# the sections that make a manifest's space and J, and how many distinct
# texts of them load_manifest keeps a shared space and J for
SPACE_SECTIONS = ("frame", "coordinates", "structure", "derivation", "periods",
                  "complex_structure")
SPACE_CACHE_SIZE = 32


def _space_key(doc: Mapping) -> str:
    """The JSON text of ``doc``'s space sections, each member in document
    order, so that the space built from the text is the one the document
    describes (a structure entry written twice keeps its last value)."""
    return json.dumps({k: doc[k] for k in SPACE_SECTIONS if k in doc}, default=dict)


@lru_cache(maxsize=SPACE_CACHE_SIZE)
def _shared_space(key: str) -> tuple[FramedSpace, ComplexStructure | None]:
    """The space and J of the space sections in ``key``, shared by every
    manifest whose sections have that text; a construction error (the
    Jacobi identity, J*J = -id, a foreign coordinate) is raised again on
    the next load, since lru_cache stores returns only."""
    sections = json.loads(key)
    space = space_from_json(sections)
    J = None
    if "complex_structure" in sections:
        matrix = [list(map(parse, row)) for row in sections["complex_structure"]]
        for i, row in enumerate(matrix):
            space.require_coordinates(row, f"complex_structure row {i}")
        J = ComplexStructure(matrix)
    return space, J


def load_manifest(doc: Mapping | str) -> Manifest:
    """Parse a manifest document (dict or JSON text) into exact objects.

    The JSON type of each member is checked against ``SECTION_TYPES``, and
    the presence of each of ``REQUIRED_MEMBERS``, before anything is parsed.
    A scalar that names a symbol outside ``coordinates`` is malformed, in
    any member (``FramedSpace.require_coordinates``).  Manifests with equal
    ``SPACE_SECTIONS`` share one read-only space and J, which carry no
    manifest's name; the distribution, the mapping-torus fields, the
    parameters and the name are parsed for each manifest.
    """
    if isinstance(doc, str):
        doc = json.loads(doc)
    if not isinstance(doc, Mapping):
        raise ValueError("a manifest must be a JSON object")
    _check_members(doc)
    space, J = _shared_space(_space_key(doc))
    d1 = d2 = None
    if "distribution" in doc:
        rows = doc["distribution"]
        if len(rows) != 2:
            raise ValueError("distribution must list exactly two generators")
        d1, d2 = (_vec_from_json(row, space, f"distribution row {i}")
                  for i, row in enumerate(rows))
    parameters = {k: rat(v) for k, v in doc.get("parameters", {}).items()}
    mapping_torus = None
    if "mapping_torus" in doc:
        mt = doc["mapping_torus"]
        mapping_torus = {
            "coordinate": mt["coordinate"],
            "V": _vec_from_json(mt["V"], space, "mapping_torus.V"),
            "X": _vec_from_json(mt["X"], space, "mapping_torus.X"),
        }
    return Manifest(doc.get("name", ""), space, J, d1, d2, parameters, mapping_torus)
