"""JSON manifests for framed spaces, plane fields, and mapping-torus inputs.

Scalar entries are canonical expression strings (see ``trigring.parse``);
rationals serialize as ``"p/q"`` and exact frequencies as
``{"rat": "p/q", "pi": "r/s"}``.  Dumping and re-loading a manifest is exact.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .framecalc import ComplexStructure, FramedSpace, VecField
from .trigring import Frequency, parse, rat

__all__ = ["Manifest", "load_manifest", "dump_manifest", "manifest_from_parts",
           "SECTION_TYPES"]

# The JSON type of each manifest section, as in docs/manifest.schema.json;
# "frame/*" stands for each entry of the frame, "derivation/*" for each row
# of the derivation section, and "mapping_torus/coordinate" for that member.
SECTION_TYPES = {
    "name": "string",
    "frame": "array",
    "frame/*": "string",
    "coordinates": "array",
    "coordinates/*": "string",
    "structure": "object",
    "derivation": "object",
    "derivation/*": "object",
    "periods": "object",
    "complex_structure": "array",
    "distribution": "array",
    "parameters": "object",
    "mapping_torus": "object",
    "mapping_torus/coordinate": "string",
}
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


def _row_from_json(row, where: str) -> list:
    """The parsed scalars of a JSON array; a string is not read as one."""
    if not isinstance(row, list):
        raise ValueError(f"{where} must be a JSON array")
    return [parse(str(c)) for c in row]


def _vec_from_json(row, where: str) -> VecField:
    return VecField.of(*_row_from_json(row, where))


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


def space_from_json(obj: Mapping, name: str = "") -> FramedSpace:
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
        structure[(i, j)] = [parse(str(c)) for c in comps]
    derivation = {}
    for fname, row in obj.get("derivation", {}).items():
        i = frame_index(fname, f"derivation row {fname!r}")
        for coord, s in row.items():
            derivation[(i, coord)] = parse(str(s))
    periods = {c: Frequency.from_json(p) for c, p in obj.get("periods", {}).items()}
    return FramedSpace(
        frame=frame,
        coords=list(obj.get("coordinates", [])),
        structure=structure,
        derivation=derivation,
        periods=periods or None,
        name=name,
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


def dump_manifest(doc: Mapping) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _check_section_types(doc: Mapping) -> None:
    """Raise ValueError naming the first section or entry of the wrong JSON type."""
    for key, kind in SECTION_TYPES.items():
        section, _, member = key.partition("/")
        if section not in doc:
            continue
        value = doc[section]
        if not member:
            values = [(f"section {section!r}", value)]
        elif member != "*":
            values = [(f"{section}.{member}", value[member])] if member in value else []
        elif isinstance(value, Mapping):
            values = [(f"{section} row {row!r}", v) for row, v in value.items()]
        else:
            values = [(f"{section} entry {k}", v) for k, v in enumerate(value)]
        for where, v in values:
            if not isinstance(v, _PY_TYPES[kind]):
                raise ValueError(f"{where} must be a JSON {kind}")


def load_manifest(doc: Mapping | str) -> Manifest:
    """Parse a manifest document (dict or JSON text) into exact objects.

    The JSON type of each section is checked against ``SECTION_TYPES``
    before anything is parsed, and each vector row is checked to be an array
    as it is read.
    """
    if isinstance(doc, str):
        doc = json.loads(doc)
    if not isinstance(doc, Mapping):
        raise ValueError("a manifest must be a JSON object")
    _check_section_types(doc)
    name = str(doc.get("name", ""))
    space = space_from_json(doc, name=name)
    J = None
    if "complex_structure" in doc:
        J = ComplexStructure([_row_from_json(row, f"complex_structure row {k}")
                              for k, row in enumerate(doc["complex_structure"])])
    d1 = d2 = None
    if "distribution" in doc:
        rows = doc["distribution"]
        if len(rows) != 2:
            raise ValueError("distribution must list exactly two generators")
        d1, d2 = (_vec_from_json(row, f"distribution row {k}")
                  for k, row in enumerate(rows))
    parameters = {k: rat(str(v)) for k, v in doc.get("parameters", {}).items()}
    mapping_torus = None
    if "mapping_torus" in doc:
        mt = doc["mapping_torus"]
        mapping_torus = {
            "coordinate": mt["coordinate"],
            "V": _vec_from_json(mt["V"], "mapping_torus.V"),
            "X": _vec_from_json(mt["X"], "mapping_torus.X"),
        }
    return Manifest(name, space, J, d1, d2, parameters, mapping_torus)
