import copy
import json
from pathlib import Path

import jsonschema
import pytest
from hypothesis import example, given, settings, strategies as st

from engelcalc.catalog import FAMILIES, build_family
from engelcalc.cli import emit_report, run_verify
from engelcalc.geiges import flat_torus_input
from engelcalc.manifest import (
    REQUIRED_MEMBERS,
    SECTION_TYPES,
    dump_json,
    load_manifest,
    manifest_from_parts,
)

ROOT = Path(__file__).resolve().parent.parent
REPORT_SCHEMA = json.loads((ROOT / "docs" / "report.schema.json").read_text())
MANIFEST_SCHEMA = json.loads((ROOT / "docs" / "manifest.schema.json").read_text())


# the pinned sampled reports carry the SAMPLED certificate fields (grid,
# bound, tolerance, witness_point) that no golden report reaches
SAMPLED_REPORTS = ("sampled_clear_1coord", "sampled_zero_off_grid_4coord",
                   "sampled_two_direction_3coord")
PINNED_REPORTS = [*(ROOT / "reports" / "golden" / f"{family}.json" for family in FAMILIES),
                  *(ROOT / "tests" / "fixtures" / f"{stem}.report.json"
                    for stem in SAMPLED_REPORTS)]


@pytest.mark.parametrize("path", PINNED_REPORTS, ids=lambda p: p.stem)
def test_golden_reports_validate_against_schema(path):
    jsonschema.validate(json.loads(path.read_text()), REPORT_SCHEMA)


def test_fresh_report_validates_for_suite_subset():
    doc = json.loads(emit_report(run_verify("hopf_s3r", suites=("engel", "kengel")),
                                 "json"))
    jsonschema.validate(doc, REPORT_SCHEMA)


def test_zero_tolerance_report_validates():
    doc = json.loads(emit_report(run_verify("hopf_s3r", tol=0.0), "json"))
    assert doc["tolerance"] == 0.0
    jsonschema.validate(doc, REPORT_SCHEMA)


@pytest.mark.parametrize("family", FAMILIES)
def test_catalog_manifests_validate_against_schema(family):
    spec = build_family(family)
    doc = manifest_from_parts(spec.family, spec.space, spec.J, spec.d1, spec.d2,
                              spec.parameters)
    json_doc = json.loads(dump_json(doc))
    jsonschema.validate(json_doc, MANIFEST_SCHEMA)


def test_mapping_torus_manifest_validates():
    inp = flat_torus_input()
    doc = manifest_from_parts(
        "flat", inp.space, inp.J, parameters={},
        mapping_torus={"coordinate": "t", "V": inp.V, "X": inp.X})
    jsonschema.validate(json.loads(dump_json(doc)), MANIFEST_SCHEMA)


def test_schema_rejects_malformed_report():
    doc = json.loads(emit_report(run_verify("hopf_s3r", suites=("engel",)),
                                 "json"))
    doc["overall"] = "MAYBE"
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(doc, REPORT_SCHEMA)


def _schema_members(spec, path=()):
    """The JSON type at each member path of a schema, and the required paths,
    in the path form of ``SECTION_TYPES`` ("*" for each entry or row)."""
    ref = spec.get("$ref")
    if ref:
        spec = MANIFEST_SCHEMA["$defs"][ref.rpartition("/")[2]]
    types = {"/".join(path): spec["type"]} if path else {}
    required = ["/".join((*path, m)) for m in spec.get("required", ())]
    children = list(spec.get("properties", {}).items())
    for key in ("items", "additionalProperties"):
        if isinstance(spec.get(key), dict):
            children.append(("*", spec[key]))
    for name, sub in children:
        sub_types, sub_required = _schema_members(sub, (*path, name))
        types.update(sub_types)
        required += sub_required
    return types, required


def test_section_types_agree_with_manifest_schema():
    types, required = _schema_members(MANIFEST_SCHEMA)
    assert SECTION_TYPES == types
    assert sorted(REQUIRED_MEMBERS) == sorted(required)
    # a parent is checked before its members
    keys = list(SECTION_TYPES)
    for k, key in enumerate(keys):
        parent = key.rpartition("/")[0]
        assert not parent or parent in keys[:k]


# one valid value of each section, every member present
_VALID = {
    "name": "valid",
    "frame": ["a", "b", "c", "d"],
    "coordinates": ["x"],
    "structure": {"a,b": ["0", "0", "0", "0"]},
    "derivation": {"a": {"x": "1"}},
    "periods": {"x": {"rat": "0", "pi": "2"}},
    "complex_structure": [["0", "-1", "0", "0"], ["1", "0", "0", "0"],
                          ["0", "0", "0", "-1"], ["0", "0", "1", "0"]],
    "distribution": [["1", "0", "0", "0"], ["0", "1", "0", "0"]],
    "parameters": {"k": "1/2"},
    "mapping_torus": {"coordinate": "x", "V": ["1", "0", "0", "0"],
                      "X": ["0", "0", "1", "0"]},
}


def _owner(doc, path):
    """The object or array holding the member at ``path``, and its key there;
    "*" picks the first entry or row."""
    *parents, last = path.split("/")
    for part in parents:
        doc = doc[_pick(doc, part)]
    return doc, _pick(doc, last)


def _pick(doc, part):
    if part != "*":
        return part
    return 0 if isinstance(doc, list) else next(iter(doc))


def test_valid_manifest_loads():
    jsonschema.validate(_VALID, MANIFEST_SCHEMA)
    assert load_manifest(_VALID).name == "valid"


def _with_wrong_type(key):
    """A manifest that is valid but for the JSON type at ``key``."""
    doc = copy.deepcopy(_VALID)
    owner, member = _owner(doc, key)
    owner[member] = 7 if SECTION_TYPES[key] == "string" else "7"
    return doc


@pytest.mark.parametrize("key", SECTION_TYPES)
def test_schema_and_loader_reject_each_wrong_section_type(key):
    section = key.partition("/")[0]
    doc = _with_wrong_type(key)
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(doc, MANIFEST_SCHEMA)
    with pytest.raises(ValueError, match=f"{section}.* must be a JSON"):
        load_manifest(doc)


@pytest.mark.parametrize("key", REQUIRED_MEMBERS)
def test_schema_and_loader_reject_each_missing_member(key):
    doc = copy.deepcopy(_VALID)
    owner, member = _owner(doc, key)
    del owner[member]
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(doc, MANIFEST_SCHEMA)
    with pytest.raises(ValueError, match=f"has no member '{member}'"):
        load_manifest(doc)


# -- the canonical JSON writer ------------------------------------------------


def _json_dumps(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


_JSON_SCALARS = (st.none() | st.booleans()
                 | st.integers(min_value=-10 ** 40, max_value=10 ** 40)
                 | st.floats(allow_nan=True, allow_infinity=True) | st.text())
_JSON_DOCS = st.recursive(
    _JSON_SCALARS,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.lists(inner, max_size=4).map(tuple)
                   | st.dictionaries(st.text(max_size=8), inner, max_size=4)),
    max_leaves=30)


@settings(max_examples=300, deadline=None)
@given(_JSON_DOCS)
@example({})
@example([])
@example(())
@example({"a": {}, "b": [], "c": (), "d": [[], {}, ((),)]})
@example([-0.0, 0.0, float("nan"), float("inf"), float("-inf"), 1e300, 5e-324])
@example({"big": 10 ** 100, "neg": -(10 ** 100), "bool": [True, False, None]})
@example({"\u00e9t\u00e9": "\u03b1 \u2227 d\u03b1 \U0001d400 \"q\" \\ \n\t\x00\x7f",
          "z": {"": "", "y": ("\ud800",)}})
def test_dump_json_writes_the_bytes_of_json_dumps(doc):
    assert dump_json(doc) == _json_dumps(doc)


@pytest.mark.parametrize("path", PINNED_REPORTS, ids=lambda p: p.stem)
def test_dump_json_rewrites_each_pinned_report_byte_for_byte(path):
    text = path.read_text()
    assert dump_json(json.loads(text)) == text


def test_dump_json_raises_on_what_it_cannot_write():
    # values json.dumps cannot encode, and object keys that are not strings,
    # which json.dumps would convert
    for doc in ({"a": object()}, [1j], {1: "key that is not a string"}):
        with pytest.raises(TypeError):
            dump_json(doc)
