import json
from pathlib import Path

import jsonschema
import pytest

from engelcalc.catalog import FAMILIES, build_family
from engelcalc.cli import emit_report, run_verify
from engelcalc.geiges import flat_torus_input
from engelcalc.manifest import (
    SECTION_TYPES,
    dump_manifest,
    load_manifest,
    manifest_from_parts,
)

ROOT = Path(__file__).resolve().parent.parent
REPORT_SCHEMA = json.loads((ROOT / "docs" / "report.schema.json").read_text())
MANIFEST_SCHEMA = json.loads((ROOT / "docs" / "manifest.schema.json").read_text())


@pytest.mark.parametrize("family", FAMILIES)
def test_golden_reports_validate_against_schema(family):
    doc = json.loads((ROOT / "reports" / "golden" / f"{family}.json").read_text())
    jsonschema.validate(doc, REPORT_SCHEMA)


def test_fresh_report_validates_for_suite_subset():
    doc = json.loads(emit_report(run_verify("hopf_s3r", suites=("engel", "kengel")),
                                 "json"))
    jsonschema.validate(doc, REPORT_SCHEMA)


@pytest.mark.parametrize("family", FAMILIES)
def test_catalog_manifests_validate_against_schema(family):
    spec = build_family(family)
    doc = manifest_from_parts(spec.family, spec.space, spec.J, spec.d1, spec.d2,
                              spec.parameters)
    json_doc = json.loads(dump_manifest(doc))
    jsonschema.validate(json_doc, MANIFEST_SCHEMA)


def test_mapping_torus_manifest_validates():
    inp = flat_torus_input()
    doc = manifest_from_parts(
        "flat", inp.space, inp.J, parameters={},
        mapping_torus={"coordinate": "t", "V": inp.V, "X": inp.X})
    jsonschema.validate(json.loads(dump_manifest(doc)), MANIFEST_SCHEMA)


def test_schema_rejects_malformed_report():
    doc = json.loads(emit_report(run_verify("hopf_s3r", suites=("engel",)),
                                 "json"))
    doc["overall"] = "MAYBE"
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(doc, REPORT_SCHEMA)


def test_section_types_agree_with_manifest_schema():
    props = MANIFEST_SCHEMA["properties"]
    expected = {key: spec["type"] for key, spec in props.items()}
    expected["derivation/*"] = props["derivation"]["additionalProperties"]["type"]
    expected["frame/*"] = props["frame"]["items"]["type"]
    expected["coordinates/*"] = props["coordinates"]["items"]["type"]
    expected["mapping_torus/coordinate"] = \
        props["mapping_torus"]["properties"]["coordinate"]["type"]
    assert SECTION_TYPES == expected


def _with_wrong_type(key):
    """A manifest that is valid but for the JSON type at ``key``."""
    section, _, member = key.partition("/")
    wrong = 7 if SECTION_TYPES[key] == "string" else "7"
    doc = {"frame": ["a", "b", "c", "d"]}
    if not member:
        doc[section] = wrong
    elif member != "*":
        vector = ["0", "0", "0", "0"]
        doc[section] = {"coordinate": "x", "V": vector, "X": vector, member: wrong}
    elif SECTION_TYPES[section] == "array":
        doc[section] = [wrong] * 4
    else:
        doc[section] = {"a": wrong}
    return doc


@pytest.mark.parametrize("key", SECTION_TYPES)
def test_schema_and_loader_reject_each_wrong_section_type(key):
    section = key.partition("/")[0]
    doc = _with_wrong_type(key)
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(doc, MANIFEST_SCHEMA)
    with pytest.raises(ValueError, match=f"{section}.* must be a JSON"):
        load_manifest(doc)
