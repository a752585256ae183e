import dataclasses
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings, strategies as st

from engelcalc import catalog, cli
from engelcalc.catalog import FAMILIES, build_family
from engelcalc.cli import emit_report, main, run_verify
from engelcalc.engelcheck import Derivation
from engelcalc.framecalc import VecField, bracket, certify_nonvanishing
from engelcalc.manifest import dump_json, load_manifest, manifest_from_parts
from engelcalc.trigring import ONE

from oracles import rescaled_reeb_direction

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = Path(__file__).parent / "fixtures"
MANIFEST_SCHEMA = json.loads((ROOT / "docs" / "manifest.schema.json").read_text())


def run_cli(*args):
    # the child imports the same source tree as this process
    path = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "engelcalc.cli", *args],
                          capture_output=True, text=True, cwd=ROOT,
                          env={**os.environ, "PYTHONPATH": path})


def test_catalog_list_names_all_families():
    res = run_cli("catalog", "list")
    assert res.returncode == 0
    for fam in FAMILIES:
        assert fam in res.stdout


def test_catalog_show_round_trips(tmp_path):
    res = run_cli("catalog", "show", "inoue_spm", "--params", "q=3/2")
    assert res.returncode == 0
    mf = load_manifest(res.stdout)
    spec = build_family("inoue_spm", {"q": "3/2"})
    assert mf.d1 == spec.d1 and mf.d2 == spec.d2
    assert mf.J.matrix == spec.J.matrix
    assert mf.space.frame == spec.space.frame
    # dumping the loaded manifest reproduces the bytes
    doc = manifest_from_parts(spec.family, spec.space, spec.J, spec.d1, spec.d2,
                              spec.parameters)
    assert dump_json(doc) == res.stdout


def test_verify_hopf_all_suites_passes():
    rep = run_verify("hopf_s3r")
    assert rep.overall == "PASS"
    names = {r.name: r.status for r in rep.records}
    assert names["kengel.commutators"] == "PASS"
    assert names["engel.bracket.[A,[A,JA]]"] == "DEVIATION"


def test_verify_inoue_s0_kengel_fails_with_exit_code():
    rep = run_verify("inoue_s0", suites=("kengel",))
    assert rep.overall == "FAIL"
    res = run_cli("verify", "inoue_s0", "--suite", "kengel")
    assert res.returncode == 1


def test_deviation_does_not_fail_the_run():
    rep = run_verify("kodaira_primary", suites=("engel",))
    statuses = {r.name: r.status for r in rep.records}
    assert statuses["engel.bracket.[A,JA]"] == "DEVIATION"
    assert rep.overall == "PASS"
    res = run_cli("verify", "kodaira_primary", "--suite", "engel")
    assert res.returncode == 0


def test_deviation_record_carries_both_values():
    rep = run_verify("kodaira_primary", suites=("engel",))
    rec = next(r for r in rep.records if r.name == "engel.bracket.[A,JA]")
    assert "computed" in rec.notes and "quoted" in rec.notes
    assert "-1" in rec.notes  # computed third component


def test_abelian_fixture_fails_engel_with_witness():
    rep = run_verify(str(FIXTURES / "abelian.json"), suites=("engel",))
    assert rep.overall == "FAIL"
    rec = next(r for r in rep.records if r.name == "engel.rank_e")
    assert rec.status == "FAIL"
    assert rec.certificate.witness == "identically zero"


# The goldens never leave the SYMBOLIC path, so these rescaled torus manifests
# (the bench's ``sampled`` kind) pin the float bits of SAMPLED and FAILED
# bounds, which follow the canonical term order of each witness: a
# 1-coordinate clear case, a 4-coordinate zero off the grid (residue route),
# and a witness of two directions in x2 and y2, with the twist in x1, which
# ``sample_grid`` evaluates point by point.
SAMPLED_FIXTURES = ("sampled_clear_1coord", "sampled_zero_off_grid_4coord",
                    "sampled_two_direction_3coord")


@pytest.mark.parametrize("stem", SAMPLED_FIXTURES)
def test_sampled_reports_are_byte_stable(stem):
    rep = run_verify(str(FIXTURES / f"{stem}.json"), ("engel", "geiges"), grid=11)
    want = (FIXTURES / f"{stem}.report.json").read_text()
    assert emit_report(rep, "json") == want


# prints every catalog report and each pinned sampled report named on its
# command line, as one JSON object
_ALL_REPORTS = """
import json, sys
from engelcalc.catalog import FAMILIES
from engelcalc.cli import emit_report, run_verify
out = {fam: emit_report(run_verify(fam), "json") for fam in FAMILIES}
for stem in sys.argv[1:]:
    out[stem] = emit_report(run_verify(f"tests/fixtures/{stem}.json",
                                       ("engel", "geiges"), grid=11), "json")
print(json.dumps(out))
"""


@pytest.mark.parametrize("hash_seed", ["0", "1"])
def test_reports_do_not_depend_on_the_hash_seed(hash_seed):
    # set and dict layouts follow the hash seed; the reports must not
    path = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH")]))
    res = subprocess.run(
        [sys.executable, "-c", _ALL_REPORTS, *SAMPLED_FIXTURES],
        capture_output=True, text=True, cwd=ROOT, check=True,
        env={**os.environ, "PYTHONPATH": path, "PYTHONHASHSEED": hash_seed})
    reports = json.loads(res.stdout)
    for fam in FAMILIES:
        assert reports[fam] == (ROOT / "reports" / "golden" / f"{fam}.json").read_text()
    for stem in SAMPLED_FIXTURES:
        assert reports[stem] == (FIXTURES / f"{stem}.report.json").read_text()


def test_one_scalar_gets_one_bound_whatever_its_route():
    # alpha(K_R) = -beta(K_T) = the top coefficient of alpha ^ beta ^ d(beta)
    # is one exact scalar, reached by three routes that insert its terms in
    # different orders; its bound must not depend on the route
    mf = load_manifest((FIXTURES / "sampled_clear_1coord.json").read_text())
    forms = Derivation(mf.d1, mf.d2, mf.J, mf.space, grid=11).forms
    routes = (forms.abdb,
              forms.alpha(rescaled_reeb_direction(forms.beta, ONE, mf.space)),
              -forms.beta(forms.k_t))
    assert all(witness == forms.abdb for witness in routes)
    bounds = [certify_nonvanishing(witness, mf.space, 11).bound
              for witness in routes]
    assert bounds[0] is not None and bounds == bounds[:1] * 3


# every scalar member of a manifest, as a path into the document
SCALAR_MEMBERS = ([("distribution", i, j) for i in range(2) for j in range(4)]
                  + [("complex_structure", i, j) for i in range(4) for j in range(4)]
                  + [("mapping_torus", v, j) for v in ("V", "X") for j in range(4)])
FOREIGN_SYMBOLS = st.from_regex(r"[a-z][a-z0-9_]{0,3}", fullmatch=True).filter(
    lambda sym: sym not in ("sin", "cos", "pi", "x1", "y1", "x2", "y2"))


def _member_label(section, row, entry):
    if section == "mapping_torus":
        return f"mapping_torus.{row} entry {entry}"
    return f"{section} row {row} entry {entry}"


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(SCALAR_MEMBERS), FOREIGN_SYMBOLS)
def test_a_foreign_symbol_in_any_scalar_is_malformed(member, symbol):
    # one symbol outside the declared coordinates, in any scalar member,
    # ends the run with one error line naming the symbol and the member
    doc = json.loads((FIXTURES / "sampled_clear_1coord.json").read_text())
    section, row, entry = member
    vector = doc[section][row]
    vector[entry] = f"({vector[entry]}) + cos(2*pi*{symbol})"
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "foreign.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(SystemExit) as exc:
            main(["verify", str(path), "--suite", "engel"])
    message = str(exc.value.code)
    assert message.startswith("error: malformed manifest") and "\n" not in message
    assert f"{_member_label(*member)} uses undeclared coordinate {symbol!r}" in message


def test_foreign_symbol_exits_with_one_error_line(tmp_path):
    doc = json.loads((FIXTURES / "sampled_clear_1coord.json").read_text())
    doc["distribution"][1] = ["0", "1", "cos(2*pi*zz)", "sin(2*pi*zz)"]
    path = tmp_path / "foreign.json"
    path.write_text(json.dumps(doc))
    res = run_cli("verify", str(path), "--suite", "engel")
    assert res.returncode == 1 and res.stdout == ""
    assert res.stderr.splitlines() == [
        f"error: malformed manifest {path}: distribution row 1 entry 2 uses "
        f"undeclared coordinate 'zz'"]


def test_catalog_builders_check_their_coordinates():
    spec = build_family("torus_trig")
    with pytest.raises(ValueError, match="torus_trig D1 entry 2 uses undeclared "
                                         "coordinate 'zz'"):
        dataclasses.replace(spec, d1=VecField.of(1, 0, "cos(zz)", 0))


def test_unresolvable_target_errors():
    res = run_cli("verify", "not_a_family_or_file")
    assert res.returncode != 0
    assert "neither" in res.stderr


BAD_CATALOG_INPUT = {
    "unknown_family": ("nosuch", "", "unknown family 'nosuch'; known: torus_trig"),
    "non_rational": ("torus_trig", "alpha1=abc",
                     "torus_trig parameter alpha1=abc is not an exact rational"),
    "zero_denominator": ("torus_trig", "alpha1=1/0",
                         "torus_trig parameter alpha1=1/0 is not an exact rational"),
    "unclassified_order": ("hyperelliptic_product", "k=5",
                           "hyperelliptic_product requires k in {2, 3, 4, 6}"),
    "unknown_key": ("torus_trig", "bogus=1",
                    "unknown parameter 'bogus' for torus_trig; it takes alpha1, "
                    "alpha2, alpha3"),
    "key_of_another_family": ("hopf_s3r", "k=3",
                              "unknown parameter 'k' for hopf_s3r; it takes none"),
}


# verify reads a name that is no family as a manifest path (see
# test_unresolvable_target_errors)
BAD_CATALOG_RUNS = [(verb, case) for case in BAD_CATALOG_INPUT
                    for verb in ("verify", "catalog show")
                    if (verb, case) != ("verify", "unknown_family")]


@pytest.mark.parametrize("verb, case", BAD_CATALOG_RUNS,
                         ids=[f"{verb.replace(' ', '_')}-{case}"
                              for verb, case in BAD_CATALOG_RUNS])
def test_bad_catalog_input_diagnostics(capsys, verb, case):
    family, params, expected = BAD_CATALOG_INPUT[case]
    argv = [*verb.split(), family, *(["--params", params] if params else [])]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code.startswith(f"error: {expected}")
    assert "\n" not in exc.value.code
    assert capsys.readouterr().out == ""


def test_a_parameter_given_twice_is_an_error():
    # the later value does not silently replace the earlier one
    for verb in (["verify", "inoue_spm", "--suite", "engel"],
                 ["catalog", "show", "inoue_spm"]):
        res = run_cli(*verb, "--params", "q=1,q=-3")
        assert res.returncode == 1 and res.stdout == "", verb
        assert res.stderr == "error: parameter 'q' given twice\n", verb


def test_a_failing_builder_invariant_is_an_error(monkeypatch, capsys, cold_caches):
    # a J that turns the rotation block the wrong way breaks the
    # hyperelliptic_product builder's own check
    monkeypatch.setattr(catalog, "_CONJUGATE_J", catalog._STANDARD_J)
    for argv in (["catalog", "show", "hyperelliptic_product"],
                 ["verify", "hyperelliptic_product", "--suite", "engel"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == ("error: hyperelliptic rotation block "
                                  "incompatible with J"), argv
    assert capsys.readouterr().out == ""


def test_catalog_list_takes_no_family_or_params():
    for extra in (["hopf_s3r"], ["--params", "q=1"], ["hopf_s3r", "--params", "q=1"]):
        res = run_cli("catalog", "list", *extra)
        assert res.returncode == 1 and res.stdout == "", extra
        assert res.stderr == "error: catalog list takes no family or --params\n", extra


def test_an_unwritable_json_path_is_an_error(tmp_path):
    # the report is printed, then the failed write ends the run with one line
    path = tmp_path / "missing" / "out.json"
    for argv in (["verify", "hopf_s3r", "--suite", "engel"],
                 ["geiges", "--builtin", "flat"]):
        res = run_cli(*argv, "--json", str(path))
        assert res.returncode == 1 and res.stdout, argv
        assert res.stderr == (f"error: cannot write report {path}: "
                              f"No such file or directory\n"), argv


def test_bad_catalog_input_ends_without_traceback():
    res = run_cli("catalog", "show", "nosuch")
    assert res.returncode == 1
    assert res.stderr.startswith("error: unknown family 'nosuch'")
    assert "Traceback" not in res.stderr and res.stderr.count("\n") == 1


def test_params_on_a_manifest_target_rejected():
    # a manifest carries its own parameters; nothing would read these
    res = run_cli("verify", "demos/manifests/twisted_torus.json", "--params", "bogus=1")
    assert res.returncode == 1
    assert res.stderr.startswith("error: --params applies to catalog families only")
    assert "Traceback" not in res.stderr and res.stderr.count("\n") == 1
    assert res.stdout == ""


def test_manifest_report_carries_its_own_parameters(tmp_path):
    spec = build_family("torus_trig")
    doc = manifest_from_parts("torus_slopes", spec.space, spec.J, spec.d1, spec.d2)
    doc["parameters"] = {"alpha1": "1", "alpha2": "1", "alpha3": "2/3"}
    path = tmp_path / "torus_slopes.json"
    path.write_text(json.dumps(doc))
    rep = run_verify(str(path), suites=("engel",))
    assert rep.to_json()["parameters"] == doc["parameters"]
    assert "parameters: alpha1=1, alpha2=1, alpha3=2/3" in emit_report(rep, "text")


def _flat_torus_manifest(**mapping_torus):
    from engelcalc.geiges import flat_torus_input

    inp = flat_torus_input()
    return manifest_from_parts(
        "flat", inp.space, inp.J, parameters={},
        mapping_torus={"coordinate": "t", "V": inp.V, "X": inp.X, **mapping_torus})


def _manifest_without(key):
    doc = _flat_torus_manifest()
    del doc[key]
    return doc


HOSTILE_MANIFESTS = {
    "two_frame_names": lambda: {"frame": ["a", "b"]},
    "not_an_object": lambda: [],
    "missing_file": None,
    "mapping_torus_without_j": lambda: _manifest_without("complex_structure"),
    "no_mapping_torus": lambda: _manifest_without("mapping_torus"),
    "v_of_t_not_one": lambda: _flat_torus_manifest(V=VecField.basis(1)),
}


def _with_torus_vector(key, value):
    doc = _flat_torus_manifest()
    doc["mapping_torus"] = {**doc["mapping_torus"], key: value}
    return doc


_FRAME = ["a", "b", "c", "d"]
# manifest sections of the wrong JSON type, and the section each names
WRONG_TYPE_MANIFESTS = {
    "structure_list": ({"frame": _FRAME, "structure": []}, "'structure'"),
    "derivation_list": ({"frame": _FRAME, "derivation": []}, "'derivation'"),
    "derivation_row_list": ({"frame": _FRAME, "derivation": {"a": ["1"]}},
                            "derivation row 'a'"),
    "periods_list": ({"frame": _FRAME, "periods": []}, "'periods'"),
    "parameters_list": ({"frame": _FRAME, "parameters": []}, "'parameters'"),
    "coordinates_string": ({"frame": _FRAME, "coordinates": "xy"},
                           "'coordinates'"),
    "mapping_torus_list": ({**_flat_torus_manifest(), "mapping_torus": []},
                           "'mapping_torus'"),
    # a vector given as a string is not read character by character
    "distribution_row_string": ({**_flat_torus_manifest(),
                                 "distribution": ["1000", ["0", "1", "0", "0"]]},
                                "distribution row 0"),
    "complex_structure_row_string": (
        {**_flat_torus_manifest(),
         "complex_structure": [["0", "-1", "0", "0"], ["1", "0", "0", "0"],
                               "000-1", ["0", "0", "1", "0"]]},
        "complex_structure row 2"),
    "mapping_torus_v_string": (_with_torus_vector("V", "1000"), "mapping_torus.V"),
    "mapping_torus_x_string": (_with_torus_vector("X", "0010"), "mapping_torus.X"),
    # names are JSON strings, not coerced to one
    "frame_numbers": ({"frame": [1, 2, 3, 4]}, "frame entry 0"),
    "coordinate_number": ({"frame": _FRAME, "coordinates": ["x", 2]},
                          "coordinates entry 1"),
    "mapping_torus_coordinate_number": (_with_torus_vector("coordinate", 0),
                                        "mapping_torus.coordinate"),
    "structure_key_without_comma": (
        {"frame": _FRAME, "structure": {"ab": ["0", "0", "0", "0"]}},
        "structure key 'ab'"),
    "structure_key_two_commas": (
        {"frame": _FRAME, "structure": {"a,b,c": ["0", "0", "0", "0"]}},
        "structure key 'a,b,c'"),
    # scalars are JSON strings, not coerced to one
    "distribution_numbers": ({**_flat_torus_manifest(),
                              "distribution": [[1, 0, 0, 0], ["0", "1", "0", "0"]]},
                             "distribution row 0 entry 0"),
    "complex_structure_number": (
        {**_flat_torus_manifest(),
         "complex_structure": [["0", "-1", "0", "0"], ["1", "0", "0", "0"],
                               ["0", "0", "0", -1], ["0", "0", "1", "0"]]},
        "complex_structure row 2 entry 3"),
    "mapping_torus_x_numbers": (_with_torus_vector("X", [0, 0, 1, 0]),
                                "mapping_torus.X entry 0"),
    "structure_number": ({"frame": _FRAME, "structure": {"a,b": ["0", 0, "0", "0"]}},
                         "structure row 'a,b' entry 1"),
}


def _torus_without(key):
    doc = _flat_torus_manifest()
    doc["mapping_torus"] = {k: v for k, v in doc["mapping_torus"].items() if k != key}
    return doc


# required members left out
MISSING_MEMBER_MANIFESTS = {
    "frame_missing": ({"name": "x"}, "the manifest has no member 'frame'"),
    "mapping_torus_without_coordinate": (_torus_without("coordinate"),
                                         "mapping_torus has no member 'coordinate'"),
    "mapping_torus_without_v": (_torus_without("V"), "mapping_torus has no member 'V'"),
    "mapping_torus_without_x": (_torus_without("X"), "mapping_torus has no member 'X'"),
}
# names outside the frame, which the schema cannot see
OUTSIDE_FRAME_MANIFESTS = {
    "structure_key_outside_frame": (
        {"frame": _FRAME, "structure": {"a,z": ["0", "0", "0", "0"]}},
        "'z' in structure key 'a,z' is not in the frame"),
    "derivation_row_outside_frame": (
        {"frame": _FRAME, "derivation": {"z": {}}}, "derivation row 'z' is not in the frame"),
}
# declared periods that span no lattice or name no coordinate, which the
# schema cannot see either; a negative period spans the same lattice and stays
DEGENERATE_PERIOD_MANIFESTS = {
    "period_zero": ({"frame": _FRAME, "coordinates": ["t"],
                     "periods": {"t": {"rat": "0", "pi": "0"}}},
                    "period of coordinate 't' is zero"),
    "period_of_undeclared_coordinate": (
        {"frame": _FRAME, "coordinates": ["t"],
         "periods": {"z": {"rat": "1", "pi": "0"}}},
        "period given for undeclared coordinate 'z'"),
}
MALFORMED_MANIFESTS = {**WRONG_TYPE_MANIFESTS, **MISSING_MEMBER_MANIFESTS,
                       **OUTSIDE_FRAME_MANIFESTS, **DEGENERATE_PERIOD_MANIFESTS}


DIAGNOSTICS = [
    ("verify", "two_frame_names", "malformed manifest"),
    ("verify", "not_an_object", "malformed manifest"),
    ("verify", "missing_file", "neither"),
    ("geiges", "two_frame_names", "malformed manifest"),
    ("geiges", "not_an_object", "malformed manifest"),
    ("geiges", "missing_file", "cannot read manifest"),
    ("geiges", "mapping_torus_without_j", "complex structure"),
    ("geiges", "no_mapping_torus", "mapping-torus data"),
    ("geiges", "v_of_t_not_one", "V(t) = 1"),
]


@pytest.mark.parametrize("verb, manifest, expected", DIAGNOSTICS,
                         ids=[f"{verb}-{name}" for verb, name, _ in DIAGNOSTICS])
def test_malformed_manifest_diagnostics(tmp_path, verb, manifest, expected):
    path = tmp_path / "bad.json"
    make = HOSTILE_MANIFESTS[manifest]
    if make is not None:
        path.write_text(json.dumps(make()))
    args = [str(path)] if verb == "verify" else ["--input", str(path), "--nmax", "1"]
    res = run_cli(verb, *args)
    assert res.returncode != 0
    assert "error:" in res.stderr and expected in res.stderr
    assert "Traceback" not in res.stderr


@pytest.mark.parametrize("verb", ("verify", "geiges"))
@pytest.mark.parametrize("manifest", MALFORMED_MANIFESTS)
def test_wrong_section_type_diagnostics(tmp_path, capsys, verb, manifest):
    doc, section = MALFORMED_MANIFESTS[manifest]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    args = [str(path)] if verb == "verify" else ["--input", str(path), "--nmax", "1"]
    with pytest.raises(SystemExit) as exc:
        main([verb, *args])
    assert str(exc.value.code).startswith("error: malformed manifest")
    assert section in exc.value.code
    if manifest in OUTSIDE_FRAME_MANIFESTS:
        assert str(_FRAME) in exc.value.code
    assert capsys.readouterr().out == ""


def _with_member(key, value):
    return json.dumps({**_flat_torus_manifest(), key: value})


def _with_scalar(text):
    return _with_member("distribution", [[text, "0", "0", "0"], ["0", "1", "0", "0"]])


# manifests whose parse divides by zero or recurses past the interpreter's
# limit, as JSON text: each is malformed, never a traceback
ARITHMETIC_MANIFESTS = {
    "parameter_over_zero": (lambda: _with_member("parameters", {"q": "1/0"}),
                            "division by zero"),
    "scalar_over_zero": (lambda: _with_scalar("1/0"), "division by zero"),
    "angle_over_zero": (lambda: _with_scalar("sin(t/0)"), "division by zero"),
    "period_rat_over_zero": (
        lambda: _with_member("periods", {"t": {"rat": "1/0", "pi": "0"}}),
        "division by zero"),
    "period_pi_over_zero": (
        lambda: _with_member("periods", {"t": {"rat": "0", "pi": "1/0"}}),
        "division by zero"),
    "deeply_nested_scalar": (lambda: _with_scalar("(" * 3000 + "1" + ")" * 3000),
                             "nested too deeply"),
    "deeply_nested_json": (lambda: "[" * 100000 + "]" * 100000, "nested too deeply"),
}


@pytest.mark.parametrize("verb", ("verify", "geiges"))
@pytest.mark.parametrize("manifest", ARITHMETIC_MANIFESTS)
def test_zero_denominators_and_deep_nesting_are_malformed(tmp_path, capsys, verb,
                                                          manifest):
    make, reason = ARITHMETIC_MANIFESTS[manifest]
    path = tmp_path / "bad.json"
    path.write_text(make())
    args = [str(path)] if verb == "verify" else ["--input", str(path), "--nmax", "1"]
    with pytest.raises(SystemExit) as exc:
        main([verb, *args])
    assert exc.value.code == f"error: malformed manifest {path}: {reason}"
    assert capsys.readouterr().out == ""


def test_a_zero_denominator_exits_1_without_a_traceback(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(ARITHMETIC_MANIFESTS["period_rat_over_zero"][0]())
    res = run_cli("verify", str(path))
    assert res.returncode == 1
    assert res.stderr == f"error: malformed manifest {path}: division by zero\n"


@pytest.mark.parametrize("manifest", WRONG_TYPE_MANIFESTS)
def test_manifest_schema_rejects_each_wrong_type(manifest):
    doc, _ = WRONG_TYPE_MANIFESTS[manifest]
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(json.loads(json.dumps(doc)), MANIFEST_SCHEMA)


@pytest.mark.parametrize("manifest", MISSING_MEMBER_MANIFESTS)
def test_manifest_schema_rejects_each_missing_member(manifest):
    doc, _ = MISSING_MEMBER_MANIFESTS[manifest]
    with pytest.raises(jsonschema.ValidationError, match="is a required property"):
        jsonschema.validate(doc, MANIFEST_SCHEMA)


@pytest.mark.parametrize("manifest", DEGENERATE_PERIOD_MANIFESTS)
def test_manifest_schema_admits_each_degenerate_period(manifest):
    doc, _ = DEGENERATE_PERIOD_MANIFESTS[manifest]
    jsonschema.validate(doc, MANIFEST_SCHEMA)


TWISTED = str(ROOT / "demos" / "manifests" / "twisted_torus.json")
BAD_ARGUMENTS = {
    "nmax_zero": ["geiges", "--builtin", "flat", "--nmax", "0"],
    "nmax_negative": ["geiges", "--builtin", "flat", "--nmax", "-3"],
    "geiges_grid_zero": ["geiges", "--builtin", "twisted", "--grid", "0"],
    "geiges_grid_fraction": ["geiges", "--builtin", "twisted", "--grid", "1.5"],
    "verify_grid_zero": ["verify", TWISTED, "--suite", "engel", "--grid", "0"],
    "tol_negative": ["verify", TWISTED, "--grid", "11", "--tol", "-1"],
    "tol_nan": ["verify", TWISTED, "--tol", "nan"],
    "tol_inf": ["verify", TWISTED, "--tol", "inf"],
    "tol_text": ["verify", TWISTED, "--tol", "small"],
}


@pytest.mark.parametrize("argv", BAD_ARGUMENTS.values(), ids=BAD_ARGUMENTS)
def test_numeric_arguments_validated(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert "error: argument --" in err and "Traceback" not in err


def _synopsis(verb: str) -> str:
    """The verb's lines of the usage block in the cli docstring."""
    lines, keep = [], False
    for line in cli.__doc__.splitlines():
        if line.strip().startswith("engelcalc "):
            keep = line.split()[1] == verb
        elif not line.startswith("       "):
            keep = False
        if keep:
            lines.append(line)
    return "\n".join(lines)


@pytest.mark.parametrize("verb", ("catalog", "verify", "geiges"))
def test_cli_synopsis_lists_each_option(capsys, verb):
    with pytest.raises(SystemExit) as exc:
        main([verb, "--help"])
    assert exc.value.code == 0
    options = set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out))
    synopsis = _synopsis(verb)
    assert synopsis
    assert options - {"--help"} == set(re.findall(r"--[a-z][a-z-]*", synopsis))


def test_verify_rejects_geiges_for_mapping_torus_without_j(tmp_path):
    path = tmp_path / "no_j.json"
    path.write_text(json.dumps(_manifest_without("complex_structure")))
    rep = run_verify(str(path))
    rec = next(r for r in rep.records if r.name == "geiges")
    assert rec.status == "REJECTED" and "complex structure" in rec.notes


def test_unknown_suite_rejected():
    res = run_cli("verify", "hopf_s3r", "--suite", "nope")
    assert res.returncode != 0 and "unknown suite" in res.stderr


def test_empty_suite_rejected():
    with pytest.raises(SystemExit, match="empty suite"):
        run_verify("hopf_s3r", suites=())


@pytest.mark.parametrize("text", ["", ",", " , "])
def test_empty_suite_option_is_an_empty_selection(text):
    # an empty --suite selects nothing; it does not fall back to every suite
    with pytest.raises(SystemExit, match="^error: empty suite selection$"):
        main(["verify", "hopf_s3r", "--suite", text])


@pytest.mark.parametrize("text", ["engel,", ",engel", "engel,,jengel"])
def test_blank_suite_name_is_rejected(text):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "hopf_s3r", "--suite", text])
    assert str(exc.value).startswith("error: blank suite name in ")
    assert "unknown suite" not in str(exc.value)


def test_a_suite_named_twice_runs_once(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["verify", "hopf_s3r", "--suite", "kengel,engel,kengel",
                 "--json", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["suites"] == ["kengel", "engel"]
    names = [r["name"] for r in doc["checks"]]
    assert len(names) == len(set(names))
    assert names.count("kengel.commutators") == 1


def test_transverse_records_carry_their_certificates():
    # the transverse check has one certificate, [Z, D_i] in D for the raw
    # Reeb field Z, and one record, a PASS on a K-Engel family; i_Z(beta ^
    # d(beta)) = 0 and span(Z) = span(R) hold by construction
    records = {r.name: r for r in run_verify("hopf_s3r", suites=("kengel",)).records}
    transverse = [name for name in records if name.startswith("kengel.transverse")]
    assert transverse == ["kengel.transverse_engel_field"]
    assert records[transverse[0]].status == "PASS"
    assert records[transverse[0]].certificate.note == "L_Z D stays in D"


def test_incommensurate_frequencies_reported_not_crashed(tmp_path):
    doc = {
        "name": "incommensurate",
        "frame": ["E1", "E2", "E3", "E4"],
        "coordinates": ["t"],
        "structure": {},
        "derivation": {"E1": {"t": "1"}},
        "complex_structure": [["0", "-1", "0", "0"], ["1", "0", "0", "0"],
                              ["0", "0", "0", "-1"], ["0", "0", "1", "0"]],
        "distribution": [["1", "0", "sin(t) + sin(pi*t)", "0"],
                         ["0", "1", "0", "cos(t)"]],
    }
    path = tmp_path / "incomm.json"
    path.write_text(json.dumps(doc))
    rep = run_verify(str(path), suites=("engel",))
    assert rep.overall == "FAIL"
    assert any("declare a period" in r.notes for r in rep.records)
    # a declared period turns the mix into an honest sampled box
    doc["periods"] = {"t": {"rat": "0", "pi": "2"}}
    path.write_text(json.dumps(doc))
    rep = run_verify(str(path), suites=("engel",))
    assert all("declare a period" not in r.notes for r in rep.records)


def test_json_reports_byte_stable(tmp_path):
    a = emit_report(run_verify("hopf_s3r"), "json")
    b = emit_report(run_verify("hopf_s3r"), "json")
    assert a == b
    doc = json.loads(a)
    assert doc["overall"] == "PASS"
    assert doc["artifact"]["name"] == "engelcalc"
    # volatile timing never reaches the JSON surface
    assert "wall_ms" not in a


STAGES = ("verify_engel", "characteristic_foliation", "j_invariance_check",
          "defining_forms", "structure_functions", "nijenhuis_certificate")


def _count_stages(monkeypatch, names):
    from engelcalc import cli, engelcheck

    calls = dict.fromkeys(names, 0)
    for name in names:
        def counting(*args, _name=name, _stage=getattr(engelcheck, name),
                     **kwargs):
            calls[_name] += 1
            return _stage(*args, **kwargs)

        for module in (engelcheck, cli):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counting)
    return calls


def test_each_stage_runs_once_per_target(monkeypatch, cold_caches):
    calls = _count_stages(monkeypatch, STAGES)
    assert run_verify("hopf_s3r").overall == "PASS"
    assert calls == dict.fromkeys(STAGES, 1)


def test_a_repeated_target_reuses_its_nijenhuis_certificate(monkeypatch, cold_caches):
    # N_J depends on J, the space and the grid only: the second run of a
    # target reads the first one's certificate and takes no Nijenhuis
    # bracket, while every plane-field stage runs again
    first = run_verify("hopf_s3r")
    calls = _count_stages(monkeypatch, ("verify_engel", "nijenhuis_certificate",
                                        "nijenhuis"))
    second = run_verify("hopf_s3r")
    assert calls == {"verify_engel": 1, "nijenhuis_certificate": 0, "nijenhuis": 0}
    assert second.overall == first.overall == "PASS"


@pytest.mark.parametrize("family", FAMILIES)
def test_each_frame_bracket_is_taken_once_per_target(monkeypatch, family):
    # [W, R], [JW, R] and [T, R] are three calls of the bracket rule, [W, JW]
    # and [JW, K_T] (d_XT, with T = K_T / -abdb) one bracket each, and
    # abdb^2 one product, however many checks read them
    from engelcalc import engelcheck
    from engelcalc.trigring import TrigScalar

    spec = build_family(family)
    ref = engelcheck.Derivation(spec.d1, spec.d2, spec.J, spec.space)
    pairs = [((ref.w, ref.x), "[W,JW]"), ((ref.x, ref.forms.k_t), "[JW,K_T]")]
    abdb = ref.forms.abdb
    calls = {"abdb_bracket": 0, "[W,JW]": 0, "[JW,K_T]": 0, "abdb^2": 0}
    rule_of, bracket_of = engelcheck.abdb_bracket, engelcheck.bracket
    mul_of = TrigScalar.__mul__

    def counting_rule(*args):
        calls["abdb_bracket"] += 1
        return rule_of(*args)

    def counting_bracket(a, b, space):
        for pair, label in pairs:
            calls[label] += (a, b) == pair
        return bracket_of(a, b, space)

    def counting_mul(a, b):
        # a square of abdb or of -abdb, as one scalar times itself, in
        # engelcheck: a constant abdb is a factor of many other products
        calls["abdb^2"] += (a is b and a in (abdb, -abdb) and
                            sys._getframe(1).f_globals["__name__"] == engelcheck.__name__)
        return mul_of(a, b)

    monkeypatch.setattr(engelcheck, "abdb_bracket", counting_rule)
    monkeypatch.setattr(engelcheck, "bracket", counting_bracket)
    monkeypatch.setattr(TrigScalar, "__mul__", counting_mul)
    run_verify(family)
    assert calls == {"abdb_bracket": 3, "[W,JW]": 1, "[JW,K_T]": 1, "abdb^2": 1}


def test_top_pairings_take_no_bracket_with_e3(monkeypatch):
    # u_i = -d(alpha)(D_i, E3) by Cartan's formula: no stage brackets D_i
    # with E3, and the flag takes one bracket (E3 itself) and at most one d
    from engelcalc import cli, engelcheck, framecalc

    spec = build_family("hopf_s3r")
    e3 = bracket(spec.d1, spec.d2, spec.space)
    pairs = {"D1,E3": (spec.d1, e3), "D2,E3": (spec.d2, e3)}
    calls = dict.fromkeys(pairs, 0)
    flags, inside = [], []
    bracket_of = framecalc.bracket
    d_of = framecalc.exterior_derivative
    flag_of = engelcheck.verify_engel

    def counting_bracket(a, b, space):
        for name, pair in pairs.items():
            if (a, b) in (pair, pair[::-1]):
                calls[name] += 1
        if inside:
            flags[-1]["bracket"].append((a, b))
        return bracket_of(a, b, space)

    def counting_d(form, space):
        if inside:
            flags[-1]["d"] += 1
        return d_of(form, space)

    def counting_flag(*args, **kwargs):
        flags.append({"bracket": [], "d": 0})
        inside.append(True)
        try:
            return flag_of(*args, **kwargs)
        finally:
            inside.pop()

    for module in (engelcheck, framecalc):
        monkeypatch.setattr(module, "bracket", counting_bracket)
        monkeypatch.setattr(module, "exterior_derivative", counting_d)
    for module in (engelcheck, cli):
        if hasattr(module, "verify_engel"):
            monkeypatch.setattr(module, "verify_engel", counting_flag)
    assert run_verify("hopf_s3r").overall == "PASS"
    assert calls == dict.fromkeys(pairs, 0)
    assert len(flags) == 1
    assert flags[0]["bracket"] == [(spec.d1, spec.d2)]
    assert flags[0]["d"] <= 1


def test_characteristic_foliation_takes_no_bracket(monkeypatch):
    from engelcalc import engelcheck

    inside = []
    calls = {"characteristic_foliation": 0, "bracket": 0}
    stage, bracket_of = engelcheck.characteristic_foliation, engelcheck.bracket

    def counting_stage(*args, **kwargs):
        calls["characteristic_foliation"] += 1
        inside.append(True)
        try:
            return stage(*args, **kwargs)
        finally:
            inside.pop()

    def counting_bracket(*args):
        calls["bracket"] += bool(inside)
        return bracket_of(*args)

    monkeypatch.setattr(engelcheck, "characteristic_foliation", counting_stage)
    monkeypatch.setattr(engelcheck, "bracket", counting_bracket)
    assert run_verify("hopf_s3r").overall == "PASS"
    assert calls == {"characteristic_foliation": 1, "bracket": 0}


def test_flag_time_goes_on_its_first_record(monkeypatch):
    # the flag is derived outside the timed stages; its time is shown on
    # engel.rank_d and the other two rank records carry none
    import time

    from engelcalc import engelcheck

    verify = engelcheck.verify_engel

    def slow(*args, **kwargs):
        time.sleep(0.05)
        return verify(*args, **kwargs)

    monkeypatch.setattr(engelcheck, "verify_engel", slow)
    records = {r.name: r for r in run_verify("hopf_s3r", ("engel",)).records}
    assert records["engel.rank_d"].wall_ms >= 50
    assert records["engel.rank_e"].wall_ms == records["engel.rank_tm"].wall_ms == 0.0


def test_every_certificate_comes_from_a_framecalc_certifier(monkeypatch, cold_caches):
    # patch the two certifiers wherever a module binds them, as the bench
    # tracer does, and record what they return
    from engelcalc import engelcheck, framecalc, geiges

    made = []
    for name in ("certify_nonvanishing", "certify_vanishing"):
        original = getattr(framecalc, name)

        def recording(*args, _original=original, **kwargs):
            made.append(_original(*args, **kwargs))
            return made[-1]

        for mod_name, module in list(sys.modules.items()):
            if mod_name.startswith("engelcalc") and \
                    getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, recording)

    def from_certifier(cert):
        return any(cert is m for m in made)

    for family in FAMILIES:
        rep = run_verify(family)
        for rec in rep.records:
            if rec.certificate is not None:
                assert from_certifier(rec.certificate), (family, rec.name)
        assert {r.name for r in rep.records} >= {"engel.rank_tm",
                                                 "jengel.j_invariance"}

    flags = []
    verify = engelcheck.verify_engel

    def keeping(*args, **kwargs):
        flags.append(verify(*args, **kwargs))
        return flags[-1]

    monkeypatch.setattr(engelcheck, "verify_engel", keeping)
    geiges.minimal_n_search(geiges.twisted_torus_input(), 2)
    assert flags
    for flag in flags:
        for key, cert in flag.certificates.items():
            assert from_certifier(cert), key


def test_splitting_uses_the_run_tolerance(tmp_path):
    # D = <f*D1, D2> on the coordinate torus of torus_trig, f = 3 + 2*cos(2*pi*x1):
    # at tol 1e3 the rank of D is not certified, so every check built on the
    # Engel flag must be rejected, the splitting included
    f = "(3 + 2*cos(2*pi*x1))"
    coords = ["x1", "y1", "x2", "y2"]
    doc = {
        "name": "rescaled_torus",
        "frame": ["dx1", "dy1", "dx2", "dy2"],
        "coordinates": coords,
        "structure": {},
        "derivation": {f"d{c}": {c: "1"} for c in coords},
        "complex_structure": [["0", "-1", "0", "0"], ["1", "0", "0", "0"],
                              ["0", "0", "0", "-1"], ["0", "0", "1", "0"]],
        "distribution": [[f, "0", f"{f}*sin(2*pi*x1)", f"-{f}*cos(2*pi*x1)"],
                         ["0", "1", "cos(2*pi*x1)", "sin(2*pi*x1)"]],
    }
    path = tmp_path / "rescaled_torus.json"
    path.write_text(json.dumps(doc))
    rep = run_verify(str(path), grid=11, tol=1e3)
    records = {r.name: r for r in rep.records}
    assert records["engel.rank_d"].status == "FAIL"
    for name in ("jengel.complex_framing", "forms.construction",
                 "jofreeb.rotation", "kengel.commutators"):
        assert records[name].status == "REJECTED", name
    split = records["splitting.fields"]
    assert split.status == "REJECTED"
    assert split.notes == "splitting needs a certified Engel structure"


def test_splitting_record_shows_the_four_fields():
    # on hopf_s3r, forms.construction gives alpha = -a2/2 + a4/2 and
    # beta = -a1/2 + a3/2, so alpha(R) = 1, beta(R) = 0 and beta(JR) = -1
    # for R = 2 E4 and JR = -2 E3
    rep = run_verify("hopf_s3r", suites=("forms", "splitting"))
    records = {r.name: r for r in rep.records}
    assert "alpha = (-1/2)*a2 + (1/2)*a4; beta = (-1/2)*a1 + (1/2)*a3" in \
        records["forms.construction"].notes
    split = records["splitting.fields"]
    assert split.status == "PASS" and split.certificate is None
    assert split.notes.startswith("TM = <W = (0, 4, 0, 4)> + <JW = ")
    assert "<JR = (0, 0, -2, 0)>" in split.notes
    assert split.notes.endswith("<R = (0, 0, 0, 2)>")


def test_complex_framing_record_shows_the_frame():
    # the frame (W, [W,JW]) of (TM, J) holds by construction once the flag
    # and JD = D are certified: the record is derived, and the forms suite
    # reports no defining-form certificate
    records = {r.name: r for r in run_verify("hopf_s3r", suites=("jengel", "forms")).records}
    framing = records["jengel.complex_framing"]
    assert framing.status == "PASS" and framing.certificate is None
    assert framing.notes == "complex frame (W, [W,JW]) of (TM, J): [W,JW] = (-16, 0, 16, 0)"
    assert sorted(records) == ["forms.construction", "forms.structure_functions",
                               "jengel.complex_framing", "jengel.j_invariance"]


def test_a_plane_that_is_not_j_invariant_rejects_every_form_check(tmp_path):
    # D = <X1 - X3 - X4, X2> on hopf_s3r is Engel, with constant witnesses,
    # but not J-invariant: the checks that need JD = D are rejected
    spec = build_family("hopf_s3r")
    doc = manifest_from_parts("hopf_real_plane", spec.space, spec.J,
                              VecField.of(1, 0, -1, -1), VecField.basis(1))
    path = tmp_path / "hopf_real_plane.json"
    path.write_text(dump_json(doc))
    records = {r.name: r for r in run_verify(str(path)).records}
    for name in ("engel.rank_d", "engel.rank_e", "engel.rank_tm"):
        assert records[name].status == "PASS", name
    assert records["jengel.j_invariance"].status == "FAIL"
    notes = {"jengel.complex_framing": "complex framing needs JD = D",
             "forms.construction": "defining forms need JD = D",
             "jofreeb.rotation": "defining forms need JD = D",
             "kengel.commutators": "defining forms need JD = D",
             "splitting.fields": "splitting needs JD = D"}
    for name, note in notes.items():
        assert (records[name].status, records[name].notes) == ("REJECTED", note)


def test_plane_and_j_suites_rejected_without_either(tmp_path):
    full = json.loads((FIXTURES / "abelian.json").read_text())
    for missing in ("complex_structure", "distribution"):
        doc = {k: v for k, v in full.items() if k != missing}
        path = tmp_path / f"no_{missing}.json"
        path.write_text(json.dumps(doc))
        records = {r.name: r for r in run_verify(str(path)).records}
        for suite in ("jengel", "forms", "jofreeb", "kengel", "splitting"):
            assert records[suite].status == "REJECTED", (missing, suite)
            assert records[suite].notes == "needs a plane field and J"
        if missing == "distribution":
            assert records["engel.rank"].status == "REJECTED"
            assert records["engel.nijenhuis"].status == "PASS"
        else:
            assert "engel.nijenhuis" not in records
            assert records["engel.rank_e"].status == "FAIL"


def test_text_report_contains_flag_summary():
    text = emit_report(run_verify("hopf_s3r", suites=("engel",)), "text")
    assert "flag: W = " in text
    assert "engel.rank_tm" in text


def test_deviation_appears_only_for_documented_discrepancies():
    documented = {
        ("kodaira_primary", "engel.bracket.[A,JA]"),
        ("hopf_s3r", "engel.bracket.[A,[A,JA]]"),
        ("elliptic_sl2r", "engel.bracket.[A,[A,JA]]"),
        ("elliptic_sl2r", "engel.nijenhuis"),
    }
    seen = set()
    for fam in FAMILIES:
        for rec in run_verify(fam).records:
            if rec.status == "DEVIATION":
                seen.add((fam, rec.name))
    assert seen == documented


def test_a_repeated_report_is_byte_identical(cold_caches):
    # the first run of each family builds its spec and certifies N_J, the
    # second reads both from the module caches; the JSON must not differ
    first = {fam: emit_report(run_verify(fam), "json") for fam in FAMILIES}
    for fam in FAMILIES:
        assert emit_report(run_verify(fam), "json") == first[fam], fam


def test_clear_fixture_pins_its_plane_suite_statuses():
    # statuses and certificate kinds, not bytes: its abdb and c_WX vary, so
    # the fractions it prints are not reduced to scalars; [W, R] = 0 gives
    # a_WR = 0 and d_WR = 0 over that varying denominator
    rep = run_verify(str(FIXTURES / "sampled_clear_1coord.json"),
                     ("engel", "jengel", "forms", "jofreeb", "kengel", "splitting"))
    got = [(r.name, r.status, r.certificate and r.certificate.kind)
           for r in rep.records]
    assert got == [
        ("engel.nijenhuis", "PASS", "SYMBOLIC"),
        ("engel.rank_d", "PASS", "SAMPLED"),
        ("engel.rank_e", "PASS", "SAMPLED"),
        ("engel.rank_tm", "PASS", "SAMPLED"),
        ("engel.characteristic", "PASS", None),
        ("jengel.j_invariance", "PASS", "SYMBOLIC"),
        ("jengel.complex_framing", "PASS", None),
        ("forms.construction", "PASS", None),
        ("forms.structure_functions", "PASS", None),
        ("jofreeb.rotation", "PASS", None),
        ("jofreeb.dalpha_squared", "PASS", "SYMBOLIC"),
        ("kengel.commutators", "FAIL", None),
        ("kengel.rescaling", "PASS", None),
        ("kengel.dbeta_squared", "PASS", None),
        ("splitting.fields", "PASS", None),
    ]
    notes = {r.name: r.notes for r in rep.records}
    assert notes["kengel.rescaling"] == "a_WR = 0"
    assert ", d_WR = 0, " in notes["forms.structure_functions"]
    # q1 and q2 do not reduce to trig polynomials, so the record names
    # them by the structure functions instead of printing the quotients
    assert notes["jofreeb.rotation"] == (
        "J(T) = R + q1 W + q2 JW, J(R) = -T + q2 W - q1 JW: "
        "q1 = (d_WR + d_XT)/c_WX, q2 = d_XR/c_WX (forms.structure_functions)")


def test_golden_reports_match():
    for fam in FAMILIES:
        golden = (ROOT / "reports" / "golden" / f"{fam}.json").read_text()
        fresh = emit_report(run_verify(fam), "json")
        assert fresh == golden, f"golden report drifted for {fam}"


def test_geiges_verb_builtin():
    res = run_cli("geiges", "--builtin", "twisted", "--nmax", "4")
    assert res.returncode == 0
    doc = json.loads(res.stdout)
    assert doc["n_star"] == 1
    assert doc["trace"][0]["passed"] is True
    assert "j_invariant" not in doc["trace"][0]
    assert "totally_real" in doc


def test_geiges_verb_totally_real():
    res = run_cli("geiges", "--builtin", "flat", "--nmax", "2")
    doc = json.loads(res.stdout)
    assert "variant" not in doc
    assert doc["totally_real"]["rank_certificate"]["kind"] == "SYMBOLIC"
    assert doc["totally_real"]["j_invariant"] is False
    assert doc["totally_real"]["engel"] is True
    assert all(c["kind"] == "SYMBOLIC"
               for c in doc["totally_real"]["engel_certificates"].values())


def test_geiges_verb_manifest_input(tmp_path):
    path = tmp_path / "flat.json"
    path.write_text(dump_json(_flat_torus_manifest()))
    res = run_cli("geiges", "--input", str(path), "--nmax", "2")
    assert res.returncode == 0
    assert json.loads(res.stdout)["n_star"] == 1


def test_verify_geiges_suite_on_mapping_torus_manifest(tmp_path):
    from engelcalc.geiges import twisted_torus_input

    inp = twisted_torus_input()
    doc = manifest_from_parts(
        "twisted", inp.space, inp.J, inp.V, inp.J.apply(inp.V),
        parameters={},
        mapping_torus={"coordinate": "t", "V": inp.V, "X": inp.X})
    path = tmp_path / "twisted.json"
    path.write_text(dump_json(doc))
    rep = run_verify(str(path), suites=("geiges",))
    rec = next(r for r in rep.records if r.name == "geiges.minimal_n")
    assert rec.status == "PASS" and "n* = 1" in rec.notes


def test_geiges_suite_uses_the_run_tolerance():
    # the level-1 rank_d witness has minimum 4, so no level passes at tol 5
    for tol, status, note in ((5.0, "FAIL", "up to n = 8"),
                              (1e-6, "PASS", "n* = 1")):
        rep = run_verify(TWISTED, suites=("geiges",), tol=tol)
        rec = next(r for r in rep.records if r.name == "geiges.minimal_n")
        assert rec.status == status and note in rec.notes, tol


def test_mapping_torus_framing_uses_the_run_grid_and_tolerance(tmp_path, capsys):
    # X = cos(t) E3 makes det(V, JV, X, JX) = cos(t)^2 = 1/2 + 1/2 cos(2t), of
    # period pi: its zero is a grid point at grid 2, not at grid 17, where the
    # least sampled value is about 0.0085
    from engelcalc.trigring import parse

    path = tmp_path / "cos_framing.json"
    path.write_text(dump_json(_flat_torus_manifest(
        X=VecField.of(0, 0, parse("cos(t)"), 0))))
    for grid, tol, framed in ((17, 1e-6, True), (2, 1e-6, False), (17, 0.5, False)):
        rep = run_verify(str(path), suites=("geiges",), grid=grid, tol=tol)
        rec = rep.records[0]
        assert (rec.status != "REJECTED") == framed, (grid, tol)
        if not framed:
            assert rec.notes == "V, JV, X, JX do not frame the tangent bundle"
    with pytest.raises(SystemExit, match="do not frame"):
        main(["geiges", "--input", str(path), "--grid", "2", "--nmax", "1"])
    main(["geiges", "--input", str(path), "--nmax", "1"])
    assert json.loads(capsys.readouterr().out)["n_max"] == 1


def test_geiges_suite_rejected_for_plain_families():
    rep = run_verify("hopf_s3r", suites=("geiges",))
    rec = rep.records[0]
    assert rec.status == "REJECTED"
    assert rep.overall == "PASS"


def test_main_entry_point_smoke(capsys):
    code = main(["catalog", "list"])
    assert code == 0
    assert "hopf_s3r" in capsys.readouterr().out


def test_a_nonzero_jd_minor_fails_in_the_complete_class(tmp_path):
    # D2[0] = 1e-12 cos(2 pi x1) makes D not J-invariant; the JD = D minors
    # are nonzero normal forms of size about 1e-12 whose phases are quarter
    # turns only, so the claim fails whatever the grid maximum, and the
    # checks that hold by construction once JD = D are rejected
    doc = json.loads((FIXTURES / "sampled_clear_1coord.json").read_text())
    doc["distribution"][1][0] = "1/1000000000000*cos(2*pi*x1)"
    path = tmp_path / "perturbed.json"
    path.write_text(dump_json(doc))
    records = {r.name: r for r in run_verify(str(path), ("engel", "jengel", "forms",
                                                           "splitting")).records}
    jd = records["jengel.j_invariance"]
    assert (jd.status, jd.certificate.kind) == ("FAIL", "FAILED")
    assert jd.certificate.bound < 1e-9  # inside the old SAMPLED tolerance
    for name in ("jengel.complex_framing", "forms.construction", "splitting.fields"):
        assert records[name].status == "REJECTED", name


def test_fresh_torus_lattices_share_one_space_and_j(monkeypatch, cold_caches):
    # the coordinate torus and J of torus_trig read no parameter: three
    # fresh lattices share them, certify N_J once, and report what cold
    # builds of each lattice report
    from engelcalc import engelcheck

    lattices = [{"alpha1": "3/2", "alpha2": "5", "alpha3": "1/4"},
                {"alpha1": "7/6", "alpha2": "2/3", "alpha3": "1"},
                {"alpha1": "1/5", "alpha2": "4", "alpha3": "7/2"}]
    verified = []
    verify = engelcheck.verify_engel

    def counting(*args, **kwargs):
        verified.append(args)
        return verify(*args, **kwargs)

    monkeypatch.setattr(engelcheck, "verify_engel", counting)
    specs = [build_family("torus_trig", params) for params in lattices]
    assert len({id(s) for s in specs}) == 3
    assert len({id(s.space) for s in specs}) == 1
    assert len({id(s.J) for s in specs}) == 1
    shared = [emit_report(run_verify("torus_trig", params=params), "json")
              for params in lattices]
    assert engelcheck._nijenhuis_of.cache_info().misses == 1
    assert len(verified) == 3  # once per target
    for params, text in zip(lattices, shared):
        catalog._cached_spec.cache_clear()
        engelcheck._nijenhuis_of.cache_clear()
        assert emit_report(run_verify("torus_trig", params=params), "json") == text
