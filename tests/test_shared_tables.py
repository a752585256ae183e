"""The module tables: manifests over one (M, J) share their space and J, and
every table has a fixture that empties it.

``manifest.load_manifest`` takes the space and J from one table keyed by
the JSON text of the manifest's space sections, so the construction checks
and the Nijenhuis certificate run once per space, while the plane field,
the parameters and the name are read afresh for each manifest.
"""

import copy
import importlib
import json
import pkgutil
from pathlib import Path

import pytest

import engelcalc
from engelcalc import cli, engelcheck, manifest
from engelcalc.cli import emit_report, run_verify
from engelcalc.framecalc import ComplexStructure, FramedSpace
from engelcalc.manifest import SPACE_SECTIONS, dump_json, load_manifest

FIXTURES = Path(__file__).parent / "fixtures"
PINNED = ("sampled_clear_1coord", "sampled_zero_off_grid_4coord",
          "sampled_two_direction_3coord")


def _fixture(stem):
    return json.loads((FIXTURES / f"{stem}.json").read_text())


def _j_rows(J):
    return [[str(e) for e in row] for row in J.matrix]


# E1 moves the one coordinate x1 and [E2, E3] = E4 is central, so the Jacobi
# identity and the derivation table hold for any constant in either entry
BASE = {
    "name": "heisenberg_circle",
    "frame": ["E1", "E2", "E3", "E4"],
    "coordinates": ["x1"],
    "structure": {"E2,E3": ["0", "0", "0", "1"]},
    "derivation": {"E1": {"x1": "1"}},
    "periods": {"x1": {"rat": "1", "pi": "0"}},
    "complex_structure": _j_rows(ComplexStructure.pairing(0, 1, 2, 3)),
}


def _edited(path, value):
    doc = copy.deepcopy(BASE)
    *parents, last = path
    owner = doc
    for key in parents:
        owner = owner[key]
    owner[last] = value
    return doc


def test_equal_space_sections_share_one_space_and_j(monkeypatch, cold_caches, tmp_path):
    # two sampled manifests that differ in D, name and parameters only: the
    # second builds no space, validates nothing and certifies no N_J, while
    # its own plane field is verified afresh
    first = _fixture("sampled_clear_1coord")
    second = _fixture("sampled_zero_off_grid_4coord")
    second["parameters"] = {"alpha1": "7"}
    assert first["distribution"] != second["distribution"]
    assert first["name"] != second["name"]
    assert all(first[k] == second[k] for k in SPACE_SECTIONS if k in first)
    paths = [tmp_path / "first.json", tmp_path / "second.json"]
    for path, doc in zip(paths, (first, second)):
        path.write_text(dump_json(doc))

    calls = {"validate": 0, "nijenhuis_certificate": 0, "verify_engel": 0}
    validate, nijenhuis_certificate = FramedSpace.validate, engelcheck.nijenhuis_certificate
    verify_engel = engelcheck.verify_engel

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(FramedSpace, "validate", counting("validate", validate))
    monkeypatch.setattr(engelcheck, "nijenhuis_certificate",
                        counting("nijenhuis_certificate", nijenhuis_certificate))
    for module in (engelcheck, cli):
        monkeypatch.setattr(module, "verify_engel",
                            counting("verify_engel", verify_engel))

    reports, taken = [], []
    for path in paths:
        before = dict(calls)
        reports.append(run_verify(str(path), ("engel",), grid=11))
        taken.append({k: calls[k] - before[k] for k in calls})
    assert taken == [{"validate": 1, "nijenhuis_certificate": 1, "verify_engel": 1},
                     {"validate": 0, "nijenhuis_certificate": 0, "verify_engel": 1}]
    assert [r.target for r in reports] == [first["name"], second["name"]]
    assert reports[1].parameters == {"alpha1": "7"}

    a, b = (load_manifest(path.read_text()) for path in paths)
    assert a.space is b.space and a.J is b.J
    assert a.d1 != b.d1
    assert a.space.name == ""  # the shared space names no manifest


@pytest.mark.parametrize("path, value", [
    (("structure", "E2,E3"), ["0", "0", "0", "2"]),
    (("derivation", "E1", "x1"), "2"),
    (("periods", "x1", "rat"), "2"),
    (("complex_structure",), _j_rows(ComplexStructure.pairing(0, 2, 1, 3))),
], ids=["structure", "derivation", "period", "J"])
def test_a_changed_space_section_gives_its_own_space_and_j(cold_caches, path, value):
    base = load_manifest(BASE)
    assert load_manifest(copy.deepcopy(BASE)).space is base.space
    other = load_manifest(_edited(path, value))
    assert other.space is not base.space and other.J is not base.J
    seen = {"structure": other.space.structure != base.space.structure,
            "derivation": other.space.derivation != base.space.derivation,
            "periods": other.space.periods != base.space.periods,
            "complex_structure": other.J.matrix != base.J.matrix}
    assert [k for k, changed in seen.items() if changed] == [path[0]]


@pytest.mark.parametrize("path, value, message", [
    (("structure",), {"E1,E2": ["0", "0", "1", "0"], "E1,E3": ["0", "0", "0", "1"],
                      "E2,E3": ["1", "0", "0", "0"], "E1,E4": ["0", "0", "1", "0"]},
     "Jacobi"),
    (("complex_structure", 2, 3), "-2", "J\\*J differs from -identity"),
], ids=["jacobi", "j_squared"])
def test_a_rejected_space_raises_on_every_load(cold_caches, path, value, message):
    doc = _edited(path, value)
    if path[0] == "structure":
        doc["coordinates"], doc["derivation"], doc["periods"] = [], {}, {}
    for _ in range(2):
        with pytest.raises(ValueError, match=message):
            load_manifest(doc)
        load_manifest(BASE)
    assert manifest._shared_space.cache_info().currsize == 1  # BASE's alone


@pytest.mark.parametrize("order", [PINNED, PINNED[::-1]], ids=["forward", "reversed"])
def test_pinned_reports_are_byte_identical_cold_warm_and_renamed(
        cold_caches, tmp_path, order):
    want = {stem: (FIXTURES / f"{stem}.report.json").read_text() for stem in order}
    for _ in range(2):  # cold, then reading the shared space, J and N_J
        for stem in order:
            rep = run_verify(str(FIXTURES / f"{stem}.json"), ("engel", "geiges"), grid=11)
            assert emit_report(rep, "json") == want[stem], stem
    for stem in order:
        doc = _fixture(stem)
        renamed, doc["name"] = f"renamed_{stem}", f"renamed_{stem}"
        path = tmp_path / f"{renamed}.json"
        path.write_text(dump_json(doc))
        rep = run_verify(str(path), ("engel", "geiges"), grid=11)
        assert json.loads(emit_report(rep, "json")) == \
            {**json.loads(want[stem]), "target": renamed}
    # the warm runs and the renamed copies read the one shared space
    spaces = {id(load_manifest(p.read_text()).space)
              for p in [*(FIXTURES / f"{stem}.json" for stem in order),
                        *tmp_path.iterdir()]}
    assert len(spaces) == 1
    assert manifest._shared_space.cache_info().misses == 1


def _module_tables():
    """Every module-level object of the package that has ``cache_clear``,
    by its qualified name."""
    tables = {}
    for info in pkgutil.iter_modules(engelcalc.__path__):
        module = importlib.import_module(f"engelcalc.{info.name}")
        for name, obj in vars(module).items():
            if hasattr(obj, "cache_clear") and \
                    getattr(obj, "__module__", None) == module.__name__:
                tables[f"{module.__name__}.{name}"] = obj
    return tables


def test_every_module_table_has_a_cold_fixture(monkeypatch, request, cold_ring):
    tables = _module_tables()
    assert {"engelcalc.catalog._cached_spec", "engelcalc.manifest._shared_space",
            "engelcalc.engelcheck._nijenhuis_of", "engelcalc.framecalc._minor_plan",
            "engelcalc.trigring._angle_products"} <= set(tables)
    cleared = set()
    for name, table in tables.items():
        monkeypatch.setattr(table, "cache_clear",
                            lambda _name=name: cleared.add(_name))
    cold_ring()
    request.getfixturevalue("cold_caches")
    assert cleared == set(tables)
