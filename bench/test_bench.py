"""Tests of the benchmark itself: inputs, known answers, tracer, output.

    python3 -m pytest -q bench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import RIGHT, SAMPLING, TOLERANCE, WRONG, SampledCase  # noqa: E402

ONE = (Fraction(1), Fraction(1), Fraction(1))


def _sampled_texts(seed: int) -> list[str]:
    return [c.manifest_text() for r in range(2)
            for c in workloads.sampled_round_cases(seed, r)]


def test_same_seed_gives_identical_inputs():
    assert _sampled_texts(3) == _sampled_texts(3)
    assert _sampled_texts(3) != _sampled_texts(4)
    assert (workloads.catalog_round_targets(3, 0)
            == workloads.catalog_round_targets(3, 0))
    assert (workloads.catalog_round_targets(3, 0)
            != workloads.catalog_round_targets(3, 1))
    laws = [workloads.LawsWorkload(3).law_seed(i) for i in range(8)]
    assert laws == [workloads.LawsWorkload(3).law_seed(i) for i in range(8)]
    assert len(set(laws)) == len(laws)


def test_sampled_round_mix_is_fixed_and_distinct():
    rounds = [workloads.sampled_round_cases(seed, r) for seed in (0, 1) for r in range(6)]
    mixes = [[(c.support, c.kind) for c in cases] for cases in rounds]
    assert all(mix == mixes[r % 6] for r, mix in enumerate(mixes))
    assert [k for k, _ in mixes[0]] == [1] * 4 + [2] * 4 + [3] * 8 + [4] * 2
    heavy = [kind for mix in mixes[:3] for k, kind in mix if k == 4]
    assert sorted(heavy) == sorted(("zero_on_grid",) * 3 + workloads.HEAVY_KINDS)
    assert {c.kind for c in rounds[0]} == set(workloads.KINDS)
    texts = [c.manifest_text() for cases in rounds for c in cases]
    assert len(set(texts)) == len(texts)
    margins = [abs(c.c) - abs(c.a) for c in rounds[0] if c.kind == "margin"]
    assert min(margins) == Fraction(1, 100)


def test_manifests_validate_against_schema():
    jsonschema = pytest.importorskip("jsonschema")
    schema = json.loads((ROOT / "docs" / "manifest.schema.json").read_text())
    for text in _sampled_texts(0):
        jsonschema.validate(json.loads(text), schema)


def test_manifest_loads_as_the_rescaled_torus():
    from engelcalc.manifest import load_manifest
    from engelcalc.trigring import parse

    case = SampledCase("t", "clear", (1, 0, -1, 0), Fraction(3), Fraction(-1, 2),
                       (Fraction(1, 2), Fraction(1), Fraction(3)))
    mf = load_manifest(case.manifest_text())
    f = parse("3 - 1/2*cos(2*pi*x1 - 2*pi*x2)")
    assert mf.d1.coeffs == (f, parse("0"), f * parse("sin(4*pi*x1)"),
                            -f * parse("cos(4*pi*x1)"))
    assert mf.d2.coeffs == tuple(parse(s) for s in
                                 ("0", "1", "cos(4*pi*x1)", "sin(4*pi*x1)"))


@pytest.mark.parametrize("case, verdict", [
    # f = 3 + cos: no zero, Engel
    (SampledCase("a", "clear", (0, 1, 0, 0), Fraction(3), Fraction(1), ONE), RIGHT),
    # f = 1 - cos: double zero at the grid origin, caught by rank_d
    (SampledCase("b", "zero_on_grid", (1, 0, 0, 1), Fraction(1), Fraction(-1), ONE),
     RIGHT),
    # min|f| = 1/100 at the origin on the Q = 1 lattice: the absolute
    # tolerance fails a nonvanishing witness
    (SampledCase("c", "margin", (1, 0, 0, 0), Fraction(1), Fraction(-99, 100), ONE),
     TOLERANCE),
    # f = 1/2 + cos vanishes at <m,x> = +-1/3, between the points of the odd
    # grid, and no sampled witness comes near zero
    (SampledCase("d", "zero_off_grid", (1, 0, 0, 0), Fraction(1, 2), Fraction(1), ONE),
     SAMPLING),
    # f = 1 + cos has its double zero at <m,x> = 1/2, off the grid too, but on
    # the Q = 1 lattice the top-rank witness is small enough to fail
    (SampledCase("e", "zero_off_grid", (1, 0, 0, 0), Fraction(1), Fraction(1), ONE),
     RIGHT),
])
def test_sampled_known_answers(tmp_path, case, verdict):
    from engelcalc import cli

    item = workloads._sampled_item(cli, case, tmp_path / "m.json")
    item.prepare()
    assert item.check(item.run()) == verdict


def test_catalog_known_answers():
    items = workloads.CatalogWorkload(ROOT, 0).round(0)
    assert len(items) == 17
    by_label = {it.label: it for it in items}
    for label in ("hopf_s3r", "hyperelliptic_product[k=3]"):
        item = by_label[label]
        out = item.run()
        assert item.check(out) == RIGHT
        assert item.check(out.replace('"PASS"', '"FAIL"', 1)) == WRONG
    tt = next(it for it in items if it.label.startswith("torus_trig["))
    assert tt.check(tt.run()) == RIGHT


def test_laws_and_decay_fit_known_answers():
    from engelcalc import geiges, laws

    item = workloads._laws_item(laws, 7)
    out = item.run()
    assert item.check(out) == RIGHT
    assert item.check(out.replace('"passed": true', '"passed": false')) == WRONG
    fit = workloads._decay_fit_item(geiges, 0, 0)
    assert fit.check(fit.run()) == RIGHT


def test_item_time_is_scaled_by_the_probes_near_it():
    log = run.ProbeLog()
    log.at = [0.0, 1.0, 2.0, 100.0]
    log.took = [2e-3, 2e-3, 5e-3, 9.0]
    # 0.6 wall seconds while the probes within WINDOW_S took 3 ms on
    # average: 0.2 reference seconds; the far probe does not count
    assert log.scale(1.0, 1.6) == pytest.approx(0.2)


def test_runner_counts_failed_items():
    runner = run.Runner()

    def boom():
        raise ValueError("boom")

    runner.run(workloads.Item("ok", lambda: "out", lambda out: RIGHT))
    runner.run(workloads.Item("bad", boom, lambda out: RIGHT))
    assert (runner.attempted, runner.failed) == (2, 1)
    ref, wall = runner.times(returned=True)
    assert len(ref) == len(wall) == 1 and ref[0] > 0
    assert len(runner.times()[0]) == 2


def test_rounds_are_fixed_by_seconds():
    wl = workloads.LawsWorkload(0)
    assert run.rounds_for(wl, 10 * wl.round_seconds) == 10
    assert run.rounds_for(wl, 9.5 * wl.round_seconds) == 10
    assert run.rounds_for(wl, 0.01) == 1


def test_tail_has_ten_samples_beyond():
    lat = [float(i) for i in range(100)]
    assert run.tail(lat) == (89.0, 90.0, 10)
    assert run.tail([3.0, 1.0]) == (3.0, 100.0, 0)


def test_tracer_self_times_and_restore():
    from engelcalc import cli, engelcheck, framecalc, trigring

    originals = (cli.verify_engel, engelcheck.bracket, trigring.TrigScalar.__mul__)
    tracer = Tracer()
    tracer.install()
    try:
        assert cli.verify_engel is not originals[0]
        tracer.run_item("hopf", lambda: cli.run_verify("hopf_s3r", ("engel",)))
    finally:
        tracer.uninstall()
    assert (cli.verify_engel, engelcheck.bracket,
            trigring.TrigScalar.__mul__) == originals
    assert framecalc.bracket is engelcheck.bracket
    (item,) = [s for s in tracer.spans if s[3] == "item"]
    duration = item[5] - item[4]
    self_total = sum(s[6] for s in tracer.spans) + sum(t for _, t in tracer.hot.values())
    assert all(s[6] >= 0 for s in tracer.spans)
    assert self_total <= duration
    assert tracer.totals["engelcheck.verify_engel"][0] == 1
    assert tracer.totals["cli.run_verify"][0] == 1
    assert {s[2] for s in tracer.spans} == {0}


@pytest.mark.parametrize("trace, key", [(0, "end_to_end"), (1, "per_layer")])
def test_command_prints_every_metric(trace, key):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    res = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "laws", "--seed", "0",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert res.returncode == 0, res.stderr
    last = json.loads(res.stdout.splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0
    want = {m["name"]: m["unit"] for m in spec[key]}
    assert {k: v["unit"] for k, v in last["metrics"].items()} == want
    assert "python=" in res.stdout and "nproc=" in res.stdout and "commit=" in res.stdout


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    res = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "catalog", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert res.returncode != 0
    assert '"metrics"' not in res.stdout
