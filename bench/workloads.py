"""Seeded inputs, item runners and known answers for the three workloads.

An *item* is one unit of work with a verdict.  A workload hands out its
items in *rounds*: round ``r`` of seed ``s`` is a fixed function of
``(s, r)``, and its mix of item kinds depends on ``r`` alone, so a run of a
fixed number of rounds measures the same mix whatever the seed.  Each
workload states the nominal time of one of its rounds, in reference seconds
(see ``run.py``).  The program only ever sees
the generated inputs (family names, manifest files, law-suite seeds).

Verdicts are checked against answers known without running the program:

* ``catalog``: byte equality with ``reports/golden/<family>.json`` at default
  parameters; for the parameter variants, the golden report's check names,
  statuses and certificate kinds, plus the derived parameters (``n_k``, ``Q``)
  computed here from the construction.
* ``sampled``: Engel PASS exactly when the rescaling factor ``f`` has no zero.
* ``laws``: every failure count 0 and every worst residual within tolerance.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

# Verdict classes.  RIGHT matches the known answer.  TOLERANCE and SAMPLING
# are the two documented certificate defects (an absolute tolerance that
# falsely fails a thin but nonvanishing witness, and a fixed grid that misses
# a zero between its points); they count as wrong verdicts but do not make a
# run incorrect.  WRONG is any other mismatch and does.
RIGHT, TOLERANCE, SAMPLING, WRONG = "right", "tolerance", "sampling", "wrong"


@dataclass
class Item:
    """One timed call into the program plus the check of its output."""

    label: str
    run: Callable[[], object]
    check: Callable[[object], str]
    prepare: Callable[[], None] | None = None


# -- catalog -------------------------------------------------------------------

HP_ORDERS = (2, 3, 4, 6)


def _report_shape(doc: dict) -> list[tuple]:
    return [(c["name"], c["status"], c.get("certificate", {}).get("kind"))
            for c in doc["checks"]]


def _catalog_item(cli, family: str, params: dict[str, str] | None,
                  golden: str, expected_params: dict[str, str] | None) -> Item:
    def run() -> str:
        return cli.emit_report(cli.run_verify(family, params=params), "json")

    if expected_params is None:
        def check(out: str) -> str:
            return RIGHT if out == golden else WRONG
    else:
        shape = _report_shape(json.loads(golden))

        def check(out: str) -> str:
            doc = json.loads(out)
            ok = (_report_shape(doc) == shape
                  and doc["parameters"] == expected_params)
            return RIGHT if ok else WRONG

    label = family + ("" if params is None else
                      "[" + ",".join(f"{k}={v}" for k, v in params.items()) + "]")
    return Item(label, run, check)


def catalog_round_targets(seed: int, r: int) -> list[tuple[str, dict | None, dict | None]]:
    """(family, params, expected derived parameters) for round ``r``.

    The ten families at default parameters, ``hyperelliptic_product`` at each
    classified order k, and three ``torus_trig`` lattices with rational
    slopes drawn afresh each round: 17 targets, in a seeded order.  Fresh
    lattices every round let a run average over the slope draws instead of
    resting on three of them.  Expected parameters come from the
    construction: n_k = 2k + 2 and Q = product of the slope denominators.
    """
    from engelcalc import catalog

    rng = random.Random(f"catalog:{seed}:{r}")
    targets: list[tuple[str, dict | None, dict | None]] = [
        (fam, None, None) for fam in catalog.FAMILIES]
    for k in HP_ORDERS:
        targets.append(("hyperelliptic_product", {"k": str(k)},
                        {"k": str(k), "n_k": str(2 * k + 2)}))
    for _ in range(3):
        slopes = [Fraction(rng.randint(1, 7), rng.randint(1, 6)) for _ in range(3)]
        params = {f"alpha{i + 1}": str(a) for i, a in enumerate(slopes)}
        q = math.prod(a.denominator for a in slopes)
        targets.append(("torus_trig", params, {**params, "Q": str(q)}))
    rng.shuffle(targets)
    return targets


class CatalogWorkload:
    """Catalog families through ``run_verify`` (all suites) + JSON report.

    Fourteen of the 17 targets of a round recur in every round, so items
    repeat across rounds the way a batch user re-runs a fixed target list.
    """

    name = "catalog"
    trace_items = 51  # three rounds
    round_seconds = 0.93  # reference seconds per round, see ``run.rounds_for``

    def __init__(self, root: Path, seed: int):
        from engelcalc import catalog, cli

        self.cli, self.seed = cli, seed
        golden_dir = root / "reports" / "golden"
        self.golden = {fam: (golden_dir / f"{fam}.json").read_text()
                       for fam in catalog.FAMILIES}

    def round(self, r: int) -> list[Item]:
        return [_catalog_item(self.cli, family, params, self.golden[family], expected)
                for family, params, expected in catalog_round_targets(self.seed, r)]


# -- sampled -------------------------------------------------------------------

COORDS = ("x1", "y1", "x2", "y2")
SAMPLED_GRID = 11  # odd, so zeros at <m,x> = 1/2, 1/3 or 1/6 fall off the grid
SAMPLED_SUITES = ("engel", "geiges")

# the coordinate torus of ``torus_trig`` with its standard J, written out
# here so that input generation does not run the program
_BASE_MANIFEST = {
    "frame": ["dx1", "dy1", "dx2", "dy2"],
    "coordinates": list(COORDS),
    "structure": {},
    "derivation": {f"d{c}": {c: "1"} for c in COORDS},
    "complex_structure": [["0", "-1", "0", "0"], ["1", "0", "0", "0"],
                          ["0", "0", "0", "-1"], ["0", "0", "1", "0"]],
    "mapping_torus": {"coordinate": "x1",
                      "V": ["1", "0", "0", "0"], "X": ["0", "0", "1", "0"]},
}


@dataclass(frozen=True)
class SampledCase:
    """A rescaled ``torus_trig`` manifest and its known Engel verdict.

    D = <f * D1, D2> with f = c + a*cos(2*pi*<m, x>).  Where f has no zero D
    is the plane field of ``torus_trig``, an Engel structure, so the answer
    is PASS; where f has a zero the plane degenerates and the answer is FAIL.
    """

    name: str
    kind: str          # clear | margin | zero_on_grid | zero_off_grid
    m: tuple[int, int, int, int]
    c: Fraction
    a: Fraction
    slopes: tuple[Fraction, Fraction, Fraction]

    @property
    def expected(self) -> str:
        return "PASS" if abs(self.c) > abs(self.a) else "FAIL"

    @property
    def support(self) -> int:
        return sum(1 for v in self.m if v)

    def manifest_text(self) -> str:
        q = math.prod(a.denominator for a in self.slopes)
        angle = " ".join(f"{'-' if mi < 0 else '+'} {2 * abs(mi)}*pi*{x}"
                         for mi, x in zip(self.m, COORDS) if mi).lstrip("+ ")
        sign = "-" if self.a < 0 else "+"
        f = f"({self.c} {sign} {abs(self.a)}*cos({angle}))"
        theta = f"{2 * q}*pi*x1"
        doc = dict(_BASE_MANIFEST)
        doc["name"] = self.name
        doc["distribution"] = [
            [f, "0", f"{f}*sin({theta})", f"-{f}*cos({theta})"],
            ["0", "1", f"cos({theta})", f"sin({theta})"],
        ]
        doc["parameters"] = {f"alpha{i + 1}": str(s) for i, s in enumerate(self.slopes)}
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"


# Thin margins, one per support size: (eps = min|f|, sign of a, lattice Q).
# The tolerance is absolute while the rank witnesses grow like powers of
# 2*pi*Q, so a thin margin is only at risk on a lattice with small Q and with
# its minimum on the grid (a < 0 puts it at the origin).  Q = None is seeded.
MARGINS = {1: (Fraction(1, 100), -1, 1), 2: (Fraction(1, 100), 1, None),
           3: (Fraction(1, 50), -1, 2), 4: (Fraction(1, 100), -1, 3)}


def _slopes(rng: random.Random, q: int | None) -> tuple[Fraction, ...]:
    """Three seeded rational slopes whose denominators multiply to q."""
    if q is None:
        return tuple(Fraction(rng.randint(1, 5), rng.randint(1, 3)) for _ in range(3))
    slopes = [Fraction(rng.randint(1, 5)) for _ in range(3)]
    if q > 1:
        p = rng.choice([p for p in range(1, 6) if p % q])
        slopes[rng.randrange(3)] = Fraction(p, q)
    return tuple(slopes)


# The slots of a round: (support of m, kinds).  The support decides how many
# coordinates each witness is sampled over (x1 also enters through the twist
# angle), and so most of an item's cost, so it is fixed per slot while the
# seed draws signs, constants and slopes.  The small supports alternate
# between two passes.  A heavy 4-coordinate item costs about three
# 3-coordinate ones, so a round has one of them, its kind taken in turn,
# next to two 3-coordinate slots: over three rounds the twelve clear and
# zero_off_grid 3-coordinate items then hold the tail latency (ten samples
# beyond it) in their midst.  The 3-coordinate support leaves out x1: with
# x1 in it their cost varies by half with the draws, without it by a tenth.
KINDS = ("clear", "margin", "zero_on_grid", "zero_off_grid")
HEAVY_KINDS = ("clear", "margin", "zero_off_grid")
PASSES = ((0,), (1, 2)), ((3,), (0, 1))


def sampled_slots(r: int) -> list[tuple[tuple[int, ...], tuple[str, ...]]]:
    return [*((support, KINDS) for support in PASSES[r % 2]),
            ((1, 2, 3), KINDS), ((1, 2, 3), KINDS),
            ((0, 1, 2, 3), ("zero_on_grid", HEAVY_KINDS[r % 3]))]


# (c, a) with zeros at <m,x> = 1/2, +-1/3 and +-1/6, taken in turn
OFF_GRID_ZEROS = ((Fraction(1), Fraction(1)), (Fraction(1, 2), Fraction(1)),
                  (Fraction(1, 2), Fraction(-1)))


def sampled_round_cases(seed: int, r: int) -> list[SampledCase]:
    """Eighteen distinct cases, the kinds of each slot of ``sampled_slots(r)``.

    * clear: min|f| >= 1/2, PASS.
    * margin: min|f| = eps from ``MARGINS``, down to 1/100, PASS.
    * zero_on_grid: f = t(1 - cos), a double zero at the grid origin, FAIL.
    * zero_off_grid: zeros at <m,x> = 1/2, +-1/3 or +-1/6, never on the
      odd grid, FAIL.
    """
    rng = random.Random(f"sampled:{seed}:{r}")
    cases = []
    for idx, (support, kinds) in enumerate(sampled_slots(r)):
        k = len(support)
        for kind in kinds:
            m = tuple(rng.choice((-1, 1)) if i in support else 0 for i in range(4))
            q = None
            if kind == "clear":
                c = rng.choice((Fraction(2), Fraction(3), Fraction(3, 2)))
                a = rng.choice((-1, 1)) * rng.choice((Fraction(1), Fraction(1, 2)))
            elif kind == "margin":
                eps, sign, q = MARGINS[k]
                c, a = Fraction(1), sign * (1 - eps)
            elif kind == "zero_on_grid":
                t = rng.choice((Fraction(1), Fraction(2), Fraction(1, 2)))
                c, a = t, -t
            else:
                c, a = OFF_GRID_ZEROS[(idx + r) % len(OFF_GRID_ZEROS)]
            name = f"s{seed}r{r}i{idx}k{k}{kind}"
            cases.append(SampledCase(name, kind, m, c, a, _slopes(rng, q)))
    return cases


def _sampled_item(cli, case: SampledCase, path: Path) -> Item:
    text = case.manifest_text()

    def prepare() -> None:
        path.write_text(text)

    def run() -> str:
        report = cli.run_verify(str(path), SAMPLED_SUITES, grid=SAMPLED_GRID)
        return cli.emit_report(report, "json")

    def check(out: str) -> str:
        got = json.loads(out)["overall"]
        if got == case.expected:
            return RIGHT
        if case.kind == "margin":
            return TOLERANCE
        if case.kind == "zero_off_grid":
            return SAMPLING
        return WRONG

    return Item(f"{case.name}[{case.support}coord]", run, check, prepare)


def _decay_fit_item(geiges, seed: int, r: int) -> Item:
    levels = tuple(sorted(random.Random(f"decay:{seed}:{r}").sample(range(2, 33), 5)))

    def run() -> dict:
        return geiges.residual_decay_fit(geiges.twisted_torus_input(), levels)

    def check(fit: dict) -> str:
        # the tilt makes the first residual exactly 1/n; the second decays
        # at least as fast
        ok = (all(math.isclose(s, 1.0 / n, rel_tol=1e-6)
                  for s, n in zip(fit["sup_first"], levels))
              and -1.3 <= fit["slope_first"] <= -0.7
              and fit["slope_second"] <= -0.7)
        return RIGHT if ok else WRONG

    return Item(f"decay_fit{list(levels)}", run, check)


class SampledWorkload:
    """Distinct user manifests whose witnesses depend on 1 to 4 coordinates.

    Each manifest is written to disk before its round and verified through
    ``run_verify(path, suites=engel,geiges)``; each round also fits the
    residual decay on the built-in twisted torus once.
    """

    name = "sampled"
    trace_items = 19  # one round: every support size, a heavy 4-coordinate item
    round_seconds = 10.0

    def __init__(self, seed: int, workdir: Path):
        from engelcalc import cli, geiges

        self.cli, self.geiges, self.seed, self.workdir = cli, geiges, seed, workdir

    def round(self, r: int) -> list[Item]:
        items = [_sampled_item(self.cli, case, self.workdir / f"{case.name}.json")
                 for case in sampled_round_cases(self.seed, r)]
        return items + [_decay_fit_item(self.geiges, self.seed, r)]


# -- laws ----------------------------------------------------------------------

LAW_CASES = 8
LAWS_PER_ROUND = 4


def _laws_item(laws, law_seed: int) -> Item:
    def run() -> str:
        return json.dumps(laws.run_law_suite(law_seed, cases=LAW_CASES),
                          sort_keys=True)

    def check(out: str) -> str:
        rep = json.loads(out)
        ok = (rep["seed"] == law_seed and rep["cases"] == LAW_CASES
              and rep["passed"] is True
              and all(n == 0 for n in rep["failures"].values())
              and all(v <= rep["tolerance"] for v in rep["worst_residual"].values()))
        return RIGHT if ok else WRONG

    return Item(f"laws[seed={law_seed}]", run, check)


class LawsWorkload:
    """``run_law_suite(seed_i, cases=LAW_CASES)``, one distinct seed per item."""

    name = "laws"
    trace_items = 16
    round_seconds = 0.62

    def __init__(self, seed: int):
        from engelcalc import laws

        self.laws, self.seed = laws, seed

    def law_seed(self, i: int) -> int:
        return random.Random(f"laws:{self.seed}:{i}").randrange(2 ** 31)

    def round(self, r: int) -> list[Item]:
        return [_laws_item(self.laws, self.law_seed(r * LAWS_PER_ROUND + j))
                for j in range(LAWS_PER_ROUND)]
