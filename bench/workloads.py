"""Seeded workloads for the closed-loop benchmark.

Each workload turns the benchmark seed into a fixed pool of inputs, runs
one item (one library call chain) at a time, and checks every output with
an engine other than the one that produced it.  The loop runs the pool
pass after pass and the figures are taken per entry, so every entry
counts equally.  The library only ever receives the generated inputs,
never the seed.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import polymorph.cli as cli
from polymorph import corrector as co
from polymorph import funcspace as fs
from polymorph import polytest as pt
from polymorph import predicates as pr

AGREE_TOL = 1e-12          # violation_probability against violation_exact
MC_SAMPLES = 20_000


@dataclass
class Item:
    """One pool entry: the predicate, its input tuple and call parameters."""

    shape: str
    P: pr.Predicate
    funcs: tuple = ()
    params: dict = field(default_factory=dict)


# -- shared checks ---------------------------------------------------------

def probability(v) -> float:
    """violation_probability returns a float today; accept a report too."""
    return float(getattr(v, "probability", v))


def independent_violation(P, gs) -> float:
    """Violation of gs by an engine other than the reachability check: the
    odometer when |P|^n fits its cap, otherwise the float contraction."""
    n = gs[0].n
    if len(P) ** n <= pt.ODOMETER_CAP:
        return probability(pt.violation_exact(P, list(gs)))
    Q = np.asarray(pt.joint_output_distribution_contracted(P, list(gs)))
    inside = np.zeros(Q.size, dtype=bool)
    for w in P.members:
        inside[sum(int(a) * P.s ** j for j, a in enumerate(w))] = True
    return float(Q[~inside].sum())


def counterexample_errors(P, funcs, ce) -> list:
    """A counterexample must draw every column from P and, evaluated
    independently, produce outputs that leave P."""
    if ce is None:
        return ["rejected without a counterexample"]
    cols = ce.columns()
    errors = []
    if len(cols) != funcs[0].n or any(tuple(c) not in P for c in cols):
        errors.append("counterexample column outside P")
    outs = tuple(int(v) for v in pt.evaluate_columns(list(funcs), cols))
    if outs != tuple(int(v) for v in ce.outputs):
        errors.append("counterexample outputs disagree with evaluation")
    if outs in P:
        errors.append("counterexample outputs lie in P")
    return errors


def ce_record(ce):
    if ce is None:
        return None
    return (tuple(tuple(int(v) for v in x) for x in ce.inputs),
            tuple(int(v) for v in ce.outputs))


def tables_hash(gs) -> str:
    h = hashlib.sha256()
    for g in gs:
        h.update(np.ascontiguousarray(g.values).tobytes())
    return h.hexdigest()[:16]


def flip_bits(rng, f, rate):
    v = f.values.copy()
    v[rng.random(v.size) < rate] ^= 1
    return fs.from_values(f.n, 2, "bit", v)


def remap_symbols(rng, f, rate):
    v = f.values.copy()
    mask = rng.random(v.size) < rate
    shift = rng.integers(1, f.s, size=v.size)
    v[mask] = (v[mask] + shift[mask]) % f.s
    return fs.from_values(f.n, f.s, "sym", v)


def ternary_nae() -> pr.Predicate:
    return pr.Predicate(3, 3, [w for w in fs.points_in_index_order(3, 3)
                               if len(set(w)) > 1])


# -- workloads -------------------------------------------------------------

class Workload:
    """A pool of items plus the call, the checks and the result record."""

    name = ""
    index = 0
    pool_size = 0

    def __init__(self, seed: int, workdir: Path):
        self.workdir = workdir
        self.rng = np.random.default_rng([seed, self.index])
        self.coords = {}
        self.pool = [self.make_item(k) for k in range(self.pool_size)]

    def coordinate(self, shape: str, n: int) -> int:
        """Planted coordinates run through seeded permutations of range(n)
        per shape, so every pool holds each coordinate about equally
        often."""
        queue = self.coords.setdefault(shape, [])
        if not queue:
            queue.extend(int(i) for i in self.rng.permutation(n))
        return queue.pop()

    def make_item(self, k: int) -> Item:
        raise NotImplementedError

    def run(self, item: Item):
        raise NotImplementedError

    def verify(self, item: Item, result) -> list:
        raise NotImplementedError

    def record(self, item: Item, result) -> tuple:
        raise NotImplementedError

    def accepted(self, result) -> bool | None:
        """Whether a correction was accepted; None for non-corrections."""
        return None

    def warm_up(self) -> dict:
        """Run the first item of every shape once; return cold ms per shape."""
        cold = {}
        for item in self.pool:
            if item.shape not in cold:
                start = time.perf_counter()
                self.run(item)
                cold[item.shape] = (time.perf_counter() - start) * 1e3
        return cold


class Correction(Workload):
    """Workloads whose items are correction pipeline calls."""

    def accepted(self, result):
        return bool(result.accepted)

    def verify(self, item, res):
        """An exact output must pass an independent engine; any other
        output must carry a valid counterexample."""
        if res.accepted and not res.exact:
            return ["accepted but not exact"]
        if res.exact:
            if independent_violation(item.P, res.gs) != 0.0:
                return ["exact output violates P"]
            return []
        return counterexample_errors(item.P, res.gs, res.counterexample)

    def record(self, item, res):
        return (bool(res.accepted), bool(res.exact),
                tuple(int(j) for j in res.trace.junta),
                tuple(float(d) for d in res.distances),
                ce_record(res.counterexample), tables_hash(res.gs))


class Monotone(Correction):
    """Criterion-4 mix: NAND2 with a shared noisy dictator, NAND3 with three
    noisy dictators, n = 10, flip 0.01.  Three NAND2 items per NAND3 item
    put p50 inside the NAND2 cluster and p90 inside the NAND3 cluster, so
    neither percentile sits in the gap between the two modes."""

    name, index, pool_size = "monotone", 1, 40
    N, FLIP = 10, 0.01
    PATTERN = ("nand2 n=10", "nand2 n=10", "nand2 n=10", "nand3 n=10")

    def make_item(self, k):
        shape = self.PATTERN[k % len(self.PATTERN)]
        base = fs.dictator(self.N, self.coordinate(shape, self.N))
        if shape.startswith("nand2"):
            shared = flip_bits(self.rng, base, self.FLIP)
            return Item(shape, pr.nand_predicate(2), (shared, shared))
        return Item(shape, pr.nand_predicate(3),
                    tuple(flip_bits(self.rng, base, self.FLIP)
                          for _ in range(3)))

    def run(self, item):
        return co.correct_monotone(item.P, list(item.funcs), 0.1, d=2, tau=0.2)

    def verify(self, item, res):
        errors = super().verify(item, res)
        if any(np.any(g.values > f.values) for f, g in zip(item.funcs, res.gs)):
            errors.append("output exceeds input")
        if item.shape.startswith("nand2") and not res.gs[0].equals(res.gs[1]):
            errors.append("shared input gave different outputs")
        if res.accepted != res.exact:
            errors.append("accepted differs from exact")
        return errors


class General(Correction):
    """Criterion-5 mix: P_{3,0} with noisy characters on one support of
    size 1 to 3, n = 10, flip 0.02, correct_general(attempts=16)."""

    name, index, pool_size = "general", 2, 16
    N, FLIP = 10, 0.02

    def make_item(self, k):
        size = int(self.rng.integers(1, 4))
        S = sorted(int(i) for i in self.rng.choice(self.N, size=size,
                                                   replace=False))
        b0, b1 = int(self.rng.integers(0, 2)), int(self.rng.integers(0, 2))
        funcs = tuple(flip_bits(self.rng, fs.character(self.N, S, b), self.FLIP)
                      for b in (b0, b1, b0 ^ b1))
        return Item("par3 n=10", pr.parity_predicate(3, 0), funcs,
                    {"seed": int(self.rng.integers(0, 1 << 31))})

    def run(self, item):
        return co.correct_general(item.P, list(item.funcs), 0.1, attempts=16,
                                  seed=item.params["seed"])

    def verify(self, item, res):
        errors = super().verify(item, res)
        if res.accepted and max(res.distances) > co.DISTANCE_BUDGET:
            errors.append("accepted beyond the distance budget")
        return errors


@dataclass
class OracleResult:
    exact: bool
    counterexample: object
    probability: float
    exhaustive: float | None
    mc: object


class Oracle(Workload):
    """Planted dictator tuples perturbed at flip 0.01, checked but not
    corrected.  Per 20 items: 6 ternary NAE n=6 and 8 NAND3 n=10 (the
    cheap 70%, with p50 inside the NAND3 cluster), 3 one-hot m=4 n=7, and
    3 parity n=10 (the dearest 15%, holding p90)."""

    name, index, pool_size = "oracle", 3, 60
    FLIP = 0.01
    PATTERN = ("nand3", "nae3", "par3", "nand3", "onehot",
               "nand3", "nae3", "nae3", "nand3", "onehot",
               "nand3", "nae3", "par3", "nand3", "onehot",
               "nand3", "nae3", "par3", "nand3", "nae3")
    SHAPES = {"nand3": (lambda: pr.nand_predicate(3), 10),
              "nae3": (ternary_nae, 6),
              "par3": (lambda: pr.parity_predicate(3, 0), 10),
              "onehot": (lambda: pr.one_hot_predicate(4), 7)}

    def make_item(self, k):
        key = self.PATTERN[k % len(self.PATTERN)]
        make, n = self.SHAPES[key]
        P = make()
        base = fs.dictator(n, self.coordinate(key, n), P.s)
        perturb = flip_bits if P.s == 2 else remap_symbols
        funcs = tuple(perturb(self.rng, base, self.FLIP) for _ in range(P.m))
        return Item(f"{key} n={n}", P, funcs,
                    {"mc_seed": int(self.rng.integers(0, 1 << 31))})

    def run(self, item):
        P, funcs = item.P, list(item.funcs)
        exact, ce = pt.is_generalized_polymorphism(P, funcs)
        prob = pt.violation_probability(P, funcs)
        exhaustive = None
        if len(P) ** funcs[0].n <= pt.ODOMETER_CAP:
            exhaustive = pt.violation_exact(P, funcs).probability
        mc = pt.violation_mc(P, funcs, MC_SAMPLES, item.params["mc_seed"])
        return OracleResult(exact, ce, probability(prob), exhaustive, mc)

    def verify(self, item, res):
        errors = []
        if res.exact:
            if res.counterexample is not None or res.probability != 0.0:
                errors.append("exact verdict with a violation")
        else:
            errors += counterexample_errors(item.P, item.funcs,
                                            res.counterexample)
            if not res.probability > 0.0:
                errors.append("counterexample but zero violation probability")
        if (res.exhaustive is not None
                and abs(res.exhaustive - res.probability) > AGREE_TOL):
            errors.append("contraction and odometer disagree")
        p, mc = res.probability, res.mc
        if mc.samples != MC_SAMPLES or not 0.0 <= mc.probability <= 1.0:
            errors.append("bad Monte Carlo report")
        elif abs(mc.probability - p) > (6 * math.sqrt(p * (1 - p) / MC_SAMPLES)
                                        + 1 / MC_SAMPLES):
            errors.append("Monte Carlo estimate more than 6 sigma from the "
                          "exact probability")
        return errors

    def record(self, item, res):
        return (bool(res.exact), ce_record(res.counterexample),
                res.probability, res.exhaustive, float(res.mc.probability))


class Cli(Workload):
    """One in-process `experiment` command per item on a config written at
    set-up: a ternary-NAE alphabet run at n = 6 and a parity polytest row
    at n = 8, each planted and perturbed at flip 0.02.  About one config in
    five needs a second restriction attempt, whose failed check searches
    for a counterexample; a pool of 48 keeps that share, which holds p90,
    close to the same in every seed's pool."""

    name, index, pool_size = "cli", 4, 48
    NAE_N, PAR_N, FLIP = 6, 8, 0.02

    def __init__(self, seed, workdir):
        workdir.mkdir(parents=True, exist_ok=True)
        self.nae, self.par = ternary_nae(), pr.parity_predicate(3, 0)
        pr.save_predicate(workdir / "nae3.pred", self.nae)
        pr.save_predicate(workdir / "par3.pred", self.par)
        super().__init__(seed, workdir)

    def make_item(self, k):
        i = self.coordinate("nae", self.NAE_N) + 1
        size = int(self.rng.integers(1, 4))
        S = sorted(int(t) + 1 for t in self.rng.choice(self.PAR_N, size=size,
                                                       replace=False))
        b0, b1 = int(self.rng.integers(0, 2)), int(self.rng.integers(0, 2))
        par_plant = (f"character:{','.join(map(str, S))}:"
                     f"{b0},{b1},{b0 ^ b1}")
        config = self.workdir / f"item{k}.cfg"
        config.write_text(
            f"seed = {int(self.rng.integers(0, 1 << 31))}\n"
            "[run nae]\npipeline = alphabet\npred = nae3.pred\n"
            f"n = {self.NAE_N}\nplant = dictator:{i}\nflip = {self.FLIP}\n"
            "eps = 0.1\nattempts = 16\n"
            "[run par]\npipeline = polytest\npred = par3.pred\n"
            f"n = {self.PAR_N}\nplant = {par_plant}\nflip = {self.FLIP}\n")
        return Item("experiment", self.nae, (), {
            "config": config, "csv": self.workdir / f"item{k}.csv",
            "out": self.workdir / f"item{k}-out", "par_plant": par_plant})

    def run(self, item):
        p = item.params
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["experiment", "--config", str(p["config"]),
                             "--csv", str(p["csv"]), "--out-dir", str(p["out"])])
        return code, p["csv"].read_text()

    @staticmethod
    def rows(result) -> dict:
        return {r["instance"]: r for r in csv.DictReader(io.StringIO(result[1]))}

    def accepted(self, result):
        return self.rows(result).get("nae#0", {}).get("accepted") == "yes"

    def verify(self, item, result):
        if result[0] != 0:
            return [f"experiment exited {result[0]}"]
        rows = self.rows(result)
        if set(rows) != {"nae#0", "par#0"}:
            return ["experiment rows missing"]
        errors = []
        nae = rows["nae#0"]
        if nae["accepted"] == "yes":
            if nae["exact"] != "yes" or float(nae["violation_after"]) != 0.0:
                errors.append("accepted row is not exact")
            saved = [fs.load_function(item.params["out"] / f"nae-0-g{j}.fn")
                     for j in (1, 2, 3)]
            if independent_violation(self.nae, saved) != 0.0:
                errors.append("saved outputs violate P")
        par = rows["par#0"]
        inst = cli.plant_and_perturb(self.par, self.PAR_N,
                                     item.params["par_plant"], self.FLIP,
                                     int(par["seed"]))
        exhaustive = pt.violation_exact(self.par, list(inst.fs)).probability
        if abs(float(par["violation_before"]) - exhaustive) > AGREE_TOL:
            errors.append("polytest row disagrees with the odometer")
        if (par["exact"] == "yes") != (exhaustive == 0.0):
            errors.append("polytest exact flag disagrees with the odometer")
        return errors

    @staticmethod
    def typed(text: str):
        """A CSV field as a flag, None, int, float or string, so that the
        digest rounds its floats like those of the other workloads."""
        if text in ("yes", "no"):
            return text == "yes"
        if text == "":
            return None
        for kind in (int, float):
            with contextlib.suppress(ValueError):
                return kind(text)
        return text

    def record(self, item, result):
        return (result[0],) + tuple(
            tuple(self.typed(v) for v in row.values())
            for _, row in sorted(self.rows(result).items()))


WORKLOADS = {w.name: w for w in (Monotone, General, Oracle, Cli)}
