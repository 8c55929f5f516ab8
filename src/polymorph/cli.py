"""Command line front end and batch experiment harness.

Subcommands: validate, analyze, regularize, polytest, correct, blr,
agree, fr-lift, experiment.  Exit codes: 0 on success, 2 when a
correction run is rejected, 1 on errors.

The experiment harness plants approximate polymorphism instances from a
declarative config file, runs the selected pipeline on each one, and
emits CSV rows.  All randomness flows from a single root seed through
labeled derivation, so reruns are bit-identical.
"""

import argparse
import csv
import hashlib
import io
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import corrector as co
from . import funcspace as fs
from . import harmonics as ha
from . import polytest as pt
from . import predicates as pr
from . import regularity as rg
from .errors import DomainError, PolymorphError, ValidationError

CSV_COLUMNS = ["instance", "pipeline", "seed", "n", "m", "s", "flip",
               "eps", "eta", "d", "tau", "attempts",
               "violation_before", "violation_after",
               "total_distance", "max_distance", "junta_size",
               "accepted", "exact"]


# -- small formatting helpers ------------------------------------------------

def _ints1(coords) -> str:
    """Render a coordinate collection 1-based, comma separated."""
    return ",".join(str(int(c) + 1) for c in sorted(coords))


def _fmt(v) -> str:
    if v is None or v == "":
        return ""
    if isinstance(v, bool):
        return "yes" if v else "no"
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _emit(out, key, value):
    print(f"{key} = {_fmt(value)}", file=out)


def _parse_measure(spec: str, n: int, s: int) -> fs.ProductMeasure:
    """uniform | p:<float> | probs:<p0,p1,...> applied iid."""
    if spec == "uniform":
        return fs.ProductMeasure.uniform(n, s)
    if spec.startswith("p:"):
        if s != 2:
            raise DomainError("p-biased measures need a binary alphabet")
        p = fs.parse_numbers([spec[2:]], float, "measure p")[0]
        return fs.ProductMeasure.p_biased(p, n)
    if spec.startswith("probs:"):
        probs = fs.parse_numbers(spec[len("probs:"):].split(","), float,
                                 "measure probs")
        if len(probs) != s:
            raise DomainError("measure needs one probability per symbol")
        return fs.ProductMeasure.iid(fs.Measure(probs), n)
    raise DomainError(f"unknown measure spec {spec!r}")


def _load_functions(paths) -> list:
    return [fs.load_function(p) for p in paths]


def _print_counterexample(out, ce):
    for j, x in enumerate(ce.inputs):
        _emit(out, f"counterexample input[{j + 1}]",
              "".join(str(v) for v in x))
    _emit(out, "counterexample outputs",
          ",".join(str(v) for v in ce.outputs))


def _decision_counts(decisions) -> str:
    counts = Counter(decisions)
    return " ".join(f"{k}:{counts[k]}" for k in sorted(counts))


# -- transition chain file format ---------------------------------------------
#
#   chain y=<states> factors=<count>
#   factor
#   <row of floats>
#   ...
#   assign <1-based factor index per coordinate>

def parse_chain(text: str) -> co.TransitionChain:
    lines = fs.text_lines(text)
    if not lines or not lines[0].startswith("chain"):
        raise ValidationError("chain file must start with a 'chain' header")
    head = fs.read_fields(lines[0].split()[1:], {"y": int, "factors": int},
                          "chain header", required=("y", "factors"))
    y = head["y"]
    factors, assignment = [], None
    i = 1
    while i < len(lines):
        if lines[i] == "factor":
            rows = [fs.parse_numbers(ln.split(), float, "factor row")
                    for ln in lines[i + 1:i + 1 + y]]
            if len(rows) != y or any(len(row) != y for row in rows):
                raise ValidationError(f"factor needs {y} rows of {y} numbers")
            factors.append(rows)
            i += 1 + y
        elif lines[i].startswith("assign"):
            assignment = [k - 1 for k in fs.parse_numbers(
                lines[i].split()[1:], int, "assign line")]
            i += 1
        else:
            raise ValidationError(f"unexpected chain line {lines[i]!r}")
    if len(factors) != head["factors"]:
        raise ValidationError("factor count does not match the header")
    if assignment is None:
        raise ValidationError("chain file is missing the assign line")
    return co.TransitionChain(factors, assignment)


def load_chain(path) -> co.TransitionChain:
    return parse_chain(Path(path).read_text())


# -- planted instances ---------------------------------------------------------

@dataclass(frozen=True)
class PlantedInstance:
    fs: tuple                     # the perturbed functions
    base: tuple                   # the exact planted polymorphism
    violation: float              # exhaustive violation of fs


def _parse_plant(spec: str, P: pr.Predicate, n: int) -> list:
    """dictator:<i> | character:<S>:<offsets> | constant:<v>, 1-based coords."""
    kind, _, rest = spec.partition(":")
    where = f"plant spec {spec!r}"
    if kind == "dictator":
        i = fs.parse_numbers([rest], int, where)[0] - 1
        if not 0 <= i < n:
            raise DomainError("dictator coordinate out of range")
        return [fs.dictator(n, i, P.s) for _ in range(P.m)]
    if kind == "constant":
        v = fs.parse_numbers([rest], int, where)[0]
        return [fs.constant(n, v, P.s) for _ in range(P.m)]
    if kind == "character":
        if P.s != 2:
            raise DomainError("characters need a binary alphabet")
        s_part, _, b_part = rest.partition(":")
        support = [t - 1 for t in fs.parse_numbers(s_part.split(","), int,
                                                   where)]
        offs = fs.parse_numbers(b_part.split(","), int, where) if b_part \
            else [0] * P.m
        if len(offs) == 1:
            offs = offs * P.m
        if len(offs) != P.m:
            raise ValidationError("need one character offset per function")
        return [fs.character(n, support, b) for b in offs]
    raise DomainError(f"unknown plant spec {spec!r}")


def plant_and_perturb(P: pr.Predicate, n: int, spec: str, eta: float,
                      seed: int) -> PlantedInstance:
    """Build the planted exact polymorphism named by spec, verify it, then
    flip (binary) or remap (larger alphabets) every table entry
    independently with probability eta.  The measured violation of the
    perturbed tuple is exhaustive."""
    if not 0 <= eta < 0.5:
        raise DomainError("flip rate must lie in [0, 1/2)")
    base = _parse_plant(spec, P, n)
    if not pt.is_generalized_polymorphism(P, base)[0]:
        raise ValidationError(f"plant spec {spec!r} is not an exact "
                              "polymorphism of the predicate")
    out = []
    for j, f in enumerate(base):
        values = f.values.copy()
        if eta > 0:
            rng = np.random.Generator(np.random.Philox(
                key=np.array([seed, j], dtype=np.uint64)))
            mask = rng.random(values.size) < eta
            if P.s == 2:
                values[mask] ^= 1
            else:
                shift = rng.integers(1, P.s, size=values.size)
                values[mask] = (values[mask] + shift[mask]) % P.s
        out.append(fs.from_values(n, P.s, f.codomain, values))
    violation = pt.violation_probability(P, out)
    return PlantedInstance(fs=tuple(out), base=tuple(base),
                           violation=violation)


# -- experiment config ----------------------------------------------------------
#
# Single declarative text file.  Global `seed = <int>` line, then one
# `[run <label>]` section per batch entry with key = value lines.  Paths
# are resolved relative to the config file.

RUN_DEFAULTS = {"flip": 0.0, "repeats": 1, "d": 2, "tau": 0.1,
                "attempts": 64}
RUN_TYPES = {"n": int, "flip": float, "repeats": int, "eps": float,
             "d": int, "tau": float, "attempts": int}
PIPELINES = ("monotone", "general", "alphabet", "polytest")


@dataclass(frozen=True)
class RunSpec:
    label: str
    pipeline: str
    pred: str | None
    n: int | None
    plant: str | None
    fn: tuple
    flip: float
    repeats: int
    eps: float
    eta: float | None
    d: int
    tau: float
    attempts: int


@dataclass(frozen=True)
class ExperimentConfig:
    seed: int
    runs: tuple
    base_dir: str


def _run_spec(label: str, lines, base: Path) -> RunSpec:
    where = f"run {label}"
    kv = fs.read_fields(lines, RUN_TYPES, where)
    pipeline = kv.get("pipeline")
    if pipeline not in PIPELINES:
        raise ValidationError(f"{where}: unknown pipeline {pipeline!r}")
    if "pred" not in kv:
        raise ValidationError(f"{where}: missing pred")
    pred_path = base / kv["pred"]
    P = pr.load_predicate(pred_path)
    pr.validate(P)
    plant = kv.get("plant")
    fns = tuple(kv["fn"].split(",")) if "fn" in kv else ()
    if bool(plant) == bool(fns):
        raise ValidationError(f"{where}: give exactly one of plant or fn")
    if plant and "n" not in kv:
        raise ValidationError(f"{where}: plant needs n")
    for rel in fns:
        if fs.load_function(base / rel).s != P.s:
            raise ValidationError(f"{where}: function alphabet does not "
                                  "match the predicate")
    opts = {**RUN_DEFAULTS, **kv}
    if not 0 <= opts["flip"] < 0.5:
        raise ValidationError(f"{where}: flip rate must lie in [0, 1/2)")
    if "eps" not in kv and pipeline != "polytest":
        raise ValidationError(f"{where}: missing eps")
    # an empty eta keeps the pipeline default, so it is read here
    eta = fs.parse_numbers([kv["eta"]], float, f"{where}: eta")[0] \
        if kv.get("eta") else None
    return RunSpec(label=label, pipeline=pipeline, pred=str(pred_path),
                   n=kv.get("n"), plant=plant,
                   fn=tuple(str(base / rel) for rel in fns),
                   flip=opts["flip"], repeats=opts["repeats"],
                   eps=kv.get("eps", 0.0), eta=eta, d=opts["d"],
                   tau=opts["tau"], attempts=opts["attempts"])


def parse_experiment_config(path) -> ExperimentConfig:
    path = Path(path)
    sections = [(None, [])]   # the global lines, then one entry per run
    for raw in path.read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[run ") and line.endswith("]"):
            label = line[len("[run "):-1].strip()
            if not label:
                raise ValidationError("run section needs a label")
            sections.append((label, []))
        else:
            sections[-1][1].append(line)
    head = fs.read_fields(sections[0][1], {"seed": int}, "config")
    for key in head:
        if key != "seed":
            raise ValidationError(f"unknown global key {key!r}")
    runs = [_run_spec(label, lines, path.parent)
            for label, lines in sections[1:]]
    labels = [r.label for r in runs]
    if len(set(labels)) != len(labels):
        raise ValidationError("run labels must be unique")
    return ExperimentConfig(seed=head.get("seed", 0), runs=tuple(runs),
                            base_dir=str(path.parent))


def _derive_seed(root: int, label: str, repeat: int) -> int:
    digest = hashlib.sha256(f"{root}:{label}:{repeat}".encode()).digest()
    return int.from_bytes(digest[:8], "big") % (2 ** 63)


def _correct(pipeline: str, P: pr.Predicate, tables, opts, seed: int):
    """Run a correction pipeline; opts carries eps, eta, d, tau, attempts
    (a RunSpec or the parsed arguments of the correct subcommand)."""
    if pipeline == "monotone":
        return co.correct_monotone(P, tables, opts.eps, d=opts.d, tau=opts.tau)
    correct = co.correct_general if pipeline == "general" \
        else co.correct_alphabet
    return correct(P, tables, opts.eps, eta=opts.eta, d=opts.d, tau=opts.tau,
                   attempts=opts.attempts, seed=seed)


def _csv_row(instance: str, pipeline: str, seed: int, P: pr.Predicate,
             n: int, flip, opts, before: float, after, res) -> dict:
    """One CSV row by column name; res and after are None for polytest."""
    row = {"instance": instance, "pipeline": pipeline, "seed": seed, "n": n,
           "m": P.m, "s": P.s, "flip": flip,
           "eps": "" if pipeline == "polytest" else opts.eps,
           "eta": "" if opts.eta is None else opts.eta,
           "d": opts.d, "tau": opts.tau,
           "attempts": opts.attempts
           if pipeline in ("general", "alphabet") else "",
           "violation_before": before}
    if res is None:
        row.update({"violation_after": "", "total_distance": "",
                    "max_distance": "", "junta_size": "", "accepted": "",
                    "exact": before == 0.0})
    else:
        row.update({"violation_after": after,
                    "total_distance": float(sum(res.distances)),
                    "max_distance": float(max(res.distances)),
                    "junta_size": len(res.trace.junta),
                    "accepted": res.accepted, "exact": res.exact})
    return row


def _run_one(run: RunSpec, P: pr.Predicate, seed: int, out_dir, r: int):
    """The CSV row of one batch item."""
    if run.plant:
        inst = plant_and_perturb(P, run.n, run.plant, run.flip, seed)
        tables, before = list(inst.fs), inst.violation
    else:
        tables = _load_functions(run.fn)
        before = pt.violation_probability(P, tables)
    res = after = None
    if run.pipeline != "polytest":
        res = _correct(run.pipeline, P, tables, run, seed)
        after = pt.violation_probability(P, res.gs)
        if out_dir is not None and res.accepted:
            Path(out_dir).mkdir(parents=True, exist_ok=True)
            saved = []
            for j, g in enumerate(res.gs):
                p = Path(out_dir) / f"{run.label}-{r}-g{j + 1}.fn"
                fs.save_function(p, g)
                saved.append(fs.load_function(p))
            if not pt.is_generalized_polymorphism(P, saved)[0]:
                raise ValidationError("saved functions do not re-verify")
    return _csv_row(f"{run.label}#{r}", run.pipeline, seed, P, tables[0].n,
                    run.flip, run, before, after, res)


def run_experiment(config: ExperimentConfig, out_dir=None,
                   timings: bool = False):
    """Run every batch item and return (header, rows) in config order.

    Per-item seeds come from the root seed by labeled derivation, so row
    content does not depend on execution order.  With out_dir set, the
    output functions of accepted corrections are saved, reloaded, and
    re-verified against the predicate before the row is emitted."""
    header = list(CSV_COLUMNS)
    if timings:
        header.append("wall_ms")
    rows = []
    for run in config.runs:
        P = pr.load_predicate(run.pred)
        for r in range(run.repeats):
            seed = _derive_seed(config.seed, run.label, r)
            start = time.perf_counter()
            try:
                row = _run_one(run, P, seed, out_dir, r)
            except PolymorphError as exc:
                raise type(exc)(f"run {run.label}#{r}: {exc}") from exc
            if timings:
                row["wall_ms"] = f"{(time.perf_counter() - start) * 1000.0:.3f}"
            rows.append([_fmt(row[c]) for c in header])
    return header, rows


def write_csv(path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


# -- subcommand implementations --------------------------------------------------

def _cmd_validate(args, out) -> int:
    P = pr.load_predicate(args.pred)
    rep = pr.validate(P)
    _emit(out, "m", rep.m)
    _emit(out, "s", rep.s)
    _emit(out, "size", rep.size)
    _emit(out, "min_weight", rep.min_weight)
    for j, marg in enumerate(rep.marginals):
        _emit(out, f"marginal[{j + 1}]",
              ",".join(repr(p) for p in marg))
    _emit(out, "degenerate", _ints1(rep.degenerate_coordinates))
    rels = pr.affine_relations(P)
    for S, b in rels:
        _emit(out, "relation", f"S={_ints1(S)} b={b}")
    flex = pr.flexible_coordinates(P)
    _emit(out, "flexible", _ints1(f.coordinate for f in flex))
    return 0


def _cmd_analyze(args, out) -> int:
    f = fs.load_function(args.fn)
    nu = _parse_measure(args.measure, f.n, f.s)
    dec = ha.Decomposition(f, nu)
    _emit(out, "n", f.n)
    _emit(out, "s", f.s)
    _emit(out, "total_norm2", dec.total_norm2)
    for k, mass in enumerate(dec.level_norm2):
        _emit(out, f"level[{k}]", float(mass))
    if args.d:
        for i in range(f.n):
            _emit(out, f"lowdeg_influence[{i + 1}]",
                  float(dec.low_degree_influence(i, args.d)))
    print(dec.export_rows(), file=out, end="")
    return 0


def _measures_for(args, tables):
    if args.pred:
        P = pr.load_predicate(args.pred)
        if len(tables) != P.m:
            raise ValidationError("need one function per predicate "
                                  "coordinate to use its marginals")
        return [fs.ProductMeasure.iid(P.marginal_measure(j), tables[j].n)
                for j in range(P.m)]
    return [_parse_measure(args.measure, f.n, f.s) for f in tables]


def _cmd_regularize(args, out) -> int:
    tables = _load_functions(args.fn)
    measures = _measures_for(args, tables)
    if args.mode == "noisy":
        cert = rg.build_junta_noisy(tables, measures, args.rho, args.tau,
                                    args.eps)
    else:
        cert = rg.build_junta_lowdeg(tables, measures, args.d, args.tau,
                                     args.eps)
    _emit(out, "mode", cert.mode)
    _emit(out, "junta", _ints1(cert.junta))
    _emit(out, "junta_size", len(cert.junta))
    _emit(out, "regular", cert.regular)
    _emit(out, "steps", len(cert.steps))
    _emit(out, "step_bound", cert.step_bound)
    _emit(out, "threshold", cert.threshold)
    for t, step in enumerate(cert.steps):
        _emit(out, f"step[{t + 1}]",
              f"added={_ints1(step.added)} gain={step.gain!r} "
              f"required={step.required!r}")
    _emit(out, "potential",
          ",".join(repr(p) for p in cert.potentials))
    for j, mass in enumerate(cert.regular_mass):
        _emit(out, f"regular_mass[{j + 1}]", float(mass))
    return 0


def _cmd_polytest(args, out) -> int:
    P = pr.load_predicate(args.pred)
    tables = _load_functions(args.fn)
    if args.kind == "exact":
        rep = pt.violation_exact(P, tables)
        _emit(out, "method", rep.method)
        _emit(out, "violation", rep.probability)
        if rep.counterexample is not None:
            _print_counterexample(out, rep.counterexample)
    elif args.kind == "mc":
        rep = pt.violation_mc(P, tables, args.samples, args.seed)
        _emit(out, "method", rep.method)
        _emit(out, "violation", rep.probability)
        _emit(out, "samples", rep.samples)
        _emit(out, "interval",
              f"{rep.interval[0]!r},{rep.interval[1]!r}")
    else:
        ok, ce = pt.is_generalized_polymorphism(P, tables)
        _emit(out, "polymorphism", ok)
        if ce is not None:
            _print_counterexample(out, ce)
    return 0


def _print_correction(out, pipeline, res, fields) -> None:
    """Flags and junta of a correction run, then fields as (key, value)
    pairs, then the counterexample if there is one."""
    _emit(out, "pipeline", pipeline)
    _emit(out, "accepted", res.accepted)
    _emit(out, "exact", res.exact)
    _emit(out, "junta", _ints1(res.trace.junta))
    for key, value in fields:
        _emit(out, key, value)
    if res.counterexample is not None:
        _print_counterexample(out, res.counterexample)


def _emit_functions(out, gs, out_dir, stem) -> None:
    if out_dir is None:
        for j, g in enumerate(gs):
            print(f"function[{j + 1}]:", file=out)
            print(fs.format_function(g), file=out, end="")
    else:
        Path(out_dir).mkdir(parents=True, exist_ok=True)
        for j, g in enumerate(gs):
            p = Path(out_dir) / f"{stem}-g{j + 1}.fn"
            fs.save_function(p, g)
            _emit(out, f"saved[{j + 1}]", p)


def _cmd_correct(args, out) -> int:
    if args.mode == "fractional":
        if len(args.fn) != 2:
            raise ValidationError("fractional correction takes exactly "
                                  "two functions")
        f1, f2 = _load_functions(args.fn)
        res = co.correct_fractional_nand(f1, f2, args.p, args.eps,
                                         d=args.d, tau=args.tau)
        _print_correction(out, "fractional", res,
                          [(f"loss[{j + 1}]", float(loss))
                           for j, loss in enumerate(res.losses)])
        _emit_functions(out, res.gs, args.out_dir, "fractional")
        return 0 if res.accepted else 2

    P = pr.load_predicate(args.pred)
    tables = _load_functions(args.fn)
    res = _correct(args.mode, P, tables, args, args.seed)
    before = pt.violation_probability(P, tables)
    after = pt.violation_probability(P, res.gs)
    tr = res.trace
    fields = [("eta", tr.eta), ("violation_before", before),
              ("violation_after", after)]
    fields += [(f"distance[{j + 1}]", float(d))
               for j, d in enumerate(res.distances)]
    fields += [(f"role[{j + 1}]", role) for j, role in enumerate(tr.roles)]
    fields += [(f"decisions[{j + 1}]", _decision_counts(dec))
               for j, dec in enumerate(tr.decisions) if dec]
    if tr.negated:
        fields.append(("negated", _ints1(tr.negated)))
    fields += [("note", note) for note in tr.notes]
    _print_correction(out, args.mode, res, fields)
    _emit_functions(out, res.gs, args.out_dir, args.mode)
    row = _csv_row("cli", args.mode, args.seed, P, tables[0].n, "", args,
                   before, after, res)
    values = [_fmt(row[c]) for c in CSV_COLUMNS]
    if args.csv:
        new = not Path(args.csv).exists()
        with open(args.csv, "a", newline="") as fh:
            w = csv.writer(fh)
            if new:
                w.writerow(CSV_COLUMNS)
            w.writerow(values)
    else:
        print("csv:", file=out)
        print(",".join(CSV_COLUMNS), file=out)
        print(",".join(values), file=out)
    return 0 if res.accepted else 2


def _cmd_blr(args, out) -> int:
    f = fs.load_function(args.fn)
    dec = co.blr_decode_uniform(f)
    _emit(out, "support", _ints1(dec.support))
    _emit(out, "offset", dec.offset)
    _emit(out, "distance", dec.distance)
    _emit(out, "max_coefficient", dec.max_coefficient)
    return 0


def _cmd_agree(args, out) -> int:
    chain = load_chain(args.chain)
    f = fs.load_function(args.fn)
    rep = co.markov_agreement(chain, f)
    _emit(out, "symbol", rep.symbol)
    _emit(out, "disagreement", rep.disagreement)
    _emit(out, "lambda", rep.lam)
    _emit(out, "bound", rep.bound)
    _emit(out, "miss_probability", rep.miss_probability)
    return 0


def _cmd_fr_lift(args, out) -> int:
    if args.sets:
        family = [tuple(t - 1 for t in fs.parse_numbers(part.split(","), int,
                                                        "--sets"))
                  for part in args.sets.split(";") if part]
        lifted = co.friedgut_regev_lift(family, args.k, n=args.n)
    else:
        lifted = co.friedgut_regev_lift(fs.load_function(args.family),
                                        args.k)
    _emit(out, "n", lifted.n)
    _emit(out, "max", float(lifted.values.max()))
    _emit(out, "mean", float(lifted.values.mean()))
    if args.out:
        fs.save_function(args.out, lifted)
        _emit(out, "saved", args.out)
    else:
        print(fs.format_function(lifted), file=out, end="")
    return 0


def _cmd_experiment(args, out) -> int:
    config = parse_experiment_config(args.config)
    header, rows = run_experiment(config, out_dir=args.out_dir,
                                  timings=args.timings)
    csv_path = args.csv or str(Path(args.config).with_suffix(".csv"))
    write_csv(csv_path, header, rows)
    _emit(out, "runs", len(config.runs))
    _emit(out, "rows", len(rows))
    _emit(out, "csv", csv_path)
    return 0


# -- argument parsing -------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="polymorph",
        description="Analyze, test, round and correct approximate "
                    "generalized polymorphisms of predicates.")
    sub = p.add_subparsers(dest="command", required=True)

    v = sub.add_parser("validate", help="validate a predicate file")
    v.add_argument("--pred", required=True)
    v.set_defaults(fn_=_cmd_validate)

    a = sub.add_parser("analyze", help="harmonic decomposition dump")
    a.add_argument("--fn", required=True)
    a.add_argument("--measure", default="uniform")
    a.add_argument("--d", type=int, default=0,
                   help="also dump degree-d influences")
    a.set_defaults(fn_=_cmd_analyze)

    r = sub.add_parser("regularize", help="grow a regularity junta")
    r.add_argument("--fn", nargs="+", required=True)
    r.add_argument("--mode", choices=("noisy", "lowdeg"),
                   default="lowdeg")
    r.add_argument("--rho", type=float, default=0.9)
    r.add_argument("--d", type=int, default=2)
    r.add_argument("--tau", type=float, required=True)
    r.add_argument("--eps", type=float, required=True)
    r.add_argument("--measure", default="uniform")
    r.add_argument("--pred", help="use this predicate's marginals")
    r.set_defaults(fn_=_cmd_regularize)

    t = sub.add_parser("polytest", help="test the polymorphism property")
    t.add_argument("kind", choices=("exact", "mc", "check"))
    t.add_argument("--pred", required=True)
    t.add_argument("--fn", nargs="+", required=True)
    t.add_argument("--samples", type=int, default=10_000)
    t.add_argument("--seed", type=int, default=0)
    t.set_defaults(fn_=_cmd_polytest)

    c = sub.add_parser("correct", help="round to an exact polymorphism")
    c.add_argument("mode", choices=("monotone", "general", "alphabet",
                                    "fractional"))
    c.add_argument("--pred")
    c.add_argument("--fn", nargs="+", required=True)
    c.add_argument("--eps", type=float, required=True)
    c.add_argument("--eta", type=float, default=None)
    c.add_argument("--d", type=int, default=2)
    c.add_argument("--tau", type=float, default=0.1)
    c.add_argument("--attempts", type=int, default=64)
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--p", type=float, default=0.25,
                   help="fractional NAND weight parameter")
    c.add_argument("--out-dir")
    c.add_argument("--csv", help="append the experiment row here")
    c.set_defaults(fn_=_cmd_correct)

    b = sub.add_parser("blr", help="decode the nearest character")
    b.add_argument("--fn", required=True)
    b.set_defaults(fn_=_cmd_blr)

    g = sub.add_parser("agree", help="Markov chain agreement bound")
    g.add_argument("--chain", required=True)
    g.add_argument("--fn", required=True)
    g.set_defaults(fn_=_cmd_agree)

    fl = sub.add_parser("fr-lift", help="lift a k-set family to the cube")
    fl.add_argument("--family", help="indicator function file")
    fl.add_argument("--sets", help="semicolon-separated 1-based k-sets")
    fl.add_argument("--k", type=int, required=True)
    fl.add_argument("--n", type=int)
    fl.add_argument("--out")
    fl.set_defaults(fn_=_cmd_fr_lift)

    e = sub.add_parser("experiment", help="run a batch config")
    e.add_argument("--config", required=True)
    e.add_argument("--csv")
    e.add_argument("--out-dir")
    e.add_argument("--timings", action="store_true",
                   help="append a wall_ms column (non-deterministic)")
    e.set_defaults(fn_=_cmd_experiment)
    return p


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "correct" and args.mode != "fractional" \
            and not args.pred:
        print("error: --pred is required for this mode", file=sys.stderr)
        return 1
    try:
        return args.fn_(args, sys.stdout)
    except (PolymorphError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def run(argv=None) -> str:
    """Run main with captured stdout; test helper."""
    buf = io.StringIO()
    real = sys.stdout
    sys.stdout = buf
    try:
        code = main(argv)
    finally:
        sys.stdout = real
    if code not in (0, 2):
        raise RuntimeError(f"command failed with exit code {code}")
    return buf.getvalue()


if __name__ == "__main__":
    sys.exit(main())
