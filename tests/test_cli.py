"""Tests for the command line front end and the experiment harness."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from polymorph import cli
from polymorph import corrector as co
from polymorph import funcspace as fs
from polymorph import polytest as pt
from polymorph import predicates as pr
from polymorph.errors import DomainError, ValidationError


def _lines(text):
    return dict(ln.split(" = ", 1) for ln in text.splitlines()
                if " = " in ln)


def _write_fixtures(tmp_path):
    pr.save_predicate(tmp_path / "nand2.pred", pr.nand_predicate(2))
    pr.save_predicate(tmp_path / "par3.pred", pr.parity_predicate(3, 0))
    fs.save_function(tmp_path / "maj3.fn",
                     fs.from_values(3, 2, "bit", [0, 0, 0, 1, 0, 1, 1, 1]))
    rng = np.random.default_rng(5)
    for j in range(2):
        v = fs.dictator(8, 3).values.copy()
        mask = rng.random(v.size) < 0.01
        v[mask] ^= 1
        fs.save_function(tmp_path / f"noisy{j}.fn",
                         fs.from_values(8, 2, "bit", v))
    return tmp_path


# -- basic subcommands --------------------------------------------------------

def test_validate_reports_relations_and_flexibility(tmp_path):
    _write_fixtures(tmp_path)
    out = cli.run(["validate", "--pred", str(tmp_path / "par3.pred")])
    assert "relation = S=1,2,3 b=0" in out
    out = cli.run(["validate", "--pred", str(tmp_path / "nand2.pred")])
    assert "relation" not in out
    assert _lines(out)["flexible"] == "1,2"


def test_analyze_matches_decomposition(tmp_path):
    _write_fixtures(tmp_path)
    out = cli.run(["analyze", "--fn", str(tmp_path / "maj3.fn"),
                   "--d", "2"])
    kv = _lines(out)
    assert kv["total_norm2"] == "0.5"
    assert kv["level[1]"] == "0.1875"
    assert kv["lowdeg_influence[2]"] == "0.0625"
    assert "S=1,2,3 norm2=0.0625" in out


def test_blr_subcommand(tmp_path):
    _write_fixtures(tmp_path)
    kv = _lines(cli.run(["blr", "--fn", str(tmp_path / "maj3.fn")]))
    assert kv["support"] == "1"
    assert kv["offset"] == "0"
    assert kv["distance"] == "0.25"


def test_polytest_exact_and_check(tmp_path):
    _write_fixtures(tmp_path)
    pred = str(tmp_path / "nand2.pred")
    for j in range(2):
        fs.save_function(tmp_path / f"d{j}.fn", fs.dictator(4, 1))
    fns = [str(tmp_path / f"d{j}.fn") for j in range(2)]
    kv = _lines(cli.run(["polytest", "exact", "--pred", pred,
                         "--fn"] + fns))
    assert kv["violation"] == "0.0"
    out = cli.run(["polytest", "check", "--pred", pred, "--fn"] + fns)
    assert _lines(out)["polymorphism"] == "yes"
    fs.save_function(tmp_path / "one.fn", fs.constant(4, 1))
    out = cli.run(["polytest", "check", "--pred", pred,
                   "--fn", str(tmp_path / "one.fn"), fns[1]])
    assert _lines(out)["polymorphism"] == "no"
    assert "counterexample outputs" in out


def test_polytest_mc_reports_interval(tmp_path):
    _write_fixtures(tmp_path)
    fns = [str(tmp_path / f"noisy{j}.fn") for j in range(2)]
    out = cli.run(["polytest", "mc", "--pred", str(tmp_path / "nand2.pred"),
                   "--fn"] + fns + ["--samples", "2000", "--seed", "3"])
    kv = _lines(out)
    assert kv["samples"] == "2000"
    lo, hi = (float(t) for t in kv["interval"].split(","))
    assert 0.0 <= lo <= float(kv["violation"]) <= hi <= 1.0


def test_regularize_with_predicate_marginals(tmp_path):
    _write_fixtures(tmp_path)
    out = cli.run(["regularize",
                   "--fn", str(tmp_path / "noisy0.fn"),
                   str(tmp_path / "noisy1.fn"),
                   "--pred", str(tmp_path / "nand2.pred"),
                   "--tau", "0.2", "--eps", "0.1", "--d", "2"])
    kv = _lines(out)
    assert kv["regular"] == "yes"
    assert kv["junta"] == "4"
    assert float(kv["regular_mass[1]"]) >= 0.9


# -- correct subcommand -------------------------------------------------------

def test_correct_monotone_saves_and_reverifies(tmp_path):
    _write_fixtures(tmp_path)
    out_dir = tmp_path / "out"
    csv_path = tmp_path / "runs.csv"
    argv = ["correct", "monotone", "--pred", str(tmp_path / "nand2.pred"),
            "--fn", str(tmp_path / "noisy0.fn"), str(tmp_path / "noisy1.fn"),
            "--eps", "0.1", "--tau", "0.2",
            "--out-dir", str(out_dir), "--csv", str(csv_path)]
    assert cli.main(argv) == 0
    P = pr.load_predicate(tmp_path / "nand2.pred")
    gs = [fs.load_function(out_dir / f"monotone-g{j + 1}.fn")
          for j in range(2)]
    assert pt.is_generalized_polymorphism(P, gs)[0]
    assert cli.main(argv) == 0
    lines = csv_path.read_text().splitlines()
    assert lines[0].startswith("instance,pipeline,")
    assert len(lines) == 3 and lines[1] == lines[2]


def test_correct_rejection_exits_2(tmp_path, capsys):
    _write_fixtures(tmp_path)
    for j in range(2):
        fs.save_function(tmp_path / f"one{j}.fn", fs.constant(5, 1))
    code = cli.main(["correct", "monotone",
                     "--pred", str(tmp_path / "nand2.pred"),
                     "--fn", str(tmp_path / "one0.fn"),
                     str(tmp_path / "one1.fn"), "--eps", "0.1"])
    out = capsys.readouterr().out
    assert code == 2
    assert _lines(out)["accepted"] == "no"
    assert "counterexample outputs" in out


def test_correct_general_inline_function_dump(tmp_path):
    _write_fixtures(tmp_path)
    rng = np.random.default_rng(9)
    for j in range(3):
        v = fs.character(7, [1, 4]).values.copy()
        mask = rng.random(v.size) < 0.02
        v[mask] ^= 1
        fs.save_function(tmp_path / f"c{j}.fn",
                         fs.from_values(7, 2, "bit", v))
    out = cli.run(["correct", "general", "--pred", str(tmp_path / "par3.pred"),
                   "--fn"] + [str(tmp_path / f"c{j}.fn") for j in range(3)]
                  + ["--eps", "0.1", "--attempts", "8", "--seed", "2"])
    kv = _lines(out)
    assert kv["accepted"] == "yes"
    assert kv["violation_after"] == "0.0"
    assert out.count("fn n=7 sigma=2") == 3
    assert "csv:" in out


def test_correct_fractional_cli(tmp_path):
    lifted = co.friedgut_regev_lift([(0,)], 1, n=6)
    for j in range(2):
        fs.save_function(tmp_path / f"r{j}.fn", lifted)
    out = cli.run(["correct", "fractional",
                   "--fn", str(tmp_path / "r0.fn"), str(tmp_path / "r1.fn"),
                   "--eps", "0.2", "--p", "0.25", "--tau", "0.05"])
    kv = _lines(out)
    assert kv["exact"] == "yes"
    assert float(kv["loss[1]"]) <= 0.2


def test_correct_missing_pred_is_an_error(capsys):
    code = cli.main(["correct", "general", "--fn", "x.fn", "--eps", "0.1"])
    assert code == 1
    assert "error" in capsys.readouterr().err


# -- chains and lifts ----------------------------------------------------------

def test_agree_round_trips_chain_file(tmp_path):
    _write_fixtures(tmp_path)
    chain_path = tmp_path / "lazy.chain"
    chain_path.write_text(
        "chain y=2 factors=2\n"
        "factor\n0.9 0.1\n0.1 0.9\n"
        "factor\n0.7 0.3\n0.3 0.7\n"
        "assign 1 2 1\n")
    kv = _lines(cli.run(["agree", "--chain", str(chain_path),
                         "--fn", str(tmp_path / "maj3.fn")]))
    assert kv["lambda"] == "0.8"
    assert float(kv["miss_probability"]) <= float(kv["bound"]) + 1e-9
    chain = cli.load_chain(chain_path)
    rep = co.markov_agreement(chain, fs.load_function(tmp_path / "maj3.fn"))
    assert repr(rep.disagreement) == kv["disagreement"]


def test_parse_chain_rejects_malformed():
    with pytest.raises(ValidationError):
        cli.parse_chain("factor\n0.5 0.5\n0.5 0.5\n")
    with pytest.raises(ValidationError):
        cli.parse_chain("chain y=2 factors=1\nfactor\n0.9 0.1\n0.1 0.9\n")


def test_fr_lift_saves_equal_table(tmp_path):
    out_path = tmp_path / "lift.fn"
    out = cli.run(["fr-lift", "--sets", "1,2;1,3", "--k", "2",
                   "--n", "4", "--out", str(out_path)])
    assert "saved" in out
    direct = co.friedgut_regev_lift([(0, 1), (0, 2)], 2, n=4)
    loaded = fs.load_function(out_path)
    assert np.allclose(loaded.values, direct.values)


# -- planted instances -----------------------------------------------------------

def test_plant_eta_zero_is_exact():
    P = pr.nand_predicate(2)
    inst = cli.plant_and_perturb(P, 6, "dictator:3", 0.0, seed=1)
    assert inst.violation == 0.0
    for f, g in zip(inst.fs, inst.base):
        assert f.equals(g)


def test_plant_dictators_union_bound():
    P = pr.nand_predicate(3)
    for seed in range(5):
        inst = cli.plant_and_perturb(P, 10, "dictator:4", 0.01, seed=seed)
        assert inst.violation <= 3 * P.m * 0.01


def test_plant_character_decoded_by_general():
    P = pr.parity_predicate(3, 0)
    inst = cli.plant_and_perturb(P, 8, "character:2,5:0", 0.02, seed=7)
    res = co.correct_general(P, list(inst.fs), 0.1, attempts=8, seed=7)
    assert res.accepted and res.exact
    for g, b in zip(res.gs, inst.base):
        assert g.equals(b)


def test_plant_rejects_non_polymorphisms():
    P = pr.nand_predicate(2)
    with pytest.raises(ValidationError):
        cli.plant_and_perturb(P, 4, "constant:1", 0.0, seed=0)
    with pytest.raises(DomainError):
        cli.plant_and_perturb(P, 4, "mystery:1", 0.0, seed=0)
    with pytest.raises(DomainError):
        cli.plant_and_perturb(P, 4, "dictator:1", 0.5, seed=0)


# -- experiment harness ----------------------------------------------------------

def _nand_batch_config(tmp_path, repeats=10):
    _write_fixtures(tmp_path)
    cfg = tmp_path / "batch.cfg"
    cfg.write_text(
        "seed = 11\n"
        "[run nand]\n"
        "pipeline = monotone\n"
        "pred = nand2.pred\n"
        "n = 8\n"
        "plant = dictator:4\n"
        "flip = 0.01\n"
        f"repeats = {repeats}\n"
        "eps = 0.1\n"
        "tau = 0.2\n")
    return cfg


def test_experiment_ten_nand_rows_rerun_identical(tmp_path):
    cfg = _nand_batch_config(tmp_path)
    config = cli.parse_experiment_config(cfg)
    header, rows = cli.run_experiment(config)
    header2, rows2 = cli.run_experiment(config)
    assert header == header2 and rows == rows2
    assert len(rows) == 10
    accepted = [r for r in rows if r[header.index("accepted")] == "yes"]
    assert len(accepted) >= 8


def test_experiment_empty_batch_header_only(tmp_path):
    cfg = tmp_path / "empty.cfg"
    cfg.write_text("seed = 3\n")
    config = cli.parse_experiment_config(cfg)
    header, rows = cli.run_experiment(config)
    assert rows == [] and header == cli.CSV_COLUMNS
    csv_path = tmp_path / "empty.csv"
    assert cli.main(["experiment", "--config", str(cfg),
                     "--csv", str(csv_path)]) == 0
    assert csv_path.read_text().splitlines() == [",".join(cli.CSV_COLUMNS)]


def test_experiment_mixed_pipelines_tagged(tmp_path):
    _write_fixtures(tmp_path)
    cfg = tmp_path / "mixed.cfg"
    cfg.write_text(
        "seed = 4\n"
        "[run a]\n"
        "pipeline = monotone\npred = nand2.pred\nn = 6\n"
        "plant = dictator:2\nflip = 0.01\neps = 0.1\ntau = 0.2\n"
        "[run b]\n"
        "pipeline = general\npred = par3.pred\nn = 6\n"
        "plant = character:1,3:0\nflip = 0.01\neps = 0.1\nattempts = 8\n"
        "[run c]\n"
        "pipeline = polytest\npred = nand2.pred\nn = 5\n"
        "plant = dictator:1\n")
    header, rows = cli.run_experiment(cli.parse_experiment_config(cfg))
    col = header.index("pipeline")
    assert [r[col] for r in rows] == ["monotone", "general", "polytest"]
    exact = header.index("exact")
    assert rows[2][exact] == "yes"


def test_experiment_saved_outputs_reverify(tmp_path):
    cfg = _nand_batch_config(tmp_path, repeats=3)
    out_dir = tmp_path / "saved"
    config = cli.parse_experiment_config(cfg)
    header, rows = cli.run_experiment(config, out_dir=out_dir)
    P = pr.load_predicate(tmp_path / "nand2.pred")
    acc = header.index("accepted")
    for r, row in enumerate(rows):
        if row[acc] != "yes":
            continue
        gs = [fs.load_function(out_dir / f"nand-{r}-g{j + 1}.fn")
              for j in range(2)]
        assert pt.is_generalized_polymorphism(P, gs)[0]


def test_experiment_timings_column_is_optional(tmp_path):
    cfg = _nand_batch_config(tmp_path, repeats=1)
    config = cli.parse_experiment_config(cfg)
    header, rows = cli.run_experiment(config, timings=True)
    assert header[-1] == "wall_ms"
    assert len(rows[0]) == len(cli.CSV_COLUMNS) + 1
    float(rows[0][-1])


def test_experiment_config_validation(tmp_path):
    _write_fixtures(tmp_path)
    bad = tmp_path / "bad.cfg"
    bad.write_text("seed = 1\n[run x]\npipeline = monotone\n"
                   "pred = nand2.pred\nn = 4\nplant = dictator:1\n"
                   "flip = 0.7\neps = 0.1\n")
    with pytest.raises(ValidationError, match="run x"):
        cli.parse_experiment_config(bad)
    bad.write_text("seed = 1\n[run x]\npipeline = warp\n"
                   "pred = nand2.pred\nn = 4\nplant = dictator:1\n"
                   "eps = 0.1\n")
    with pytest.raises(ValidationError, match="pipeline"):
        cli.parse_experiment_config(bad)
    bad.write_text("seed = 1\n[run x]\npipeline = monotone\n"
                   "pred = missing.pred\nn = 4\nplant = dictator:1\n"
                   "eps = 0.1\n")
    with pytest.raises(OSError):
        cli.parse_experiment_config(bad)


def test_cli_errors_exit_1(tmp_path, capsys):
    assert cli.main(["validate", "--pred", str(tmp_path / "nope.pred")]) == 1
    assert "error:" in capsys.readouterr().err


# -- malformed input ---------------------------------------------------------------

SRC = Path(__file__).resolve().parents[1] / "src"
_RUN_CFG = ("seed = 1\n[run a]\npipeline = monotone\npred = nand2.pred\n"
            "plant = dictator:1\neps = 0.1\n")
MALFORMED = {
    "fn-table": ("bad.fn", "fn n=1 sigma=2 codomain=bit\ntable x 1\n",
                 ["analyze", "--fn", "{}"]),
    "pred-weight": ("bad.pred", "pred m=2 sigma=2\nw=00 p=abc\n",
                    ["validate", "--pred", "{}"]),
    "config-seed": ("bad.cfg", "seed = abc\n",
                    ["experiment", "--config", "{}"]),
    "config-n": ("bad.cfg", _RUN_CFG + "n = x\n",
                 ["experiment", "--config", "{}"]),
    "config-run-key": ("bad.cfg", _RUN_CFG + "n = 6\nattempt = 3\n",
                       ["experiment", "--config", "{}"]),
    "chain-cut": ("bad.chain", "chain y=2 factors=1\nfactor\n0.9 0.1\n",
                  ["agree", "--fn", "maj3.fn", "--chain", "{}"]),
    "measure": ("unused.txt", "",
                ["analyze", "--fn", "maj3.fn", "--measure", "p:abc"]),
    "mc-seed": ("unused.txt", "",
                ["polytest", "mc", "--pred", "nand2.pred", "--fn",
                 "noisy0.fn", "noisy1.fn", "--seed", "-1"]),
    "tau-nan": ("unused.txt", "",
                ["correct", "monotone", "--pred", "nand2.pred", "--fn",
                 "noisy0.fn", "noisy1.fn", "--eps", "0.1", "--tau", "nan"]),
}


def _cli(args, cwd, *flags):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    return subprocess.run([sys.executable, *flags, "-m", "polymorph.cli",
                           *args], cwd=cwd, env=env, capture_output=True,
                          text=True, timeout=120)


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_input_exits_1_with_error_line(tmp_path, case):
    _write_fixtures(tmp_path)
    name, text, args = MALFORMED[case]
    (tmp_path / name).write_text(text)
    proc = _cli([a.format(name) for a in args], tmp_path)
    assert proc.returncode == 1
    assert any(ln.startswith("error:") for ln in proc.stderr.splitlines())
    assert "Traceback" not in proc.stderr + proc.stdout


def test_module_entry_point_has_no_runtime_warning(tmp_path):
    _write_fixtures(tmp_path)
    proc = _cli(["validate", "--pred", "nand2.pred"], tmp_path,
                "-W", "error::RuntimeWarning")
    assert proc.returncode == 0, proc.stderr
    assert _lines(proc.stdout)["flexible"] == "1,2"
