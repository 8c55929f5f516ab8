"""Pinned fingerprints of seeded correction runs.

Each instance runs one pipeline on a fixed, seeded input and reduces its
result to a fingerprint: accepted and exact flags, the junta, per-function
decisions, the restriction-attempt log, the winning restriction's patterns,
the counterexample, and a sha256 of the output tables.  The pinned values
were recorded before the pipelines were restructured; any refactor must
reproduce them bit for bit.
"""

import hashlib
import itertools

import numpy as np
import pytest

from polymorph import cli
from polymorph import corrector as co
from polymorph import funcspace as fs
from polymorph import polytest as pt
from polymorph import predicates as pr


def _rng(seed):
    return np.random.Generator(np.random.Philox(key=seed))


def _flip(f, rate, seed):
    mask = (_rng(seed).random(f.values.size) < rate).astype(np.uint8)
    return fs.from_values(f.n, 2, "bit", f.values ^ mask)


def _sym_noise(f, rate, seed):
    rng = _rng(seed)
    mask = rng.random(f.values.size) < rate
    shift = rng.integers(1, f.s, f.values.size)
    vals = np.where(mask, (f.values + shift) % f.s, f.values)
    return fs.from_values(f.n, f.s, "sym", vals.astype(np.uint8))


def _ternary_nae():
    return pr.Predicate(3, 3, [w for w in itertools.product(range(3), repeat=3)
                               if len(set(w)) > 1])


def _tables_digest(gs) -> str:
    h = hashlib.sha256()
    for g in gs:
        h.update(f"{g.n},{g.s},{g.codomain};".encode())
        h.update(np.ascontiguousarray(g.values).tobytes())
    return h.hexdigest()


def _fingerprint(res) -> dict:
    tr = res.trace
    ce = res.counterexample
    out = {
        "accepted": bool(res.accepted),
        "exact": bool(res.exact),
        "junta": tuple(int(i) for i in tr.junta),
        "decisions": hashlib.sha256(repr(tr.decisions).encode()).hexdigest(),
        "attempts": tuple((a.index, a.exact, a.characters_preserved,
                           repr(a.total_distance)) for a in tr.attempts),
        "restriction": None if tr.restriction is None
        else hashlib.sha256(repr(tr.restriction.patterns).encode()).hexdigest(),
        "counterexample": None if ce is None
        else (tuple(map(tuple, ce.inputs)), tuple(ce.outputs)),
        "tables": _tables_digest(res.gs),
    }
    if hasattr(res, "losses"):
        out["numbers"] = tuple(repr(float(v)) for v in res.losses)
    else:
        out["numbers"] = tuple(repr(float(v)) for v in res.distances)
    return out


def _digest(fp: dict) -> str:
    return hashlib.sha256(repr(sorted(fp.items())).encode()).hexdigest()


# -- instances ---------------------------------------------------------------


def _monotone_nand2():
    f = _flip(fs.dictator(8, 3), 0.02, 101)
    g = _flip(fs.dictator(8, 3), 0.02, 102)
    return co.correct_monotone(pr.nand_predicate(2), [f, g], 0.1, d=2, tau=0.2)


def _monotone_nand3():
    base = fs.dictator(8, 5)
    funcs = [_flip(base, 0.02, 110 + j) for j in range(3)]
    return co.correct_monotone(pr.nand_predicate(3), funcs, 0.1, d=2, tau=0.2)


def _monotone_rejected():
    one = fs.constant(5, 1)
    return co.correct_monotone(pr.nand_predicate(2), [one, one], 0.1, d=1,
                               tau=0.3)


def _general_parity():
    sup = (1, 4, 6)
    funcs = [_flip(fs.character(9, sup, b), 0.03, 120 + j)
             for j, b in enumerate((1, 0, 1))]
    return co.correct_general(pr.parity_predicate(3, 0), funcs, 0.1,
                              attempts=16, seed=7)


def _general_nand3(attempts):
    funcs = [_flip(fs.dictator(9, 2), 0.06, 404 + 100 * j) for j in range(3)]
    return co.correct_general(pr.nand_predicate(3), funcs, 0.1,
                              attempts=attempts, seed=4)


def _alphabet_nae(attempts=16):
    base = fs.dictator(5, 2, s=3)
    funcs = [_sym_noise(base, 0.05, 220 + j) for j in range(3)]
    return co.correct_alphabet(_ternary_nae(), funcs, 0.1, attempts=attempts,
                               seed=2)


def _fractional_nand():
    rng = _rng(150)
    base = fs.dictator(6, 1).as_real()
    f1 = fs.from_values(6, 2, "real",
                        np.clip(base * 0.9 + rng.random(64) * 0.1, 0, 1))
    f2 = fs.from_values(6, 2, "real",
                        np.clip(base * 0.8 + rng.random(64) * 0.05, 0, 1))
    return co.correct_fractional_nand(f1, f2, 0.25, 0.1, d=2, tau=0.2)


INSTANCES = {
    "monotone_nand2": _monotone_nand2,
    "monotone_nand3": _monotone_nand3,
    "monotone_rejected": _monotone_rejected,
    "general_parity": _general_parity,
    "general_nand3": lambda: _general_nand3(6),
    "general_nand3_exhausted": lambda: _general_nand3(1),
    "alphabet_nae": _alphabet_nae,
    "alphabet_nae_exhausted": lambda: _alphabet_nae(2),
    "fractional_nand": _fractional_nand,
}

# name -> (accepted, exact, junta, attempts run, fingerprint digest)
GOLDEN = {
    "alphabet_nae": (True, True, (2,), 3,
        "f59f6c2e8ad64015fd8f55a26c4b5446a3a57df7a44273df1d82462df0c44aeb"),
    "alphabet_nae_exhausted": (False, False, (2,), 2,
        "d4eb7e8c038180ab62aef5da7d3871cb99315a785448046fa91a1d032f84bd84"),
    "fractional_nand": (False, False, (1,), 0,
        "6af062c278cbd7351d26585ed469610739728f28cd1c5ae6a086648a136efc8f"),
    "general_nand3": (True, True, (2,), 4,
        "9d2b16a42c9fa645180fb86155753b8c4d4584b83e1c4155df192606035c6e41"),
    "general_nand3_exhausted": (False, False, (2,), 1,
        "5a0550d09fb5985e665bec96120db27d949d4333e6cc4a24cddfde8fb1e9dbd4"),
    "general_parity": (True, True, (1, 4, 6), 1,
        "b73fcec24a016d5e18879ec3f41abd7ae707808c5cea08c9906ebdc983bd5985"),
    "monotone_nand2": (False, False, (3,), 0,
        "4e7576c7067e60080c69c6b016c30fe57a35fe6e40895c45334b8760621e12c6"),
    "monotone_nand3": (True, True, (5,), 0,
        "d3c65a3c64cddc63099ef91720fa43439397cae8c55b57edd4bd83de30be1542"),
    "monotone_rejected": (False, False, (), 0,
        "6244841088ddffd6db110a10da70be93117120c33e4770b3185a0506cf2fe7d6"),
}


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_golden_fingerprint(name):
    fp = _fingerprint(INSTANCES[name]())
    accepted, exact, junta, attempts, digest = GOLDEN[name]
    assert (fp["accepted"], fp["exact"], fp["junta"], len(fp["attempts"])) \
        == (accepted, exact, junta, attempts)
    assert _digest(fp) == digest


# -- call counts ---------------------------------------------------------------


def _counting(monkeypatch, module, name):
    calls = []
    real = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def test_correct_subcommand_computes_each_violation_once(tmp_path, monkeypatch):
    pr.save_predicate(tmp_path / "nand2.pred", pr.nand_predicate(2))
    for j in range(2):
        fs.save_function(tmp_path / f"f{j}.fn",
                         _flip(fs.dictator(7, 2), 0.02, 160 + j))
    calls = _counting(monkeypatch, pt, "violation_probability")
    cli.run(["correct", "monotone", "--pred", str(tmp_path / "nand2.pred"),
             "--fn", str(tmp_path / "f0.fn"), str(tmp_path / "f1.fn"),
             "--eps", "0.1", "--tau", "0.2"])
    assert len(calls) == 2


def test_alphabet_checks_once_per_attempt(monkeypatch):
    calls = _counting(monkeypatch, co, "is_generalized_polymorphism")
    res = _alphabet_nae()
    assert len(calls) == len(res.trace.attempts)
