"""End-to-end acceptance suite.

Each test covers one release criterion and prints a single PASS/FAIL line
(run with ``pytest -s`` to see them).  All exact criteria use rational
arithmetic with zero tolerance; the numeric estimator criterion uses the
documented 5% relative band.
"""
import time
from fractions import Fraction

import pytest

from lctlab.exactgeom import maximal_ideal
from lctlab.germs import IdealPresentation, parse_polynomial, poly
from lctlab.invariants import (
    lct_monomial,
    lelong_numbers,
    loja_monomial,
    mixed_multiplicity,
)
from lctlab.sections import LojaParams, loja_numeric
from lctlab.verify import (
    CorpusConfig,
    corpus_run,
    emit_report,
    probe_pham,
    random_ideal,
    verify_chain,
    verify_lct_dominates,
    verify_main,
)

from oracles import ideal_power, multiplicity_oracle

CORPUS_2D = [random_ideal(2, 42_000 + i, 6) for i in range(200)]
CORPUS_3D = [random_ideal(3, 7_000 + i, 4) for i in range(100)]


def report(criterion, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] acceptance {criterion}" + (f" ({detail})" if detail else ""))
    assert ok, f"acceptance {criterion}: {detail}"


def test_criterion_1_fermat_equality():
    t0 = time.perf_counter()
    worst = Fraction(0)
    for n, degrees in ((2, range(2, 7)), (3, range(2, 5))):
        vars_ = ["x", "y", "z"][:n]
        for d in degrees:
            f = parse_polynomial(" + ".join(f"{v}^{d}" for v in vars_))
            v, _ = verify_main(f)
            assert v.lhs == v.rhs == Fraction(n, d) and not v.numeric
            worst = max(worst, abs(v.margin))
            if Fraction(n, d) <= 1:
                vd = verify_lct_dominates(f)
                assert vd.margin == 0
    elapsed = time.perf_counter() - t0
    report("1 fermat-equality", worst == 0 and elapsed < 5.0,
           f"max |margin| = {worst}, {elapsed:.2f}s")


def test_criterion_2_chain_inequalities():
    t0 = time.perf_counter()
    failures = 0
    for a in CORPUS_2D + CORPUS_3D:
        lv = lelong_numbers(a)
        n = a.dim
        ok = (lct_monomial(a) >= lv.ratio_sum
              and Fraction(lv[n - 1], lv[n]) >= Fraction(1, loja_monomial(a)))
        failures += not ok
        assert all(v.holds for v in verify_chain(a))
    elapsed = time.perf_counter() - t0
    report("2 chain-inequalities", failures == 0 and elapsed < 60.0,
           f"{len(CORPUS_2D) + len(CORPUS_3D)} ideals, "
           f"{failures} failures, {elapsed:.1f}s")


def test_criterion_3_oracle_equivalence():
    mismatches = 0
    for a in CORPUS_2D + CORPUS_3D:
        n = a.dim
        m = maximal_ideal(n)
        samuel = lelong_numbers(a).e[-1]
        if samuel != multiplicity_oracle(a):
            mismatches += 1
        if mixed_multiplicity([m] * n) != 1:
            mismatches += 1
        if mixed_multiplicity([a] * n) != samuel:
            mismatches += 1
    report("3 oracle-equivalence", mismatches == 0,
           f"{len(CORPUS_2D) + len(CORPUS_3D)} ideals, {mismatches} mismatches")


def test_criterion_4_strictness_example():
    v = verify_lct_dominates(parse_polynomial("y^2 + x^3"))
    flagged = any("nondegenerate-assumed" in s for s in v.sources)
    report("4 strict-inequality y^2+x^3",
           v.holds and v.strict and v.lhs == Fraction(5, 6) and flagged,
           f"lct(f) = {v.lhs} < {v.rhs}, flagged = {flagged}")


def test_criterion_5_scaling_laws():
    bad = 0
    for a in CORPUS_2D[:50]:
        lv = lelong_numbers(a)
        for k in (2, 3):
            ak = ideal_power(a, k)
            lvk = lelong_numbers(ak)
            ok = (lct_monomial(ak) == lct_monomial(a) / k
                  and loja_monomial(ak) == k * loja_monomial(a)
                  and all(lvk[j] == k ** j * lv[j] for j in range(1, a.dim + 1)))
            bad += not ok
    report("5 scaling-laws", bad == 0, f"50 ideals x k in (2,3), {bad} failures")


def test_criterion_6_numeric_estimator():
    t0 = time.perf_counter()
    params = LojaParams(starts=24, iters=150)
    worst_err = worst_spread = 0.0
    for a in CORPUS_2D[:30]:
        exact = float(loja_monomial(a))
        pres = IdealPresentation(2, tuple(poly(2, {g: 1}) for g in a.generators))
        est = loja_numeric(pres, params)
        worst_err = max(worst_err, abs(est.value - exact) / exact)
        worst_spread = max(worst_spread, est.spread / exact)
    elapsed = time.perf_counter() - t0
    report("6 numeric-estimator",
           worst_err <= 0.05 and worst_spread < 0.02 and elapsed < 120.0,
           f"30 ideals, max rel err {worst_err:.4f}, "
           f"max spread {worst_spread:.4f}, {elapsed:.1f}s")


def test_criterion_7_pham_probe():
    exact_failures = []
    for i, a in enumerate(CORPUS_2D):
        v = probe_pham(a)
        if not v.holds and not v.numeric:
            exact_failures.append((i, a.generators, v.lhs, v.rhs))
    report("7 pham-probe", not exact_failures,
           f"{len(CORPUS_2D)} ideals, exact-side failures: {exact_failures}")


def test_criterion_8_determinism():
    cfg = CorpusConfig(dim=2, count=25, seed=11, budget=5)
    outs = [emit_report(corpus_run(cfg), "json") for _ in range(3)]
    identical = len(set(outs)) == 1
    report("8 determinism", identical,
           "3 runs byte-identical" if identical else "reports differ")


def test_criterion_9_dim4_corpus():
    t0 = time.perf_counter()
    rep = corpus_run(CorpusConfig(dim=4, count=20))
    elapsed = time.perf_counter() - t0
    # without --numeric every verdict is exact: the chain and its j0, j3 terms
    counts = {name: (s["count"], s["failures"]) for name, s in rep.summaries.items()}
    ok = (not rep.failures and counts == {
        "chain-lct": (20, 0), "chain-term-j0": (20, 0), "chain-term-j3": (20, 0)})
    report("9 dim4-corpus", ok,
           f"20 ideals, {len(rep.failures)} failures, {elapsed:.1f}s")
