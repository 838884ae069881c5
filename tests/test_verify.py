"""Verdict assembly, corpus runs, reports and the CLI surface."""
import contextlib
import importlib.util
import itertools
import json
import os
import re
import subprocess
import sys
import weakref
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

from lctlab import cli, exactgeom, germs, sections, verify
from lctlab.cli import build_parser
from lctlab.exactgeom import InvalidInputError, MonomialIdeal, maximal_ideal
from lctlab.germs import NotMonomializableError, parse_polynomial
from lctlab.invariants import lct_monomial, lelong_numbers, loja_monomial
from lctlab.sections import (
    MAX_ESTIMATOR_TERMS,
    MAX_RESTRICT_DEGREE,
    NumericFailureError,
    _line_zeros,
    line_order,
)
from lctlab.verify import (
    CorpusConfig,
    CorpusReport,
    EXIT_COMPUTE_ERROR,
    EXIT_EXACT_FAILURE,
    EXIT_INPUT_ERROR,
    EXIT_NUMERIC_FAILURE,
    EXIT_OK,
    MAX_BUDGET,
    Report,
    Verdict,
    corpus_run,
    emit_report,
    frac_str,
    probe_pham,
    random_ideal,
    verify_chain,
    verify_lct_dominates,
    verify_main,
)

from oracles import ideal_power

A = MonomialIdeal.make({(2, 0), (1, 1), (0, 3)}, 2)


class TestVerifyMain:
    def test_fermat_2d(self):
        v, thetas = verify_main(parse_polynomial("x^3 + y^3"))
        assert (v.lhs, v.rhs) == (Fraction(2, 3), Fraction(2, 3))
        assert v.margin == 0 and v.holds and not v.numeric

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_fermat_3d(self, d):
        v, _ = verify_main(parse_polynomial(f"x^{d} + y^{d} + z^{d}"))
        assert v.lhs == v.rhs == Fraction(3, d)
        assert v.margin == 0 and not v.numeric

    def test_cusp_exact(self):
        v, thetas = verify_main(parse_polynomial("x^2 + y^3"))
        assert v.lhs == Fraction(5, 6)
        assert not v.numeric and v.holds

    def test_not_isolated_rejected(self):
        for text in ("x^2", "1", "x^2*y^2"):
            with pytest.raises(InvalidInputError, match="non-isolated"):
                verify_main(parse_polynomial(text, 2))

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_one_analysis_per_germ(self, n, capsys):
        # check_isolated takes J_f, and the thetas and m*J_f reuse it: one
        # isolation check and one Jacobian per verify_main, verify_lct_dominates
        # and compute.  Modules bind these names by import, so every binding
        # is wrapped.
        text = " + ".join(f"x{i}^5" for i in range(1, n + 1))
        runs = {
            "verify_main": lambda: verify_main(parse_polynomial(text))[0].margin == 0,
            "verify_lct_dominates": lambda: verify_lct_dominates(
                parse_polynomial(text)).margin == 0,
            "compute": lambda: cli.main(["compute", text]) == EXIT_OK,
        }
        for entry, run in runs.items():
            counters = {"check_isolated": [], "jacobian_ideal": []}
            with contextlib.ExitStack() as stack:
                for name, mocks in counters.items():
                    original = getattr(germs, name)
                    for module in [m for key, m in sys.modules.items()
                                   if key.startswith("lctlab")]:
                        if vars(module).get(name) is original:
                            mocks.append(stack.enter_context(
                                mock.patch.object(module, name, wraps=original)))
                assert run(), entry
            calls = {name: sum(m.call_count for m in mocks)
                     for name, mocks in counters.items()}
            assert calls == {"check_isolated": 1, "jacobian_ideal": 1}, entry

    @pytest.mark.parametrize("text", ["x^5", "x^3 + y^4", "x^3 + y^4 + z^5",
                                      "x1^5 + x2^5 + x3^5 + x4^5", "x^2 + y^3 + z^4 + w^5"])
    def test_term_exact_germ_builds_only_its_partials(self, text, monkeypatch):
        # m*J_f is the shift of J_f's term ideal: a term-exact germ builds
        # its n partials and no z_i*g, and monomializes J_f alone
        f = parse_polynomial(text)
        partials = [germs.derivative(f, i) for i in range(f.dim)]
        built, mono_calls = [], []
        post_init = germs.Polynomial.__post_init__
        monomialize = germs.monomialize

        def counted_post_init(p):
            built.append(p)
            post_init(p)

        def counted_monomialize(*args, **kwargs):
            mono_calls.append(args)
            return monomialize(*args, **kwargs)

        monkeypatch.setattr(germs.Polynomial, "__post_init__", counted_post_init)
        monkeypatch.setattr(germs, "monomialize", counted_monomialize)
        v, _ = verify_main(f)
        assert v.holds and not v.numeric
        assert built == partials
        assert len(mono_calls) == 1

    def test_m_jacobian_decided_before_the_thetas(self, monkeypatch):
        def no_estimate(germ, seed=0):
            raise AssertionError("thetas estimated before m*J_f")

        monkeypatch.setattr(verify, "polar_invariant", no_estimate)
        with pytest.raises(NotMonomializableError, match="is not a single term"):
            verify_main(parse_polynomial("x^2*y + y^4"))


class TestVerifyChain:
    @pytest.mark.parametrize("d", [2, 3])
    def test_power_equality(self, d):
        verdicts = verify_chain(ideal_power(maximal_ideal(2), d))
        assert verdicts[0].margin == 0

    def test_staircase(self):
        verdicts = {v.name: v for v in verify_chain(A)}
        v = verdicts["chain-lct"]
        assert (v.lhs, v.rhs) == (Fraction(9, 10), 1)
        j0 = verdicts["chain-term-j0"]
        assert (j0.lhs, j0.rhs) == (Fraction(1, 3), Fraction(2, 5))

    @pytest.mark.parametrize("include_numeric", [False, True])
    def test_one_variable(self, include_numeric):
        # n = 1 has no middle term and no line: L_0 = 3 against e_0/e_1
        verdicts = verify_chain(MonomialIdeal.make([(3,)], 1), include_numeric=include_numeric)
        assert [(v.name, v.lhs, v.rhs) for v in verdicts] == [
            ("chain-lct", Fraction(1, 3), Fraction(1, 3)),
            ("chain-term-j0", Fraction(1, 3), Fraction(1, 3))]

    def test_random_corpus_holds(self):
        for i in range(10):
            a = random_ideal(2, 1000 + i, 5)
            assert all(v.holds for v in verify_chain(a))

    def test_numeric_term_3d(self):
        # the middle term is exact: 1/L^(1) against e_1/e_2
        a = random_ideal(3, 5, 3)
        verdicts = verify_chain(a, include_numeric=True)
        assert [v.name for v in verdicts] == [
            "chain-lct", "chain-term-j0", "chain-term-j1", "chain-term-j2"]
        j1 = verdicts[2]
        assert not j1.numeric and j1.sources == ("loja_monomial", "lelong_numbers")
        assert j1.lhs == 1 / loja_monomial(a, 1)
        assert j1.rhs == lelong_numbers(a)[1] / lelong_numbers(a)[2]
        assert all(v.holds for v in verdicts)


class TestVerifyLctDominates:
    def test_strict_example(self):
        v = verify_lct_dominates(parse_polynomial("y^2 + x^3"))
        assert v.holds and v.strict
        assert v.lhs == Fraction(5, 6)
        assert any("nondegenerate-assumed" in s for s in v.sources)

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_fermat_equality(self, d):
        v = verify_lct_dominates(parse_polynomial(f"x^{d} + y^{d}"))
        assert v.holds
        assert v.rhs == Fraction(2, d)
        assert v.lhs == min(1, Fraction(2, d))
        if d >= 2:
            assert v.margin == 0

    def test_non_isolated_guard(self):
        for text in ("x^2", "1", "x^2*y^2"):
            with pytest.raises(InvalidInputError, match="non-isolated"):
                verify_lct_dominates(parse_polynomial(text, 2))

    def test_assumes_nondegeneracy_only_when_asked(self):
        # m*J_f = (2x^2 + 3x^3) is not term-exact
        f = parse_polynomial("x^2 + x^3")
        with pytest.raises(NotMonomializableError, match="is not a single term"):
            verify_lct_dominates(f)
        v = verify_lct_dominates(f, allow_nondegenerate=True)
        assert "lct_monomial:nondegenerate-assumed" in v.sources


class TestVerifyChainDim4:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_random_ideal_holds(self, seed):
        verdicts = verify_chain(random_ideal(4, seed, 5), seed=seed)
        assert [v.name for v in verdicts] == ["chain-lct", "chain-term-j0", "chain-term-j3"]
        assert all(not v.numeric and v.holds for v in verdicts)


class TestProbePham:
    def test_staircase(self):
        v = probe_pham(A)
        assert (v.lhs, v.rhs) == (Fraction(9, 10), 1)
        assert v.holds

    @pytest.mark.parametrize("d", [1, 2, 4])
    def test_power_margin_zero(self, d):
        v = probe_pham(ideal_power(maximal_ideal(2), d))
        assert v.margin == 0

    def test_dimension_guard(self):
        with pytest.raises(ValueError):
            probe_pham(maximal_ideal(3))

    def test_axis_line_takes_the_lower_axis_power(self):
        # on a line drawn along the x-axis, (x^5, y^2) has order 5, but the
        # y-axis has order 2: lct_1 = 1/2, and e_1/e_2 = 2/10
        seed = next(s for s in range(1000) if _line_zeros(2, s) == [1])
        v = probe_pham(MonomialIdeal.make({(5, 0), (0, 2)}, 2), seed=seed)
        assert v.lhs == Fraction(1, 2) + Fraction(2, 10)

    def test_corpus_sweep(self):
        for i in range(15):
            assert probe_pham(random_ideal(2, 2000 + i, 5)).holds


class TestRandomIdeal:
    def test_contract(self):
        a = random_ideal(2, 3, 4)
        assert a.zero_dimensional
        assert a == random_ideal(2, 3, 4)

    def test_pure_powers_3d(self):
        a = random_ideal(3, 11, 3)
        assert all(a.pure_power(i) is not None for i in range(3))

    def test_seeds_differ(self):
        ideals = {random_ideal(2, s, 5) for s in range(20)}
        assert len(ideals) > 1


class TestCorpusRun:
    def test_small_run_all_hold(self):
        report = corpus_run(CorpusConfig(dim=2, count=20, seed=42, budget=5))
        assert report.cases == 20
        assert not report.failures
        assert report.exit_code == EXIT_OK

    def test_empty(self):
        report = corpus_run(CorpusConfig(dim=2, count=0, seed=0))
        assert report.cases == 0
        assert emit_report(report, "json").find('"cases": 0') >= 0

    @pytest.mark.parametrize("dim,seeds,numeric", [
        pytest.param(2, range(60), False, id="2-seeds0"),
        pytest.param(3, range(10), False, id="3-seeds1"),
        pytest.param(3, range(4), True, id="3-numeric"),
    ])
    def test_cases_match_chain_and_probe(self, dim, seeds, numeric):
        # corpus_run keeps a case's exact verdicts per (ideal, line order) and
        # adds the numeric middle terms per case; each margin, in order, must
        # be the public functions'
        for seed in seeds:
            a = random_ideal(dim, seed, 5)
            verdicts = verify_chain(a, seed=seed, include_numeric=numeric)
            if dim == 2:
                verdicts.append(probe_pham(a, seed=seed))
            report = corpus_run(CorpusConfig(dim=dim, count=1, seed=seed,
                                             include_numeric=numeric))
            assert ([(name, s["min_margin"]) for name, s in report.summaries.items()]
                    == [(v.name, frac_str(v.margin)) for v in verdicts]), seed

    def test_worst_margin_exact_below_float_ulp(self, monkeypatch):
        # 1/3 - 10^-20 and 1/3 round to the same float: compared as floats,
        # the later, smaller margin would tie and case 0 would stay the worst
        margins = [Fraction(1, 3), Fraction(1, 3) - Fraction(1, 10 ** 20), Fraction(1, 3)]
        assert float(margins[1]) == float(margins[0])
        cases = iter(margins)

        def case_verdicts(a, order, middle):
            return (Verdict("close", Fraction(0), next(cases), False, None),)

        monkeypatch.setattr(verify, "_case_verdicts", case_verdicts)
        report = corpus_run(CorpusConfig(dim=3, count=3, seed=0))
        assert report.summaries["close"]["worst_index"] == 1
        assert report.summaries["close"]["min_margin"] == frac_str(margins[1])

    @settings(max_examples=12, deadline=None)
    @given(dim=st.sampled_from([2, 3, 4]), seed=st.integers(0, 10 ** 6),
           count=st.sampled_from([1, 30, 40]))
    def test_case_memo_keeps_report_bytes(self, dim, seed, count):
        # a case's verdicts come from its polyhedron or are computed, and the
        # report does not tell which: cold, warmed by another corpus, repeated
        cfg = CorpusConfig(dim=dim, count=count, seed=seed)
        exactgeom._polyhedron.cache_clear()
        cold = emit_report(corpus_run(cfg), "json")
        corpus_run(CorpusConfig(dim=dim, count=count, seed=seed + count // 2))
        warm = emit_report(corpus_run(cfg), "json")
        assert warm == cold == emit_report(corpus_run(cfg), "json")

    def test_case_memo_is_bounded(self):
        # the verdicts live on their ideal's polyhedron, so the polyhedron
        # cache bounds them: POLY_CACHE_SIZE + 10 distinct hulls evict every
        # generator set of the first case's hull, and the polyhedron dies
        # with its verdicts; an evicted case recomputes equal verdicts and
        # report bytes.  A weak reference does not keep the polyhedron alive.
        size = exactgeom.POLY_CACHE_SIZE
        exactgeom._polyhedron.cache_clear()
        cfg = CorpusConfig(dim=2, count=30, seed=5)
        cold = emit_report(corpus_run(cfg), "json")
        a = random_ideal(2, 5, 5)
        P = weakref.ref(exactgeom.polyhedron_of(a))
        order = line_order(a, 5)
        verdicts = verify._case_verdicts(a, order, False)
        assert isinstance(verdicts, tuple)
        assert [v.name for v in verdicts] == [
            "chain-lct", "chain-term-j0", "chain-term-j1", "pham-probe"]
        assert vars(P())[("case_verdicts", order, False)] is verdicts
        assert verify._case_verdicts(a, order, False) is verdicts

        # (x^i, y^j) with i, j > 5 is no budget-5 corpus ideal
        misses = exactgeom._polyhedron.cache_info().misses
        powers = ((i, j) for i in range(6, 200) for j in range(6, 200))
        for i, j in itertools.islice(powers, size + 10):
            verify._case_verdicts(MonomialIdeal.make([(i, 0), (0, j)], 2), min(i, j), False)
        info = exactgeom._polyhedron.cache_info()
        assert (info.misses - misses, info.currsize) == (size + 10, size)

        assert P() is None
        assert verify._case_verdicts(a, order, False) == verdicts
        assert emit_report(corpus_run(cfg), "json") == cold

    @pytest.mark.parametrize("dim", [3, 4])
    def test_case_memo_keyed_by_middle_terms(self, dim):
        # a --numeric corpus keeps verdicts with the middle terms on the
        # same polyhedra and line orders that a default corpus on the same
        # seeds meets, so the memo key must tell them apart
        cfg = CorpusConfig(dim=dim, count=20, seed=11)
        exactgeom._polyhedron.cache_clear()
        fresh = emit_report(corpus_run(cfg), "json")
        exactgeom._polyhedron.cache_clear()
        numeric = corpus_run(CorpusConfig(dim=dim, count=20, seed=11, include_numeric=True))
        assert "chain-term-j1" in numeric.summaries
        assert emit_report(corpus_run(cfg), "json") == fresh

    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_case_verdicts_are_the_chain(self, dim):
        # one chain builder: a case's verdicts are verify_chain's for the
        # same ideal, seed and middle terms, and then, in dim 2, the probe's
        for seed in range(10):
            a = random_ideal(dim, seed, 6)
            for middle in (False, True):
                want = verify_chain(a, seed=seed, include_numeric=middle)
                if dim == 2:
                    want.append(probe_pham(a, seed=seed))
                assert verify._case_verdicts(a, line_order(a, seed), middle) == tuple(want)

    def test_verdict_margin_and_holds_computed_once(self):
        v = Verdict("v", Fraction(1, 2), Fraction(2, 3), False, None)
        assert v.margin is v.margin == Fraction(1, 6)
        assert v.holds and {"margin", "holds"} <= vars(v).keys()

    @pytest.mark.parametrize("lhs,rhs,numeric,tolerance,margin,holds", [
        (Fraction(1, 2), Fraction(2, 3), False, None, Fraction(1, 6), True),
        (Fraction(2, 3), Fraction(2, 3), False, None, Fraction(0), True),
        (Fraction(2, 3), Fraction(1, 2), False, None, Fraction(-1, 6), False),
        (1.0, 2.0, True, 0.0, 1.0, True),
        (2.0, 1.0, True, 0.0, -1.0, False),
        (1.04, 1.0, True, None, -0.04, True),  # within DEFAULT_TOLERANCE
        (1.06, 1.0, True, None, -0.06, False),
        (Fraction(21, 20), 1.0, True, 0.1, -0.05, True),
    ])
    def test_verdict_settled_at_construction(self, lhs, rhs, numeric, tolerance,
                                             margin, holds):
        # both are in the instance dict before any attribute is read
        v = Verdict("v", lhs, rhs, numeric, tolerance)
        settled = vars(v)
        assert settled["holds"] is holds
        assert settled["margin"] == pytest.approx(margin, abs=1e-12)
        assert isinstance(settled["margin"], float if numeric else Fraction)

    def test_determinism_across_runs_and_workers(self):
        cfg = CorpusConfig(dim=2, count=15, seed=9, budget=5)
        outs = {emit_report(corpus_run(cfg), "json") for _ in range(3)}
        assert len(outs) == 1


HELD = Verdict("held", Fraction(0), Fraction(1), False, None)
HELD_NUMERIC = Verdict("held-numeric", 1.0, 1.0, True, 0.0)


@pytest.mark.parametrize("failed_numeric,code", [
    ((), EXIT_OK),
    ((True,), EXIT_NUMERIC_FAILURE),
    ((True, True), EXIT_NUMERIC_FAILURE),
    ((False,), EXIT_EXACT_FAILURE),
    ((False, True), EXIT_EXACT_FAILURE),
    ((True, False), EXIT_EXACT_FAILURE),
])
def test_exit_code_table(failed_numeric, code):
    """An exact failure outranks a numeric one, in single and corpus reports."""
    failed = [Verdict("failed", 2.0, 1.0, True, 0.0) if numeric
              else Verdict("failed", Fraction(2), Fraction(1), False, None)
              for numeric in failed_numeric]
    assert not any(v.holds for v in failed)
    report = Report("x", 2, [], {}, [HELD, HELD_NUMERIC, *failed])
    assert report.exit_code == code
    corpus = CorpusReport(CorpusConfig(dim=2, count=1), 1, {},
                          [{"numeric": v.numeric} for v in failed])
    assert corpus.exit_code == code


# leaves that json writes in its own way: escapes and non-ASCII text, big
# ints, signed zero, tiny and non-finite floats, bools (ints to isinstance)
# and None; containers may be empty at any depth
JSON_LEAVES = st.one_of(
    st.text(max_size=6),
    st.sampled_from(['"', "\\", "\n\t\r\b\f", "\x00\x1f\x7f", "é", "\u2028", "😀",
                     "\ud800", "</script>"]),
    st.integers(-10 ** 30, 10 ** 30),
    st.floats(),
    st.sampled_from([-0.0, 1e-300, 5e-324, 1e300, float("inf"), -float("inf"),
                     float("nan")]),
    st.booleans(),
    st.none(),
)
JSON_KEYS = st.one_of(st.text(max_size=4), st.integers(-5, 5), st.floats(), st.booleans(),
                      st.none())
JSON_TREES = st.recursive(
    JSON_LEAVES,
    lambda kids: st.one_of(st.lists(kids, max_size=4),
                           st.lists(kids, max_size=3).map(tuple),
                           st.dictionaries(JSON_KEYS, kids, max_size=4)),
    max_leaves=25)


@st.composite
def ideal_pairs(draw):
    """A random_ideal a and an ideal b of another generator set with the
    same Newton polyhedron P: the vertices of P and rounded-up midpoints of
    two vertices that no generator of a divides, so points of P outside a.
    Where a has no such midpoint, b is the ideal of the vertices alone, and
    the example is dropped when that is a itself."""
    n = draw(st.sampled_from([2, 3, 4]))
    a = random_ideal(n, draw(st.integers(0, 10 ** 6)), draw(st.integers(2, 8)))
    vertices = exactgeom.polyhedron_of(a).vertices
    midpoints = {tuple((x + y + 1) // 2 for x, y in zip(u, v))
                 for u, v in itertools.combinations(vertices, 2)}
    outside = sorted(p for p in midpoints
                     if not any(all(map(int.__le__, g, p)) for g in a.generators))
    points = draw(st.lists(st.sampled_from(outside), min_size=1, max_size=3)) if outside else []
    b = MonomialIdeal.make(vertices + tuple(points), n)
    assume(b.generators != a.generators)
    return a, b


class TestSharedHull:
    """Generator sets with one Newton polyhedron share one object, and with
    it the values kept on it; those values come from the polyhedron alone."""

    @pytest.mark.parametrize("a,b", [
        (MonomialIdeal.make([(2, 0), (0, 2)], 2), MonomialIdeal.make([(2, 0), (1, 1), (0, 2)], 2)),
        # budget-5 dim-3 corpus seeds 29 and 43: (z^2, y^5, x*y*z, x^3) and
        # (z^2, y^5, x^3), whose line orders at their seeds are both 2
        (random_ideal(3, 29, 5), random_ideal(3, 43, 5)),
    ], ids=["squares", "corpus-d3"])
    def test_one_polyhedron_and_verdict_tuple(self, a, b):
        assert a.generators != b.generators
        exactgeom._polyhedron.cache_clear()
        P = exactgeom.polyhedron_of(a)
        assert exactgeom.polyhedron_of(b) is P
        verdicts = verify._case_verdicts(a, 2, False)
        assert verify._case_verdicts(b, 2, False) is verdicts
        assert lelong_numbers(b) is lelong_numbers(a)

    @settings(max_examples=100, deadline=None)
    @given(ideal_pairs())
    def test_values_depend_on_the_polyhedron_alone(self, pair):
        # b shares what a kept on their polyhedron, and each ideal from a
        # cleared cache computes the same: what one kept is what the other
        # would have kept
        def values(a):
            exactgeom._polyhedron.cache_clear()
            return (exactgeom.polyhedron_of(a).vertices, lelong_numbers(a),
                    lct_monomial(a), [loja_monomial(a, j) for j in range(a.dim)],
                    verify._case_verdicts(a, a.dim, True))

        a, b = pair
        want = values(a)
        assert exactgeom.polyhedron_of(b) is exactgeom.polyhedron_of(a)
        assert verify._case_verdicts(b, a.dim, True) is want[-1]
        assert values(b) == want, (a.generators, b.generators)


class TestEmitReport:
    def test_fermat_json_fields(self):
        v, thetas = verify_main(parse_polynomial("x^3 + y^3"))
        report = Report(
            input="x^3 + y^3", n=2, ideal_generators=["x^3 + y^3"],
            invariants={"lct": "2/3",
                        "theta": ["2", "2"]},
            verdicts=[v])
        out = emit_report(report, "json")
        data = json.loads(out)
        assert data["invariants"]["lct"] == "2/3"
        assert data["invariants"]["theta"] == ["2", "2"]
        assert data["verdicts"][0]["margin"] == "0"

    def test_byte_stability(self):
        v, _ = verify_main(parse_polynomial("x^3 + y^3"))
        r = Report("x^3 + y^3", 2, ["x^3 + y^3"], {}, [v])
        assert emit_report(r, "json") == emit_report(r, "json")
        assert emit_report(r, "text") == emit_report(r, "text")

    @pytest.mark.parametrize("args", [
        ["corpus", "--dim", "3", "--count", "4", "--seed", "5"],
        ["corpus", "--dim", "3", "--count", "2", "--numeric"],
        ["verify-main", "x^3 + y^4 + z^5"],
        ["compute", "x^3 + y^4 + z^5"],
    ])
    def test_cli_json_reports_equal_json_dumps(self, args, capsys):
        cli.main([*args, "--json"])
        out = capsys.readouterr().out
        assert out == json.dumps(json.loads(out), indent=2) + "\n"

    @settings(max_examples=300, deadline=None)
    @given(JSON_TREES)
    def test_json_writer_matches_json_dumps(self, obj):
        assert verify._json_text(obj) == json.dumps(obj, indent=2)

    @pytest.mark.parametrize("obj", [
        Fraction(1, 2),
        {"a": [1, {"b": Fraction(1, 2)}]},
        [{1, 2}],
        {"bytes": b"x"},
        {(1, 2): "tuple key"},
        {"a": {frozenset(): 0}},
    ])
    def test_json_writer_type_error(self, obj):
        with pytest.raises(TypeError) as expected:
            json.dumps(obj, indent=2)
        with pytest.raises(TypeError, match=f"^{expected.value}$"):
            verify._json_text(obj)

    def test_rational_serialization(self):
        from lctlab.verify import frac_str

        assert frac_str(Fraction(2, 3)) == "2/3"
        assert frac_str(Fraction(5)) == "5"
        assert frac_str(0.123456789012345) == "0.123456789012"


# Flags each subcommand accepts; every one of them is read by that subcommand.
CLI_FLAGS = {
    "compute": {"--ideal", "--json", "--seed", "--dim", "--nondegenerate"},
    "verify-main": {"--json", "--seed", "--dim", "--tolerance", "--nondegenerate"},
    "verify-chain": {"--numeric", "--json", "--seed", "--dim"},
    "verify-lct": {"--json", "--seed", "--dim", "--nondegenerate"},
    "probe-pham": {"--json", "--seed", "--dim"},
    "corpus": {"--count", "--numeric", "--timings", "--json", "--seed", "--dim",
               "--budget"},
}
FLAG_VALUES = {"--seed": ["1"], "--dim": ["2"], "--tolerance": ["0.1"],
               "--budget": ["4"], "--count": ["3"]}


@pytest.mark.parametrize("command", sorted(CLI_FLAGS))
def test_cli_accepted_flags(command):
    parser = build_parser()
    positional = [] if command == "corpus" else ["x^2; y^2"]
    for flag in sorted(set().union(*CLI_FLAGS.values())):
        argv = [command, *positional, flag, *FLAG_VALUES.get(flag, [])]
        if flag in CLI_FLAGS[command]:
            parser.parse_args(argv)
        else:
            with pytest.raises(SystemExit):
                parser.parse_args(argv)


def test_readme_flags_table_matches_parser():
    """README's subcommand table lists each subcommand's flags besides
    --json, --seed and --dim, which all of them take."""
    lines = (Path(__file__).parents[1] / "README.md").read_text().splitlines()
    start = lines.index("| Subcommand | Flags |") + 2
    table = {}
    for line in itertools.takewhile(lambda x: x.startswith("|"), lines[start:]):
        command, flags = (cell.strip() for cell in line.strip("|").split("|"))
        table[command.strip("`")] = set(re.findall(r"`(--[a-z-]+)`", flags))
    assert table == {command: flags - {"--json", "--seed", "--dim"}
                     for command, flags in CLI_FLAGS.items()}


# child processes import lctlab from where this one found it
CHILD_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [
    str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH")]))}


def load_estimator_script():
    """scripts/estimator_accuracy.py as a module, so a test can patch it."""
    script = Path(__file__).parents[1] / "scripts" / "estimator_accuracy.py"
    spec = importlib.util.spec_from_file_location("estimator_accuracy", script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "lctlab.cli", *args],
        capture_output=True, text=True, env=CHILD_ENV)


def run_child(code, *args):
    return subprocess.run([sys.executable, "-c", code, *args],
                          capture_output=True, text=True, env=CHILD_ENV)


# stdout of a command that reaches the numeric estimator, pinned to 12
# significant digits by the report, and of three exact ones
COMPUTE_NUMERIC = """\
input: x^3 + x*y^2 + y^4
n: 2
ideal:
  generators:
    - x^3 + x*y^2 + y^4
invariants:
  lct_f: 2/3
  lct_f_mode: nondegenerate-assumed
  theta:
    - 1.94153703413
    - 2
  theta_methods:
    - numeric
    - exact-line
  exact: False
verdicts:
meta:
  seed: 0
  version: 0.1.0
  timings_ms: None
"""

CHAIN_MIDDLE_DIM3 = """\
input: x^2; y^3; z^4
n: 3
ideal:
  generators:
    - z^4
    - y^3
    - x^2
invariants:
  lct: 13/12
  L: 4
  e:
    - 2
    - 6
    - 24
  theta:
  exact: True
  dh_lower_bound: 13/12
verdicts:
  -
    name: chain-lct
    lhs: 13/12
    rhs: 13/12
    margin: 0
    holds: True
    numeric: False
    tolerance: None
  -
    name: chain-term-j0
    lhs: 1/4
    rhs: 1/4
    margin: 0
    holds: True
    numeric: False
    tolerance: None
  -
    name: chain-term-j1
    lhs: 1/3
    rhs: 1/3
    margin: 0
    holds: True
    numeric: False
    tolerance: None
  -
    name: chain-term-j2
    lhs: 1/2
    rhs: 1/2
    margin: 0
    holds: True
    numeric: False
    tolerance: None
meta:
  seed: 0
  version: 0.1.0
  timings_ms: None
"""

CORPUS_MIDDLE_DIM3 = """\
corpus:
  dim: 3
  count: 2
  seed: 0
  budget: 5
cases: 2
summaries:
  chain-lct:
    count: 2
    failures: 0
    min_margin: 1/30
    worst_index: 1
  chain-term-j0:
    count: 2
    failures: 0
    min_margin: 2/65
    worst_index: 0
  chain-term-j1:
    count: 2
    failures: 0
    min_margin: 0
    worst_index: 0
  chain-term-j2:
    count: 2
    failures: 0
    min_margin: 0
    worst_index: 0
failures:
meta:
  seed: 0
  version: 0.1.0
  timings_ms: None
"""

MAIN_DIM3 = """\
input: x^3 + y^4 + z^5
n: 3
ideal:
  generators:
    - x^3 + y^4 + z^5
invariants:
  theta:
    - 4
    - 3
    - 2
  theta_methods:
    - exact-monomial
    - exact-monomial
    - exact-line
  exact: True
verdicts:
  -
    name: theorem-main
    lhs: 47/60
    rhs: 13/15
    margin: 1/12
    holds: True
    numeric: False
    tolerance: None
meta:
  seed: 0
  version: 0.1.0
  timings_ms: None
"""


def run_main_child(*argv):
    """cli.main(argv) in a child process, which writes to stderr whether
    numpy and numpy.ma were loaded."""
    return run_child("import sys\n"
                     "from lctlab import cli\n"
                     "code = cli.main(sys.argv[1:])\n"
                     "print('numpy' in sys.modules, 'numpy.ma' in sys.modules, file=sys.stderr)\n"
                     "sys.exit(code)", *argv)


class TestNumpyOnFirstUse:
    """Only the numeric estimator uses numpy, so a process loads it there."""

    def test_import_and_parser_leave_numpy_out(self):
        res = run_child("import sys, lctlab, lctlab.cli; lctlab.cli.build_parser(); "
                        "print('numpy' in sys.modules)")
        assert (res.returncode, res.stdout, res.stderr) == (0, "False\n", "")

    def test_first_estimate_loads_numpy(self):
        res = run_child(
            "import sys\n"
            "from lctlab.germs import IdealPresentation, poly\n"
            "from lctlab.sections import LojaParams, loja_numeric\n"
            "I = IdealPresentation(2, (poly(2, {(2, 0): 1}), poly(2, {(0, 3): 1})))\n"
            "est = loja_numeric(I, LojaParams(starts=8, iters=20))\n"
            "print('numpy' in sys.modules, 'numpy.ma' in sys.modules, est.method)")
        # numpy.ma (which np.unique(..., axis=0) imports) would add to peak RSS
        assert (res.returncode, res.stdout, res.stderr) == (0, "True False numeric\n", "")

    def test_restriction_past_bound_exits_before_any_estimate(self):
        # every restriction comes before the first estimate, so a line past
        # restrict's work bound exits 5 before theta_0 is estimated
        res = run_child("import sys\n"
                        "from lctlab import cli, sections\n"
                        "def no_estimate(*args, **kwargs):\n"
                        "    raise AssertionError('estimate before a restriction')\n"
                        "sections.loja_numeric = no_estimate\n"
                        "code = cli.main(sys.argv[1:])\n"
                        "print('numpy' in sys.modules, file=sys.stderr)\n"
                        "sys.exit(code)", "compute", "x^100000000 + x*y + y^2")
        assert (res.returncode, res.stdout) == (EXIT_COMPUTE_ERROR, "")
        assert res.stderr == ("error: restriction to a 1-dimensional plane passes its "
                              "work bound at a term of degree 99999999\nFalse\n")

    def test_restriction_bound_outranks_estimator_bound(self):
        # J_f has 528 terms, past MAX_ESTIMATOR_TERMS, and a term past
        # restrict's bound: the restriction, made first, is the one reported
        f = " + ".join(["x^100000000", "x*y", "y^2"]
                       + [f"x^{i}*y^{d - i}" for d in range(3, 33) for i in range(d + 1)])
        res = run_main_child("compute", f)
        assert (res.returncode, res.stdout) == (EXIT_COMPUTE_ERROR, "")
        assert res.stderr == ("error: restriction to a 1-dimensional plane passes its "
                              "work bound at a term of degree 99999999\nFalse False\n")

    @pytest.mark.parametrize("argv,stdout", [
        (["compute", "x^3 + x*y^2 + y^4"], COMPUTE_NUMERIC),
    ], ids=["compute"])
    def test_cli_paths_reach_the_estimator(self, argv, stdout):
        # J_f of the germ is not term-exact, so theta_0 is numeric
        res = run_main_child(*argv)
        assert (res.returncode, res.stdout, res.stderr) == (0, stdout, "True False\n")

    @pytest.mark.parametrize("argv,stdout", [
        (["verify-chain", "x^2; y^3; z^4", "--numeric"], CHAIN_MIDDLE_DIM3),
        (["corpus", "--dim", "3", "--numeric", "--count", "2"], CORPUS_MIDDLE_DIM3),
        (["verify-main", "x^3 + y^4 + z^5"], MAIN_DIM3),
    ], ids=["verify-chain", "corpus", "verify-main"])
    def test_exact_cli_paths_leave_numpy_out(self, argv, stdout):
        # the middle chain terms and the middle theta of a term-exact J_f
        # are exact section exponents
        res = run_main_child(*argv)
        assert (res.returncode, res.stdout, res.stderr) == (0, stdout, "False False\n")


class TestCli:
    def test_verify_main_fermat(self):
        res = run_cli("verify-main", "x^3 + y^3", "--json")
        assert res.returncode == 0
        data = json.loads(res.stdout)
        assert data["verdicts"][0]["lhs"] == "2/3"
        assert data["verdicts"][0]["holds"] is True

    def test_compute_ideal(self):
        res = run_cli("compute", "x^2; x*y; y^3", "--json")
        assert res.returncode == 0
        data = json.loads(res.stdout)
        assert data["invariants"]["lct"] == "1"
        assert data["invariants"]["L"] == "3"
        assert data["invariants"]["e"] == ["2", "5"]

    def test_verify_chain(self):
        res = run_cli("verify-chain", "x^2; x*y; y^3", "--json")
        assert res.returncode == 0
        data = json.loads(res.stdout)
        names = {v["name"] for v in data["verdicts"]}
        assert "chain-lct" in names

    def test_verify_lct(self):
        res = run_cli("verify-lct", "y^2 + x^3", "--json")
        assert res.returncode == 0
        assert json.loads(res.stdout)["verdicts"][0]["strict"] is True

    def test_probe_pham(self):
        res = run_cli("probe-pham", "x^2; x*y; y^3", "--json")
        assert res.returncode == 0

    def test_corpus(self):
        res = run_cli("corpus", "--dim", "2", "--count", "5", "--seed", "3", "--json")
        assert res.returncode == 0
        assert json.loads(res.stdout)["cases"] == 5

    def test_negative_count_exit(self):
        res = run_cli("corpus", "--count", "-1", "--json")
        assert res.returncode == EXIT_INPUT_ERROR
        assert res.stdout == ""
        assert res.stderr == "error: case count must be >= 0, got -1\n"

    def test_negative_count_reported_before_budget(self, capsys):
        argv = ["corpus", "--count", "-1", "--budget", "1"]
        assert cli.main(argv) == EXIT_INPUT_ERROR
        assert capsys.readouterr() == ("", "error: case count must be >= 0, got -1\n")

    @pytest.mark.parametrize("value", ["-1", "nan", "inf"])
    @pytest.mark.parametrize("argv", [
        ["verify-main", "x^3 + y^3"],
        ["verify-main", "x^3 + y^4 + z^5"],
        ["verify-main", "x^3 + x*y^2 + y^4", "--nondegenerate"],
    ])
    def test_invalid_tolerance_exit(self, argv, value, capsys):
        # checked before any theta, exact (dims 2 and 3) or numeric: -1
        # failed verdicts with a margin of 5e-16, inf held every numeric
        # verdict, and nan reached the JSON report as a bare NaN
        assert cli.main([*argv, "--tolerance", value, "--json"]) == EXIT_INPUT_ERROR
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: tolerance must be finite and >= 0, got {float(value)}\n"

    def test_fermat_sweep_script(self):
        script = Path(__file__).parents[1] / "scripts" / "fermat_sweep.py"
        res = subprocess.run([sys.executable, str(script), "--dims", "2", "3",
                              "--max-degree", "4"], capture_output=True, text=True,
                             env=CHILD_ENV)
        assert res.returncode == 0, res.stderr
        header, *rows = res.stdout.splitlines()
        assert header.split() == ["n", "d", "lct", "theta", "bound", "margin"]
        assert [row.split()[:2] for row in rows] == [
            [str(n), str(d)] for n in (2, 3) for d in (2, 3, 4)]
        assert all(row.split()[-1] == "0" for row in rows)
        # VARS has four names: --dims 5 printed the dim-4 germ as n = 5, and
        # --dims 0 ended in a ParseError traceback
        for dim in ("5", "0"):
            res = subprocess.run([sys.executable, str(script), "--dims", "2", dim],
                                 capture_output=True, text=True, env=CHILD_ENV)
            assert (res.returncode, res.stdout) == (EXIT_INPUT_ERROR, "")
            assert res.stderr == f"error: dimensions are 1..4, got {dim}\n"
        res = subprocess.run([sys.executable, str(script), "--dims"],
                             capture_output=True, text=True, env=CHILD_ENV)
        assert (res.returncode, res.stdout) == (EXIT_INPUT_ERROR, "")

    @pytest.mark.parametrize("degree", ["1", "0", "-1"])
    def test_fermat_sweep_rejects_max_degree_below_2(self, degree):
        # a degree range with no d >= 2 printed the header alone and exited 0
        script = Path(__file__).parents[1] / "scripts" / "fermat_sweep.py"
        res = subprocess.run([sys.executable, str(script), "--dims", "2", "--max-degree", degree],
                             capture_output=True, text=True, env=CHILD_ENV)
        assert (res.returncode, res.stdout) == (EXIT_INPUT_ERROR, "")
        assert res.stderr == f"error: max degree must be >= 2, got {degree}\n"

    def test_estimator_accuracy_script(self):
        script = Path(__file__).parents[1] / "scripts" / "estimator_accuracy.py"
        res = subprocess.run([sys.executable, str(script), "--count", "2", "--starts", "16",
                              "--iters", "100"], capture_output=True, text=True,
                             env=CHILD_ENV)
        assert res.returncode == 0, res.stderr
        assert len(res.stdout.splitlines()) == 4
        assert res.stdout.splitlines()[-1].startswith("max relative error: ")
        # random_ideal's InvalidInputError ended in a traceback and exit 1,
        # the code of an exceeded error bound
        # with no case drawn, the budget is still checked, as corpus does
        for count in ("30", "0"):
            res = subprocess.run([sys.executable, str(script), "--budget", "1",
                                  "--count", count],
                                 capture_output=True, text=True, env=CHILD_ENV)
            assert (res.returncode, res.stdout) == (EXIT_INPUT_ERROR, ""), count
            assert res.stderr == "error: budget must be >= 2\n"
        # a negative count printed an empty table and exited 0
        res = subprocess.run([sys.executable, str(script), "--count", "-1"],
                             capture_output=True, text=True, env=CHILD_ENV)
        assert (res.returncode, res.stdout) == (EXIT_INPUT_ERROR, "")
        assert res.stderr == "error: case count must be >= 0, got -1\n"
        # --iters -1 printed a nan row and exit 0; --starts -1 ended in a
        # numpy traceback
        for option in ("--starts", "--iters"):
            res = subprocess.run([sys.executable, str(script), option, "-1", "--count", "1"],
                                 capture_output=True, text=True, env=CHILD_ENV)
            assert (res.returncode, res.stdout) == (EXIT_INPUT_ERROR, ""), option
            assert res.stderr.startswith("error: starts and iters must be >= 0"), option
        # a usage error is an input error, not argparse's 2
        res = subprocess.run([sys.executable, str(script), "--count", "x"],
                             capture_output=True, text=True, env=CHILD_ENV)
        assert (res.returncode, res.stdout) == (EXIT_INPUT_ERROR, "")

    @pytest.mark.parametrize("text", ["1" + "0" * 330 + "*x^3 + x*y^2 + y^4",
                                      "1/1" + "0" * 400 + "*x^3 + x*y^2 + y^4"])
    def test_coefficient_beyond_float_range_exit(self, text, capsys):
        # J_f is not term-exact, so theta_0 is numeric: the first ended in an
        # OverflowError traceback, the second in "min-max collapsed below
        # float range" after its x^2 term underflowed to 0
        assert cli.main(["compute", text]) == EXIT_COMPUTE_ERROR
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: coefficient beyond the estimator's float range\n"

    def test_estimator_accuracy_script_nan_error_fails(self, monkeypatch, capsys):
        # max(0.0, nan) kept 0.0, so a NaN estimate passed with exit 0
        from lctlab.sections import LojaEstimate

        module = load_estimator_script()
        values = iter([float("nan"), 2.0])
        monkeypatch.setattr(module, "loja_numeric",
                            lambda pres, params: LojaEstimate(next(values), "numeric"))
        assert module.main(["--count", "2"]) == 1
        assert capsys.readouterr().out.splitlines()[-1] == "max relative error: nan"

    def test_estimator_accuracy_script_numeric_failure_exit(self, monkeypatch, capsys):
        # a NumericFailureError ended in a traceback with exit 1
        module = load_estimator_script()

        def fail(pres, params):
            raise NumericFailureError("min-max collapsed below float range")

        monkeypatch.setattr(module, "loja_numeric", fail)
        assert module.main(["--count", "2"]) == EXIT_COMPUTE_ERROR
        out, err = capsys.readouterr()
        assert err == "error: min-max collapsed below float range\n"
        assert "max relative error" not in out

    @pytest.mark.parametrize("text", ["1 + x^3 + y^3", "3/2 + 2*y^3 - x^4*y^2", "1 + x^2*y^2"])
    def test_unit_germ_exit(self, text, capsys):
        # the Jacobian drops the constant: verify-main gave the verdict of
        # x^3 + y^3 on the first, and a numeric failure (exit 5) on the
        # second; x^2*y^2 alone is not isolated, but the unit is found first
        for command in ("compute", "verify-lct", "verify-main"):
            assert cli.main([command, text]) == EXIT_INPUT_ERROR, command
            out, err = capsys.readouterr()
            assert out == ""
            assert err == "error: f is a unit (nonzero constant term)\n"

    @pytest.mark.parametrize("text", ["2*x^2*y^3 + 3/2*x^5*y^4", "2*x^3*y + 2*x^5*y^5*z",
                                      "x^2*y^2 + x^3*y^2"])
    def test_mixed_partials_non_isolated_exit(self, text, capsys):
        # the partials are not single terms, and no term of any is a pure
        # power of y: f is singular along the y-axis; verify-main exited 5
        # with "min-max collapsed below float range" on the first two
        for command in ("compute", "verify-lct", "verify-main"):
            assert cli.main([command, text]) == EXIT_INPUT_ERROR, command
            out, err = capsys.readouterr()
            assert out == ""
            assert err == "error: germ has non-isolated singularity\n"

    def test_one_variable_germ(self, capsys):
        # J_f = (2x + 3x^2) is not term-exact; theta_0 is the least exponent of f'
        assert cli.main(["compute", "x^2 + x^3", "--json"]) == EXIT_OK
        inv = json.loads(capsys.readouterr().out)["invariants"]
        assert (inv["theta"], inv["theta_methods"]) == (["1"], ["exact-monomial"])
        assert "lct" not in inv and not inv["exact"]
        assert cli.main(["verify-main", "--nondegenerate", "x^2 + x^3", "--json"]) == EXIT_OK
        (verdict,) = json.loads(capsys.readouterr().out)["verdicts"]
        assert (verdict["lhs"], verdict["rhs"], verdict["margin"]) == ("1/2", "1/2", "0")
        assert cli.main(["verify-main", "x^2 + x^3"]) == EXIT_INPUT_ERROR
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: generator 2*x^2 + 3*x^3 is not a single term\n"

    @pytest.mark.parametrize("command,template,message", [
        ("compute", "{long}*x^2 + y^2", "number longer than {limit} digits at offset 0"),
        ("compute", "1/{long}*x^2 + y^2", "number longer than {limit} digits at offset 2"),
        ("compute", "x^{long} + y^2", "number longer than {limit} digits at offset 2"),
        # each factor is within the limit, their product is not
        ("compute", "{half}*{half}*x^2 + y^2", "coefficient longer than {limit} digits"),
        ("verify-main", "{half}*{half}*x^2*y + y^4", "coefficient longer than {limit} digits"),
        # every number parses, but lct(f) = 1/a + 1/2 has a denominator 2a
        # one digit past the limit
        ("compute", "x^{most} + y^2", "value longer than {limit} digits"),
        ("verify-lct", "x^{most} + y^2", "value longer than {limit} digits"),
    ], ids=["coefficient", "denominator", "exponent", "product", "product-message",
            "value", "value-lct"])
    def test_digit_run_past_int_limit_exit(self, command, template, message, capsys):
        limit = sys.get_int_max_str_digits()
        text = template.format(long="9" * (limit + 1), half="9" * (limit // 2 + 1),
                               most="9" * limit)
        assert cli.main([command, text]) == EXIT_INPUT_ERROR
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: {message.format(limit=limit)}\n"

    @pytest.mark.parametrize("argv,degree", [
        (["compute", "x^100000000 + x*y + y^2"], 99999999),
        (["compute", f"x^{MAX_RESTRICT_DEGREE + 2} + x*y + y^2"], MAX_RESTRICT_DEGREE + 1),
        # degree 3199 on a plane of dimension 2: about 3199^2 weighted
        # products
        (["compute", "x^3200 + x*y + y^2 + z^2"], 3199),
    ], ids=["line", "line-at-bound", "plane"])
    def test_restriction_past_work_bound_exit(self, argv, degree, capsys):
        # J_f is not term-exact (x*y), so theta_(n-1) restricts its power
        # of x to a generic line or plane; past the bound nothing is
        # expanded, and the command exits 5 at once
        assert cli.main(argv) == EXIT_COMPUTE_ERROR
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: restriction to a ")
        assert err.endswith(f"passes its work bound at a term of degree {degree}\n")

    def test_estimate_past_term_bound_exit(self, capsys):
        # J_f is not term-exact, so theta_1 restricts it to a generic 3-plane
        # within restrict's bounds, to 31,378 terms: the estimator stops
        # before its descent
        assert cli.main(["compute", "x^250 + x*y + y^2 + z^2 + w^2"]) == EXIT_COMPUTE_ERROR
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (f"error: numeric estimate over 31378 terms passes its bound "
                       f"of {MAX_ESTIMATOR_TERMS}\n")

    @pytest.mark.parametrize("argv,theta", [
        (["verify-main", "x^100000000 + y^2"], ["99999999", "1"]),
        (["compute", f"x^{MAX_RESTRICT_DEGREE + 2} + y^2"], [str(MAX_RESTRICT_DEGREE + 1), "1"]),
    ], ids=["line", "line-at-bound"])
    def test_term_exact_line_theta_restricts_nothing(self, argv, theta, capsys):
        # a term-exact J_f takes theta_1 from its monomial ideal, so the
        # powers past restrict's bounds give an exact report
        def no_restriction(I, plane):
            raise AssertionError("term-exact J_f restricted")

        with mock.patch.object(sections, "restrict", no_restriction):
            assert cli.main([*argv, "--json"]) == EXIT_OK
        inv = json.loads(capsys.readouterr().out)["invariants"]
        assert inv["theta"] == theta and inv["exact"]
        assert inv["theta_methods"] == ["exact-monomial", "exact-line"]

    def test_term_exact_line_theta_is_the_generic_order(self, capsys):
        # the seeded line sample_plane(4, 3, 0) has a 0 in its z entry and
        # misses J_f's generator z, where it gave theta_3 = 2 and lhs 14/13;
        # theta_3 is the order on a generic line, 1
        assert _line_zeros(4, 0) == [2]
        assert cli.main(["verify-main", "x^3 + y^3 + z^2 + w^13", "--json"]) == EXIT_OK
        d = json.loads(capsys.readouterr().out)
        assert d["invariants"]["theta"] == ["12", "2", "2", "1"]
        v = d["verdicts"][0]
        assert (v["lhs"], v["rhs"], v["holds"], v["numeric"]) == ("97/78", "5/3", True, False)

    def test_restriction_at_degree_bound(self, capsys):
        # J_f is not term-exact, so theta_1 restricts J_f's power x^200000,
        # at the degree bound, to the line
        text = f"x^{MAX_RESTRICT_DEGREE + 1} + x*y + y^2"
        assert cli.main(["compute", text, "--json"]) == EXIT_OK
        inv = json.loads(capsys.readouterr().out)["invariants"]
        assert (inv["theta"][1], inv["theta_methods"][1]) == ("1", "exact-line")

    @pytest.mark.parametrize("argv,theta", [
        (["compute", "x + y^2 + z^2"], ["0", "0", "0"]),
        (["verify-main", "x + y^2 + z^2 + w^3"], ["0", "0", "0", "0"]),
        (["verify-main", "x^3 + y^4 + z^5"], ["4", "3", "2"]),
        (["verify-main", "x^2 + y^3 + z^4 + w^5"], ["4", "3", "2", "1"]),
    ])
    def test_middle_thetas_exact_when_jacobian_is_term_exact(self, argv, theta, capsys):
        # the middle theta_j of a term-exact J_f are its section exponents
        # L^(j), also when its Newton polyhedron is not that of m^k: a unit
        # J_f (smooth germ) has L^(j) = 0, and (x^2, y^3, z^4) has
        # L^(1) = 3 between L_0 = 4 and ord = 2
        assert cli.main([*argv, "--json"]) == EXIT_OK
        inv = json.loads(capsys.readouterr().out)["invariants"]
        assert inv["theta"] == theta and inv["exact"]
        assert inv["theta_methods"] == [*["exact-monomial"] * (len(theta) - 1), "exact-line"]

    def test_middle_thetas_numeric_when_jacobian_is_not_term_exact(self, capsys):
        assert cli.main(["compute", "x^3 + x*y^2 + y^4 + z^2", "--json"]) == EXIT_OK
        inv = json.loads(capsys.readouterr().out)["invariants"]
        assert inv["theta_methods"] == ["numeric", "numeric", "exact-line"]
        assert not inv["exact"]

    @pytest.mark.parametrize("argv", [
        ["compute", ";"],
        ["compute", " ; ;", "--dim", "2"],
        ["compute", "", "--ideal"],
        ["verify-chain", ";"],
        ["probe-pham", ""],
    ])
    def test_empty_ideal_exit(self, argv, capsys):
        assert cli.main(argv) == EXIT_INPUT_ERROR
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: empty ideal\n"

    @pytest.mark.parametrize("argv,dim", [
        (["verify-main", "3", "--dim", "0"], 0),
        (["compute", "x^2 + y^3", "--dim", "-1"], -1),
        (["compute", "x +", "--dim", "5"], 5),
        (["verify-chain", "x^2; y^3", "--dim", "0"], 0),
    ])
    def test_dimension_outside_range_exit(self, argv, dim, capsys):
        # checked before parsing: --dim 0 read "3" as a unit germ, and --dim -1
        # said "variable index exceeds dimension -1"
        assert cli.main(argv) == EXIT_INPUT_ERROR
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: dimension {dim} not supported (1..4)\n"

    def test_corpus_dim_zero_exit(self, capsys):
        # --dim 0 is rejected, not read as the default dimension 2
        assert cli.main(["corpus", "--dim", "0", "--count", "1"]) == EXIT_INPUT_ERROR
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: corpus dimensions are 2..4\n"

    @pytest.mark.parametrize("argv,message", [
        (["--dim", "7", "--count", "0"], "corpus dimensions are 2..4"),
        (["--dim", "1", "--count", "0"], "corpus dimensions are 2..4"),
        (["--budget", "1", "--count", "0"], "budget must be >= 2"),
    ])
    def test_corpus_shape_checked_before_cases(self, argv, message, capsys):
        # a zero-case corpus reported "dim": 7 and exited 0
        assert cli.main(["corpus", *argv, "--json"]) == EXIT_INPUT_ERROR
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: {message}\n"


    @pytest.mark.parametrize("budget", [MAX_BUDGET + 1, 99999999999])
    def test_corpus_budget_above_maximum_exit(self, budget, capsys):
        # random_ideal draws up to `budget` terms; a huge budget used to hang
        argv = ["corpus", "--dim", "4", "--count", "2", "--budget", str(budget)]
        assert cli.main(argv) == EXIT_INPUT_ERROR
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: budget must be <= {MAX_BUDGET}, got {budget}\n"
        with pytest.raises(InvalidInputError, match="budget must be <="):
            random_ideal(4, 0, budget)

    def test_corpus_budget_at_maximum_runs(self, capsys):
        argv = ["corpus", "--dim", "2", "--count", "1", "--budget", str(MAX_BUDGET), "--json"]
        assert cli.main(argv) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["corpus"]["budget"] == MAX_BUDGET

    @pytest.mark.parametrize("argv,message", [
        (["compute", "-x^2"], "lctlab compute: error: the following arguments are required: input"),
        (["compute"], "lctlab compute: error: the following arguments are required: input"),
        (["corpus", "--count", "x"], "lctlab corpus: error: argument --count: invalid int value: 'x'"),
        (["verify-main", "x^2", "--bogus"], "lctlab: error: unrecognized arguments: --bogus"),
        ([], "lctlab: error: the following arguments are required: command"),
    ])
    def test_usage_error_exit(self, argv, message, capsys):
        # argparse exits 2, which is the code of a failed exact verdict
        assert cli.main(argv) == EXIT_INPUT_ERROR
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("usage: lctlab")
        assert err.endswith(f"\n{message}\n")

    def test_help_exit(self, capsys):
        assert cli.main(["--help"]) == EXIT_OK
        out, err = capsys.readouterr()
        assert out.startswith("usage: lctlab") and err == ""

    @pytest.mark.parametrize("argv,timed", [
        (["corpus", "--count", "2", "--timings"], True),
        (["corpus", "--count", "2"], False),
        (["compute", "x^2; y^3"], False),
        (["verify-main", "x^3 + y^3"], False),
        (["verify-lct", "x^3 + y^3"], False),
    ])
    def test_timings_only_in_timed_corpus(self, argv, timed, capsys):
        assert cli.main([*argv, "--json"]) == EXIT_OK
        timings = json.loads(capsys.readouterr().out)["meta"]["timings_ms"]
        if timed:
            assert isinstance(timings, float) and timings >= 0
        else:
            assert timings is None

    def test_parse_error_exit(self):
        res = run_cli("verify-main", "x + ")
        assert res.returncode == EXIT_INPUT_ERROR
        assert "error" in res.stderr

    def test_zero_denominator_exit(self):
        res = run_cli("verify-main", "1/0*x^2 + y^2")
        assert res.returncode == EXIT_INPUT_ERROR
        assert res.stderr == "error: zero denominator at offset 2\n"

    @pytest.mark.parametrize("argv", [
        ["verify-chain", "1"],
        ["verify-chain", "1", "--dim", "2"],
        ["verify-chain", "1", "--dim", "3"],
        ["verify-chain", "x^0"],
        ["probe-pham", "1", "--dim", "2"],
    ])
    def test_unit_ideal_exit(self, argv, capsys):
        assert cli.main(argv) == EXIT_INPUT_ERROR
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: Lelong numbers of the unit ideal are 0; its ratios are undefined\n"

    def test_numeric_corpus_middle_terms_exact(self, capsys):
        # case 1 is (x^4, y^12, z^15, w^2): on a generic 3-plane the forms of
        # x and w vanish together on a line, where the order is 12, so
        # L^(1) = 12; the estimator gave 3.99, a false numeric failure
        argv = ["corpus", "--dim", "4", "--numeric", "--budget", "17", "--count", "3",
                "--seed", "3", "--json"]
        assert cli.main(argv) == EXIT_OK
        d = json.loads(capsys.readouterr().out)
        assert random_ideal(4, 4, 17).generators == (
            (0, 0, 0, 2), (0, 0, 15, 0), (0, 12, 0, 0), (4, 0, 0, 0))
        assert list(d["summaries"]) == ["chain-lct", "chain-term-j0", "chain-term-j1",
                                        "chain-term-j2", "chain-term-j3"]
        assert all(s["count"] == 3 and not s["failures"] for s in d["summaries"].values())
        assert "errors" not in d

    def test_numeric_failure_exit(self, monkeypatch, capsys):
        def fail(I, params=None):
            raise NumericFailureError("min-max collapsed below float range")

        monkeypatch.setattr(sections, "loja_numeric", fail)
        code = cli.main(["compute", "x^3 + x*y^2 + y^4"])
        assert code == EXIT_COMPUTE_ERROR
        assert capsys.readouterr().err == "error: min-max collapsed below float range\n"


class TestSharedParser:
    """cli.main builds its parser once per process and looks up the
    subcommand's function on every call."""

    def test_built_once(self, capsys):
        cli.build_parser.cache_clear()
        for _ in range(2):
            assert cli.main(["verify-main", "x^3 + y^3"]) == EXIT_OK
        info = cli.build_parser.cache_info()
        assert (info.misses, info.hits) == (1, 1)

    def test_flags_do_not_carry_over(self, capsys):
        assert cli.main(["verify-main", "x^3 + y^3", "--json", "--seed", "7"]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["meta"]["seed"] == 7
        assert cli.main(["verify-main", "x^3 + y^3"]) == EXIT_OK
        out = capsys.readouterr().out
        assert out == run_cli("verify-main", "x^3 + y^3").stdout
        assert out.startswith("input: x^3 + y^3\n") and "  seed: 0\n" in out

    def test_help_and_usage_error_on_a_used_parser(self, capsys):
        assert cli.main(["verify-main", "x^3 + y^3"]) == EXIT_OK
        capsys.readouterr()
        assert cli.main(["verify-main", "--help"]) == EXIT_OK
        out, err = capsys.readouterr()
        assert out.startswith("usage: lctlab verify-main") and err == ""
        assert cli.main(["verify-main", "x^3 + y^3", "--bogus"]) == EXIT_INPUT_ERROR
        out, err = capsys.readouterr()
        assert out == ""
        assert err.endswith("\nlctlab: error: unrecognized arguments: --bogus\n")
        assert cli.main(["verify-main", "x^3 + y^3"]) == EXIT_OK

    def test_patched_command_runs(self, capsys):
        # test_cli_fuzz records errors by patching cli._cmd_*; a function
        # bound when the parser was built would bypass the patch
        assert cli.main(["verify-main", "x^3 + y^3"]) == EXIT_OK
        calls = []
        with mock.patch.object(cli, "_cmd_verify_main", lambda args: calls.append(args) or 3):
            assert cli.main(["verify-main", "x^2 + y^2"]) == 3
        assert [args.input for args in calls] == ["x^2 + y^2"]
        assert cli.main(["verify-main", "x^3 + y^3"]) == EXIT_OK
