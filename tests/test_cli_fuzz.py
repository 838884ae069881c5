"""Fuzzing of the command line: every input ends in a report or a typed error.

Inputs are short strings over the polynomial grammar's alphabet (variables,
numbers of at most two digits, operators, parentheses, ';' and spaces), and,
since most of those fail to parse, well-formed ones: sums of monomials for
the germ commands and ';'-joined monomials for the ideal commands.  The text
follows "--", so that one starting with "-" is not read as an option.
Before it come some of the command's own flags, each with a value drawn from
valid, out-of-range and unparsable ones.  Each call must return one of the
documented exit codes within CALL_BOUND_S, and an error that `cli.main`
reports must be one of lctlab's own types: a builtin ValueError such as
"max() arg is an empty sequence" would also exit 4, with a message that says
nothing about the input.
"""
import contextlib
import io
import time
from fractions import Fraction
from unittest import mock

from hypothesis import HealthCheck, example, given, settings, strategies as st

from lctlab import cli

COMMANDS = {
    "compute": "_cmd_compute",
    "verify-main": "_cmd_verify_main",
    "verify-chain": "_cmd_verify_chain",
    "verify-lct": "_cmd_verify_lct",
    "probe-pham": "_cmd_probe_pham",
}
EXIT_CODES = {0, 2, 3, 4, 5}

# The flags each command accepts (besides --json, --seed and --dim) and the
# values drawn for those that take one.
FLAGS = {
    "compute": ["--nondegenerate"],
    "verify-main": ["--tolerance", "--nondegenerate"],
    "verify-chain": ["--numeric"],
    "verify-lct": ["--nondegenerate"],
    "probe-pham": [],
}
VALUES = {
    "--seed": st.one_of(st.integers(-5, 10 ** 6).map(str), st.just("x")),
    "--dim": st.one_of(st.integers(-1, 5).map(str), st.just("2.5")),
    "--tolerance": st.sampled_from(["0", "0.05", "1", "-1", "nan", "inf", "1e-300", "x"]),
}

# On a 2-core VM the slowest of 3,000 drawn examples took 0.15 s, and each
# explicit one below takes less than 0.1 s; the bound is more than fifty
# times that.
CALL_BOUND_S = 10.0

TOKENS = st.one_of(
    st.sampled_from(["x", "y", "z", "w", "x1", "x2", "x3", "x4"]),
    st.integers(0, 99).map(str),
    st.sampled_from(["+", "-", "*", "^", "/", "(", ")", ";", " "]),
)
INPUTS = st.lists(TOKENS, max_size=10).map("".join)


# Valid values only, for the well-formed inputs below: every one of them is
# in x, y and z, so --dim 3 fits it.
VALID_VALUES = {
    "--seed": st.integers(0, 10 ** 6).map(str),
    "--dim": st.just("3"),
    "--tolerance": st.sampled_from(["0", "0.05", "1"]),
}


def _monomial(exps, coeff: str = "") -> str:
    """coeff*x^a*y^b*z^c, leaving out the factors with exponent 0, so that
    the variables used set the dimension; "1" or coeff alone if all are."""
    factors = [f"{v}^{e}" if e > 1 else v for v, e in zip("xyz", exps) if e]
    return "*".join([coeff] * bool(coeff) + factors) or "1"


@st.composite
def exponent_lists(draw):
    """1-4 exponent vectors over the first n of x, y, z, entries 0..5, each a
    pure power half the time, so that many germs are isolated and many
    ideals zero-dimensional."""
    n = draw(st.integers(1, 3))
    pure = st.builds(lambda i, e: tuple(e if k == i else 0 for k in range(n)),
                     st.integers(0, n - 1), st.integers(1, 5))
    return draw(st.lists(st.one_of(pure, st.tuples(*[st.integers(0, 5)] * n)),
                         min_size=1, max_size=4))


@st.composite
def germ_texts(draw):
    """A sum of 1-4 monomials with coefficients p/q, 0 < |p| <= 3, q <= 3; a
    constant term is allowed."""
    terms = []
    for exps in draw(exponent_lists()):
        c = Fraction(draw(st.integers(-3, 3).filter(bool)), draw(st.integers(1, 3)))
        sign = "-" if c < 0 else "+"
        terms.append(f"{sign} {_monomial(exps, '' if abs(c) == 1 else str(abs(c)))}")
    return " ".join(terms).removeprefix("+ ")


IDEAL_TEXTS = exponent_lists().map(lambda gens: "; ".join(map(_monomial, gens)))
WELL_FORMED = {
    "compute": st.one_of(germ_texts(), IDEAL_TEXTS),
    "verify-main": germ_texts(),
    "verify-chain": IDEAL_TEXTS,
    "verify-lct": germ_texts(),
    "probe-pham": IDEAL_TEXTS,
}


@st.composite
def flag_args(draw, command, values=VALUES):
    """Some of the command's flags, in drawn order, with drawn values."""
    names = draw(st.lists(st.sampled_from(["--json", "--seed", "--dim", *FLAGS[command]]),
                          unique=True))
    args = []
    for name in names:
        args.append(name)
        if name in values:
            args.append(draw(values[name]))
    return args


CALLS = st.sampled_from(sorted(COMMANDS)).flatmap(
    lambda command: st.tuples(st.just(command), flag_args(command)))
WELL_FORMED_CALLS = st.sampled_from(sorted(COMMANDS)).flatmap(
    lambda command: st.tuples(st.just(command), flag_args(command, VALID_VALUES),
                              WELL_FORMED[command]))


def _recording(command, errors):
    """The subcommand function, recording the exception it raises."""
    def run(args):
        try:
            return command(args)
        except Exception as err:
            errors.append(err)
            raise
    return run


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(call=CALLS, text=INPUTS)
@example(call=("probe-pham", []), text="")
@example(call=("compute", []), text=";")
@example(call=("verify-chain", ["--numeric", "--dim", "3"]), text="x^2;y^3;z^4")
@example(call=("verify-chain", ["--numeric"]), text="x^3;y^5;z^4;w^6;x*y*z*w")
@example(call=("verify-main", ["--tolerance", "nan"]), text="x^3+y^3")
def test_cli_main_ends_in_report_or_typed_error(call, text):
    command, flags = call
    _check_call(command, flags, text)


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(call=WELL_FORMED_CALLS)
@example(call=("verify-main", [], "1 + x^3 + y^3"))
@example(call=("verify-main", [], "3/2 + 2*y^3 - x^4*y^2"))
@example(call=("compute", ["--nondegenerate"], "x^3 + x*y^2 + y^5"))
def test_cli_main_well_formed_input(call):
    _check_call(*call)


def _check_call(command, flags, text):
    name = COMMANDS[command]
    errors = []
    with mock.patch.object(cli, name, _recording(getattr(cli, name), errors)), \
            contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        start = time.perf_counter()
        code = cli.main([command, *flags, "--", text])
        elapsed = time.perf_counter() - start
    assert code in EXIT_CODES
    assert elapsed < CALL_BOUND_S, (command, flags, text, elapsed)
    for err in errors:
        assert type(err).__module__.startswith("lctlab."), repr(err)
