"""Fuzzing of the command line: every input ends in a report or a typed error.

Inputs are short strings over the polynomial grammar's alphabet (variables,
numbers of at most two digits, operators, parentheses, ';' and spaces).  The
text follows "--", so that one starting with "-" is not read as an option.
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
    "verify-chain": ["--tolerance", "--numeric"],
    "verify-lct": ["--nondegenerate"],
    "probe-pham": [],
}
VALUES = {
    "--seed": st.one_of(st.integers(-5, 10 ** 6).map(str), st.just("x")),
    "--dim": st.one_of(st.integers(-1, 5).map(str), st.just("2.5")),
    "--tolerance": st.sampled_from(["0", "0.05", "1", "-1", "nan", "inf", "1e-300", "x"]),
}

# On a 2-core VM the slowest of 3,000 drawn examples took 0.15 s, and the
# slowest explicit one, the dim-4 verify-chain --numeric below, 0.9-1.1 s;
# the bound is more than five times that.
CALL_BOUND_S = 10.0

TOKENS = st.one_of(
    st.sampled_from(["x", "y", "z", "w", "x1", "x2", "x3", "x4"]),
    st.integers(0, 99).map(str),
    st.sampled_from(["+", "-", "*", "^", "/", "(", ")", ";", " "]),
)
INPUTS = st.lists(TOKENS, max_size=10).map("".join)


@st.composite
def flag_args(draw, command):
    """Some of the command's flags, in drawn order, with drawn values."""
    names = draw(st.lists(st.sampled_from(["--json", "--seed", "--dim", *FLAGS[command]]),
                          unique=True))
    args = []
    for name in names:
        args.append(name)
        if name in VALUES:
            args.append(draw(VALUES[name]))
    return args


CALLS = st.sampled_from(sorted(COMMANDS)).flatmap(
    lambda command: st.tuples(st.just(command), flag_args(command)))


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
