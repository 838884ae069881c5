"""Fuzzing of the command line: every input ends in a report or a typed error.

Inputs are short strings over the polynomial grammar's alphabet (variables,
numbers of at most two digits, operators, parentheses, ';' and spaces).  The
text follows "--", so that one starting with "-" is not read as an option.
Each call must return one of the documented exit codes, and an error that
`cli.main` reports must be one of lctlab's own types: a builtin ValueError
such as "max() arg is an empty sequence" would also exit 4, with a message
that says nothing about the input.
"""
import contextlib
import io
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

TOKENS = st.one_of(
    st.sampled_from(["x", "y", "z", "w", "x1", "x2", "x3", "x4"]),
    st.integers(0, 99).map(str),
    st.sampled_from(["+", "-", "*", "^", "/", "(", ")", ";", " "]),
)
INPUTS = st.lists(TOKENS, max_size=10).map("".join)


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
@given(command=st.sampled_from(sorted(COMMANDS)), text=INPUTS)
@example(command="probe-pham", text="")
@example(command="compute", text=";")
def test_cli_main_ends_in_report_or_typed_error(command, text):
    name = COMMANDS[command]
    errors = []
    with mock.patch.object(cli, name, _recording(getattr(cli, name), errors)), \
            contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        code = cli.main([command, "--", text])
    assert code in EXIT_CODES
    for err in errors:
        assert type(err).__module__.startswith("lctlab."), repr(err)
