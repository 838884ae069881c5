"""Every report the benchmark's reference tables pin is still byte-identical.

perfbench/reference/<workload>.txt lists, per item key, the leading hex
digits of the SHA-256 of that item's exact JSON report bytes.  The tables are
read here, never written: a mismatch means a change altered exact output.

- corpus-d2, corpus-d3: key s is `lctlab corpus --dim D --count 1 --seed s
  --budget 5 --json`, emitted in process.
- germs-fermat: key "n,d" is the germ x1^d + ... + xn^d; the digest covers
  the stdout of `verify-main --json` followed by that of `verify-lct --json`.
"""
import contextlib
import hashlib
import io
from pathlib import Path

import pytest

from lctlab import cli
from lctlab.verify import CorpusConfig, corpus_run, emit_report

REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference"


def _table(name: str) -> dict[str, str]:
    lines = (REFERENCE / f"{name}.txt").read_text().splitlines()
    return dict(line.split() for line in lines)


def _digest(text: str, width: int) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:width]


def _corpus_report(dim: int):
    return lambda key: emit_report(
        corpus_run(CorpusConfig(dim=dim, count=1, seed=int(key), budget=5)), "json")


def _fermat_reports(key: str) -> str:
    n, d = map(int, key.split(","))
    text = " + ".join(f"x{i}^{d}" for i in range(1, n + 1))
    out = io.StringIO()
    for command in ("verify-main", "verify-lct"):
        with contextlib.redirect_stdout(out):
            assert cli.main([command, text, "--json"]) == 0, (command, text)
    return out.getvalue()


REPORTS = {"corpus-d2": (_corpus_report(2), 16000),
           "corpus-d3": (_corpus_report(3), 400),
           "germs-fermat": (_fermat_reports, 180)}


@pytest.mark.parametrize("name", REPORTS)
def test_reports_match_reference_digests(name):
    report, count = REPORTS[name]
    table = _table(name)
    assert len(table) == count
    width = len(next(iter(table.values())))
    wrong = [key for key, want in table.items() if _digest(report(key), width) != want]
    assert not wrong, f"{len(wrong)} of {count} {name} reports changed, first keys {wrong[:10]}"
