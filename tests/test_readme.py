"""The README's CLI example and library quickstart give what it says."""

from __future__ import annotations

import re
from pathlib import Path

from evoalg.cli import main

README = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```(\w*)\n(.*?)^```", README, re.M | re.S)


def _block(lang: str, start: str = "") -> str:
    return next(body for info, body in BLOCKS if info == lang and body.startswith(start))


def _comment(code: str, line: str) -> str:
    """The comment after ``line`` in the block ``code``."""
    return re.search(rf"^{re.escape(line)}\s+# (.*)$", code, re.M).group(1)


def test_cli_example_matches_the_readme(tmp_path, capsys):
    (tmp_path / "algebra.alg").write_text(_block("json"), encoding="utf-8")
    command, *expected = _block("", "$ evoalg codim1 algebra.alg --verbose").splitlines()
    argv = [str(tmp_path / a) if a == "algebra.alg" else a for a in command.split()[2:]]
    assert main(argv) == 0
    assert capsys.readouterr().out.splitlines() == expected


def test_library_quickstart_matches_the_readme():
    code = _block("python")
    ns: dict = {}
    exec(code, ns)
    a, s = ns["a"], ns["s"]
    assert _comment(code, "a.is_regular()").startswith("True") and a.is_regular() is True
    assert _comment(code, "(e2 * e2).render()") == "'e1 - e2 + e3'"
    assert (ns["e2"] * ns["e2"]).render() == "e1 - e2 + e3"
    assert "report.count == 0" in _comment(code, "report = enumerate_codim1(a)")
    assert ns["report"].count == 0
    assert _comment(code, "s.is_subalgebra()").startswith("True") and s.is_subalgebra() is True
    assert _comment(code, "s.natural_basis()") == "[e1]"
    assert [str(e) for e in s.natural_basis()] == ["e1"]
