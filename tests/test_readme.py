"""The README's code blocks run as documented: the quick tour, the CLI lines, the generator document."""

import json
import re
import shlex
from pathlib import Path

import pytest

from coeffbounds import Region, cli, run_expand, sweeps
from report_rows import bound_case, bound_rows, expand_rows

README = Path(__file__).resolve().parents[1] / "README.md"


def _blocks(language: str) -> list:
    """The text of each fenced code block of the README in ``language``, in order."""
    return re.findall(rf"^```{language}\n(.*?)^```$", README.read_text(encoding="utf-8"), flags=re.M | re.S)


def _cli_lines() -> list:
    return [line for block in _blocks("sh") for line in block.splitlines() if line.startswith("coeffbounds ")]


def test_quick_tour_prints_what_its_comments_state(capsys):
    (block,) = _blocks("python")
    exec(compile(block, "README quick tour", "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    assert printed == ["[[Fraction(2, 3)]]", "2/3", "4/3"]
    comments = [line.split("#", 1)[1] for line in block.splitlines() if line.startswith("print(")]
    assert all(value in comment for value, comment in zip(printed, comments, strict=True))


def test_the_cli_block_has_a_line_per_command():
    commands = [shlex.split(line)[1:3] for line in _cli_lines()]
    assert [argv[0] if argv[0] != "verify" else " ".join(argv) for argv in commands] == [
        "bounds", "verify extremal", "verify random", "verify hk", "verify nehari", "expand"]


@pytest.fixture
def in_a_folder_with_atoms(tmp_path, monkeypatch):
    """Run in a fresh folder holding atoms.json, the README's own generator document, which the expand line reads."""
    (document,) = _blocks("json")
    (tmp_path / "atoms.json").write_text(document)
    monkeypatch.chdir(tmp_path)


@pytest.mark.parametrize("line", _cli_lines())
def test_cli_line_exits_as_documented(line, in_a_folder_with_atoms, capsys):
    code = cli.main(shlex.split(line)[1:])
    capsys.readouterr()
    # verify nehari fails on the stock grid by design
    assert code == (1 if line.startswith("coeffbounds verify nehari") else 0)


def test_expand_prints_the_example_rows(in_a_folder_with_atoms, capsys):
    (line,) = [line for line in _cli_lines() if line.startswith("coeffbounds expand ")]
    assert cli.main(shlex.split(line)[1:]) == 0
    printed = capsys.readouterr().out.splitlines()
    (example,) = _blocks("text")
    assert set(example.splitlines()) <= set(printed)


def test_expand_names_no_omega_region_on_a_sharp_row():
    # above alpha = 1 the sharp bound applies at every k; the omega regions belong to the small-alpha bound
    (document,) = _blocks("json")
    rows = bound_rows(expand_rows(run_expand(json.loads(document), 1, "2", "0")))
    assert len(rows) == 11
    assert all(bound_case(row)[:2] == ("sharp", None) for row in rows)
    assert [row["case"] for row in rows for region in Region if region.value in row["case"]] == []


def test_generator_document_parses_and_expands():
    (document,) = _blocks("json")
    (report,) = run_expand(json.loads(document), 1, "2", "0")
    assert report.passed
    assert report.point["backend"] == "rational"


def test_break_evens_are_the_library_constants():
    text = README.read_text(encoding="utf-8")
    for name in ("DOMINANCE_BREAK_EVEN", "NEHARI_BREAK_EVEN"):
        (value,) = re.findall(rf"`sweeps\.{name}`\s+=\s+(\d+)", text)
        assert int(value) == getattr(sweeps, name)
