"""README examples run as written: every ``stepaudit`` line of the
command-line block parses, the library quick start runs, the listed
families are the registry's, and the listed schedule and envelope forms
are the ones the command line accepts."""

import re
import shlex
from pathlib import Path

import pytest

from stepaudit import _kernels, cli, harness
from stepaudit.harness import Tolerances

README = (Path(__file__).parent.parent / "README.md").read_text()


def _code_block(heading: str) -> str:
    """The first fenced block after the ``## heading`` line."""
    section = README.split(f"\n## {heading}\n", 1)[1]
    return section.split("```", 2)[1].partition("\n")[2]


def test_command_line_examples_parse():
    lines = [line for line in _code_block("Command line").splitlines() if line.startswith("stepaudit ")]
    assert len(lines) == 4
    for line in lines:
        try:
            cli.build_parser().parse_args(shlex.split(line)[1:])
        except SystemExit:
            pytest.fail(f"README example does not parse: {line}")


def test_quick_start_runs(capsys):
    exec(compile(_code_block("Quick start (library)"), "README quick start", "exec"), {})
    measured, certified = capsys.readouterr().out.splitlines()[0].split(" >= ")
    assert float(measured) >= float(certified) > 0


@pytest.mark.parametrize("lead, table", [("Schedules, each key shown with its default:", "_SCHEDULES"),
                                         ("Envelopes:", "_ENVELOPES")])
def test_spec_grammar_lists_every_form(lead, table):
    # the comma list of backticked forms after ``lead``, up to its period
    listed = re.match(r"\s*((?:`[^`]+`,\s+)*`[^`]+`)\.", README.split(lead, 1)[1])
    assert listed, f"no list of forms after {lead!r}"
    assert re.findall(r"`([^`]+)`", listed.group(1)) == cli._grammar(getattr(cli, table)).split(" | ")


def test_family_bullets_list_every_family():
    # the bolded bullets after the families' lead line, in order
    bullets = README.split("instance families drive the floors:\n", 1)[1].split("\n\n", 1)[0]
    assert re.findall(r"^- \*\*(\w+)\*\* - ", bullets, re.M) == list(harness.FAMILIES)


def test_registry_paragraph_names_the_row_fields_and_the_tolerance():
    # the paragraph after the family bullets states a row's fields and
    # verify's one tolerance
    para = README.split("A family is one row of the registry", 1)[1].split("\n\n", 1)[0]
    fields = re.search(r"A row holds \w+\s+fields, (.+?):", para, re.S)
    tolerance = re.search(r"one tolerance, ([-+.\de]+),", para)
    assert fields and tolerance
    assert tuple(re.findall(r"`(\w+)`", fields.group(1))) == harness.Family._fields
    assert float(tolerance.group(1)) == Tolerances.coord_abs


def test_segment_length_is_the_kernels():
    # the README's kernel paragraph and the kernel's docstring state the
    # length of a block's segments, which is _kernels._BLOCK_ROWS
    readme = re.findall(r"segments\s+of\s+([\d,]+)\s+rows", README)
    doc = re.findall(r"segments\s+of\s+``_BLOCK_ROWS``\s+\(([\d,]+)\)\s+rows", _kernels.__doc__)
    assert readme and doc
    assert {int(n.replace(",", "")) for n in readme + doc} == {_kernels._BLOCK_ROWS}


def test_flush_chunk_is_the_kernels():
    # the README's kernel paragraph and the kernel's docstring state the
    # flush's chunk length, which is _kernels._BLOCK_STEPS, and name no
    # tile width: a chunk's old columns go row by row at every width
    para = README.split("\nDescent kernel:", 1)[1].split("\n\n", 1)[0]
    readme = re.findall(r"chunks\s+of\s+([\d,]+)\s+rows", para)
    doc = re.findall(r"chunks\s+of\s+at\s+most\s+``_BLOCK_STEPS``\s+\(([\d,]+)\)\s+rows", _kernels.__doc__)
    assert readme and doc
    assert {int(n.replace(",", "")) for n in readme + doc} == {_kernels._BLOCK_STEPS}
    for text in (para, _kernels.__doc__):
        assert not re.search(r"\btiles?\b|\d-column", text)
