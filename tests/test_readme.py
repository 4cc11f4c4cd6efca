"""README's examples run, so they cannot drift: the ```python block as a
doctest, and each ``rookq ...`` line of the command-line block through
``cli.main``."""

import doctest
import re
import shlex
from pathlib import Path

import pytest

from rookq import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)
    assert blocks, "README.md has no ```python block"
    test = doctest.DocTestParser().get_doctest("".join(blocks), {}, "README.md", str(README), 0)
    runner = doctest.DocTestRunner()
    result = runner.run(test)
    assert result.attempted and not result.failed, f"{result.failed} of {result.attempted} failed"


def command_lines():
    """The ``rookq ...`` lines of the ```sh block under "## Command line"."""
    text = README.read_text(encoding="utf-8")
    block = re.search(r"^## Command line\n\n```sh\n(.*?)^```", text, re.M | re.S)
    lines = block.group(1).splitlines() if block else []
    return [line for line in lines if line.startswith("rookq ")]


def test_command_line_block_is_present():
    assert command_lines(), 'README.md has no ```sh block of rookq lines under "## Command line"'


@pytest.mark.parametrize("line", command_lines())
def test_command_line_example(capsys, line):
    code = cli.main(shlex.split(line)[1:])
    out = capsys.readouterr().out
    assert code == 0 and out.strip(), line
