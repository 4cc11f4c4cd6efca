"""README's ```python block runs as a doctest, so its examples cannot drift."""

import doctest
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)
    assert blocks, "README.md has no ```python block"
    test = doctest.DocTestParser().get_doctest("".join(blocks), {}, "README.md", str(README), 0)
    runner = doctest.DocTestRunner()
    result = runner.run(test)
    assert result.attempted and not result.failed, f"{result.failed} of {result.attempted} failed"
