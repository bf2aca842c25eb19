"""The README's library tour runs as written."""

import doctest
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"
FENCED_PYTHON = re.compile(r"^```python\n(.*?)^```", re.S | re.M)


def test_readme_tour_runs():
    blocks = [b for b in FENCED_PYTHON.findall(README.read_text(encoding="utf-8"))
              if ">>>" in b]
    assert blocks, "the README has no >>> example"
    runner = doctest.DocTestRunner(optionflags=doctest.REPORT_NDIFF)
    for block in blocks:
        runner.run(doctest.DocTestParser().get_doctest(
            block, {}, "README.md", str(README), 0))
    failed, attempted = runner.summarize(verbose=False)
    assert failed == 0
    assert attempted >= 12
