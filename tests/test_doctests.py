from __future__ import annotations

import doctest
import importlib
import pkgutil
import re
from pathlib import Path

import smoothchains

README = Path(__file__).resolve().parents[1] / "README.md"


def test_src_doctests_pass():
    attempted = 0
    for info in pkgutil.iter_modules(smoothchains.__path__):
        module = importlib.import_module(f"smoothchains.{info.name}")
        result = doctest.testmod(module)
        assert result.failed == 0, f"{module.__name__}: {result.failed} failed"
        attempted += result.attempted
    assert attempted > 0, "no doctest example ran"


def test_readme_python_examples_pass():
    # doctest.testfile would read each closing fence as expected output,
    # so the examples are parsed one python block at a time
    parser = doctest.DocTestParser()
    runner = doctest.DocTestRunner()
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.M | re.S)
    for number, block in enumerate(blocks, start=1):
        name = f"README.md python block {number}"
        runner.run(parser.get_doctest(block, {}, name, str(README), 0))
    result = runner.summarize(verbose=False)
    assert result.failed == 0, f"{result.failed} README example(s) failed"
    assert result.attempted > 0, "no README example ran"
