"""The README's examples and numbers hold for the package as it is."""

import re
from pathlib import Path

from grasspack.projections import _WARM_MIN_KN, _WARM_STEPS

README = Path(__file__).resolve().parent.parent / "README.md"


def test_python_examples_run(capsys):
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", text, re.MULTILINE | re.DOTALL)
    assert blocks, "the README has no python example"
    for code in blocks:
        exec(compile(code, str(README), "exec"), {"__name__": "__readme__"})
    assert "vs bound" in capsys.readouterr().out


def test_warm_path_numbers_are_the_codes():
    # A warm round takes six products with the iterate, after one to start.
    text = " ".join(README.read_text(encoding="utf-8").split())
    assert f"has {_WARM_MIN_KN} or more rows" in text
    assert f"within {_WARM_STEPS} rounds, at most {1 + 6 * _WARM_STEPS} products" in text
