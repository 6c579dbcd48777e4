"""The README's quick example runs and gives the values its comments state."""

import re
from pathlib import Path

import numpy as np
import pytest

README = Path(__file__).resolve().parents[1] / "README.md"


def _quick_example():
    text = README.read_text()
    return re.search(r"Quick example:\n\n```python\n(.*?)```", text, re.S).group(1)


def test_quick_example_gives_the_values_in_its_comments():
    block = _quick_example()
    namespace = {}
    exec(compile(block, str(README), "exec"), namespace)
    # "expression   # value", the value a multiple of pi
    claims = re.findall(r"^(\S.*?)\s+# ([-+]pi/\d+)", block, re.M)
    assert [value for _, value in claims] == ["-pi/4", "+pi/2"]
    for expression, value in claims:
        got = eval(expression, namespace)
        assert got == pytest.approx(eval(value, {"pi": np.pi}), abs=1e-12)
