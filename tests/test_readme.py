"""The Python examples of README.md run as written.

Verifies that the ```python blocks of the README, executed in order in one
namespace, raise nothing (so a public name the docs use cannot disappear
unnoticed) and that the quick tour prints the flat-cylinder DN eigenvalues
shown next to it.
"""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_python_examples_run(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(), flags=re.S | re.M)
    assert len(blocks) == 3
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    assert "[1.         1.31693421 1.59906608]" in capsys.readouterr().out.splitlines()
