"""The README's library example runs against the current API."""

import pathlib
import re

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.DOTALL)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    # support, prediction-error norm, every bound's verdict
    assert re.fullmatch(r"\(3, 6\) 0\.06\d* True\n", capsys.readouterr().out)
