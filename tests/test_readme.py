"""The README's Python quickstart, run as written."""

import contextlib
import io
import pathlib
import re

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def quickstart_source() -> str:
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Library quickstart") :]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_quickstart_runs(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(quickstart_source(), str(README), "exec"), {"__name__": "quickstart"})
    assert out.getvalue().rstrip().endswith("-> COHERENT")
    assert (tmp_path / "solution.csv").read_text().startswith("k,t,q0\n")
