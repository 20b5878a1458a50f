"""The README's Python snippets, run as written."""

import contextlib
import io
import pathlib
import re

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def section(title: str) -> str:
    """The README section under ``## title``, up to the next one."""
    text = README.read_text(encoding="utf-8")
    start = text.index(f"\n## {title}\n")
    end = text.find("\n## ", start + 1)
    return text[start:] if end < 0 else text[start:end]


def run_snippet(text: str, tmp_path, monkeypatch) -> str:
    """What the first Python block of ``text`` prints, run in ``tmp_path``."""
    source = re.search(r"```python\n(.*?)```", text, re.S).group(1)
    monkeypatch.chdir(tmp_path)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(source, str(README), "exec"), {"__name__": "snippet"})
    return out.getvalue()


def test_readme_quickstart_runs(tmp_path, monkeypatch):
    out = run_snippet(section("Library quickstart"), tmp_path, monkeypatch)
    assert out.rstrip().endswith("-> COHERENT")
    assert (tmp_path / "solution.csv").read_text().startswith("k,t,q0\n")


def test_readme_march_table_is_what_its_snippet_prints(tmp_path, monkeypatch):
    text = section("Long marches: energy and momentum")
    table = [line for line in text.splitlines() if line.startswith("|")]
    assert len(table) == 8  # header, rule, three kinds x two sigmas
    assert run_snippet(text, tmp_path, monkeypatch).splitlines() == table
