"""The counting rules of ``tests/codelines.py``, the code-line counter."""

import codelines

SOURCE = '''"""A module docstring
over two lines."""

import os  # a comment after code

# a comment line
def f(x):
    """A function docstring."""
    y = (x +
         1)
    s = """a string that is not a docstring,
over two lines"""
    return y, s


class C:
    """A class docstring."""

    def g(self):
        return os.sep
'''


def test_code_lines_leave_out_docstrings_comments_and_blanks():
    # import; def f; y = (x +; 1); both lines of s; return; class; def g; return
    assert codelines.code_lines(SOURCE) == 10
    assert codelines.code_lines("") == 0


def test_codelines_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "b.py").write_text(SOURCE, encoding="utf-8")
    (tmp_path / "a.py").write_text('"""Doc."""\nX = 1\n', encoding="utf-8")
    (tmp_path / "notes.txt").write_text("X = 1\n", encoding="utf-8")
    assert codelines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        f"     1 {tmp_path / 'a.py'}",
        f"    10 {tmp_path / 'b.py'}",
        "    11 total",
    ]


def test_codelines_against_another_tree(tmp_path, capsys):
    # two checkouts: a module changed, one only in each tree, one the same
    other, this = tmp_path / "other", tmp_path / "this"
    for root, files in ((other, {"a.py": "X = 1\nY = 2\n", "gone.py": "Z = 3\n", "same.py": "W = 4\n"}),
                        (this, {"a.py": "X = 1\n", "new.py": SOURCE, "same.py": "W = 4\n"})):
        package = root / "src" / "fracvi"
        package.mkdir(parents=True)
        for name, text in files.items():
            (package / name).write_text(text, encoding="utf-8")
    assert codelines.main([str(this), "--against", str(other)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        " other   this change module",
        "     2      1     -1 a.py",
        "     1      -     -1 gone.py",
        "     -     10    +10 new.py",
        "     1      1     +0 same.py",
        "     4     12     +8 total",
    ]
