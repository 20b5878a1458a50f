"""Smoke test of ``tests/bitcheck.py``, the bit-comparison tool, on its
smallest size: every group runs and prints its count and hash; and its
comparison with another checkout, here the tree itself."""

import hashlib
from pathlib import Path

import bitcheck


def test_bitcheck_runs_on_its_smallest_size(capsys):
    assert bitcheck.main(["4"]) == 0
    lines = [line.split() for line in capsys.readouterr().out.splitlines()]
    counts = {group: sum(case[5] <= 4 for case in cases) for group, cases in bitcheck.GROUPS.items()}
    assert [line[:4] for line in lines] == [
        [group, str(count), "cases", "sha256"] for group, count in counts.items()
    ]
    assert counts["classical"] == 96 and counts["operators"] == 20
    assert counts["bvp-failures"] == 448
    assert counts["march"] == counts["march-kinds"] == 0
    assert all(len(line) == 5 and len(bytes.fromhex(line[4])) == 32 for line in lines)


ROOT = Path(__file__).resolve().parents[1]


def test_bitcheck_against_its_own_tree_agrees(capsys):
    # the other tree's run is this same script in a subprocess
    assert bitcheck.main(["4", "--against", str(ROOT)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[-1] == f"{len(bitcheck.GROUPS)} of {len(bitcheck.GROUPS)} groups agree with {ROOT}"
    assert not any(line.startswith("differs") for line in out)


def test_bitcheck_against_names_each_differing_group(capsys, monkeypatch):
    # n <= 2 selects no case: both runs hash nothing, and one group's hash
    # is then changed on this side only
    digests = bitcheck.digests

    def changed(max_n):
        out = digests(max_n)
        out["march"] = (0, "0" * 64)
        return out

    monkeypatch.setattr(bitcheck, "digests", changed)
    assert bitcheck.main(["2", "--against", str(ROOT)]) == 1
    out = capsys.readouterr().out.splitlines()
    empty = hashlib.sha256().hexdigest()
    assert out[-2:] == [
        f"differs from {ROOT}: march 0 cases sha256 {empty}",
        f"{len(bitcheck.GROUPS) - 1} of {len(bitcheck.GROUPS)} groups agree with {ROOT}",
    ]
