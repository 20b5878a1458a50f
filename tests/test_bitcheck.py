"""Smoke test of ``tests/bitcheck.py``, the bit-comparison tool, on its
smallest size: every group runs and prints its count and hash."""

import bitcheck


def test_bitcheck_runs_on_its_smallest_size(capsys):
    assert bitcheck.main(["4"]) == 0
    lines = [line.split() for line in capsys.readouterr().out.splitlines()]
    counts = {group: sum(case[5] <= 4 for case in cases) for group, cases in bitcheck.GROUPS.items()}
    assert [line[:4] for line in lines] == [
        [group, str(count), "cases", "sha256"] for group, count in counts.items()
    ]
    assert counts["classical"] == 96 and counts["operators"] == 16
    assert counts["bvp-failures"] == 448
    assert counts["march"] == counts["march-kinds"] == 0
    assert all(len(line) == 5 and len(bytes.fromhex(line[4])) == 32 for line in lines)
