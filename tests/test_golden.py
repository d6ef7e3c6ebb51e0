"""Seeded outputs of a fixed command list match the files in tests/golden."""

import difflib

from golden.regenerate import read_expected, run_commands


def test_command_outputs_match_the_pinned_files(tmp_path):
    expected, actual = read_expected(), run_commands(tmp_path)
    moved = []
    for rel in sorted(expected.keys() | actual.keys()):
        if rel not in actual:
            moved.append(f"missing output {rel}")
        elif rel not in expected:
            moved.append(f"unexpected output {rel}")
        elif actual[rel] != expected[rel]:
            old = expected[rel].decode("utf-8").splitlines(keepends=True)
            new = actual[rel].decode("utf-8").splitlines(keepends=True)
            moved.append("".join(difflib.unified_diff(old, new, f"expected/{rel}", rel)))
    assert not moved, "outputs moved (rerun tests/golden/regenerate.py only on purpose):\n" \
        + "\n".join(moved)
