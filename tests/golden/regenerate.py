"""Pinned outputs of a fixed list of ``pira`` commands.

``COMMANDS`` runs in an empty working directory holding a copy of the
hand-made ``odd_ids`` dataset as ``odd``.  Every file the commands leave
there (except that copy), and the stdout of each command that prints
anything, as ``stdout/<name>.txt``, is an output.  ``expected/`` holds the
outputs themselves, so a failed comparison shows which lines moved.

Rewrite ``expected/`` with ``python tests/golden/regenerate.py``, only in a
change that moves an output on purpose, and name every moved file in the
change's notes.  ``tests/test_golden.py`` reruns the list and compares.
"""

from __future__ import annotations

import contextlib
import io
import os
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
EXPECTED = HERE / "expected"
ODD = "odd"  # the working directory's copy of odd_ids/

KINDS = ("paper-quality", "coauthor-count", "citing-quality", "self-citation",
         "citation-loop", "single-ref-chain")
METHODS = ("pira", "oracle", "prp", "pra", "cit", "pub", "hindex")
STEPS = ("--steps", "20000")
WEIGHTS = ("--weights", "cite=0.3,wrote=0.2,iswb=0.7,restart=0.1")


def _commands() -> list[tuple[str, list[str]]]:
    out = [(f"synth-{kind}", ["synth", kind, kind, "--padding", "5"]) for kind in KINDS]
    for ds in KINDS + (ODD,):
        out += [(f"rank-{ds}-{m}", ["rank", ds, "--method", m, *STEPS,
                                    "--out", f"{ds}.{m}.tsv"]) for m in METHODS]
    for ds in ("self-citation", ODD):
        out += [(f"rank-{ds}-{m}-papers", ["rank", ds, "--method", m, "--papers", *STEPS])
                for m in ("pira", "oracle", "prp", "cit")]
        out += [(f"rank-{ds}-{m}-all-nodes", ["rank", ds, "--method", m, "--all-nodes", *STEPS])
                for m in ("pira", "oracle", "pra")]
        out += [(f"rank-{ds}-{m}-literal", ["rank", ds, "--method", m, "--mode", "literal",
                                            "--min-cite-count", "3", *STEPS])
                for m in ("pira", "oracle")]
        out += [(f"rank-{ds}-{m}-weights", ["rank", ds, "--method", m, *WEIGHTS, *STEPS])
                for m in ("pira", "oracle")]
        out += [(f"rank-{ds}-pira-walkers-{w}", ["rank", ds, "--method", "pira", "--walkers", w,
                                                 "--seed", "5", *STEPS]) for w in ("1", "3")]
        # theta 0 drops the cite outcomes, theta 1 the isWrittenBy ones, df 0 the restarts
        for flag, value in (("--theta", "0"), ("--theta", "1"), ("--df", "0")):
            out += [(f"rank-{ds}-{m}-{flag[2:]}-{value}",
                     ["rank", ds, "--method", m, flag, value, "--all-nodes",
                      *(STEPS if m == "pira" else ())]) for m in ("pira", "oracle")]
        out.append((f"rank-{ds}-oracle-df-0-literal",
                    ["rank", ds, "--method", "oracle", "--df", "0", "--mode", "literal",
                     "--all-nodes"]))
    out += [
        ("rank-citing-quality-oracle-flags",
         ["rank", "citing-quality", "--method", "oracle", "--df", "0.3", "--theta", "0.5",
          "--restart-author-prob", "0.4", "--all-nodes"]),
        ("rank-citation-loop-literal-papers",
         ["rank", "citation-loop", "--method", "pira", "--papers", "--mode", "literal",
          "--min-cite-count", "3", *WEIGHTS, *STEPS]),
        ("compare-curve", ["compare", "self-citation.oracle.tsv", "self-citation.pira.tsv",
                           "--curve", "1,5,10,25,50,100"]),
        ("compare-scatter", ["compare", "self-citation.oracle.tsv", "self-citation.pub.tsv",
                             "--scatter", "7", "--out", "self-citation.scatter.csv"]),
        ("compare-odd-curve", ["compare", f"{ODD}.oracle.tsv", f"{ODD}.pira.tsv",
                               "--curve", "10,50,100", "--out", f"{ODD}.curve.csv"]),
        ("compare-odd-scatter", ["compare", f"{ODD}.prp.tsv", f"{ODD}.cit.tsv",
                                 "--scatter", "8"]),
        ("stats-self-citation", ["stats", "self-citation", "--out", "stats-self-citation"]),
        ("stats-odd", ["stats", ODD, "--out", f"stats-{ODD}"]),
        ("inspect-self-citation", ["inspect", "self-citation", "a:a2", "--radius", "2",
                                   "--dot", "self-citation.dot"]),
        ("inspect-odd-author", ["inspect", ODD, "a:a:colon"]),
        ("inspect-odd-paper", ["inspect", ODD, "p:論文", "--radius", "2"]),
        ("ingest-odd", ["ingest", ODD, "--export", f"{ODD}-export",
                        "--idmap", f"{ODD}.idmap.tsv"]),
        ("ingest-citation-loop", ["ingest", "citation-loop", "--export", "citation-loop-export",
                                  "--idmap", "citation-loop.idmap.tsv"]),
    ]
    return out


COMMANDS = _commands()


def run_commands(workdir: Path) -> dict[str, bytes]:
    """Run ``COMMANDS`` in the empty directory ``workdir``; return every
    output by its path relative to ``workdir``.  A command that does not
    exit 0 raises AssertionError with its stderr."""
    from pira.cli import main

    shutil.copytree(HERE / "odd_ids", workdir / ODD)
    (workdir / "stdout").mkdir()
    here = os.getcwd()
    os.chdir(workdir)
    try:
        for name, argv in COMMANDS:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
            if code != 0:
                raise AssertionError(f"pira {' '.join(argv)} exited {code}: {err.getvalue()}")
            if out.getvalue():
                Path("stdout", f"{name}.txt").write_text(out.getvalue(), encoding="utf-8")
    finally:
        os.chdir(here)
    return {p.relative_to(workdir).as_posix(): p.read_bytes()
            for p in sorted(workdir.rglob("*"))
            if p.is_file() and p.relative_to(workdir).parts[0] != ODD}


def read_expected() -> dict[str, bytes]:
    return {p.relative_to(EXPECTED).as_posix(): p.read_bytes()
            for p in sorted(EXPECTED.rglob("*")) if p.is_file()}


def main() -> None:
    sys.path.insert(0, str(HERE.parents[1] / "src"))
    with tempfile.TemporaryDirectory() as tmp:
        outputs = run_commands(Path(tmp))
    shutil.rmtree(EXPECTED, ignore_errors=True)
    for rel, data in outputs.items():
        path = EXPECTED / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(data)
    print(f"{len(outputs)} files, {sum(map(len, outputs.values()))} bytes -> {EXPECTED}")


if __name__ == "__main__":
    main()
