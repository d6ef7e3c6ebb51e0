"""Output checks.  Each returns an error message, or None when the output is
right; a failed check counts as a failed operation and never aborts a run."""

from __future__ import annotations

import math
from pathlib import Path
from typing import Iterable, Optional

import numpy as np

DATASET_FILES = ("authors.tsv", "papers.tsv", "wrote.tsv", "cites.tsv")


class Checker:
    """Counts attempted and failed operations; keeps the first messages."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def record(self, name: str, error: Optional[str]) -> None:
        self.attempted += 1
        if error is not None:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(f"{name}: {error}")


def same_bytes(expected: bytes, actual: bytes) -> Optional[str]:
    if expected == actual:
        return None
    at = next((i for i, (a, b) in enumerate(zip(expected, actual)) if a != b),
              min(len(expected), len(actual)))
    return f"bytes differ at offset {at} ({len(expected)} vs {len(actual)} bytes)"


def dataset_bytes(directory: Path) -> bytes:
    return b"".join((directory / name).read_bytes() for name in DATASET_FILES)


def ranking_tsv(text: str, expected_nodes: Iterable[str]) -> Optional[str]:
    """A `rank<TAB>node<TAB>score` ranking: ranks 1..N in order, printed
    scores non-increasing, each expected node id exactly once."""
    expected = set(expected_nodes)
    seen = set()
    prev = math.inf
    for i, line in enumerate(text.splitlines(), start=1):
        try:
            rank, node, score = line.split("\t")
            rank_i, score_f = int(rank), float(score)
        except ValueError:
            return f"line {i}: malformed {line!r}"
        if rank_i != i:
            return f"line {i}: rank {rank_i}"
        if not math.isfinite(score_f) or score_f < 0:
            return f"line {i}: bad score {score!r}"
        if score_f > prev:
            return f"line {i}: score {score} above the line before"
        if node in seen:
            return f"line {i}: {node!r} ranked twice"
        prev = score_f
        seen.add(node)
    if seen != expected:
        return f"covers {len(seen)} nodes, expected {len(expected)} ({len(seen ^ expected)} differ)"
    return None


def mean_one(normalized: np.ndarray, tol: float = 1e-9) -> Optional[str]:
    mean = float(np.mean(normalized))
    if abs(mean - 1.0) <= tol:
        return None
    return f"mean normalized score {mean!r}, expected 1.0"


def probability_vector(values: np.ndarray, expected_sum: float, tol: float = 1e-9) -> Optional[str]:
    values = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(values)):
        return "non-finite entries"
    if np.any(values < 0):
        return "negative entries"
    total = float(values.sum())
    if abs(total - expected_sum) > tol:
        return f"sums to {total!r}, expected {expected_sum!r}"
    return None


def mae_within(walk: np.ndarray, exact: np.ndarray, tolerance: float) -> tuple[float, Optional[str]]:
    """Mean absolute difference of two normalized score vectors."""
    mae = float(np.mean(np.abs(np.asarray(walk) - np.asarray(exact))))
    if math.isfinite(mae) and mae <= tolerance:
        return mae, None
    return mae, f"walk_mae {mae:.6f} above tolerance {tolerance}"


def assertions_pass(results) -> Optional[str]:
    failed = [str(r.assertion) for r in results if not r.passed]
    if not results:
        return "no assertions evaluated"
    if failed:
        return f"{len(failed)} of {len(results)} failed, first: {failed[0]!r}"
    return None


def equal(name: str, expected, actual) -> Optional[str]:
    if expected == actual:
        return None
    return f"{name} is {repr(actual)[:200]}, expected {repr(expected)[:200]}"
