"""Seeded synthetic author-paper citation datasets in pira's TSV format.

The shape is the same at every size:

* papers = 2 x authors, indexed oldest first;
* co-authors per paper are geometric with mean ~2.2, capped at 12, drawn
  uniformly from all authors;
* references per paper are Poisson with mean ~9.5, only to older papers,
  attached preferentially: with probability ``UNIFORM_REF_SHARE`` a
  uniformly random older paper, otherwise the target of a uniformly random
  earlier citation (a copy model), so cited-by counts are heavy-tailed;
* about 1 % of papers repeat one reference line, so the loader's
  duplicate-drop path runs;
* about 70 % of authors and papers carry the DBLP flag;
* names come from a small first/last-name pool, written either in full or
  with an initial ("J. Smith"), so merge suggestions fire.

Author ids ``a<n>`` and paper ids ``p<n>`` never collide across kinds, and
no id, name or title contains a tab or newline.  The same (seed, n_authors)
always gives byte-identical files.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

COAUTHOR_MEAN = 2.2
COAUTHOR_CAP = 12
REFS_MEAN = 9.5
UNIFORM_REF_SHARE = 0.3
DBLP_SHARE = 0.7
DUPLICATE_REF_SHARE = 0.01
INITIAL_SHARE = 0.3

FIRST_NAMES = (
    "Ada", "Alan", "Alice", "Amir", "Anna", "Bao", "Ben", "Carla", "Chen",
    "Dana", "David", "Elena", "Emil", "Fatima", "Felix", "Grace", "Hana",
    "Ivan", "Jana", "John", "Julia", "Karl", "Kenji", "Lara", "Leo", "Maria",
    "Mark", "Nadia", "Omar", "Paula", "Priya", "Raj", "Rosa", "Sara", "Tom",
    "Uma", "Victor", "Wei", "Yusuf", "Zoe",
)
LAST_PREFIXES = (
    "Ander", "Bau", "Car", "Dos", "Eck", "Fer", "Gar", "Hol", "Iver", "Jan",
    "Kow", "Lind", "Mor", "Nak", "Ols", "Pet", "Quin", "Ros", "Schm", "Tan",
)
LAST_SUFFIXES = ("son", "er", "ez", "ski", "berg", "mann", "ova", "ini", "ado", "ura")
TITLE_WORDS = (
    "adaptive", "bipartite", "citation", "distributed", "efficient", "graph",
    "learning", "markov", "network", "online", "probabilistic", "query",
    "random", "ranking", "scalable", "sparse", "stochastic", "walk",
)


@dataclass(frozen=True)
class Dataset:
    """Rows of one generated dataset, in file order."""

    authors: list[tuple[str, str, bool]]
    papers: list[tuple[str, str, bool]]
    wrote: list[tuple[str, str]]
    cites: list[tuple[str, str]]
    duplicate_cites: int

    def counts(self) -> dict[str, int]:
        return {
            "authors": len(self.authors),
            "papers": len(self.papers),
            "wrote_lines": len(self.wrote),
            "cites_lines": len(self.cites),
            "duplicate_cites": self.duplicate_cites,
        }


def generate(seed: int, n_authors: int) -> Dataset:
    """Build the dataset for (seed, n_authors); see the module docstring."""
    if n_authors < 2:
        raise ValueError("n_authors must be at least 2")
    rng = np.random.default_rng(seed)
    n_papers = 2 * n_authors

    last_names = [p + s for p in LAST_PREFIXES for s in LAST_SUFFIXES]
    first_idx = rng.integers(len(FIRST_NAMES), size=n_authors)
    last_idx = rng.integers(len(last_names), size=n_authors)
    initial = rng.random(n_authors) < INITIAL_SHARE
    author_flags = rng.random(n_authors) < DBLP_SHARE
    authors = []
    for i in range(n_authors):
        first = FIRST_NAMES[first_idx[i]]
        if initial[i]:
            first = first[0] + "."
        authors.append((f"a{i}", f"{first} {last_names[last_idx[i]]}", bool(author_flags[i])))

    title_idx = rng.integers(len(TITLE_WORDS), size=(n_papers, 2))
    paper_flags = rng.random(n_papers) < DBLP_SHARE
    papers = [
        (
            f"p{i}",
            f"{TITLE_WORDS[title_idx[i, 0]].capitalize()} {TITLE_WORDS[title_idx[i, 1]]} {i}",
            bool(paper_flags[i]),
        )
        for i in range(n_papers)
    ]

    n_coauthors = np.minimum(rng.geometric(1.0 / COAUTHOR_MEAN, size=n_papers), COAUTHOR_CAP)
    wrote = []
    for p in range(n_papers):
        chosen = rng.choice(n_authors, size=int(n_coauthors[p]), replace=False)
        wrote.extend((f"a{a}", f"p{p}") for a in sorted(chosen.tolist()))

    n_refs = rng.poisson(REFS_MEAN, size=n_papers)
    duplicate = rng.random(n_papers) < DUPLICATE_REF_SHARE
    uniform_draws = rng.random(int(n_refs.sum()) * 3 + 16).tolist()
    pick_draws = rng.random(len(uniform_draws)).tolist()
    draw = 0
    targets: list[int] = []  # every cited paper, once per citation received
    cites = []
    n_duplicates = 0
    for p in range(1, n_papers):
        want = min(int(n_refs[p]), p)
        refs: list[int] = []
        seen: set[int] = set()
        while len(refs) < want and draw < len(uniform_draws):
            if not targets or uniform_draws[draw] < UNIFORM_REF_SHARE:
                r = int(pick_draws[draw] * p)
            else:
                r = targets[int(pick_draws[draw] * len(targets))]
            draw += 1
            if r not in seen:
                seen.add(r)
                refs.append(r)
        targets.extend(refs)
        cites.extend((f"p{p}", f"p{r}") for r in refs)
        if duplicate[p] and refs:
            cites.append((f"p{p}", f"p{refs[0]}"))
            n_duplicates += 1
    return Dataset(authors, papers, wrote, cites, n_duplicates)


def write(dataset: Dataset, directory: Path) -> int:
    """Write the four TSV files; returns the number of bytes written."""
    directory.mkdir(parents=True, exist_ok=True)
    files = {
        "authors.tsv": "".join(f"{e}\t{n}\t{int(f)}\n" for e, n, f in dataset.authors),
        "papers.tsv": "".join(f"{e}\t{t}\t{int(f)}\n" for e, t, f in dataset.papers),
        "wrote.tsv": "".join(f"{a}\t{p}\n" for a, p in dataset.wrote),
        "cites.tsv": "".join(f"{s}\t{d}\n" for s, d in dataset.cites),
    }
    total = 0
    for name, text in files.items():
        data = text.encode("utf-8")
        (directory / name).write_bytes(data)
        total += len(data)
    return total
