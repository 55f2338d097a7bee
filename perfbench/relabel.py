"""Seeded relabelings of census structures, and answers in original labels.

A census record holds the four tables of one structure as index tables
over {0, .., n-1} with bot = 0 and top = n - 1.  A `Relabeling` permutes
the middle indices at random and gives every element a fresh random
name, so each relabeled structure is new to the program's per-structure
caches while its answers are known in advance.  Answers the program
prints in relabeled names are mapped back through the inverse before
they are compared with the reference, which is stored in original
indices.
"""

from __future__ import annotations

import json
import re
import string

TABLES = ("join", "meet", "times", "residuum")
FIRST = string.ascii_lowercase
REST = string.ascii_lowercase + string.digits


# Not reslat.bitsets.bits: a traced run counts that function's calls,
# and the benchmark's own work must not add to the count.
def _bits(mask):
    i = 0
    while mask:
        if mask & 1:
            yield i
        mask >>= 1
        i += 1


class Relabeling:
    """A random permutation of the middle elements plus random names.

    `perm[i]` is the new index of original element i; `names[j]` is the
    name of new index j; `orig[name]` is the original index of a name.
    """

    def __init__(self, rec: dict, rng=None):
        n, bot, top = rec["n"], rec["bot"], rec["top"]
        self.n = n
        self.perm = list(range(n))
        if rng is None:
            self.names = list(rec["names"])
        else:
            middles = [i for i in range(n) if i not in (bot, top)]
            shuffled = middles[:]
            rng.shuffle(shuffled)
            for old, new in zip(middles, shuffled):
                self.perm[old] = new
            self.names = []
            while len(self.names) < n:
                name = rng.choice(FIRST) + "".join(rng.choices(REST, k=rng.randint(0, 5)))
                if name not in self.names:
                    self.names.append(name)
        self.orig = {self.names[self.perm[i]]: i for i in range(n)}
        self.bot = self.perm[bot]
        self.top = self.perm[top]
        self.tables = {t: self._table(rec[t]) for t in TABLES}

    def _table(self, rows):
        p = self.perm
        out = [[0] * self.n for _ in range(self.n)]
        for x, row in enumerate(rows):
            for y, v in enumerate(row):
                out[p[x]][p[y]] = p[v]
        return out

    def element_list(self, mask: int) -> str:
        """Comma separated relabeled names of an original-index mask."""
        return ",".join(self.names[self.perm[i]] for i in _bits(mask))

    def structure_file(self, name: str) -> dict:
        """The relabeled structure as a structure file with explicit tables."""
        doc = {
            "name": name,
            "elements": self.names,
            "bot": self.names[self.bot],
            "top": self.names[self.top],
        }
        for t in TABLES:
            doc[t] = [[self.names[v] for v in row] for row in self.tables[t]]
        return doc

    # -- answers, mapped back to original indices -------------------------

    def mask(self, names) -> int:
        return sum(1 << self.orig[x] for x in names)

    def masks(self, lists) -> list[int]:
        return sorted(self.mask(names) for names in lists)

    def answer(self, command: str, text: str):
        """The label-free content of one CLI answer, in original indices."""
        if command == "export-dot":
            return self._dot_answer(text)
        doc = json.loads(text)
        if doc.get("command") != command:
            raise ValueError(f"answer is for {doc.get('command')!r}, not {command!r}")
        if command == "validate":
            return {
                "valid": doc["valid"],
                "violations": sorted(
                    [v["axiom"], [self.orig[x] for x in v["witness"]]]
                    for v in doc["violations"]
                ),
            }
        if command == "filters":
            return {"filters": self.masks(doc["filters"])}
        out = {"base": self.mask(doc["base"])}
        if command == "spectrum":
            for field in ("primes", "maximals", "minimal_primes"):
                out[field] = self.masks(doc[field])
        elif command == "coann":
            table = [0] * self.n
            for name, names in doc["coannulets"].items():
                table[self.orig[name]] = self.mask(names)
            out["coannulets"] = table
            out["members"] = self.masks(doc["members"])
        elif command == "omega":
            out["members"] = sorted(
                [self.mask(g), self.mask(w)]
                for g, w in zip(doc["members"], doc["witness_ideals"], strict=True)
            )
            out["dense"] = self.mask(doc["dense"])
        elif command == "normality":
            out["index"] = doc["index"]
            out["per_prime"] = sorted(
                [self.mask(p["prime"]), p["minimal_primes"]] for p in doc["per_prime"]
            )
        else:
            raise ValueError(f"no answer mapping for {command!r}")
        return out

    _NODE = re.compile(r'\s*e(\d+) \[label="([^"]*)"\];')
    _RANK = re.compile(r"\s*\{ rank=same; (.*); \}")
    _EDGE = re.compile(r"\s*e(\d+) -- e(\d+);")

    def _dot_answer(self, text: str):
        lines = text.splitlines()
        if not lines or not lines[0].startswith("graph hasse_") or lines[-1] != "}":
            raise ValueError("not a Hasse diagram in DOT form")
        node, ranks, edges = {}, [], []
        for line in lines[1:-1]:
            if m := self._NODE.fullmatch(line):
                node[int(m[1])] = self.orig[m[2]]
            elif m := self._RANK.fullmatch(line):
                ranks.append([int(e[1:]) for e in m[1].split("; ")])
            elif m := self._EDGE.fullmatch(line):
                edges.append((int(m[1]), int(m[2])))
            else:
                raise ValueError(f"unexpected DOT line: {line!r}")
        return {
            "ranks": [sorted(node[e] for e in r) for r in ranks],
            "edges": sorted([node[a], node[b]] for a, b in edges),
        }
