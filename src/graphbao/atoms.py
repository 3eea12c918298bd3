"""Atom structures over inflated graphs.

An atom is a pair (k, sim): a partial map from the n coordinates to vertices
of the inflated graph, plus a partition of the coordinate set.  Partitions
are canonical block-index tuples (block numbers appear in order of first
occurrence, so (0, 1, 0) identifies coordinates 0 and 2).  The three validity
clauses are:

  * one block per coordinate: k total and its image contains an edge;
  * exactly one two-element block {i, j}: k defined exactly on i, j with
    k[i] == k[j];
  * fewer blocks than that: k nowhere defined.

Coordinate i carries a defined k[i] exactly when the partition keeps all
other coordinates pairwise separate ("i-distinguishing").
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass
from functools import cached_property, lru_cache
from operator import attrgetter, itemgetter

from .errors import SizeLimitError
from .graph import Graph, inflate

DEFAULT_ATOM_BOUND = 5000
MIN_DIMENSION = 3
MAX_DIMENSION = 5


def canonical_partition(labels) -> tuple[int, ...]:
    """Relabel a block vector so block indices appear in first-occurrence order."""
    remap: dict[int, int] = {}
    out = []
    for lbl in labels:
        if lbl not in remap:
            remap[lbl] = len(remap)
        out.append(remap[lbl])
    return tuple(out)


@lru_cache(maxsize=None)
def all_partitions(n: int) -> tuple[tuple[int, ...], ...]:
    """All canonical partitions of {0..n-1}, in lexicographic order."""
    out = [()]
    for _ in range(n):
        nxt = []
        for prefix in out:
            top = max(prefix, default=-1)
            for b in range(top + 2):
                nxt.append(prefix + (b,))
        out = nxt
    return tuple(sorted(out))


def num_blocks(sim: tuple[int, ...]) -> int:
    return max(sim) + 1 if sim else 0


@lru_cache(maxsize=None)
def restrict_partition(sim: tuple[int, ...], i: int) -> tuple[int, ...]:
    """Canonical restriction to the coordinates other than i, in index order."""
    return canonical_partition(sim[j] for j in range(len(sim)) if j != i)


def is_i_distinguishing(sim: tuple[int, ...], i: int) -> bool:
    """No two distinct coordinates outside i share a block."""
    seen = set()
    for j, b in enumerate(sim):
        if j == i:
            continue
        if b in seen:
            return False
        seen.add(b)
    return True


def partition_pair_block(sim: tuple[int, ...]) -> tuple[int, int]:
    """The unique two-element block, when the partition has n-1 blocks."""
    by_block: dict[int, list[int]] = {}
    for j, b in enumerate(sim):
        by_block.setdefault(b, []).append(j)
    pairs = [v for v in by_block.values() if len(v) == 2]
    if len(pairs) != 1 or num_blocks(sim) != len(sim) - 1:
        raise RuntimeError("partition does not have a unique pair block")
    return pairs[0][0], pairs[0][1]


def subst_partition(sim: tuple[int, ...], sigma: tuple[int, ...]) -> tuple[int, ...]:
    """i and j related in the result iff sigma(i) and sigma(j) are related."""
    return canonical_partition(sim[sigma[i]] for i in range(len(sim)))


@lru_cache(maxsize=None)
def all_sigmas(n: int) -> tuple[tuple[int, ...], ...]:
    return tuple(itertools.product(range(n), repeat=n))


@lru_cache(maxsize=None)
def sigma_rank(n: int) -> dict[tuple[int, ...], int]:
    return {s: r for r, s in enumerate(all_sigmas(n))}


@lru_cache(maxsize=None)
def missed_coordinate(sigma: tuple[int, ...], i: int) -> int | None:
    """The one coordinate outside sigma's image off i, when sigma is
    injective off i; None otherwise."""
    hit = {sigma[j] for j in range(len(sigma)) if j != i}
    missed = [j for j in range(len(sigma)) if j not in hit]
    return missed[0] if len(missed) == 1 else None


def compose_sigma(sigma, tau) -> tuple[int, ...]:
    """(sigma after tau)(i) = sigma(tau(i))."""
    return tuple(sigma[tau[i]] for i in range(len(sigma)))


@dataclass(frozen=True)
class Atom:
    k: tuple[int | None, ...]
    sim: tuple[int, ...]

    def sort_key(self):
        return (self.sim, tuple(-1 if v is None else v for v in self.k))


@lru_cache(maxsize=None)
def subst_plan(sim: tuple[int, ...], sigma: tuple[int, ...]) -> tuple[tuple, tuple]:
    """What sigma does to every atom with partition sim: the new partition,
    and per new coordinate the old coordinate whose value it takes (None
    where the new value is undefined).

    The new value at i exists iff the new partition is i-distinguishing, and
    is then the old value at the coordinate missed by sigma off i (sigma is
    injective off i whenever the new partition is i-distinguishing).
    """
    new_sim = subst_partition(sim, sigma)
    return new_sim, tuple(missed_coordinate(sigma, i) if is_i_distinguishing(new_sim, i)
                          else None for i in range(len(sim)))


class AtomStructure:
    """Indexed list of all valid atoms over an inflated graph.

    The atom order is fixed (lexicographic on (partition, value vector with
    undefined as -1)) so downstream bit-vector algebra elements are portable
    across runs.
    """

    def __init__(self, base_graph: Graph, n: int, atoms: list[Atom]):
        self.base_graph = base_graph
        self.n = n
        self.inflated = inflate(base_graph, n)
        self.atoms: tuple[Atom, ...] = tuple(sorted(atoms, key=Atom.sort_key))
        self.index = {(a.k, a.sim): i for i, a in enumerate(self.atoms)}  # (k, sim) -> atom index
        self._tables = None

    def __len__(self):
        return len(self.atoms)

    def index_of(self, atom: Atom) -> int:
        return self.index[atom.k, atom.sim]

    def lookup(self, k: tuple, sim: tuple[int, ...]) -> int | None:
        """The index of the atom (k, sim), or None when it is not valid."""
        return self.index.get((k, sim))

    @cached_property
    def pattern_atoms(self) -> dict[tuple[int, ...], range]:
        """The atom indices of each diagonal pattern (partition), in atom
        order: atoms sort by pattern first, so each pattern is one run."""
        runs: dict[tuple[int, ...], range] = {}
        start = 0
        for sim, group in itertools.groupby(self.atoms, key=attrgetter("sim")):
            stop = start + sum(1 for _ in group)
            runs[sim] = range(start, stop)
            start = stop
        return runs

    @cached_property
    def pattern_masks(self) -> dict[tuple[int, ...], int]:
        """Atom mask of each diagonal pattern (partition)."""
        return {sim: (1 << len(run)) - 1 << run.start for sim, run in self.pattern_atoms.items()}

    def subst_table(self, sigma: tuple[int, ...]) -> tuple[int, ...]:
        """The index of each atom's image under sigma, from one subst_plan
        per pattern: its coordinates, n for an undefined value, pick the new
        k out of k + (None,) (n >= 3 indices make itemgetter give a tuple)."""
        atoms, index = self.atoms, self.index
        table: list[int] = []
        for sim, run in self.pattern_atoms.items():  # the runs cover the atoms in order
            new_sim, coords = subst_plan(sim, sigma)
            pick = itemgetter(*[self.n if c is None else c for c in coords])
            table += [index[pick(atoms[a].k + (None,)), new_sim] for a in run]
        return tuple(table)

    def golden_hash(self) -> str:
        payload = [[list(a.sim), [-1 if v is None else v for v in a.k]] for a in self.atoms]
        blob = json.dumps(payload, separators=(",", ":")).encode()
        return hashlib.sha256(blob).hexdigest()

    def atom_to_json(self, atom: Atom) -> dict:
        return {"sim": list(atom.sim), "K": [None if v is None else v for v in atom.k]}

    def tables(self):
        from .bao import RelStructure  # local import to avoid a cycle

        if self._tables is None:
            self._tables = RelStructure.from_atom_structure(self)
        return self._tables


def enumerate_atoms(g: Graph, n: int, max_atoms: int = DEFAULT_ATOM_BOUND) -> AtomStructure:
    """All valid atoms over g inflated n ways, in the fixed order."""
    if not MIN_DIMENSION <= n <= MAX_DIMENSION:
        raise ValueError(f"dimension must be in {MIN_DIMENSION}..{MAX_DIMENSION}")
    if g.vertex_count < 1:
        raise ValueError("base graph needs at least one vertex")
    infl = inflate(g, n)
    nv = infl.vertex_count
    atoms: list[Atom] = []

    def push(atom):
        atoms.append(atom)
        if len(atoms) > max_atoms:
            raise SizeLimitError(
                f"atom count exceeds bound {max_atoms} for this graph at n={n}")

    for sim in all_partitions(n):
        blocks = num_blocks(sim)
        if blocks < n - 1:
            push(Atom((None,) * n, sim))
        elif blocks == n - 1:
            i, j = partition_pair_block(sim)
            for v in range(nv):
                k: list[int | None] = [None] * n
                k[i] = k[j] = v
                push(Atom(tuple(k), sim))
        else:
            for values in itertools.product(range(nv), repeat=n):
                image = set(values)
                if any(infl.has_edge(u, v) for u in image for v in image if u < v):
                    push(Atom(values, sim))
    return AtomStructure(g, n, atoms)
