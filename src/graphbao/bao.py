"""Finite boolean algebras with operators, as complex algebras of atom structures.

Elements are ints used as bitmasks over the atom index space.  Operator data
lives in a RelStructure: diagonal masks, one equivalence relation per
cylindrification (stored as class ids plus class masks), and one atom-index
table per substitution map.  The same RelStructure type describes both
graph-derived structures and ultrafilter structures recovered from an
algebra, so the round trip algebra -> ultrafilter structure -> complex
algebra can be compared exactly.

Both operators are completely additive (Jonsson-Tarski), so each is read
off its action on atoms: c_i(x) ORs the R_i-class masks that meet x, and
s_sigma gathers bits through sigma's atom table.  s_lanes is the one
substitution kernel: one gather of a lane string (bitset), which holds up
to 8 elements; s_many and s run through it.  Only the tables of
subst_generators(n) are built atom by atom (AtomStructure.subst_table),
each pattern's images read off one plan per generator (atoms.subst_plan);
every other map is composed along
table[sigma o tau][a] = table[tau][table[sigma][a]], the Scomp identity of
Henkin-Monk-Tarski, Cylindric Algebras I.  The diagonal masks are unions
of the atoms' pattern masks.

The ultrafilter structure reads the operators back through the public
kernels: each R_i through 2k + m calls of c_i, for k classes of at most m
atoms, and each substitution table through s_lanes on the lane strings of
the ceil(log2 natoms) bit-slice elements, whose answers bitset.read_map
decodes, so the canonical-extension check tests the kernels against the
stored relations.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import partial
from operator import itemgetter

from .atoms import AtomStructure, all_sigmas, compose_sigma, restrict_partition, sigma_rank
from .bitset import bit_list, gather_lanes, lanewise, mask_of, read_map
from .errors import SizeLimitError

SIGNATURES = {
    "Df": frozenset("c"),
    "CA": frozenset("cd"),
    "PA": frozenset("cs"),
    "PEA": frozenset("cds"),
}


def subst_generators(n: int) -> tuple[tuple[int, ...], ...]:
    """A transposition, the n-cycle and a replacement: they generate all n^n maps."""
    return ((1, 0) + tuple(range(2, n)), tuple(range(1, n)) + (0,),
            (1,) + tuple(range(1, n)))


@dataclass(frozen=True)
class RelStructure:
    n: int
    natoms: int
    diag_masks: tuple[tuple[int, ...], ...]       # [i][j] -> atom mask
    cyl_class_of: tuple[tuple[int, ...], ...]     # [i][atom] -> class id
    cyl_class_masks: tuple[tuple[int, ...], ...]  # [i][class id] -> atom mask
    subst_tables: tuple[tuple[int, ...], ...]     # [sigma rank][atom] -> image atom

    @classmethod
    def from_atom_structure(cls, s: AtomStructure) -> "RelStructure":
        n = s.n
        atoms = s.atoms
        patterns = s.pattern_masks.items()
        diag = tuple(tuple(sum(mask for sim, mask in patterns if sim[i] == sim[j])
                           for j in range(n))
                     for i in range(n))
        class_of, class_masks = [], []
        for i in range(n):
            ids: dict[tuple, int] = {}
            per_atom = []
            masks: list[int] = []
            for sim, run in s.pattern_atoms.items():  # the runs cover the atoms in order
                rest = restrict_partition(sim, i)
                for a in run:
                    cid = ids.setdefault((atoms[a].k[i], rest), len(ids))
                    if cid == len(masks):
                        masks.append(0)
                    masks[cid] |= 1 << a
                    per_atom.append(cid)
            class_of.append(tuple(per_atom))
            class_masks.append(tuple(masks))
        generators = {g: s.subst_table(g) for g in subst_generators(n)}
        tables = {tuple(range(n)): tuple(range(len(atoms)))}
        reached = list(tables)
        for sigma in reached:
            for g, g_table in generators.items():
                composed = compose_sigma(sigma, g)
                if composed not in tables:
                    tables[composed] = itemgetter(*tables[sigma])(g_table)
                    reached.append(composed)
        assert len(tables) == n ** n, "generators must reach every map"
        subst = tuple(tables[sigma] for sigma in all_sigmas(n))
        return cls(n, len(atoms), diag, tuple(class_of), tuple(class_masks), subst)

    def subst_for(self, sigma: tuple[int, ...]) -> tuple[int, ...]:
        return self.subst_tables[sigma_rank(self.n)[sigma]]

    def same_structure(self, other: "RelStructure") -> bool:
        """Equality of relations under the identity map on atom indices."""
        if (self.n, self.natoms, self.diag_masks, self.subst_tables) != (
                other.n, other.natoms, other.diag_masks, other.subst_tables):
            return False
        for i in range(self.n):
            mmasks, tmasks = self.cyl_class_masks[i], other.cyl_class_masks[i]
            pairs = set(zip(self.cyl_class_of[i], other.cyl_class_of[i]))  # an atom's two ids
            if any(mmasks[p] != tmasks[q] for p, q in pairs):
                return False
        return True


class FiniteBao:
    """Complex algebra over a RelStructure, restricted to one signature."""

    def __init__(self, rel: RelStructure, signature: str = "PEA",
                 atom_structure: AtomStructure | None = None):
        if signature not in SIGNATURES:
            raise ValueError(f"unknown signature {signature!r}")
        self.rel = rel
        self.signature = signature
        self.ops = SIGNATURES[signature]
        self.atom_structure = atom_structure
        self.n = rel.n
        self.natoms = rel.natoms
        self.top = (1 << rel.natoms) - 1
        self._dist: list[int] | None = None

    # boolean layer -------------------------------------------------------
    def neg(self, x: int) -> int:
        return self.top ^ x

    # operators -----------------------------------------------------------
    def c(self, i: int, x: int) -> int:
        """Cylindrification: union of the equivalence classes meeting x."""
        out = 0
        for mask in self.rel.cyl_class_masks[i]:
            if mask & x:
                out |= mask
        return out

    def d(self, i: int, j: int) -> int:
        if "d" not in self.ops:
            raise ValueError(f"diagonals not in signature {self.signature}")
        return self.rel.diag_masks[i][j]

    def s(self, sigma: tuple[int, ...], x: int) -> int:
        """Substitution: preimage of x under the atom action."""
        return self.s_many(sigma, [x])[0]

    def s_many(self, sigma: tuple[int, ...], xs: list[int]) -> list[int]:
        """The substitution of each of xs, through s_lanes 8 elements at a time."""
        return lanewise(partial(self.s_lanes, sigma), xs, self.natoms)

    def s_lanes(self, sigma: tuple[int, ...], lanes: bytes) -> bytes:
        """The substitution of the up to 8 elements of a lane string
        (bitset): one gather of its bytes through sigma's atom table."""
        if "s" not in self.ops:
            raise ValueError(f"substitutions not in signature {self.signature}")
        return gather_lanes(self.rel.subst_for(sigma), lanes)

    # derived elements ------------------------------------------------------
    def dist_element(self, i: int) -> int:
        """Element whose atoms are exactly the i-distinguishing ones."""
        if self._dist is None:
            self._dist = []
            for ii in range(self.n):
                acc = self.top
                for j in range(self.n):
                    for k in range(j + 1, self.n):
                        if ii not in (j, k):
                            acc &= self.neg(self.rel.diag_masks[j][k])
                self._dist.append(acc)
        return self._dist[i]

    def d_partition(self, sim: tuple[int, ...]) -> int:
        """Meet of d_ij over related pairs and -d_ij over unrelated ones."""
        acc = self.top
        for i in range(self.n):
            for j in range(self.n):
                dij = self.rel.diag_masks[i][j]
                acc &= dij if sim[i] == sim[j] else self.neg(dij)
        return acc

    def discriminator(self, x: int) -> int:
        """c_1 .. c_{n-1} c_{n-1} .. c_1 x."""
        order = list(range(1, self.n)) + list(range(self.n - 1, 0, -1))
        for i in reversed(order):
            x = self.c(i, x)
        return x

    # sampling --------------------------------------------------------------
    def bias_pool(self) -> list[int]:
        pool = [0, self.top]
        if "d" in self.ops:
            for i in range(self.n):
                for j in range(self.n):
                    pool.append(self.rel.diag_masks[i][j])
            for i in range(self.n):
                pool.append(self.dist_element(i))
        step = max(1, self.natoms // 7)
        for a in range(0, self.natoms, step):
            pool.append(1 << a)
            pool.append(self.top ^ (1 << a))
        return pool

    def sample_element(self, rng: random.Random, pool: list[int] | None = None) -> int:
        if pool and rng.random() < 0.125:
            return rng.choice(pool)
        return rng.getrandbits(self.natoms) if self.natoms else 0

    # structure recovery ------------------------------------------------------
    def ultrafilter_structure(self) -> RelStructure:
        """Atom structure of the principal ultrafilters.

        One ultrafilter per atom; a relation holds of a tuple of
        ultrafilters when the operator image of the generators lands inside
        the result ultrafilter.  For unary operators that reduces to reading
        the operator off singleton elements: R_i is read from c_i
        (_read_classes), and each substitution table from the public
        s_lanes on the bit-slice elements (bitset.read_map), never from the
        stored tables.  A principal ultrafilter contains d_ij iff its atom
        lies in d_ij, so the diagonal masks carry over as they are; so do
        the tables of a signature without substitutions.

        Raises RuntimeError when c_i does not induce a reflexive partition,
        or s_sigma is not the preimage operator of a map on atoms.
        """
        nat = self.natoms
        class_of, class_masks = zip(*map(self._read_classes, range(self.n)))
        if "s" in self.ops:
            subst = tuple(read_map(partial(self.s_lanes, sigma), nat, nat)
                          for sigma in all_sigmas(self.n))
        else:
            subst = self.rel.subst_tables
        return RelStructure(self.n, nat, self.rel.diag_masks, class_of, class_masks, subst)

    def _read_classes(self, i: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """R_i read off c_i in 2k + m calls, for k classes of at most m atoms:
        each atom's class id (classes numbered by lowest atom) and the masks.

        c_i is assumed completely additive (Jonsson-Tarski), as FiniteBao.c
        is by its code: c_i(x) is the union of R(a) = c_i({a}) over a in x.
        1. Discovery: R(a) for the lowest atom a not yet covered is nonzero,
           inside top, disjoint from the classes so far, and holds a.
        2. Closure: c_i(M) = M for each class M, so R(b) lies in b's class.
        3. Transversals: c_i of the t-th atoms of the classes with more than
           t atoms is the union of those disjoint classes, so R(b) is all of
           b's class for each such b; each atom is one such b.
        So the calls pass exactly when each R(a) is a's class in a partition,
        with the ids that reading each singleton in turn gives.  RuntimeError
        says "not reflexive" when a discovered class misses its lowest atom,
        and "partition" on any other failure.
        """
        nat, masks, covered = self.natoms, [], 0
        no_partition = RuntimeError("cylindrification does not induce a partition")
        while covered != self.top:
            low = ~covered & covered + 1
            mask = self.c(i, low)
            if not mask or mask & covered or mask >> nat:
                raise no_partition
            if not mask & low:
                raise RuntimeError("cylindrification is not reflexive")
            masks.append(mask)
            covered |= mask
        if any(self.c(i, m) != m for m in masks):
            raise no_partition
        members = [bit_list(m) for m in masks]
        # by size, so the classes with a t-th atom are a shrinking prefix
        live = sorted(range(len(masks)), key=lambda j: -len(members[j]))
        union = self.top
        for t in range(len(members[live[0]]) if live else 0):
            while len(members[live[-1]]) <= t:
                union ^= masks[live.pop()]
            if self.c(i, mask_of(members[j][t] for j in live)) != union:
                raise no_partition
        owner = {a: cid for cid, atoms in enumerate(members) for a in atoms}
        return tuple(owner[a] for a in range(nat)), tuple(masks)

    def canonical_extension(self) -> tuple["FiniteBao", list[int]]:
        """Complex algebra of the ultrafilter structure, plus the witness map.

        For a finite algebra the canonical embedding sends each element to
        the set of principal ultrafilters containing it, which is the
        identity on bitmasks; the witness is that identity on atom indices.
        """
        ext = FiniteBao(self.ultrafilter_structure(), self.signature)
        return ext, list(range(self.natoms))

    # subalgebras ---------------------------------------------------------
    def generated_subalgebra(self, gens, bound: int = 4096) -> list[int]:
        """Least subuniverse containing gens, closed under the signature.

        c_i and s_sigma are completely additive, so the subuniverse is the
        set of unions of the blocks of one partition of the atoms: the
        coarsest that splits along every generator, every diagonal and the
        operator image of each of its own blocks (Henkin-Monk-Tarski,
        Cylindric Algebras I).  The blocks start as {top} and only split, so
        SizeLimitError is raised as soon as 2**blocks exceeds bound.
        """
        sigmas = all_sigmas(self.n) if "s" in self.ops else ()
        blocks = {self.top} - {0}
        todo = list(blocks)

        def refine(masks) -> None:
            for m in masks:
                for b in [b for b in blocks if b & m and b & ~m]:
                    pieces = (b & m, b & ~m)
                    blocks.remove(b)
                    blocks.update(pieces)
                    todo.extend(pieces)
                if 2 ** len(blocks) > bound:
                    raise SizeLimitError(f"subalgebra exceeds bound {bound}")

        splitters = list(gens)
        if "d" in self.ops:
            splitters += [m for row in self.rel.diag_masks for m in row]
        refine(splitters)
        while todo:
            b = todo.pop()
            if b in blocks:
                refine([self.c(i, b) for i in range(self.n)]
                       + [self.s(sigma, b) for sigma in sigmas])
        elems = [0]
        for b in blocks:
            elems += [e | b for e in elems]
        return sorted(elems)


def complex_algebra(s: AtomStructure, signature: str = "PEA") -> FiniteBao:
    return FiniteBao(s.tables(), signature, atom_structure=s)

