"""Three-sorted algebra-graph systems over a finite base graph.

A model couples the complex algebra over the atom structure with the
inflated graph and its full power set.  The two connecting maps send an
algebra element to the set of values its distinguishing atoms take at a
coordinate (the projection), and a vertex set to the distinguishing atoms
whose value lies inside it (the lift).  The copy-block relation partitions
the inflated graph into the n copies; vertices in different blocks are
always adjacent.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from functools import cached_property

from .atoms import (AtomStructure, all_partitions, all_sigmas, compose_sigma, enumerate_atoms,
                    is_i_distinguishing, missed_coordinate, subst_partition, DEFAULT_ATOM_BOUND)
from .bao import FiniteBao, complex_algebra
from .bitset import iter_bits
from .graph import Graph, chromatic_number
from .report import Report


@dataclass
class AgsModel:
    algebra: FiniteBao
    structure: AtomStructure
    base_graph: Graph
    n: int

    def __post_init__(self):
        self.graph = self.structure.inflated
        self.vertex_count = self.graph.vertex_count
        self.vtop = (1 << self.vertex_count) - 1
        base = self.base_graph.vertex_count
        self.h_masks = tuple(((1 << base) - 1) << (i * base) for i in range(self.n))
        lift = []
        for points in self.proj_points:
            per_vertex = [0] * self.vertex_count
            for a, point in enumerate(points):
                if point is not None:
                    per_vertex[point] |= 1 << a
            lift.append(tuple(per_vertex))
        self._lift_masks = tuple(lift)

    @cached_property
    def chi_inflated(self) -> int:
        return chromatic_number(self.graph)[0]

    @cached_property
    def completions(self) -> dict[tuple[int, ...], int]:
        """(n-1)-tuple of vertices -> mask of the vertices that complete it
        to an injective atom's values, read off those atoms (closed under
        permuting coordinates, so the missing value may sit anywhere)."""
        n, atoms = self.n, self.structure.atoms
        table = dict.fromkeys(itertools.product(range(self.vertex_count), repeat=n - 1), 0)
        for a in self.structure.pattern_atoms[tuple(range(n))]:
            table[atoms[a].k[:-1]] |= 1 << atoms[a].k[-1]
        return table

    @cached_property
    def proj_points(self) -> tuple[tuple[int | None, ...], ...]:
        """[i][atom] -> proj_point(atom, i): the atom's value at i when it is
        i-distinguishing, else None."""
        atoms = self.structure.atoms
        return tuple(tuple(atom.k[i] if dist >> a & 1 else None for a, atom in enumerate(atoms))
                     for i, dist in enumerate(map(self.algebra.dist_element, range(self.n))))

    def proj_point(self, atom: int, i: int) -> int | None:
        """Vertex generating the i-projection of the principal ultrafilter
        at the atom, or None for the improper filter."""
        return self.proj_points[i][atom]

    def proj(self, i: int, a: int) -> int:
        """Vertex set of the values taken at coordinate i by the
        i-distinguishing atoms under a: v is in it iff a meets the lift of v."""
        return sum(1 << v for v, mask in enumerate(self._lift_masks[i]) if a & mask)

    def lift(self, i: int, vertex_set: int) -> int:
        """Atoms that are i-distinguishing with value inside the vertex set."""
        out = 0
        masks = self._lift_masks[i]
        for v in iter_bits(vertex_set):
            out |= masks[v]
        return out

    def same_block(self, x: int, y: int) -> bool:
        return any(m >> x & 1 and m >> y & 1 for m in self.h_masks)

    def sample_vertex_set(self, rng: random.Random) -> int:
        return rng.getrandbits(self.vertex_count) if self.vertex_count else 0


def build_model(g: Graph, n: int, atom_bound: int = DEFAULT_ATOM_BOUND) -> AgsModel:
    structure = enumerate_atoms(g, n, max_atoms=atom_bound)
    algebra = complex_algebra(structure)
    return AgsModel(algebra, structure, g, n)


def theta(m: AgsModel, k: int) -> bool:
    """True iff the inflated graph cannot be covered by k independent sets.

    With the set sort equal to the full power set this is exactly
    chi(inflated) > k, read off the exact coloring solver.  The cover
    search and the literal quantifier reading are test oracles.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    return m.chi_inflated > k


# property suites -------------------------------------------------------------

def check_block_structure(m: AgsModel) -> Report:
    """Copy blocks partition the vertices; distinct-block vertices are adjacent."""
    report = Report("block-structure")
    union = 0
    disjoint = True
    for mask in m.h_masks:
        if union & mask:
            disjoint = False
        union |= mask
    report.add("blocks partition the vertex set", disjoint and union == m.vtop)
    cross_ok = True
    for x in range(m.vertex_count):
        for y in range(m.vertex_count):
            if x != y and not m.same_block(x, y) and not m.graph.has_edge(x, y):
                cross_ok = False
    report.add("vertices in distinct blocks are adjacent", cross_ok)
    return report


def check_rs_properties(m: AgsModel, seed: int = 1, samples: int = 300) -> Report:
    """Projection/lift interplay; concrete items exhaustive, quantified sampled."""
    rng = random.Random(seed)
    A = m.algebra
    report = Report("proj-lift", {"seed": seed, "samples": samples})
    pool = A.bias_pool()

    ok, ce = True, None
    for _ in range(samples):
        b = A.sample_element(rng, pool)
        a = b & A.sample_element(rng, pool)
        for i in range(m.n):
            if m.proj(i, a) & ~m.proj(i, b):
                ok, ce = False, {"a": hex(a), "b": hex(b), "i": i}
    report.add("monotone projection", ok, ce)

    ok, ce = True, None
    for _ in range(samples):
        x = A.sample_element(rng, pool)
        for i in range(m.n):
            for j in range(m.n):
                if i == j:
                    continue
                b = x & A.d(i, j)
                if m.proj(i, b) != m.proj(j, b):
                    ok, ce = False, {"b": hex(b), "i": i, "j": j}
    report.add("projections agree under the diagonal", ok, ce)

    ok, ce = True, None
    for _ in range(samples):
        for i in range(m.n):
            a = A.sample_element(rng, pool) & A.dist_element(i)
            if a & ~m.lift(i, m.proj(i, a)):
                ok, ce = False, {"a": hex(a), "i": i}
    report.add("lift of projection covers", ok, ce)

    ok, ce = True, None
    for _ in range(samples):
        x = A.sample_element(rng, pool)
        y = A.sample_element(rng, pool)
        for i in range(m.n):
            for j in range(m.n):
                if i == j:
                    continue
                dij = A.d(i, j)
                f = lambda e: m.proj(i, e & dij)
                if f(x | y) != (f(x) | f(y)) or f(A.neg(x)) != (m.vtop ^ f(x)):
                    ok, ce = False, {"x": hex(x), "y": hex(y), "i": i, "j": j}
    report.add("masked projection is a boolean homomorphism", ok, ce)
    concrete = all(m.proj(i, A.dist_element(i) & A.d(i, j)) == m.vtop
                   for i in range(m.n) for j in range(m.n) if i != j)
    report.add("masked projection sends its unit to the full set", concrete)

    exhaustive = m.vertex_count <= 8
    sets = (range(1 << m.vertex_count) if exhaustive
            else (m.sample_vertex_set(rng) for _ in range(samples)))
    ok, ce, okc, cec = True, None, True, None
    for B in sets:
        for i in range(m.n):
            lifted = m.lift(i, B)
            if m.proj(i, lifted) != B:
                ok, ce = False, {"B": hex(B), "i": i}
            if A.c(i, lifted) != lifted:
                okc, cec = False, {"B": hex(B), "i": i}
    mode = {"mode": "exhaustive" if exhaustive else "sampled"}
    # one loop serves both items; its time goes to the first
    report.add("projection undoes lift", ok, ce or mode)
    report.add("lifts are cylindrified fixpoints", okc, cec or mode)
    return report


def check_projection_properties(m: AgsModel) -> Report:
    """Exhaustive atom-level facts about ultrafilter projections.

    Principal ultrafilters are identified with their generating atoms, and
    projections with the generating vertex (or the improper marker when the
    atom is not distinguishing at that coordinate).

    Cylindric relatedness is checked as an equality of partitions: R_i holds
    between two atoms iff they agree on every diagonal d_jk with j, k != i
    and have the same i-projection.  Each atom gets that agreement data as a
    key, read off the algebra's diagonal elements, and the partition into
    cyl_class_of[i] classes must equal the partition by key.  Two partitions
    of one set are equal iff pairing the labels creates no new blocks, so
    the check is linear in the number of atoms.
    """
    A = m.algebra
    report = Report("projections")
    n = m.n

    points = m.proj_points

    samples = _vertex_set_samples(m)
    lifts = [[m.lift(i, B) for B in samples] for i in range(n)]
    ok = True
    for sim, run in m.structure.pattern_atoms.items():
        for i in range(n):
            if is_i_distinguishing(sim, i):
                # proper case: the projection is the atom's value at i
                ok &= all(m.proj(i, 1 << a) == 1 << m.structure.atoms[a].k[i] for a in run)
            else:
                # improper case: every vertex set is some projection above a
                ok &= all(m.proj(i, 1 << a) == 0 and all(
                    m.proj(i, (1 << a) | lifted) == B for B, lifted in zip(samples, lifts[i]))
                    for a in run)
    report.add("projection of a principal ultrafilter", ok)

    ok = all(points[i][a] == points[j][a]
             for a in range(A.natoms) for i in range(n) for j in range(n)
             if A.d(i, j) >> a & 1)
    report.add("diagonal membership merges projections", ok)

    ok = True
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            fd = A.dist_element(i) & A.d(i, j)
            for p in range(m.vertex_count):
                matches = [a for a in iter_bits(fd) if points[i][a] == p]
                if len(matches) != 1:
                    ok = False
    report.add("unique distinguishing-diagonal atom per vertex", ok)

    ok = True
    for i in range(n):
        foreign = [A.d(j, k) for j in range(n) for k in range(n) if i not in (j, k)]
        keys = [(tuple(d >> a & 1 for d in foreign), point)
                for a, point in enumerate(points[i])]
        class_of = A.rel.cyl_class_of[i]
        if not len(set(zip(class_of, keys))) == len(set(class_of)) == len(set(keys)):
            ok = False
    report.add("cylindric relatedness is diagonal agreement plus equal projection", ok)

    ok = True
    for sigma in all_sigmas(n):
        table = A.rel.subst_for(sigma)
        for i in range(n):
            j = missed_coordinate(sigma, i)
            # ultrafilter substitution takes the generator along the table
            if j is not None and tuple(map(points[i].__getitem__, table)) != points[j]:
                ok = False
    report.add("substitution permutes projections", ok)
    return report


def _vertex_set_samples(m: AgsModel):
    if m.vertex_count <= 6:
        return range(1 << m.vertex_count)
    rng = random.Random(0)
    return [m.sample_vertex_set(rng) for _ in range(32)]


def check_substitution_properties(m: AgsModel, seed: int = 1, samples: int = 200) -> Report:
    """Substitution identities; concrete items exhaustive over all maps.

    Every item makes one s_many call per map over all the elements that map
    is applied to.  Random elements are drawn before the calls that use
    them, in the order of the per-element loops that
    tests/oracles.substitution_properties_per_element keeps as the
    reference, so both read the same elements.
    """
    rng = random.Random(seed)
    A = m.algebra
    n = m.n
    report = Report("substitutions", {"seed": seed, "samples": samples})
    pool = A.bias_pool()
    sigmas = all_sigmas(n)

    def draw(count: int) -> list[int]:
        return [A.sample_element(rng, pool) for _ in range(count)]

    pairs = [draw(2) for _ in range(samples)]
    xs = [x for x, _ in pairs]
    ys = [y for _, y in pairs]
    ok = True
    for sigma in sigmas:
        images = A.s_many(sigma, xs + ys + [A.neg(x) for x in xs] + [x | y for x, y in pairs])
        sx, sy, sneg, sjoin = (images[k * samples:(k + 1) * samples] for k in range(4))
        if sneg != list(map(A.neg, sx)) or sjoin != list(map(int.__or__, sx, sy)):
            ok = False
    report.add("substitutions are boolean endomorphisms", ok)

    xs = draw(max(1, samples // 20))
    moved = {rho: A.s_many(rho, xs) for rho in sigmas}
    ok = True
    for sigma in sigmas:
        # s_sigma(s_tau x) against s_(sigma o tau) x, for every tau and x at once
        if (A.s_many(sigma, [e for tau in sigmas for e in moved[tau]])
                != [e for tau in sigmas for e in moved[compose_sigma(sigma, tau)]]):
            ok = False
    report.add("substitution composes contravariantly", ok)

    diagonals = [(i, j) for i in range(n) for j in range(n)]
    ok = all(A.s_many(sigma, [A.d(i, j) for i, j in diagonals])
             == [A.d(sigma[i], sigma[j]) for i, j in diagonals] for sigma in sigmas)
    report.add("substituted diagonals", ok)

    ok = True
    sims = all_partitions(n)
    for sigma in sigmas:
        grown = A.s_many(sigma, [A.d_partition(subst_partition(sim, sigma)) for sim in sims])
        if any(A.d_partition(sim) & ~g for sim, g in zip(sims, grown)):
            ok = False
    report.add("partition constants grow along substitution", ok)

    ok = True
    for sigma in sigmas:
        missed = [(i, j) for i in range(n) if (j := missed_coordinate(sigma, i)) is not None]
        cases = [(i, j, a) for i, j in missed for a in draw(max(1, samples // 40))]
        images = A.s_many(sigma, [A.dist_element(i) for i, _ in missed]
                          + [a for _, _, a in cases])
        if images[:len(missed)] != [A.dist_element(j) for _, j in missed]:
            ok = False
        if any(m.proj(j, sa) & ~m.proj(i, a)
               for (i, j, a), sa in zip(cases, images[len(missed):])):
            ok = False
    report.add("projection shrinks along substitution", ok)

    ok = True
    for sigma in sigmas:
        elems = draw(max(1, samples // 20))
        injective = len(set(sigma)) == n
        cyls = [A.c(i, a) for a in elems for i in range(n)] if injective else []
        images = A.s_many(sigma, elems + cyls)
        for k, sa in enumerate(images[:len(elems)]):
            if any(A.c(i, sa) != sa for i in range(n) if i not in sigma):
                ok = False
            if injective and any(A.c(sigma[i], sa) != images[len(elems) + k * n + i]
                                 for i in range(n)):
                ok = False
    report.add("cylindrifications move through substitution", ok)
    return report


def run_suite(m: AgsModel, which: str = "all", seed: int = 1, samples: int = 300) -> Report:
    report = Report(f"ags-suite-{which}", {"seed": seed, "samples": samples})
    if which in ("rs", "all"):
        report.extend(check_block_structure(m))
        report.extend(check_rs_properties(m, seed, samples))
    if which in ("proj", "all"):
        report.extend(check_projection_properties(m))
    if which in ("subst", "all"):
        report.extend(check_substitution_properties(m, seed, samples))
    return report
