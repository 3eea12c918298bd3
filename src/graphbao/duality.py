"""Lifting graph p-morphisms to atom structures and dualizing to algebras.

A surjective graph p-morphism induces a map on atoms (compose the value
vector through the per-copy extension of the vertex map), which is a
surjective p-morphism of atom structures.  Its dual embeds the target's
complex algebra into the source's by taking preimages, and the dual of an
embedding maps principal ultrafilters back along it.  Chains of such maps
are checked stage by stage; no limit object is ever materialized.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from operator import itemgetter

from .atoms import AtomStructure, all_sigmas, enumerate_atoms, DEFAULT_ATOM_BOUND
from .bao import FiniteBao, complex_algebra
from .bitset import gather_lanes, lanewise, read_map
from .graph import (Graph, VertexMap, chromatic_number, compose_maps, graph_from_json,
                    graph_to_json, is_p_morphism, is_surjective)
from .report import Report


@dataclass
class AtomPMorphism:
    source: AtomStructure
    target: AtomStructure
    mapping: tuple[int, ...]  # [source atom] -> target atom


@dataclass
class GraphChain:
    """Stages with one surjective p-morphism from each stage to the previous."""

    stages: list[Graph]
    steps: list[VertexMap]

    def __post_init__(self):
        if len(self.steps) != len(self.stages) - 1:
            raise ValueError("need exactly one step between consecutive stages")
        for s, step in enumerate(self.steps):
            if step.source != self.stages[s + 1] or step.target != self.stages[s]:
                raise ValueError(f"step {s} does not connect stages {s + 1} -> {s}")


def extend_to_copies(f: VertexMap, n: int):
    """Vertex map on the inflated graphs: (x, i) goes to (f(x), i)."""
    src = f.source.vertex_count
    tgt = f.target.vertex_count

    def mapped(v: int) -> int:
        copy, x = divmod(v, src)
        return copy * tgt + f.mapping[x]

    return mapped


def lift(f: VertexMap, n: int, max_atoms: int = DEFAULT_ATOM_BOUND,
         source_structure: AtomStructure | None = None,
         target_structure: AtomStructure | None = None) -> AtomPMorphism:
    """Atom-structure map induced by a surjective graph p-morphism: each
    atom's values go through the vertex map, and the image is looked up in
    the target, which holds exactly the valid atoms (a miss is an invalid
    image)."""
    if not is_p_morphism(f):
        raise ValueError("map is not a graph p-morphism")
    if not is_surjective(f):
        raise ValueError("map is not surjective")
    source = source_structure or enumerate_atoms(f.source, n, max_atoms)
    target = target_structure or enumerate_atoms(f.target, n, max_atoms)
    mapped = extend_to_copies(f, n)
    vertex = {v: mapped(v) for v in range(source.inflated.vertex_count)}
    vertex[None] = None  # an undefined value stays undefined
    images = []
    for atom in source.atoms:
        image = target.lookup(tuple(map(vertex.__getitem__, atom.k)), atom.sim)
        if image is None:
            raise RuntimeError(f"lift produced an invalid atom from {atom}")
        images.append(image)
    return AtomPMorphism(source, target, tuple(images))


def validate_atom_pmorphism(g: AtomPMorphism) -> Report:
    """Exhaustive forth/back verification over all atoms and relations, one
    comparison over the whole mapping per coordinate and per map."""
    report = Report("atom-p-morphism")
    src, tgt, mapping = g.source, g.target, g.mapping
    # canonical partitions are equal iff they relate the same coordinates
    report.add("diagonal membership preserved and reflected",
               all(a.sim == tgt.atoms[b].sim for a, b in zip(src.atoms, mapping)))

    srel, trel = src.tables(), tgt.tables()
    forth = back = True
    for i in range(src.n):
        sclass, tmasks = srel.cyl_class_of[i], trel.cyl_class_masks[i]
        # one target class per source class, and the source class's image
        # is all of it: then each atom's R_i-class maps onto its image's
        pairs = set(zip(sclass, itemgetter(*mapping)(trel.cyl_class_of[i])))
        images = [0] * len(srel.cyl_class_masks[i])
        for cid, b in zip(sclass, mapping):
            images[cid] |= 1 << b
        forth = forth and len(pairs) == len(images)
        back = back and all(images[cid] == tmasks[tid] for cid, tid in pairs)
    report.add("cylindric forth", forth)
    report.add("cylindric back", back)

    subst_ok = all(itemgetter(*s_table)(mapping) == itemgetter(*mapping)(t_table)
                   for s_table, t_table in zip(srel.subst_tables, trel.subst_tables))
    report.add("substitution equivariance (forth)", subst_ok)
    # the back condition for the functional substitution relation asks for a
    # preimage of the computed image, which equivariance supplies directly
    report.add("substitution back", subst_ok)
    report.add("surjective on atoms", len(set(mapping)) == len(tgt))
    return report


@dataclass
class AlgebraEmbedding:
    """Preimage map dual to an atom p-morphism: target algebra into source algebra."""

    domain: FiniteBao      # complex algebra of the p-morphism's target
    codomain: FiniteBao    # complex algebra of the p-morphism's source
    mapping: tuple[int, ...]  # [codomain atom] -> domain atom

    def __call__(self, element: int) -> int:
        return self.many([element])[0]

    def many(self, elements: list[int]) -> list[int]:
        """The preimage of each element, through lanes 8 elements at a time."""
        return lanewise(self.lanes, elements, self.domain.natoms)

    def lanes(self, lanes: bytes) -> bytes:
        """The preimages of the up to 8 elements of a lane string (bitset):
        one gather of its bytes through the atom map."""
        return gather_lanes(self.mapping, lanes)


def dual_embedding(g: AtomPMorphism) -> AlgebraEmbedding:
    return AlgebraEmbedding(complex_algebra(g.target), complex_algebra(g.source),
                            g.mapping)


def validate_embedding(emb: AlgebraEmbedding, seed: int = 1, samples: int = 1000) -> Report:
    """Injectivity exhaustively on atoms; homomorphism sampled plus exact
    images of every operator applied to constants.

    Every image goes through the embedding's batched call, one gather pass
    per 8 elements, and no batch outlives its check: the atom preimages
    emb(1 << b) are read 8 atoms a call, their union and overlaps tracked as
    they arrive, and the unit, zero and diagonals are mapped in one call.
    The samples are drawn first and grouped by their map sigma; each maps
    its 5 + n images x, y, x | y, -x, c_0 x .. c_{n-1} x and s_sigma x in
    one call, and the s_sigma x and s_sigma(emb x) of a group come from one
    s_many call each.  Only one group's images are held at a time.
    """
    rng = random.Random(seed)
    dom, cod = emb.domain, emb.codomain
    report = Report("algebra-embedding", {"seed": seed, "samples": samples})

    nonempty = disjoint = True
    union = 0
    for start in range(0, dom.natoms, 8):
        for mask in emb.many([1 << b for b in range(start, min(start + 8, dom.natoms))]):
            nonempty = nonempty and mask != 0
            disjoint = disjoint and not union & mask
            union |= mask
    report.add("atom preimages nonempty and disjoint", nonempty and disjoint
               and union == cod.top)

    diagonals = [(i, j) for i in range(dom.n) for j in range(dom.n)]
    unit, zero, *ediag = emb.many([dom.top, 0] + [dom.d(i, j) for i, j in diagonals])
    report.add("unit and zero preserved", unit == cod.top and zero == 0)
    report.add("diagonal constants preserved",
               all(e == cod.d(i, j) for e, (i, j) in zip(ediag, diagonals)))

    pool = dom.bias_pool()
    sigmas = all_sigmas(dom.n)
    drawn: dict[tuple[int, ...], list[tuple[int, int]]] = {}
    for _ in range(samples):
        x = dom.sample_element(rng, pool)
        y = dom.sample_element(rng, pool)
        drawn.setdefault(sigmas[rng.randrange(len(sigmas))], []).append((x, y))
    ok_bool = ok_cyl = ok_sub = True
    for sigma, pairs in drawn.items():
        exs, esubs = [], []
        for (x, y), sub in zip(pairs, dom.s_many(sigma, [x for x, _ in pairs])):
            ex, ey, ejoin, eneg, *ecyl, esub = emb.many(
                [x, y, x | y, dom.neg(x)] + [dom.c(i, x) for i in range(dom.n)] + [sub])
            if ejoin != ex | ey or eneg != cod.neg(ex):
                ok_bool = False
            if any(e != cod.c(i, ex) for i, e in enumerate(ecyl)):
                ok_cyl = False
            exs.append(ex)
            esubs.append(esub)
        if cod.s_many(sigma, exs) != esubs:
            ok_sub = False
    report.add("boolean operations preserved (sampled)", ok_bool)
    report.add("cylindrifications preserved (sampled)", ok_cyl)
    report.add("substitutions preserved (sampled)", ok_sub)
    return report


def dual_surjection(emb: AlgebraEmbedding) -> AtomPMorphism:
    """Ultrafilter map dual to an embedding, on principal ultrafilters.

    Each atom of the codomain sits inside the image of exactly one atom of
    the domain; that atom is its image.  The map is read back through the
    embedding's lane call on the bit-slice elements (bitset.read_map),
    which raises RuntimeError when the embedding is no preimage operator of
    an atom map.
    """
    source = emb.codomain.atom_structure
    target = emb.domain.atom_structure
    if source is None or target is None:
        raise RuntimeError("dual surjection needs atom-structure provenance")
    return AtomPMorphism(source, target,
                         read_map(emb.lanes, emb.codomain.natoms, emb.domain.natoms))


def check_chain(chain: GraphChain, n: int, seed: int = 1, samples: int = 300,
                max_atoms: int = DEFAULT_ATOM_BOUND) -> Report:
    """Stage-by-stage certificates for a chain of surjective p-morphisms."""
    report = Report("graph-chain", {"n": n, "seed": seed})
    structures = [enumerate_atoms(g, n, max_atoms) for g in chain.stages]

    for s, g in enumerate(chain.stages):
        chi, _ = chromatic_number(g)
        report.add(f"stage {s}: chromatic number", True, {"chi": chi})
        algebra = complex_algebra(structures[s])
        recovered = algebra.ultrafilter_structure()
        report.add(f"stage {s}: ultrafilter structure matches the atom structure",
                   recovered.same_structure(structures[s].tables()))

    lifts = []
    for s, step in enumerate(chain.steps):
        ok_p = is_p_morphism(step) and is_surjective(step)
        report.add(f"step {s}: surjective graph p-morphism", ok_p)
        if not ok_p:  # nothing to lift; the report says which step failed
            return report
        lifted = lift(step, n, max_atoms,
                      source_structure=structures[s + 1],
                      target_structure=structures[s])
        lifts.append(lifted)
        sub = validate_atom_pmorphism(lifted)
        report.add(f"step {s}: lifted map is a p-morphism of atom structures", sub.ok)
        emb = dual_embedding(lifted)
        emb_report = validate_embedding(emb, seed, samples)
        report.add(f"step {s}: dual map embeds the smaller algebra", emb_report.ok)
        back = dual_surjection(emb)
        report.add(f"step {s}: dual of the dual returns the lifted map",
                   back.mapping == lifted.mapping)

    for s in range(len(chain.steps) - 1):
        composed = compose_maps(chain.steps[s], chain.steps[s + 1])
        direct = lift(composed, n, max_atoms,
                      source_structure=structures[s + 2],
                      target_structure=structures[s])
        via = tuple(lifts[s].mapping[a] for a in lifts[s + 1].mapping)
        report.add(f"steps {s + 2}->{s}: lifts compose", direct.mapping == via)
    return report


def chain_from_json(data: dict) -> GraphChain:
    """Raises ValueError on a document that does not describe a chain."""
    if (not isinstance(data, dict) or not isinstance(data.get("stages"), list)
            or not isinstance(data.get("steps"), list)):
        raise ValueError("chain JSON needs a 'stages' list and a 'steps' list")
    stages = [graph_from_json(g) for g in data["stages"]]
    if len(data["steps"]) != len(stages) - 1:
        raise ValueError("chain JSON needs exactly one step between consecutive stages")
    steps = []
    for s, mapping in enumerate(data["steps"]):
        if not isinstance(mapping, list) or any(type(v) is not int for v in mapping):
            raise ValueError(f"chain step {s} must be a list of integer vertices")
        steps.append(VertexMap(stages[s + 1], stages[s], tuple(mapping)))
    return GraphChain(stages, steps)


def chain_to_json(chain: GraphChain) -> dict:
    return {"stages": [graph_to_json(g) for g in chain.stages],
            "steps": [list(step.mapping) for step in chain.steps]}


def identity_pmorphism(structure: AtomStructure) -> AtomPMorphism:
    return AtomPMorphism(structure, structure, tuple(range(len(structure))))
