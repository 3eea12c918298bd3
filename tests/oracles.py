"""Independent brute-force oracles used to cross-check the fast paths."""

from __future__ import annotations

import copy
import heapq
import itertools
import random
from dataclasses import replace
from functools import cache, partial
from operator import itemgetter

from graphbao.ags import AgsModel, build_model
from graphbao.atoms import (Atom, AtomStructure, all_partitions, all_sigmas, canonical_partition,
                            compose_sigma, enumerate_atoms, is_i_distinguishing,
                            missed_coordinate, num_blocks, partition_pair_block,
                            restrict_partition, subst_partition, subst_plan)
from graphbao.bao import FiniteBao, RelStructure, complex_algebra
from graphbao.bitset import gather_lanes, iter_bits, lanewise
from graphbao.equations import UnboundVariableError, Verdict
from graphbao.errors import InfeasibleError, SizeLimitError
from graphbao.graph import Graph, inflate
from graphbao.networks import UfNetwork, ultrafilter_for_tuple, validate_network
from graphbao.report import Report


def remove_edge_girth(g: Graph) -> int | None:
    """Shortest cycle via per-edge removal plus BFS; slow but obviously right."""
    best = None
    for u, v in g.edges():
        dist = {u: 0}
        queue = [u]
        for x in queue:
            for y in range(g.vertex_count):
                if y in dist or not g.has_edge(x, y):
                    continue
                if (x, y) in ((u, v), (v, u)):
                    continue
                dist[y] = dist[x] + 1
                queue.append(y)
        if v in dist:
            cand = dist[v] + 1
            if best is None or cand < best:
                best = cand
    return best


def _canon(labels) -> tuple[int, ...]:
    remap: dict[int, int] = {}
    out = []
    for lbl in labels:
        remap.setdefault(lbl, len(remap))
        out.append(remap[lbl])
    return tuple(out)


def naive_atom_set(g: Graph, n: int) -> set:
    """Double loop over every partial map and every partition, checking the
    three defining clauses literally."""
    infl = inflate(g, n)
    verts = list(range(infl.vertex_count))
    partitions = sorted({_canon(lbl) for lbl in itertools.product(range(n), repeat=n)})
    out = set()
    for sim in partitions:
        classes = len(set(sim))
        for k in itertools.product([None] + verts, repeat=n):
            dom = [i for i in range(n) if k[i] is not None]
            if classes == n:
                if len(dom) != n:
                    continue
                image = set(k)
                if not any(infl.has_edge(a, b) for a in image for b in image if a != b):
                    continue
            elif classes == n - 1:
                pair = [i for i in range(n) if sim.count(sim[i]) == 2]
                if sorted(dom) != sorted(pair) or k[pair[0]] != k[pair[1]]:
                    continue
            else:
                if dom:
                    continue
            out.add((k, sim))
    return out


def naive_game_moves(m, net):
    """Move legality read off the cylindrification of a singleton."""
    moves = []
    for v in sorted(net.labels):
        lab = net.labels[v]
        for i in range(m.n):
            for a in range(m.algebra.natoms):
                if m.algebra.c(i, 1 << a) >> lab & 1:
                    moves.append((v, i, a))
    return moves


def validate_network_per_tuple(net, m, mode: str = "polyadic", tuples=None) -> list[dict]:
    """Reference for networks.validate_network: the same violations in the
    same order, found by comparing one tuple and one neighbour or image at
    a time."""
    n, labels, atoms, rel = net.n, net.labels, m.structure.atoms, m.algebra.rel
    missing = next((v for v in itertools.product(net.nodes, repeat=n) if v not in labels), None)
    if missing is not None:
        return [{"kind": "missing-label", "tuple": missing}]
    violations = []
    tuples = list(itertools.product(net.nodes, repeat=n)) if tuples is None else tuples
    for v in tuples:
        sim = atoms[labels[v]].sim
        if _canon(v) != sim:
            violations += [{"kind": "diagonal", "tuple": v, "i": i, "j": j}
                           for i in range(n) for j in range(n)
                           if (sim[i] == sim[j]) != (v[i] == v[j])]
    for v in tuples:
        lab = labels[v]
        for i, class_of in enumerate(rel.cyl_class_of):
            for node in net.nodes:
                w = v[:i] + (node,) + v[i + 1:]
                if class_of[lab] != class_of[labels[w]]:
                    violations.append({"kind": "cylindric", "tuple": v, "i": i,
                                       "other": w})
    if mode == "polyadic":
        for v in tuples:
            lab = labels[v]
            for sigma, table in zip(all_sigmas(n), rel.subst_tables):
                if labels[tuple(v[s] for s in sigma)] != table[lab]:
                    violations.append({"kind": "polyadic", "tuple": v,
                                       "sigma": sigma})
    return violations


def naive_game_responses(m, net, move):
    """Unpruned enumeration: every labeling of the new tuples over atoms of
    the matching diagonal pattern, filtered by full validation."""
    v, i, a = move
    n = m.n
    out = []
    witnesses = [v[:i] + (node,) + v[i + 1:] for node in net.nodes]
    if any(net.labels[w] == a for w in witnesses):
        out.append(net)
    z = max(net.nodes) + 1
    nodes2 = net.nodes + (z,)
    w0 = v[:i] + (z,) + v[i + 1:]
    new_tuples = sorted(t for t in itertools.product(nodes2, repeat=n) if z in t)
    pools = []
    for t in new_tuples:
        pattern = _canon(t)
        pools.append([idx for idx, atom in enumerate(m.structure.atoms)
                      if atom.sim == pattern])
    for combo in itertools.product(*pools):
        labels = dict(net.labels)
        labels.update(zip(new_tuples, combo))
        witnessed = labels[w0] == a or any(net.labels[w] == a for w in witnesses)
        if not witnessed:
            continue
        candidate = UfNetwork(n, nodes2, labels)
        if not validate_network_per_tuple(candidate, m):
            out.append(candidate)
    return out


def pruned_game_responses(m, net, move):
    """Same response set as naive_game_responses, by backtracking over the
    sorted fresh tuples: a label is dropped as soon as it breaks a
    cylindric or substitution condition with an already labelled tuple, and
    each complete labelling is filtered by full validation.  Feasible where
    the unpruned product is not (a 2-node K1 network has ~1e14 labellings)."""
    v, i, a = move
    n = m.n
    out = []
    witnesses = [v[:i] + (node,) + v[i + 1:] for node in net.nodes]
    if any(net.labels[w] == a for w in witnesses):
        out.append(net)
    z = max(net.nodes) + 1
    nodes2 = net.nodes + (z,)
    w0 = v[:i] + (z,) + v[i + 1:]
    everything = list(itertools.product(nodes2, repeat=n))
    new_tuples = sorted(t for t in everything if z in t)
    rel = m.algebra.rel
    ident = range(m.algebra.natoms)
    # ties[t]: (u, f, g) for each condition f[label t] == g[label u],
    # found by comparing every pair of tuples directly
    ties = {t: [] for t in new_tuples}
    for t in new_tuples:
        for u in everything:
            for k in range(n):
                if u != t and u[:k] + u[k + 1:] == t[:k] + t[k + 1:]:
                    ties[t].append((u, rel.cyl_class_of[k], rel.cyl_class_of[k]))
            for sigma, table in zip(all_sigmas(n), rel.subst_tables):
                if tuple(t[s] for s in sigma) == u != t:
                    ties[t].append((u, table, ident))
                if tuple(u[s] for s in sigma) == t != u:
                    ties[t].append((u, ident, table))
    labels = dict(net.labels)

    def extend(pos):
        if pos == len(new_tuples):
            witnessed = labels[w0] == a or any(net.labels[w] == a for w in witnesses)
            candidate = UfNetwork(n, nodes2, dict(labels))
            if witnessed and not validate_network_per_tuple(candidate, m):
                out.append(candidate)
            return
        t = new_tuples[pos]
        pattern = _canon(t)
        for lab, atom in enumerate(m.structure.atoms):
            if atom.sim == pattern and all(f[lab] == g[labels[u]]
                                           for u, f, g in ties[t] if u in labels):
                labels[t] = lab
                extend(pos + 1)
                del labels[t]

    extend(0)
    return out


def coherent_via_atom_search(p, v_set, m) -> bool:
    """Cross-check: does an atom exist that is distinguishing at every
    coordinate with projections matching the patches?"""
    nodes = sorted(v_set)
    points = [p.assign[frozenset(nodes) - {x}] for x in nodes]
    return any(all(m.proj_point(idx, i) == points[i] for i in range(m.n))
               for idx in range(m.algebra.natoms))


def network_from_patch_by_orbits(p, m, rep) -> dict:
    """Labels of a total coherent patch system by orbit propagation: each
    non-injective tuple by ultrafilter_for_tuple, and each permutation orbit
    of injective tuples from one representative, the sorted tuple permuted
    by `rep` (a permutation of range(n)), whose label goes through the
    substitution tables (u = first o sigma gets T_sigma[label of first])."""
    n = m.n
    labels = {}
    for v in itertools.product(p.nodes, repeat=n):
        if len(set(v)) < n:
            labels[v] = ultrafilter_for_tuple(p, v, m)
        elif v == tuple(sorted(v)):
            first = tuple(v[r] for r in rep)
            first_label = ultrafilter_for_tuple(p, first, m)
            position = {node: idx for idx, node in enumerate(first)}
            for u in itertools.permutations(v):
                sigma = tuple(position[node] for node in u)
                labels[u] = m.algebra.rel.subst_for(sigma)[first_label]
    return labels


def naive_survives(m, net, depth: int) -> bool:
    if depth == 0:
        return True
    for move in naive_game_moves(m, net):
        if not any(naive_survives(m, resp, depth - 1)
                   for resp in naive_game_responses(m, net, move)):
            return False
    return True


def moves_up_to_orbit(m, net, moves) -> list:
    """The first of `moves` per class, keyed by the least (w0 o pi, T_pi[a])
    over all n! coordinate permutations pi, where w0 = v[i -> z] and z is
    the fresh node: the reference for networks._moves_up_to_permutation."""
    n, z, tables = m.n, max(net.nodes) + 1, m.algebra.rel.subst_tables
    perms = [(pi, tables[all_sigmas(n).index(pi)]) for pi in itertools.permutations(range(n))]
    kept, seen, images = [], set(), {}
    for move in moves:
        if (move.v, move.i) not in images:
            w0 = move.v[:move.i] + (z,) + move.v[move.i + 1:]
            images[move.v, move.i] = [(tuple(w0[p] for p in pi), table) for pi, table in perms]
        key = min((w, table[move.atom]) for w, table in images[move.v, move.i])
        if key not in seen:
            seen.add(key)
            kept.append(move)
    return kept


def thinned_injective_model(g: Graph, step: int):
    """A model over g at n = 3 on which extension_networks_by_tables picks
    only every step-th atom of the injective pattern: a mutant that loses
    the game at depth 2 or 3, for tests of `loses` verdicts and traces.  It
    is not closed under coordinate permutation, so it has no patch form."""
    m = build_model(g, 3)
    masks = dict(m.structure.pattern_masks)
    injective = tuple(range(m.n))
    masks[injective] = sum(1 << a for a in list(iter_bits(masks[injective]))[::step])
    m.structure.__dict__["pattern_masks"] = masks  # shadows the cached property
    return m


def thinned_multiset_model(g: Graph, step: int):
    """A model over g at n = 3 whose atom structure keeps, of the injective
    atoms, only those whose sorted value tuple is every step-th one: a
    mutant closed under coordinate permutation, so both ∃ searches run on
    it, for tests of `loses` verdicts that hold them to each other."""
    full = enumerate_atoms(g, 3)
    injective = (0, 1, 2)
    values = sorted({tuple(sorted(full.atoms[a].k)) for a in full.pattern_atoms[injective]})
    kept = set(values[::step])
    structure = AtomStructure(g, 3, [atom for atom in full.atoms if atom.sim != injective
                                     or tuple(sorted(atom.k)) in kept])
    return AgsModel(complex_algebra(structure), structure, g, 3)


def preimage_masks(m) -> list[list[int]]:
    """[rank][atom] -> mask of the atoms x with subst_tables[rank][x] == atom,
    built once per model and kept on it."""
    if "_preimage_masks" not in vars(m):
        tables = m.algebra.rel.subst_tables
        masks = [[0] * m.algebra.natoms for _ in tables]
        for row, table in zip(masks, tables):
            for x, y in enumerate(table):
                row[y] |= 1 << x
        m._preimage_masks = masks
    return m._preimage_masks


@cache
def subset_tables(n: int, nodes: tuple[int, ...], w0: tuple[int, ...] | None):
    """The plan for extending a valid network on `nodes[:-1]` by the node
    z = `nodes[-1]`, with w0 pre-labelled (None when an old tuple witnesses
    the move): the sorted fresh tuples (those holding z) and, per tuple c
    listing a new maximal node subset in search order, c's diagonal pattern,
    its images (rank, c o sigma) that are labelled when c is picked (old
    tuples, w0, images of earlier subsets) and its free images, which the
    pick labels.  Every tuple on c's node set is an image of c; each
    appears once, with the first sigma in rank order that gives it."""
    z = nodes[-1]
    if len(nodes) <= n:
        listings = [nodes + (z,) * (n - len(nodes))]
    else:
        listings = [c + (z,) for c in itertools.combinations(nodes[:-1], n - 1)]
    labelled = {*itertools.product(nodes[:-1], repeat=n), w0}  # a None w0 is no tuple
    plan = []
    for c in listings:
        images: dict[tuple[int, ...], int] = {}
        for rank, sigma in enumerate(all_sigmas(n)):
            images.setdefault(tuple(c[s] for s in sigma), rank)
        plan.append((canonical_partition(c),
                     [(rank, u) for u, rank in images.items() if u in labelled],
                     [(rank, u) for u, rank in images.items() if u not in labelled]))
        labelled.update(images)
    fresh = tuple(sorted(t for t in itertools.product(nodes, repeat=n) if z in t))
    return fresh, tuple(plan)


def extension_networks_by_tables(m, net, move, witnessed: bool, ordered: bool):
    """The ∃ search on labels, a drop-in for networks._extension_networks:
    every valid network on one fresh node that witnesses the move, sorted
    by the labels on w0, then on the other fresh tuples, unless `ordered`
    is false.

    The demanded atom a is pre-assigned at w0 unless an old tuple witnesses
    the move.  Along the plan of subset_tables, the search picks one label
    x_c per new maximal subset from c's pattern mask, cut by the preimage
    of each labelled image's label, and writes T_sigma[x_c] (T the
    substitution tables) at each free image.  Every leaf is a response, by
    two facts about the tables (test_bao.TestSearchLemmas pins them):

    * L1: if sigma and sigma' agree off i, T_sigma[x] R_i T_sigma'[x];
    * L3: if sigma(j) and sigma'(j) share a block of x's partition for
      every j, T_sigma[x] = T_sigma'[x].

    Each tuple c o sigma carries T_sigma[x_c]: the pick writes it, or the
    preimage cut forces it if the tuple is already labelled.  x_c has c's
    pattern, so by L3 every sigma giving the tuple gives that label.  So
    each cylindric line through the fresh node stays in one R_i class.
    Take t fresh, u = t[i -> w] and v = t[i -> t[j]] with j != i:
    v = u[i -> u[j]] lies in every node set that holds t or u.  With
    t = c o sigma and sigma' = sigma[i -> sigma(j)], c o sigma' = v, so L1
    gives label(t) R_i label(v).  The same holds for u if it is fresh; if
    u is old, so is v, and the valid parent relates them.  Each network is
    still validated on its fresh tuples (RuntimeError).
    """
    n = m.n
    v, i, a = move.v, move.i, move.atom
    nodes2 = net.nodes + (max(net.nodes) + 1,)
    w0 = v[:i] + (nodes2[-1],) + v[i + 1:]
    fresh, plan = subset_tables(n, nodes2, None if witnessed else w0)
    order = [w0] + [t for t in fresh if t != w0]
    key = itemgetter(*order)
    tables, preimages = m.algebra.rel.subst_tables, preimage_masks(m)
    pattern_masks = m.structure.pattern_masks
    assigned = dict(net.labels) if witnessed else {**net.labels, w0: a}

    def label(pos):
        if pos == len(plan):
            yield key(assigned)
            return
        pattern, images, free = plan[pos]
        mask = pattern_masks.get(pattern, 0)
        for rank, u in images:
            mask &= preimages[rank][assigned[u]]
        # a later subset reads only what the plan says is labelled before it
        for x in iter_bits(mask):
            for rank, u in free:
                assigned[u] = tables[rank][x]
            yield from label(pos + 1)

    for row in sorted(label(0)) if ordered else label(0):
        net2 = UfNetwork(n, nodes2, {**net.labels, **dict(zip(order, row))})
        bad = validate_network(net2, m, "polyadic", tuples=fresh)
        if bad:
            raise RuntimeError(f"search produced an invalid network: {bad[0]}")
        yield net2


def cyl_per_bit(algebra, i: int, x: int) -> int:
    """c_i one atom of x at a time: the union of the classes of its atoms."""
    out = 0
    seen = set()
    class_of = algebra.rel.cyl_class_of[i]
    masks = algebra.rel.cyl_class_masks[i]
    for a in iter_bits(x):
        cid = class_of[a]
        if cid not in seen:
            seen.add(cid)
            out |= masks[cid]
    return out


def generated_subalgebra_closure(algebra, gens, bound: int = 4096) -> list[int]:
    """Least subuniverse containing gens, by closing the element set under
    negation, every operator and every pairwise join and meet."""
    elems = {0, algebra.top}
    if "d" in algebra.ops:
        for i in range(algebra.n):
            for j in range(algebra.n):
                elems.add(algebra.rel.diag_masks[i][j])
    elems.update(gens)
    processed: list[int] = []
    queue = sorted(elems)
    heapq.heapify(queue)
    while queue:
        x = heapq.heappop(queue)
        new = [algebra.neg(x)]
        for i in range(algebra.n):
            new.append(algebra.c(i, x))
        if "s" in algebra.ops:
            for sigma in all_sigmas(algebra.n):
                new.append(algebra.s(sigma, x))
        for y in processed:
            new.append(x | y)
            new.append(x & y)
        processed.append(x)
        for y in new:
            if y not in elems:
                elems.add(y)
                heapq.heappush(queue, y)
                if len(elems) > bound:
                    raise SizeLimitError(f"subalgebra exceeds bound {bound}")
    return sorted(elems)


def gather_many(table, xs, width: int) -> list[int]:
    """Per element x of xs, the set whose bit a is bit table[a] of x, for
    a < len(table); width is at least every x's bit length and every table
    entry.  One bitset.gather_lanes pass per 8 elements, through lanewise."""
    return lanewise(partial(gather_lanes, table), xs, width)


def gather(table, x: int, width: int) -> int:
    """gather_many for one element: bit a of the result is bit
    table[a] of x, read through x's bit string."""
    if len(table) < 2:
        return x >> table[0] & 1 if table else 0
    bits = format(x, f"0{width}b")[::-1]  # bits[b] is bit b of x
    return int("".join(itemgetter(*table)(bits))[::-1], 2)


def bit_slice(k: int, n: int) -> int:
    """The set {b < n : bit k of b is 1}: the element that bitset.read_map
    puts in lane k % 8 of its call for index byte k // 8."""
    half = 1 << k
    period = half << 1
    block = ((1 << half) - 1) << half  # the pattern over one period
    copies = ((1 << period * -(-n // period)) - 1) // ((1 << period) - 1)
    return block * copies & ((1 << n) - 1)


def lane_preimages(preimages, nsrc: int):
    """A lane-level preimage callable (bitset.read_map's interface) from an
    element-level one: lanes 0 .. j of the input, j its highest lane with a
    bit, are read digit by digit into elements, and their answers are packed
    with lanes_by_digits into nsrc bytes (more when an answer has a bit at or
    beyond nsrc)."""
    def lanes(string: bytes) -> bytes:
        count = max(string, default=0).bit_length()
        xs = [int("".join(str(byte >> j & 1) for byte in reversed(string)) or "0", 2)
              for j in range(count)]
        answers = preimages(xs)
        return lanes_by_digits(answers, max([nsrc] + [a.bit_length() for a in answers]))
    return lanes


def lanes_by_digits(xs, width: int) -> bytes:
    """bitset._lanes through digit strings: the digits of xs[j], most
    significant first, become bytes holding 0 or 1 << j, so one big-endian
    integer per element puts its bit b in byte b, lane j."""
    acc = 0
    for j, x in enumerate(xs):
        digits = format(x, f"0{width}b").encode()
        acc |= int.from_bytes(digits.translate(bytes.maketrans(b"01", bytes((0, 1 << j)))),
                              "big")
    return acc.to_bytes(width, "little")


def eval_term(algebra, term: tuple, env) -> int:
    """equations.eval_column at one assignment, by recursion on the term."""
    op = term[0]
    if op == "var":
        try:
            return env[term[1]]
        except KeyError:
            raise UnboundVariableError(term[1]) from None
    if op == "zero":
        return 0
    if op == "one":
        return algebra.top
    if op == "diag":
        return algebra.d(term[1], term[2])
    if op == "neg":
        return algebra.neg(eval_term(algebra, term[1], env))
    if op == "join":
        return eval_term(algebra, term[1], env) | eval_term(algebra, term[2], env)
    if op == "meet":
        return eval_term(algebra, term[1], env) & eval_term(algebra, term[2], env)
    if op == "cyl":
        return algebra.c(term[1], eval_term(algebra, term[2], env))
    if op == "sub":
        if "s" not in algebra.ops:
            raise ValueError(f"substitutions not in signature {algebra.signature}")
        return gather(algebra.rel.subst_for(term[1]), eval_term(algebra, term[2], env),
                      algebra.natoms)
    raise ValueError(f"unknown term operator {op!r}")


def equation_holds_at(algebra, eq, env) -> bool:
    return eval_term(algebra, eq.lhs, env) == eval_term(algebra, eq.rhs, env)


def check_equation_sampled_per_trial(algebra, eq, count: int, rng, pool=None) -> Verdict:
    """check_equation_sampled one trial at a time through eval_term, drawing
    each trial's variables in sorted order and stopping at the first failure."""
    variables = sorted(eq.variables())
    pool = pool if pool is not None else algebra.bias_pool()
    for trial in range(count):
        env = {v: algebra.sample_element(rng, pool) for v in variables}
        if not equation_holds_at(algebra, eq, env):
            return Verdict(False, "sampled", trial + 1,
                           {f"x{v}": hex(env[v]) for v in variables})
        if not variables:
            return Verdict(True, "sampled", 1)
    return Verdict(True, "sampled", count)


def check_equation_per_assignment(algebra, eq, elements) -> Verdict:
    """check_equation_on_subuniverse one assignment at a time through
    eval_term, in itertools.product order."""
    variables = sorted(eq.variables())
    if not variables:
        ok = equation_holds_at(algebra, eq, {})
        return Verdict(ok, "subalgebra", 1, None if ok else {})
    if len(elements) ** len(variables) > 10 ** 6:
        raise InfeasibleError("subuniverse assignment space too large")
    checked = 0
    for values in itertools.product(elements, repeat=len(variables)):
        checked += 1
        env = dict(zip(variables, values))
        if not equation_holds_at(algebra, eq, env):
            return Verdict(False, "subalgebra", checked,
                           {f"x{v}": hex(env[v]) for v in variables})
    return Verdict(True, "subalgebra", checked)


def substitution_properties_per_element(m, seed: int = 1, samples: int = 200) -> Report:
    """ags.check_substitution_properties one s call per element and map."""
    rng = random.Random(seed)
    A = m.algebra
    n = m.n
    report = Report("substitutions", {"seed": seed, "samples": samples})
    pool = A.bias_pool()
    sigmas = all_sigmas(n)

    ok = True
    for _ in range(samples):
        x = A.sample_element(rng, pool)
        y = A.sample_element(rng, pool)
        for sigma in sigmas:
            if A.s(sigma, A.neg(x)) != A.neg(A.s(sigma, x)):
                ok = False
            if A.s(sigma, x | y) != A.s(sigma, x) | A.s(sigma, y):
                ok = False
    report.add("substitutions are boolean endomorphisms", ok)

    ok = True
    for _ in range(max(1, samples // 20)):
        x = A.sample_element(rng, pool)
        for sigma in sigmas:
            for tau in sigmas:
                if A.s(compose_sigma(sigma, tau), x) != A.s(sigma, A.s(tau, x)):
                    ok = False
    report.add("substitution composes contravariantly", ok)

    ok = all(A.s(sigma, A.d(i, j)) == A.d(sigma[i], sigma[j])
             for sigma in sigmas for i in range(n) for j in range(n))
    report.add("substituted diagonals", ok)

    ok = True
    for sigma in sigmas:
        for sim in all_partitions(n):
            if A.d_partition(sim) & ~A.s(sigma, A.d_partition(subst_partition(sim, sigma))):
                ok = False
    report.add("partition constants grow along substitution", ok)

    ok = True
    for sigma in sigmas:
        for i in range(n):
            j = missed_coordinate(sigma, i)
            if j is None:
                continue
            if A.s(sigma, A.dist_element(i)) != A.dist_element(j):
                ok = False
            for _ in range(max(1, samples // 40)):
                a = A.sample_element(rng, pool)
                if m.proj(j, A.s(sigma, a)) & ~m.proj(i, a):
                    ok = False
    report.add("projection shrinks along substitution", ok)

    ok = True
    for sigma in sigmas:
        for _ in range(max(1, samples // 20)):
            a = A.sample_element(rng, pool)
            for i in range(n):
                if i not in sigma and A.c(i, A.s(sigma, a)) != A.s(sigma, a):
                    ok = False
            if len(set(sigma)) == n:
                for i in range(n):
                    if A.c(sigma[i], A.s(sigma, a)) != A.s(sigma, A.c(i, a)):
                        ok = False
    report.add("cylindrifications move through substitution", ok)
    return report


def atom_columns(elements, natoms: int) -> list[tuple[str, ...]]:
    """Column a lists, element by element, whether atom a lies in it."""
    return list(zip(*(format(x, f"0{natoms}b")[::-1] for x in elements)))


def subst_columns(table, columns) -> list[tuple[str, ...]]:
    """s_sigma on a batch of elements, atom by atom: a is in s_sigma(x) iff
    table[a] is in x, so column a of the images is column table[a]."""
    return [columns[b] for b in table]


def subst_atom(atom: Atom, sigma: tuple[int, ...]) -> Atom:
    """The image of one atom under sigma, by the plan of its (partition,
    map) pair: AtomStructure.subst_table's rule for a single atom."""
    new_sim, coords = subst_plan(atom.sim, sigma)
    return Atom(tuple([None if c is None else atom.k[c] for c in coords]), new_sim)


def subst_atom_per_atom(atom: Atom, sigma: tuple[int, ...]) -> Atom:
    """subst_atom without its (partition, map) plan: the partition,
    the distinguishing test and the missed coordinate, atom by atom.

    The new value at i exists iff the new partition is i-distinguishing, and
    is then the old value at the coordinate missed by sigma off i.
    """
    n = len(atom.sim)
    new_sim = subst_partition(atom.sim, sigma)
    new_k: list[int | None] = [None] * n
    for i in range(n):
        if is_i_distinguishing(new_sim, i):
            new_k[i] = atom.k[missed_coordinate(sigma, i)]
    return Atom(tuple(new_k), new_sim)


def direct_subst_tables(structure) -> tuple[tuple[int, ...], ...]:
    """One table per map in rank order, every entry from subst_atom_per_atom."""
    return tuple(tuple(structure.index_of(subst_atom_per_atom(atom, sigma))
                       for atom in structure.atoms)
                 for sigma in all_sigmas(structure.n))


def corrupt_cyl_table(rel: RelStructure, i: int = 0, atom: int = 0) -> RelStructure:
    """Drop one atom from its own equivalence class mask.

    The relation loses reflexivity at that atom, so x <= c_i x fails there.
    """
    per_atom = rel.cyl_class_of[i]
    masks = list(rel.cyl_class_masks[i])
    masks[per_atom[atom]] &= ~(1 << atom)
    class_masks = list(rel.cyl_class_masks)
    class_masks[i] = tuple(masks)
    return replace(rel, cyl_class_masks=tuple(class_masks))


def proj_per_bit(m, i: int, a: int) -> int:
    """proj_i one i-distinguishing atom of a at a time, read off proj_points."""
    out = 0
    values = m.proj_points[i]
    for atom in iter_bits(a & m.algebra.dist_element(i)):
        out |= 1 << values[atom]
    return out


def cyl_relatedness_pairwise(m) -> bool:
    """Every pair of atoms at every coordinate: same R_i class iff the two
    agree on every d_jk with j, k != i and have equal i-projections."""
    A = m.algebra
    n = m.n
    for i in range(n):
        class_of = A.rel.cyl_class_of[i]
        for a in range(A.natoms):
            for b in range(A.natoms):
                same_class = class_of[a] == class_of[b]
                diag_agree = all((A.d(j, k) >> a & 1) == (A.d(j, k) >> b & 1)
                                 for j in range(n) for k in range(n)
                                 if j != i and k != i)
                proj_agree = m.proj_point(a, i) == m.proj_point(b, i)
                if same_class != (diag_agree and proj_agree):
                    return False
    return True


def with_cyl_classes(m, i: int, class_of):
    """Copy of an AgsModel whose algebra has class_of as its R_i class ids."""
    rel = m.algebra.rel
    classes = list(rel.cyl_class_of)
    classes[i] = tuple(class_of)
    broken = copy.copy(m)
    broken.algebra = FiniteBao(replace(rel, cyl_class_of=tuple(classes)),
                               m.algebra.signature, m.algebra.atom_structure)
    return broken


def embed_per_bit(emb, x: int) -> int:
    """The dual embedding one atom of x at a time: the union of the
    preimage masks of its atoms, each read off emb.mapping."""
    masks = [0] * emb.domain.natoms
    for a, image in enumerate(emb.mapping):
        masks[image] |= 1 << a
    out = 0
    for atom in iter_bits(x):
        out |= masks[atom]
    return out


def read_map_by_singletons(preimage, nsrc: int, ntgt: int) -> tuple[int, ...]:
    """f(a) is the one b with a in preimage({b}); one call per target item."""
    images: list[int | None] = [None] * nsrc
    for b in range(ntgt):
        for a in iter_bits(preimage(1 << b)):
            assert images[a] is None, f"item {a} lies in two singleton preimages"
            images[a] = b
    assert None not in images, "some item lies in no singleton preimage"
    return tuple(images)


def classes_by_singletons(algebra, i: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """R_i read off c_i on every singleton: each atom's class id, in order of
    first appearance, and the class masks.  Raises RuntimeError as
    FiniteBao.ultrafilter_structure does when c_i induces no reflexive
    partition."""
    nat = algebra.natoms
    ids: dict[int, int] = {}
    per_atom, masks = [], []
    for a in range(nat):
        mask = algebra.c(i, 1 << a)
        cid = ids.setdefault(mask, len(ids))
        if cid == len(masks):
            masks.append(mask)
        per_atom.append(cid)
    if sum(m.bit_count() for m in masks) != nat:
        raise RuntimeError("cylindrification does not induce a partition")
    for a in range(nat):
        if not masks[per_atom[a]] >> a & 1:
            raise RuntimeError("cylindrification is not reflexive")
    return tuple(per_atom), tuple(masks)


# graphs ----------------------------------------------------------------------

def canonical_form(g: Graph, limit: int = 8) -> tuple:
    """Minimal edge encoding over all vertex permutations; equal iff isomorphic."""
    nv = g.vertex_count
    if nv > limit:
        raise SizeLimitError(f"canonical form capped at {limit} vertices")
    pairs = [(i, j) for i in range(nv) for j in range(i + 1, nv)]
    best = None
    for perm in itertools.permutations(range(nv)):
        code = 0
        for k, (i, j) in enumerate(pairs):
            if g.adj[perm[i]] >> perm[j] & 1:
                code |= 1 << k
        if best is None or code < best:
            best = code
    return (nv, best)


def is_isomorphic(g: Graph, h: Graph, limit: int = 8) -> bool:
    if g.vertex_count != h.vertex_count:
        return False
    return canonical_form(g, limit) == canonical_form(h, limit)


def maximal_independent_sets(g: Graph) -> list[int]:
    """All maximal independent sets as bitmasks (Bron-Kerbosch with pivoting)."""
    nv = g.vertex_count
    full = (1 << nv) - 1
    cadj = [full ^ g.adj[v] ^ (1 << v) for v in range(nv)]
    out: list[int] = []

    def expand(r, p, x):
        if p == 0 and x == 0:
            out.append(r)
            return
        pivot = max(iter_bits(p | x), key=lambda u: (p & cadj[u]).bit_count())
        for v in iter_bits(p & ~cadj[pivot]):
            expand(r | (1 << v), p & cadj[v], x & cadj[v])
            p ^= 1 << v
            x |= 1 << v

    expand(0, full, 0)
    return out


def coverable_by_independent_sets(g: Graph, k: int) -> bool:
    """Can the vertex set be covered by k independent sets?

    Exact cover search over maximal independent sets; independent of the
    coloring solver, so the two can cross-check each other.
    """
    full = (1 << g.vertex_count) - 1
    if full == 0:
        return True
    if k <= 0:
        return False
    sets = maximal_independent_sets(g)
    seen = set()

    def cover(done, budget):
        if done == full:
            return True
        if budget == 0 or (done, budget) in seen:
            return False
        v = (~done & full & -(~done & full)).bit_length() - 1
        for m in sets:
            if m >> v & 1 and cover(done | m, budget - 1):
                return True
        seen.add((done, budget))
        return False

    return cover(0, k)


def is_independent(g: Graph, s: int) -> bool:
    return all(not (g.adj[u] & s) for u in iter_bits(s))


def theta_by_cover_search(m, k: int) -> bool:
    """theta via exact cover by maximal independent sets."""
    return not coverable_by_independent_sets(m.graph, k)


def theta_literal(m, k: int, max_products: int = 2 * 10 ** 6) -> bool:
    """Literal quantifier reading: search all k-tuples of independent sets
    for one covering the vertices.  Only for tiny models."""
    g = m.graph
    independents = [s for s in range(1 << g.vertex_count) if is_independent(g, s)]
    if len(independents) ** max(k, 1) > max_products:
        raise InfeasibleError("literal theta enumeration too large")
    if k == 0:
        return m.vtop != 0
    for combo in itertools.product(independents, repeat=k):
        union = 0
        for s in combo:
            union |= s
        if union == m.vtop:
            return False
    return True


# atoms and atom maps ---------------------------------------------------------

def atom_is_valid(atom: Atom, inflated: Graph) -> bool:
    """The three validity clauses of an atom, read off the atom itself."""
    n = len(atom.sim)
    if len(atom.k) != n or atom.sim != canonical_partition(atom.sim):
        return False
    for v in atom.k:
        if v is not None and not 0 <= v < inflated.vertex_count:
            return False
    blocks = num_blocks(atom.sim)
    if blocks == n:
        if any(v is None for v in atom.k):
            return False
        image = set(atom.k)
        return any(inflated.has_edge(u, v) for u in image for v in image if u < v)
    if blocks == n - 1:
        i, j = partition_pair_block(atom.sim)
        dom = {idx for idx, v in enumerate(atom.k) if v is not None}
        return dom == {i, j} and atom.k[i] == atom.k[j]
    return all(v is None for v in atom.k)


def diag_member(atom: Atom, i: int, j: int) -> bool:
    return atom.sim[i] == atom.sim[j]


def cyl_equiv(a: Atom, b: Atom, i: int) -> bool:
    """Same value at coordinate i (undefined counts as equal) and same restriction."""
    return a.k[i] == b.k[i] and restrict_partition(a.sim, i) == restrict_partition(b.sim, i)


def atom_pmorphism_per_atom(g) -> Report:
    """validate_atom_pmorphism one atom at a time, per coordinate and per map,
    with the cylindric back condition walked class member by class member."""
    report = Report("atom-p-morphism")
    src, tgt = g.source, g.target
    image = g.mapping.__getitem__
    n = src.n

    ok = all((src.atoms[a].sim[i] == src.atoms[a].sim[j])
             == (tgt.atoms[image(a)].sim[i] == tgt.atoms[image(a)].sim[j])
             for a in range(len(src)) for i in range(n) for j in range(n))
    report.add("diagonal membership preserved and reflected", ok)

    srel, trel = src.tables(), tgt.tables()
    forth = True
    back = True
    for i in range(n):
        sclass, tclass = srel.cyl_class_of[i], trel.cyl_class_of[i]
        image_class: dict[int, int] = {}
        covered: dict[int, set] = {}
        for a in range(len(src)):
            cid = sclass[a]
            tid = tclass[image(a)]
            if image_class.setdefault(cid, tid) != tid:
                forth = False
            covered.setdefault(cid, set()).add(image(a))
        for cid, tid in image_class.items():
            members = set(iter_bits(trel.cyl_class_masks[i][tid]))
            if covered[cid] != members:
                back = False
    report.add("cylindric forth", forth)
    report.add("cylindric back", back)

    subst_ok = True
    for rank in range(len(all_sigmas(n))):
        s_table = srel.subst_tables[rank]
        t_table = trel.subst_tables[rank]
        for a in range(len(src)):
            if image(s_table[a]) != t_table[image(a)]:
                subst_ok = False
    report.add("substitution equivariance (forth)", subst_ok)
    report.add("substitution back", subst_ok)
    report.add("surjective on atoms", len(set(g.mapping)) == len(tgt))
    return report
