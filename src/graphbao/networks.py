"""Ultrafilter networks, patch systems, and the bounded representability game.

Ultrafilters of the finite algebra are principal, so a network labels each
n-tuple of nodes with an atom index, and a patch system assigns a vertex of
the inflated graph to each (n-1)-subset of nodes.  A valid network is fixed
by its boundary patch system, so the builder's search runs on patches.  The
game is a bounded finite shadow of representation building: truncated at a
fixed depth, it reports 'unknown' when a resource bound trips and never
claims anything about the untruncated game.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from operator import attrgetter, itemgetter

from .ags import AgsModel
from .atoms import Atom, all_sigmas, canonical_partition, is_i_distinguishing
from .bitset import iter_bits
from .errors import IncoherentPatchError


@dataclass
class UfNetwork:
    n: int
    nodes: tuple[int, ...]
    labels: dict[tuple[int, ...], int]

    def key(self):
        return tuple(sorted(self.labels.items()))


@dataclass
class PatchSystem:
    nodes: tuple[int, ...]
    assign: dict[frozenset, int]

    def is_total(self, n: int) -> bool:
        return all(frozenset(c) in self.assign
                   for c in itertools.combinations(self.nodes, n - 1))


@dataclass(frozen=True)
class GameMove:
    v: tuple[int, ...]
    i: int
    atom: int


@dataclass
class GameState:
    round: int
    network: UfNetwork
    history: list = field(default_factory=list)


@dataclass
class GameVerdict:
    status: str                # survives | loses | unknown | precondition_failed
    depth: int
    trace: list | None = None
    visited: int = 0
    round_failed: int = -1
    reason: str = ""


# basic network machinery -----------------------------------------------------

def initial_network(m: AgsModel) -> UfNetwork:
    """One node; the constant tuple carries the single-block empty atom."""
    bottom = m.structure.index_of(Atom((None,) * m.n, (0,) * m.n))
    return UfNetwork(m.n, (0,), {(0,) * m.n: bottom})


def validate_network(net: UfNetwork, m: AgsModel, mode: str = "polyadic",
                     tuples=None) -> list[dict]:
    """Exhaustive check of the diagonal, cylindric and (optionally) polyadic
    conditions, each one comparison of two vectors; returns the violations.
    With `tuples`, only the conditions of the listed tuples are checked (each
    tuple with all of its cylindric neighbours and substitution images)."""
    n, nodes, labels, atoms, rel = net.n, net.nodes, net.labels, m.structure.atoms, m.algebra.rel
    # lazily, so a long node list with few labels costs no k^n tuples
    missing = next((v for v in itertools.product(nodes, repeat=n) if v not in labels), None)
    if missing is not None:
        return [{"kind": "missing-label", "tuple": missing}]
    tuples, get_every, get_checked, patterns, neighbours, images = _check_getters(
        n, nodes, tuples if tuples is None else tuple(tuples))
    every = get_every(labels)
    labs = get_checked(every)
    sims = tuple(atoms[lab].sim for lab in labs)
    violations = [{"kind": "diagonal", "tuple": tuples[pos], "i": i, "j": j}
                  for pos in _differ(sims, patterns) for i in range(n) for j in range(n)
                  if (sims[pos][i] == sims[pos][j]) != (tuples[pos][i] == tuples[pos][j])]
    bad = []
    for i, (classes, gets) in enumerate(zip(map(_getter(every), rel.cyl_class_of), neighbours)):
        mine = get_checked(classes)
        bad += [(pos, i, k) for k, get in enumerate(gets) for pos in _differ(mine, get(classes))]
    violations += [{"kind": "cylindric", "tuple": tuples[pos], "i": i,
                    "other": tuples[pos][:i] + (nodes[k],) + tuples[pos][i + 1:]}
                   for pos, i, k in sorted(bad)]
    if mode == "polyadic":
        want = tuple(map(_getter(labs), rel.subst_tables))  # per sigma, table[label of v]
        got = tuple(get(every) for get in images)  # per sigma, the label of v o sigma
        bad = sorted((pos, rank) for rank in _differ(want, got)
                     for pos in _differ(want[rank], got[rank]))
        violations += [{"kind": "polyadic", "tuple": tuples[pos], "sigma": all_sigmas(n)[rank]}
                       for pos, rank in bad]
    return violations


def _differ(xs: tuple, ys: tuple) -> list[int]:
    """Positions where two equally long tuples differ."""
    return [] if xs == ys else [pos for pos, (x, y) in enumerate(zip(xs, ys)) if x != y]


def boundary(net: UfNetwork, m: AgsModel) -> PatchSystem:
    """Patch system reading off the projections of distinguishing tuples.

    Well-definedness (independence of the witness tuple and coordinate) is
    asserted during construction; a violation is an internal error.
    """
    n = net.n
    assign: dict[frozenset, int] = {}
    for v in itertools.product(net.nodes, repeat=n):
        for i in range(n):
            if not is_i_distinguishing(canonical_partition(v), i):
                continue
            others = _face(v, i)
            point = m.proj_point(net.labels[v], i)
            if point is None:
                raise RuntimeError("distinguishing tuple with improper projection")
            if others in assign and assign[others] != point:
                raise RuntimeError(
                    f"patch value at {sorted(others)} depends on the witness tuple")
            assign[others] = point
    return PatchSystem(net.nodes, assign)


# coherence --------------------------------------------------------------------

def is_coherent(p: PatchSystem, v_set, m: AgsModel) -> bool:
    """With principal ultrafilters, an n-subset is coherent exactly when the
    assigned points are not an independent set."""
    nodes = sorted(v_set)
    points = [p.assign[frozenset(nodes) - {x}] for x in nodes]
    distinct = sorted(set(points))
    return any(m.graph.has_edge(a, b)
               for ix, a in enumerate(distinct) for b in distinct[ix + 1:])


def patch_system_coherent(p: PatchSystem, m: AgsModel) -> bool:
    return all(is_coherent(p, combo, m)
               for combo in itertools.combinations(p.nodes, m.n))


def _face(v: tuple[int, ...], i: int) -> frozenset:
    """The nodes of v off coordinate i: the face opposite i."""
    return frozenset(v[:i] + v[i + 1:])


def ultrafilter_for_tuple(p: PatchSystem, v: tuple[int, ...], m: AgsModel) -> int:
    """The atom with v's diagonal pattern whose value at each coordinate i
    where the pattern is i-distinguishing is the patch on the face opposite
    i, and undefined elsewhere; IncoherentPatchError when no atom has them,
    which only an injective v meets (its patches are independent)."""
    sim = canonical_partition(v)
    k = tuple(p.assign[_face(v, i)] if is_i_distinguishing(sim, i) else None
              for i in range(m.n))
    index = m.structure.lookup(k, sim)
    if index is None:
        raise IncoherentPatchError(f"patches at {sorted(set(v))} are independent")
    return index


def network_from_patch(p: PatchSystem, m: AgsModel) -> UfNetwork:
    """Label every tuple by ultrafilter_for_tuple.

    Permuting an injective tuple moves its faces as the substitution
    tables move an atom's values: the face of v o sigma opposite i is the
    face of v opposite sigma(i), the coordinate T_sigma reads for i
    (atoms.subst_plan).  So label(v o sigma) = T_sigma[label(v)].
    """
    n = m.n
    if not p.is_total(n):
        raise RuntimeError("patch system must be total on (n-1)-subsets")
    labels = {v: ultrafilter_for_tuple(p, v, m) for v in itertools.product(p.nodes, repeat=n)}
    net = UfNetwork(n, tuple(sorted(p.nodes)), labels)
    bad = validate_network(net, m, "polyadic")
    if bad:
        raise RuntimeError(f"patch labeling produced an invalid network: {bad[0]}")
    return net


# the game ---------------------------------------------------------------------

def forall_moves(m: AgsModel, net: UfNetwork) -> list[GameMove]:
    """Challenger moves (v, i, a) with the current label below c_i(a).

    With principal ultrafilters and a an atom, that means a lies in the
    cylindric class of the current label.  Demands beyond atoms add no
    move: c_i is completely additive, so a label below c_i(x) lies below
    c_i(a) for some atom a below x, and a witness of a witnesses x.
    """
    rel = m.algebra.rel
    return [GameMove(v, i, a) for v, lab in sorted(net.labels.items()) for i in range(m.n)
            for a in iter_bits(rel.cyl_class_masks[i][rel.cyl_class_of[i][lab]])]


def _moves_up_to_permutation(m: AgsModel, net: UfNetwork) -> list[GameMove]:
    """forall_moves, in its order, keeping each (v, i) group whose face F, the
    multiset of v off i, is new: one class of moves per face.

    A class is a key (w0 o pi, T_pi[a]), with w0 = v[i -> z] for the fresh
    node z, pi the stable permutation sorting w0 and T_pi its table.  Moves
    with one key have one response set: label(w0 o pi) = T_pi[label(w0)] in
    every valid network (the polyadic condition) and T_pi is a bijection, so
    label(w0) = a exactly when label(w0 o pi) = T_pi[a], for both moves; and
    _witnessed agrees on them, since (v[i -> w]) o pi is the other move's
    witness tuple for w.  So they win or lose together: the first losing
    move is the first of its class, the verdict and trace do not change, and
    the search visits a subset of the positions it visits with every move.
    (Another pi sorting w0 moves only coordinates off i where v repeats,
    which a's pattern joins too, so by L3 it gives the same T_pi[a]: the
    classes are the orbits under all n! permutations.)

    The key is the face: w0 sorts to S = F + (z,), z being the largest node,
    so pi(n - 1) = i.  T_pi carries R_i classes into R_(n-1) classes (L2,
    the Scylinj identity) and, with its inverse, maps the group's atoms, the
    R_i class of label(v), onto the R_(n-1) class of T_pi[label(v)] =
    label(v o pi).  Another group (v', i') with face F has v' o pi' equal to
    v o pi off n - 1, so the valid network puts both labels in one R_(n-1)
    class: the later group's keys are all keys of the first.  Within a group
    the keys are distinct (T_pi is a bijection), so the first move of each
    key is exactly the first whole group of a face.
    """
    faces, kept = set(), []
    for (v, i), moves in itertools.groupby(forall_moves(m, net), key=attrgetter("v", "i")):
        face = tuple(sorted(v[:i] + v[i + 1:]))
        if face not in faces:
            faces.add(face)
            kept += moves
    return kept


def _witnessed(net: UfNetwork, move: GameMove) -> bool:
    """Some old tuple, v with entry i replaced, already carries the demanded atom."""
    v, i = move.v, move.i
    return any(net.labels[v[:i] + (node,) + v[i + 1:]] == move.atom for node in net.nodes)


def exists_responses(m: AgsModel, net: UfNetwork, move: GameMove, *, ordered: bool = True):
    """All legal responses: the unchanged network when a witness tuple already
    carries the demanded atom, then every one-fresh-node extension (sorted
    unless `ordered` is false, see _extension_networks)."""
    witnessed = _witnessed(net, move)
    if witnessed:
        yield net
    yield from _extension_networks(m, net, move, witnessed, ordered)


def _getter(keys):
    """itemgetter(*keys), but a tuple also for zero keys and one key."""
    return itemgetter(*keys) if len(keys) > 1 else lambda seq: tuple(seq[k] for k in keys)


@functools.cache
def _check_getters(n: int, nodes: tuple[int, ...], tuples: tuple | None):
    """validate_network's tables: the checked tuples (nodes^n if None), a getter of
    the labels of nodes^n and, into that vector, getters of the checked tuples, of
    their neighbours per (i, node) and of their images per sigma; their patterns."""
    every = tuple(itertools.product(nodes, repeat=n))
    tuples = every if tuples is None else tuples
    index = {v: pos for pos, v in enumerate(every)}
    neighbours = tuple(tuple(_getter([index[v[:i] + (node,) + v[i + 1:]] for v in tuples])
                             for node in nodes) for i in range(n))
    images = tuple(_getter([index[tuple(v[s] for s in sigma)] for v in tuples])
                   for sigma in all_sigmas(n))
    return (tuples, _getter(every), _getter([index[v] for v in tuples]),
            tuple(map(canonical_partition, tuples)), neighbours, images)


def _demand(m: AgsModel, w0: tuple[int, ...], a: int) -> dict[frozenset, int | None]:
    """The patches a demand of the atom a at w0 names: on each face of w0
    with n - 1 nodes, a's value at the coordinate opposite it.

    An unwitnessed demand has w0's pattern, so these are all of a's values
    and ultrafilter_for_tuple gives w0 the atom a: a R_i label(v), so were
    a's pattern to join i to some j, v[i -> v[j]] would have it too and
    carry a, as an R_i class holds one atom per pattern joining i (fixed by
    its pattern and value at i, both kept by R_i), and witness the move."""
    return {face: m.proj_points[j][a] for j in range(m.n) if len(face := _face(w0, j)) == m.n - 1}


@functools.cache
def _face_plan(n: int, nodes: tuple[int, ...], fixed: frozenset):
    """The search for extensions of a network on nodes[:-1] by z = nodes[-1]
    with the new faces in `fixed` given.  Faces ((n-1)-subsets) are numbered
    in combinations order, with a None slot after them.  Returns the ids;
    per old face its id and the 0-distinguishing tuple (f0, ..., f_(n-2),
    f0) whose patch it is; the other new faces (those holding z) in order,
    each with getters of the other patches of every new n-subset whose last
    open face it is; the sorted fresh tuples; per fresh tuple a getter of
    its values (the patches opposite its distinguishing coordinates) and
    its pattern."""
    z, old_nodes = nodes[-1], nodes[:-1]
    ids = {frozenset(c): pos for pos, c in enumerate(itertools.combinations(nodes, n - 1))}
    old = tuple((ids[frozenset(c)], c + c[:1]) for c in itertools.combinations(old_nodes, n - 1))
    steps = {ids[face]: [] for c in itertools.combinations(old_nodes, n - 2)
             if (face := frozenset(c + (z,))) not in fixed}
    for c in itertools.combinations(old_nodes, n - 1):
        faces = [ids[frozenset(c + (z,)) - {x}] for x in c + (z,)]
        last = max((face for face in faces if face in steps), default=None)
        if last is not None:
            steps[last].append(itemgetter(*[face for face in faces if face != last]))
    fresh = tuple(sorted(t for t in itertools.product(nodes, repeat=n) if z in t))
    leaves = tuple((itemgetter(*[ids[_face(t, j)] if is_i_distinguishing(sim, j) else len(ids)
                                 for j in range(n)]), sim)
                   for t, sim in zip(fresh, map(canonical_partition, fresh)))
    return ids, old, tuple(steps.items()), fresh, leaves


def _extension_networks(m: AgsModel, net: UfNetwork, move: GameMove, witnessed: bool,
                        ordered: bool):
    """Every valid network on one fresh node z that witnesses the move.
    With `ordered` they come sorted by their labels on w0, then on the fresh
    tuples in sorted order; without, lazily in search order, so a caller
    that takes one stops the search at its first labelling.

    A valid network is fixed by its patches and labels each tuple by
    ultrafilter_for_tuple; an n-subset is coherent exactly when its n
    patches are the values of an injective atom (a test pins this on the
    networks the game collects).  The old faces keep the parent's patches.
    An unwitnessed demand fixes the new faces of w0 to the atom's values
    (_demand; the old face opposite i agrees, as a R_i label(v)).  The
    search fills the other new faces in order and, at the last open face of
    each new n-subset, keeps the vertices that complete its other patches
    to an injective atom's values (AgsModel.completions); the n-subset of
    w0, if all its faces are fixed, holds the demanded atom's values.  Each
    leaf is validated on its fresh tuples, a guard that raises RuntimeError;
    that is the full check because the parent is valid (a tuple without z
    has no image with it, and the cylindric relation is symmetric).
    """
    n, v, i, a = m.n, move.v, move.i, move.atom
    z = max(net.nodes) + 1
    nodes2, w0 = net.nodes + (z,), v[:i] + (z,) + v[i + 1:]
    demand = {} if witnessed else {face: point for face, point in _demand(m, w0, a).items()
                                   if z in face}
    ids, old, steps, fresh, leaves = _face_plan(n, nodes2, frozenset(demand))
    patch = [None] * (len(ids) + 1)
    for face, t in old:
        patch[face] = m.proj_points[0][net.labels[t]]
    for face, point in demand.items():
        patch[ids[face]] = point
    completions, index, vtop = m.completions, m.structure.index, m.vtop

    def fill(pos):
        if pos == len(steps):
            yield tuple([index[get(patch), sim] for get, sim in leaves])
            return
        face, checks = steps[pos]
        mask = vtop
        for get in checks:
            mask &= completions[get(patch)]
        for x in iter_bits(mask):
            patch[face] = x
            yield from fill(pos + 1)

    at_w0 = fresh.index(w0)
    for row in sorted(fill(0), key=lambda row: (row[at_w0], row)) if ordered else fill(0):
        net2 = UfNetwork(n, nodes2, {**net.labels, **dict(zip(fresh, row))})
        bad = validate_network(net2, m, "polyadic", tuples=fresh)
        if bad:
            raise RuntimeError(f"search produced an invalid network: {bad[0]}")
        yield net2


class _BudgetExceeded(Exception):
    pass


class _PreconditionFailed(Exception):
    def __init__(self, round_no: int, reason: str):
        super().__init__(reason)
        self.round_no = round_no
        self.reason = reason


def exists_survives(m: AgsModel, depth: int, strategy: str = "exhaustive",
                    max_visits: int = 500000, collect: list | None = None) -> GameVerdict:
    """Bounded verdict for the builder player.

    exhaustive: ground truth at the given depth by backtracking over all
    challenger moves and all single-node responses, in a fixed order, so the
    verdict, trace and visit count are deterministic.  The challenger plays
    one class of moves per face, the multiset of v off i (see
    _moves_up_to_permutation); `collect` still walks every move.  Responses
    come from _extension_networks, which fills the patches on the new faces,
    checking each new n-subset for coherence at its last open face, and
    labels the fresh tuples by atom lookup.  At the last round any response
    wins, so the first one the search finds answers the move; only
    `collect` still gets them all, sorted.
    paper: follow the two-step ultrafilter/patch construction; on finite
    models its second step eventually demands an ultrafilter of the set sort
    free of independent sets, which no principal ultrafilter is, and that
    failure is reported rather than masked.
    """
    net0 = initial_network(m)
    if collect is not None:
        collect.append(net0)
    if strategy == "paper":
        return _paper_verdict(m, net0, depth, collect)
    if strategy != "exhaustive":
        raise ValueError(f"unknown strategy {strategy!r}")

    memo: dict = {}
    visited = 0
    moves = forall_moves if collect is not None else _moves_up_to_permutation

    def survives(net, d):
        nonlocal visited
        if d == 0:
            return True, None
        key = (net.key(), d)
        if key in memo:
            return memo[key]
        visited += 1
        if visited > max_visits:
            raise _BudgetExceeded()
        result = (True, None)
        ordered = d > 1 or collect is not None  # at d == 1 any response wins
        for move in moves(m, net):
            found = False
            for resp in exists_responses(m, net, move, ordered=ordered):
                if collect is not None and resp is not net:
                    collect.append(resp)
                if survives(resp, d - 1)[0]:
                    found = True
                    break
            if not found:
                result = (False, [{"v": list(move.v), "i": move.i, "atom": move.atom}])
                break
        memo[key] = result
        return result

    try:
        ok, trace = survives(net0, depth)
    except _BudgetExceeded:
        return GameVerdict("unknown", depth, None, visited)
    return GameVerdict("survives" if ok else "loses", depth, trace, visited)


def paper_response(m: AgsModel, net: UfNetwork, move: GameMove,
                   round_no: int = 0) -> UfNetwork:
    """One round of the constructed strategy.

    Reuse an existing witness tuple when possible; otherwise add one node,
    give the new witness tuple the demanded atom, and extend the boundary
    patch system.  Any (n-1)-subset left unpatched would need an ultrafilter
    of the set sort containing a copy block but no independent set, which
    does not exist over a finite graph; that raises the precondition failure.
    """
    n = m.n
    v, i, a = move.v, move.i, move.atom
    if _witnessed(net, move):
        return net
    sim_a = m.structure.atoms[a].sim
    assert all(sim_a[i] != sim_a[j] for j in range(n) if j != i), \
        "a collapsed demand always has an existing witness tuple"
    z = max(net.nodes) + 1
    nodes2 = net.nodes + (z,)
    w0 = v[:i] + (z,) + v[i + 1:]
    assign = dict(boundary(net, m).assign)
    for others, point in _demand(m, w0, a).items():
        assert point is not None
        if assign.setdefault(others, point) != point:
            raise AssertionError("patch disagrees with the old boundary")
    remaining = [c for c in itertools.combinations(nodes2, n - 1)
                 if frozenset(c) not in assign]
    if remaining:
        raise _PreconditionFailed(
            round_no,
            "no ultrafilter of the set sort avoids independent sets over a "
            f"finite graph; unpatched subsets: {sorted(map(sorted, remaining))}")
    net2 = network_from_patch(PatchSystem(nodes2, assign), m)
    assert net2.labels[w0] == a
    assert all(net2.labels[t] == lab for t, lab in net.labels.items()), \
        "extension must preserve old labels"
    return net2


def _paper_verdict(m: AgsModel, net0: UfNetwork, depth: int,
                   collect: list | None) -> GameVerdict:
    """Walk the strategy's answers to one class of moves per face
    (_moves_up_to_permutation).  The moves of a class are witnessed
    together, and otherwise name the same patches on w0's node set, so they
    get one answer or one precondition failure.  A walk over every move
    thus meets its first failure at the first move of a class, below first
    moves only: status, round and reason are the same."""
    def walk(net, d, round_no):
        if d == 0:
            return
        for move in _moves_up_to_permutation(m, net):
            net2 = paper_response(m, net, move, round_no)
            if collect is not None and net2 is not net:
                collect.append(net2)
            walk(net2, d - 1, round_no + 1)

    try:
        walk(net0, depth, 0)
    except _PreconditionFailed as exc:
        return GameVerdict("precondition_failed", depth, None,
                           round_failed=exc.round_no, reason=exc.reason)
    return GameVerdict("survives", depth)


def sample_play(m: AgsModel, rounds: int, strategy: str = "exhaustive") -> list[GameState]:
    """One concrete play for trace output: the challenger takes the first
    move each round and the builder answers with her first good response;
    it ends at a round with none, or where the paper strategy's
    precondition fails."""
    net = initial_network(m)
    states = [GameState(0, net)]
    for r in range(rounds):
        moves = _moves_up_to_permutation(m, net)
        if not moves:
            break
        # prefer a challenge no existing tuple witnesses, so the play grows
        # (the first such move is the first of its class)
        move = next((mv for mv in moves if not _witnessed(net, mv)), moves[0])
        try:
            net2 = (paper_response(m, net, move, r) if strategy == "paper"
                    else next(iter(exists_responses(m, net, move))))
        except (_PreconditionFailed, StopIteration):
            break
        states.append(GameState(r + 1, net2,
                                [{"v": list(move.v), "i": move.i, "atom": move.atom}]))
        net = net2
    return states


def network_to_json(net: UfNetwork) -> dict:
    return {
        "n": net.n,
        "nodes": list(net.nodes),
        "labels": {",".join(map(str, k)): v for k, v in sorted(net.labels.items())},
    }


def network_from_json(data: dict, n: int, natoms: int) -> UfNetwork:
    if (not isinstance(data, dict) or not isinstance(data.get("labels"), dict)
            or not isinstance(data.get("nodes"), list)
            or any(type(v) is not int for v in data["nodes"])
            or len(set(data["nodes"])) < len(data["nodes"])):
        raise ValueError("network JSON needs a 'nodes' list of distinct integers "
                         "and a 'labels' object")
    labels = {}
    for key, value in data["labels"].items():
        t = tuple(int(part) for part in key.split(","))
        if len(t) != n:
            raise ValueError(f"label key {key!r} has wrong arity")
        if not set(t) <= set(data["nodes"]):
            raise ValueError(f"label key {key!r} names a node outside 'nodes'")
        if t in labels:
            raise ValueError(f"label key {key!r} names the tuple {t} a second time")
        if type(value) is not int or not 0 <= value < natoms:
            raise ValueError(f"label {value!r} at {key!r} is no atom index below {natoms}")
        labels[t] = value
    return UfNetwork(n, tuple(data["nodes"]), labels)
