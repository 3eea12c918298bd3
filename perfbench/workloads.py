"""The benchmark's workloads, each driven through the functions the CLI calls.

A workload has a set-up phase (what every CLI invocation builds before its
first check), a run phase (the timed checks, game or chain) and a verify step
that checks every output against values pinned at the seed commit.  Verify
returns the checks made and a canonical payload: the job's reports or verdict
with timing stripped, which must be byte-identical between two jobs on the
same seed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable

from graphbao import ags, atoms, bao, duality, equations, networks
from graphbao.cli import builtin_graphs
from graphbao.graph import VertexMap

# atom count and golden_hash of each structure a workload enumerates
GOLDEN = {
    ("P3", 3): (730, "eac8bf946336274af7b50fc23c5ee3d7d9d9ded10e3b0770a1ae54934c12506d"),
    ("K2", 4): (4144, "299276c810d48791db6e267c7e898aa2980567b784a31aa214f3292070353a10"),
    ("K2", 3): (229, "05159565691449c6f41f1559b4d7a97aeb38fb115a20ff84a44f95d59f97f36b"),
    ("C3", 3): (748, "3d1a18b742f9f9275bf1223ec323f0f361a5fa16dc2a1624a436adce66a8ad41"),
    ("C6", 3): (5671, "b1d625b752bebff521a778a43546e40f95da544091c9ce3fc6e53e0ccb922619"),
    ("K1", 3): (34, "0bd8160f29277b4718062d2ac08adab8259cfd2946cbbe9dc02da239e0c16f2a"),
}

# check-P3 sample counts: the exhaustive projection suite (~12 s on P3) is
# fixed, so these keep a job near 15 s while the c/s kernels stay busy
CA_SAMPLES = 50
AGS_SAMPLES = 20
GAME_DEPTH = 2
CHAIN_ATOM_BOUND = 6000


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable[[int], object]
    run: Callable[[object, int], object]
    verify: Callable[[object, object], tuple[list[tuple[str, bool]], str]]
    # timed set-up samples per job, each from scratch: a short set-up repeats
    # so that the job's median is steady, and one far below a millisecond is
    # timed in blocks of setup_batch, one sample being the block's mean
    setup_repeats: int
    setup_batch: int = 1


def golden_checks(structure: atoms.AtomStructure, graph_name: str) -> list[tuple[str, bool]]:
    count, digest = GOLDEN[(graph_name, structure.n)]
    return [(f"{graph_name} n={structure.n}: {count} atoms", len(structure) == count),
            (f"{graph_name} n={structure.n}: golden hash", structure.golden_hash() == digest)]


def report_checks(reports) -> tuple[list[tuple[str, bool]], str]:
    checks = [(f"{r.title}: {item.name}", item.status == "pass")
              for r in reports for item in r.items]
    checks += [(f"{r.title}: has items", bool(r.items)) for r in reports]
    return checks, "\n".join(r.to_json(strip_timing=True) for r in reports)


# check-P3 -------------------------------------------------------------------

def _model(graph_name: str):
    def setup(seed: int):
        return ags.build_model(builtin_graphs(graph_name), 3)
    return setup


def _run_checks(model, seed: int):
    return [equations.check_ca_axioms(model.algebra, seed, CA_SAMPLES),
            equations.check_discriminator(model.algebra, seed),
            ags.run_suite(model, "all", seed, samples=AGS_SAMPLES)]


def _verify_checks(model, reports):
    checks, payload = report_checks(reports)
    return golden_checks(model.structure, "P3") + checks, payload


# build-K2n4 -----------------------------------------------------------------

def _setup_tables(seed: int):
    structure = atoms.enumerate_atoms(builtin_graphs("K2"), 4)
    return bao.complex_algebra(structure)


def _run_canext(algebra, seed: int):
    ext, witness = algebra.canonical_extension()
    return ext.rel.same_structure(algebra.rel), len(witness), len(ext.rel.subst_tables)


def _verify_canext(algebra, result):
    same, witness_size, maps = result
    checks = golden_checks(algebra.atom_structure, "K2") + [
        ("canonical extension is the same structure", same is True),
        ("witness covers every atom", witness_size == algebra.natoms),
        ("one substitution table per map", maps == 4 ** 4),
    ]
    return checks, json.dumps({"same": same, "witness": witness_size, "maps": maps})


# game-K2d2 ------------------------------------------------------------------

def _run_game(model, seed: int):
    return networks.exists_survives(model, GAME_DEPTH, strategy="exhaustive")


def _verify_game(model, verdict):
    checks = golden_checks(model.structure, "K2") + [
        ("game verdict is survives", verdict.status == "survives"),
        ("game visited 8 positions", verdict.visited == 8),
    ]
    payload = {"status": verdict.status, "depth": verdict.depth,
               "visited": verdict.visited, "trace": verdict.trace}
    return checks, json.dumps(payload, sort_keys=True)


# chain-C6C3 -----------------------------------------------------------------

def _chain_json() -> str:
    c3, c6 = builtin_graphs("C3"), builtin_graphs("C6")
    chain = duality.GraphChain([c3, c6], [VertexMap(c6, c3, (0, 1, 2, 0, 1, 2))])
    return json.dumps(duality.chain_to_json(chain))


CHAIN_JSON = _chain_json()


def _setup_chain(seed: int):
    return duality.chain_from_json(json.loads(CHAIN_JSON))


def _run_chain(chain, seed: int):
    return [duality.check_chain(chain, 3, seed, max_atoms=CHAIN_ATOM_BOUND)]


def _verify_chain(chain, reports):
    # check_chain enumerates inside; enumerate again, untimed, to pin the goldens
    checks = []
    for name, stage in zip(("C3", "C6"), chain.stages):
        checks += golden_checks(atoms.enumerate_atoms(stage, 3, CHAIN_ATOM_BOUND), name)
    report_list, payload = report_checks(reports)
    return checks + report_list, payload


WORKLOADS = {w.name: w for w in (
    Workload("check-P3", _model("P3"), _run_checks, _verify_checks, 5),
    Workload("build-K2n4", _setup_tables, _run_canext, _verify_canext, 1),
    Workload("game-K2d2", _model("K2"), _run_game, _verify_game, 10),
    Workload("chain-C6C3", _setup_chain, _run_chain, _verify_chain, 20, setup_batch=200),
)}


# self-check ------------------------------------------------------------------

def _setup_k1(seed: int):
    k1 = builtin_graphs("K1")
    model = ags.build_model(k1, 3)
    chain = duality.GraphChain([k1, k1], [VertexMap(k1, k1, (0,))])
    return model, chain


def _run_k1(state, seed: int):
    """Every traced layer on the 34-atom K1 structure, in well under a second."""
    model, chain = state
    algebra = model.algebra
    reports = [equations.check_ca_axioms(algebra, seed, 5),
               equations.check_pea_axioms(algebra, seed, 30),
               ags.run_suite(model, "all", seed, samples=5),
               duality.check_chain(chain, 3, seed, samples=5)]
    verdict = networks.exists_survives(model, 1)
    same = algebra.canonical_extension()[0].rel.same_structure(algebra.rel)
    return reports, verdict.status, same


def _verify_k1(state, result):
    reports, status, same = result
    checks, payload = report_checks(reports)
    checks += golden_checks(state[0].structure, "K1")
    checks += [("K1 game survives", status == "survives"),
               ("K1 canonical extension", same is True)]
    return checks, payload + status


SELF_CHECK = Workload("self-check-K1", _setup_k1, _run_k1, _verify_k1, 1)
