"""Command-line entry point wiring every module together.

Subcommands mirror the module layout: graph, atoms, bao, ags, net, game,
dual, suite.  Exit code 0 means every requested check passed, 1 means a
counterexample or failed certificate, 2 means usage or resource trouble, and
141 (128 + SIGPIPE, as a shell reports) means stdout was closed early.
Reports embed the effective configuration so any counterexample can be
replayed from the report alone; timing fields are excluded from the
determinism contract.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import __version__
from . import ags as ags_mod
from . import duality, equations, networks
from .atoms import enumerate_atoms, DEFAULT_ATOM_BOUND
from .bao import complex_algebra
from .errors import InfeasibleError, SizeLimitError
from .graph import (Graph, chromatic_number, complete_graph, cycle_graph,
                    disjoint_union, girth, graph_from_json, graph_to_dot,
                    graph_to_json, inflate, mycielskian, path_graph,
                    search_high_girth_chromatic)
from .report import Report

CONFIG_ENV = "GRAPHBAO_CONFIG"
EXIT_BROKEN_PIPE = 141
OUTPUT_FORMATS = ("json", "text")

DEFAULTS = {
    "n": 3,
    "seed": 1,
    "atom_bound": DEFAULT_ATOM_BOUND,
    "sample_count": 10000,
    "output": "text",
    "depth": 1,
}

ALIASES = {"single-vertex": "K1", "singleton": "K1", "triangle": "C3"}


def builtin_graphs(name: str) -> Graph:
    """Named graphs with a fixed vertex numbering."""
    key = ALIASES.get(name, name)
    if key.startswith("K") and key[1:].isdigit():
        m = int(key[1:])
        if 1 <= m <= 6:
            return complete_graph(m)
    if key.startswith("C") and key[1:].isdigit():
        m = int(key[1:])
        if 3 <= m <= 12:
            return cycle_graph(m)
    if key.startswith("P") and key[1:].isdigit():
        m = int(key[1:])
        if 2 <= m <= 6:
            return path_graph(m)
    if key == "petersen":
        outer = [(i, (i + 1) % 5) for i in range(5)]
        inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
        spokes = [(i, 5 + i) for i in range(5)]
        return Graph.from_edges(10, outer + inner + spokes)
    if key == "grotzsch":
        return mycielskian(cycle_graph(5))
    raise KeyError(f"unknown builtin graph {name!r}")


def _refuse_repeated_keys(pairs: list) -> dict:
    out = {}
    for key, value in pairs:
        if key in out:
            raise ValueError(f"repeated key {key!r} in a JSON object")
        out[key] = value
    return out


def load_json(path: str):
    """The JSON document in the file; ValueError on a repeated object key,
    which json.load would resolve silently to the last value."""
    with open(path) as handle:
        return json.load(handle, object_pairs_hook=_refuse_repeated_keys)


def load_graph(value: str) -> Graph:
    try:
        return builtin_graphs(value)
    except KeyError:
        pass
    if os.path.exists(value):
        return graph_from_json(load_json(value))
    raise FileNotFoundError(f"{value!r} is neither a builtin graph nor a file")


def graph_arg(args) -> str:
    """Graph given either positionally or through --graph."""
    value = getattr(args, "graph", None) or getattr(args, "graph_pos", None)
    if not value:
        raise ValueError("no graph given; pass one positionally or with --graph")
    return value


def load_config(args) -> dict:
    config = dict(DEFAULTS)
    path = getattr(args, "config", None) or os.environ.get(CONFIG_ENV)
    if path:
        overrides = load_json(path)
        if not isinstance(overrides, dict):
            raise ValueError(f"config file {path!r} must hold a JSON object")
        for key in overrides:
            if key not in DEFAULTS:
                raise ValueError(f"unknown config field {key!r}")
        config.update(overrides)
    for key in DEFAULTS:
        value = getattr(args, key, None)
        if value is not None:
            config[key] = value
    for key in ("n", "seed", "atom_bound", "sample_count", "depth"):
        if type(config[key]) is not int:  # a bool is no integer here
            raise ValueError(f"{key} must be an integer, not {config[key]!r}")
    if not 3 <= config["n"] <= 5:
        raise ValueError("dimension must be between 3 and 5")
    if config["atom_bound"] <= 0 or config["sample_count"] <= 0:
        raise ValueError("bounds must be positive")
    if config["depth"] < 0:
        raise ValueError(f"depth must be a non-negative integer, not {config['depth']!r}")
    if config["output"] not in OUTPUT_FORMATS:
        raise ValueError(f"output must be one of {OUTPUT_FORMATS}, not {config['output']!r}")
    return config


def emit(report: Report, config: dict) -> None:
    # the run's config replaces the report's, except for a note on how it ran
    notes = {key: report.config[key] for key in ("subalgebra",) if key in report.config}
    report.config = {**config, **notes, "version": __version__}
    if config["output"] == "json":
        print(report.to_json())
    else:
        for item in report.items:
            line = f"[{item.status.upper():4}] {item.name}"
            if item.status != "pass" and item.detail:
                line += f"  {json.dumps(item.detail, sort_keys=True, default=str)}"
            print(line)
        print(f"{report.title}: {'ok' if report.ok else 'FAILED'}")


def emit_payload(payload: dict, config: dict) -> None:
    if config["output"] == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for key, value in payload.items():
            print(f"{key}: {value}")


# subcommand handlers ---------------------------------------------------------

def cmd_graph(args, config) -> int:
    if args.graph_cmd == "search":
        return cmd_graph_search(args, config)
    g = load_graph(graph_arg(args))
    if args.graph_cmd == "chi":
        chi, witness = chromatic_number(g)
        emit_payload({"chi": chi, "coloring": list(witness)}, config)
        return 0
    if args.graph_cmd == "girth":
        emit_payload({"girth": girth(g)}, config)
        return 0
    if args.graph_cmd == "inflate":
        emit_payload(graph_to_json(inflate(g, config["n"])), config)
        return 0
    if args.graph_cmd == "mycielski":
        emit_payload(graph_to_json(mycielskian(g)), config)
        return 0
    if args.graph_cmd == "union":
        h = load_graph(args.other)
        emit_payload(graph_to_json(disjoint_union(g, h)), config)
        return 0
    if args.graph_cmd == "dot":
        print(graph_to_dot(g))
        return 0


def cmd_graph_search(args, config) -> int:
    found = search_high_girth_chromatic(args.girth, args.chi, budget=args.budget,
                                        seed=config["seed"])
    if found is None:
        emit_payload({"found": False, "budget": args.budget}, config)
        return 1
    payload = graph_to_json(found)
    payload["found"] = True
    payload["girth"] = girth(found)
    payload["chi"] = chromatic_number(found)[0]
    emit_payload(payload, config)
    return 0


def cmd_atoms(args, config) -> int:
    g = load_graph(graph_arg(args))
    structure = enumerate_atoms(g, config["n"], max_atoms=config["atom_bound"])
    if args.count_only:
        emit_payload({"atoms": len(structure), "hash": structure.golden_hash()}, config)
    else:
        payload = {"atoms": len(structure), "hash": structure.golden_hash(),
                   "list": [structure.atom_to_json(a) for a in structure.atoms]}
        emit_payload(payload, config)
    return 0


def _build_algebra(args, config):
    g = load_graph(graph_arg(args))
    structure = enumerate_atoms(g, config["n"], max_atoms=config["atom_bound"])
    return complex_algebra(structure, getattr(args, "signature", "PEA"))


def cmd_bao(args, config) -> int:
    if args.bao_cmd == "build":
        algebra = _build_algebra(args, config)
        emit_payload({"atoms": algebra.natoms, "signature": algebra.signature,
                      "dimension": algebra.n}, config)
        return 0
    if args.bao_cmd == "check":
        algebra = _build_algebra(args, config)
        if args.axioms == "ca":
            report = equations.check_ca_axioms(algebra, config["seed"],
                                               config["sample_count"])
        elif args.axioms == "pea":
            report = equations.check_pea_axioms(algebra, config["seed"],
                                                config["sample_count"])
        else:
            with open(args.axioms) as handle:
                eqs = equations.parse_equations(handle.read(), algebra.n)
            if not eqs:
                raise ValueError(f"{args.axioms!r} holds no equation to check")
            report = equations.check_axiom_suite(algebra, eqs, config["seed"],
                                                 config["sample_count"])
        emit(report, config)
        return 0 if report.ok else 1
    if args.bao_cmd == "discriminator":
        algebra = _build_algebra(args, config)
        report = equations.check_discriminator(algebra, config["seed"])
        emit(report, config)
        return 0 if report.ok else 1
    if args.bao_cmd == "canext":
        algebra = _build_algebra(args, config)
        report = Report("canonical-extension")
        ext, witness = algebra.canonical_extension()
        same = ext.rel.same_structure(algebra.rel)
        report.add("extension is isomorphic under the identity witness", same,
                   {"atoms": algebra.natoms, "witness": "identity on atom indices",
                    "witness_size": len(witness)})
        emit(report, config)
        return 0 if report.ok else 1


def cmd_ags(args, config) -> int:
    g = load_graph(graph_arg(args))
    model = ags_mod.build_model(g, config["n"], atom_bound=config["atom_bound"])
    if args.ags_cmd == "build":
        emit_payload({"atoms": model.algebra.natoms,
                      "vertices": model.vertex_count,
                      "blocks": len(model.h_masks)}, config)
        return 0
    if args.ags_cmd == "theta":
        value = ags_mod.theta(model, args.k)
        emit_payload({"k": args.k, "theta": value,
                      "chi_inflated": model.chi_inflated}, config)
        return 0
    if args.ags_cmd == "suite":
        report = ags_mod.run_suite(model, args.which, config["seed"],
                                   samples=min(config["sample_count"], 300))
        emit(report, config)
        return 0 if report.ok else 1


def cmd_net(args, config) -> int:
    g = load_graph(args.graph)
    model = ags_mod.build_model(g, config["n"], atom_bound=config["atom_bound"])
    net = networks.network_from_json(load_json(args.network), config["n"],
                                     model.algebra.natoms)
    report = Report("network-validation")
    # the boundary of an invalid network is undefined: report why instead
    violations = networks.validate_network(net, model, args.mode)
    if args.net_cmd == "validate" or violations:
        report.add(f"{args.mode} conditions", not violations,
                   {"violations": violations[:5]} if violations else None)
        emit(report, config)
        return 0 if not violations else 1
    if args.net_cmd == "boundary":
        patch = networks.boundary(net, model)
        payload = {"nodes": list(patch.nodes),
                   "patches": {"+".join(map(str, sorted(k))): v
                               for k, v in sorted(patch.assign.items(),
                                                  key=lambda kv: sorted(kv[0]))}}
        # coherence of game boundaries is only promised under a conservative
        # chromatic margin of 2n; report both so the caveat travels along
        payload["coherent"] = networks.patch_system_coherent(patch, model)
        payload["theta_margin_2n"] = ags_mod.theta(model, 2 * config["n"])
        emit_payload(payload, config)
        return 0


def cmd_game(args, config) -> int:
    g = load_graph(graph_arg(args))
    model = ags_mod.build_model(g, config["n"], atom_bound=config["atom_bound"])
    verdict = networks.exists_survives(model, config["depth"], strategy=args.strategy)
    payload = {"status": verdict.status, "depth": verdict.depth,
               "visited": verdict.visited}
    if verdict.status == "precondition_failed":
        payload["round"] = verdict.round_failed
        payload["reason"] = verdict.reason
    if verdict.trace:
        payload["trace"] = verdict.trace
    if args.trace:
        states = networks.sample_play(model, config["depth"], args.strategy)
        payload["play"] = [
            {"round": s.round, "moves": s.history,
             "network": networks.network_to_json(s.network)} for s in states]
    emit_payload(payload, config)
    return 0 if verdict.status in ("survives", "precondition_failed") else 1


def cmd_dual(args, config) -> int:
    if args.dual_cmd == "lift":
        source = load_graph(args.source)
        target = load_graph(args.target)
        mapping = tuple(int(part) for part in args.map.split(","))
        from .graph import VertexMap
        f = VertexMap(source, target, mapping)
        lifted = duality.lift(f, config["n"], config["atom_bound"])
        report = duality.validate_atom_pmorphism(lifted)
        emit(report, config)
        return 0 if report.ok else 1
    if args.dual_cmd == "check-chain":
        chain = duality.chain_from_json(load_json(args.chain))
        report = duality.check_chain(chain, config["n"], config["seed"],
                                     samples=min(config["sample_count"], 300),
                                     max_atoms=config["atom_bound"])
        emit(report, config)
        return 0 if report.ok else 1


def cmd_suite(args, config) -> int:
    """Composite of the module suites on one graph."""
    g = load_graph(graph_arg(args))
    report = Report("suite-all")

    chi, witness = chromatic_number(g)
    from .graph import brute_force_chromatic, is_proper_coloring
    ok = is_proper_coloring(g, witness, chi)
    if g.vertex_count <= 7:
        ok = ok and brute_force_chromatic(g)[0] == chi
    report.add("graph: exact coloring agrees with the oracle", ok, {"chi": chi})

    model = ags_mod.build_model(g, config["n"], atom_bound=config["atom_bound"])
    report.add("atoms: enumeration within bound", True,
               {"atoms": model.algebra.natoms, "hash": model.structure.golden_hash()})

    samples = min(config["sample_count"], 2000)
    ca = equations.check_ca_axioms(model.algebra, config["seed"], samples)
    report.add("bao: cylindric axioms", ca.ok,
               None if ca.ok else ca.first_failure().to_dict())
    disc = equations.check_discriminator(model.algebra, config["seed"])
    report.add("bao: discriminator", disc.ok)
    ext, _witness = model.algebra.canonical_extension()
    report.add("bao: canonical extension fixed point",
               ext.rel.same_structure(model.algebra.rel))

    suite = ags_mod.run_suite(model, "all", config["seed"],
                              samples=min(config["sample_count"], 200))
    report.add("ags: property suites", suite.ok,
               None if suite.ok else suite.first_failure().to_dict())

    verdict = networks.exists_survives(model, min(config["depth"], 1))
    report.add("game: bounded verdict computed", verdict.status == "survives",
               {"status": verdict.status})

    ident = duality.identity_pmorphism(model.structure)
    back = duality.dual_surjection(duality.dual_embedding(ident))
    report.add("duality: identity round-trip", back.mapping == ident.mapping)

    emit(report, config)
    return 0 if report.ok else 1


# parser -----------------------------------------------------------------------


def _add_graph_arg(sp):
    sp.add_argument("graph_pos", nargs="?", metavar="graph",
                    help="builtin name or graph JSON file")
    sp.add_argument("--graph")

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="graphbao",
                                     description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=__version__)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON config file")
    common.add_argument("--n", type=int, help="dimension (3..5)")
    common.add_argument("--seed", type=int, help="random seed")
    common.add_argument("--atom-bound", dest="atom_bound", type=int)
    common.add_argument("--samples", dest="sample_count", type=int)
    common.add_argument("--depth", type=int)
    common.add_argument("--output", choices=OUTPUT_FORMATS)

    sub = parser.add_subparsers(dest="command", required=True)

    p_graph = sub.add_parser("graph", parents=[common])
    graph_sub = p_graph.add_subparsers(dest="graph_cmd", required=True)
    for verb in ("chi", "girth", "inflate", "mycielski", "dot"):
        sp = graph_sub.add_parser(verb, parents=[common])
        _add_graph_arg(sp)
    sp = graph_sub.add_parser("union", parents=[common])
    _add_graph_arg(sp)
    sp.add_argument("--other", required=True)
    sp = graph_sub.add_parser("search", parents=[common])
    sp.add_argument("--girth", type=int, required=True)
    sp.add_argument("--chi", type=int, required=True)
    sp.add_argument("--budget", type=int, default=64)

    p_atoms = sub.add_parser("atoms", parents=[common])
    atoms_sub = p_atoms.add_subparsers(dest="atoms_cmd", required=True)
    sp = atoms_sub.add_parser("enumerate", parents=[common])
    _add_graph_arg(sp)
    sp.add_argument("--count-only", action="store_true")

    p_bao = sub.add_parser("bao", parents=[common])
    bao_sub = p_bao.add_subparsers(dest="bao_cmd", required=True)
    for verb in ("build", "discriminator", "canext", "check"):
        sp = bao_sub.add_parser(verb, parents=[common])
        _add_graph_arg(sp)
        sp.add_argument("--signature", default="PEA",
                        choices=["Df", "CA", "PA", "PEA"])
    sp.add_argument("--axioms", default="ca",
                    help="'ca', 'pea', or a path to an equation file")

    p_ags = sub.add_parser("ags", parents=[common])
    ags_sub = p_ags.add_subparsers(dest="ags_cmd", required=True)
    sp = ags_sub.add_parser("build", parents=[common])
    _add_graph_arg(sp)
    sp = ags_sub.add_parser("theta", parents=[common])
    _add_graph_arg(sp)
    sp.add_argument("--k", type=int, required=True)
    sp = ags_sub.add_parser("suite", parents=[common])
    sp.add_argument("which", choices=["rs", "proj", "subst", "all"])
    _add_graph_arg(sp)

    p_net = sub.add_parser("net", parents=[common])
    net_sub = p_net.add_subparsers(dest="net_cmd", required=True)
    for verb in ("validate", "boundary"):
        sp = net_sub.add_parser(verb, parents=[common])
        sp.add_argument("network", help="network JSON file")
        sp.add_argument("--graph", required=True)
        if verb == "validate":
            sp.add_argument("--mode", default="polyadic",
                            choices=["cylindric", "polyadic"])
        else:  # the boundary is defined on polyadic networks only
            sp.set_defaults(mode="polyadic")

    p_game = sub.add_parser("game", parents=[common])
    game_sub = p_game.add_subparsers(dest="game_cmd", required=True)
    sp = game_sub.add_parser("run", parents=[common])
    _add_graph_arg(sp)
    sp.add_argument("--strategy", default="exhaustive",
                    choices=["exhaustive", "paper"])
    sp.add_argument("--trace", action="store_true")

    p_dual = sub.add_parser("dual", parents=[common])
    dual_sub = p_dual.add_subparsers(dest="dual_cmd", required=True)
    sp = dual_sub.add_parser("lift", parents=[common])
    sp.add_argument("--source", required=True)
    sp.add_argument("--target", required=True)
    sp.add_argument("--map", required=True,
                    help="comma-separated target vertex per source vertex")
    sp = dual_sub.add_parser("check-chain", parents=[common])
    sp.add_argument("chain", help="chain JSON file")

    p_suite = sub.add_parser("suite", parents=[common])
    suite_sub = p_suite.add_subparsers(dest="suite_cmd", required=True)
    sp = suite_sub.add_parser("all", parents=[common])
    _add_graph_arg(sp)

    return parser


HANDLERS = {
    "graph": cmd_graph,
    "atoms": cmd_atoms,
    "bao": cmd_bao,
    "ags": cmd_ags,
    "net": cmd_net,
    "game": cmd_game,
    "dual": cmd_dual,
    "suite": cmd_suite,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = load_config(args)
        code = HANDLERS[args.command](args, config)
        sys.stdout.flush()  # a closed pipe then shows up here, not at exit
        return code
    except BrokenPipeError:
        # the reader of stdout went away (say `| head`): drop what is left
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except (SizeLimitError, InfeasibleError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
