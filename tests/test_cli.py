import json

import pytest

from graphbao import cli, duality
from graphbao.graph import graph_from_json, mycielskian, cycle_graph


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBuiltins:
    def test_named_graphs(self):
        assert cli.builtin_graphs("K1").vertex_count == 1
        assert cli.builtin_graphs("single-vertex").vertex_count == 1
        assert cli.builtin_graphs("petersen").edge_count() == 15
        assert cli.builtin_graphs("P4").edge_count() == 3
        grotzsch = cli.builtin_graphs("grotzsch")
        assert grotzsch.adj == mycielskian(cycle_graph(5)).adj

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            cli.builtin_graphs("K99")


class TestGraphVerbs:
    def test_chi(self, capsys):
        code, out, _ = run_cli(capsys, "graph", "chi", "--graph", "K4")
        assert code == 0 and "chi: 4" in out

    def test_girth_json_null(self, capsys):
        code, out, _ = run_cli(capsys, "graph", "girth", "--graph", "P4",
                               "--output", "json")
        assert code == 0 and json.loads(out)["girth"] is None

    def test_inflate_layout(self, capsys):
        code, out, _ = run_cli(capsys, "graph", "inflate", "--graph", "K2",
                               "--n", "3", "--output", "json")
        data = json.loads(out)
        assert code == 0 and data["vertices"] == 6
        assert graph_from_json(data).edge_count() == 15

    def test_mycielski(self, capsys):
        code, out, _ = run_cli(capsys, "graph", "mycielski", "--graph", "C5",
                               "--output", "json")
        assert code == 0 and json.loads(out)["vertices"] == 11

    def test_search_found(self, capsys):
        code, out, _ = run_cli(capsys, "graph", "search", "--girth", "4",
                               "--chi", "4", "--seed", "1", "--output", "json")
        data = json.loads(out)
        assert code == 0 and data["found"] and data["chi"] >= 4

    def test_search_not_found_exit_one(self, capsys):
        code, out, _ = run_cli(capsys, "graph", "search", "--girth", "5",
                               "--chi", "4", "--budget", "2", "--seed", "1",
                               "--output", "json")
        assert code == 1 and json.loads(out)["found"] is False

    def test_union(self, capsys):
        code, out, _ = run_cli(capsys, "graph", "union", "--graph", "C3",
                               "--other", "C5", "--output", "json")
        data = json.loads(out)
        assert code == 0 and data["vertices"] == 8 and len(data["edges"]) == 8

    def test_dot(self, capsys):
        code, out, _ = run_cli(capsys, "graph", "dot", "--graph", "K2")
        assert code == 0 and "0 -- 1;" in out


class TestAtomsVerb:
    def test_count_only(self, capsys):
        code, out, _ = run_cli(capsys, "atoms", "enumerate", "--graph", "K1",
                               "--count-only", "--output", "json")
        data = json.loads(out)
        assert code == 0 and data["atoms"] == 34

    def test_full_listing(self, capsys):
        code, out, _ = run_cli(capsys, "atoms", "enumerate", "--graph", "K1",
                               "--output", "json")
        data = json.loads(out)
        assert len(data["list"]) == 34
        assert data["list"][0] == {"sim": [0, 0, 0], "K": [None, None, None]}

    def test_atom_bound_resource_error(self, capsys):
        code, _, err = run_cli(capsys, "atoms", "enumerate", "--graph", "C6",
                               "--atom-bound", "100")
        assert code == 2 and "bound" in err


class TestBaoVerbs:
    def test_build(self, capsys):
        code, out, _ = run_cli(capsys, "bao", "build", "--graph", "K1",
                               "--output", "json")
        assert code == 0 and json.loads(out)["atoms"] == 34

    def test_check_ca(self, capsys):
        code, out, _ = run_cli(capsys, "bao", "check", "--graph", "K1",
                               "--axioms", "ca", "--samples", "200", "--seed", "1")
        assert code == 0 and "FAILED" not in out

    def test_check_times_every_item(self, capsys):
        code, out, _ = run_cli(capsys, "bao", "check", "--graph", "K1",
                               "--axioms", "ca", "--samples", "50", "--seed", "1",
                               "--output", "json")
        items = json.loads(out)["items"]
        assert code == 0 and len(items) > 1
        assert all(item["seconds"] > 0 for item in items)

    def test_check_false_axiom_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.eqn"
        bad.write_text("BAD forall i : (= (c i x) x)\n")
        code, out, _ = run_cli(capsys, "bao", "check", "--graph", "K1",
                               "--axioms", str(bad), "--samples", "500",
                               "--seed", "1", "--output", "json")
        data = json.loads(out)
        assert code == 1
        failing = [i for i in data["items"] if i["status"] == "fail"]
        assert failing and "counterexample" in failing[0]["detail"]

    @pytest.mark.parametrize("text", ["bad: (= x\n", ": (= x x)\n"],
                             ids=["unbalanced", "empty-head"])
    def test_malformed_axiom_file_is_usage_error(self, capsys, tmp_path, text):
        bad = tmp_path / "bad.eqn"
        bad.write_text(text)
        code, out, err = run_cli(capsys, "bao", "check", "K1", "--axioms", str(bad))
        assert code == 2 and out == ""
        assert err.startswith("error:") and "equation line" in err and err.count("\n") == 1

    @pytest.mark.parametrize("text", ["", "# only a comment\n\n", "A forall i | i!=i : (= x x)\n"],
                             ids=["empty", "comments-only", "no-instance"])
    def test_axiom_file_without_equations_is_usage_error(self, capsys, tmp_path, text):
        # checking nothing must not read as "axiom-suite: ok"
        empty = tmp_path / "empty.eqn"
        empty.write_text(text)
        code, out, err = run_cli(capsys, "bao", "check", "K1", "--axioms", str(empty))
        assert code == 2 and out == ""
        assert err.startswith("error:") and "no equation" in err and err.count("\n") == 1

    def test_oversized_schema_is_usage_error(self, capsys, tmp_path):
        # 3^20 index assignments: refused before any is instantiated
        names = " ".join(f"i{k}" for k in range(20))
        big = tmp_path / "big.eqn"
        big.write_text(f"huge forall {names} : (= (c i0 x) (c i19 x))\n")
        code, out, err = run_cli(capsys, "bao", "check", "K1", "--axioms", str(big))
        assert code == 2 and out == ""
        assert err.startswith("error:") and "more than" in err and err.count("\n") == 1

    def test_check_keeps_the_unavailable_subalgebra_marker(self, capsys):
        # at n = 4 even the constants-only subalgebra overflows the cap
        code, out, _ = run_cli(capsys, "bao", "check", "K1", "--n", "4", "--axioms", "ca",
                               "--samples", "20", "--output", "json")
        data = json.loads(out)
        assert code == 0 and data["config"]["subalgebra"] == "unavailable"
        assert {item["detail"]["mode"] for item in data["items"]} == {"sampled"}

    def test_check_pea(self, capsys):
        code, out, _ = run_cli(capsys, "bao", "check", "--graph", "K1",
                               "--axioms", "pea", "--samples", "600", "--seed", "1")
        assert code == 0 and "FAILED" not in out

    def test_discriminator(self, capsys):
        code, _, _ = run_cli(capsys, "bao", "discriminator", "--graph", "K2")
        assert code == 0

    def test_canext(self, capsys):
        code, out, _ = run_cli(capsys, "bao", "canext", "--graph", "K1",
                               "--output", "json")
        data = json.loads(out)
        assert code == 0 and data["items"][0]["status"] == "pass"
        assert data["items"][0]["seconds"] > 0


class TestAgsVerbs:
    def test_build(self, capsys):
        code, out, _ = run_cli(capsys, "ags", "build", "--graph", "K1",
                               "--output", "json")
        data = json.loads(out)
        assert code == 0 and data["blocks"] == 3

    def test_theta(self, capsys):
        code, out, _ = run_cli(capsys, "ags", "theta", "--graph", "K1", "--k", "2")
        assert code == 0 and "theta: True" in out

    def test_suites(self, capsys):
        for which in ("rs", "proj", "subst", "all"):
            code, _, _ = run_cli(capsys, "ags", "suite", which, "--graph", "K1",
                                 "--samples", "60", "--seed", "1")
            assert code == 0


class TestNetAndGameVerbs:
    def test_game_run_exhaustive(self, capsys):
        code, out, _ = run_cli(capsys, "game", "run", "--graph", "K1",
                               "--depth", "1", "--output", "json")
        data = json.loads(out)
        assert code == 0 and data["status"] == "survives"

    def test_game_run_paper_failure_reported(self, capsys):
        code, out, _ = run_cli(capsys, "game", "run", "--graph", "K1",
                               "--depth", "2", "--strategy", "paper",
                               "--output", "json")
        data = json.loads(out)
        assert code == 0
        assert data["status"] == "precondition_failed" and data["round"] == 1

    def test_game_trace(self, capsys):
        code, out, _ = run_cli(capsys, "game", "run", "--graph", "K1",
                               "--depth", "1", "--trace", "--output", "json")
        data = json.loads(out)
        assert code == 0 and len(data["play"]) >= 1

    def test_game_trace_ends_where_paper_precondition_fails(self, capsys):
        code, out, _ = run_cli(capsys, "game", "run", "--graph", "K1",
                               "--depth", "2", "--strategy", "paper", "--trace",
                               "--output", "json")
        data = json.loads(out)
        assert code == 0
        assert data["status"] == "precondition_failed" and data["round"] == 1
        assert [state["round"] for state in data["play"]] == [0, 1]

    def test_net_validate_and_boundary(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "game", "run", "--graph", "K1",
                               "--depth", "1", "--trace", "--output", "json")
        play = json.loads(out)["play"]
        net_file = tmp_path / "net.json"
        net_file.write_text(json.dumps(play[-1]["network"]))
        code, out, _ = run_cli(capsys, "net", "validate", str(net_file),
                               "--graph", "K1", "--mode", "polyadic")
        assert code == 0
        code, out, _ = run_cli(capsys, "net", "boundary", str(net_file),
                               "--graph", "K1", "--output", "json")
        data = json.loads(out)
        assert code == 0 and data["patches"]
        assert "coherent" in data and "theta_margin_2n" in data
        # the boundary is defined on polyadic networks only: no --mode
        with pytest.raises(SystemExit) as exc:
            cli.main(["net", "boundary", str(net_file), "--graph", "K1",
                      "--mode", "cylindric"])
        assert exc.value.code == 2

    def test_net_validate_rejects_corrupt(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "game", "run", "--graph", "K1",
                               "--depth", "1", "--trace", "--output", "json")
        network = json.loads(out)["play"][-1]["network"]
        first_key = sorted(network["labels"])[0]
        network["labels"][first_key] = (network["labels"][first_key] + 1) % 34
        net_file = tmp_path / "bad.json"
        net_file.write_text(json.dumps(network))
        code, _, _ = run_cli(capsys, "net", "validate", str(net_file),
                             "--graph", "K1")
        assert code == 1

    @pytest.mark.parametrize("change", ["relabel", "drop"])
    def test_net_boundary_of_invalid_network(self, capsys, tmp_path, change):
        _, out, _ = run_cli(capsys, "game", "run", "--graph", "K1",
                            "--depth", "1", "--trace", "--output", "json")
        network = json.loads(out)["play"][-1]["network"]
        if change == "relabel":
            network["labels"]["0,0,1"] = 2
        else:
            del network["labels"]["0,0,1"]
        net_file = tmp_path / "bad.json"
        net_file.write_text(json.dumps(network))
        code, validated, _ = run_cli(capsys, "net", "validate", str(net_file),
                                     "--graph", "K1", "--output", "json")
        assert code == 1
        code, out, err = run_cli(capsys, "net", "boundary", str(net_file), "--graph", "K1",
                                 "--output", "json")
        assert code == 1 and err == ""
        report = json.loads(out)
        assert report["title"] == "network-validation" and not report["ok"]
        strip = TestPinnedOutput.stripped_digest
        assert strip(out) == strip(validated)

    def test_net_validate_rejects_labels_out_of_range(self, capsys, tmp_path):
        for label in (999, -1):
            net_file = tmp_path / "net.json"
            net_file.write_text(json.dumps(
                {"n": 3, "nodes": [0], "labels": {"0,0,0": label}}))
            code, out, err = run_cli(capsys, "net", "validate", "--graph", "K1",
                                     str(net_file))
            assert code == 2 and out == ""
            assert err.startswith("error:") and str(label) in err
            assert err.count("\n") == 1

    @pytest.mark.parametrize("labels, named", [
        ({"0,0,0": 0, "5,5,5": 3}, "'5,5,5'"),   # a node outside 'nodes'
        ({"0,0,0": 5, " 0,0,0": 0}, "' 0,0,0'"),  # two keys for one tuple
    ])
    def test_net_validate_rejects_bad_label_keys(self, capsys, tmp_path, labels, named):
        net_file = tmp_path / "net.json"
        net_file.write_text(json.dumps({"nodes": [0], "labels": labels}))
        code, out, err = run_cli(capsys, "net", "validate", "--graph", "K1", str(net_file))
        assert code == 2 and out == ""
        assert err.startswith("error:") and named in err and err.count("\n") == 1

    def test_net_validate_rejects_malformed_documents(self, capsys, tmp_path):
        for document in ({"n": 3, "nodes": 5, "labels": {"0,0,0": 0}},
                         [{"0,0,0": 0}],
                         {"n": 3, "nodes": [0], "labels": [0]},
                         {"n": 3, "nodes": [0.5], "labels": {"0,0,0": 0}},
                         {"n": 3, "nodes": [0, 0, 0, 0], "labels": {"0,0,0": 0}}):
            net_file = tmp_path / "net.json"
            net_file.write_text(json.dumps(document))
            code, out, err = run_cli(capsys, "net", "validate", "--graph", "K1",
                                     str(net_file))
            assert code == 2 and out == ""
            assert err.startswith("error:") and err.count("\n") == 1


class TestDualVerbs:
    def test_lift(self, capsys):
        code, _, _ = run_cli(capsys, "dual", "lift", "--source", "C6",
                             "--target", "C3", "--map", "0,1,2,0,1,2",
                             "--atom-bound", "6000")
        assert code == 0

    def test_check_chain(self, capsys, tmp_path):
        chain = {
            "stages": [{"vertices": 3, "edges": [[0, 1], [0, 2], [1, 2]]},
                       {"vertices": 6, "edges": [[0, 1], [0, 5], [1, 2], [2, 3],
                                                 [3, 4], [4, 5]]}],
            "steps": [[0, 1, 2, 0, 1, 2]],
        }
        chain_file = tmp_path / "chain.json"
        chain_file.write_text(json.dumps(chain))
        code, _, _ = run_cli(capsys, "dual", "check-chain", str(chain_file),
                             "--atom-bound", "6000", "--samples", "100")
        assert code == 0

    def test_check_chain_passes_samples(self, capsys, tmp_path, monkeypatch):
        chain = {"stages": [{"vertices": 1, "edges": []}] * 2, "steps": [[0]]}
        chain_file = tmp_path / "chain.json"
        chain_file.write_text(json.dumps(chain))
        seen = []
        real = duality.validate_embedding

        def recording(emb, seed=1, samples=1000):
            seen.append(samples)
            return real(emb, seed, samples)

        monkeypatch.setattr(duality, "validate_embedding", recording)
        code, _, _ = run_cli(capsys, "dual", "check-chain", str(chain_file),
                             "--samples", "7")
        assert code == 0 and seen == [7]

    @pytest.mark.parametrize("target, step", [
        ({"vertices": 2, "edges": [[0, 1]]}, [0, 0]),
        ({"vertices": 4, "edges": [[0, 1], [2, 3]]}, [0, 1]),
    ], ids=["not-a-p-morphism", "not-surjective"])
    def test_check_chain_reports_a_bad_step(self, capsys, tmp_path, target, step):
        # step 0 maps K2 (stages[1]) onto one vertex of K2, or into one edge of 2K2
        chain = {"stages": [target, {"vertices": 2, "edges": [[0, 1]]}], "steps": [step]}
        chain_file = tmp_path / "chain.json"
        chain_file.write_text(json.dumps(chain))
        code, out, err = run_cli(capsys, "dual", "check-chain", str(chain_file))
        assert code == 1 and err == ""
        assert out.splitlines()[-2:] == ["[FAIL] step 0: surjective graph p-morphism",
                                         "graph-chain: FAILED"]

    @pytest.mark.parametrize("document", [
        {"stages": [{"vertices": 1, "edges": []}] * 2, "steps": 5},
        [{"vertices": 1, "edges": []}],
        {"stages": [{"vertices": 1, "edges": []}] * 2, "steps": [["a"]]},
        {"stages": [{"vertices": 1, "edges": []}] * 2, "steps": [[None]]},
    ], ids=["steps-not-a-list", "top-level-list", "string-vertex", "null-vertex"])
    def test_check_chain_rejects_malformed_documents(self, capsys, tmp_path, document):
        chain_file = tmp_path / "chain.json"
        chain_file.write_text(json.dumps(document))
        code, out, err = run_cli(capsys, "dual", "check-chain", str(chain_file))
        assert code == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1


class TestSuiteAll:
    def test_exit_zero_on_k1(self, capsys):
        code, out, _ = run_cli(capsys, "suite", "all", "--graph", "single-vertex",
                               "--n", "3", "--seed", "1", "--samples", "400")
        assert code == 0 and "suite-all: ok" in out


class TestPositionalGraphForm:
    def test_atoms_positional(self, capsys):
        code, out, _ = run_cli(capsys, "atoms", "enumerate", "K1", "--count-only")
        assert code == 0 and "atoms: 34" in out

    def test_ags_build_positional_file(self, capsys, tmp_path):
        graph_file = tmp_path / "g.json"
        graph_file.write_text(json.dumps({"vertices": 1, "edges": []}))
        code, out, _ = run_cli(capsys, "ags", "build", str(graph_file),
                               "--output", "json")
        assert code == 0 and json.loads(out)["atoms"] == 34

    def test_game_run_positional(self, capsys):
        code, out, _ = run_cli(capsys, "game", "run", "K1", "--depth", "1")
        assert code == 0 and "survives" in out

    def test_negative_depth_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "game", "run", "K1", "--depth", "-1")
        assert code == 2 and out == ""
        assert err.startswith("error:") and "depth" in err and err.count("\n") == 1

    def test_non_integer_depth_in_config_is_usage_error(self, capsys, tmp_path):
        for bad in ("2", 1.5, True):
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"depth": bad}))
            code, _, err = run_cli(capsys, "game", "run", "K1", "--config", str(cfg))
            assert code == 2 and err.startswith("error:") and "depth" in err

    def test_non_integer_config_fields_are_usage_errors(self, capsys, tmp_path):
        for key, bad in (("n", "3"), ("atom_bound", 2.5), ("sample_count", None),
                         ("seed", True), ("n", [3])):
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({key: bad}))
            code, out, err = run_cli(capsys, "ags", "theta", "K1", "--k", "1",
                                     "--config", str(cfg))
            assert code == 2 and out == ""
            assert err.startswith("error:") and key in err and err.count("\n") == 1

    def test_missing_graph_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "atoms", "enumerate")
        assert code == 2 and "no graph given" in err


class TestConfigAndDeterminism:
    def test_config_file(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"output": "json", "seed": 5}))
        code, out, _ = run_cli(capsys, "ags", "theta", "--graph", "K1", "--k", "1",
                               "--config", str(cfg))
        assert code == 0 and json.loads(out)["theta"] is True

    def test_bad_config_field(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"bogus": 1}))
        code, _, err = run_cli(capsys, "ags", "theta", "--graph", "K1", "--k", "1",
                               "--config", str(cfg))
        assert code == 2 and "bogus" in err

    @pytest.mark.parametrize("document", [[[1]], 5], ids=["nested-list", "number"])
    def test_config_that_is_no_object_is_usage_error(self, capsys, tmp_path, document):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(document))
        code, out, err = run_cli(capsys, "graph", "chi", "K1", "--config", str(cfg))
        assert code == 2 and out == ""
        assert err.startswith("error:") and "JSON object" in err and err.count("\n") == 1

    def test_unknown_output_in_config_is_usage_error(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"output": "xml"}))
        code, out, err = run_cli(capsys, "graph", "chi", "K1", "--config", str(cfg))
        assert code == 2 and out == ""
        assert err.startswith("error:") and "output" in err and err.count("\n") == 1

    def test_dimension_gate(self, capsys):
        code, _, err = run_cli(capsys, "ags", "theta", "--graph", "K1", "--k", "1",
                               "--n", "7")
        assert code == 2 and "dimension" in err

    def test_reports_byte_identical_modulo_timing(self, capsys):
        outputs = []
        for _ in range(2):
            code, out, _ = run_cli(capsys, "bao", "check", "--graph", "K1",
                                   "--axioms", "ca", "--samples", "100",
                                   "--seed", "7", "--output", "json")
            assert code == 0
            data = json.loads(out)
            for item in data["items"]:
                item.pop("seconds", None)
            outputs.append(json.dumps(data, sort_keys=True))
        assert outputs[0] == outputs[1]

    def test_missing_file_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "graph", "chi", "--graph", "no-such.json")
        assert code == 2 and "neither" in err


class TestUsageErrors:
    def test_unknown_subcommand_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["frobnicate"])
        assert exc.value.code == 2

    def test_unknown_flag_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["graph", "chi", "--graph", "K1", "--bogus-flag"])
        assert exc.value.code == 2

    def test_non_integer_graph_json_is_usage_error(self, capsys, tmp_path):
        for document in ({"vertices": 2, "edges": [[0, 1.5]]},
                         {"vertices": 2.7, "edges": [[0, 1]]},
                         {"vertices": True, "edges": []},
                         {"vertices": 2, "edges": [[0, "1"]]},
                         {"vertices": 2, "edges": 5}):
            graph_file = tmp_path / "g.json"
            graph_file.write_text(json.dumps(document))
            code, out, err = run_cli(capsys, "graph", "chi", str(graph_file))
            assert code == 2 and out == ""
            assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize("argv, text", [
        (("graph", "chi", "FILE"), '{"vertices": 2, "edges": [], "vertices": 3}'),
        (("graph", "chi", "K1", "--config", "FILE"), '{"seed": 1, "seed": 2}'),
        (("net", "validate", "FILE", "--graph", "K1"),
         '{"nodes": [0], "labels": {"0,0,0": 5, "0,0,0": 0}}'),
        (("dual", "check-chain", "FILE"),
         '{"stages": [{"vertices": 1, "edges": []}], "steps": [], "steps": []}'),
    ], ids=["graph", "config", "network", "chain"])
    def test_repeated_json_key_is_usage_error(self, capsys, tmp_path, argv, text):
        # json.load would keep the last value; every JSON input refuses instead
        path = tmp_path / "doc.json"
        path.write_text(text)
        code, out, err = run_cli(capsys, *(str(path) if a == "FILE" else a for a in argv))
        assert code == 2 and out == ""
        assert err.startswith("error: repeated key") and err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ("graph", "chi", "DIR"),
        ("bao", "check", "K1", "--axioms", "DIR"),
        ("graph", "chi", "K1", "--config", "DIR"),
        ("net", "validate", "DIR", "--graph", "K1"),
        ("dual", "check-chain", "DIR"),
    ], ids=["graph", "axioms", "config", "network", "chain"])
    def test_directory_as_file_is_usage_error(self, capsys, tmp_path, argv):
        # open() raises IsADirectoryError, an OSError but no FileNotFoundError
        code, out, err = run_cli(capsys, *(str(tmp_path) if a == "DIR" else a for a in argv))
        assert code == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    def test_internal_key_error_is_no_usage_error(self, capsys, tmp_path, monkeypatch):
        # only an unbound equation variable is a KeyError caused by user input
        net_file = tmp_path / "net.json"
        net_file.write_text(json.dumps({"n": 3, "nodes": [0], "labels": {"0,0,0": 0}}))

        def broken(*args, **kwargs):
            raise KeyError((0, 0, 0))

        monkeypatch.setattr(cli.networks, "validate_network", broken)
        with pytest.raises(KeyError):
            cli.main(["net", "validate", str(net_file), "--graph", "K1"])

    def test_closed_stdout_ends_without_traceback(self, tmp_path):
        import os
        import subprocess
        import sys

        read_end, write_end = os.pipe()
        os.close(read_end)  # nobody will read: the first write fails
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        proc = subprocess.run(
            [sys.executable, "-m", "graphbao", "ags", "suite", "all", "K1",
             "--output", "json"],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120)
        os.close(write_end)
        assert proc.stderr == b""
        assert proc.returncode == cli.EXIT_BROKEN_PIPE


class TestPinnedOutput:
    """sha256 of each command's JSON stdout with every `seconds` key dropped;
    a refactor that keeps the output contract leaves these unchanged."""

    PINNED = {
        ("bao", "check", "K1", "--axioms", "pea", "--samples", "300"):
            "4820503e432874247ba0a94044ceef65e245eb12921b00163273e61ac2265762",
        ("bao", "canext", "K1"):
            "fcd0b4fbff2c391fdae26a98eb1642fcea476b5f3c95ad364d3369359ad449ff",
        ("ags", "suite", "all", "K1"):
            "6a7a8fce62a14946c4c7835e5411b8f48183de80d38d8fd5f418f291c5442707",
        ("suite", "all", "K1"):
            "d3e55c421ee83d1bd38df17cfbf9843c2f61fa4dd0a0ee4ae6e9b93cbd58c6a7",
        ("game", "run", "K1", "--depth", "1", "--trace"):
            "2d3def0bac4a59e5d5ba095fb9191b26f6d6f8c75f0c442b858a3532b092134a",
        ("dual", "lift", "--source", "C6", "--target", "C3", "--map", "0,1,2,0,1,2",
         "--atom-bound", "6000"):
            "d017e6908704b9f4285f88ada9eb5a77fe0c599a80db17f1ac4b7b4b415e3340",
    }
    NET_VALIDATE = "d8add4e4959ea2bb2cb9aef85c54c3c34caf3ea6fbb97eeb74108e51df6f5455"

    @staticmethod
    def stripped_digest(out: str) -> str:
        import hashlib

        def strip(value):
            if isinstance(value, dict):
                return {k: strip(v) for k, v in value.items() if k != "seconds"}
            if isinstance(value, list):
                return [strip(v) for v in value]
            return value

        blob = json.dumps(strip(json.loads(out)), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()

    @pytest.mark.parametrize("argv", list(PINNED), ids=" ".join)
    def test_json_output_pinned(self, capsys, argv):
        code, out, _ = run_cli(capsys, *argv, "--output", "json")
        assert code == 0
        assert self.stripped_digest(out) == self.PINNED[argv]

    def test_net_validate_pinned(self, capsys, tmp_path):
        _, out, _ = run_cli(capsys, "game", "run", "K1", "--depth", "1", "--trace",
                            "--output", "json")
        net_file = tmp_path / "net.json"
        net_file.write_text(json.dumps(json.loads(out)["play"][-1]["network"]))
        code, out, _ = run_cli(capsys, "net", "validate", str(net_file), "--graph", "K1",
                               "--output", "json")
        assert code == 0 and self.stripped_digest(out) == self.NET_VALIDATE
