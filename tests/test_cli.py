import concurrent.futures
import contextlib
import csv
import dataclasses
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import edgeposets as ep
from edgeposets import actions, cli, edges, peck

from conftest import quotient_edge_poset

DATA = Path(__file__).parent / "data"


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCheck:
    def test_fig2_edge_fails_peck(self, capsys):
        code, out, _ = run(capsys, "check", "fig2", "--edge", "--checks=ranks,peck")
        assert code == 1
        report = json.loads(out)
        assert report["rank_vector"] == [3, 2, 3]
        assert report["checks"]["peck"]["passed"] is False

    def test_b4_unitary(self, capsys):
        code, out, _ = run(capsys, "check", "bn:4", "--checks=unitary-peck")
        assert code == 0
        assert json.loads(out)["checks"]["unitary-peck"]["passed"] is True

    def test_b0_peck(self, capsys):
        code, out, _ = run(capsys, "check", "bn:0", "--checks=peck")
        assert code == 0

    def test_self_dual_and_sperner(self, capsys):
        code, out, _ = run(capsys, "check", "fig2", "--checks=self-dual,sperner")
        assert code == 0
        report = json.loads(out)
        assert report["checks"]["self-dual"]["passed"] is True
        assert report["checks"]["sperner"]["d_table"]["1"] == 2

    def test_scd_views(self, capsys):
        for view, chains in (([], 10), (["--hpos"], 30), (["--edge"], 30)):
            code, out, _ = run(capsys, "check", "bn:5", "--checks=scd", *view)
            assert code == 0
            assert json.loads(out)["checks"]["scd"]["chains"] == chains

    def test_scd_edge_builds_each_edge_poset_once(self, capsys, monkeypatch):
        built = []
        for name in ("edge_poset", "h_poset"):
            def spy(P, name=name, real=getattr(edges, name)):
                built.append(name)
                return real(P)

            for module in (edges, cli):
                monkeypatch.setattr(module, name, spy)
        code, out, _ = run(capsys, "check", "bn:5", "--edge", "--checks=scd")
        assert code == 0 and json.loads(out)["checks"]["scd"]["chains"] == 30
        assert sorted(built) == ["edge_poset", "h_poset"]

    @pytest.mark.parametrize("view", ["--edge", "--hpos"])
    def test_scd_b0_edge_views_have_no_chains(self, capsys, view):
        # E(B_0) and H(B_0) are empty: their decomposition has no chains
        code, out, _ = run(capsys, "check", "bn:0", "--checks=scd", view)
        assert code == 0
        assert json.loads(out)["checks"]["scd"]["chains"] == 0

    def test_bad_source_exits_2(self, capsys):
        code, _, err = run(capsys, "check", "nowhere.json", "--checks=ranks")
        assert code == 2 and "error" in err

    def test_unknown_check_exits_2(self, capsys):
        code, _, _ = run(capsys, "check", "bn:2", "--checks=bogus")
        assert code == 2

    def test_edge_hpos_conflict(self, capsys):
        code, _, _ = run(capsys, "check", "bn:2", "--edge", "--hpos", "--checks=ranks")
        assert code == 2

    def test_ranks_and_unitary_share_lefschetz_ranks(self, capsys, monkeypatch):
        ranks = []
        real = peck._power_rank
        monkeypatch.setattr(peck, "_power_rank", lambda P, i: ranks.append(i) or real(P, i))
        _, out, _ = run(capsys, "check", "bn:5", "--edge", "--checks=ranks,unitary-peck")
        computed = json.loads(out)["checks"]["unitary-peck"]["lefschetz_ranks"]
        assert len(ranks) == len(computed) == 2

    @staticmethod
    def lefschetz_sources(tmp_path):
        """E(B_8), unitary Peck, and E(B_9/<(2 3)(4 5)(6 7)(8 9)>) as a poset
        file, with one rank drop: the check-lefschetz benchmark's posets."""
        G = ep.PermGroup(9, [ep.Permutation.from_cycles("(2 3)(4 5)(6 7)(8 9)", 9)])
        path = tmp_path / "eb9.json"
        path.write_text(json.dumps(ep.poset_to_json(quotient_edge_poset(G))))
        return (["bn:8", "--edge"], 0, [8, 56, 168, 280]), ([str(path)], 1, [5, 36, 128, 251])

    def test_lefschetz_ranks_without_bareiss(self, tmp_path, capsys, monkeypatch):
        # full ranks are certified mod p, and the one rank drop of
        # E(B_9/<(2 3)(4 5)(6 7)(8 9)>) by a checked integer kernel vector
        def no_bareiss(matrix):
            raise AssertionError("Bareiss elimination ran")

        monkeypatch.setattr(peck.ExactMatrix, "rank", no_bareiss)
        for source, code, ranks in self.lefschetz_sources(tmp_path):
            got, out, err = run(capsys, "check", *source, "--checks=unitary-peck")
            assert (got, err) == (code, "")
            entry = json.loads(out)["checks"]["unitary-peck"]
            assert entry == {
                "passed": code == 0,
                "lefschetz_ranks": {str(i): r for i, r in enumerate(ranks)},
            }

    def test_lefschetz_ranks_build_no_dense_power(self, tmp_path, capsys, monkeypatch):
        built = []
        real = peck.lefschetz_power_matrix
        monkeypatch.setattr(peck, "lefschetz_power_matrix", lambda P, i: built.append(i) or real(P, i))
        for source, code, ranks in self.lefschetz_sources(tmp_path):
            got, out, _ = run(capsys, "check", *source, "--checks=ranks,unitary-peck")
            assert got == code
            assert json.loads(out)["checks"]["unitary-peck"]["lefschetz_ranks"] == {
                str(i): r for i, r in enumerate(ranks)
            }
        assert built == []

    def test_weighted_lefschetz_decides_peck_and_sperner_keeps_the_flow(
        self, tmp_path, capsys, monkeypatch
    ):
        # E(B_6/<(1 2)(3 4)>) is Peck but not unitary Peck
        G = ep.PermGroup(6, [ep.Permutation.from_cycles("(1 2)(3 4)", 6)])
        path = tmp_path / "eb6.json"
        path.write_text(json.dumps(ep.poset_to_json(quotient_edge_poset(G))))
        built = []
        real = peck._MinCostFlow
        monkeypatch.setattr(peck, "_MinCostFlow", lambda n: built.append(n) or real(n))
        code, out, _ = run(capsys, "check", str(path), "--checks=peck")
        assert code == 0 and json.loads(out)["checks"]["peck"] == {"passed": True}
        assert built == []
        code, out, _ = run(capsys, "check", str(path), "--checks=sperner")
        assert code == 0 and len(built) == 1
        assert json.loads(out)["checks"]["sperner"] == {
            "passed": True,
            "d_table": {"1": 32, "2": 64, "3": 80, "4": 96, "5": 100, "6": 104},
        }

    def test_json_poset_file(self, tmp_path, capsys):
        path = tmp_path / "p.json"
        path.write_text(json.dumps({"ranks": [0, 1], "covers": [[0, 1]]}))
        code, out, _ = run(capsys, "check", str(path), "--checks=ranks,peck")
        assert code == 0
        assert json.loads(out)["rank_vector"] == [1, 1]

    @pytest.mark.parametrize(
        "obj",
        [
            {"ranks": [0, 1], "covers": [[0, 1, 2]]},
            {"ranks": [0, 1], "covers": [[0]]},
            {"ranks": [0, "a"], "covers": []},
            {"ranks": [0, 1.5], "covers": []},
            {"ranks": [0, 1], "covers": [[0, 1]], "labels": "ab"},
            {"ranks": [0, 1], "covers": [[0, 1]], "labels": [1, "b"]},
            {"ranks": [0, 1], "covers": [[0, 1]], "labels": ["a", None]},
        ],
        ids=[
            "three-int-cover",
            "one-int-cover",
            "string-rank",
            "float-rank",
            "label-string",
            "label-number",
            "label-null",
        ],
    )
    def test_malformed_json_poset_exits_2(self, obj, tmp_path, capsys):
        path = tmp_path / "p.json"
        path.write_text(json.dumps(obj))
        code, _, err = run(capsys, "check", str(path), "--checks=ranks")
        assert code == 2 and err.startswith("error: poset JSON")

    def test_huge_rank_exits_2(self, tmp_path, capsys):
        # a 31-digit rank used to overflow while rank_vector was allocated
        path = tmp_path / "p.json"
        path.write_text(json.dumps({"ranks": [0, 10**30], "covers": []}))
        code, out, err = run(capsys, "check", str(path), "--checks=ranks")
        assert code == 2 and out == ""
        assert err.startswith("error: poset JSON rank") and "Traceback" not in err

    def test_self_dual_b10(self, capsys):
        # 1024 elements: deeper than the default recursion limit
        code, out, _ = run(capsys, "check", "bn:10", "--checks=self-dual")
        assert code == 0
        assert json.loads(out)["checks"]["self-dual"]["passed"] is True

    def test_unexpected_exception_exits_3(self, capsys, monkeypatch):
        def crash(P):
            raise RecursionError("maximum recursion depth exceeded")

        monkeypatch.setattr(cli, "is_self_dual", crash)
        code, _, err = run(capsys, "check", "bn:2", "--checks=self-dual")
        assert code == 3
        assert err == "internal error: RecursionError: maximum recursion depth exceeded\n"

    def test_dot_builds_viewed_poset_once(self, capsys, monkeypatch):
        built = []
        real = cli.edge_poset
        monkeypatch.setattr(cli, "edge_poset", lambda P: built.append(P.n) or real(P))
        code, out, _ = run(capsys, "check", "bn:3", "--edge", "--format", "dot")
        assert code == 0 and out.startswith("digraph")
        assert built == [8]

    def test_dot_format(self, capsys):
        code, out, _ = run(capsys, "check", "bn:2", "--checks=ranks", "--format", "dot")
        assert code == 0 and out.startswith("digraph")

    def test_csv_format(self, capsys):
        code, out, _ = run(capsys, "check", "bn:3", "--checks=ranks", "--format", "csv")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert rows[0]["rank_vector"] == "[1, 3, 3, 1]"

    def test_dot_escapes_labels(self, tmp_path, capsys):
        # a backslash, a quote and a newline, each escaped for a DOT string
        path = tmp_path / "p.json"
        path.write_text(json.dumps(
            {"ranks": [0, 0, 1], "covers": [[0, 2]], "labels": ["a\\", 'b"c', "d\ne"]}
        ))
        code, out, _ = run(capsys, "check", str(path), "--format", "dot")
        assert code == 0
        assert '  n0 [label="a\\\\"];\n' in out
        assert '  n1 [label="b\\"c"];\n' in out
        assert '  n2 [label="d\\ne"];\n' in out

    def test_env_format_mirror(self, capsys, monkeypatch):
        monkeypatch.setenv("EPL_FORMAT", "csv")
        code, out, _ = run(capsys, "check", "bn:3", "--checks=ranks")
        assert code == 0 and out.splitlines()[0].startswith("source")

    def test_tree_source(self, tmp_path, capsys):
        path = tmp_path / "t.json"
        path.write_text(json.dumps({"children": [{}, {}, {}]}))
        code, out, _ = run(capsys, "check", f"tree:{path}", "--checks=ranks")
        assert code == 0
        assert json.loads(out)["rank_vector"] == [3, 1]

    @pytest.mark.parametrize("source", ["tree", "json"])
    def test_deep_tree_exits_2(self, source, tmp_path, capsys):
        # 3000 levels: past the JSON decoder's recursion limit
        path = tmp_path / "deep.json"
        path.write_text('{"children": [' * 3000 + "{}" + "]}" * 3000)
        arg = f"tree:{path}" if source == "tree" else str(path)
        code, out, err = run(capsys, "check", arg, "--checks=ranks")
        assert code == 2 and out == ""
        assert err == f"error: JSON in {str(path)!r} is nested too deeply\n"

    @pytest.mark.parametrize(
        "spec",
        [{"children": 5}, {"children": "ab"}, {"children": [{}, 5]}],
        ids=["int-children", "string-children", "non-object-child"],
    )
    def test_malformed_tree_exits_2(self, spec, tmp_path, capsys):
        path = tmp_path / "t.json"
        path.write_text(json.dumps(spec))
        code, out, err = run(capsys, "check", f"tree:{path}", "--checks=ranks")
        assert code == 2 and out == ""
        assert err.startswith("error: tree node")


# -- exit-code fuzz: random poset and tree files through `check` ----------------

JSON_LEAVES = st.none() | st.booleans() | st.integers(-2, 6) | st.text(max_size=2)
JSON_VALUES = st.recursive(
    JSON_LEAVES,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=2), inner, max_size=3),
    max_leaves=6,
)


@st.composite
def graded_poset_json(draw):
    """A well-formed poset file: ranks 0..3, covers between adjacent ranks."""
    ranks = draw(st.lists(st.integers(0, 3), min_size=1, max_size=7))
    pairs = [[x, y] for x in range(len(ranks)) for y in range(len(ranks)) if ranks[y] == ranks[x] + 1]
    covers = draw(st.lists(st.sampled_from(pairs), unique_by=tuple, max_size=10)) if pairs else []
    return {"ranks": ranks, "covers": covers}


POSET_FILES = st.one_of(
    graded_poset_json(),
    st.fixed_dictionaries(
        {
            "ranks": st.lists(st.integers(-1, 3), max_size=6) | JSON_VALUES,
            "covers": st.lists(st.lists(st.integers(-1, 6), max_size=3), max_size=6) | JSON_VALUES,
        },
        optional={"labels": st.lists(JSON_LEAVES, max_size=7) | JSON_VALUES},
    ),
    JSON_VALUES,
)
TREE_FILES = st.one_of(
    st.recursive(
        st.just({}),
        lambda inner: st.fixed_dictionaries({"children": st.lists(inner, min_size=1, max_size=3)}),
        max_leaves=8,
    ),
    st.recursive(
        st.just({}) | JSON_LEAVES,
        lambda inner: st.fixed_dictionaries({"children": st.lists(inner, max_size=3) | JSON_LEAVES}),
        max_leaves=8,
    ),
)


@st.composite
def cycle_line(draw):
    """A well-formed generator line: disjoint cycles on points 1..6."""
    points = draw(st.permutations(range(1, 7)))
    lengths = draw(st.lists(st.integers(1, 4), max_size=3))
    starts = [sum(lengths[:i]) for i in range(len(lengths))]
    cycles = [points[s : s + k] for s, k in zip(starts, lengths)]
    return "".join("(" + " ".join(map(str, c)) + ")" for c in cycles if c) or "()"


GENERATOR_LINES = st.one_of(
    cycle_line(),
    st.sampled_from(
        [
            "(1 1000000000000000000)",  # a huge point
            "(2 " + "9" * 5000 + ")",  # more digits than int() accepts
            "(1 2",
            "1 2)",
            "((1 2))",
            "(1 2)(3",
            "(1 1)",  # repeated inside a cycle
            "(1 2)(2 3)",  # repeated across cycles
            "(0 1)",
            "(-1 2)",
            "(17 1)",  # just above the boolean algebra cap
            "# a comment",
            "(1 2 3) # trailing comment",
            "",
        ]
    ),
    st.text(alphabet="()0123456789 ,#-x", max_size=10),
)


class TestExitCodeFuzz:
    @settings(max_examples=200, deadline=None)
    @given(
        spec=st.one_of(POSET_FILES.map(lambda o: ("", o)), TREE_FILES.map(lambda o: ("tree:", o))),
        checks=st.lists(st.sampled_from(cli.CHECK_NAMES), min_size=1, max_size=3, unique=True),
        view=st.sampled_from([[], ["--edge"], ["--hpos"]]),
        fmt=st.sampled_from(["json", "csv", "dot"]),
    )
    def test_check_exit_codes(self, spec, checks, view, fmt):
        prefix, obj = spec
        out, err = io.StringIO(), io.StringIO()
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "in.json"
            path.write_text(json.dumps(obj))
            argv = ["check", prefix + str(path), "--checks=" + ",".join(checks), "--format", fmt]
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv + view)
        assert code in (0, 1, 2), err.getvalue()
        assert "internal error" not in err.getvalue()

    @settings(max_examples=150, deadline=None)
    @given(
        lines=st.lists(GENERATOR_LINES, max_size=4),
        command=st.sampled_from(["quotient", "sweep"]),
        n=st.one_of(st.none(), st.integers(-3, 6), st.just(10**18)),
    )
    def test_gens_exit_codes(self, lines, command, n):
        if command == "sweep" and n is None:
            n = 3  # sweep requires --n
        out, err = io.StringIO(), io.StringIO()
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "gens.txt"
            path.write_text("\n".join(lines) + "\n")
            argv = [command, "--gens", str(path)] + ([] if n is None else ["--n", str(n)])
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
        assert code in (0, 1, 2), err.getvalue()
        assert "internal error" not in err.getvalue()


class TestQuotient:
    def test_matches_recorded_hyperoctahedral_b12(self, tmp_path):
        # tests/data/quotient_hyperoctahedral6_n12.json: `quotient --group
        # hyperoctahedral:6 --n 12` recorded before actions stopped
        # re-checking their own maps, with `seconds` removed
        target = tmp_path / "record.json"
        argv = ["quotient", "--group", "hyperoctahedral:6", "--n", "12", "--out", str(target)]
        assert cli.main(argv) == 0
        record = json.loads(target.read_text())
        del record["seconds"]
        pinned = DATA / "quotient_hyperoctahedral6_n12.json"
        assert (json.dumps(record, indent=2) + "\n").encode() == pinned.read_bytes()

    def test_consistency_guard_exit_3(self, capsys, monkeypatch):
        # S_3 on B_3 is CCT, so a non-Peck E(B_3/S_3) contradicts the theorem
        monkeypatch.setattr(cli, "peck_report", lambda P: {"peck": False})
        code, out, err = run(capsys, "quotient", "--group", "symmetric:3")
        assert code == 3 and out == ""
        assert "internal inconsistency: CCT action" in err

    def test_dihedral9(self, capsys):
        code, out, _ = run(capsys, "quotient", "--group", "dihedral:9", "--n", "9")
        assert code == 0  # quotient edge poset is still Peck
        rec = json.loads(out)
        assert rec["cct"] is False
        assert rec["cct_witness"] == {
            "x": [0, 1, 3, 6],
            "y": [0, 3, 4, 6],
            "z": [0, 1, 3, 4, 6],
        }
        assert rec["peck_quotient_edge"]["peck"] is True

    def test_cyclic6_rank_identity(self, capsys):
        code, out, _ = run(capsys, "quotient", "--group", "cyclic:6", "--n", "6")
        assert code == 0
        rec = json.loads(out)
        assert rec["rank_vector_edge_quotient"] == [1, 5, 10, 10, 5, 1]

    def test_trivial(self, capsys):
        code, out, _ = run(capsys, "quotient", "--group", "trivial", "--n", "3")
        assert code == 0
        rec = json.loads(out)
        assert rec["rank_vector_quotient"] == [1, 3, 3, 1]
        assert rec["rank_vector_h_quotient"] == [3, 6, 3]

    @pytest.mark.parametrize("argv", [[], ["--n", "0"]], ids=["no-n", "n0"])
    def test_symmetric_0_is_b0(self, argv, capsys):
        # S_0 acts on no points: the record is the trivial group's on B_0
        code, out, _ = run(capsys, "quotient", "--group", "symmetric:0", *argv)
        _, trivial_out, _ = run(capsys, "quotient", "--group", "trivial", "--n", "0")
        assert code == 0
        rec, expected = json.loads(out), json.loads(trivial_out)
        del rec["seconds"], expected["seconds"]
        assert rec == expected and rec["degree"] == 0

    def test_h_quotient_rank_vector_matches_built_h_quotient(self, tmp_path, capsys):
        # the oracle builds H(B_n), G's action on it and the quotient
        path = tmp_path / "gens.txt"
        for n in range(1, 6):
            for G in ep.subgroup_sweep(n):
                path.write_text("".join(g.cycle_string() + "\n" for g in G.generators))
                code, out, _ = run(capsys, "quotient", "--gens", str(path), "--n", str(n))
                assert code == 0
                h_action, _ = actions.action_on_edges(ep.induced_bn_action(G), "H")
                expected = list(ep.quotient(h_action).poset.rank_vector)
                assert json.loads(out)["rank_vector_h_quotient"] == expected

    def test_gens_file(self, tmp_path, capsys):
        path = tmp_path / "gens.txt"
        path.write_text("# rotation\n(1 2 3 4)\n")
        code, out, _ = run(capsys, "quotient", "--gens", str(path), "--n", "4")
        assert code == 0
        assert json.loads(out)["order"] == 4

    def test_missing_group_exits_2(self, capsys):
        code, _, _ = run(capsys, "quotient", "--n", "3")
        assert code == 2

    def test_both_group_and_gens_exits_2(self, tmp_path, capsys):
        path = tmp_path / "g.txt"
        path.write_text("(1 2)\n")
        code, _, _ = run(capsys, "quotient", "--group", "cyclic:2", "--gens", str(path))
        assert code == 2

    def test_n_below_degree_exits_2(self, capsys):
        code, _, _ = run(capsys, "quotient", "--group", "dihedral:5", "--n", "3")
        assert code == 2

    def test_gens_n_below_file_degree_exits_2(self, tmp_path, capsys):
        path = tmp_path / "g.txt"
        path.write_text("(1 2 3)\n")
        code, out, err = run(capsys, "quotient", "--gens", str(path), "--n", "2")
        assert code == 2 and out == ""
        assert err == "error: --n 2 below group degree 3\n"

    @pytest.mark.parametrize("group", ["trivial", "cyclic:3"])
    def test_n_above_boolean_cap_exits_2(self, group, capsys):
        code, out, err = run(capsys, "quotient", "--group", group, "--n", str(10**18))
        assert code == 2 and out == ""
        assert err == f"error: --n {10**18} above the boolean algebra cap 16\n"

    def test_group_cap_reaches_named_groups(self, capsys):
        code, out, _ = run(capsys, "quotient", "--group", "symmetric:10", "--n", "10")
        assert code == 0
        rec = json.loads(out)
        assert rec["order"] == 3628800
        assert rec["group"] == ";".join(f"({k} {k + 1})" for k in range(9, 0, -1))
        assert rec["rank_vector_quotient"] == [1] * 11

    @pytest.mark.parametrize("family", ["cyclic", "symmetric", "dihedral"])
    def test_named_group_above_boolean_cap_exits_2(self, family, capsys):
        # rejected before a group on 3000 points is built
        code, out, err = run(capsys, "quotient", "--group", f"{family}:3000")
        assert code == 2 and out == ""
        assert err == "error: group parameter 3000 above the boolean algebra cap 16\n"

    def test_huge_point_exits_2(self, tmp_path, capsys):
        path = tmp_path / "g.txt"
        path.write_text(f"(1 {10**18})\n")
        code, out, err = run(capsys, "quotient", "--gens", str(path))
        assert code == 2 and out == ""
        assert err.startswith("error: point above the boolean algebra cap")


class TestSweep:
    def test_n1(self, capsys):
        code, out, err = run(capsys, "sweep", "--n", "1")
        assert code == 0
        records = [json.loads(line) for line in out.splitlines()]
        assert len(records) == 1
        assert records[0]["rank_vector_quotient"] == [1, 1]
        assert records[0]["peck_quotient_edge"]["peck"] is True

    def test_n3_four_classes(self, capsys):
        code, out, err = run(capsys, "sweep", "--n", "3")
        assert code == 0 and "COUNTEREXAMPLE" not in err
        records = [json.loads(line) for line in out.splitlines()]
        assert len(records) == 4
        assert all(r["peck_quotient_edge"]["peck"] for r in records)
        orders = [r["order"] for r in records]
        assert orders == sorted(orders) == [1, 2, 3, 6]

    def test_parallel_matches_serial(self, capsys):
        code1, out1, _ = run(capsys, "sweep", "--n", "3")
        code2, out2, _ = run(capsys, "sweep", "--n", "3", "--jobs", "2")
        assert code1 == code2 == 0

        def strip(text):
            records = [json.loads(line) for line in text.splitlines()]
            for r in records:
                r.pop("seconds")
            return records

        assert strip(out1) == strip(out2)

    def test_gens_over_enumeration_cap_serial_matches_parallel(self, tmp_path, capsys):
        # S_10 has order 3,628,800; a sweep record never enumerates it
        s10 = tmp_path / "s10.txt"
        s10.write_text("(1 2)\n(1 2 3 4 5 6 7 8 9 10)\n")
        b5 = tmp_path / "b5.txt"
        b5.write_text("(1 2)\n(1 3)(2 4)\n(1 3 5 7 9)(2 4 6 8 10)\n")
        outputs = []
        for jobs in ("1", "2"):
            code, out, _ = run(capsys, "sweep", "--gens", str(s10), str(b5), "--n", "10",
                               "--jobs", jobs)
            assert code == 0
            records = [json.loads(line) for line in out.splitlines()]
            for r in records:
                r.pop("seconds")
            outputs.append(records)
        assert outputs[0] == outputs[1]
        assert [r["order"] for r in outputs[0]] == [3840, 3628800]

    def test_jobs_start_at_most_one_worker_per_group(self, capsys, monkeypatch):
        started = []

        class FakePool:
            # runs the tasks in this process and records the pool size
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
        code, out, _ = run(capsys, "sweep", "--n", "3", "--jobs", "100000")
        assert code == 0 and len(out.splitlines()) == 4
        assert started == [4]
        code, _, _ = run(capsys, "sweep", "--n", "1", "--jobs", "100000")
        assert code == 0 and started == [4]  # one group: no pool

    @pytest.mark.parametrize(
        "argv,env",
        [(["--jobs", "0"], None), ([], "0"), (["--jobs", "-2"], None)],
        ids=["flag-zero", "env-zero", "flag-negative"],
    )
    def test_jobs_below_one_exits_2(self, argv, env, capsys, monkeypatch):
        if env is not None:
            monkeypatch.setenv("EPL_JOBS", env)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", None)  # no process may start
        code, out, err = run(capsys, "sweep", "--n", "3", *argv)
        assert code == 2 and out == ""
        assert err.startswith("error: --jobs")

    def test_gens_list_mode(self, tmp_path, capsys):
        path = tmp_path / "c7.txt"
        path.write_text("(1 2 3 4 5 6 7)\n")
        code, out, _ = run(capsys, "sweep", "--n", "7", "--gens", str(path))
        assert code == 0
        records = [json.loads(line) for line in out.splitlines()]
        assert records[0]["order"] == 7

    def test_bad_env_int_exits_2(self, capsys, monkeypatch):
        monkeypatch.setenv("EPL_JOBS", "abc")
        with pytest.raises(SystemExit) as exc:
            cli.main(["sweep", "--n", "2"])
        assert exc.value.code == 2
        assert "invalid int value: 'abc'" in capsys.readouterr().err

    @pytest.mark.parametrize("n", ["2", "-3"])
    def test_gens_n_below_file_degree_exits_2(self, n, tmp_path, capsys):
        path = tmp_path / "g.txt"
        path.write_text("(1 2 3)\n")
        code, out, err = run(capsys, "sweep", "--gens", str(path), "--n", n)
        assert code == 2 and out == ""
        assert err == f"error: --n {n} below group degree 3\n"

    def test_large_n_without_gens_exits_2(self, capsys):
        code, _, _ = run(capsys, "sweep", "--n", "7")
        assert code == 2

    def test_out_file(self, tmp_path, capsys):
        target = tmp_path / "records.jsonl"
        code, out, _ = run(capsys, "sweep", "--n", "2", "--out", str(target))
        assert code == 0 and out == ""
        lines = target.read_text().splitlines()
        assert len(lines) == 2

    def test_csv_format(self, capsys):
        code, out, _ = run(capsys, "sweep", "--n", "2", "--format", "csv")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 2 and rows[0]["order"] == "1"

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_matches_recorded_jsonl(self, n, tmp_path):
        # tests/data/sweep_n{n}.jsonl: `sweep --n n` output recorded before the
        # per-action caches (n <= 4), the cyclic-extension subgroup sweep
        # (n = 5) or its normaliser-orbit extension (n = 6, with the cap
        # raised) landed, with each record's `seconds` removed
        target = tmp_path / "records.jsonl"
        assert cli.main(["sweep", "--n", str(n), "--out", str(target)]) == 0
        lines = []
        for line in target.read_text().splitlines():
            record = json.loads(line)
            del record["seconds"]
            lines.append(json.dumps(record) + "\n")
        assert "".join(lines).encode() == (DATA / f"sweep_n{n}.jsonl").read_bytes()

    def test_consistency_guard_exit_3(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "peck_report", lambda P: {"peck": False})
        code, _, err = run(capsys, "sweep", "--n", "1")
        assert code == 3 and "internal inconsistency" in err

    def test_pinned_n7_subset(self, tmp_path):
        # tests/data/sweep_n7.jsonl: `sweep --n 7` recorded with SWEEP_MAX_N
        # raised to 7, each record's `seconds` removed.  Re-derive three
        # classes through --gens: the trivial group, the 7-cycle and a non-CCT
        # class whose quotient edge poset is Peck but not unitary Peck
        pinned = (DATA / "sweep_n7.jsonl").read_text().splitlines(keepends=True)
        assert len(pinned) == 96  # subgroup classes of S_7 (OEIS A000638)
        chosen = ["()", "(1 2 3 4 5 6 7)", "(5 6 7);(1 2)(3 4)(6 7)"]
        expected = [line for line in pinned if json.loads(line)["group"] in chosen]
        assert len(expected) == len(chosen)
        paths = []
        for i, group in enumerate(chosen):
            path = tmp_path / f"g{i}.txt"
            path.write_text(group.replace(";", "\n") + "\n")
            paths.append(str(path))
        target = tmp_path / "records.jsonl"
        assert cli.main(["sweep", "--n", "7", "--gens", *paths, "--out", str(target)]) == 0
        lines = []
        for line in target.read_text().splitlines():
            record = json.loads(line)
            del record["seconds"]
            lines.append(json.dumps(record) + "\n")
        assert lines == expected

    def test_pinned_n7_all_classes(self):
        # every record of tests/data/sweep_n7.jsonl, re-derived from its
        # group string, which is the canonical generator string of the class
        pinned = (DATA / "sweep_n7.jsonl").read_text().splitlines(keepends=True)
        groups = []
        for line in pinned:
            gens = json.loads(line)["group"]
            cycles = [] if gens == "()" else gens.split(";")
            groups.append(ep.PermGroup(7, [ep.Permutation.from_cycles(c, 7) for c in cycles]))
        lines = []
        for record in cli.sweep_records(7, groups=groups):
            d = dataclasses.asdict(record)
            del d["seconds"]
            lines.append(json.dumps(d) + "\n")
        assert lines == pinned


@pytest.mark.parametrize(
    "argv,value",
    [
        (["check", "bn:2"], "xml"),
        (["quotient", "--group", "cyclic:3"], "dot"),
        (["sweep", "--n", "2"], "dot"),
    ],
    ids=["check", "quotient", "sweep"],
)
def test_env_format_outside_choices_exits_2(argv, value, capsys, monkeypatch):
    # argparse checks choices on command-line values only, not on defaults
    monkeypatch.setenv("EPL_FORMAT", value)
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("usage:")
    assert f"argument --format: invalid choice: '{value}'" in err


@pytest.mark.parametrize(
    "argv",
    [["check", "bn:3"], ["quotient", "--group", "cyclic:3"], ["sweep", "--n", "2"]],
    ids=["check", "quotient", "sweep"],
)
def test_oracle_threshold_flag_is_gone(argv, capsys):
    # the exhaustive cross-check size is fixed at 12 elements
    with pytest.raises(SystemExit) as exc:
        cli.main([*argv, "--oracle-threshold", "12"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --oracle-threshold" in capsys.readouterr().err


class TestActionRecord:
    def test_builds_each_edge_poset_once(self, monkeypatch, capsys):
        built = []
        real = edges.edge_poset
        for module in (edges, actions, cli):
            monkeypatch.setattr(module, "edge_poset", lambda P: built.append(P.n) or real(P))
        cli.action_record(ep.cyclic(4))
        # only E(B_4/C_4): E(B_4)/C_4 is read off B_4's covers, E(B_4) never built
        assert built == [6]
        # the quotient command reports H(B_4)/C_4's rank vector without building H
        h_built = []
        for module in (edges, actions, cli):
            monkeypatch.setattr(module, "h_poset", lambda P: h_built.append(P.n))
        built.clear()
        code, out, _ = run(capsys, "quotient", "--group", "cyclic:4", "--n", "4")
        assert code == 0 and json.loads(out)["rank_vector_h_quotient"] == [1, 3, 3, 1]
        assert built == [6] and h_built == []

    @pytest.mark.parametrize(
        "G,unitary",
        [
            (ep.trivial(4), True),  # E(B_4) is unitary Peck
            # not unitary Peck: the seeded weighted Lefschetz map certifies it
            (ep.PermGroup(4, [ep.Permutation([1, 0, 3, 2])]), False),
        ],
        ids=["trivial", "<(12)(34)>"],
    )
    def test_flow_runs_only_without_lefschetz_certificate(self, G, unitary, monkeypatch):
        built = []
        real = peck._MinCostFlow
        monkeypatch.setattr(peck, "_MinCostFlow", lambda n: built.append(n) or real(n))
        report = cli.action_record(G).peck_quotient_edge
        assert built == []
        assert report["unitary_peck"] is unitary
        assert report["peck"] and report["strongly_sperner"]

    def test_failed_weighted_draw_falls_back_to_the_flow(self, monkeypatch):
        G = ep.PermGroup(4, [ep.Permutation([1, 0, 3, 2])])
        expected = cli.action_record(G).peck_quotient_edge
        built = []
        real = peck._MinCostFlow
        monkeypatch.setattr(peck, "_MinCostFlow", lambda n: built.append(n) or real(n))
        # all-ones weights are the unitary map, whose powers do not all have full rank
        monkeypatch.setattr(peck, "_cover_weights", lambda P: [[1] * len(xs) for xs in P.down])
        report = cli.action_record(G).peck_quotient_edge
        assert len(built) == 1
        assert report == expected


class TestPak:
    def test_csv_output(self, capsys):
        code, out, _ = run(capsys, "pak", "--l", "2", "--m", "2", "--r", "1")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["k", "p"]
        assert [r[1] for r in rows[1:5]] == ["1", "2", "2", "1"]
        assert ["symmetric", "true"] in rows and ["unimodal", "true"] in rows
