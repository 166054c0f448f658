from __future__ import annotations

import json

import pytest

from epshift import cli
from epshift.cli import build_parser, main


@pytest.fixture()
def run(capsys):
    def invoke(*argv: str) -> tuple[int, str, str]:
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return invoke


class TestPinnedOutputs:
    def test_syndetic_evens(self, run):
        code, out, _ = run("set", "syndetic", "(10)")
        assert code == 0
        assert out == '{"syndetic": true, "gap": 1}\n'

    def test_filter_member_odds(self, run):
        code, out, _ = run("filter", "member", "--gen", "2+(2)", "--set", "(01)")
        assert code == 0
        assert out == '{"member": false, "witness_sum": 2}\n'

    def test_empty_period_is_parse_error(self, run):
        code, out, err = run("set", "syndetic", "()")
        assert code == 2
        assert out == ""
        assert "()" in err


class TestExitCodes:
    def test_unknown_group(self, run):
        assert run("bogus")[0] == 2

    def test_unknown_subcommand(self, run):
        assert run("set", "bogus")[0] == 2

    def test_missing_required_flag(self, run):
        assert run("filter", "member", "--set", "(10)")[0] == 2

    def test_bad_point_literal(self, run):
        code, _, err = run("dyn", "ur", "(10);;(01)")
        assert code == 2 and "literal" in err

    def test_bad_generator_literal(self, run):
        assert run("ip", "fs", "2+(")[0] == 2

    def test_negative_position(self, run):
        assert run("set", "member", "(10)", "-3")[0] == 2

    def test_cap_exceeded(self, run):
        code, out, err = run(
            "set", "algebra", "(10)", "(1100)", "(111000)", "--downward", "--cap", "8"
        )
        assert code == 3 and out == "" and "cap" in err

    def test_cap_checked_before_members_are_built(self, run):
        code, out, err = run(
            "set", "algebra", "(1101000101)", "(100)", "--downward", "--cap", "100000000"
        )
        assert code == 3 and out == "" and "cap of 100000000" in err

    def test_aet_pair_error(self, run):
        code, _, err = run("ip", "construct", "(10)", "(01)")
        assert code == 2 and "proximal" in err

    def test_help_exits_zero(self, run):
        assert run("--help")[0] == 0

    def test_fail_verdict_still_exits_zero(self, run):
        code, out, _ = run("ip", "hindman", "(001);(110)", "--terms", "2", "--bound", "3")
        assert code == 0
        assert json.loads(out) == {"found": False, "bound": 3}


class TestSubcommandSchemas:
    def test_normalize(self, run):
        _, out, _ = run("set", "normalize", "1(01)")
        assert json.loads(out) == {"set": "(10)", "preperiod": 0, "period": 2}

    def test_member(self, run):
        _, out, _ = run("set", "member", "(10)", "4")
        assert json.loads(out) == {"member": True, "n": 4}

    def test_not_syndetic(self, run):
        _, out, _ = run("set", "syndetic", "1(0)")
        assert json.loads(out) == {"syndetic": False, "empty_from": 1}

    def test_algebra(self, run):
        _, out, _ = run("set", "algebra", "(10)", "--downward")
        d = json.loads(out)
        assert d["size"] == 4 and d["downward"] is True
        assert d["members"] == ["(0)", "(01)", "(1)", "(10)"]

    def test_shift(self, run):
        _, out, _ = run("dyn", "shift", "1(10);(0011)", "1")
        assert json.loads(out) == {"point": "(10);(0110)"}

    def test_ur_positive(self, run):
        _, out, _ = run("dyn", "ur", "(01)")
        d = json.loads(out)
        assert d["recurrent"] is True
        assert d["gaps"][0] == [1, 2]

    def test_ur_negative(self, run):
        _, out, _ = run("dyn", "ur", "1(0)")
        d = json.loads(out)
        assert d["recurrent"] is False
        assert set(d) == {"recurrent", "coord", "word", "occurrences"}

    def test_proximal(self, run):
        _, out, _ = run("dyn", "proximal", "00(01)", "(01)")
        assert json.loads(out) == {"proximal": True, "witness": 2}

    def test_ae(self, run):
        _, out, _ = run("dyn", "ae", "11(010)")
        assert json.loads(out) == {"point": "(100)"}

    def test_eaet(self, run):
        _, out, _ = run("dyn", "eaet", "(01)", "(01)", "(0011)")
        assert json.loads(out) == {"point": "(0011)"}

    def test_eaetp(self, run):
        _, out, _ = run("dyn", "eaetp", "(01)", "--code", "1:1:1:01")
        assert json.loads(out) == {"points": ["(01)", "(01)"]}

    def test_cover(self, run):
        _, out, _ = run("dyn", "cover", "(01)", "(01)", "1", "2")
        assert json.loads(out) == {"bound": 1}

    def test_orbit(self, run):
        _, out, _ = run("dyn", "orbit", "(0011)")
        d = json.loads(out)
        assert d["size"] == 4 and d["points"][0] == "(0011)"

    def test_fs(self, run):
        _, out, _ = run("ip", "fs", "2+(2)", "--terms", "2", "--bound", "12")
        assert json.loads(out) == {"count": 6, "sums": [2, 4, 6, 8, 10, 12]}

    def test_construct(self, run):
        _, out, _ = run("ip", "construct", "00(01)", "(01)", "--count", "3")
        d = json.loads(out)
        assert d["generator"] == "2,4,6+(2)" and d["count"] == 3
        assert d["neighborhoods"][0] == [0, 0]
        assert d["source"] == "00(01)" and d["target"] == "(01)"

    def test_limit_fail(self, run):
        _, out, _ = run("ip", "limit", "(10)", "--gen", "1+(2)", "--resolution", "8")
        d = json.loads(out)
        assert d["passed"] is False and d["counterexamples"][0] == [0, 1, 0]
        assert len(d["counterexamples"]) == 7

    def test_limit_pass(self, run):
        _, out, _ = run("ip", "limit", "(10)", "--gen", "2+(2)", "--resolution", "8")
        d = json.loads(out)
        assert d["passed"] is True and d["kind"] == "bounded"

    def test_hindman(self, run):
        _, out, _ = run("ip", "hindman", "(10);(01)", "--terms", "3", "--bound", "20")
        d = json.loads(out)
        assert d["witness"] == [2, 4, 8]
        assert d["sums"] == [2, 4, 6, 8, 10, 12, 14]
        assert d["colors"] == [0]

    def test_hindman_large_bound(self, run):
        code, out, _ = run("ip", "hindman", "(10);(01)", "--terms", "3", "--bound", "3000000")
        assert code == 0
        assert out == (
            '{"found": true, "bound": 3000000, "witness": [2, 4, 8], '
            '"sums": [2, 4, 6, 8, 10, 12, 14], "colors": [0]}\n'
        )

    def test_pipeline(self, run):
        _, out, _ = run("ip", "pipeline", "--coloring", "(10);(01)", "--terms", "4")
        d = json.loads(out)
        assert d["witness"] == [2, 4, 6, 8] and d["colors"] == [0]
        assert d["stages"]["encoded_point"] == "(01)"

    def test_filter_member_true(self, run):
        _, out, _ = run("filter", "member", "--gen", "2+(2)", "--set", "(10)")
        assert json.loads(out) == {"member": True, "tail_start": 0, "closure": [0]}

    def test_filter_build(self, run):
        _, out, _ = run("filter", "build", "(10)")
        d = json.loads(out)
        assert d["all_pass"] is True and d["members"] == ["(1)", "(10)"]
        assert d["stages"]["encoded_point"] == "(1);(10);(0);(01)"

    def test_filter_build_4096_members(self, run):
        code, out, _ = run("filter", "build", "(1101)", "(100)", "--cap", "4096")
        d = json.loads(out)
        assert code == 0 and d["scope_size"] == 4096 and d["all_pass"] is True

    def test_filter_verify_fail_verdict(self, run):
        code, out, _ = run("filter", "verify", "--gen", "1,2+(3,1)", "--downward", "(10)")
        d = json.loads(out)
        assert code == 0 and d["all_pass"] is False
        assert d["dichotomy"] == {"pass": False, "neither": ["(01)", "(10)"]}

    def test_dset(self, run):
        _, out, _ = run("filter", "dset", "--gen", "2+(2)", "--set", "(10)")
        assert json.loads(out) == {"set": "(10)"}

    def test_ulimit(self, run):
        _, out, _ = run("filter", "ulimit", "--gen", "2+(2)", "(10);(01)")
        assert json.loads(out) == {"point": "(10);(01)"}

    def test_extend(self, run):
        _, out, _ = run("filter", "extend", "--base", "(10)", "--new", "(1000)")
        d = json.loads(out)
        assert d["agreement"] is True and d["all_pass"] is True
        assert d["base_size"] == 4 and d["new_size"] == 16

    def test_central(self, run):
        _, out, _ = run("filter", "central", "(10)")
        d = json.loads(out)
        assert d["syndetic"] == {"syndetic": True, "gap": 1}
        assert d["ip"]["witness"] == [2, 4, 8, 16]
        assert d["filter"]["member"] is True


class TestScenarios:
    def test_bundled_aetmin(self, run):
        code, out, _ = run("scenario", "run", "aetmin.scn")
        assert code == 0
        t = json.loads(out)
        assert [s["name"] for s in t["steps"]] == ["alg", "built", "ae", "cons", "rep"]
        assert t["steps"][-1]["result"]["all_pass"] is True

    def test_bundled_extend(self, run):
        code, out, _ = run("scenario", "run", "extend.scn")
        assert code == 0
        t = json.loads(out)
        ext = next(s["result"] for s in t["steps"] if s["name"] == "ext")
        assert ext["agreement"] is True
        check = t["steps"][-1]["result"]
        assert check["member"] is True

    def test_empty_scenario(self, run, tmp_path):
        f = tmp_path / "empty.scn"
        f.write_text("# nothing but comments\n\n")
        code, out, _ = run("scenario", "run", str(f))
        assert code == 0
        assert json.loads(out) == {"steps": []}

    def test_reference_chain(self, run, tmp_path):
        f = tmp_path / "chain.scn"
        f.write_text(
            'a: dyn ae "11(010)"\n'
            "b: dyn shift $a.point 3\n"
            "c: set member $b.point 0\n"
        )
        code, out, _ = run("scenario", "run", str(f))
        assert code == 0
        t = json.loads(out)
        assert t["steps"][1]["result"]["point"] == "(100)"
        assert t["steps"][2]["result"]["member"] is True

    def test_numeric_and_list_references(self, run, tmp_path):
        f = tmp_path / "idx.scn"
        f.write_text(
            'h: ip hindman "(10);(01)" --terms 2 --bound 16\n'
            'm: set member "(10)" $h.witness.0\n'
        )
        code, out, _ = run("scenario", "run", str(f))
        assert code == 0
        assert json.loads(out)["steps"][1]["result"] == {"member": True, "n": 2}

    def test_duplicate_name_rejected(self, run, tmp_path):
        f = tmp_path / "dup.scn"
        f.write_text('a: set member "(10)" 2\na: set member "(10)" 4\n')
        code, _, err = run("scenario", "run", str(f))
        assert code == 2 and "duplicate" in err

    def test_forward_reference_rejected(self, run, tmp_path):
        f = tmp_path / "fwd.scn"
        f.write_text('a: set member $b.n 2\nb: set member "(10)" 4\n')
        assert run("scenario", "run", str(f))[0] == 2

    def test_unknown_field_rejected(self, run, tmp_path):
        f = tmp_path / "field.scn"
        f.write_text('a: set member "(10)" 2\nb: set member "(10)" $a.nope\n')
        code, _, err = run("scenario", "run", str(f))
        assert code == 2 and "nope" in err

    def test_nesting_rejected(self, run, tmp_path):
        inner = tmp_path / "inner.scn"
        inner.write_text("")
        f = tmp_path / "outer.scn"
        f.write_text(f"a: scenario run {inner}\n")
        code, _, err = run("scenario", "run", str(f))
        assert code == 2 and "nest" in err

    def test_missing_file(self, run):
        code, _, err = run("scenario", "run", "no-such.scn")
        assert code == 2 and "no-such.scn" in err

    def test_malformed_line(self, run, tmp_path):
        f = tmp_path / "bad.scn"
        f.write_text("just some words\n")
        assert run("scenario", "run", str(f))[0] == 2

    def test_step_errors_propagate(self, run, tmp_path):
        f = tmp_path / "boom.scn"
        f.write_text('a: set syndetic "()"\n')
        assert run("scenario", "run", str(f))[0] == 2


class TestDeterminism:
    CORPUS = [
        ("set", "syndetic", "(10)"),
        ("set", "algebra", "(10)", "(1100)", "--downward"),
        ("dyn", "ur", "(01);(0011)"),
        ("dyn", "proximal", "00(01)", "(01)"),
        ("ip", "construct", "00(01)", "(01)", "--count", "4"),
        ("ip", "hindman", "(10);(01)", "--terms", "3", "--bound", "24"),
        ("filter", "build", "(10)", "(100)"),
        ("filter", "central", "(1100)"),
        ("scenario", "run", "aetmin.scn"),
    ]

    def test_repeat_runs_byte_identical(self, run):
        for argv in self.CORPUS:
            outs = {run(*argv)[1] for _ in range(3)}
            assert len(outs) == 1, argv

    def test_shared_parser_survives_failed_calls(self, run):
        # one parser serves every call of a process, so a parse error, an
        # input error or a blown cap must leave it as a fresh one would be
        cli._parser.cache_clear()
        clean = [("filter", "build", "(10)"), ("scenario", "run", "aetmin.scn")]
        first = [run(*argv) for argv in clean]
        assert [code for code, _, _ in first] == [0, 0]
        assert run("set", "syndetic", "--no-such-flag", "(10)")[0] == 2
        assert run("set", "syndetic", "()")[0] == 2
        assert run("set", "algebra", "(10)", "(1100)", "--downward", "--cap", "2")[0] == 3
        assert [run(*argv) for argv in clean] == first
        assert build_parser() is build_parser()
