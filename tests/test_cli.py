from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import math
import os
import pkgutil
import random
import shlex
import shutil
import subprocess
import sys
import time
from itertools import count, product
from pathlib import Path

import pytest

import epshift
from epshift import cli
from epshift.cli import build_parser, main
from epshift.dynamics import BlockCode, SymbolicPoint, are_proximal, is_uniformly_recurrent, shift
from epshift.epcore import EpSet, LiteralError, generate_algebra
from epshift.filters import build_partial_ultrafilter
from epshift.ipcore import (
    IpConstructionCertificate,
    IpGenerator,
    aet_to_iht_pipeline,
    ip_limit_check,
    ip_sequence_construct,
    verify_ip_certificate,
)
from oracles import (
    brute_closure,
    closed_form_member,
    flip,
    pinned_cases,
    pinned_run,
    pt,
    window_block_code,
    window_contains,
    window_replay,
)


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


# the argv lists of the benchmark's CLI corpus
CORPUS = [case["argv"] for _, case in pinned_cases("cli")]


@pytest.mark.parametrize("case", [c for _, c in pinned_cases("cli")], ids=[f"{i}-{a[0]}-{a[1]}" for i, a in enumerate(CORPUS)])
def test_benchmark_corpus_bytes(case):
    assert pinned_run("cli", case) == (case["expect"], True)


def test_every_result_is_json_native():
    """Each handler returns an object that survives a JSON round trip (no
    tuple, no record), over the corpus and every step of both bundled
    scenarios, so what ``main`` prints is what a scenario step's reference
    walks, and ``_lookup`` indexes lists only."""
    def result(argv):
        ns = build_parser().parse_args(argv)
        r = ns.handler(ns)
        assert json.loads(json.dumps(r)) == r, argv
        return r

    for argv in CORPUS:
        result(argv)
    for scenario in ("aetmin.scn", "extend.scn"):
        results: dict = {}
        for name, command in cli._parse_scenario(cli._scenario_text(scenario)):
            results[name] = result([cli._substitute(t, results) for t in shlex.split(command)])
        assert len(results) in (3, 5)


TOOL = Path(__file__).resolve().parents[1] / "tools" / "cli_diff.py"


def cli_diff(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(TOOL), *args], capture_output=True, text=True, timeout=300
    )


def test_cli_diff_finds_no_difference_against_itself():
    proc = cli_diff(str(TOOL.parents[1]))
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        0, f"{len(CORPUS)} calls, 0 differ\n", ""
    )


def test_cli_diff_reports_a_changed_message(tmp_path):
    """A tree whose refusal reads differently differs on that call alone."""
    shutil.copytree(TOOL.parents[1] / "src", tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    epcore = tmp_path / "src" / "epshift" / "epcore.py"
    text = epcore.read_text(encoding="utf-8")
    assert "position must be a natural number" in text
    epcore.write_text(text.replace("position must be a natural", "position must be a whole"))
    calls = tmp_path / "calls.jsonl"
    calls.write_text('["set", "member", "(10)", "-1"]\n\n["set", "member", "(10)", "6"]\n')
    proc = cli_diff(str(tmp_path), "--calls", str(calls))
    assert proc.returncode == 1, proc.stderr
    assert proc.stdout.splitlines() == [
        'call 0: ["set", "member", "(10)", "-1"]',
        '  stderr here:  "epshift: error: position must be a natural number\\n"',
        '  stderr other: "epshift: error: position must be a whole number\\n"',
        "2 calls, 1 differ",
    ]


def test_cli_diff_times_out_a_call_and_goes_on(tmp_path):
    """A call past the per-call timeout reads as timed out on both trees, and
    the calls after it still run and compare: at 0.05 s the 32768-member
    build (about 0.3 s) times out and the set lookups do not."""
    spec = importlib.util.spec_from_file_location("cli_diff", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    assert tool.CALL_TIMEOUT_S == 30
    shutil.copytree(TOOL.parents[1] / "src", tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    calls = [
        ["set", "member", "(10)", "4"],
        ["filter", "build", "(11010)", "(100)", "--cap", "32768"],
        ["set", "member", "(10)", "5"],
    ]
    here, other = (tool.run_tree(root / "src", calls, timeout=0.05)
                   for root in (TOOL.parents[1], tmp_path))
    assert here == other
    assert here[1] == ["timed out", "", ""]
    assert [r[0] for r in here] == [0, "timed out", 0]
    assert json.loads(here[0][1])["member"] and not json.loads(here[2][1])["member"]


def test_opcount_agrees_across_hash_seeds():
    """``tools/opcount.py`` counts one pass over four pinned scope cases, and
    one over four pinned search cases, under two hash seeds, which agree,
    and every layer the op runs counts."""
    tool = TOOL.with_name("opcount.py")
    for workload, modules in (("scope", ("epcore", "dynamics", "ipcore", "filters")),
                              ("search", ("epcore", "ipcore"))):
        proc = subprocess.run(
            [sys.executable, str(tool), workload, "--cases", "4"],
            capture_output=True, text=True, timeout=300,
        )
        assert (proc.returncode, proc.stderr) == (0, "")
        got = json.loads(proc.stdout)
        assert (got["workload"], got["cases"]) == (workload, 4)
        assert got["total"] == sum(got["modules"].values())
        layers = {f"epshift.{m}" for m in modules}
        assert all(got["modules"].get(m, 0) > 0 for m in layers)


def test_opcount_epshift_subtotal_ignores_checkout_depth(tmp_path):
    """``tools/opcount.py`` prints the ``epshift`` modules' subtotal next to
    the total: stdlib counts such as ``pathlib``'s grow with the depth of the
    checkout's path, and the subtotal reads the same from any depth."""
    root = TOOL.parents[1]
    got = []
    for tree in (tmp_path / "a", tmp_path / "b" / "c" / "d"):
        for part in ("src", "perfbench", "tools"):
            shutil.copytree(root / part, tree / part, ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, str(tree / "tools" / "opcount.py"), "cli"],
            capture_output=True, text=True, timeout=300,
        )
        assert (proc.returncode, proc.stderr) == (0, "")
        got.append(json.loads(proc.stdout))
    for out in got:
        own = [n for m, n in out["modules"].items() if m.split(".")[0] == "epshift"]
        assert out["epshift"] == sum(own) > 0
    assert got[0]["epshift"] == got[1]["epshift"]


# every optional flag of every parser, keyed by subcommand; a change that
# adds or drops a knob edits this table
OPTION_INVENTORY = {
    "set algebra": ["--downward", "--cap"],
    "dyn eaetp": ["--code"],
    "ip fs": ["--from", "--terms", "--bound"],
    "ip construct": ["--count"],
    "ip limit": ["--gen", "--resolution", "--terms", "--window"],
    "ip hindman": ["--terms", "--bound"],
    "ip iht": ["--coloring", "--terms", "--bound"],
    "ip pipeline": ["--coloring", "--terms"],
    "filter member": ["--gen", "--set"],
    "filter build": ["--cap"],
    "filter verify": ["--gen", "--downward", "--cap"],
    "filter dset": ["--gen", "--set"],
    "filter ulimit": ["--gen"],
    "filter extend": ["--base", "--new", "--cap"],
    "filter central": ["--bound"],
}


def test_option_inventory():
    found = {}

    def walk(parser, path):
        flags = []
        for action in parser._actions:
            if isinstance(action, argparse._SubParsersAction):
                for name, sub in action.choices.items():
                    walk(sub, path + [name])
            elif action.option_strings and not isinstance(action, argparse._HelpAction):
                flags.append(action.option_strings[-1])
        if flags:
            found[" ".join(path)] = flags

    walk(build_parser(), [])
    assert found == OPTION_INVENTORY
    assert sum(map(len, found.values())) == 31


# names that left the API: a cylinder is a reference and a depth pair,
# the ur, proximal and IP-limit verdicts are the JSON objects they print,
# and the pipeline returns its certificate
RETIRED_NAMES = [
    "Cylinder", "UrReport", "ProximalityReport", "IpLimitVerdict", "PipelineResult",
    "class_mask", "_translate_set",
]


def test_public_name_inventory():
    """Every name in the package's and each module's ``__all__`` resolves,
    ``from epshift import *`` binds them all, and no retired name is
    exported, defined or mentioned in the package's source."""
    modules = [epshift] + [
        importlib.import_module(f"epshift.{m.name}") for m in pkgutil.iter_modules(epshift.__path__)
    ]
    assert len(modules) == 6
    for module in modules:
        assert [n for n in module.__all__ if not hasattr(module, n)] == [], module.__name__
        assert [n for n in RETIRED_NAMES if hasattr(module, n)] == [], module.__name__
        source = Path(module.__file__).read_text(encoding="utf-8")
        assert [n for n in RETIRED_NAMES if n in source] == [], module.__name__
    namespace: dict = {}
    exec("from epshift import *", namespace)
    assert set(epshift.__all__) <= namespace.keys()


def test_packaging_metadata():
    """An install ships every bundled scenario and its ``epshift`` script
    runs ``epshift.cli.main``, as ``pyproject.toml`` declares them."""
    tomllib = pytest.importorskip("tomllib")
    root = Path(__file__).resolve().parents[1]
    meta = tomllib.loads((root / "pyproject.toml").read_text(encoding="utf-8"))
    tool = meta["tool"]["setuptools"]
    package_dir = root / tool["packages"]["find"]["where"][0] / "epshift"
    shipped = {f for glob in tool["package-data"]["epshift"] for f in package_dir.glob(glob)}
    scenarios = [f for f in (package_dir / "scenarios").rglob("*") if f.is_file()]
    assert scenarios
    assert [f.name for f in scenarios if f not in shipped] == []
    module, _, attr = meta["project"]["scripts"]["epshift"].partition(":")
    assert getattr(importlib.import_module(module), attr) is cli.main


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

    def test_incoherent_ulimit_generator(self, run):
        """A generator that decides neither evens nor odds is bad input."""
        code, out, err = run("filter", "ulimit", "--gen", "1+(2)", "(10)")
        assert code == 2 and out == "" and "pair check failed" in err

    @staticmethod
    def run_limited(argv, limit_bytes):
        """Run the CLI in a child whose address space is capped."""
        resource = pytest.importorskip("resource")

        def limit():
            resource.setrlimit(resource.RLIMIT_AS, (limit_bytes, limit_bytes))

        src = str(Path(__file__).resolve().parents[1] / "src")
        return subprocess.run(
            [sys.executable, "-m", "epshift.cli", *argv],
            capture_output=True, text=True, timeout=60, preexec_fn=limit,
            env={**os.environ, "PYTHONPATH": src},
        )

    def test_out_of_memory_is_a_blown_cap(self):
        """A sum layer of 10^11 bits cannot be allocated under a 1 GiB
        address space; the child exits 3 instead of printing a traceback."""
        proc = self.run_limited(
            ["ip", "fs", "5+(10000000)", "--terms", "3", "--bound", "100000000000"], 1 << 30
        )
        assert proc.returncode == 3 and proc.stdout == ""
        assert "out of memory" in proc.stderr and "Traceback" not in proc.stderr

    def test_search_at_a_huge_bound_answers(self):
        """The search caps its masks at the least witness's largest possible
        total, so a bound of 10^11 needs no more memory than one of 14."""
        proc = self.run_limited(
            ["ip", "hindman", "(10);(01)", "--terms", "3", "--bound", "100000000000"], 1 << 28
        )
        assert (proc.returncode, proc.stderr) == (0, "")
        assert json.loads(proc.stdout)["witness"] == [2, 4, 8]

    @pytest.mark.parametrize("kind, text", [
        ("set", "(10)\n"), ("generator", "2+(2)\n"), ("generator", "١+(٢)"),
        ("generator", "1" * 5000 + "+(1)"), ("block code", "+1:1:1:01"),
        ("block code", " 1:1:1:01"), ("block code", "١:1:1:01"), ("block code", "0_1:1:1:01"),
    ], ids=["set-newline", "gen-newline", "gen-arabic-indic", "gen-5000-digits", "code-sign",
            "code-space", "code-arabic-indic", "code-underscore"])
    def test_literal_matched_whole(self, run, kind, text):
        """A literal is matched as a whole, with ASCII digits only: a trailing
        newline, a sign, a space, an underscore, another script's digits or
        a number past int()'s digit limit is refused as that literal."""
        argv = {"set": ["set", "member", text, "0"],
                "generator": ["filter", "member", "--gen", text, "--set", "(01)"],
                "block code": ["dyn", "eaetp", "(01)", "--code", text]}[kind]
        code, out, err = run(*argv)
        assert (code, out) == (2, "")
        assert err.startswith(f"epshift: error: bad {kind} literal {text!r}: expected ")

    @pytest.mark.parametrize("argv", [
        ["set", "member", "(10)", "٤"], ["set", "member", "(10)", " 4"],
        ["set", "member", "(10)", "+4"], ["set", "member", "(10)", "1_0"],
        ["set", "member", "(10)", "4\n"], ["set", "member", "(10)", "1" * 5000],
        ["ip", "fs", "2+(2)", "--terms", "٢", "--bound", "١٠"],
        ["dyn", "cover", "(011)", "(011)", "1", "３"],
        ["set", "algebra", "(10)", "--cap", "1_000"],
    ], ids=["arabic-indic", "space", "sign", "underscore", "newline", "5000-digits",
            "fs-arabic-indic", "cover-fullwidth", "cap-underscore"])
    def test_integer_matched_whole(self, run, argv):
        """An integer argument is ASCII digits after an optional minus sign,
        matched as a whole; anything else int() would take is refused, and
        so is a number past its digit limit."""
        code, out, err = run(*argv)
        assert (code, out) == (2, "")
        assert "invalid int value" in err

    def test_every_integer_argument_is_matched_whole(self):
        """The 21 integer actions, --cap on four subcommands among them,
        share the one converter."""
        typed = []

        def walk(parser):
            for action in parser._actions:
                if isinstance(action, argparse._SubParsersAction):
                    for sub in action.choices.values():
                        walk(sub)
                elif action.type is not None:
                    typed.append(action.type)

        walk(build_parser())
        assert typed == [cli._integer] * 21

    def test_huge_count_is_a_blown_cap(self, run):
        """A certificate past 65536 terms is refused before any term is
        built, with no address-space limit to stop it."""
        start = time.perf_counter()
        code, out, err = run("ip", "construct", "(10)", "(10)", "--count", "100000000")
        assert time.perf_counter() - start < 1
        assert (code, out) == (3, "") and "cap of 65536 terms" in err
        assert run("ip", "construct", "(10)", "(10)", "--count", "65537")[0] == 3
        code, out, _ = run("ip", "construct", "(10)", "(10)", "--count", "65536")
        assert code == 0 and json.loads(out)["count"] == 65536

    def test_cover_miss_names_point_and_depths(self, run):
        """A miss names y and the depth pair, not the 17,017 points of
        y's orbit closure."""
        y = "(0000001);(00000000001);(0000000000001);(00000000000000001)"
        code, out, err = run("dyn", "cover", y, "(1);(1);(1);(1)", "1", "2")
        assert (code, out) == (2, "") and len(err.encode()) < 1024
        assert err.count("\n") == 1 and "(1, 2)" in err and y in err

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

    def test_ur_gaps_at_lcm_9009(self, run):
        """Periods 7, 9, 11 and 13: gaps are recomputed only at resolutions
        just past a return exponent, never once per resolution."""
        code, out, _ = run(
            "dyn", "ur", "(1000000);(100000000);(10000000000);(1000000000000)"
        )
        assert code == 0
        assert json.loads(out)["gaps"][:4] == [[1, 7], [2, 63], [3, 693], [4, 9009]]
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "b5224a1871f67b0c08465e18e51f1093a061a9f4372ef4b3863fd50a911e0cd2"
        )

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

    @pytest.mark.parametrize("pos_depth", ["1", "3"])
    def test_cover_at_lcm_9009(self, run, pos_depth):
        """Periods 7, 9, 11 and 13 agree on all four coordinates only at
        multiples of 9009; one scan of the period finds the bound."""
        y = "(1000000);(100000000);(10000000000);(1000000000000)"
        code, out, _ = run("dyn", "cover", y, y, "4", pos_depth)
        assert code == 0
        assert out == '{"bound": 9008}\n'

    def test_orbit(self, run):
        _, out, _ = run("dyn", "orbit", "(0011)")
        d = json.loads(out)
        assert d["size"] == 4 and d["points"][0] == "(0011)"

    def test_fs(self, run):
        _, out, _ = run("ip", "fs", "2+(2)", "--terms", "2", "--bound", "12")
        assert json.loads(out) == {"count": 6, "sums": [2, 4, 6, 8, 10, 12]}

    def test_fs_many_terms(self, run):
        """Subset-sum layers: 40 terms of 1, 2, 3, ... give every sum."""
        code, out, _ = run("ip", "fs", "1+(1)", "--terms", "40", "--bound", "3000")
        assert code == 0
        assert json.loads(out)["count"] == 3000

    def test_construct(self, run):
        _, out, _ = run("ip", "construct", "00(01)", "(01)", "--count", "3")
        d = json.loads(out)
        assert d["generator"] == "2,4,6+(2)" and d["count"] == 3
        assert d["neighborhoods"][0] == [0, 0]
        assert d["source"] == "00(01)" and d["target"] == "(01)"

    def test_construct_deep_cylinders(self, run):
        """Position depths reach 4,002,000; each agreement test reads one
        preperiod-join-plus-lcm window instead of one that long."""
        code, out, _ = run("ip", "construct", "(10)", "(10)", "--count", "2000")
        assert code == 0
        assert json.loads(out)["neighborhoods"][-1] == [1, 4002000]
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "af9cbf9c29e12e4e232b8255a4d3d39cfc9e4fb969475c909c42c452de5133ad"
        )

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

    @pytest.mark.parametrize("argv", [
        ("ip", "iht", "--coloring", "(10);(01)", "--terms", "40", "--bound", "100000"),
        ("ip", "hindman", "(1)", "--terms", "1200", "--bound", "100000000"),
    ])
    def test_search_exhausts_when_no_witness_fits(self, run, argv):
        """Bounds below 2**length - 1 exhaust before any bound-wide mask."""
        code, out, _ = run(*argv)
        assert code == 0
        assert json.loads(out)["found"] is False

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

    @pytest.mark.parametrize("argv", [
        ("filter", "build", "1(10)"),
        ("ip", "pipeline", "--coloring", "1(10);0(01)", "--terms", "3"),
    ])
    def test_stages_are_the_certified_pair(self, run, argv):
        """A preperiodic encoded point differs from its companion, so the
        stages must name the certificate's source and target in order."""
        d = json.loads(run(*argv)[1])
        x, y = d["stages"]["encoded_point"], d["stages"]["ae_point"]
        cert = d.get("certificate") or d["stages"]["certificate"]
        assert x != y and (cert["source"], cert["target"]) == (x, y)
        assert json.loads(run("dyn", "ae", x)[1]) == {"point": y}

    def test_filter_build_4096_members(self, run):
        code, out, _ = run("filter", "build", "(1101)", "(100)", "--cap", "4096")
        d = json.loads(out)
        assert code == 0 and d["scope_size"] == 4096 and d["all_pass"] is True
        # the whole audit report, byte for byte
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "3a59ef3c185d478c8f17056bc428f863e67b282e4c325ecfc80911ba3d05168b"
        )

    def test_filter_build_32768_members(self, run):
        code, out, _ = run("filter", "build", "(11010)", "(100)", "--cap", "32768")
        d = json.loads(out)
        assert code == 0 and d["scope_size"] == 32768 and d["all_pass"] is True
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "88107cc615ca672c1488608f3c4924423e03ac016db3498c2dd6d9c678e369ed"
        )

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
        # the witness search is capped far below the bound, so masks stay narrow
        code, out, _ = run("filter", "central", "(10)", "--bound", "1000000000")
        assert code == 0 and json.loads(out)["ip"]["witness"] == [2, 4, 8, 16]

    def test_central_long_period_answers(self, run):
        # the filter is certified on the set's own point, whose generator
        # depends only on the period and preperiod, so no algebra is built
        code, out, _ = run("filter", "central", "(0" + "1" * 319 + ")")
        assert code == 0
        d = json.loads(out)
        assert len(d["ip"]["refutations"]) == 319
        assert d["filter"]["member"] is False and d["filter"]["member"] == d["ip"]["ip"]
        assert d["filter"]["generator"] == "320,640,960,1280,1600,1920,2240,2560+(320)"
        code, out, _ = run("filter", "central", "1" * 40 + "(0)")
        assert code == 0
        d = json.loads(out)
        assert d["ip"] == {"ip": False, "reason": "finite"}
        assert d["filter"] == {"member": False, "generator": "40,41,42,43,44,45,46,47+(1)"}
        assert run("filter", "central", "(1100)", "--cap", "16")[0] == 2


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

    def test_bool_reference(self, run, tmp_path):
        f = tmp_path / "bool.scn"
        f.write_text(
            'a: set member "(10)" 2\n'
            "b: dyn shift $a.member 0\n"
        )
        code, _, err = run("scenario", "run", str(f))
        # $a.member splices as the JSON literal true, which no point parses
        assert code == 2 and "'true'" in err

    def test_step_help_keeps_stdout_empty(self, run, tmp_path):
        f = tmp_path / "help.scn"
        f.write_text("a: set --help\n")
        code, out, err = run("scenario", "run", str(f))
        assert code == 2 and out == "" and "Traceback" not in err

    def test_unclosed_quote_rejected(self, run, tmp_path):
        f = tmp_path / "quote.scn"
        f.write_text('a: set normalize "(10)\n')
        code, _, err = run("scenario", "run", str(f))
        assert code == 2 and "'a'" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "index", ["--1", "\u00b2", "9" * 5000], ids=["double-minus", "superscript", "5000-digits"]
    )
    def test_bad_list_index_rejected(self, run, tmp_path, index):
        # each passes str.isdigit once its minus signs are stripped, yet int()
        # rejects it: the last one is past int()'s digit limit
        f = tmp_path / "index.scn"
        f.write_text(
            'h: ip hindman "(10);(01)" --terms 2 --bound 16\n'
            f'm: set member "(10)" $h.witness.{index}\n',
            encoding="utf-8",
        )
        code, _, err = run("scenario", "run", str(f))
        assert code == 2 and index in err and "Traceback" not in err

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

    def test_directory_rejected(self, run, tmp_path):
        code, _, err = run("scenario", "run", str(tmp_path))
        assert code == 2 and err.startswith("epshift: error:") and "Traceback" not in err

    def test_non_utf8_file_rejected(self, run, tmp_path):
        f = tmp_path / "binary.scn"
        f.write_bytes(b"a: set member \xff\xfe 2\n")
        code, _, err = run("scenario", "run", str(f))
        assert code == 2 and "UTF-8" in err and "Traceback" not in err

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


# where each certifying subcommand prints its certificate
PRINTED_CERTIFICATE = {
    ("ip", "construct"): lambda out: {k: v for k, v in out.items() if k != "count"},
    ("ip", "pipeline"): lambda out: out["certificate"],
    ("filter", "build"): lambda out: out["stages"]["certificate"],
}


def parse_certificate(d: dict) -> IpConstructionCertificate:
    """A printed certificate read back with the literal parsers alone."""
    return IpConstructionCertificate(
        generator=IpGenerator.parse(d["generator"]),
        neighborhoods=tuple(tuple(u) for u in d["neighborhoods"]),
        target=SymbolicPoint.parse(d["target"]),
        source=SymbolicPoint.parse(d["source"]),
    )


def library_certificate(argv) -> IpConstructionCertificate:
    """The certificate the library builds for a certifying subcommand."""
    ns = build_parser().parse_args(list(argv))
    kind = tuple(argv[:2])
    if kind == ("ip", "construct"):
        return ip_sequence_construct(
            SymbolicPoint.parse(ns.x), SymbolicPoint.parse(ns.y), count=ns.count
        )
    if kind == ("ip", "pipeline"):
        colorings = [tuple(EpSet.parse(t) for t in c.split(";")) for c in ns.coloring]
        return aet_to_iht_pipeline(colorings, terms=ns.terms)
    assert kind == ("filter", "build")
    sets = [EpSet.parse(t) for t in ns.sets]
    return build_partial_ultrafilter(generate_algebra(sets, downward=True, cap=ns.cap)).certificate


def certifying_calls():
    """The corpus calls that print a certificate, and a few wider ones."""
    corpus = [argv for argv in CORPUS if tuple(argv[:2]) in PRINTED_CERTIFICATE]
    return corpus + [
        ["ip", "construct", "1(10);(0011)", "(01);(0011)", "--count", "6"],
        ["ip", "construct", "1101(0110);(001)", "(0110);(001)", "--count", "3"],
        ["ip", "construct", "(10)", "(10)", "--count", "1"],
        ["ip", "pipeline", "--coloring", "(10);(01)", "--coloring", "(1000);(0111)", "--terms", "5"],
        ["filter", "build", "(10)", "(1100)", "(100)"],
    ]


class TestCertificateRoundTrip:
    """Each printed certificate parses back into the library's own, and
    both replays accept it."""

    def check(self, argv, out: dict) -> None:
        cert = parse_certificate(PRINTED_CERTIFICATE[tuple(argv[:2])](out))
        assert cert == library_certificate(argv), argv
        assert verify_ip_certificate(cert) == [], argv
        assert window_replay(cert) == [], argv

    @pytest.mark.parametrize("argv", certifying_calls(), ids=" ".join)
    def test_certifying_call(self, run, argv):
        code, out, _ = run(*argv)
        assert code == 0
        self.check(argv, json.loads(out))

    @pytest.mark.parametrize("scenario", ["aetmin.scn", "extend.scn"])
    def test_scenario_steps(self, run, scenario):
        code, out, _ = run("scenario", "run", scenario)
        assert code == 0
        results, checked = {}, 0
        for step in json.loads(out)["steps"]:
            argv = [cli._substitute(t, results) for t in shlex.split(step["command"])]
            results[step["name"]] = step["result"]
            if tuple(argv[:2]) in PRINTED_CERTIFICATE:
                self.check(argv, step["result"])
                checked += 1
        assert checked >= 1


def rederived_cover(argv) -> dict | None:
    """The object ``dyn cover`` must print for ``argv``, re-derived from
    shifted copies of the point and window comparison with the reference;
    None where the input must be refused."""
    y, ref = SymbolicPoint.parse(argv[2]), SymbolicPoint.parse(argv[3])
    c, k = int(argv[4]), int(argv[5])
    period = y.lcm_period
    # refused: depths outside the reference's product, a point that is not
    # purely periodic (not uniformly recurrent), or products of two sizes
    if not 0 <= c <= ref.coord_count or k < 0:
        return None
    if not purely_periodic(y) or y.coord_count != ref.coord_count:
        return None
    # the orbit closure is T^s y for s < period; each copy's entry time
    entries = [
        next((n for n in range(period) if window_contains(ref, (c, k), shift(y, s + n), 0)), None)
        for s in range(period)
    ]
    return None if None in entries else {"bound": max(entries)}


# points and references for the dyn cover checker: periodic stacks of one
# and two coordinates, and non-recurrent ones such as 1(0)
COVER_UNIVERSE = [
    "(0)", "(1)", "(01)", "(011)", "(0011)", "1(0)", "0(1)", "01(10)",
    "(01);(1)", "(0011);(01)", "(0110);(10)", "1(0);(01)",
]


def cover_calls():
    """Every (point, reference, depths) triple over COVER_UNIVERSE, with
    depths one past each end of their range."""
    for point, ref in [(p, r) for p in COVER_UNIVERSE for r in COVER_UNIVERSE]:
        for c in range(-1, ref.count(";") + 3):
            for k in range(-1, 4):
                yield ["dyn", "cover", point, ref, str(c), str(k)]


def check_stdout(run, argv, want: dict | None) -> None:
    """``argv`` exits 0 and prints ``want``; where ``want`` is None it is
    refused: exit 2, empty stdout and an error line with no traceback."""
    code, out, err = run(*argv)
    if want is None:
        assert (code, out) == (2, ""), argv
        assert err.startswith("epshift: error: ") and "Traceback" not in err, argv
    else:
        assert (code, json.loads(out)) == (0, want), argv


class TestCoverRederived:
    """``dyn cover`` prints the bound that shifted copies and window
    comparison give for (point, reference, depths), and refuses the rest."""

    def test_universe(self, run):
        calls = list(cover_calls())
        assert len(calls) == 3120
        bounds = 0
        for argv in calls:
            want = rederived_cover(argv)
            check_stdout(run, argv, want)
            bounds += want is not None
        assert bounds > 0


# points for the ur, proximal and IP-limit checks: periodic stacks of one,
# two and three coordinates, non-recurrent ones such as 1(0) and 10(01),
# and the corpus points
VERDICT_UNIVERSE = [
    "(0)", "(1)", "(01)", "(10)", "(011)", "(0011)", "(1000)", "(01);(0011)",
    "(01);(1)", "(0110);(10)", "(1);(01);(001)", "1(0)", "0(1)", "11(0)", "01(0)",
    "10(01)", "00(01)", "01(10)", "1101(0110)", "1(0);(01)", "(01);1(10)",
]
LIMIT_GENERATORS = ["1+(2)", "2+(2)", "1,2+(3,1)", "3+(3)", "2,4+(6)"]


def verdict_calls():
    """(argv, library call) for every universe point under ``dyn ur``, every
    ordered pair of one product under ``dyn proximal``, and a grid of
    points, generators and resolutions under ``ip limit``."""
    for a in VERDICT_UNIVERSE:
        yield ["dyn", "ur", a], lambda a=a: is_uniformly_recurrent(pt(a))
        for b in VERDICT_UNIVERSE:
            if a.count(";") == b.count(";"):
                yield ["dyn", "proximal", a, b], lambda a=a, b=b: are_proximal(pt(a), pt(b))
    for a in VERDICT_UNIVERSE[::2]:
        for gen in LIMIT_GENERATORS:
            for r in (0, 1, 3, 6):
                argv = ["ip", "limit", a, "--gen", gen, "--resolution", str(r)]
                yield argv, lambda a=a, gen=gen, r=r: ip_limit_check(
                    pt(a), IpGenerator.parse(gen), resolution=r
                )


def test_verdict_is_its_stdout(run):
    """``is_uniformly_recurrent``, ``are_proximal`` and ``ip_limit_check``
    return the JSON object their subcommand prints: JSON-native through and
    through (no tuple survives a round trip), and printed as it is."""
    calls = list(verdict_calls())
    assert len(calls) == 21 + (15 * 15 + 5 * 5 + 1) + 11 * 5 * 4
    for argv, library in calls:
        got = library()
        assert json.loads(json.dumps(got)) == got, argv
        assert run(*argv) == (0, json.dumps(got) + "\n", ""), argv


def agrees_within(z: SymbolicPoint, x: SymbolicPoint, k: int) -> bool:
    """d(z, x) <= 2^-k: coordinate i agrees at the positions below k - i."""
    return all(
        z.coords[i].window(0, k - i) == x.coords[i].window(0, k - i)
        for i in range(min(k, x.coord_count))
    )


def purely_periodic(y: SymbolicPoint) -> bool:
    """Each coordinate's window repeats with its period p: u(n) = u(n + p)
    below its preperiod plus p, and so everywhere."""
    return all(
        u.window(0, len(u.pre) + len(u.res)) == u.window(len(u.res), len(u.pre) + 2 * len(u.res))
        for u in y.coords
    )


def rederived_ur(argv) -> dict | None:
    """The object ``dyn ur`` must print for ``argv``, re-derived from shifted
    copies of the point and raw windows of its coordinates; None where the
    input must be refused."""
    try:
        x = SymbolicPoint.parse(argv[2])
    except LiteralError:
        return None
    if purely_periodic(x):
        period = x.lcm_period
        # returns at resolution k are the n < period whose copy agrees with
        # x that far; a gap is the largest cyclic difference between them
        gaps = []
        for k in range(1, x.coord_count + period + 1):
            returns = [n for n in range(period) if agrees_within(shift(x, n), x, k)]
            gaps.append([k, max(b - a for a, b in zip(returns, returns[1:] + [period]))])
        return {"recurrent": True, "gaps": gaps}
    # the first coordinate that is not purely periodic, from its preperiod m
    # on of period p; its shortest prefix met at no offset in [m, m + p)
    i, line = next(
        (i, z) for i, z in enumerate(SymbolicPoint((u,)) for u in x.coords) if not purely_periodic(z)
    )
    m = next(n for n in count() if purely_periodic(shift(line, n)))
    u, p = line.coords[0], line.lcm_period
    for length in count(1):
        word = u.window(0, length)
        if all(u.window(n, n + length) != word for n in range(m, m + p)):
            occurrences = [n for n in range(m) if u.window(n, n + length) == word]
            return {"recurrent": False, "coord": i, "word": word, "occurrences": occurrences}


def rederived_proximal(argv) -> dict | None:
    """The object ``dyn proximal`` must print for ``argv``, re-derived from
    shifted copies of both points and raw windows of their coordinates;
    None where the input must be refused."""
    try:
        x, y = SymbolicPoint.parse(argv[2]), SymbolicPoint.parse(argv[3])
    except LiteralError:
        return None
    if x.coord_count != y.coord_count:
        return None
    # from the least offset where both copies are purely periodic they
    # repeat with the joint period, so they meet there or never
    join = next(n for n in count() if purely_periodic(shift(x, n)) and purely_periodic(shift(y, n)))
    if shift(x, join) == shift(y, join):
        return {"proximal": True, "witness": join}
    period = math.lcm(x.lcm_period, y.lcm_period)

    def exponent(n: int) -> int:
        """The least i + j with coordinate i of T^n x and T^n y apart at j;
        both repeat with the joint period, so j < period where they differ."""
        apart = []
        for i, (u, v) in enumerate(zip(x.coords, y.coords)):
            a, b = u.window(n, n + period), v.window(n, n + period)
            if a != b:
                apart.append(i + next(j for j in range(period) if a[j] != b[j]))
        return min(apart)

    return {"proximal": False, "exponent": max(exponent(n) for n in range(join, join + period))}


# refused literals: a symbol outside 0/1, an empty period, a trailing
# separator and no parentheses
MALFORMED_POINTS = ["1(2)", "()", "(01);", "01"]


class TestUrProximalRederived:
    """``dyn ur`` and ``dyn proximal`` print the objects that shifted copies
    and raw windows give, and refuse the rest; neither checker calls the
    deciders, their rules or ``distance_exponent``."""

    def test_ur_universe(self, run):
        verdicts = set()
        for a in VERDICT_UNIVERSE + MALFORMED_POINTS:
            want = rederived_ur(["dyn", "ur", a])
            check_stdout(run, ["dyn", "ur", a], want)
            verdicts.add(None if want is None else want["recurrent"])
        assert verdicts == {True, False, None}

    def test_proximal_universe(self, run):
        verdicts = set()
        for a, b in product(VERDICT_UNIVERSE + MALFORMED_POINTS, repeat=2):
            want = rederived_proximal(["dyn", "proximal", a, b])
            check_stdout(run, ["dyn", "proximal", a, b], want)
            verdicts.add(None if want is None else want["proximal"])
        assert verdicts == {True, False, None}


def agree_from_join(x: SymbolicPoint, y: SymbolicPoint) -> bool:
    """x and y live in one product and agree from their preperiod join J on:
    past J both repeat, so one window of their period lcm from J decides."""
    if x.coord_count != y.coord_count:
        return False
    join = max(x.max_preperiod, y.max_preperiod)
    for u, v in zip(x.coords, y.coords):
        span = math.lcm(len(u.res), len(v.res))
        if u.window(join, join + span) != v.window(join, join + span):
            return False
    return True


def companion(x: SymbolicPoint) -> SymbolicPoint:
    """The purely periodic point that agrees with x from its preperiod join
    on, the only one there is: coordinate i repeats x_i's window one period
    p long from the first multiple of p at or past the join."""
    join = x.max_preperiod
    coords = []
    for u in x.coords:
        p = len(u.res)
        start = -(-join // p) * p
        coords.append(EpSet("", u.window(start, start + p)))
    y = SymbolicPoint(tuple(coords))
    assert purely_periodic(y) and agree_from_join(x, y)
    return y


def rederived_ae(argv) -> dict | None:
    """The object ``dyn ae`` must print for ``argv``; None where the input
    must be refused."""
    try:
        x = SymbolicPoint.parse(argv[2])
    except LiteralError:
        return None
    return {"point": companion(x).literal}


def rederived_eaet(argv) -> dict | None:
    """The object ``dyn eaet x1 y1 x2`` must print: x2's companion once
    (x1, y1) is a pair, y1 purely periodic and agreeing with x1 from the
    join on; None where the input must be refused."""
    try:
        x1, y1, x2 = (SymbolicPoint.parse(a) for a in argv[2:5])
    except LiteralError:
        return None
    if not (purely_periodic(y1) and agree_from_join(x1, y1)):
        return None
    return {"point": companion(x2).literal}


def code_fields(text: str) -> tuple[int, int, int, str] | None:
    """A block code literal's arity, window, coordinate count and bits, or
    None where it is malformed: the table has one row of coords bits 0/1
    for each of the 2^reads patterns, and reads = arity * coords * window
    is at most 16."""
    parts = text.split(":")
    if len(parts) != 4:
        return None
    try:
        a, w, c = map(int, parts[:3])
    except ValueError:
        return None
    bits = parts[3]
    if min(a, w, c) < 1 or a * w * c > 16 or len(bits) != c << a * w * c or set(bits) - {"0", "1"}:
        return None
    return a, w, c, bits


def rederived_eaetp(argv) -> dict | None:
    """The object ``dyn eaetp point --code ...`` must print: y0 is the
    point's companion, and each later x is code i applied to the ys so far
    (the window oracle ``window_block_code``), followed by its companion;
    None where the input must be refused."""
    point, codes = argv[2], argv[4::2]
    assert argv[3::2] == ["--code"] * len(codes)
    fields = [code_fields(c) for c in codes]
    if None in fields:
        return None
    try:
        x = SymbolicPoint.parse(point)
    except LiteralError:
        return None
    ys = [companion(x)]
    for i, (a, w, c, bits) in enumerate(fields):
        if a != i + 1 or any(y.coord_count != c for y in ys):
            return None
        ys.append(companion(window_block_code(BlockCode(a, w, c, bits), ys)))
    return {"points": [y.literal for y in ys]}


# points for the AE checkers: periodic and non-recurrent stacks of one and
# two coordinates, and malformed literals
AE_UNIVERSE = [
    "(0)", "(01)", "(011)", "1(0)", "10(01)", "01(10)", "1101(0110)",
    "(01);(0011)", "1(0);(01)", "(01);1(10)", "1(2)", "()",
]


def chains(rng: random.Random):
    """Block-code chains of at most 3 reads per code: every one-point shape
    alone, every two-point shape after it, the three-point code after that,
    with drawn bits, and chains that must be refused."""
    def code(a, w, c):
        return f"{a}:{w}:{c}:" + "".join(rng.choice("01") for _ in range(c << a * w * c))

    firsts = [code(1, w, c) for w, c in [(1, 1), (2, 1), (3, 1), (1, 2), (1, 3)] for _ in range(2)]
    firsts += ["1:1:1:01", "1:1:1:10", "1:1:2:00011011"]
    for first in firsts:
        yield [first]
        c = int(first.split(":")[2])
        if c == 1:
            second = code(2, 1, 1)
            yield [first, second]
            yield [first, second, code(3, 1, 1)]
    # arity out of order, coordinate counts that differ, malformed literals
    yield ["2:1:1:0110"]
    yield ["1:1:1:01", "1:1:1:01"]
    yield ["1:1:2:00011011", "2:1:1:0110"]
    yield ["1:1:1:0"]
    yield ["1:1:1:012"]
    yield ["1:1:1:02"]
    yield ["1:1:1"]
    yield ["0:1:1:01"]
    yield ["a:1:1:01"]
    yield ["3:3:2:" + "0" * 10]
    yield ["1:1:1:01", "2:1:1:01"]


class TestAeRederived:
    """``dyn ae``, ``dyn eaet`` and ``dyn eaetp`` print the companions that
    raw windows give, and refuse the rest; no checker calls the solvers,
    ``apply_block_code``, the pair check or its rules."""

    def test_ae_universe(self, run):
        for a in AE_UNIVERSE:
            check_stdout(run, ["dyn", "ae", a], rederived_ae(["dyn", "ae", a]))

    def test_eaet_universe(self, run):
        answers = 0
        for x1, y1, x2 in product(AE_UNIVERSE, AE_UNIVERSE, AE_UNIVERSE[::3]):
            argv = ["dyn", "eaet", x1, y1, x2]
            want = rederived_eaet(argv)
            check_stdout(run, argv, want)
            answers += want is not None
        assert answers > 0

    def test_eaetp_universe(self, run):
        calls = [
            ["dyn", "eaetp", x] + [t for c in chain for t in ("--code", c)]
            for chain in chains(random.Random(30))
            for x in AE_UNIVERSE
        ]
        answers = 0
        for argv in calls:
            want = rederived_eaetp(argv)
            check_stdout(run, argv, want)
            answers += want is not None
        assert answers > len(calls) // 3


def closed_form_build(sets: list[EpSet]) -> tuple[list[EpSet], list[EpSet], IpConstructionCertificate]:
    """The closure of ``sets``, its selected members and the certificate of
    the filter built on it, from the closed form alone.  The encoded point's
    coordinate i is member i's complement and its companion is the purely
    periodic point agreeing with it from the preperiod join J on; the terms
    are the least 8 multiples of the period lcm L past J, and U_{i+1} has
    depths (min(i + 1, K), the larger of i + 1 and U_i's position depth
    plus n_i) for K members."""
    closure = brute_closure(sets, downward=True)
    x = SymbolicPoint(tuple(map(flip, closure)))
    join = max(len(u.pre) for u in closure)
    lcm = math.lcm(*(len(u.res) for u in closure))
    first = max(1, -(-join // lcm))
    terms = [lcm * (first + i) for i in range(8)]
    pairs, depth = [(0, 0)], 0
    for i, n in enumerate(terms):
        depth = max(i + 1, depth + n)
        pairs.append((min(i + 1, len(closure)), depth))
    cert = IpConstructionCertificate(
        generator=IpGenerator.parse(",".join(map(str, terms)) + f"+({lcm})"),
        neighborhoods=tuple(pairs),
        target=companion(x),
        source=x,
    )
    assert window_replay(cert) == []
    return closure, [u for u in closure if closed_form_member(u)], cert


def literal_sets(texts) -> list[EpSet] | None:
    try:
        return [EpSet.parse(t) for t in texts]
    except LiteralError:
        return None


def rederived_filter_build(argv) -> dict | None:
    """The object ``filter build`` must print: the closed-form build of the
    brute-force closure, whose certificate the window oracle replays; None
    where a literal must be refused."""
    texts = list(argv[2:])
    if "--cap" in texts:
        i = texts.index("--cap")
        del texts[i:i + 2]
    sets = literal_sets(texts)
    if sets is None:
        return None
    closure, selected, cert = closed_form_build(sets)
    printed = {
        "generator": cert.generator.literal,
        "neighborhoods": [list(u) for u in cert.neighborhoods],
        "source": cert.source.literal,
        "target": cert.target.literal,
    }
    return {
        "all_pass": True,
        "generator": printed["generator"],
        "scope_size": len(closure),
        "members": [u.literal for u in selected],
        "stages": {"encoded_point": printed["source"], "ae_point": printed["target"],
                   "certificate": printed},
    }


def rederived_filter_extend(argv) -> dict | None:
    """The object ``filter extend --base ... --new ...`` must print: the
    closed-form build of the wider closure, with both closures' sizes;
    None where a literal must be refused."""
    base, new = (
        literal_sets(t for f, t in zip(argv[2::2], argv[3::2]) if f == flag)
        for flag in ("--base", "--new")
    )
    if base is None or new is None:
        return None
    closure, selected, cert = closed_form_build(base + new)
    return {
        "agreement": True,
        "all_pass": True,
        "generator": cert.generator.literal,
        "base_size": len(brute_closure(base, downward=True)),
        "new_size": len(closure),
        "members": [u.literal for u in selected],
    }


# filter build and extend calls for their checkers: scopes of 2 to 64
# members, preperiodic ones among them, and malformed literals
FILTER_CALLS = [
    ["filter", "build", "(1)"],
    ["filter", "build", "(10)"],
    ["filter", "build", "1(0)"],
    ["filter", "build", "1(10)"],
    ["filter", "build", "(110)"],
    ["filter", "build", "01(10)", "(1000)"],
    ["filter", "build", "(10)", "(100)", "--cap", "128"],
    ["filter", "build", "(10)", "(12)"],
    ["filter", "build", "()"],
    ["filter", "extend", "--base", "(10)", "--new", "(1000)"],
    ["filter", "extend", "--base", "1(0)", "--new", "(10)"],
    ["filter", "extend", "--base", "(100)", "--new", "(10)"],
    ["filter", "extend", "--new", "1(10)", "--base", "(1)", "--new", "(10)"],
    ["filter", "extend", "--base", "(10)", "--new", "(1)", "--cap", "8"],
    ["filter", "extend", "--base", "(10)", "--new", "x"],
]


class TestFilterRederived:
    """``filter build`` and ``filter extend`` print the closed-form build of
    the brute-force closure, and refuse malformed literals; neither checker
    calls ``generate_algebra``, the build, the extension or the split."""

    def test_calls(self, run):
        answers = 0
        for argv in FILTER_CALLS:
            want = REDERIVED[" ".join(argv[:2])](argv)
            check_stdout(run, argv, want)
            answers += want is not None
        assert answers == len(FILTER_CALLS) - 3


# each leaf subcommand's stdout checker: argv -> the object the call must
# print, or None where it must be refused
REDERIVED = {
    "dyn cover": rederived_cover,
    "dyn ur": rederived_ur,
    "dyn proximal": rederived_proximal,
    "dyn ae": rederived_ae,
    "dyn eaet": rederived_eaet,
    "dyn eaetp": rederived_eaetp,
    "filter build": rederived_filter_build,
    "filter extend": rederived_filter_extend,
}


@pytest.mark.parametrize(
    "argv", [argv for argv in CORPUS if " ".join(argv[:2]) in REDERIVED], ids=" ".join
)
def test_corpus_call(run, argv):
    check_stdout(run, argv, REDERIVED[" ".join(argv[:2])](argv))
