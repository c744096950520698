import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import tropmarkov
from tropmarkov import cli, surface
from tropmarkov.arithmetic import LIFT_WORD_BOUND, ZP_BOX_BOUND
from tropmarkov.classifier import HEIGHT_BOUND, exception_rays_punctured
from tropmarkov.cli import main
from tropmarkov.dynamics import Word
from tropmarkov.hyperbolic import (
    DEPTH_BOUND,
    partial_orbit_boundary,
    partial_orbit_skeleton,
    partition_table,
)
from tropmarkov.sampling import random_params, random_skeleton_point, random_word
from tropmarkov.scalars import parse_rational
from tropmarkov.surface import GRID_BOUND, Params, point_text

from conftest import oracle_csv_text


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestClassifyCommand:
    def test_borderline_point_report(self, capsys):
        code, out, _ = run_cli(
            capsys, "classify", "--params", "inf,inf,inf,-2", "--point", "-2,-3,-5")
        assert code == 0
        payload = json.loads(out)
        assert payload["schema_version"] == 1
        assert payload["in_U"] is False
        assert payload["relevant_ray"] == 1
        assert payload["slope"] == "2/3"
        assert payload["certificate"] == "s1 s2 s3"

    def test_domain_error_exit_code(self, capsys):
        code, _, err = run_cli(
            capsys, "classify", "--params", "0,0,0,0", "--point", "0,0,0")
        assert code == 2
        assert "error" in err

    def test_usage_error_exit_code(self, capsys, tmp_path):
        for argv in (
            ("classify", "--params", "inf,inf,inf"),
            ("fatou", "--params", "1/0,0,0,-1"),
            ("fatou", "--params", "abc,0,0,-1"),
            ("reduce", "--params", "inf,inf,inf,-2", "--point", "-2,-3,-5", "--max-steps", "-1"),
            ("tessellation", "--depth", "-1", "--svg", str(tmp_path / "t.svg")),
            ("rays", "--d", "-2", "--height", "-1"),
            ("enumerate-zp", "--p", "1", "--D", "1/2"),
            ("enumerate-zp", "--p", "-3", "--D", "1/9"),
            ("enumerate-zp", "--p", "65536", "--D", "1/2"),
            ("farey", "--depth", "-1"),
        ):
            code, out, err = run_cli(capsys, *argv)
            assert code == 3, argv
            assert "usage error" in err and out == ""
        assert not (tmp_path / "t.svg").exists()
        # One wording for a negative depth, whichever command reads it.
        farey = run_cli(capsys, "farey", "--depth", "-1")
        tessellation = run_cli(capsys, "tessellation", "--depth", "-1",
                               "--svg", str(tmp_path / "t.svg"))
        assert farey == tessellation and farey[0] == 3


    def test_resource_error_exit_code(self, capsys, tmp_path):
        # Only the bound checks run: each size is rejected before anything is built.
        # The point has slope [1; 10^9], about 10^9 reflections past STEP_BOUND.
        long_run = ("--params", "inf,inf,inf,-2", "--point", "-1000000001,-1000000000,-2000000001")
        long_word = " ".join(f"s{1 + k % 3}" for k in range(LIFT_WORD_BOUND + 1))
        for argv in (
            ("tessellation", "--depth", "17", "--svg", str(tmp_path / "t.svg")),
            ("farey", "--depth", "17"),
            ("farey", "--depth", "17", "--svg", str(tmp_path / "f.svg")),
            ("enumerate-zp", "--p", "2", "--D", "1/1099511627776"),
            ("enumerate-zp", "--p", "1000000000000000003", "--D", "1/2"),
            ("reduce", *long_run),
            ("reduce", *long_run, "--max-steps", str(10**12)),
            ("classify", *long_run),
            ("rays", "--d", "-2", "--height", str(HEIGHT_BOUND + 1)),
            ("lift-check", "--seed", "t^-1,t^-1,t^-1", "--word", long_word,
             "--out", str(tmp_path / "l.json")),
            ("skeleton", "sample", "--params", "inf,inf,inf,-2", "--grid", str(GRID_BOUND + 1),
             "--out", str(tmp_path / "s.csv")),
            ("skeleton", "svg", "--params", "inf,inf,inf,-2", "--grid", str(GRID_BOUND + 1),
             "--out", str(tmp_path / "s.svg")),
        ):
            code, out, err = run_cli(capsys, *argv)
            assert code == 2, argv
            assert "exceeds the configured bound" in err and out == ""
        assert list(tmp_path.iterdir()) == []


class TestUnwritableOutput:
    """An output path that cannot be opened for writing is a resource error:
    exit 2, one error line, empty stdout."""

    @pytest.mark.parametrize("argv", [
        ("pingpong", "--depth", "2", "--side", "boundary", "--out", "{tmp}/missing/x.csv"),
        ("classify", "--params", "inf,inf,inf,-2", "--point", "-2,-3,-5", "--out", "{tmp}"),
        ("skeleton", "sample", "--params", "inf,inf,inf,-2", "--grid", "2",
         "--out", "{tmp}/missing/s.csv"),
    ])
    def test_out(self, capsys, tmp_path, argv):
        code, out, err = run_cli(capsys, *(a.format(tmp=tmp_path) for a in argv))
        assert code == 2 and out == ""
        assert err.startswith("error: cannot write ") and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", [
        ("tessellation", "--depth", "2", "--svg", "{tmp}"),
        ("tessellation", "--depth", "2", "--svg", "{tmp}/missing/t.svg"),
        ("farey", "--depth", "2", "--svg", "{tmp}"),
    ])
    def test_svg(self, capsys, tmp_path, argv):
        code, out, err = run_cli(capsys, *(a.format(tmp=tmp_path) for a in argv))
        assert code == 2 and out == ""
        assert err.startswith("error: cannot write ") and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []


class TestWordSyntax:
    def test_one_prefix_per_generator(self, capsys):
        base = ("orbit", "--params", "inf,inf,inf,-2", "--point", "-2,-3,-5", "--word")
        code, out, _ = run_cli(capsys, *base, "S1 r2 3")
        assert code == 0 and json.loads(out)["word"] == "s1 s2 s3"
        for word in ("ss1", "sr2", "rs3", "s1 RR2"):
            code, out, err = run_cli(capsys, *base, word)
            assert code == 3 and out == "" and "cannot parse generator" in err
        code, out, err = run_cli(capsys, "lift-check", "--seed", "1,1,1", "--word", "ss1")
        assert code == 3 and out == ""


class TestDashValues:
    """A value that starts with "-" after a flag is a value, whatever letters
    it holds, and parses as it does in the --flag=value form."""

    @pytest.mark.parametrize("argv, code", [
        (("classify", "--params", "-1,inf,inf,inf", "--point", "0,0,0"), 2),
        (("fatou", "--params", "-1,2,3,inf"), 0),
        (("lift-check", "--seed", "-t^-1,t^-1,t^-1", "--word", "s1"), 0),
        (("lift-check", "--seed", "t^-1,t^-1,t^-1", "--abc", "-t,0,0", "--word", "s1"), 0),
        (("reduce", "--params", "inf,inf,inf,-2", "--point", "-2,-3,-5"), 0),
        (("rays", "--d", "-1/2", "--height", "2"), 0),
    ])
    def test_dash_values(self, capsys, argv, code):
        result = run_cli(capsys, *argv)
        assert result[0] == code, result[2]
        joined = []
        for arg in argv:
            if arg.startswith("-") and not arg.startswith("--"):
                joined[-1] += "=" + arg
            else:
                joined.append(arg)
        assert run_cli(capsys, *joined) == result

    def test_dash_word_without_digit_or_sign_is_a_flag(self, capsys):
        code, out, err = run_cli(
            capsys, "reduce", "--params", "inf,inf,inf,-2", "--point", "-2,-3,-5", "-x")
        assert code == 3 and out == "" and "unrecognized arguments: -x" in err

    def test_points_in_errors_print_as_on_the_command_line(self, capsys):
        code, out, err = run_cli(
            capsys, "classify", "--params", "inf,inf,inf,-2", "--point", "0,0,0")
        assert code == 2 and out == ""
        assert err == "error: point 0,0,0 is not on the skeleton of inf,inf,inf,-2\n"
        code, _, err = run_cli(
            capsys, "reduce", "--params", "inf,inf,inf,-2", "--point", "-1/2,1/3,0")
        assert code == 2 and "point -1/2,1/3,0 is not" in err


class TestPingpongCommand:
    def test_counts(self, capsys):
        code, out, _ = run_cli(
            capsys, "pingpong", "--depth", "3", "--side", "boundary", "--stats")
        assert code == 0
        rows = out.strip().splitlines()
        assert rows[0] == "n,count,delta,Delta"
        assert rows[-1].startswith("3,24,")


class TestCsvBytes:
    """Every CSV the CLI writes against csv.writer on the public functions' results."""

    def test_pingpong_listings(self, capsys):
        for n in range(11):
            _, out, _ = run_cli(capsys, "pingpong", "--depth", str(n), "--side", "boundary")
            assert out == oracle_csv_text(["p", "q"], partial_orbit_boundary(n))
            _, out, _ = run_cli(capsys, "pingpong", "--depth", str(n), "--side", "skeleton")
            rows = [[str(c) for c in x] for x in partial_orbit_skeleton(n)]
            assert out == oracle_csv_text(["x1", "x2", "x3"], rows)

    def test_pingpong_depth_ten_digests(self, capsys):
        # sha256 of the listings as csv.writer wrote them.
        for side, digest in (
                ("boundary", "52190335ad5f2fbcd12175dbd5a1ce2448c3ecb30937d3f3d7536e25392c0747"),
                ("skeleton", "f33554460934821d54d36740781a63f886e73334aab66a2a3cf94ef1d1819fa3")):
            _, out, _ = run_cli(capsys, "pingpong", "--depth", "10", "--side", side)
            assert hashlib.sha256(out.encode()).hexdigest() == digest

    # sha256 of the skeleton listing at every depth up to the bound, each
    # coordinate printed as str of its Fraction.
    SKELETON_LISTING_DIGESTS = (
        "83d214c2f993daad43d21f9feec2acbda64caf674de02d1bc963c3776cd1fbd6",
        "82f7c8d390999ef2ea19dc5d12838df2a7f41406d982919ba64324ec120a5b4c",
        "d0b702345589c95614471cf3678fa2b5c3941af60f95470b5230f05b5a564ea3",
        "d9ec8778607641258c42a6953230059757d14e48612ed06b8cb2e86a2c19de5d",
        "ee6f6b8c2397244b51ba39b3344f865023d507af949591e6ba6fa99d85b361f7",
        "7e9727de4af65ea489715062fc495aa3aa7277c3882a2d7e45aa56cc22924f14",
        "6b67cac526270934a877adf96cd68499fa003fa9debd1d1c06f338f94e31ebfe",
        "e241d10d0c807bc8434ec557fe4297ece3c9764d2adb489e5f1613862682ab9c",
        "3d8cbf6bf5b560365fe061ac9ffb650db6056969fd8216b128025f931c4d5022",
        "6ae0ed8e72f290b77bdaed29c36a4d7a25093e85adac9e8946fc7f38fcb4aca0",
        "f33554460934821d54d36740781a63f886e73334aab66a2a3cf94ef1d1819fa3",
        "43d17ccc2f633c0b2e478ff031a140406adab719749b7506c1459df39c9cac91",
        "b661de3c545759af7201454514f83685da3eacdf7646d21451d18281f70da5ef",
        "4299dec4c2311331736fae7e818f3c25b9f8811714c104b315590f48aa528f6c",
        "7dfe8c20b314a186d03b54b267c1e58bba7fcb7a01915243c499cee9fd1b768f",
        "f795a1754d57d66aad796b22a8c1e2290b87df7649df9b05cdecf3ab0cd6e97a",
        "c403bb8fdc1774b66657cb9f15c288e4b1807d68ff77281b7b62e7d2418e3b78",
    )

    def test_pingpong_skeleton_digests(self, capsys):
        for n, digest in enumerate(self.SKELETON_LISTING_DIGESTS):
            _, out, _ = run_cli(capsys, "pingpong", "--depth", str(n), "--side", "skeleton")
            assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_pingpong_stats(self, capsys):
        for side in ("boundary", "skeleton"):
            for n in range(11):
                _, out, _ = run_cli(capsys, "pingpong", "--depth", str(n), "--side", side,
                                    "--stats")
                rows = [[k, count, f"{delta:.12f}", f"{big:.12f}"]
                        for k, (count, delta, big) in enumerate(partition_table(n, side))]
                assert out == oracle_csv_text(["n", "count", "delta", "Delta"], rows)

    def test_rays(self, capsys):
        for d in ("-2", "-3", "-1/2", "-7/3"):
            for height in range(5):
                _, out, _ = run_cli(capsys, "rays", "--d", d, "--height", str(height))
                gens = exception_rays_punctured(parse_rational(d), height)
                assert out == oracle_csv_text(["g1", "g2", "g3"],
                                              [[str(c) for c in g] for g in gens])

    def test_rays_height_64_digest(self, capsys):
        _, out, _ = run_cli(capsys, "rays", "--d", "-2", "--height", "64")
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "c441d27425d00c73400409a6f7b7a9455c1476c87b1d22b8143efc0a1dfddd01")

    @pytest.mark.parametrize("params, grid, span", [
        ("inf,inf,inf,-2", 3, "2"), ("1/2,inf,-1,-2", 5, "3"), ("0,0,0,0", 4, "5/2"),
        ("-1,2,3,-5/2", 7, "4")])
    def test_skeleton_sample(self, capsys, params, grid, span):
        _, out, _ = run_cli(capsys, "skeleton", "sample", "--params", params,
                            "--grid", str(grid), "--range", span, "--format", "csv")
        p = Params.parse(params)
        values = surface.plane_grid(grid, parse_rational(span))
        rows = []
        for v2 in values:
            for v1 in values:
                x = surface.lift_from_plane(p, 0, surface.plane_point(v1, v2))
                cells = sorted(c.value for c in surface.cells_of(p, x))
                rows.append([str(v1), str(v2), *(str(c) for c in x), "|".join(cells)])
        assert out == oracle_csv_text(["v1", "v2", "x1", "x2", "x3", "cells"], rows)


class TestSkeletonDigests:
    """sha256 of `skeleton sample` (CSV and JSON) and `skeleton svg` at grid 33."""

    DIGESTS = {
    ('inf,inf,inf,-2', 'sample', 'csv'): "dd9eb99b74e69349e3120c4f5fd71f4728b268275ea0fe30988c4b83f54cad6b",
    ('inf,inf,inf,-2', 'sample', 'json'): "c92f6ac25b161246a800413f39bef37682624b53fcd84c876245caa155800a85",
    ('inf,inf,inf,-2', 'svg', 'svg'): "3603fa1a18d1e13583d4cba936d37858e2ce2a0fee0dda930aa1c4ec8f133de7",
    ('1,-2,inf,3', 'sample', 'csv'): "b134b3ec7d9b68b961a9cae6b7f6dd6136bb4682a08d630891d7aa52468dae00",
    ('1,-2,inf,3', 'sample', 'json'): "f911d143f0cb61fff80c3dfb5f8cc876e1fa66da7c95089033897f1c286e6c13",
    ('1,-2,inf,3', 'svg', 'svg'): "a78273828ba04c0344340408e5a30fad769971d4e59f8a6f8f6d479b90a3b964",
    ('1/2,-5/3,inf,-7/4', 'sample', 'csv'): "676035e09d5c2d63905c0ab6b5f4381435911507afedd611c3530336ed0e46f4",
    ('1/2,-5/3,inf,-7/4', 'sample', 'json'): "ec165f41c24f93a53c45dc631b013b428aff1d5b4cdbfd87f0865f855cfcf1e8",
    ('1/2,-5/3,inf,-7/4', 'svg', 'svg'): "64245db9ecb4dcaca6caec66aafa0a57e4eed5d1877f2085b6b2ab07422efc1d",
    }

    @pytest.mark.parametrize("params, command, fmt", sorted(DIGESTS))
    def test_output_is_pinned(self, capsys, params, command, fmt):
        argv = ["skeleton", command, "--params", params, "--grid", "33"]
        if command == "sample":
            argv += ["--format", fmt]
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == self.DIGESTS[params, command, fmt]


class TestFatouCommand:
    def test_seeded_params_digest(self, capsys):
        # sha256 of `fatou` on 100 seeded random_params draws (21 with a
        # witness), each call as its exit code, stdout and stderr.
        rng = random.Random(2121)
        digest = hashlib.sha256()
        for _ in range(100):
            code, out, err = run_cli(capsys, "fatou", "--params", str(random_params(rng)))
            digest.update(f"{code}\n{out}{err}\n".encode())
        assert digest.hexdigest() == (
            "18bc42e74c40ae6b6f724117bb959573b83af8dceeaf644b988cfaf76275ba6c")

    def test_condition_true(self, capsys):
        code, out, _ = run_cli(capsys, "fatou", "--params", "0,0,0,-1")
        payload = json.loads(out)
        assert code == 0
        assert payload["condition"] is True
        assert payload["witness"] == ["-1/3", "-1/3", "-1/3"]

    def test_condition_false(self, capsys):
        _, out, _ = run_cli(capsys, "fatou", "--params", "0,0,0,0")
        payload = json.loads(out)
        assert payload["condition"] is False
        assert payload["witness"] is None


class TestOrbitAndReduce:
    def test_orbit_trace(self, capsys):
        code, out, _ = run_cli(
            capsys, "orbit", "--params", "inf,inf,inf,-2",
            "--point", "-2,-3,-5", "--word", "s1 s2 s3")
        payload = json.loads(out)
        assert code == 0
        assert payload["final"] == ["0", "-1", "-1"]
        assert [s["generator"] for s in payload["steps"]] == ["s3", "s2", "s1"]

    def test_reduce_trace(self, capsys):
        code, out, _ = run_cli(
            capsys, "reduce", "--params", "inf,inf,inf,-2", "--point", "-2,-3,-5")
        payload = json.loads(out)
        assert payload["kind"] == "ray"
        assert payload["ray_index"] == 1
        assert payload["word"] == "s1 s2 s3"

    def test_reduce_budget(self, capsys):
        code, out, _ = run_cli(
            capsys, "reduce", "--params", "inf,inf,inf,-2", "--point", "-2,-3,-5",
            "--max-steps", "1")
        payload = json.loads(out)
        assert code == 0
        assert payload["kind"] == "exhausted"
        assert payload["word"] == "s3" and payload["steps"] == 1


def _greedy_argvs() -> dict[str, list[list[str]]]:
    """The pinned argv of `reduce`, `classify` and `orbit`, 100 each.

    96 skeleton points are drawn with `tropmarkov.sampling` under meromorphic
    parameters (each entry +inf with chance 0.3).  Every eighth of them is cut
    by --max-steps 0 to 6, and each orbit applies a random word of 0 to 12
    letters.  Four starts follow whose itineraries (34 to 1,000,001 reflections)
    the greedy takes mostly in run jumps; the first is the 1,000,001-letter
    reduce the CI times.
    """
    rng = random.Random(20)
    starts = []
    for _ in range(96):
        params = random_params(rng, meromorphic=True)
        starts.append((str(params), point_text(random_skeleton_point(rng, params, 40, 6))))
    starts += [("inf,inf,inf,-2", "-2000001,-1000000,-1000001"),
               ("4,-12,2,12", "-2001/50,-20,-1001/50"),
               ("inf,-1,inf,-3", "-301,-3001,-2700"),
               ("-1/2,inf,inf,inf", "-2203,-1200,-1003")]
    argvs: dict[str, list[list[str]]] = {"reduce": [], "classify": [], "orbit": []}
    for k, (params, point) in enumerate(starts):
        flags = ["--params", params, "--point", point]
        cut = ["--max-steps", str(k // 8 % 7)] if k % 8 == 7 else []
        argvs["reduce"].append(["reduce", *flags, *cut])
        argvs["classify"].append(["classify", *flags])
        argvs["orbit"].append(["orbit", *flags, "--word", str(random_word(rng, k % 13))])
    return argvs


class TestGreedyDigests:
    """sha256 of every pinned `reduce`, `classify` and `orbit` call, each as its
    exit code, stdout and stderr, one digest per command."""

    DIGESTS = {
        "reduce": "51edcb93838627d27a8a79bc67652897a78febc05486d13c553b3cb99af061ce",
        "classify": "08080dfa87da9072d16a50fa776e3b89e6ac94d786aaa99d3b84b46d43ee856b",
        "orbit": "b598f4114e9d0ab7dcb3351a6f85563d55c00251af78163c583810e804c36c7e",
    }

    @pytest.mark.parametrize("command", sorted(DIGESTS))
    def test_output_is_pinned(self, capsys, command):
        digest = hashlib.sha256()
        for argv in _greedy_argvs()[command]:
            code, out, err = run_cli(capsys, *argv)
            digest.update(f"{code}\n{out}{err}\n".encode())
        assert digest.hexdigest() == self.DIGESTS[command]


class TestOrbitBound:
    """orbit refuses a point with a numerator or denominator of more than
    cli.ORBIT_DIGIT_BOUND digits before it prints anything, whether a long
    word grows it or the start point is that large."""

    PARAMS = ("--params", "inf,inf,inf,-2")

    def test_long_word(self, capsys):
        # 20,583 letters; the coordinates pass CPython's 4300-digit str limit.
        word = " ".join(["s1 s2 s3"] * 6861)
        code, out, err = run_cli(capsys, "orbit", *self.PARAMS, "--point", "-2,-3,-5",
                                 "--word", word)
        assert (code, out, err.count("\n")) == (2, "", 1)
        assert err.startswith("error: ") and "exceeds the configured bound of 1000 digits" in err

    def test_checked_at_every_step(self, capsys):
        word = " ".join(["s1 s2 s3"] * 2000)
        _, _, err = run_cli(capsys, "orbit", *self.PARAMS, "--point", "-2,-3,-5", "--word", word)
        k = int(err.split("after ")[1].split(" of ")[0])
        applied = list(Word.parse(word).applied_order())
        for m, expected in ((k - 1, 0), (k, 2)):
            prefix = " ".join(f"s{g}" for g in reversed(applied[:m]))
            code, out, _ = run_cli(capsys, "orbit", *self.PARAMS, "--point", "-2,-3,-5",
                                   "--word", prefix)
            assert code == expected
            if code == 0:
                digits = max(len(c.lstrip("-")) for c in json.loads(out)["final"])
                assert digits == cli.ORBIT_DIGIT_BOUND

    def test_huge_start_point(self, capsys):
        big = 10**cli.ORBIT_DIGIT_BOUND
        for point, word, expected in ((f"-{big},-1,-1", "s1", 2), (f"-1/{big},-1,-1", "", 2),
                                      (f"-{big - 1},0,0", "", 0)):
            code, out, err = run_cli(capsys, "orbit", "--params", "inf,inf,inf,inf",
                                     "--point", point, "--word", word)
            assert code == expected and (out == "") == (code == 2)
            assert err.count("\n") == (code == 2)


class TestDigitLimit:
    """A number past the interpreter's integer-string limit is a usage error
    that names the limit and shows the token cut short."""

    HUGE = "9" * 5001

    @pytest.mark.parametrize("argv", [
        ["classify", "--params", "inf,inf,inf,-2", "--point", f"-{HUGE},-3,-5"],
        ["reduce", "--params", f"inf,inf,{HUGE},-2", "--point", "-2,-3,-5"],
        ["orbit", "--params", "inf,inf,inf,-2", "--point", f"-2,-3,-1/{HUGE}", "--word", "s1"],
        ["rays", "--d", f"-{HUGE}", "--height", "3"],
        ["enumerate-zp", "--p", "2", "--D", f"1/{HUGE}"],
        ["skeleton", "sample", "--params", "inf,inf,inf,-2", "--range", HUGE],
        ["classify", "--params", "inf,inf,inf,-2", "--point", "1e5000,0,0"],
        # Integer flags: a valid integer, not an "invalid int value" echoed whole.
        ["skeleton", "sample", "--params", "0,0,0,0", "--grid", HUGE],
        ["tessellation", "--depth", HUGE, "--svg", "t.svg"],
        ["rays", "--d", "-2", "--height", f"-{HUGE}"],
        ["enumerate-zp", "--p", HUGE, "--D", "1/2"],
        ["reduce", "--params", "inf,inf,inf,-2", "--point", "-2,-3,-5", "--max-steps", HUGE],
    ])
    def test_names_the_limit(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out, err.count("\n")) == (3, "", 1)
        assert err.startswith("usage error: ") and len(err) < 200
        assert f"exceeds the limit of {sys.get_int_max_str_digits()} digits" in err


class TestDataCommands:
    def test_rays_csv(self, capsys):
        code, out, _ = run_cli(capsys, "rays", "--d", "-2", "--height", "1")
        rows = out.strip().splitlines()
        assert rows[0] == "g1,g2,g3"
        assert len(rows) == 7
        assert "0,-1,-1" in rows

    def test_skeleton_sample_csv(self, capsys):
        code, out, _ = run_cli(
            capsys, "skeleton", "sample", "--params", "inf,inf,inf,-2",
            "--grid", "3", "--range", "2")
        rows = out.strip().splitlines()
        assert rows[0] == "v1,v2,x1,x2,x3,cells"
        assert len(rows) == 10
        assert "0,0,-2/3,-2/3,-2/3,D" in rows

    def test_skeleton_sample_json_round_trip(self, capsys):
        _, out, _ = run_cli(
            capsys, "skeleton", "sample", "--params", "0,0,0,0",
            "--grid", "3", "--range", "1", "--format", "json")
        payload = json.loads(out)
        assert payload["command"] == "skeleton-sample"
        assert len(payload["rows"]) == 9
        assert json.loads(json.dumps(payload)) == payload

    def test_enumerate_zp(self, capsys):
        code, out, _ = run_cli(capsys, "enumerate-zp", "--p", "2", "--D", "1/4")
        payload = json.loads(out)
        assert payload["points"] == []
        code2, _, err = run_cli(capsys, "enumerate-zp", "--p", "2", "--D", "1/2")
        assert code2 == 2

    def test_lift_check(self, capsys):
        code, out, _ = run_cli(
            capsys, "lift-check", "--seed", "t^-1,t^-1,t^-1",
            "--abc", "0,0,0", "--word", "s1 s2 s3 s1")
        payload = json.loads(out)
        assert payload["ok"] is True
        assert len(payload["steps"]) == 4

    def test_farey_json(self, capsys):
        code, out, _ = run_cli(capsys, "farey", "--depth", "1", "--d", "-2")
        payload = json.loads(out)
        assert len(payload["triples"]) == 3
        root = payload["triples"][0]
        assert root["word"] == "s1"


class TestSvgCommands:
    def test_skeleton_svg(self, tmp_path, capsys):
        out_file = tmp_path / "sk.svg"
        code, _, _ = run_cli(
            capsys, "skeleton", "svg", "--params", "inf,inf,inf,-2",
            "--grid", "8", "--range", "3", "--out", str(out_file))
        assert code == 0
        body = out_file.read_text()
        assert body.startswith('<?xml version="1.0"')
        assert 'version="1.1"' in body

    def test_skeleton_svg_zero_range(self, capsys):
        # Every node lifts to the same point, so all squares take its colour;
        # a node's place in the picture does not divide by the span.
        code, out, _ = run_cli(capsys, "skeleton", "svg", "--params", "1,-2,inf,3",
                               "--grid", "3", "--range", "0")
        assert code == 0
        fills = [line.split('fill="')[1] for line in out.splitlines() if line.startswith("<rect x=")]
        assert len(fills) == 9 and len(set(fills)) == 1

    def test_farey_depth_zero(self, tmp_path, capsys):
        code, out, _ = run_cli(capsys, "farey", "--depth", "0")
        assert code == 0 and len(json.loads(out)["triples"]) == 1
        farey_file = tmp_path / "farey.svg"
        code, out, _ = run_cli(capsys, "farey", "--depth", "0", "--svg", str(farey_file))
        assert code == 0 and out == ""
        assert "<polygon" not in farey_file.read_text()

    def test_farey_svg_and_tessellation(self, tmp_path, capsys):
        farey_file = tmp_path / "farey.svg"
        code, _, _ = run_cli(
            capsys, "farey", "--depth", "2", "--d", "-2", "--svg", str(farey_file))
        assert code == 0 and farey_file.exists()
        tess_file = tmp_path / "tess.svg"
        code, _, _ = run_cli(
            capsys, "tessellation", "--depth", "2", "--svg", str(tess_file))
        assert code == 0
        assert "<circle" in tess_file.read_text()

    def test_tessellation_digest(self, tmp_path, capsys):
        # Each edge drawn once as an exact arc; pinned at depth 6.
        tess_file = tmp_path / "tess.svg"
        code, _, _ = run_cli(capsys, "tessellation", "--depth", "6", "--svg", str(tess_file))
        assert code == 0
        assert hashlib.sha256(tess_file.read_bytes()).hexdigest() == (
            "085075c4a8c81808f5485b777483f71a73f6c09c8ab987069e3accdbb53c34a0")


class TestEnvelope:
    @pytest.mark.parametrize(
        "command, argv",
        [
            ("skeleton-sample", ("skeleton", "sample", "--params", "0,0,0,0", "--grid", "2",
                                 "--format", "json")),
            ("orbit", ("orbit", "--params", "inf,inf,inf,-2", "--point", "-2,-3,-5",
                       "--word", "s1")),
            ("reduce", ("reduce", "--params", "inf,inf,inf,-2", "--point", "-2,-3,-5")),
            ("classify", ("classify", "--params", "inf,inf,inf,-2", "--point", "-2,-3,-5")),
            ("farey", ("farey", "--depth", "1")),
            ("fatou", ("fatou", "--params", "0,0,0,-1")),
            ("lift-check", ("lift-check", "--seed", "t^-1,t^-1,t^-1", "--word", "s1")),
            ("enumerate-zp", ("enumerate-zp", "--p", "2", "--D", "1/4")),
        ],
    )
    def test_schema_version_and_command(self, capsys, command, argv):
        code, out, _ = run_cli(capsys, *argv)
        payload = json.loads(out)
        assert code == 0
        assert payload["schema_version"] == 1
        assert payload["command"] == command


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ("classify", "--params", "inf,inf,inf,-2", "--point", "-2,-3,-5"),
            ("skeleton", "sample", "--params", "1/2,inf,-1,-2", "--grid", "5",
             "--range", "3"),
            ("pingpong", "--depth", "4", "--side", "skeleton", "--stats"),
            ("rays", "--d", "-2", "--height", "3"),
            ("farey", "--depth", "2", "--d", "-3"),
        ],
    )
    def test_byte_identical_reruns(self, capsys, argv):
        _, first, _ = run_cli(capsys, *argv)
        _, second, _ = run_cli(capsys, *argv)
        assert first == second and first


# -- load on first use ---------------------------------------------------------------

EXPORTS = (
    "CF", "CellId", "ClassifyReport", "DomainError", "ExtRat", "FareyTriple", "GreedyTrace",
    "INF", "LaurentPoly", "Params", "ResourceError", "SurfacePointL", "UsageError", "Word",
    "ZpPoint", "apply_word", "arithmetic", "cell_has_interior", "cells_of", "classifier",
    "classify", "compact_radius", "continued_fraction", "dynamics", "enumerate_zp_points",
    "errors", "euc", "exception_rays_punctured", "ext_min", "f0", "farey_enumerate",
    "farey_triangle", "fatou_condition", "fatou_witness", "fixed_set_point", "greedy_path",
    "hyperbolic", "in_tropicalization", "index_shift_bruteforce", "index_shift_cf",
    "is_meromorphic", "is_prime", "laurent", "level_set_shift", "lift_consistency",
    "lift_from_plane", "matrix_divergence", "on_boundary_ray", "on_skeleton",
    "order_isomorphism_check", "p_adic_valuation", "partial_orbit_boundary",
    "partial_orbit_skeleton", "partition_stats", "partition_table", "project_to_plane",
    "punctured_torus_in_U", "reduce_to_nets", "reflect_boundary", "scalars", "sk_norm",
    "slope_T", "stopping_time", "surface", "surface_from_seed", "table_orbit_triangles",
    "thomae_gcd", "thresholds", "transit_matrix", "trop_poly_f", "trop_vieta", "u_coords",
    "u_inverse", "vieta_exact",
)

_FRESH_SCRIPT = """
import sys
bare = set(sys.modules)
import contextlib, io, json
import tropmarkov.cli
loaded = lambda: sorted(m[11:] for m in sys.modules if m.startswith("tropmarkov."))
heavy = lambda: sorted({"dataclasses", "inspect", "typing", "shutil", "bz2", "lzma"}
                       & (set(sys.modules) - bare))
out = {"import": loaded()}
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = tropmarkov.cli.main(argv)
    out[argv[0]] = [code, loaded(), heavy()]
import tropmarkov as tm
out["all"] = [n for n in tm.__all__ if getattr(tm, n) is None]
print(json.dumps(out))
"""


def _fresh(*argvs) -> dict:
    """Run the CLI's main on each argv in one new interpreter; report sys.modules."""
    env = dict(os.environ)
    src = str(Path(tropmarkov.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    # -S: no site module, which may itself import shutil.
    proc = subprocess.run([sys.executable, "-S", "-c", _FRESH_SCRIPT, json.dumps(argvs)],
                          capture_output=True, text=True, env=env, check=True)
    return json.loads(proc.stdout)


class TestLoadOnFirstUse:
    UNUSED = {"arithmetic", "laurent", "svgout", "sampling"}

    def test_import_and_classify(self):
        out = _fresh(["classify", "--params", "inf,inf,inf,-2", "--point", "-2,-3,-5"])
        assert out["import"] == ["cli", "errors"]
        code, loaded, _ = out["classify"]
        assert code == 0 and "classifier" in loaded
        assert not (self.UNUSED | {"hyperbolic"}) & set(loaded)
        assert out["all"] == []

    def test_pingpong(self):
        code, loaded, _ = _fresh(["pingpong", "--depth", "3", "--side", "skeleton"])["pingpong"]
        assert code == 0 and "hyperbolic" in loaded
        assert not (self.UNUSED | {"classifier"}) & set(loaded)

    def test_no_code_generating_stdlib(self):
        # The value classes and the parser are built without dataclasses,
        # inspect or typing, and argparse's formatters read no terminal width,
        # so no shutil (nor its bz2 and lzma): none loads beyond what the bare
        # interpreter had.
        out = _fresh(["classify", "--params", "inf,inf,inf,-2", "--point", "-2,-3,-5"],
                     ["reduce", "--params", "1,-2,inf,3", "--point", "-2,-3,-5"],
                     ["pingpong", "--depth", "3", "--side", "boundary", "--stats"],
                     ["enumerate-zp", "--p", "2", "--D", "1/4"])
        for command in ("classify", "reduce", "pingpong", "enumerate-zp"):
            code, _, heavy = out[command]
            assert code == 0 and heavy == [], command

    def test_laurent_only_for_lift_check(self):
        out = _fresh(["enumerate-zp", "--p", "2", "--D", "1/4"],
                     ["fatou", "--params", "0,0,0,-1"],
                     ["lift-check", "--seed", "t^-1,t^-1,t^-1", "--word", "s1"])
        assert [out[c][0] for c in ("enumerate-zp", "fatou", "lift-check")] == [0, 0, 0]
        assert "arithmetic" in out["fatou"][1] and "laurent" not in out["fatou"][1]
        assert "laurent" in out["lift-check"][1]

    def test_every_export_resolves(self):
        assert tuple(tropmarkov.__all__) == EXPORTS and len(EXPORTS) == 74
        for name in EXPORTS:
            value = getattr(tropmarkov, name)
            module = getattr(value, "__module__", None)
            if module and module.startswith("tropmarkov."):
                assert getattr(sys.modules[module], name) is value
        assert set(EXPORTS) <= set(dir(tropmarkov))
        with pytest.raises(AttributeError):
            tropmarkov.no_such_name  # noqa: B018


# -- the CLI contract under generated argv ---------------------------------------------
#
# A well-formed argv exits 0, or 2 where its inputs lie outside a command's
# domain or its output would pass a bound.  One defect picks the exit code: a
# malformed value or a missing required flag exits 3, a size past its bound or
# an output path that cannot be written exits 2, before anything is built.
# Sizes stay small otherwise (depth <= 8, grid <= 16, height <= 20), except
# for numbers with up to the interpreter's int-str limit of digits and words
# up to the bounds.  "{tmp}" stands for a fresh temporary directory, the only
# place a generated argv writes to.

HUGE = 10**30
LIMIT = sys.get_int_max_str_digits()

_WORD_TOKENS = ("s1", "S2", "r3", "R1", "2", "s3")
_POINTS = ("-2,-3,-5", "0,-1,-1", "-1/2,1/3,0", "-1,-2,-3", "-5,-4,-9",
           "-1000000001,-1000000000,-2000000001", f"-{HUGE},-{HUGE + 1},-{2 * HUGE + 1}")
_RATIONALS = ("x", "1/0", "", "1/2/3")


def _digits(low: int, high: int):
    """An integer of low to high digits, one digit repeated."""
    return st.builds(lambda d, n: str(d) * n, st.integers(1, 9), st.integers(low, high))


def _numbers(*forms: str):
    """Each form with "{n}" an integer of a few digits fewer than the int-str
    limit (near), or of up to 600 more (past)."""
    return tuple(st.one_of([digits.map(form.format_map) for form in forms])
                 for digits in (_digits(LIMIT - 3, LIMIT).map(lambda n: {"n": n}),
                                _digits(LIMIT + 1, LIMIT + 600).map(lambda n: {"n": n})))


def _cyclic_word(n: int) -> str:
    return " ".join(f"s{1 + k % 3}" for k in range(n))


_SKELETON_POINTS = st.integers(1, LIMIT - 1).map(
    lambda k: f"-{10**(k - 1)},-{10**(k - 1) + 1},-{2 * 10**(k - 1) + 1}")
_NEAR_POINT, _PAST_POINT = _numbers("-{n},-3,-5", "-2/{n},-3/{n},-5/{n}", "-2,-3,-5/{n}")
_NEAR_PARAMS, _PAST_PARAMS = _numbers("inf,inf,inf,-{n}", "1/{n},-2,inf,3", "-1/{n},0,0,-1")
_NEAR_RANGE, _PAST_RANGE = _numbers("{n}", "1/{n}", "-{n}/7")
_NEAR_D, _PAST_D = _numbers("-{n}", "-1/{n}")
_NEAR_DD, _PAST_DD = _numbers("1/{n}", "{n}/3")
_NEAR_SEED, _PAST_SEED = _numbers("{n}*t^-1,t^-1,t^-1", "t^-{n},t^-1,t^-1", "1/{n},1,1")
_SHORT_WORDS = st.lists(st.sampled_from(_WORD_TOKENS), max_size=4).map(" ".join)


# flag -> (well-formed values, malformed values, values past a bound); each a
# tuple or a strategy.
FLAG_VALUES = {
    "--params": (("inf,inf,inf,-2", "1,-2,inf,3", "1/2,-5/3,inf,-7/4", "0,0,0,-1",
                  "-1,2,3,inf", "0,0,0,0"),
                 st.one_of(st.sampled_from(("inf,inf,inf", "abc,0,0,-1", "1/0,0,0,-1", "")),
                           _PAST_PARAMS), ()),
    "--point": (_POINTS,
                st.one_of(st.sampled_from(("1,2", "x,0,0", "1/0,0,0")), _PAST_POINT), ()),
    # Words up to LIFT_WORD_BOUND letters before reduction.
    "--word": (st.lists(st.sampled_from(_WORD_TOKENS), max_size=LIFT_WORD_BOUND).map(" ".join),
               ("ss1", "s1 sr2", "rs3 s2", "s4", "x", "s"), ()),
    "--grid": (st.integers(2, 16), ("1", "0", "x", "2.5"), (surface.GRID_BOUND + 1, HUGE)),
    "--range": (("4", "3", "1/2", "-2", "7/3"),
                st.one_of(st.sampled_from(_RATIONALS), _PAST_RANGE), ()),
    "--format": (("csv", "json"), ("xml",), ()),
    "--max-steps": (st.one_of(st.integers(0, 50), st.just(HUGE)), ("-1", "x"), ()),
    "--d": (("-2", "-1/2", "-7/3", "-3"),
            st.one_of(st.sampled_from(_RATIONALS), _PAST_D), ()),
    "--height": (st.integers(0, 20), ("-1", "x"), (HEIGHT_BOUND + 1, HUGE)),
    "--depth": (st.integers(0, 8), ("-1", "x", "1.5"), (DEPTH_BOUND + 1, HUGE)),
    "--cell": ((1, 2, 3), (0, 4, "x"), ()),
    "--side": (("boundary", "skeleton"), ("both",), ()),
    "--seed": (("t^-1,t^-1,t^-1", "1,1,1", "-t^-1,t^-1,t^-1"),
               st.one_of(st.sampled_from(("t^-1,t^-1", "t^x,1,1", "")), _PAST_SEED), ()),
    "--abc": (("0,0,0", "-t,0,0"), ("0,0", "q,0,0"), ()),
    "--p": ((2, 3, 5, 7), (1, 4, -3, "x"), (ZP_BOX_BOUND**2 + 1, HUGE)),
    "--D": (("1/2", "1/4", "1/8", "3/4", "1/3", "1/9", "1/5", "1/7", "5/49", "7/2"),
            st.one_of(st.sampled_from(_RATIONALS), _PAST_DD), (f"1/{2**40}",)),
    "--out": (("{tmp}/out",), (), ("{tmp}", "{tmp}/missing/out")),
    "--svg": (("{tmp}/out.svg",), (), ("{tmp}", "{tmp}/missing/out.svg")),
}
# Per command: values that are well-formed or past a bound only there.
COMMAND_VALUES = {
    ("orbit",): {
        # Mostly short words, else up to 2,000 letters: well short of growing
        # any listed point past the digit bound.
        "--word": (st.integers(0, 9).flatmap(
                       lambda k: st.integers(0, 2000).map(_cyclic_word) if k == 9 else _SHORT_WORDS),
                   (),
                   # From -2,-3,-5 under inf,inf,inf,-2 the 4,791st letter of
                   # s1 s2 s3 ... passes ORBIT_DIGIT_BOUND digits.
                   st.integers(4791, 6000).map(lambda n: _cyclic_word(3 * -(-n // 3)))),
        "--point": ((), (), st.integers(cli.ORBIT_DIGIT_BOUND, LIMIT - 1).map(
            lambda k: f"-{10**k},-1,-1")),
    },
    ("lift-check",): {
        "--word": ((), (), st.integers(LIFT_WORD_BOUND + 1, 400).map(_cyclic_word)),
    },
}
# What a past-bound orbit word needs to grow past the bound.
_ORBIT_GROWTH = {"--params": "inf,inf,inf,-2", "--point": "-2,-3,-5"}
# Well-formed numbers near the int-str limit, which one example in five gives
# one flag.  Each operation on them costs about the square of their digits, so
# such an example keeps its counts small.
NEAR_VALUES = {"--params": _NEAR_PARAMS, "--point": st.one_of(_SKELETON_POINTS, _NEAR_POINT),
               "--range": _NEAR_RANGE, "--d": _NEAR_D, "--D": _NEAR_DD, "--seed": _NEAR_SEED}
_NEAR_SIZES = {"--grid": st.integers(2, 4), "--height": st.integers(0, 4),
               "--depth": st.integers(0, 3)}


def _flag_values(path, name):
    """(ok, bad, big) of the flag on the command, each a strategy or None."""
    own = COMMAND_VALUES.get(path, {}).get(name, ((), (), ()))
    return tuple(_strategy(base) if mine == () else _strategy(mine)
                 for mine, base in zip(own, FLAG_VALUES[name]))


def _strategy(values):
    if isinstance(values, tuple):
        return st.sampled_from(values) if values else None
    return values


@st.composite
def contract_argv(draw):
    """(argv, defects) for one subcommand of `_COMMANDS`.  Each flag is given
    a well-formed value or left out (required flags are always given); then
    up to two flags get a defect: "bad" (a malformed value, or a required
    flag left out) or "big" (past a bound, or an unwritable output path)."""
    path, _, _, flags = draw(st.sampled_from([row for row in cli._COMMANDS if row[2]]))
    given_flags = {}
    for name, spec in flags:
        if spec.get("required") or draw(st.booleans()):
            if spec.get("action") == "store_true":
                given_flags[name] = None
            else:
                given_flags[name] = str(draw(_flag_values(path, name)[0]))
    near = sorted(set(given_flags) & set(NEAR_VALUES))
    if near and draw(st.integers(0, 4)) == 4:
        name = draw(st.sampled_from(near))
        given_flags[name] = draw(NEAR_VALUES[name])
        given_flags.update((size, str(draw(values))) for size, values in _NEAR_SIZES.items()
                           if size in dict(flags))
    if path == ("farey",) and "--svg" in given_flags:
        given_flags.pop("--out", None)  # farey then writes only its --svg file
    defects = {}
    for name in draw(st.lists(st.sampled_from(sorted(given_flags)), max_size=2, unique=True)):
        if given_flags[name] is None:
            continue
        _, bad, big = _flag_values(path, name)
        kinds = [k for k, values in (("bad", bad), ("big", big)) if values is not None]
        kinds += ["missing"] if dict(flags)[name].get("required") else []
        kind = draw(st.sampled_from(kinds))
        if kind == "missing":
            del given_flags[name]
            defects[name] = "bad"
        else:
            given_flags[name] = str(draw(bad if kind == "bad" else big))
            defects[name] = kind
    if path == ("orbit",) and defects.get("--word") == "big":
        given_flags.update((k, v) for k, v in _ORBIT_GROWTH.items() if k not in defects)
    argv = list(path)
    for name, value in given_flags.items():
        argv += [name] if value is None else [name, value]
    return argv, list(defects.values())


def _run_in(tmp: str, argv: list[str]):
    """main(argv) with stdout and stderr captured, and the files it wrote."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([a.replace("{tmp}", tmp) for a in argv])
    files = {}
    for root, _, names in os.walk(tmp):
        for name in names:
            path = os.path.join(root, name)
            files[os.path.relpath(path, tmp)] = Path(path).read_bytes()
            os.remove(path)
    return code, out.getvalue(), err.getvalue(), files


class TestContractFuzz:
    """Generated argv against the README contract: exit 0, 2 or 3 and never an
    exception; a single defect picks its exit code; nothing on stdout on an
    error; byte-identical reruns; schema_version on JSON output."""

    @given(contract_argv())
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
    def test_contract(self, case):
        argv, defects = case
        with tempfile.TemporaryDirectory() as tmp:
            first = _run_in(tmp, argv)
            assert _run_in(tmp, argv) == first
        code, out, err, files = first
        if not defects:
            assert code in (0, 2)
        elif len(defects) == 1:
            assert code == (3 if defects[0] == "bad" else 2)
        else:
            assert code in (2, 3)
        if code:
            assert out == "" and not files
            assert err.startswith("usage error: " if code == 3 else "error: ")
            assert err.count("\n") == 1
            return
        assert err == ""
        written = files.pop("out", b"").decode()
        assert set(files) <= {"out.svg"} and not (out and written)
        text = out or written
        assert text or files
        if text.startswith("{"):
            payload = json.loads(text)
            assert payload["schema_version"] == cli.SCHEMA_VERSION
            assert payload["command"] == "-".join(argv[:2 if argv[0] == "skeleton" else 1])


# -- the per-command parser against the full parser ---------------------------------


def _outputs(argv: list[str], full: bool):
    """Exit code, stdout, stderr and written files of main(argv), parsing with
    the full parser when ``full``, else as main chooses."""
    patch = mock.patch.object(cli, "_parse_args", cli._build_parser().parse_args) \
        if full else contextlib.nullcontext()
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, patch, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main([a.replace("{tmp}", tmp) for a in argv])
        except SystemExit as exc:  # help, printed by argparse outside main's handlers
            code = exc.code
        files = {os.path.relpath(os.path.join(root, name), tmp):
                 Path(root, name).read_bytes()
                 for root, _, names in os.walk(tmp) for name in names}
    return code, out.getvalue().replace(tmp, "{tmp}"), err.getvalue().replace(tmp, "{tmp}"), files


HELP_ARGV = [[*path, flag] for path, *_ in cli._COMMANDS for flag in ("-h", "--help", "--he")]


class TestCommandParser:
    """main parses with the named command's parser alone; it must answer every
    argv as the full parser does: exit code, stdout, stderr, files written."""

    @given(contract_argv())
    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
    def test_matches_full_parser(self, case):
        argv, _ = case
        assert _outputs(argv, full=False) == _outputs(argv, full=True)

    @pytest.mark.parametrize("argv", HELP_ARGV + [
        [], ["-h"], ["skeleton"], ["skeleton", "nope"], ["nope"], ["--params", "1"],
        ["classify", "--", "--params", "x"], ["classify", "--par", "inf,inf,inf,-2",
                                              "--point", "-2,-3,-5", "extra"],
    ])
    def test_help_groups_and_unknown_commands(self, argv):
        assert _outputs(argv, full=False) == _outputs(argv, full=True)

    @pytest.mark.parametrize("path", [row[0] for row in cli._COMMANDS if row[2]])
    def test_command_parser_help_is_the_full_parsers(self, path):
        # main sends -h to the full parser; the command's own parser must
        # print the same help for abbreviations such as --he.
        def help_text(parser, argv):
            out = io.StringIO()
            with contextlib.redirect_stdout(out), pytest.raises(SystemExit):
                parser.parse_args(argv)
            return out.getvalue()

        assert help_text(cli._command_parser(path), ["-h"]) == \
            help_text(cli._build_parser(), [*path, "-h"])


class TestHelpFormatter:
    """cli._Formatter reads the terminal width only when it formats help; the
    help it prints is the stock argparse formatter's, byte for byte."""

    @staticmethod
    def _helps() -> dict:
        def help_text(parser, argv):
            out = io.StringIO()
            with contextlib.redirect_stdout(out), pytest.raises(SystemExit):
                parser.parse_args(argv)
            return out.getvalue()

        # Fresh parsers, not the cached ones, so the formatter patched in is used.
        texts = {(): help_text(cli._build_parser.__wrapped__(), ["-h"])}
        for path, _, handler, _ in cli._COMMANDS:
            texts[path] = help_text(cli._build_parser.__wrapped__(), [*path, "-h"])
            if handler:
                texts[("own", *path)] = help_text(cli._command_parser.__wrapped__(path), ["-h"])
        return texts

    @pytest.mark.parametrize("columns", ["80", "40", "132"])
    def test_help_is_the_stock_formatters(self, monkeypatch, columns):
        monkeypatch.setenv("COLUMNS", columns)
        ours = self._helps()
        monkeypatch.setattr(cli, "_Formatter", argparse.HelpFormatter)
        assert self._helps() == ours
