import hashlib
import json

import pytest

from tropmarkov import surface
from tropmarkov.arithmetic import LIFT_WORD_BOUND
from tropmarkov.classifier import HEIGHT_BOUND, exception_rays_punctured
from tropmarkov.cli import main
from tropmarkov.hyperbolic import partial_orbit_boundary, partial_orbit_skeleton, partition_table
from tropmarkov.scalars import parse_rational
from tropmarkov.surface import GRID_BOUND, Params

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
