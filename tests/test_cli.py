"""CLI drivers: exit codes, report determinism, schemas."""

import csv
import json
import math
import warnings

import pytest

from torsion_bound import cli_reports as cli
from torsion_bound import convex_geometry as cg


def run(argv):
    return cli.main(argv)


def load_json(path):
    return json.loads(path.read_text())


BASE = ["--samples", "4000", "--seed", "7"]


class TestConstants:
    def test_n2_row(self, tmp_path):
        out = tmp_path / "c.json"
        code = run(["constants", "--n-max", "2", "--out", str(out)] + BASE)
        assert code == 0
        doc = load_json(out)
        row = doc["rows"][0]
        assert row["n"] == 2
        assert row["omega_n"] == pytest.approx(3.141592653589793)
        assert row["normalized_constant"] == pytest.approx(2.5066282746310002)

    def test_csv_schema(self, tmp_path):
        out = tmp_path / "c.csv"
        assert run(["constants", "--n-max", "4", "--format", "csv",
                    "--out", str(out)] + BASE) == 0
        with open(out) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == cli.CONSTANTS_COLUMNS
        assert len(rows) == 4  # header + n = 2, 3, 4

    def test_empty_range_exits_2_with_one_line(self, capsys):
        # an empty table would pass every check it does not contain
        code = run(["constants", "--n-min", "5", "--n-max", "2"] + BASE)
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1


class TestVerifyHh:
    def test_half_disk_preset_passes(self, tmp_path):
        out = tmp_path / "hh.json"
        code = run(["verify-hh", "--preset", "half-disk-affine",
                    "--samples", "20000", "--seed", "3",
                    "--boundary-samples", "24", "--out", str(out)])
        assert code == 0
        doc = load_json(out)
        assert [r["quantity"] for r in doc["rows"]] == [
            "hermite_hadamard", "hh_via_torsion_gradient"]
        ratio = doc["rows"][0]["extra"]["ratio"]
        assert ratio == pytest.approx(0.2296, abs=0.01)
        assert all(r["pass"] for r in doc["rows"])

    def test_body_and_fn_from_json_files(self, tmp_path):
        body_doc = {"dimension": 2,
                    "shape": {"type": "box", "lower": [0, 0], "upper": [1, 1]}}
        fn_doc = {"kind": "affine", "constant": 1.0, "linear": [0.0, -1.0]}
        body_path = tmp_path / "body.json"
        fn_path = tmp_path / "fn.json"
        body_path.write_text(json.dumps(body_doc))
        fn_path.write_text(json.dumps(fn_doc))
        out = tmp_path / "r.json"
        code = run(["verify-hh", "--body", str(body_path), "--fn",
                    str(fn_path), "--boundary-samples", "8",
                    "--out", str(out)] + BASE)
        assert code == 0

    def test_zero_boundary_integral_writes_strict_json(self, tmp_path):
        # the ratio is undefined, and the report must stay strict JSON
        fn_path = tmp_path / "zero.json"
        fn_path.write_text(json.dumps(
            {"kind": "affine", "constant": 0, "linear": [0, 0]}))
        out = tmp_path / "r.json"
        code = run(["verify-hh", "--body", "unit-ball-n2", "--fn",
                    str(fn_path), "--boundary-samples", "8",
                    "--out", str(out)] + BASE)
        assert code == 0

        def reject(constant):
            raise ValueError(f"{constant} is not JSON")

        doc = json.loads(out.read_text(), parse_constant=reject)
        extra = doc["rows"][0]["extra"]
        assert extra["ratio"] is None and extra["ratio_stderr"] is None


    @pytest.mark.parametrize("body, fn, methods", [
        ("unit-box-n3", "shifted-norm", ("quadrature", "quadrature")),
        ("beck-ellipsoid-n2", "harmonic-cubic", ("exact", "quadrature")),
        ("half-disk", "height-affine", ("sampled", "sampled")),
    ])
    def test_rows_name_each_sides_method(self, tmp_path, body, fn, methods):
        paths = [tmp_path / f"r{i}.json" for i in range(2)]
        for path in paths:
            assert run(["verify-hh", "--body", body, "--fn", fn,
                        "--boundary-samples", "4", "--out", str(path)]
                       + BASE) == 0
        rows = [load_json(path)["rows"] for path in paths]
        assert rows[0] == rows[1]
        expected = dict(zip(("solid", "boundary"), methods))
        assert [r["extra"]["integrals"] for r in rows[0]] == [expected] * 2


class TestGradient:
    def test_unit_ball_n4(self, tmp_path):
        out = tmp_path / "g.json"
        code = run(["gradient", "--body", "unit-ball", "--n", "4",
                    "--boundary-samples", "12", "--out", str(out)] + BASE)
        assert code == 0
        doc = load_json(out)
        measured = doc["rows"][0]["value"]
        assert measured == pytest.approx(0.25, abs=0.08)
        # (sqrt(2)/pi) omega_4^{1/4}
        assert doc["rows"][0]["bound"] == pytest.approx(0.67094, abs=1e-4)

    def test_random_polytope(self, tmp_path):
        out = tmp_path / "g.json"
        code = run(["gradient", "--body", "random-polytope-n3",
                    "--boundary-samples", "8", "--out", str(out)] + BASE)
        assert code == 0

    def test_rejected_probes_in_header_not_rows(self, tmp_path):
        out = tmp_path / "g.json"
        code = run(["gradient", "--body", "simplex-n2", "--shell", "1e-2",
                    "--fd-delta", "0.02", "--boundary-samples", "64",
                    "--out", str(out), "--samples", "200", "--seed", "0"])
        assert code == 0
        doc = load_json(out)
        rejected = doc["header"]["rejected_probes"]
        assert rejected > 0
        assert doc["rows"][0]["extra"]["evaluations"] + rejected == 64
        assert all("rejected" not in json.dumps(row) for row in doc["rows"])


class TestLemmas:
    def test_small_run_passes(self, tmp_path):
        out = tmp_path / "l.json"
        code = run(["lemmas", "--paths", "800", "--sweep", "2",
                    "--out", str(out)] + BASE)
        assert code == 0
        doc = load_json(out)
        names = [r["quantity"] for r in doc["rows"]]
        assert "crossing_time_ks" in names
        assert "censored_fraction" in names
        assert any(n.startswith("lifetime_bound_") for n in names)
        assert any(n.startswith("exit_time_domination_") for n in names)

    def test_ks_allowance_is_one_step_rise(self, tmp_path):
        # crossing times sit on the dt = 1e-3 grid of [0, 1] at eps = 1, so
        # the KS bound allows the conditional CDF's largest one-step rise
        out = tmp_path / "l.json"
        run(["lemmas", "--paths", "800", "--sweep", "0",
             "--out", str(out)] + BASE)
        doc = load_json(out)
        rows = {r["quantity"]: r for r in doc["rows"]}
        hits = round(800 * (1.0 - rows["censored_fraction"]["value"]))
        cdf = [0.0] + [math.erfc(1.0 / math.sqrt(2e-3 * k))
                       for k in range(1, 1001)]
        rise = max(b - a for a, b in zip(cdf, cdf[1:])) / cdf[-1]
        assert rise == pytest.approx(1.46e-3, abs=1e-5)
        allowance = (rows["crossing_time_ks"]["bound"]
                     - 1.949 / math.sqrt(hits))
        assert allowance == pytest.approx(rise, rel=1e-9)
        assert doc["header"]["config"]["max_steps"] == 100_000


class TestExamples:
    def test_table(self, tmp_path):
        out = tmp_path / "e.json"
        assert run(["examples", "--out", str(out)] + BASE) == 0
        doc = load_json(out)
        byname = {r["quantity"]: r for r in doc["rows"]}
        assert byname["ellipsoid_stated_max_gradient_n2"]["value"] == 1.0
        assert byname["ellipsoid_corrected_max_gradient_n2"]["value"] == \
            pytest.approx(0.9428090415820634)
        assert byname["half_disk_ratio"]["value"] == pytest.approx(0.22963,
                                                                   abs=1e-4)


class TestDeterminismAndErrors:
    def test_json_rows_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = ["verify-hh", "--preset", "half-disk-affine",
                "--boundary-samples", "8"] + BASE
        assert run(args + ["--out", str(a)]) == 0
        assert run(args + ["--out", str(b)]) == 0
        da, db = load_json(a), load_json(b)
        assert json.dumps(da["rows"], sort_keys=True) == \
            json.dumps(db["rows"], sort_keys=True)
        da["header"].pop("generated_at")
        db["header"].pop("generated_at")
        assert da == db

    def test_csv_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["examples", "--format", "csv"] + BASE
        assert run(args + ["--out", str(a)]) == 0
        assert run(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_unknown_preset_exits_2(self):
        assert run(["gradient", "--body", "dodecahedron"] + BASE) == 2

    def test_missing_fn_exits_2(self):
        assert run(["verify-hh", "--body", "unit-ball-n2"] + BASE) == 2

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_fd_delta_exits_2_naming_it(self, capsys, value):
        code = run(["gradient", "--body", "unit-ball-n2", "--fd-delta", value]
                   + BASE)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "fd_delta" in err

    @pytest.mark.parametrize("body, n", [("unit-ball-n3", "5"),
                                         ("half-disk", "4")])
    def test_conflicting_n_exits_2_with_one_line(self, capsys, body, n):
        assert run(["gradient", "--body", body, "--n", n] + BASE) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1

    def test_matching_n_accepted(self):
        assert run(["gradient", "--body", "unit-ball-n3", "--n", "3",
                    "--samples", "200", "--boundary-samples", "2"]) == 0

    @staticmethod
    def box_file(tmp_path):
        path = tmp_path / "box.json"
        path.write_text(json.dumps({"dimension": 2, "shape": {
            "type": "box", "lower": [0, 0], "upper": [1, 1]}}))
        return str(path)

    def test_json_body_conflicting_n_exits_2_with_one_line(self, tmp_path,
                                                           capsys):
        code = run(["gradient", "--body", self.box_file(tmp_path), "--n", "5"]
                   + BASE)
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1
        assert "n = 2, not 5" in captured.err

    def test_json_body_matching_n_accepted(self, tmp_path):
        assert run(["gradient", "--body", self.box_file(tmp_path), "--n", "2",
                    "--samples", "200", "--boundary-samples", "2"]) == 0

    def test_lens_body_exits_2_with_one_line(self, tmp_path, capsys):
        # two balls are not a half-ball, the only intersection accepted
        path = tmp_path / "lens.json"
        path.write_text(json.dumps({"dimension": 2, "shape": {
            "type": "intersection", "members": [
                {"type": "ball", "center": [0, 0], "radius": 1},
                {"type": "ball", "center": [0.5, 0], "radius": 1}]}}))
        code = run(["verify-hh", "--body", str(path), "--fn", "constant",
                    "--boundary-samples", "8"] + BASE)
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1
        assert "single polytope" in captured.err

    def test_height_affine_on_a_body_topping_out_at_0_exits_2(self, tmp_path,
                                                              capsys):
        # 1 - y / sup y is undefined when sup y = 0; numpy warnings would
        # be lines of stderr too
        path = tmp_path / "low.json"
        path.write_text(json.dumps({"dimension": 2, "shape": {
            "type": "box", "lower": [0, -1], "upper": [1, 0]}}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run(["verify-hh", "--body", str(path), "--fn",
                        "height-affine"] + BASE)
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: height-affine needs the sup "
                                       "of the last coordinate")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("extra", [
        ["--body", "unit-box-n3", "--fn", "shifted-norm"],
        ["--body", "unit-box-n3"],
        ["--fn", "shifted-norm"],
        ["--body", "half-disk", "--fn", "shifted-norm"],
    ])
    def test_preset_with_another_pair_exits_2_with_one_line(self, capsys,
                                                            extra):
        code = run(["verify-hh", "--preset", "half-disk-affine",
                    "--boundary-samples", "2"] + extra + BASE)
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: --preset half-disk-affine ")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("extra", [
        [], ["--body", "half-disk"], ["--body", "half-disk", "--fn",
                                      "height-affine"]])
    def test_preset_alone_or_with_its_own_pair(self, tmp_path, extra):
        out = tmp_path / "hh.json"
        assert run(["verify-hh", "--preset", "half-disk-affine",
                    "--samples", "200", "--boundary-samples", "2",
                    "--out", str(out)] + extra) == 0
        header = load_json(out)["header"]
        assert (header["body"], header["fn"]) == ("half-disk", "height-affine")

    def test_nested_anchor_inside_exits_2_with_one_line(self, tmp_path,
                                                        capsys):
        fn_doc = {"kind": "shifted_norm", "anchor": [0, 0]}
        for _ in range(2):
            fn_doc = {"kind": "positive_combination",
                      "terms": [{"weight": 1, "fn": fn_doc}]}
        fn_path = tmp_path / "fn.json"
        fn_path.write_text(json.dumps(fn_doc))
        code = run(["verify-hh", "--body", "unit-ball-n2", "--fn",
                    str(fn_path), "--boundary-samples", "8"] + BASE)
        assert code == 2
        err = capsys.readouterr().err
        assert err == "error: shifted-norm anchor lies inside the body\n"

    def test_non_finite_fn_values_exit_2_with_one_line(self, tmp_path,
                                                       capsys):
        # finite coefficients whose Laplacian (2e308 - 2e308) is NaN: the
        # certificate passed it, and the run ended on numpy warnings and a
        # JSON error about inf
        fn_path = tmp_path / "fn.json"
        fn_path.write_text(json.dumps({
            "kind": "harmonic_polynomial", "terms": [
                {"powers": [2, 0], "coeff": 1e308},
                {"powers": [0, 2], "coeff": -1e308},
                {"powers": [0, 0], "coeff": 1e308}]}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run(["verify-hh", "--body", "unit-ball-n2", "--fn",
                        str(fn_path), "--boundary-samples", "8"] + BASE)
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            "error: laplacian nan is not finite at an interior probe")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("body, fn", [
        ("unit-box-n2", {"kind": "affine", "constant": 1e308,
                         "linear": [0, 0]}),
        ("half-disk", {"kind": "affine", "constant": 1e308,
                       "linear": [0, 0]}),
        ("unit-box-n2", {"kind": "positive_combination", "terms": [
            {"weight": 1e307, "fn": {"kind": "shifted_norm",
                                     "anchor": [10, 0]}}]}),
    ], ids=["exact", "sampled", "quadrature"])
    def test_overflowing_integral_exits_2_with_one_line(self, tmp_path,
                                                        capsys, fmt, body,
                                                        fn):
        # finite at every probe, but its integral leaves the float range:
        # CSV printed bound=inf and passed, JSON printed numpy warnings
        fn_path = tmp_path / "fn.json"
        fn_path.write_text(json.dumps(fn))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run(["verify-hh", "--body", body, "--fn", str(fn_path),
                        "--boundary-samples", "4", "--format", fmt] + BASE)
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: the ")
        assert "integral of f overflows the float range" in captured.err
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_overflowing_bound_exits_2_with_one_line(self, tmp_path, capsys,
                                                     fmt):
        # both integrals are finite; (sqrt 2/pi) vol^(1/2) x the boundary
        # integral is not, and CSV printed bound=inf and passed
        body_path = tmp_path / "body.json"
        body_path.write_text(json.dumps({"dimension": 2, "shape": {
            "type": "box", "lower": [0, 0], "upper": [1e10, 1e10]}}))
        fn_path = tmp_path / "fn.json"
        fn_path.write_text(json.dumps(
            {"kind": "affine", "constant": 1e288, "linear": [0, 0]}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run(["verify-hh", "--body", str(body_path), "--fn",
                        str(fn_path), "--boundary-samples", "4",
                        "--format", fmt] + BASE)
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: the bound on the solid integral "
                                "overflows the float range\n")

    @pytest.mark.parametrize("argv", [
        ["gradient"],
        ["gradient", "--body", "unit-ball-n2", "--samples", "abc"],
        ["verify-hh", "--preset", "no-such-pair"],
        [],
    ], ids=["missing-body", "bad-int", "bad-choice", "no-command"])
    def test_bad_command_line_exits_2_with_one_line(self, capsys, argv):
        # argparse printed its usage block before the error
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1

    def test_help_still_prints_usage(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["gradient", "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: torsion-bound gradient")

    def test_bad_json_file_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run(["gradient", "--body", str(bad)] + BASE) == 2

    @pytest.mark.parametrize("body_doc, fn_doc", [
        ([1, 2], {"kind": "affine", "constant": 1.0, "linear": [0.0, 0.0]}),
        ({"dimension": 2, "shape": {"type": "box", "lower": [0, 0],
                                    "upper": "1 1"}},
         {"kind": "affine", "constant": 1.0, "linear": [0.0, 0.0]}),
        ({"dimension": 2, "shape": {"type": "box", "lower": [0, 0],
                                    "upper": [1, 1]}}, [3]),
        ({"dimension": 2, "shape": {"type": "box", "lower": [0, 0],
                                    "upper": [1, 1]}},
         {"kind": "affine", "constant": None, "linear": [0.0, 0.0]}),
        ({"dimension": 2, "shape": {"type": "ball", "center": [float("nan"), 0.0],
                                    "radius": 1.0}},
         {"kind": "affine", "constant": 1.0, "linear": [0.0, 0.0]}),
        ({"dimension": 2, "shape": {"type": "box", "lower": [0, 0],
                                    "upper": [1, 1]}},
         {"kind": "harmonic_polynomial", "terms": [
             {"powers": [1, 0], "coeff": 1.0},
             {"powers": [1, 0], "coeff": 2.0}]}),
        # a power too large for a float once raised OverflowError
        ({"dimension": 2, "shape": {"type": "box", "lower": [0, 0],
                                    "upper": [1, 1]}},
         {"kind": "harmonic_polynomial", "terms": [
             {"powers": [2, 10**400], "coeff": 1.0}]}),
    ])
    def test_malformed_json_files_exit_2_with_one_line(self, tmp_path, capsys,
                                                       body_doc, fn_doc):
        body_path, fn_path = tmp_path / "body.json", tmp_path / "fn.json"
        body_path.write_text(json.dumps(body_doc))
        fn_path.write_text(json.dumps(fn_doc))
        code = run(["verify-hh", "--body", str(body_path), "--fn",
                    str(fn_path), "--boundary-samples", "8"] + BASE)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    _BALL = '{"type": "ball", "center": [0, 0], "radius": 1}'

    @pytest.mark.parametrize("flag, text", [
        ("--fn", '{"kind": "positive_combination", "terms": [{"weight": 1, '
                 '"fn": ' * 2000 + '{"kind": "affine", "constant": 1, '
                 '"linear": [0, 0]}' + "}]}" * 2000),
        ("--body", "[" * 100_000),
        ("--body", '{"dimension": 2, "shape": '
                   + '{"type": "intersection", "members": [%s, ' % _BALL * 2000
                   + _BALL + "]}" * 2000 + "}"),
    ], ids=["combinations", "brackets", "intersections"])
    def test_deeply_nested_json_exits_2_with_one_line(self, tmp_path, capsys,
                                                      flag, text):
        path = tmp_path / "deep.json"
        path.write_text(text)
        argv = ["verify-hh", "--body", "unit-box-n2", "--fn", "constant",
                "--boundary-samples", "8"] + BASE
        argv[argv.index(flag) + 1] = str(path)
        code = run(argv)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ["verify-hh", "--preset", "half-disk-affine", "--samples", "1"],
        ["gradient", "--body", "unit-ball-n2", "--samples", "1",
         "--boundary-samples", "1"],
    ])
    def test_one_sample_exits_2_with_one_line(self, capsys, argv):
        # one sample has no stderr: its estimate would claim to be exact
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: samples must be >= 2\n"

    def test_starved_sampler_exits_2_with_one_line(self, monkeypatch,
                                                   capsys):
        # a real starvation takes 1e8 candidates; raise it from the sampler
        def starved(body, count, key):
            raise cg.SamplingStarved("interior sampling starved (volume ~ 0?)")

        monkeypatch.setattr(cg, "interior_points", starved)
        code = run(["verify-hh", "--preset", "half-disk-affine",
                    "--boundary-samples", "8"] + BASE)
        assert code == 2
        err = capsys.readouterr().err
        assert err == "error: interior sampling starved (volume ~ 0?)\n"

    def test_stdout_when_no_out(self, capsys):
        assert run(["constants", "--n-max", "2"] + BASE) == 0
        captured = capsys.readouterr()
        assert '"normalized_constant": 2.5066282746310002' in captured.out
