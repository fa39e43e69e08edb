import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cvsep.cli
from conftest import no_convergence_matrix
from cvsep import statezoo
from cvsep.cli import (
    EXIT_DEGENERATE,
    EXIT_DOMAIN,
    EXIT_ENTANGLED,
    EXIT_NONPHYSICAL,
    EXIT_PARSE,
    EXIT_SEPARABLE,
    EXIT_SOFTWARE,
    EXIT_UNWRITABLE,
    SCAN_HEADER,
    main,
)
from cvsep.errors import InvalidSpec


EPS = sys.float_info.epsilon


def write_doc(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def matrix_doc(tmp_path, name, matrix, **extra):
    return write_doc(tmp_path, name, {"matrix": np.asarray(matrix).tolist(), **extra})


class TestClassify:
    def test_vacuum_separable(self, tmp_path, capsys):
        path = matrix_doc(tmp_path, "vac.json", statezoo.vacuum())
        assert main(["classify", path]) == EXIT_SEPARABLE
        out = capsys.readouterr().out
        assert "verdict: separable" in out

    def test_two_mode_squeezed_entangled(self, tmp_path, capsys):
        path = matrix_doc(tmp_path, "tms.json", statezoo.two_mode_squeezed(0.5))
        assert main(["classify", path]) == EXIT_ENTANGLED
        out = capsys.readouterr().out
        assert "verdict: entangled" in out
        assert "criterion simon: VIOLATED" in out
        margin = (math.exp(-1.0) - 1.0) / 2.0
        assert f"{margin:.12g}"[:8] in out

    @pytest.mark.parametrize("r", [1.0, 3.0, 8.0])
    def test_pure_state_prints_its_physical_margin_as_zero(self, tmp_path, capsys, r):
        # A pure state sits on the physicality boundary: its margin is 0 in
        # exact arithmetic, and eigh's rounding of a few eps * s (up to 2e-9
        # at r = 8) prints as 0 against the state's scale s.
        path = matrix_doc(tmp_path, "pure.json", statezoo.two_mode_squeezed(r))
        assert main(["classify", path]) == EXIT_ENTANGLED
        assert "criterion physical: ok margin=0 branch=+1\n" in capsys.readouterr().out

    @pytest.mark.parametrize("x, scale, text", [
        (16 * EPS, 1.0, "0"), (-16 * EPS, 1.0, "0"), (-0.0, 1.0, "0"), (0.0, 1e6, "0"),
        (17 * EPS, 1.0, "3.77475828373e-15"), (-17 * EPS, 1.0, "-3.77475828373e-15"),
        (16 * EPS * 1e6, 1e6, "0"), (17 * EPS * 1e6, 1e6, "3.77475828373e-09"),
        (-0.5, 1e6, "-0.5"),
    ])
    def test_rounding_prints_as_zero(self, x, scale, text):
        # A margin within 16 eps of the state's scale, or a unit-vector entry
        # within 16 eps of zero, prints as 0; anything larger as it is.
        assert cvsep.cli._fmt_value(x, scale) == text

    def test_sub_vacuum_nonphysical(self, tmp_path):
        path = matrix_doc(tmp_path, "bad.json", 0.4 * np.eye(4))
        assert main(["classify", path]) == EXIT_NONPHYSICAL

    def test_standard_form_input(self, tmp_path):
        path = write_doc(
            tmp_path,
            "sf.json",
            {"standard_form": {"a": 1.0, "b": 1.0, "c1": 0.75, "c2": 0.0}},
        )
        assert main(["classify", path]) == EXIT_SEPARABLE

    def test_flat_matrix_and_tol_override(self, tmp_path):
        flat = statezoo.vacuum().flatten().tolist()
        path = write_doc(tmp_path, "flat.json", {"matrix": flat, "tol": 1e-8})
        assert main(["classify", path]) == EXIT_SEPARABLE

    def test_small_asymmetry_warns_and_symmetrizes(self, tmp_path, capsys):
        v = statezoo.vacuum()
        v[0, 1] += 5e-10
        path = matrix_doc(tmp_path, "asym.json", v)
        assert main(["classify", path]) == EXIT_SEPARABLE
        err = capsys.readouterr().err
        assert "symmetriz" in err

    def test_large_asymmetry_rejected(self, tmp_path):
        v = statezoo.vacuum()
        v[0, 1] += 1e-6
        path = matrix_doc(tmp_path, "asym2.json", v)
        assert main(["classify", path]) == EXIT_PARSE

    @pytest.mark.parametrize(
        "scale, skew, accepted",
        [(1.0, 5e-10, True), (1.0, 2e-9, False), (1e4, 5e-6, True), (1e4, 2e-5, False)],
    )
    def test_asymmetry_bound_is_relative_like_the_api(
        self, tmp_path, capsys, scale, skew, accepted
    ):
        # The cases of test_as_covariance_asymmetry_bound_is_relative: the
        # document is judged by the bound classify applies to the matrix.
        v = scale * np.eye(4)
        v[0, 1] += skew
        path = matrix_doc(tmp_path, "skew.json", v)
        code = main(["classify", path])
        err = capsys.readouterr().err
        if accepted:
            assert code == EXIT_SEPARABLE
            assert "warning: symmetrizing input" in err
        else:
            assert code == EXIT_PARSE
            assert "asymmetry" in err

    def test_parse_failures(self, tmp_path):
        bad = tmp_path / "broken.json"
        bad.write_text("{not json")
        assert main(["classify", str(bad)]) == EXIT_PARSE
        assert main(["classify", str(tmp_path / "missing.json")]) == EXIT_PARSE
        both = write_doc(
            tmp_path,
            "both.json",
            {
                "matrix": statezoo.vacuum().tolist(),
                "standard_form": {"a": 1, "b": 1, "c1": 0, "c2": 0},
            },
        )
        assert main(["classify", both]) == EXIT_PARSE

    def test_usage_error_maps_to_parse_exit(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["classify"])
        assert exc.value.code == EXIT_PARSE
        capsys.readouterr()


@pytest.mark.parametrize("command", ["classify", "audit"])
@pytest.mark.parametrize("tol", ["0", "5", "1", "-1", "nan", "inf", "abc"])
def test_tol_outside_unit_interval_is_a_usage_error(tmp_path, capsys, command, tol):
    argv = [command, "--tol", tol]
    if command == "classify":
        argv.insert(1, matrix_doc(tmp_path, "vac.json", statezoo.vacuum()))
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_PARSE
    assert "--tol" in capsys.readouterr().err


@pytest.mark.parametrize("tol", ["0", "5", "-1", "NaN", "Infinity", '"0.1"', "true", "[]"])
def test_document_tol_outside_unit_interval_is_rejected(tmp_path, capsys, tol):
    path = tmp_path / "doc.json"
    path.write_text('{"matrix": %s, "tol": %s}' % (json.dumps(statezoo.vacuum().tolist()), tol))
    assert main(["classify", str(path)]) == EXIT_PARSE
    assert capsys.readouterr().err.startswith("error: tol must be a finite number in (0, 1)")


#: A 400-digit JSON integer, past the float range.
HUGE = "9" * 400
VACUUM_ROWS = "[0.5,0,0,0],[0,0.5,0,0],[0,0,0.5,0]"
UNIT_SF = '"a": 1, "b": 1, "c1": 0, "c2": 0'

#: Documents whose numbers are not all finite JSON numbers.
NOT_JSON_NUMBERS = {
    "strings_and_bool_in_matrix":
        '{"matrix": [["0.5",0,0,0],[0,0.5,0,0],[0,0,0.5,0],[0,0,0,true]]}',
    "bool_in_matrix": '{"matrix": [%s,[0,0,0,true]]}' % VACUUM_ROWS,
    "string_in_flat_matrix": '{"matrix": [0.5,0,0,0,0,0.5,0,0,0,0,0.5,0,0,0,0,"0.5"]}',
    "null_in_matrix": '{"matrix": [%s,[0,0,0,null]]}' % VACUUM_ROWS,
    "huge_integer_in_matrix": '{"matrix": [%s,[0,0,0,%s]]}' % (VACUUM_ROWS, HUGE),
    "float_past_the_range_in_matrix": '{"matrix": [%s,[0,0,0,1e400]]}' % VACUUM_ROWS,
    "strings_and_bool_in_standard_form":
        '{"standard_form": {"a": "1.0", "b": true, "c1": "0.5", "c2": 0}}',
    "huge_integer_in_standard_form":
        '{"standard_form": {"a": 1, "b": 1, "c1": %s, "c2": 0}}' % HUGE,
    "nan_in_standard_form": '{"standard_form": {"a": 1, "b": 1, "c1": NaN, "c2": 0}}',
    "bool_schema_version": '{"schema_version": true, "standard_form": {%s}}' % UNIT_SF,
    "string_schema_version": '{"schema_version": "1", "standard_form": {%s}}' % UNIT_SF,
    "huge_integer_schema_version":
        '{"schema_version": %s, "standard_form": {%s}}' % (HUGE, UNIT_SF),
}


@pytest.mark.parametrize("command", ["classify", "standard-form"])
@pytest.mark.parametrize("text", NOT_JSON_NUMBERS.values(), ids=NOT_JSON_NUMBERS.keys())
def test_document_numbers_must_be_finite_json_numbers(tmp_path, capsys, command, text):
    path = tmp_path / "doc.json"
    path.write_text(text)
    assert main([command, str(path)]) == EXIT_PARSE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "raw, message",
    [(b'{"matrix": \xff}', "{path} is not valid JSON: 'utf-8' codec can't decode byte 0xff"),
     (b'{"matrix": [%s]}' % (b"9" * 5000), "covariance must be a finite 4x4 matrix\n"),
     (b'[1, 2]', "input document must be a JSON object\n"),
     (b'{"matrix": [[0.5, 0, 0, 0], [0, 0.5, 0], [0, 0, 0.5, 0], [0, 0, 0, 0.5]]}',
      "matrix must be a rectangular array, not ragged\n"),
     (b'{"standard_form": {"a": 1, "b": 1}}',
      "standard_form needs exactly the keys a, b, c1, c2\n")],
    ids=["not_utf8", "integer_past_the_digit_limit", "not_an_object", "ragged_matrix_rows",
         "standard_form_missing_keys"],
)
def test_unreadable_documents_are_parse_failures(tmp_path, capsys, raw, message):
    path = tmp_path / "doc.json"
    path.write_bytes(raw)
    assert main(["classify", str(path)]) == EXIT_PARSE
    assert capsys.readouterr().err.startswith("error: " + message.format(path=path))


def test_integer_entries_read_as_their_floats(tmp_path, capsys):
    as_ints = tmp_path / "ints.json"
    as_ints.write_text(
        '{"schema_version": 1, "standard_form": {"a": 2, "b": 1, "c1": 1, "c2": -1}}'
    )
    as_floats = write_doc(
        tmp_path, "floats.json", {"standard_form": {"a": 2.0, "b": 1.0, "c1": 1.0, "c2": -1.0}}
    )
    assert main(["classify", str(as_ints)]) == main(["classify", as_floats])
    first, second = capsys.readouterr().out.split("verdict:")[1:]
    assert first == second


def test_usage_error_leaves_the_parser_usable(tmp_path, capsys):
    # The parser is built once per process; a failed parse must not leak
    # into the next call.
    path = matrix_doc(tmp_path, "vac.json", statezoo.vacuum())
    with pytest.raises(SystemExit) as exc:
        main(["classify", path, "--tol", "5"])
    assert exc.value.code == EXIT_PARSE
    out_path = tmp_path / "scan.csv"
    assert main(["scan", "--a", "1", "--b", "1", "--t-steps", "2",
                 "--out", str(out_path)]) == 0
    assert len(out_path.read_text().splitlines()) == 3
    capsys.readouterr()


def test_tol_inside_unit_interval_is_used(tmp_path, capsys):
    path = matrix_doc(tmp_path, "vac.json", statezoo.vacuum())
    assert main(["classify", path, "--tol", "1e-6"]) == EXIT_SEPARABLE
    assert "tolerance: 1e-06" in capsys.readouterr().out
    assert main(["audit", "--samples", "4", "--tol", "1e-6"]) == 0


def test_eigensolver_failure_is_out_of_domain(tmp_path, capsys):
    v = no_convergence_matrix()
    assert main(["classify", matrix_doc(tmp_path, "v.json", v)]) == EXIT_DOMAIN
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: eigensolver: eigenvalues did not converge\n"


class TestStandardFormCommand:
    def test_recovers_rotated_quadruple(self, tmp_path, capsys):
        quad = (1.5, 0.8, 0.6, -0.2)
        v0 = statezoo.standard_matrix(*quad)
        rng = np.random.default_rng(7)
        v = statezoo.apply_symp(
            v0, statezoo.random_symp2(rng), statezoo.random_symp2(rng)
        )
        path = matrix_doc(tmp_path, "rot.json", v)
        assert main(["standard-form", path]) == 0
        out = capsys.readouterr().out
        assert float(out.split("a = ")[1].splitlines()[0]) == pytest.approx(1.5, abs=1e-9)
        assert float(out.split("c2 = ")[1].splitlines()[0]) == pytest.approx(-0.2, abs=1e-9)
        assert "det C: before=" in out

    def test_generated_states_need_no_symmetrizing(self, tmp_path, capsys):
        rng = np.random.default_rng(55)
        for k in range(40):
            v = statezoo.random_correlated_physical(rng)
            assert main(["standard-form", matrix_doc(tmp_path, f"s{k}.json", v)]) == 0
            captured = capsys.readouterr()
            assert captured.err == ""
            # det V is a closed form in 2x2 minors; LAPACK's LU agrees to rounding.
            line = captured.out.splitlines()[-1]  # "det V: before=... after=..."
            before, after = (float(field.split("=")[1]) for field in line.split()[2:])
            assert before == pytest.approx(np.linalg.det(v), rel=1e-12)
            assert after == pytest.approx(before, rel=1e-10)

    def test_vacuum(self, tmp_path, capsys):
        path = matrix_doc(tmp_path, "vac.json", statezoo.vacuum())
        assert main(["standard-form", path]) == 0
        out = capsys.readouterr().out
        assert float(out.split("a = ")[1].splitlines()[0]) == pytest.approx(0.5)

    def test_thermal(self, tmp_path, capsys):
        path = matrix_doc(tmp_path, "th.json", np.diag([1.0, 1.0, 2.0, 2.0]))
        assert main(["standard-form", path]) == 0
        out = capsys.readouterr().out
        assert float(out.split("b = ")[1].splitlines()[0]) == pytest.approx(2.0)

    def test_has_no_tol_option(self, tmp_path, capsys):
        path = matrix_doc(tmp_path, "vac.json", statezoo.vacuum())
        with pytest.raises(SystemExit) as exc:
            main(["standard-form", path, "--tol", "1e-8"])
        assert exc.value.code == EXIT_PARSE
        capsys.readouterr()

    def test_degenerate_exit(self, tmp_path):
        path = matrix_doc(tmp_path, "deg.json", np.diag([1e-7, 1e-7, 1.0, 1.0]))
        assert main(["standard-form", path]) == EXIT_DEGENERATE


class TestScan:
    def test_single_uncorrelated_point(self, tmp_path, capsys):
        out_path = tmp_path / "scan.csv"
        assert main(["scan", "--a", "1", "--b", "1", "--t-steps", "1",
                     "--out", str(out_path)]) == 0
        lines = out_path.read_text().splitlines()
        assert lines[0] == ",".join(SCAN_HEADER)
        row = lines[1].split(",")
        assert float(row[3]) == pytest.approx(0.75, abs=1e-12)
        assert float(row[4]) == pytest.approx(0.75, abs=1e-12)
        assert float(row[5]) == pytest.approx(0.75, abs=1e-12)
        assert float(row[6]) == pytest.approx(2.0, abs=1e-12)
        assert float(row[7]) == pytest.approx(2.0, abs=1e-12)

    def test_balanced_endpoint_row(self, tmp_path):
        out_path = tmp_path / "scan.csv"
        assert main(["scan", "--a", "1", "--b", "1", "--t-steps", "2",
                     "--out", str(out_path)]) == 0
        last = out_path.read_text().splitlines()[-1].split(",")
        assert float(last[2]) == 1.0
        assert float(last[3]) == pytest.approx(0.5, abs=1e-12)
        assert float(last[6]) == pytest.approx(1.0, abs=1e-12)

    def test_vacuum_blocks_row_is_zero(self, tmp_path):
        out_path = tmp_path / "scan.csv"
        assert main(["scan", "--a", "0.5", "--b", "0.5", "--t-steps", "3",
                     "--out", str(out_path)]) == 0
        for line in out_path.read_text().splitlines()[1:]:
            row = line.split(",")
            assert abs(float(row[3])) <= 1e-12
            assert abs(float(row[8])) <= 1e-12

    def test_default_grid_disagreement_small(self, tmp_path):
        out_path = tmp_path / "default.csv"
        assert main(["scan", "--out", str(out_path)]) == 0
        rows = out_path.read_text().splitlines()[1:]
        assert len(rows) == 6 * 6 * 11
        assert max(float(r.split(",")[-1]) for r in rows) < 1e-8

    def test_byte_identical_reruns(self, tmp_path):
        first = tmp_path / "one.csv"
        second = tmp_path / "two.csv"
        args = ["scan", "--a", "0.5,1.5", "--b", "0.75", "--t-steps", "5"]
        assert main(args + ["--out", str(first)]) == 0
        assert main(args + ["--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()

    def test_unwritable_path(self, tmp_path):
        target = tmp_path / "no" / "such" / "dir" / "out.csv"
        assert main(["scan", "--out", str(target)]) == EXIT_UNWRITABLE

    def test_domain_guard(self, tmp_path):
        out_path = tmp_path / "bad.csv"
        assert main(["scan", "--a", "0.4", "--out", str(out_path)]) == EXIT_DOMAIN

    @pytest.mark.parametrize("a_list, pair", [("0.5,0.4", "(0.4, 0.5)"), ("nan", "(nan, 0.5)")])
    def test_domain_error_names_first_bad_row_and_writes_nothing(
        self, tmp_path, capsys, a_list, pair
    ):
        out_path = tmp_path / "bad.csv"
        assert main(["scan", "--a", a_list, "--out", str(out_path)]) == EXIT_DOMAIN
        assert capsys.readouterr().err == f"error: block sizes (a, b) = {pair} must be >= 1/2\n"
        assert not out_path.exists()

    @pytest.mark.parametrize("args, message", [
        (["--a", ","], "--a list is empty"),
        (["--a", "x"], "bad --a list 'x': could not convert string to float: 'x'"),
        (["--t-steps", "0"], "--t-steps must be at least 1"),
    ], ids=["empty_list", "bad_list", "no_t_steps"])
    def test_bad_grid_is_a_parse_error_and_writes_nothing(self, tmp_path, capsys, args, message):
        out_path = tmp_path / "bad.csv"
        assert main(["scan", *args, "--out", str(out_path)]) == EXIT_PARSE
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out_path.exists()

    def test_products_past_the_bound_are_out_of_domain(self, tmp_path, capsys):
        out_path = tmp_path / "bad.csv"
        assert main(["scan", "--a", "1,1e200", "--out", str(out_path)]) == EXIT_DOMAIN
        assert capsys.readouterr().err == (
            "error: block sizes (a, b) = (1e+200, 0.5) must have a * b <= 1e+150\n"
        )
        assert not out_path.exists()
        assert main(["scan", "--a", "2e150", "--b", "0.5", "--out", str(out_path)]) == 0
        assert "\n2e+150,0.5,1,0,0,0,1,1,0\n" in out_path.read_text()


class TestAudit:
    def test_deterministic_and_clean(self, capsys):
        assert main(["audit", "--samples", "1000", "--seed", "7"]) == 0
        first = capsys.readouterr().out
        assert main(["audit", "--samples", "1000", "--seed", "7"]) == 0
        second = capsys.readouterr().out
        assert first == second
        assert "counterexamples: 0" in first

    def test_single_sample(self, capsys):
        assert main(["audit", "--samples", "1", "--seed", "0"]) == 0
        capsys.readouterr()

    @pytest.mark.parametrize("samples, seed, tol", [("3000", "1", "0.01"), ("2000", "3", "0.1")])
    def test_hierarchy_holds_at_a_coarse_tol(self, capsys, samples, seed, tol):
        # With a tolerance scale per matrix rather than per state, these runs
        # found 5 and 38 states with Simon satisfied but Duan violated, or a
        # P-representable state failing the stringent test.
        assert main(["audit", "--samples", samples, "--seed", seed, "--tol", tol]) == 0
        assert "counterexamples: 0\n" in capsys.readouterr().out

    def test_zero_samples_is_a_parse_error(self, capsys):
        assert main(["audit", "--samples", "0"]) == EXIT_PARSE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: audit needs at least one sample\n"

    def test_negative_seed_is_a_parse_error(self, capsys):
        assert main(["audit", "--samples", "1", "--seed", "-1"]) == EXIT_PARSE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: audit seed -1 must be nonnegative\n"


class TestSqueeze:
    def test_uncorrelated_point(self, capsys):
        assert main(["squeeze", "1", "1", "0"]) == 0
        out = capsys.readouterr().out
        assert "r1 = 2" in out
        assert "c1_bound = 0.75" in out

    def test_balanced_point(self, capsys):
        assert main(["squeeze", "1", "1", "1"]) == 0
        out = capsys.readouterr().out
        assert "r1 = 1" in out
        assert "c1_bound = 0.5" in out

    def test_unequal_blocks_print_a_finite_residual(self, capsys):
        assert main(["squeeze", "1e13", "1", "0.3"]) == 0
        assert "extremality_residual = 4.2632564145606011e-14\n" in capsys.readouterr().out

    def test_domain_guard(self, capsys):
        assert main(["squeeze", "0.4", "1", "0"]) == EXIT_DOMAIN
        capsys.readouterr()

    def test_products_past_the_bound_are_out_of_domain(self, capsys):
        assert main(["squeeze", "1e200", "0.5", "0"]) == EXIT_DOMAIN
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: block sizes (a, b) = (1e+200, 0.5) must have a * b <= 1e+150\n"
        assert main(["squeeze", "2e150", "0.5", "0"]) == 0
        assert "c1_bound = 0\n" in capsys.readouterr().out


def test_unmapped_package_error_exits_software(monkeypatch, capsys):
    def fail(a, b, t):
        raise InvalidSpec("spec out of range")

    monkeypatch.setattr(cvsep.cli, "optimal_squeeze", fail)
    assert main(["squeeze", "1", "1", "0"]) == EXIT_SOFTWARE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: spec out of range\n"


def test_python_m_cvsep_runs_the_cli(capsys):
    # python -m cvsep from a checkout, with only src/ on the path.
    src = Path(cvsep.cli.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run(
        [sys.executable, "-m", "cvsep", "squeeze", "1", "1", "0"],
        capture_output=True, text=True, env=env, check=False,
    )
    assert main(["squeeze", "1", "1", "0"]) == 0
    assert proc.returncode == 0
    assert proc.stdout == capsys.readouterr().out
    assert proc.stderr == ""
