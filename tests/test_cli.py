import json
import math

import numpy as np
import pytest

from cvsep import statezoo
from cvsep.cli import (
    EXIT_DEGENERATE,
    EXIT_DOMAIN,
    EXIT_ENTANGLED,
    EXIT_NONPHYSICAL,
    EXIT_PARSE,
    EXIT_SEPARABLE,
    EXIT_UNWRITABLE,
    SCAN_HEADER,
    main,
)


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


def test_tol_inside_unit_interval_is_used(tmp_path, capsys):
    path = matrix_doc(tmp_path, "vac.json", statezoo.vacuum())
    assert main(["classify", path, "--tol", "1e-6"]) == EXIT_SEPARABLE
    assert "tolerance: 1e-06" in capsys.readouterr().out
    assert main(["audit", "--samples", "4", "--tol", "1e-6"]) == 0


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

    def test_domain_guard(self, capsys):
        assert main(["squeeze", "0.4", "1", "0"]) == EXIT_DOMAIN
        capsys.readouterr()
