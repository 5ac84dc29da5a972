import contextlib
import io
import json
import re
import subprocess
import sys

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spechtfan.cli
import spechtfan.fan
import spechtfan.polytope
import spechtfan.verify
from spechtfan.cli import main
from spechtfan.combinatorics import Partition, VariableOrder, enumerate_partitions
from spechtfan.verify import run_verification

ORACLE_KEYS = [
    "check",
    "lambda",
    "sigma",
    "pairs_total",
    "pairs_skipped_coprime",
    "pairs_skipped_chain",
    "pairs_reduced",
    "failures",
    "pass",
]

VERIFY_ROW_SCHEMA = {
    "type": "array",
    "items": {
        "type": "object",
        "required": ["check", "instance", "pass"],
        "properties": {
            "check": {"type": "string"},
            "instance": {"type": "string"},
            "pass": {"type": "boolean"},
        },
    },
}


def run(argv, capsys):
    """Invoke main in process; normalize SystemExit from argparse."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


class TestCount:
    def test_single_shape_csv_golden(self, capsys):
        code, out, err = run(["count", "--lambda", "2,2"], capsys)
        assert code == 0
        assert out == 'n,lambda,k,theorem_count,brute_force_count,agree\n4,"2,2",0,24,24,true\n'
        assert err == ""

    def test_single_shape_json(self, capsys):
        code, out, _ = run(["count", "--lambda", "3,1", "--format", "json"], capsys)
        assert code == 0
        assert json.loads(out) == [
            {
                "n": 4,
                "lambda": [3, 1],
                "k": 2,
                "theorem_count": 4,
                "brute_force_count": 4,
                "agree": True,
            }
        ]

    def test_sweep_covers_all_two_row_shapes(self, capsys):
        code, out, _ = run(["count", "--n-max", "4"], capsys)
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 8  # header + (1,1) + 2 shapes at n=3 + 4 at n=4
        assert all(line.endswith("true") for line in lines[1:])

    def test_capacity_is_a_warning_not_an_error(self, capsys):
        code, out, err = run(["count", "--lambda", "9,1"], capsys)
        assert code == 0
        assert ' 10,"9,1",8,10,,'.strip() in out
        assert "warning:" in err and "skipped" in err

    def test_needs_a_target(self, capsys):
        code, _, err = run(["count"], capsys)
        assert code == 1
        assert err.startswith("error:")

    def test_n_max_zero_is_range_checked(self, capsys):
        code, out, err = run(["count", "--n-max", "0"], capsys)
        assert code == 1
        assert out == ""
        assert err == "error: --n-max must be at least 2\n"

    @pytest.mark.parametrize("n_max", ["41", "1000000"])
    def test_n_max_above_the_limit(self, capsys, monkeypatch, n_max):
        def refuse(n):
            raise AssertionError("the shapes were listed before the size check")

        monkeypatch.setattr(spechtfan.cli, "enumerate_partitions", refuse)
        code, out, err = run(["count", "--n-max", n_max], capsys)
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and "limit" in err and err.count("\n") == 1

    def test_lambda_and_n_max_are_exclusive(self, capsys):
        code, out, err = run(["count", "--lambda", "2,2", "--n-max", "3"], capsys)
        assert code == 1
        assert out == ""
        assert "not allowed with" in err and err.count("\n") == 1

    def test_bad_partition_text(self, capsys):
        code, _, err = run(["count", "--lambda", "1,2"], capsys)
        assert code == 1
        assert "error:" in err

    @pytest.mark.parametrize(
        "lam", ["41,1", "1000000,1", "9" * 4000 + ",1"], ids=["41,1", "1000000,1", "4000-digit,1"]
    )
    def test_lambda_above_the_limit(self, capsys, monkeypatch, lam):
        def refuse(lam):
            raise AssertionError("n! was taken before the size check")

        monkeypatch.setattr(spechtfan.cli, "theorem_count", refuse)
        code, out, err = run(["count", "--lambda", lam], capsys)
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and "limit 40" in err and err.count("\n") == 1
        assert len(err) < 80

    def test_huge_lambda_prints_its_digit_count(self, capsys):
        code, _, err = run(["count", "--lambda", "9" * 4000 + ",1"], capsys)
        assert code == 1
        assert err == "error: n=<4001-digit number> exceeds the limit 40\n"


class TestInitialIdeal:
    def test_identity_order(self, capsys):
        code, out, _ = run(
            ["initial-ideal", "--lambda", "2,1", "--sigma", "1,2,3"], capsys
        )
        assert code == 0
        assert json.loads(out) == {"n": 3, "min_gens": [[0, 0, 1], [0, 1, 0]]}

    def test_reversed_order(self, capsys):
        code, out, _ = run(
            ["initial-ideal", "--lambda", "2,1", "--sigma", "3,2,1"], capsys
        )
        assert code == 0
        assert json.loads(out) == {"n": 3, "min_gens": [[0, 1, 0], [1, 0, 0]]}

    def test_length_mismatch(self, capsys):
        code, _, err = run(
            ["initial-ideal", "--lambda", "2,1", "--sigma", "1,2,3,4"], capsys
        )
        assert code == 1
        assert "error:" in err

    @pytest.mark.parametrize("lam", ["7,5,3", "40,1"])
    def test_above_size_limit(self, capsys, lam):
        sigma = ",".join(str(v) for v in range(1, sum(map(int, lam.split(","))) + 1))
        code, out, err = run(["initial-ideal", "--lambda", lam, "--sigma", sigma], capsys)
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and "limit" in err and err.count("\n") == 1

    def test_sigma_is_required(self, capsys):
        code, _, err = run(["initial-ideal", "--lambda", "2,1"], capsys)
        assert code == 1


class TestFanAndPolytope:
    def test_fan_json(self, capsys):
        code, out, _ = run(["fan", "--lambda", "2,1"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["distinct_count"] == 3
        assert doc["total_orders"] == 6
        assert sum(c["size"] for c in doc["classes"]) == 6

    def test_polytope_json(self, capsys):
        code, out, _ = run(["polytope", "--lambda", "2,1"], capsys)
        assert code == 0
        assert json.loads(out) == {
            "n": 3,
            "k": 1,
            "vertices": [[1, 2, 2], [2, 1, 2], [2, 2, 1]],
        }

    def test_polytope_single_row_rejected(self, capsys):
        code, _, err = run(["polytope", "--lambda", "3"], capsys)
        assert code == 1
        assert "error:" in err

    def test_polytope_large_n_with_few_vertices(self, capsys):
        code, out, _ = run(["polytope", "--lambda", "12,1"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert (doc["n"], doc["k"]) == (13, 11)
        assert len(doc["vertices"]) == 13

    def test_polytope_above_vertex_limit(self, capsys):
        code, out, err = run(["polytope", "--lambda", "4,3,3"], capsys)
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "lam",
        ["1000000,1", "1807,1", "9" * 4000 + ",1", "9" * 4000 + ",9,1"],
        ids=["1000000,1", "1807,1", "4000-digit,1", "4000-digit,9,1"],
    )
    def test_polytope_refuses_huge_n_before_any_work(self, capsys, monkeypatch, lam):
        def refuse(*args):
            raise AssertionError("points were placed before the size check")

        monkeypatch.setattr(spechtfan.polytope, "permutations", refuse)
        code, out, err = run(["polytope", "--lambda", lam], capsys)
        assert code == 1
        assert out == ""
        assert err.startswith("error: P(n=") and err.count("\n") == 1
        assert len(err) < 120

    def test_jobs_flag_is_rejected(self, capsys):
        code, _, err = run(["fan", "--lambda", "2,2", "--jobs", "2"], capsys)
        assert code == 1
        assert "--jobs" in err


class TestOracle:
    def test_field_order_and_pass(self, capsys):
        code, out, _ = run(["oracle", "--lambda", "2,2"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert list(doc) == ORACLE_KEYS
        assert doc["check"] == "certify-groebner"
        assert doc["lambda"] == [2, 2]
        assert doc["sigma"] == [1, 2, 3, 4]
        assert doc["pairs_total"] == 10
        assert doc["pass"] is True

    def test_explicit_sigma(self, capsys):
        code, out, _ = run(
            ["oracle", "--lambda", "2,1", "--sigma", "3,1,2"], capsys
        )
        assert code == 0
        assert json.loads(out)["sigma"] == [3, 1, 2]

    def test_empty_sigma_is_refused(self, capsys):
        code, out, err = run(["oracle", "--lambda", "2,1", "--sigma", ""], capsys)
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    def test_limit_guard(self, capsys):
        code, _, err = run(["oracle", "--lambda", "6,1"], capsys)
        assert code == 1
        assert "error:" in err


class TestVerify:
    def test_small_run_passes(self, capsys):
        code, out, _ = run(["verify", "--n-max", "3"], capsys)
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "check,instance,pass"
        assert len(lines) > 10
        assert all(line.endswith(",true") for line in lines[1:])

    def test_json_format(self, capsys):
        code, out, _ = run(["verify", "--n-max", "3", "--format", "json"], capsys)
        assert code == 0
        rows = json.loads(out)
        jsonschema.validate(rows, VERIFY_ROW_SCHEMA)
        assert all(r["pass"] for r in rows)

    def test_runs_are_byte_identical(self, capsys):
        _, first, _ = run(["verify", "--n-max", "4"], capsys)
        _, second, _ = run(["verify", "--n-max", "4"], capsys)
        assert first == second

    def test_seed_changes_sampled_instances(self, capsys):
        _, a, _ = run(["verify", "--n-max", "4", "--seed", "1"], capsys)
        _, b, _ = run(["verify", "--n-max", "4", "--seed", "2"], capsys)
        assert a != b
        assert a.split("\n")[0] == b.split("\n")[0]

    def test_skip_option_is_gone(self, capsys):
        code, out, err = run(["verify", "--skip", "oracle"], capsys)
        assert code == 1 and out == ""
        assert err.count("\n") == 1 and "unrecognized arguments: --skip oracle" in err
        assert "Traceback" not in err

    def test_n_max_bounds(self, capsys):
        assert run(["verify", "--n-max", "1"], capsys)[0] == 1
        assert run(["verify", "--n-max", "9"], capsys)[0] == 1

    def test_failing_rows_carry_detail(self, capsys, monkeypatch):
        real = spechtfan.verify.closed_form_initial_monomial

        def tampered(t, order):
            return tuple(e + 1 for e in real(t, order))

        monkeypatch.setattr(spechtfan.verify, "closed_form_initial_monomial", tampered)
        code, out, _ = run(["verify", "--n-max", "3", "--format", "json"], capsys)
        assert code == 2
        rows = json.loads(out)
        jsonschema.validate(rows, VERIFY_ROW_SCHEMA)
        failed = [r for r in rows if r["check"] == "closed-form"]
        passed = [r for r in rows if r["check"] != "closed-form"]
        assert failed and passed
        for r in failed:
            first = r["instance"].split("sigmas=")[1].split(",")[0]
            assert r["pass"] is False
            assert r["detail"].endswith(f"under {','.join(first)}")
        for r in passed:
            assert r["pass"] is True
            assert "detail" not in r


class TestRunVerification:
    def test_bounds_and_skip_validation(self):
        with pytest.raises(ValueError):
            run_verification(1)
        with pytest.raises(ValueError):
            run_verification(8)
        # every group of rows always runs; there is no switch to drop one
        with pytest.raises(TypeError):
            run_verification(3, skip=("oracle",))

    def test_each_fan_and_each_pnk_is_built_once(self, monkeypatch):
        fans, pnk = [], []
        real_summary, real_pnk = spechtfan.fan.FanSummary, spechtfan.verify.pnk_vertices

        def summary(lam, k, classes):  # enumerate_fan builds one per call, from any caller
            fans.append(lam)
            return real_summary(lam, k, classes)

        def vertices(n, k):
            pnk.append((n, k))
            return real_pnk(n, k)

        monkeypatch.setattr(spechtfan.fan, "FanSummary", summary)
        monkeypatch.setattr(spechtfan.verify, "pnk_vertices", vertices)
        # the S-pair rows build neither and take most of the n = 6 run
        for name in ("_oracle_lex_failure", "_oracle_universal_failure", "elimination_polynomial_check"):
            monkeypatch.setattr(spechtfan.verify, name, lambda lam, order: "")
        run_verification(6)
        shapes = [lam for n in range(2, 7) for lam in enumerate_partitions(n) if lam.m >= 2]
        assert fans == shapes and len(shapes) == 23
        assert pnk == [(n, k) for n in range(2, 7) for k in range(n - 1)] and len(pnk) == 15

    def test_rows_carry_named_checks(self):
        rows = run_verification(2)
        assert rows and all(r.passed for r in rows)
        assert all(r.check and r.instance for r in rows)
        assert len({(r.check, r.instance) for r in rows}) == len(rows)

    def test_a_wrong_class_predictor_fails_its_row(self, monkeypatch):
        # every order its own class
        monkeypatch.setattr(spechtfan.verify, "_class_key", lambda head, sigma: sigma)
        rows = run_verification(3)
        # (2,1) has classes of two orders; the other shapes' classes are single orders
        (row,) = [r for r in rows if r.check == "class-predictor" and r.instance.startswith("lambda=2,1 ")]
        assert not row.passed and row.detail == "mismatches=6"

    def test_a_wrong_predictor_fails_the_cone_classes_row(self, monkeypatch):
        # (2,2) has k = 0, so the first drawn pair of distinct orders is a mismatch
        monkeypatch.setattr(spechtfan.verify, "order_class_predictor", lambda lam, a, b: True)
        row = spechtfan.verify._cone_class_row(Partition.parse("2,2"), 2024)
        assert not row.passed
        assert row.detail == "initial ideals and predictor disagree for 3,4,2,1 vs 4,2,3,1"

    def test_a_failing_certificate_names_its_first_pair(self, monkeypatch):
        # drop the last generator of every lex basis; for (2,2) under the
        # identity the first of two failing pairs is (0,1), out of 5 reduced
        real = spechtfan.verify.marked_basis
        monkeypatch.setattr(
            spechtfan.verify, "marked_basis", lambda polys, order: real(polys[:-1] or polys, order)
        )
        detail = spechtfan.verify._oracle_lex_failure(Partition.parse("2,2"), VariableOrder.identity(4))
        assert detail == "S-pair (0,1) left a 6-term remainder; 2 of 5 reduced pairs failed under 1,2,3,4"
        rows = run_verification(4)
        (row,) = [r for r in rows if r.check == "oracle-lex" and r.instance.startswith("lambda=2,2 ")]
        assert not row.passed
        assert re.fullmatch(
            r"S-pair \(\d+,\d+\) left a \d+-term remainder; \d+ of \d+ reduced pairs failed under [1-4,]+",
            row.detail,
        )

    def test_a_failing_monotonicity_row_carries_the_check_line(self, monkeypatch):
        # degrees that fall along every order fail each order's first pair
        monkeypatch.setattr(spechtfan.fan, "_degree_values", lambda n, tabs: tuple(range(n, 0, -1)))
        rows = run_verification(3)
        (row,) = [r for r in rows if r.check == "monotonicity" and r.instance.startswith("lambda=2,1 ")]
        first = VariableOrder(tuple(map(int, row.instance.split("sigmas=")[1].split(",")[0])))
        a, b = first.sigma[:2]
        want = f"positions 1,2: x{a} has degree {4 - a}, x{b} has {4 - b}, "
        assert row.to_dict()["detail"].startswith(want)
        assert row.to_dict()["detail"].endswith(f" column, under {first}")


class TestPlumbing:
    def test_output_flag_writes_file(self, tmp_path, capsys):
        target = tmp_path / "ideal.json"
        code, out, _ = run(
            [
                "initial-ideal",
                "--lambda",
                "2,1",
                "--sigma",
                "1,2,3",
                "--output",
                str(target),
            ],
            capsys,
        )
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text()) == {
            "n": 3,
            "min_gens": [[0, 0, 1], [0, 1, 0]],
        }

    def test_unwritable_output_is_one_error_line(self, tmp_path, capsys):
        target = tmp_path / "no" / "such" / "dir" / "x.json"
        code, out, err = run(["polytope", "--lambda", "2,1", "--output", str(target)], capsys)
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert not target.parent.exists()

    def test_empty_output_is_refused(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, out, err = run(["polytope", "--lambda", "2,1", "--output", ""], capsys)
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    def test_no_subcommand(self, capsys):
        code, _, err = run([], capsys)
        assert code == 1

    def test_console_script(self):
        proc = subprocess.run(
            ["spechtfan", "count", "--lambda", "2,1"],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0
        assert proc.stdout.startswith("n,lambda,k,")

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "spechtfan", "polytope", "--lambda", "2,2"],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["k"] == 0


# Valid inputs are drawn only where a call is cheap: shapes with n <= 5,
# verify --n-max <= 3 and count --n-max <= 5; everything else is malformed
# or far beyond a size limit, so each call ends within milliseconds.
SHAPES = [",".join(map(str, lam.parts)) for n in range(1, 6) for lam in enumerate_partitions(n)]
MALFORMED = ["", "a", "-1", "3,,1", "9" * 5000, "0", ",", "1.5"]
HUGE = ["41", "1000000", "9" * 4000]
HUGE_SHAPES = ["41,1", "1000000,1", "1000000,999999", "9" * 4000 + ",1", "9" * 4000 + ",9,1"]


@st.composite
def sigma_text(draw):
    n = draw(st.integers(1, 6))
    perm = draw(st.permutations(range(1, n + 1)))
    broken = draw(st.sampled_from(["none", "repeat", "drop"]))
    if broken == "repeat" and n > 1:
        perm[draw(st.integers(0, n - 1))] = perm[draw(st.integers(0, n - 1))]
    elif broken == "drop":
        del perm[draw(st.integers(0, n - 1))]
    return ",".join(map(str, perm))


@st.composite
def argv_lists(draw):
    shape = st.sampled_from(SHAPES + MALFORMED + HUGE_SHAPES)
    sigma = st.one_of(sigma_text(), st.sampled_from(MALFORMED))
    command = draw(st.sampled_from(["count", "initial-ideal", "fan", "polytope", "verify", "oracle"]))
    argv = [command]
    if command == "count":
        if draw(st.booleans()):
            argv += ["--lambda", draw(shape)]
        else:
            small = st.integers(2, 5).map(str)
            argv += ["--n-max", draw(st.one_of(small, st.sampled_from(MALFORMED + HUGE)))]
        if draw(st.booleans()):
            argv += ["--format", draw(st.sampled_from(["csv", "json", "xml"]))]
    elif command == "verify":
        small = st.integers(2, 3).map(str)
        argv += ["--n-max", draw(st.one_of(small, st.sampled_from(MALFORMED + HUGE)))]
        argv += ["--seed", draw(st.one_of(st.integers(0, 9).map(str), st.sampled_from(MALFORMED)))]
    else:
        argv += ["--lambda", draw(shape)]
        if command in ("initial-ideal", "oracle") and draw(st.booleans()):
            argv += ["--sigma", draw(sigma)]
    if draw(st.booleans()):
        tail = [["--output", ""], ["--output", "no/such/dir/x.json"], ["--bogus"], ["--n-max"]]
        argv += draw(st.sampled_from(tail))
    return argv


class TestArgvProperty:
    @settings(deadline=None, max_examples=150)
    @given(argv_lists())
    def test_every_argv_exits_0_1_or_2_without_traceback(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
        assert code in (0, 1, 2), (argv, code, err.getvalue())
        assert "Traceback" not in err.getvalue()
