"""CLI subcommands: values, table layout, JSON round trip, exit codes."""

import json
import math
import re

import numpy as np
import pytest

from hfpquad.cli import canonical_json, main, parse_float_list, parse_n_range
from hfpquad.ie_solver import build_simple_system, manufactured_rhs, supersingular_cotangent_kernel
from hfpquad.integrands import PoissonKernelU
from hfpquad.oracles import exact_hfp, exact_supersingular
from hfpquad.quadrature import roundoff_floor

TWO_PI = 2.0 * math.pi


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParsers:
    def test_n_range(self):
        assert parse_n_range("10:40:10") == [10, 20, 30, 40]
        assert parse_n_range("16") == [16]
        with pytest.raises(ValueError):
            parse_n_range("10:5:2")
        with pytest.raises(ValueError):
            parse_n_range("1:2")

    def test_float_list(self):
        assert parse_float_list("0.1,0.2", "cos") == [0.1, 0.2]


class TestQuad:
    def test_eta_oracle_error(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "quad", "--m", "3", "--s", "2", "--n", "20",
            "--eta", "0.5", "--t", "1", "--oracle",
        )
        assert code == 0
        err = float(re.search(r"error = (\S+)", out).group(1))
        assert 4.19e-5 / 5 <= err <= 4.19e-5 * 5

    def test_eta_zero_value(self, capsys):
        code, out, _ = run_cli(
            capsys, "quad", "--m", "3", "--s", "1", "--n", "8", "--eta", "0"
        )
        assert code == 0
        val = float(re.search(r"value = (\S+)", out).group(1))
        assert abs(val) < 1e-11

    def test_user_modes_against_reference(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "quad", "--m", "2", "--s", "2", "--n", "16",
            "--cos", "1,0.4,0.1", "--sin", "0.2", "--t", "1", "--oracle",
        )
        assert code == 0
        err = float(re.search(r"error = (\S+)", out).group(1))
        assert err < 1e-8

    def test_family_required(self, capsys):
        code, _, err = run_cli(capsys, "quad", "--m", "3", "--n", "8")
        assert code == 1
        assert "family" in err

    def test_conflicting_families(self, capsys):
        code, _, err = run_cli(
            capsys, "quad", "--m", "3", "--n", "8", "--eta", "0.5", "--cos", "1"
        )
        assert code == 1

    def test_n_range_rejected(self, capsys):
        # quad evaluates one rule; a range is an argparse error, not its first n
        with pytest.raises(SystemExit) as info:
            main(["quad", "--m", "3", "--n", "10:100:10", "--eta", "0.5"])
        assert info.value.code != 0
        assert "--n" in capsys.readouterr().err

    def test_invalid_compact_pair_rejected(self, capsys):
        code, _, err = run_cli(
            capsys,
            "quad", "--m", "3", "--s", "3", "--n", "8", "--eta", "0.5",
            "--path", "compact",
        )
        assert code == 1
        assert "compact" in err

    def test_m6_has_an_oracle(self, capsys):
        # c_6(1) = c_6(2) = 0, so the oracle of this polynomial is an exact
        # 0 and the error is the rule value itself
        code, out, _ = run_cli(
            capsys,
            "quad", "--m", "6", "--s", "4", "--n", "10",
            "--cos", "0.5,0.3,0.1", "--sin", "0.2,-0.4", "--oracle",
        )
        assert code == 0
        value = float(re.search(r"value = (\S+)", out).group(1))
        assert "oracle = 0.0000000000000000e+00 (exact_hfp)\n" in out
        assert float(re.search(r"error = (\S+)", out).group(1)) == abs(value) < 1e-8

    @pytest.mark.parametrize("m", [6, 7])
    def test_eta_table_above_m5(self, capsys, m):
        code, out, _ = run_cli(
            capsys, "table", "--m", str(m), "--s", "0", "--n", "10:40:10",
            "--eta", "0.3,0.5", "--format", "json",
        )
        assert code == 0
        for table in json.loads(out)["tables"]:
            exact = exact_hfp(PoissonKernelU(table["eta"]), m, 1.0)
            assert (table["oracle"], table["oracle_value"]) == ("exact_hfp", exact)
            assert [r["error"] for r in table["rows"]] == [abs(r["value"] - exact) for r in table["rows"]]
            assert min(r["error"] for r in table["rows"]) < 1e-7 * max(1.0, abs(exact))


class TestFamilyErrors:
    """Which error a command reports when more than one flag is wrong:
    the family flags are checked first, before --n and the --eta count."""

    BOTH = "error: choose either --eta or --cos/--sin, not both\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ("table", "--m", "3", "--n", "bad", "--eta", "0.5", "--cos", "1"),
            ("quad", "--m", "3", "--n", "8", "--eta", "0.3,0.4", "--cos", "1"),
        ],
    )
    def test_both_families_reported_first(self, capsys, argv):
        assert run_cli(capsys, *argv) == (1, "", self.BOTH)

    def test_bad_n_reported_before_a_bad_eta(self, capsys):
        code, _, err = run_cli(capsys, "table", "--m", "3", "--n", "bad", "--eta", "abc")
        assert code == 1
        assert "'bad'" in err

    def test_quad_eta_count_reported_before_its_values(self, capsys):
        code, _, err = run_cli(capsys, "quad", "--m", "3", "--n", "8", "--eta", "1.5,0.3")
        assert (code, err) == (1, "error: quad takes a single --eta value\n")

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_empty_eta_list(self, capsys, fmt):
        code, out, err = run_cli(
            capsys, "table", "--m", "3", "--n", "10", "--eta", ",", "--format", fmt
        )
        assert (code, out, err) == (1, "", "error: --eta lists no value\n")


class TestInputErrors:
    """A --cos/--sin that lists no value, an empty item in --cos, --sin or
    --eta, a non-finite --t and a non-finite --lambda are one error line
    and exit 1, with no numpy warning before it."""

    T_RANGE = "singular point must satisfy a < t < b"

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "argv, message",
        [
            (("--m", "2", "--s", "1", "--n", "10", "--cos", ",", "--oracle"), "--cos lists no value"),
            (("--m", "2", "--s", "1", "--n", "10", "--sin", ","), "--sin lists no value"),
            (("--m", "2", "--s", "1", "--n", "10", "--cos", "1", "--sin", ","), "--sin lists no value"),
            (("--m", "3", "--s", "1", "--n", "8", "--eta", "0.5", "--t", "nan"), T_RANGE),
            (("--m", "3", "--s", "1", "--n", "8", "--cos", "1,2", "--t", "inf"), T_RANGE),
            (("--m", "3", "--s", "1", "--n", "8", "--eta", "0.5", "--t=-inf"), T_RANGE),
            (("--m", "3", "--s", "1", "--n", "8", "--eta", ","), "--eta lists no value"),
        ],
    )
    def test_one_error_line(self, capsys, argv, message):
        assert run_cli(capsys, "quad", *argv) == (1, "", f"error: {message}\n")

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("lam", ["nan", "inf", "-inf", "-nan"])
    def test_non_finite_lambda_is_one_error_line(self, capsys, lam):
        message = f"error: lambda must be finite (got {float(lam)!r})\n"
        assert run_cli(capsys, "solve-ie", "--n", "4", "--lambda", lam) == (1, "", message)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "argv, flag, text",
        [
            (("quad", "--m", "3", "--s", "1", "--n", "16", "--cos", "1,,2"), "cos", "1,,2"),
            (("quad", "--m", "3", "--s", "1", "--n", "16", "--cos", "1,"), "cos", "1,"),
            (("quad", "--m", "3", "--s", "1", "--n", "16", "--sin", ",0.5"), "sin", ",0.5"),
            (("quad", "--m", "3", "--s", "1", "--n", "16", "--cos", "1", "--sin", "0.5, ,1"), "sin", "0.5, ,1"),
            (("table", "--m", "3", "--n", "10", "--eta", "0.5,,0.4"), "eta", "0.5,,0.4"),
            (("table", "--m", "3", "--n", "10", "--eta", "0.5,", "--format", "json"), "eta", "0.5,"),
        ],
    )
    def test_empty_item_is_one_error_line(self, capsys, argv, flag, text):
        # dropping the item would shift every value after it
        assert run_cli(capsys, *argv) == (1, "", f"error: --{flag} has an empty item: {text!r}\n")

    def test_empty_cos_text_is_no_family(self, capsys):
        code, _, err = run_cli(capsys, "quad", "--m", "2", "--n", "10", "--cos", "")
        assert (code, err) == (1, "error: no integrand family given: pass --eta or --cos/--sin\n")


class TestSignedValues:
    """A value that starts with '-' may follow its option as its own token,
    as a plain negative number always could."""

    @pytest.mark.parametrize(
        "spaced, joined",
        [
            (("quad", "--m", "3", "--s", "1", "--n", "8", "--cos", "-1,2"),
             ("quad", "--m", "3", "--s", "1", "--n", "8", "--cos=-1,2")),
            (("quad", "--m", "3", "--s", "1", "--n", "8", "--eta", "0.5", "--t", "-1e-3"),
             ("quad", "--m", "3", "--s", "1", "--n", "8", "--eta", "0.5", "--t=-1e-3")),
            (("quad", "--m", "2", "--s", "1", "--n", "10", "--sin", "-.5", "--t", "-1e-3", "--oracle"),
             ("quad", "--m", "2", "--s", "1", "--n", "10", "--sin=-.5", "--t=-1e-3", "--oracle")),
            (("table", "--m", "4", "--s", "3", "--n", "10:30:10", "--cos", "-0.5,0.3", "--format", "json"),
             ("table", "--m", "4", "--s", "3", "--n", "10:30:10", "--cos=-0.5,0.3", "--format", "json")),
        ],
        ids=["cos", "t", "sin-t-oracle", "table"],
    )
    def test_equals_the_joined_form(self, capsys, spaced, joined):
        got = run_cli(capsys, *spaced)
        assert got[0] == 0
        assert got == run_cli(capsys, *joined)

    def test_option_after_option_is_an_error(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["quad", "--m", "3", "--n", "8", "--cos", "--oracle"])
        assert info.value.code == 2
        assert "argument --cos: expected one argument" in capsys.readouterr().err


_MODES = ("--cos", "0.5,0.3,0.1", "--sin", "0.2,-0.4")


class TestQuadEqualsTable:
    """Every row of a table is the quad value at its n, bit for bit: a
    table serves g from one evaluation, quad evaluates it per rule."""

    @pytest.mark.parametrize("path", ["auto", "generic"])
    @pytest.mark.parametrize(
        "m, family",
        [(m, _MODES) for m in range(1, 6)] + [(3, ("--eta", "0.5"))],
    )
    def test_rows_equal_quad(self, capsys, m, family, path):
        for s in sorted({0, 1, m // 2 + 1}):
            rule = ("--m", str(m), "--s", str(s), "--path", path, *family)
            code, out, _ = run_cli(capsys, "table", *rule, "--n", "10:30:10", "--format", "json")
            assert code == 0
            for row in json.loads(out)["rows"]:
                code, quad, _ = run_cli(capsys, "quad", *rule, "--n", str(row["n"]))
                assert code == 0
                # both print %.16e, which round-trips a double exactly
                assert quad == f"value = {'%.16e' % row['value']}\n", (s, row["n"])


class TestTable:
    def test_grid_shape(self, capsys, tmp_path):
        out_file = tmp_path / "table.csv"
        code, _, _ = run_cli(
            capsys,
            "table", "--m", "3", "--s", "0", "--t", "1",
            "--eta", "0.1,0.2,0.3,0.4,0.5", "--n", "10:100:10",
            "--output", str(out_file),
        )
        assert code == 0
        lines = out_file.read_text().splitlines()
        assert lines[0] == "n,error_eta_0.1,error_eta_0.2,error_eta_0.3,error_eta_0.4,error_eta_0.5"
        assert len(lines) == 11  # header + 10 n rows
        assert all(len(line.split(",")) == 6 for line in lines[1:])

    def test_single_eta_columns(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "table", "--m", "3", "--s", "0", "--t", "1", "--eta", "0.5",
            "--n", "10:20:10",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "n,value,error"
        assert len(lines) == 3

    def test_json_round_trip_byte_identical(self, capsys, tmp_path):
        out_file = tmp_path / "table.json"
        code, _, _ = run_cli(
            capsys,
            "table", "--m", "3", "--s", "1", "--t", "1", "--eta", "0.4",
            "--n", "10:30:10", "--format", "json", "--output", str(out_file),
        )
        assert code == 0
        text = out_file.read_text()
        assert canonical_json(json.loads(text)) == text

    def test_user_modes_table(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "table", "--m", "3", "--s", "2", "--t", "1",
            "--cos", "1,0.4", "--sin", "0.2", "--n", "8:16:8",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "n,value,error"
        # a banded integrand is resolved immediately: errors at floor level
        assert all(float(line.split(",")[2]) < 1e-10 for line in lines[1:])

    def test_rate_without_prefloor_rows_fails_cleanly(self, capsys):
        code, _, err = run_cli(
            capsys,
            "rate", "--m", "3", "--s", "2", "--t", "1",
            "--cos", "1,0.4", "--n", "8:16:4",
        )
        assert code == 1
        assert "insufficient pre-floor data" in err

    def test_csv_uses_lf(self, capsys, tmp_path):
        out_file = tmp_path / "t.csv"
        run_cli(
            capsys,
            "table", "--m", "3", "--s", "0", "--t", "1", "--eta", "0.5",
            "--n", "10", "--output", str(out_file),
        )
        raw = out_file.read_bytes()
        assert b"\r" not in raw


class TestRate:
    def test_slope_printed(self, capsys):
        code, _, err = run_cli(
            capsys,
            "rate", "--m", "3", "--s", "0", "--t", "1", "--eta", "0.5",
            "--n", "10:40:5", "--format", "json", "--output", "/dev/null",
        )
        assert code == 0
        slope = float(re.search(r"slope = (\S+)", err).group(1))
        assert slope == pytest.approx(math.log(0.5), rel=0.10)

    def test_json_stdout_is_one_document(self, capsys):
        code, out, err = run_cli(
            capsys,
            "rate", "--m", "3", "--s", "2", "--n", "10:60:10", "--eta", "0.5",
            "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)  # the whole stdout: the slope line is on stderr
        assert [r["n"] for r in payload["rows"]] == [10, 20, 30, 40, 50, 60]
        slope = float(re.search(r"slope = (\S+)", err).group(1))
        assert slope == payload["fitted_rate"]


class TestSolveIE:
    def test_simple_reaches_tolerance(self, capsys):
        code, _, err = run_cli(
            capsys, "solve-ie", "--approach", "simple", "--n", "16", "--lambda", "1"
        )
        assert code == 0
        max_err = float(re.search(r"max node error.* = (\S+)", err).group(1))
        assert max_err < 1e-6

    def test_advanced_runs(self, capsys, tmp_path):
        out_file = tmp_path / "sol.json"
        code, _, err = run_cli(
            capsys,
            "solve-ie", "--approach", "advanced", "--n", "16",
            "--format", "json", "--output", str(out_file),
        )
        assert code == 0
        payload = json.loads(out_file.read_text())
        assert len(payload["nodes"]) == 16
        assert payload["max_error"] < 1e-3
        assert payload["structure"] == "circulant"
        assert "(circulant)" in re.search(r"condition = .*", err).group(0)

    def test_json_without_output_goes_to_stdout(self, capsys):
        code, out, _ = run_cli(capsys, "solve-ie", "--n", "4", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["structure"] == "circulant"
        assert len(payload["nodes"]) == 16

    def test_json_reports_rhs_error_against_closed_form(self, capsys):
        eta, lam = 0.3, 1.2
        code, out, err = run_cli(
            capsys, "solve-ie", "--n", "16", "--eta", str(eta), "--lambda", str(lam),
            "--format", "json",
        )
        assert code == 0
        assert len(err.splitlines()) == 4  # the four summary lines
        payload = json.loads(out)
        kern, phi = supersingular_cotangent_kernel(), PoissonKernelU(eta)
        system = build_simple_system(kern, manufactured_rhs(kern, phi, lam), lam, 16)
        exact = lam * phi(system.grid) + [exact_supersingular(eta, float(t)) for t in system.grid]
        assert payload["rhs_max_error"] == float(np.max(np.abs(system.rhs - exact)))
        assert 0.0 < payload["rhs_max_error"] < 1e-8

    def test_csv_without_output_goes_to_stdout(self, capsys):
        code, out, err = run_cli(capsys, "solve-ie", "--n", "4", "--format", "csv")
        assert code == 0
        summary = err.splitlines()
        assert len(summary) == 4
        assert summary[3].startswith("condition = ")
        lines = out.splitlines()
        assert len(lines) == 1 + 16
        assert lines[0] == "x,phi_hat,phi_true,error"
        assert all(len(row.split(",")) == 4 for row in lines[1:])

    def test_json_stdout_is_one_document(self, capsys):
        code, out, err = run_cli(
            capsys, "solve-ie", "--approach", "advanced", "--n", "64", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)  # the whole stdout: the summary is on stderr
        assert payload["structure"] == "circulant"
        assert len(payload["nodes"]) == 64
        assert err.splitlines()[0] == "approach = advanced, unknowns = 64"


class TestFloor:
    def test_matches_module(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "floor", "--n", "100", "--gnorm", "1",
            "--T", "6.283185307", "--u", "2.2e-16",
        )
        assert code == 0
        expected = roundoff_floor(1.0, 0.0, 0.0, 6.283185307, 100, 2.2e-16)
        assert float(out.strip()) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("--n", "0", "--gnorm", "1"), "n must be >= 1"),
            (("--n", "-5", "--gnorm", "1"), "n must be >= 1"),
            (("--n", "10", "--gnorm", "1", "--T", "0"), "period must be finite and > 0"),
            (("--n", "10", "--gnorm", "1", "--T", "-1"), "period must be finite and > 0"),
            (("--n", "10", "--gnorm", "nan"), "norms must be finite"),
            (("--n", "10", "--gnorm", "1", "--u", "inf"), "unit finite and > 0"),
            # a floor of inf, which every row passes against, and T^2 = 0
            (("--n", "1", "--gnorm", "1e308", "--T", "1e-3"), "term 2 zeta(3)/T^2 ||g|| overflowed"),
            (("--n", "10", "--gnorm", "1", "--T", "1e-300"), "term 2 zeta(3)/T^2 ||g|| overflowed"),
        ],
    )
    def test_invalid_input_is_an_error(self, capsys, argv, message):
        code, out, err = run_cli(capsys, "floor", *argv)
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and message in err


def _recursive_canonical_json(obj) -> str:
    """The recursive emitter canonical_json replaced: the reference it must
    equal byte for byte on every finite payload."""

    def emit(o) -> str:
        if isinstance(o, dict):
            items = ",".join(f"{json.dumps(str(k))}:{emit(v)}" for k, v in sorted(o.items()))
            return "{" + items + "}"
        if isinstance(o, (list, tuple)):
            return "[" + ",".join(emit(v) for v in o) + "]"
        if isinstance(o, bool) or o is None:
            return json.dumps(o)
        if isinstance(o, (int, np.integer)):
            return str(int(o))
        if isinstance(o, (float, np.floating)):
            return "%.16e" % float(o)
        return json.dumps(o)

    return emit(obj) + "\n"


_NESTED_PAYLOAD = {
    "floats": [0.1, -0.0, 1e-300, 5e-324, -1.7976931348623157e308, np.float64(math.pi), np.float32(0.1)],
    "ints": [0, -7, 2**70, np.int64(-3), np.uint8(200), True, False],
    "nothing": None,
    "tuple": (1, (2.5, [None, {}]), []),
    'quote"key': {"back\\slash": "tab\there", "\u00e9t\u00e9": ["\u03b7 = 0.5", "\U0001d4af"]},
    "rows": [{"n": n, "value": n / 7, "error": 1e-3 / n} for n in range(10, 101, 10)],
    "int keys": {10: "ten", 7: [7.0]},
}


class TestCanonicalJson:
    def test_sorted_keys_and_formats(self):
        text = canonical_json({"b": 1.5, "a": 2, "c": [True, None, "x"]})
        assert text == '{"a":2,"b":1.5000000000000000e+00,"c":[true,null,"x"]}\n'

    def test_float_round_trip_is_stable(self):
        vals = {"v": [0.1, 1e-300, -2.2250738585072014e-308, math.pi]}
        once = canonical_json(vals)
        again = canonical_json(json.loads(once))
        assert once == again

    @pytest.mark.parametrize(
        "payload",
        [_NESTED_PAYLOAD, [_NESTED_PAYLOAD, (_NESTED_PAYLOAD,)], {}, [], "", 0.0, np.float32(-2.5)],
        ids=["nested", "listed", "empty-dict", "empty-list", "empty-str", "zero", "float32"],
    )
    def test_equals_the_recursive_emitter(self, payload):
        text = canonical_json(payload)
        assert text == _recursive_canonical_json(payload)
        json.loads(text)

    @pytest.mark.parametrize(
        "value", [math.nan, math.inf, -math.inf, np.float64(math.nan), np.float32(-math.inf)], ids=repr
    )
    def test_non_finite_float_is_refused(self, value):
        # "nan" and "inf" are not JSON, so json.loads would reject the document
        with pytest.raises(ValueError, match=f"non-finite float {float(value)!r}$"):
            canonical_json({"rows": [{"n": 10, "value": 1.0, "error": value}]})
