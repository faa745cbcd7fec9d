import json
import subprocess
import sys

import pytest

from ifsfourier.cli import main
from ifsfourier.config import ConfigError, emit_config, parse_config

GOOD_CONFIG = """
# scale-4 quarter Cantor system
d = 1
R = [[4]]
B = [[0], [2]]
L = [[0], [1]]
p_max = 4
lambda_levels = 4
seed = 3
"""


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_parse_config_roundtrip():
    cfg = parse_config(GOOD_CONFIG)
    assert cfg.d == 1 and cfg.p_max == 4 and cfg.seed == 3
    again = parse_config(emit_config(cfg))
    assert again.R == cfg.R and again.B == cfg.B and again.L == cfg.L


def test_parse_config_fractions():
    cfg = parse_config("d = 1\nR = [[4]]\nB = [[0], [1/2]]\nL = [[0], [4]]\n")
    from fractions import Fraction

    assert cfg.B[1][0] == Fraction(1, 2)
    assert cfg.system().N == 2


def test_parse_config_tolerances():
    cfg = parse_config(GOOD_CONFIG + "unitarity_tol = 1e-10\ntail_tol = 1e-9\ncycle_tol = 1e-8\n")
    sys = cfg.system()
    assert sys.unitarity_tol == 1e-10
    assert sys.tail_tol == 1e-9
    assert cfg.extras == {"cycle_tol": 1e-8}  # no longer a field: kept like any unknown key


def test_parse_config_cardinality_error():
    with pytest.raises(ConfigError, match="'B'"):
        parse_config("d = 1\nR = [[4]]\nB = [[0]]\nL = [[0], [1]]\n")


def test_parse_config_missing_field():
    with pytest.raises(ConfigError, match="'L'"):
        parse_config("d = 1\nR = [[4]]\nB = [[0], [2]]\n")


def test_check_hadamard_pass(capsys):
    code, out = run_cli(capsys, "check-hadamard", "--example", "cantor4")
    assert code == 0
    rep = json.loads(out)
    assert rep["duality"]["passes"] is True
    assert rep["duality"]["unitarity"]["max_deviation"] < 1e-12


def test_check_hadamard_planar(capsys):
    code, out = run_cli(capsys, "check-hadamard", "--example", "planar-shear")
    assert code == 0


def test_check_hadamard_fail_exit_code(capsys):
    code, out = run_cli(capsys, "check-hadamard", "--example", "cantor3")
    assert code == 1
    assert json.loads(out)["duality"]["failures"] == ["unitarity"]


def test_bad_config_exit_2(tmp_path, capsys):
    p = tmp_path / "bad.cfg"
    p.write_text("d = 1\nR = [[4]]\nB = [[0]]\nL = [[0], [1]]\n")
    code = main(["check-hadamard", "--config", str(p)])
    err = capsys.readouterr().err
    assert code == 2
    assert "B" in err


def test_unknown_example_exit_2(capsys):
    code = main(["cycles", "--example", "nope"])
    assert code == 2


def test_cycles_cantor4(capsys):
    code, out = run_cli(capsys, "cycles", "--example", "cantor4")
    assert code == 0
    rep = json.loads(out)
    assert rep["count"] == 1
    assert rep["cycles"] == [{"word": [0], "period": 1, "points": ["(0)"], "is_w_cycle": True}]


def test_cycles_twindragon_p4(capsys):
    code, out = run_cli(capsys, "cycles", "--example", "twindragon", "--p-max", "4")
    rep = json.loads(out)
    periods = sorted(c["period"] for c in rep["cycles"])
    assert periods == [1, 1, 2, 4, 4, 4]


def test_cycles_lambda63_includes_three_cycle(capsys):
    code, out = run_cli(capsys, "cycles", "--example", "lambda63", "--p-max", "3")
    rep = json.loads(out)
    assert ["(16)", "(4)", "(1)"] in [c["points"] for c in rep["cycles"]]


def test_spectrum_cantor4_first_ten(capsys):
    code, out = run_cli(capsys, "spectrum", "--example", "cantor4",
                        "--levels", "5", "--count", "10")
    assert code == 0
    rep = json.loads(out)
    assert rep["elements"] == ["(0)", "(1)", "(4)", "(5)", "(16)", "(17)",
                               "(20)", "(21)", "(64)", "(65)"]


def test_spectrum_no_w_cycles_exit_1(tmp_path, capsys):
    p = tmp_path / "no_w.cfg"
    p.write_text("d = 1\nR = [[4]]\nB = [[0], [2]]\nL = [[1], [2]]\np_max = 4\n")
    code = main(["spectrum", "--config", str(p)])
    out = capsys.readouterr().out
    assert code == 1
    assert "no W-cycles" in out


def test_verify_onb_cantor4(capsys):
    code, out = run_cli(capsys, "verify-onb", "--example", "cantor4",
                        "--levels", "6", "--window", "30", "--x", "0.3")
    rep = json.loads(out)
    assert rep["max_offdiag"] < 1e-8
    vals = list(rep["completeness_sum"].values())
    assert 0.9 < vals[0] <= 1.0 + 1e-9


def test_verify_onb_cantor3_grid(capsys):
    code, out = run_cli(capsys, "verify-onb", "--example", "cantor3",
                        "--levels", "4", "--window", "10", "--x", "0.3",
                        "--grid", "--grid-span", "40")
    rep = json.loads(out)
    assert rep["grid"]["max_orthogonal_clique"] == 2
    assert rep["grid"]["zero_anchored_completeness"] < 1.0


def test_mu_hat_command(capsys):
    code, out = run_cli(capsys, "mu-hat", "--example", "cantor4", "--t", "1")
    rep = json.loads(out)
    assert rep["exact_zero"] is True
    assert rep["abs"] == 0.0


def test_attractor_csv(tmp_path, capsys):
    out_path = tmp_path / "pts.csv"
    code, out = run_cli(capsys, "attractor", "--example", "cantor4",
                        "--samples", "500", "--seed", "1", "--out", str(out_path))
    assert code == 0
    rep = json.loads(out)
    assert rep["samples"] == 500
    assert 0.0 <= rep["bbox_lo"][0] and rep["bbox_hi"][0] <= 2 / 3 + 1e-9
    assert len(out_path.read_text().splitlines()) == 501


def test_harmonic_cantor4(capsys):
    code, out = run_cli(capsys, "harmonic", "--example", "cantor4", "--x", "0.3",
                        "--paths", "4000", "--length", "48", "--seed", "2")
    rep = json.loads(out)
    assert abs(rep["total"] - 1.0) < 0.02
    assert abs(rep["per_cycle"][0]["closed_form"] - 1.0) < 1e-4


def test_riesz_command(tmp_path, capsys):
    curve = tmp_path / "curve.csv"
    code, out = run_cli(capsys, "riesz", "--steps", "60000", "--seed", "3",
                        "--fourier", "1", "6", "--out", str(curve))
    rep = json.loads(out)
    assert rep["branch_normalization_deviation"] < 1e-12
    assert abs(rep["nu_hat"]["6"]["value"]["re"] - 0.5) < 0.02
    assert curve.read_text().startswith("q,mass")


@pytest.mark.parametrize("argv", [("--steps", "0"), ("--steps", "1"), ("--chains", "1"),
                                  ("--chains", "-3"), ("--chains", "0")])
def test_riesz_rejects_fewer_than_two_chains(capsys, argv):
    # batch-mean errors need two chains; fewer would print NaN stderrs
    # (a count of 0 used to fall back to 32 chains)
    code = main(["riesz", *argv])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "riesz needs" in json.loads(captured.err)["error"]


@pytest.mark.parametrize("argv,flag", [
    (("attractor", "--samples", "100", "--threads", "0"), "--threads"),
    (("attractor", "--samples", "100", "--threads", "-1"), "--threads"),
    (("attractor", "--samples", "0"), "--samples"),
    (("harmonic", "--x", "0.3", "--paths", "0"), "--paths"),
    (("harmonic", "--x", "0.3", "--length", "0"), "--length"),
    # a count of printed or checked elements, a level or a seed may be 0
    (("spectrum", "--levels", "3", "--count", "-1"), "--count"),
    (("verify-onb", "--levels", "3", "--window", "-2"), "--window"),
    (("cycles", "--p-max", "0"), "--p-max"),
    (("cycles", "--p-max", "-3"), "--p-max"),
    (("spectrum", "--levels", "-1"), "--levels"),
    (("attractor", "--samples", "10", "--seed", "-1"), "--seed"),
    (("spectrum", "--levels", "3", "--cap", "0"), "--cap"),
    (("spectrum", "--levels", "3", "--cap", "-1"), "--cap"),
    (("verify-onb", "--levels", "3", "--grid", "--grid-span", "-1"), "--grid-span"),
    (("check-hadamard", "--horizon", "-1"), "--horizon"),
    (("attractor", "--samples", "100", "--streams", "0"), "--streams"),
])
def test_nonpositive_counts_are_bad_input(capsys, argv, flag):
    low = 0 if flag in ("--count", "--window", "--levels", "--seed", "--grid-span",
                        "--horizon") else 1
    code = main([*argv, "--example", "cantor4"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert json.loads(captured.err)["error"].startswith("%s must be >= %d" % (flag, low))


@pytest.mark.parametrize("argv", [
    ("cycles",), ("check-hadamard",), ("spectrum",), ("verify-onb",), ("mu-hat", "--t", "1"),
    ("harmonic", "--x", "0.3"),
])
def test_threads_only_on_sampling_subcommands(capsys, argv):
    # only attractor reads --threads; elsewhere it is unknown
    code = main([*argv, "--example", "cantor4", "--threads", "2"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "--threads" in captured.err


@pytest.mark.parametrize("streams", ["1", "3"])
def test_attractor_threads_is_a_deprecated_alias_of_streams(capsys, streams):
    argv = ["attractor", "--example", "twindragon", "--samples", "300", "--seed", "5"]
    assert main([*argv, "--streams", streams]) == 0
    new = capsys.readouterr()
    assert main([*argv, "--threads", streams]) == 0
    old = capsys.readouterr()
    assert old.out == new.out  # byte-identical reports
    assert new.err == ""
    assert old.err.count("\n") == 1 and "--threads is deprecated" in old.err
    # the two spellings cannot be mixed
    assert main([*argv, "--streams", streams, "--threads", streams]) == 2


def test_riesz_threads_is_unknown(capsys):
    # riesz splits its steps over --chains; --threads has no alias
    code = main(["riesz", "--steps", "10", "--threads", "2"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "--threads" in captured.err


def test_riesz_negative_seed_is_bad_input(capsys):
    code = main(["riesz", "--steps", "10", "--seed", "-1"])
    captured = capsys.readouterr()
    assert code == 2
    assert json.loads(captured.err)["error"].startswith("--seed must be >= 0")


@pytest.mark.parametrize("argv", [
    ("mu-hat", "--t", "abc"),
    ("mu-hat", "--t=1/0"),
    ("mu-hat", "--t", "nan"),
    ("mu-hat", "--t=-inf"),
    ("harmonic", "--x", "abc"),
    ("verify-onb", "--levels", "3", "--x", "0.3x"),
])
def test_unparsable_point_is_bad_input(capsys, argv):
    code = main([*argv, "--example", "cantor4"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "is not a finite number" in json.loads(captured.err)["error"]


@pytest.mark.parametrize("field", ["p_max = 0", "lambda_levels = -1", "seed = -2"])
def test_config_out_of_range_is_bad_input(tmp_path, capsys, field):
    p = tmp_path / "bad.cfg"
    p.write_text("d = 1\nR = [[4]]\nB = [[0], [2]]\nL = [[0], [1]]\n%s\n" % field)
    code = main(["cycles", "--config", str(p)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "must be an integer >=" in json.loads(captured.err)["error"]


@pytest.mark.parametrize("command", [("check-hadamard",), ("cycles",), ("mu-hat", "--t", "1")])
@pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "1e999"])
@pytest.mark.parametrize("field", ["R", "B", "L"])
def test_non_finite_config_entry_is_bad_input(tmp_path, capsys, command, bad, field):
    rows = {"R": "[[4]]", "B": "[[0], [2]]", "L": "[[0], [1]]"}
    rows[field] = "[[%s]]" % bad if field == "R" else "[[0], [%s]]" % bad
    p = tmp_path / "bad.cfg"
    p.write_text("d = 1\n" + "".join("%s = %s\n" % kv for kv in rows.items()))
    code = main([*command, "--config", str(p)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert json.loads(captured.err)["error"].startswith("%s has a non-finite entry" % field)


@pytest.mark.parametrize("argv", [
    ("check-hadamard",),
    ("cycles",),
    ("spectrum", "--levels", "2"),
    ("verify-onb", "--levels", "2", "--window", "4"),
    ("attractor", "--samples", "10"),
    ("harmonic", "--x", "0.3", "--paths", "10", "--length", "4"),
])
def test_report_names_its_system(tmp_path, capsys, argv):
    p = tmp_path / "cantor.cfg"
    p.write_text(GOOD_CONFIG)
    for source, name in (("--example", "cantor4"), ("--config", str(p))):
        code, out = run_cli(capsys, *argv, source, name)
        assert code == 0 and json.loads(out)["system"] == name
    code, out = run_cli(capsys, "riesz", "--steps", "2")
    assert code == 0 and json.loads(out)["system"] == "riesz3"


def test_riesz_two_steps_is_finite(capsys):
    code, out = run_cli(capsys, "riesz", "--steps", "2", "--seed", "1")
    rep = json.loads(out)
    assert code == 0 and rep["steps"] == 2
    assert "NaN" not in out

def test_example_listing_and_dump(capsys):
    code, out = run_cli(capsys, "example")
    assert code == 0
    assert "twindragon" in json.loads(out)
    code, out = run_cli(capsys, "example", "cantor4")
    assert code == 0
    cfg = parse_config(out)
    assert cfg.R == [[4]]
    code, out = run_cli(capsys, "example", "riesz3")
    rep = json.loads(out)
    assert code == 0 and rep["matrix"] == [[3]] and rep["digits"] == [[0], [1], [2]]
    assert rep["weight"] == "(2/3) cos^2(2 pi x)"


def test_entry_without_triple_is_bad_input(capsys):
    # riesz3 is a view and a weight; the affine subcommands need a triple
    code = main(["cycles", "--example", "riesz3"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""


def test_reports_are_deterministic(capsys):
    _, a = run_cli(capsys, "cycles", "--example", "twindragon", "--p-max", "3")
    _, b = run_cli(capsys, "cycles", "--example", "twindragon", "--p-max", "3")
    assert a == b
    _, c = run_cli(capsys, "harmonic", "--example", "cantor4", "--x", "0.3",
                   "--paths", "1000", "--length", "32", "--seed", "9")
    _, d = run_cli(capsys, "harmonic", "--example", "cantor4", "--x", "0.3",
                   "--paths", "1000", "--length", "32", "--seed", "9")
    assert c == d


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "ifsfourier.cli", "example"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "riesz3" in proc.stdout


def test_harmonic_words_export(tmp_path, capsys):
    words = tmp_path / "words.csv"
    code, out = run_cli(capsys, "harmonic", "--example", "cantor4", "--x", "0.3",
                        "--paths", "200", "--length", "8", "--seed", "4",
                        "--words-out", str(words))
    assert code == 0
    lines = words.read_text().splitlines()
    assert lines[0] == ",".join("w%d" % k for k in range(8))
    assert len(lines) == 201
    assert set("".join(lines[1:]).replace(",", "")) <= {"0", "1"}
