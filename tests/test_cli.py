import contextlib
import csv
import heapq
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ifsfourier.cli import main
from ifsfourier.config import ConfigError, emit_config, parse_config
from ifsfourier.registry import EXAMPLES
from ifsfourier.spectrum import SpectrumSet

AFFINE_NAMES = sorted(n for n, e in EXAMPLES.items() if e.kind == "affine")

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


def test_spectrum_levels_on_a_cap_hit(capsys):
    # the last closure level held in full, not the levels asked for
    for cap, levels, elements in (("1", 0, ["(0)"]), ("3", 1, ["(0)", "(1)", "(4)"])):
        code, out = run_cli(capsys, "spectrum", "--example", "cantor4", "--levels", "3",
                            "--cap", cap)
        rep = json.loads(out)
        assert (code, rep["levels"], rep["cap_hit"], rep["elements"]) == (0, levels, True,
                                                                          elements)


# rational data (S not integral) whose closure denominator grows mid-closure
GROWING_DENOMINATOR_CONFIG = """d = 2
R = [[7/2, 1], [0, 3]]
B = [[0, 0], [1/3, 1]]
L = [[0, 0], [-2/5, 1]]
p_max = 3
"""


def fraction_route_smallest(self, count=None):
    """The printed elements as chosen from the set of Fraction tuples."""
    return sorted(self.elements) if count is None else heapq.nsmallest(count, self.elements)


def fraction_route_to_csv(self, path):
    """The spectrum CSV as written from the sorted set of Fraction tuples."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["l%d" % i for i in range(self.d)])
        for e in sorted(self.elements):
            writer.writerow(["%.17g" % float(c) for c in e])


@pytest.mark.parametrize("name", AFFINE_NAMES + ["growing-denominator"])
def test_table_route_prints_the_fraction_route_bytes(name, tmp_path, monkeypatch, capsys):
    source = ["--example", name]
    if name == "growing-denominator":
        (tmp_path / "growing.cfg").write_text(GROWING_DENOMINATOR_CONFIG)
        source = ["--config", str(tmp_path / "growing.cfg")]
    csv_path = tmp_path / "lambda.csv"
    runs = [["spectrum", *source, "--levels", "5", "--count", "9"],
            ["spectrum", *source, "--levels", "6", "--cap", "40", "--count", "50"],
            ["spectrum", *source, "--levels", "4", "--out", str(csv_path)],
            ["verify-onb", *source, "--levels", "5", "--window", "12"]]

    def printed():
        return [run_cli(capsys, *argv) for argv in runs], csv_path.read_bytes()
    table = printed()
    assert [code for code, _ in table[0]] == [0] * len(runs)
    monkeypatch.setattr(SpectrumSet, "smallest", fraction_route_smallest)
    monkeypatch.setattr(SpectrumSet, "to_csv", fraction_route_to_csv)
    assert printed() == table


def test_spectrum_commands_never_form_the_fraction_set(tmp_path, monkeypatch, capsys):
    def refuse(self):
        raise AssertionError("SpectrumSet.elements was read")
    monkeypatch.setattr(SpectrumSet, "elements", property(refuse))
    for extra in ([], ["--count", "5"], ["--cap", "20"], ["--out", str(tmp_path / "l.csv")]):
        code, out = run_cli(capsys, "spectrum", "--example", "twindragon", "--levels", "4",
                            *extra)
        assert code == 0 and json.loads(out)["count"] > 0
    assert run_cli(capsys, "verify-onb", "--example", "twindragon", "--window", "9")[0] == 0


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


def test_harmonic_with_cycles_longer_than_the_paths(capsys):
    # --p-max 8 finds twindragon cycles of period 8 > --length 4; this exited
    # 3 with an IndexError
    code, out = run_cli(capsys, "harmonic", "--example", "twindragon", "--x", "0.2,0.1",
                        "--paths", "100", "--length", "4", "--p-max", "8")
    assert code == 0
    rep = json.loads(out)
    assert max(row["period"] for row in rep["per_cycle"]) == 8
    assert rep["total"] + rep["unclassified"] == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("example,x,depth", [("planar-shear", "0.1,0.2", 5),
                                             ("cantor4", "0.3", 10)])
def test_harmonic_default_depth_keeps_to_1024_words(capsys, monkeypatch, example, x, depth):
    # planar-shear (N = 4) used to default to depth 10, 4^10 words per cycle
    from ifsfourier import cli

    asked = []

    def closed_form(sys, x, cycle, depth_blocks, tail_tol=None):
        asked.append(depth_blocks * cycle.period)
        return 0.0

    monkeypatch.setattr(cli, "h_closed_form", closed_form)
    code, _ = run_cli(capsys, "harmonic", "--example", example, "--x", x,
                      "--paths", "100", "--length", "8")
    assert code == 0
    assert asked and set(asked) == {depth}


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
    (("attractor", "--samples", "100", "--streams", "-1"), "--streams"),
    (("harmonic", "--x", "0.3", "--paths", "-1"), "--paths"),
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
    # a closed-form depth below 1 used to run one block silently
    (("harmonic", "--x", "0.3", "--depth", "0"), "--depth"),
    (("harmonic", "--x", "0.3", "--depth", "-5"), "--depth"),
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
    ("cycles", "--threads", "2"), ("check-hadamard", "--threads", "2"),
    ("spectrum", "--threads", "2"), ("verify-onb", "--threads", "2"),
    ("mu-hat", "--t", "1", "--threads", "2"), ("harmonic", "--x", "0.3", "--threads", "2"),
    # no count check sees these: --threads is unknown before any count is read
    ("attractor", "--samples", "100", "--threads", "0"),
    ("attractor", "--samples", "100", "--threads", "-1"),
])
def test_threads_only_on_sampling_subcommands(capsys, argv):
    # no subcommand reads --threads; attractor's samples are split by --streams
    code = main([*argv, "--example", "cantor4"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "--threads" in captured.err


@pytest.mark.parametrize("streams", ["1", "3"])
def test_attractor_threads_is_no_longer_an_alias_of_streams(capsys, streams):
    argv = ["attractor", "--example", "twindragon", "--samples", "300", "--seed", "5"]
    assert main([*argv, "--streams", streams]) == 0
    assert capsys.readouterr().err == ""
    assert main([*argv, "--threads", streams]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "unrecognized arguments: --threads" in captured.err


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


# -- one place decides the outcome: 1 a failed check, 2 bad input, 3 a bug ---------

NO_W_CONFIG = "d = 1\nR = [[4]]\nB = [[0], [2]]\nL = [[1], [2]]\np_max = 4\n"


def run_main(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("argv,key", [
    (("check-hadamard", "--example", "cantor3"), "duality"),
    (("spectrum", "--config", "{no_w}"), "error"),
    (("verify-onb", "--config", "{no_w}"), "error"),
    (("harmonic", "--config", "{no_w}", "--x", "0.3"), "error"),
])
def test_failed_check_exits_1_with_its_report_on_stdout(tmp_path, capsys, argv, key):
    no_w = tmp_path / "no_w.cfg"
    no_w.write_text(NO_W_CONFIG)
    code, out, err = run_main(capsys, *(a.format(no_w=no_w) for a in argv))
    assert code == 1
    assert key in json.loads(out) and err == ""


@pytest.mark.parametrize("example,x,paths,length,low,high", [
    # cantor3 is no Hadamard triple: its branch weights W_B(tau_l x) do not
    # sum to 1, so P_x is no probability and the walk does not start
    ("cantor3", "0.3", "100", "4", 0.4, math.inf),
])
def test_harmonic_without_qmf_reports_the_deviation(capsys, example, x, paths, length,
                                                   low, high):
    code, out, err = run_main(capsys, "harmonic", "--example", example, "--x", x,
                              "--paths", paths, "--length", length)
    rep = json.loads(out)
    assert code == 1 and err == "" and rep["system"] == example
    assert low < rep["qmf_deviation"] < high and "QMF" in rep["error"]


def test_harmonic_from_a_far_start_passes_its_qmf_check(capsys):
    # the zero cut is the rounding bound at each state weighed, so from
    # x = 10^8 + 0.3 it follows the walk down to the attractor and cuts no
    # true weight there (a cut fixed at the start's bound, ~1.4e-7, did)
    code, out, err = run_main(capsys, "harmonic", "--example", "cantor4", "--x", "100000000.3",
                              "--paths", "2000", "--length", "32")
    assert code == 0 and err == ""
    assert json.loads(out)["qmf_deviation"] < 1e-9


CANTOR4_TRIPLE = "d = 1\nR = [[4]]\nB = [[0], [2]]\nL = [[0], [1]]\n"
# S^{-1} = [[1/2, 0], [-5/2, 1/2]] contracts in no norm, only its powers do
SHEAR10_TRIPLE = ("d = 2\nR = [[2, 10], [0, 2]]\nB = [[0, 0], [1, 0], [0, 1], [1, 1]]\n"
                  "L = [[0, 0], [1, 0], [0, 1], [1, 1]]\n")
# S^{-1} = 1000/1001 contracts so slowly that mu_hat needs 30,583 factors
SLOW_TRIPLE = "d = 1\nR = [[1001/1000]]\nB = [[0], [1]]\nL = [[0], [1]]\n"


@pytest.mark.parametrize("config,argv,code", [
    (SHEAR10_TRIPLE, ("mu-hat", "--t", "0.3,0.2"), 0),
    (SHEAR10_TRIPLE, ("harmonic", "--x", "0.1,0.2", "--depth", "4", "--paths", "2000",
                      "--length", "32"), 0),
    (SLOW_TRIPLE, ("mu-hat", "--t", "0.3"), 2),
])
def test_slowly_or_nowhere_contracting_inverse_runs_or_is_bad_input(tmp_path, capsys, config,
                                                                     argv, code):
    # no step of S^{-1} need contract: the tail depth, radius and box read
    # its power norms, and a depth past 10,000 factors is bad input
    cfg = tmp_path / "sys.cfg"
    cfg.write_text(config)
    got, out, err = run_main(capsys, argv[0], "--config", str(cfg), *argv[1:])
    assert got == code
    if code == 0:
        assert json.loads(out) and err == ""
    else:
        assert out == "" and "needs 30583 factors, more than 10,000" in json.loads(err)["error"]


# expansive, but |S^{-k}|_2 is still 16,118 at k = 2^14, the last power
# the norms are doubled to, so they bound no tail
TRANSIENT_TRIPLE = ("d = 2\nR = [[1.000001, 1], [0, 1.000001]]\nB = [[0, 0], [1, 0]]\n"
                    "L = [[0, 0], [1, 0]]\n")


@pytest.mark.parametrize("argv", [
    ("attractor", "--samples", "100"),
    ("harmonic", "--x", "0.1,0.2", "--paths", "10", "--length", "4"),
    ("mu-hat", "--t", "0.3,0.1"),
])
def test_power_norms_that_bound_no_tail_are_bad_input(tmp_path, capsys, argv):
    cfg = tmp_path / "sys.cfg"
    cfg.write_text(TRANSIENT_TRIPLE)
    code, out, err = run_main(capsys, argv[0], "--config", str(cfg), *argv[1:])
    assert code == 2 and out == ""
    assert "16384}| = 16117.7 >= 1 bounds no tail" in json.loads(err)["error"]


@pytest.mark.parametrize("command,extra,fragment", [
    # d = 1 only: the grid is the quarter-integer frequency grid
    (("verify-onb", "--example", "twindragon", "--grid", "--levels", "2"), "",
     "--grid analyzes"),
    # W-cycles exist ({1} for L = {1, 3}, {0} for B = {1, 3}), but the spectrum
    # is seeded from 0 in B and in L
    (("spectrum", "--config", "{cfg}", "--levels", "2"), "L = [[1], [3]]\n", "0 in B and 0 in L"),
    (("verify-onb", "--config", "{cfg}", "--levels", "2"), "B = [[1], [3]]\n",
     "0 in B and 0 in L"),
    # a NaN or infinite tolerance passes or fails every comparison; 1e-400 reads as 0
    (("mu-hat", "--config", "{cfg}", "--t", "0.3"), "tail_tol = nan\n", "tail_tol"),
    (("mu-hat", "--config", "{cfg}", "--t", "0.3"), "tail_tol = inf\n", "tail_tol"),
    (("mu-hat", "--config", "{cfg}", "--t", "0.3"), "tail_tol = 1e-400\n", "tail_tol"),
    (("mu-hat", "--config", "{cfg}", "--t", "0.3"), "tail_tol = -1\n", "tail_tol"),
    (("check-hadamard", "--config", "{cfg}"), "unitarity_tol = nan\n", "unitarity_tol"),
    (("check-hadamard", "--config", "{cfg}"), "unitarity_tol = 0\n", "unitarity_tol"),
])
def test_audited_bad_input_exits_2(tmp_path, capsys, command, extra, fragment):
    cfg = tmp_path / "sys.cfg"
    cfg.write_text(CANTOR4_TRIPLE + extra)
    code, out, err = run_main(capsys, *(a.format(cfg=cfg) for a in command))
    assert code == 2 and out == ""
    assert fragment in json.loads(err)["error"]


@pytest.mark.parametrize("argv", [
    ("mu-hat", "--t", "1"), ("cycles",), ("check-hadamard",), ("spectrum",),
    ("harmonic", "--x", "0.3"), ("attractor",),
])
def test_example_and_config_are_exclusive(capsys, argv):
    # --config used to be ignored when --example was given
    code, out, err = run_main(capsys, *argv, "--example", "cantor4",
                              "--config", "/nonexistent.cfg")
    assert code == 2 and out == ""
    assert "not allowed with argument --example" in err


@pytest.mark.parametrize("exc", [ValueError("injected"), KeyError("injected")])
def test_internal_error_exits_3_with_a_traceback(monkeypatch, capsys, exc):
    # a library error that is not a typed outcome is a bug, not a failed
    # check (ValueError used to exit 1) or bad input (KeyError used to exit 2)
    def broken(*args, **kwargs):
        raise exc

    monkeypatch.setattr("ifsfourier.cli.enumerate_cycles", broken)
    code, out, err = run_main(capsys, "cycles", "--example", "cantor4")
    assert code == 3 and out == ""
    assert err.startswith("Traceback") and "injected" in err and "in broken" in err


def test_harmonic_words_export_is_the_estimates_walk(tmp_path, capsys):
    # the export holds the first 10^4 words of the walk the estimate read,
    # not the words of a second, smaller walk
    from ifsfourier import get_system, sample_paths, weight_from_digits
    from ifsfourier.pathspace import WORDS_CSV_ROWS

    argv = ["harmonic", "--example", "lambda15", "--x", "0.3", "--paths", "12000",
            "--length", "6", "--depth", "2", "--seed", "5"]
    code, plain, _ = run_main(capsys, *argv)
    words = tmp_path / "words.csv"
    code_out, exported, _ = run_main(capsys, *argv, "--words-out", str(words))
    assert code == code_out == 0 and exported == plain
    sys_obj = get_system("lambda15")
    walk = sample_paths(weight_from_digits(sys_obj.B), sys_obj.l_view, [0.3], 6, 12000, 5)
    rows = [[int(v) for v in line.split(",")] for line in words.read_text().splitlines()[1:]]
    assert WORDS_CSV_ROWS == 10_000 and rows == walk.words[:10_000].tolist()


# -- config fuzz: any text is a system (0 or 1) or bad input (2), never a bug (3) ----

# numbers of every kind the grammar reads (ints, floats, a/b) and the ones
# it must refuse: NaN, infinities, a float overflow, an underflow to 0, a
# zero denominator and words
FUZZ_SCALARS = st.sampled_from([
    "0", "1", "2", "3", "4", "-1", "-2", "5", "1/2", "3/2", "-5/3", "1/0", "0.25",
    "2.0", "1e-12", "nan", "inf", "-inf", "1e999", "1e-400", "abc", "",
])
FUZZ_VALUES = st.recursive(
    FUZZ_SCALARS,
    lambda inner: st.lists(inner, max_size=4).map(lambda xs: "[" + ", ".join(xs) + "]"),
    max_leaves=8,
) | st.sampled_from(["[", "]", "[[4]", "[[0], [2]]]", "[[0] [2]]"])
FUZZ_BASE = {"d": "1", "R": "[[4]]", "B": "[[0], [2]]", "L": "[[0], [1]]"}
FUZZ_KEYS = list(FUZZ_BASE) + ["p_max", "lambda_levels", "seed", "unitarity_tol",
                               "tail_tol", "cycle_tol", "colour"]


@st.composite
def config_texts(draw):
    """cantor4's triple with some fields dropped and some set to fuzzed
    values, plus at most one line that is no assignment."""
    fields = dict(FUZZ_BASE)
    for key in draw(st.sets(st.sampled_from(list(FUZZ_BASE)), max_size=1)):
        del fields[key]
    fields.update(draw(st.dictionaries(st.sampled_from(FUZZ_KEYS), FUZZ_VALUES, max_size=3)))
    lines = ["%s = %s" % kv for kv in fields.items()]
    lines += draw(st.lists(st.sampled_from(["garbage", "= 3", "R =", "# comment"]), max_size=1))
    return "\n".join(draw(st.permutations(lines))) + "\n"


def _run_quietly(argv) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(text=config_texts())
@example(text=CANTOR4_TRIPLE + "tail_tol = 1e-400\n")  # reads as 0.0
@example(text=CANTOR4_TRIPLE + "tail_tol = 0\n")
@example(text=SHEAR10_TRIPLE)
@example(text=SLOW_TRIPLE)
def test_config_text_is_a_system_or_bad_input(text):
    fd, path = tempfile.mkstemp(suffix=".cfg")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        for argv, codes in ((["check-hadamard", "--config", path], (0, 1, 2)),
                            (["mu-hat", "--config", path, "--t", "1/3"], (0, 2))):
            code, out, err = _run_quietly(argv)
            assert code in codes, (argv[0], text, err)
            if code == 2:
                assert out == "" and "error" in json.loads(err)
            elif code == 1:  # check-hadamard's own verdict, with its report
                assert json.loads(out)["duality"]["failures"]
    finally:
        os.unlink(path)


@pytest.mark.parametrize("command,extra,fragment", [
    # digits beyond the float range: 2 pi max|b| |t| was inf, and the tail
    # depth loop ran until c^k underflowed (537 factors, RuntimeWarnings)
    (("mu-hat", "--config", "{cfg}", "--t", "0.3"),
     "d = 1\nR = [[4]]\nB = [[0], [1e308]]\nL = [[0], [1]]\n", "B has a digit"),
    (("check-hadamard", "--config", "{cfg}"),
     "d = 1\nR = [[4]]\nB = [[0], [2]]\nL = [[0], [1e308]]\n", "L has a digit"),
    # a frequency whose tail bound overflows
    (("mu-hat", "--example", "cantor4", "--t", "1e307"), "", "--t 1e307"),
    (("mu-hat", "--example", "cantor4", "--t", "1e200"), "", "--t 1e200"),
    (("mu-hat", "--example", "twindragon", "--t", "1e307,0"), "", "tail bound"),
    # a fraction beyond the float range (an OverflowError traceback, exit 3, before)
    (("mu-hat", "--example", "cantor4", "--t", "1" + "0" * 400 + "/3"), "", "not a finite"),
])
def test_overflowing_tail_bound_is_bad_input(tmp_path, capsys, command, extra, fragment):
    cfg = tmp_path / "sys.cfg"
    cfg.write_text(extra)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_main(capsys, *(a.format(cfg=cfg) for a in command))
    assert code == 2 and out == ""
    assert fragment in json.loads(err)["error"]


def test_package_runs_as_a_module():
    proc = subprocess.run([sys.executable, "-m", "ifsfourier", "example"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "riesz3" in json.loads(proc.stdout)
