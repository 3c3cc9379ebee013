"""Command-line surface: spec'd invocations, formats, exit codes."""

import csv
import dataclasses
import hashlib
import io
import json
from fractions import Fraction
from importlib import resources

import pytest

from hypercurv import (
    ConcaveCost,
    TransportPlan,
    generate,
    lazy_random_walk,
    orc_alpha,
    plan_cost,
    wh_exact,
    wh_heuristic,
)
from hypercurv import cli
from hypercurv.cli import main
from hypercurv.errors import Hp1ZeroWarning

LOG1 = '{"family":"log","a":"1"}'
LIN1 = '{"family":"linear","a":"1"}'
# h(1) = 0, a that is 0 as a float, a that overflows a float
DEGENERATE_SPECS = ['{"family":"tabulated","points":[[0,0],[1,0]]}',
                    '{"family":"linear","a":"1e-400"}',
                    '{"family":"log","a":"1e400"}']


@pytest.fixture
def grid9_file(tmp_path):
    p = tmp_path / "grid9.hg"
    p.write_text((resources.files("hypercurv") / "data" / "grid9.hg").read_text())
    return str(p)


@pytest.fixture
def bad_file(tmp_path):
    p = tmp_path / "bad.hg"
    p.write_text("a b c d\nb c\n")
    return str(p)


class TestValidate:
    def test_valid_file(self, grid9_file, capsys):
        assert main(["validate", grid9_file]) == 0
        out = capsys.readouterr().out
        assert "True" in out

    def test_invalid_exits_one(self, bad_file, capsys):
        assert main(["validate", bad_file]) == 1
        assert "violation" in capsys.readouterr().out

    def test_allow_nonsimple(self, bad_file):
        assert main(["validate", bad_file, "--allow-nonsimple"]) == 0

    def test_missing_file(self, capsys):
        assert main(["validate", "no-such-file.hg"]) == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_directory_exits_one(self, tmp_path, capsys):
        assert main(["validate", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: IsADirectory: ")
        assert err.count("\n") == 1

    def test_repeated_label_exits_one(self, tmp_path, capsys):
        p = tmp_path / "repeat.hg"
        p.write_text("a a b\nb c\n")
        assert main(["validate", str(p)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: DuplicateHyperedge: ") and "line 1" in err
        assert err.count("\n") == 1

    def test_binary_file_exits_one(self, tmp_path, capsys):
        p = tmp_path / "binary.hg"
        p.write_bytes(b"a b\n\xff\xfe c\n")
        assert main(["validate", str(p)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: BadParams: ") and str(p) in err
        assert err.count("\n") == 1


class TestDist:
    def test_pair(self, grid9_file, capsys):
        assert main(["dist", grid9_file, "--pair", "x,y"]) == 0
        assert "1" in capsys.readouterr().out


class TestW1:
    def test_row(self, grid9_file, capsys):
        assert main(["w1", grid9_file, "--pair", "x,y",
                     "--alpha", "1/2"]) == 0
        out = capsys.readouterr().out
        assert "3/4" in out  # exact rational value

    def test_all_pairs_csv_pinned(self, grid9_file, capsys):
        # 36 pairs x 4 idleness values, as printed when W1 came from w1's
        # coupling solve on the two measures
        assert main(["w1", grid9_file, "--pairs", "all",
                     "--alpha", "0,1/4,1/2,1", "--format", "csv"]) == 0
        out = capsys.readouterr().out
        assert len(out.splitlines()) == 145
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "f31e236b5dec70fa77edb00ae14f249903e64670f08f0d68a6d73c893bb4b5d8")


class TestWh:
    def test_plan_round_trip(self, grid9_file, capsys):
        code = main(["wh", grid9_file, "--h", LOG1, "--pair", "x,y",
                     "--alpha", "9/10", "--emit-plan", "--max-states", "200"])
        assert code == 0
        rows = json.loads(capsys.readouterr().out)
        row = rows[0]
        H = generate("grid9")
        h = ConcaveCost.from_json(LOG1)
        plan = TransportPlan.from_json(json.dumps(row["plan"]))
        assert plan_cost(H, h, plan) == pytest.approx(float(row["wh"]),
                                                      abs=1e-9)

    def test_states_column_counts_expansions(self, grid9_file, capsys):
        # grid9 x,y under log at 1/4 is exact after 223 expansions; a
        # smaller budget reports the states it expanded, not one more
        for budget, states, status in [(1, 1, "heuristic-upper-bound"),
                                       (5, 5, "heuristic-upper-bound"),
                                       (222, 222, "heuristic-upper-bound"),
                                       (223, 223, "exact"),
                                       (None, 223, "exact")]:
            args = ["wh", grid9_file, "--h", LOG1, "--pair", "x,y",
                    "--alpha", "1/4", "--format", "json"]
            if budget is not None:
                args += ["--max-states", str(budget)]
            assert main(args) == 0
            (row,) = json.loads(capsys.readouterr().out)
            assert (row["states"], row["wh_status"]) == (states, status)

    def test_heuristic(self, grid9_file, capsys):
        # the greedy plan of grid9 x,y under log at 1/4, with no search:
        # its value, h(1) * W1 below it, and a plan that re-validates
        code = main(["wh", grid9_file, "--h", LOG1, "--pair", "x,y",
                     "--alpha", "1/4", "--heuristic", "--emit-plan"])
        assert code == 0
        (row,) = json.loads(capsys.readouterr().out)
        assert (row["wh"], row["wh_status"], row["lower_bound"],
                row["states"]) == ("0.5784946823875035",
                                   "heuristic-upper-bound",
                                   "0.4332169878499658", 0)
        plan = TransportPlan.from_json(json.dumps(row["plan"]))
        assert plan_cost(generate("grid9"), ConcaveCost.from_json(LOG1),
                         plan) == pytest.approx(float(row["wh"]), abs=1e-12)

    def test_alpha_required(self, grid9_file):
        with pytest.raises(SystemExit) as exc:
            main(["wh", grid9_file, "--h", LOG1, "--pair", "x,y"])
        assert exc.value.code == 2

    def test_wrong_value_refused_at_small_scale(self, grid9_file, capsys,
                                                monkeypatch):
        # at a = 1e-12 the values are about 5e-13, so the re-validation
        # must scale with h(1) to see a value 10% off its plan's cost
        def off(*args, **kwargs):
            res = wh_exact(*args, **kwargs)
            return dataclasses.replace(res, value=res.value * 1.1)

        monkeypatch.setattr(cli, "wh_exact", off)
        code = main(["wh", grid9_file, "--h", '{"family":"log","a":"1e-12"}',
                     "--pair", "x,y", "--alpha", "1/2"])
        assert code == 1
        assert "plan failed to re-validate" in capsys.readouterr().err


class TestCurvature:
    def test_formats_agree(self, grid9_file, capsys):
        args = ["curvature", grid9_file, "--h", LOG1, "--pair", "x,y",
                "--alpha", "1/2,3/4", "--max-states", "500"]
        assert main(args + ["--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert main(args + ["--format", "csv"]) == 0
        reader = csv.DictReader(io.StringIO(capsys.readouterr().out))
        csv_rows = list(reader)
        assert len(rows) == len(csv_rows) == 2
        for a, b in zip(rows, csv_rows):
            assert str(a["kappa"]) == b["kappa"]
            assert a["wh"] == b["wh"]
            assert a["kappa_h"] == b["kappa_h"]

    def test_columns(self, grid9_file, capsys):
        assert main(["curvature", grid9_file, "--h", LOG1, "--pair", "x,y",
                     "--alpha", "1/2", "--max-states", "500",
                     "--format", "csv"]) == 0
        header = capsys.readouterr().out.splitlines()[0]
        assert header == "x,y,alpha,d,w1,wh,wh_status,kappa,kappa_h"

    def test_heuristic_row(self, grid9_file, capsys):
        assert main(["curvature", grid9_file, "--h", LOG1, "--pair", "x,y",
                     "--alpha", "1/2", "--heuristic", "--format", "json"]) == 0
        (row,) = json.loads(capsys.readouterr().out)
        H = generate("grid9")
        a = Fraction(1, 2)
        res = wh_heuristic(H, ConcaveCost.from_json(LOG1),
                           lazy_random_walk(H, "x", a),
                           lazy_random_walk(H, "y", a))
        assert row["wh"] == repr(res.value)
        assert row["wh_status"] == "heuristic-upper-bound"
        assert row["kappa"] == str(orc_alpha(H, "x", "y", a))


class TestLimit:
    def test_lly_only(self, tmp_path, capsys):
        p = tmp_path / "c6.hg"
        p.write_text("\n".join(f"v{i} v{(i + 1) % 6}" for i in range(6)))
        assert main(["limit", str(p), "--pair", "v0,v1",
                     "--format", "csv"]) == 0
        assert capsys.readouterr().out.splitlines() == ["x,y,lly", "v0,v1,0"]

    def test_with_h(self, tmp_path, capsys):
        p = tmp_path / "k3.hg"
        p.write_text("a b\nb c\na c\n")
        assert main(["limit", str(p), "--pair", "a,b", "--h", LOG1]) == 0
        out = capsys.readouterr().out
        assert "hlly_estimate" in out


class TestBounds:
    def test_spec_example(self, capsys):
        assert main(["bounds", "--h", LIN1, "--kappa", "3/2",
                     "--max-degree", "2"]) == 0
        out = capsys.readouterr().out
        assert "diam <= 1" in out and "|V| <= 3" in out

    def test_bad_kappa_exits_one(self, capsys):
        assert main(["bounds", "--h", LIN1, "--kappa", "-1"]) == 1
        assert "NonpositiveKappa" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["--kappa", "1/1000"], ["--catalog", "line_ends", "--d", "2000"]],
        ids=["given", "catalog"])
    def test_vertex_bound_beyond_floats_exits_one(self, capsys, argv):
        # max_degree ** j overflows a float: one error line, no traceback
        assert main(["bounds", "--h", LOG1, "--max-degree", "3"] + argv) == 1
        err = capsys.readouterr().err
        assert err == ("error: BadParams: vertex-count bound outside the "
                       "range of floats\n")

    def test_chained_from_catalog(self, capsys):
        assert main(["bounds", "--h", LOG1, "--catalog", "complete",
                     "--n", "3", "--max-degree", "2"]) == 0
        out = capsys.readouterr().out
        assert "catalog-closed-form" in out and "diam <= 1" in out

    def test_flat_end_table(self, capsys):
        # h'(1) = 0 at a breakpoint 2^-25 below 1: the bound is vacuous
        spec = json.dumps({"family": "tabulated", "points": [
            [0, 0], [str(1 - Fraction(1, 2 ** 25)), 1], [1, 1]]})
        with pytest.warns(Hp1ZeroWarning):
            assert main(["bounds", "--h", spec, "--kappa", "1/2",
                         "--max-degree", "3"]) == 0
        assert "diam <= 0, |V| <= 1" in capsys.readouterr().out

    def test_power_cycle_three(self, capsys):
        # the 3-cycle is K3, whose limit needs no h'(0)
        assert main(["bounds", "--h", '{"family":"power","a":"1/2"}',
                     "--catalog", "cycle", "--n", "3"]) == 0
        assert "diam <= 1" in capsys.readouterr().out

    def test_chained_from_hlly(self, tmp_path, capsys):
        p = tmp_path / "k3.hg"
        p.write_text("a b\nb c\na c\n")
        assert main(["bounds", "--h", LOG1, "--file", str(p),
                     "--max-degree", "2"]) == 0
        out = capsys.readouterr().out
        assert "hlly-estimate" in out


class TestCatalogVerify:
    def test_complete_passes(self, capsys):
        assert main(["catalog", "verify", "--family", "complete", "--n", "4",
                     "--h", LIN1]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out

    def test_cycle_five_passes_with_corrected_oracle(self, capsys):
        assert main(["catalog", "verify", "--family", "cycle", "--n", "5",
                     "--h", LOG1]) == 0

    def test_line_family(self, capsys):
        assert main(["catalog", "verify", "--family", "line_both_next",
                     "--d", "2", "--h", LOG1]) == 0


class TestErrors:
    @pytest.mark.parametrize("spec", [
        '{bad', '{"family":"log"}',
        '{"family":"tabulated","points":[[0,0],["1/2",NaN],[1,1]]}',
        *DEGENERATE_SPECS])
    def test_bad_cost_spec_exits_one(self, grid9_file, capsys, spec):
        assert main(["curvature", grid9_file, "--h", spec, "--pair", "x,y",
                     "--alpha", "1/2"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: BadParams: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("spec", [
        '{"family":"tabulated","points":[[0,0],["1/2",1e308],[1,1e308]]}',
        '{"family":"tabulated","points":[[0,0],["1/%d",1],[1,1]]}'
        % 10 ** 400,
        '{"family":"tabulated","points":[[0,0],["1/%d",0.5],["2/%d",0.7],'
        '[1,1]]}' % (10 ** 400, 10 ** 400)],
        ids=["steep_end", "tiny_breakpoint", "tiny_segments"])
    def test_slope_beyond_floats_exits_one(self, grid9_file, capsys, spec):
        # an end slope no float holds is a bad spec, not a traceback
        assert main(["curvature", grid9_file, "--h", spec, "--pair", "x,y",
                     "--alpha", "1/2"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: BadParams: ")
        assert "slope outside the range of floats" in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("spec", DEGENERATE_SPECS)
    @pytest.mark.parametrize("argv", [
        ["limit", "FILE", "--pair", "x,y"],
        ["catalog", "verify", "--family", "complete", "--n", "3"]])
    def test_degenerate_cost_exits_one(self, grid9_file, capsys, argv, spec):
        argv = [grid9_file if a == "FILE" else a for a in argv]
        assert main(argv + ["--h", spec]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: BadParams: ")
        assert err.count("\n") == 1

    def test_kink_below_float_resolution_exits_one(self, grid9_file, capsys):
        spec = ('{"family":"tabulated","points":[[0,0],["1/%d",0],'
                '["1/2",0.9],[1,1]]}' % 10 ** 400)
        assert main(["curvature", grid9_file, "--h", spec, "--pair", "x,y",
                     "--alpha", "1/2"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: NotConcave: ")
        assert err.count("\n") == 1

    def test_non_monotone_tabulated_exits_one(self, grid9_file, capsys):
        spec = ('{"family":"tabulated",'
                '"points":[[0,0],["511/512",1.0],[1,0.999]]}')
        assert main(["curvature", grid9_file, "--h", spec, "--pair", "x,y",
                     "--alpha", "1/2"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: NotConcave: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("command", ["w1", "wh", "curvature"])
    @pytest.mark.parametrize("alpha", [[], ["--alpha", ","]])
    def test_missing_alpha_exits_two(self, grid9_file, command, alpha):
        cost = [] if command == "w1" else ["--h", LOG1]
        with pytest.raises(SystemExit) as exc:
            main([command, grid9_file, "--pair", "x,y"] + cost + alpha)
        assert exc.value.code == 2

    @pytest.mark.parametrize("extra", [
        ["--pair", "x"], ["--pair", "x,y,z"], ["--pair", "x,y", "--refine", "1"],
        ["--pair", "x,y", "--max-states", "0"],
        ["--pair", "x,y", "--heuristic", "--max-states", "5"],
        ["--pair", "x,y", "--heuristic", "--unpruned"],
        ["--pair", "x,y", "--alpha", "1/0"]])  # not a rational
    def test_usage_errors_exit_two(self, grid9_file, extra):
        with pytest.raises(SystemExit) as exc:
            main(["curvature", grid9_file, "--h", LOG1, "--alpha", "1/2"]
                 + extra)
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["sweep", "FILE", "--h", LOG1, "--pair", "x,y", "--grid", "0"],
        ["sweep", "FILE", "--h", LOG1, "--pair", "x,y", "--grid", "-1"],
        ["bounds", "--h", LOG1, "--kappa", "1/2", "--max-degree", "-3"],
        ["bounds", "--h", LOG1, "--kappa", "1/2", "--max-degree", "0"],
        ["selfcheck", "--trials", "-2"],
        ["selfcheck", "--trials", "0"]])
    def test_bad_counts_exit_two(self, grid9_file, argv):
        with pytest.raises(SystemExit) as exc:
            main([grid9_file if a == "FILE" else a for a in argv])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["wh", "--alpha", "1/2", "--heuristic", "--max-states", "2"],
        ["limit", "--heuristic"]])
    def test_heuristic_misuse_exits_two(self, grid9_file, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv[:1] + [grid9_file, "--h", LOG1, "--pair", "x,y"]
                 + argv[1:])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["catalog", "verify", "--family", "complete"],
        ["catalog", "verify", "--family", "complete", "--n", "3", "--d", "2"],
        ["bounds", "--catalog", "complete"],
        ["bounds", "--catalog", "complete", "--n", "3", "--d", "2"],
        ["bounds", "--kappa", "1", "--n", "3"]])
    def test_catalog_size_misuse_exits_two(self, argv):
        # --n/--d: exactly one with a catalog entry, neither without one
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--h", LOG1])
        assert exc.value.code == 2


class TestSweep:
    def test_grid_rows(self, tmp_path, capsys):
        p = tmp_path / "k3.hg"
        p.write_text("a b\nb c\na c\n")
        assert main(["sweep", str(p), "--h", LOG1, "--pair", "a,b",
                     "--grid", "4", "--format", "csv"]) == 0
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert len(rows) == 5
        assert [r["alpha"] for r in rows] == ["0", "1/4", "1/2", "3/4", "1"]


class TestSelfcheck:
    def test_seeded(self, capsys):
        assert main(["selfcheck", "--seed", "3", "--trials", "5"]) == 0
        assert "5/5" in capsys.readouterr().out

    def test_readme_example_scale_invariant(self, capsys):
        # every trial also solves under log at a = 1e-12 (trials 11, 19
        # and 23 of this run need the search to scale its slacks with h(1))
        assert main(["selfcheck", "--seed", "7", "--trials", "25"]) == 0
        assert "25/25" in capsys.readouterr().out
