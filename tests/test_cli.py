"""Command-line contract: subcommands, exit codes, determinism, formats."""

import json
import math

import pytest

from ifslab import cli
from ifslab.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


class TestDim:
    def test_basic_run(self, capsys):
        doc = run_json(capsys, "dim", "--t", "1", "--levels", "1,2")
        assert doc["schema"] == "ifslab/1"
        assert doc["command"] == "dim"
        assert doc["config"]["t"] == "1"
        rows = doc["result"]["levels"]
        assert rows[0]["level"] == 1
        assert abs(rows[0]["d_n"] - 0.7924812503605781) < 1e-9
        assert rows[0]["gamma2"] == "1/4"
        assert "wall_time_ms" in doc

    def test_subsystem_report(self, capsys):
        doc = run_json(capsys, "dim", "--t", "1", "--levels", "1", "--subsystem", "full:2")
        sub = doc["result"]["subsystem"]
        assert sub["lower_bound_holds"] and sub["upper_bound_holds"]

    def test_zero_parameter_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["dim", "--t", "0"])
        assert exc.value.code == 2
        assert "positive" in capsys.readouterr().err

    def test_bad_subsystem_spec(self, capsys):
        code, _, _ = run(capsys, "dim", "--t", "1", "--subsystem", "bogus")
        assert code == 2

    def test_csv_format(self, capsys):
        code, out, _ = run(capsys, "dim", "--t", "1", "--levels", "1,2", "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("level,d_n,residual,bracket_lo,bracket_hi")
        assert len(lines) == 3


class TestUsageErrors:
    def test_unknown_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_missing_required_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["dim"])
        assert exc.value.code == 2

    def test_bad_rational(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["dim", "--t", "one"])
        assert exc.value.code == 2
        assert "rational" in capsys.readouterr().err

    def test_csv_unsupported_for_freeness(self, capsys):
        code, _, err = run(capsys, "freeness", "--t", "1", "--depth", "2", "--samples", "5", "--format", "csv")
        assert code == 2
        assert "CSV" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("separation", "--t", "1", "--n", "6"),
            ("freeness", "--t", "1", "--depth", "9"),
            ("lemmas", "--lemma", "2", "--k", "7"),
        ],
    )
    def test_csv_rejected_before_the_handler_runs(self, capsys, monkeypatch, argv):
        def handler_must_not_run(args):
            raise AssertionError(f"{args.command} handler ran")

        monkeypatch.setattr(cli, f"cmd_{argv[0]}", handler_must_not_run)
        code, out, err = run(capsys, *argv, "--format", "csv")
        assert code == 2
        assert err == f"ifslab: error: subcommand {argv[0]!r} has no CSV representation; use --format json\n"
        assert out == ""

    def test_freeness_depth_zero_checks_nothing(self, capsys):
        code, out, err = run(capsys, "freeness", "--t", "1", "--depth", "0")
        assert code == 2
        assert "depth must be >= 1" in err
        assert out == ""

    @pytest.mark.parametrize("command", [("dim",), ("pressure", "--s", "0.5")])
    @pytest.mark.parametrize("levels", [",", ",,", ""])
    def test_empty_level_list_exits_two(self, capsys, command, levels):
        code, out, err = run(capsys, *command, "--t", "1", "--levels", levels)
        assert code == 2
        assert "--levels needs at least one level" in err
        assert out == ""

    def test_level_cap_respected(self, capsys, monkeypatch):
        monkeypatch.setenv("IFSLAB_MAX_LEVEL", "3")
        code, _, err = run(capsys, "dim", "--t", "1", "--levels", "4")
        assert code == 2
        assert "cap" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("lemmas", "--lemma", "4", "--k", "6"),
            ("lemmas", "--lemma", "2", "--k", "6"),
            ("lemmas", "--lemma", "cert", "--n", "7", "--grid", "1,2"),
            ("attractor", "--t", "1", "--levels", "2,3", "--search-common", "7:2:3:1/2"),
        ],
    )
    def test_level_cap_bounds_every_enumeration(self, capsys, monkeypatch, argv):
        monkeypatch.setenv("IFSLAB_MAX_LEVEL", "3")
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert "cap" in err
        assert out == ""

    @pytest.mark.parametrize("variant", ["sesc", "diophantine", "both"])
    def test_separation_needs_two_words(self, capsys, variant):
        code, out, err = run(capsys, "separation", "--t", "1", "--n", "0", "--variant", variant)
        assert code == 2
        assert "two words" in err
        assert out == ""

    def test_common_disjoint_grid_is_bounded(self, capsys):
        # About 10^12 grid points: rejected before any of them is built.
        code, out, err = run(capsys, "attractor", "--t", "1", "--search-common", "3:1:1000:1/1000000000")
        assert code == 2
        assert "points" in err
        assert out == ""

    @pytest.mark.parametrize("grid", [",", ",,"])
    def test_certificate_rejects_an_empty_parsed_grid(self, capsys, grid):
        code, out, err = run(capsys, "lemmas", "--lemma", "cert", "--n", "3", "--grid", grid)
        assert code == 2
        assert "--grid" in err
        assert out == ""

    @pytest.mark.parametrize("probes", ["", ","])
    def test_separation_rejects_an_empty_parsed_probe_set(self, capsys, probes):
        code, out, err = run(capsys, "separation", "--t", "1", "--n", "2", "--variant", "sesc", "--probes", probes)
        assert code == 2
        assert "probe set must be nonempty" in err
        assert out == ""

    def test_certificate_rejects_a_zero_grid_value(self, capsys):
        code, out, err = run(capsys, "lemmas", "--lemma", "cert", "--n", "3", "--grid", "0,1")
        assert code == 2
        assert "positive" in err
        assert out == ""


def must_not_run(*_args, **_kwargs):
    raise AssertionError("the computation ran before the input was rejected")


class TestRejectedBeforeWork:
    """Bad inputs exit 2 before any expensive computation: the computation is patched to fail if called."""

    @pytest.fixture(autouse=True)
    def small_level_cap(self, monkeypatch):
        monkeypatch.setenv("IFSLAB_MAX_LEVEL", "4")

    @pytest.mark.parametrize(
        "flags, message",
        [
            (("--depth", "0"), "search depth must be >= 1, got 0"),
            (("--depth", "-2"), "search depth must be >= 1, got -2"),
            (("--depth", "5"), "level 5 exceeds the enumeration cap 4"),
        ],
    )
    def test_freeness_depth_checked_before_the_residue_sampling(self, capsys, monkeypatch, flags, message):
        monkeypatch.setattr(cli.separation, "residue_freeness_check", must_not_run)
        code, out, err = run(capsys, "freeness", "--t", "1", "--samples", "20000", *flags)
        assert code == 2
        assert message in err
        assert out == ""

    @pytest.mark.parametrize(
        "flags, message",
        [
            (("--samples", "0"), "sample_count must be >= 1"),
            (("--samples", "100001"), "sample_count must be >= 1 and <= 100000, got 100001"),
            (("--max-len", "0"), "max_len must be >= 1"),
            (("--max-len", "1001"), "max_len must be >= 1 and <= 1000, got 1001"),
        ],
    )
    def test_freeness_sampling_checked_before_the_searches(self, capsys, monkeypatch, flags, message):
        monkeypatch.setattr(cli.separation, "exact_overlap_search", must_not_run)
        monkeypatch.setattr(cli.separation, "relation_search_ABC", must_not_run)
        code, out, err = run(capsys, "freeness", "--t", "1", "--depth", "4", *flags)
        assert code == 2
        assert message in err
        assert out == ""

    @pytest.mark.parametrize(
        "command, walk",
        [
            (("dim",), (cli.pressure, "level_report")),
            (("pressure", "--s", "0.5"), (cli.pressure, "pressure_estimate")),
            (("attractor",), (cli.geometry, "_level_cylinders")),
        ],
    )
    @pytest.mark.parametrize(
        "levels, message", [("2,0", "must be >= 1"), ("2,-1", "must be >= 1"), ("2,5", "level 5 exceeds the enumeration cap 4")]
    )
    def test_every_level_checked_before_the_first_walk(self, capsys, monkeypatch, command, walk, levels, message):
        monkeypatch.setattr(*walk, must_not_run)
        code, out, err = run(capsys, *command, "--t", "1", "--levels", levels)
        assert code == 2
        assert message in err
        assert out == ""

    @pytest.mark.parametrize(
        "cap, spec, levels, words",
        [("12", "full:4", "2,5", "65^5"), ("12", "tilde:12", "2,3", "4095^3"), ("4", "full:2", "2,3", "5^3")],
    )
    def test_subsystem_walk_width_checked_before_the_first_walk(self, capsys, monkeypatch, cap, spec, levels, words):
        # Every level is within the cap; the deepest walk would visit more than 3^cap words.
        monkeypatch.setenv("IFSLAB_MAX_LEVEL", cap)
        monkeypatch.setattr(cli.geometry, "_level_cylinders", must_not_run)
        code, out, err = run(capsys, "attractor", "--t", "1", "--subsystem", spec, "--levels", levels)
        assert code == 2
        assert f"visits {words} words, over the cap 3^" in err
        assert out == ""

    @pytest.mark.parametrize(
        "spec, words", [("full:9", "19171^3"), ("full:11", "175099^3"), ("tilde:12", "4095^3")]
    )
    def test_subsystem_word_budget_checked_before_the_build(self, capsys, monkeypatch, spec, words):
        monkeypatch.setenv("IFSLAB_MAX_LEVEL", "12")
        monkeypatch.setattr(cli, "build_subsystem", must_not_run)
        code, out, err = run(capsys, "attractor", "--t", "1", "--subsystem", spec, "--levels", "2,3")
        assert code == 2
        assert f"visits {words} words, over the cap 3^12" in err
        assert out == ""

    @pytest.mark.parametrize(
        "argv, checks",
        [
            (("lemmas", "--lemma", "cert", "--n", "12", "--grid", "1"), "4095 words at 1 grid points make 8382465"),
            (("lemmas", "--lemma", "cert", "--n", "9", "--grid", "1,2"), "511 words at 2 grid points make 260610"),
            (("attractor", "--t", "1", "--levels", "2,3", "--search-common", "9:1:2:1/4096"), "511 words at 4097 grid"),
            (("attractor", "--t", "1", "--levels", "2,3", "--search-common", "5:1:2:1/512"), "31 words at 513 grid"),
        ],
    )
    def test_pair_budget_checked_before_the_maps(self, capsys, monkeypatch, argv, checks):
        monkeypatch.setenv("IFSLAB_MAX_LEVEL", "12")
        monkeypatch.setattr(cli.geometry, "prefix_maps", must_not_run)
        monkeypatch.setattr(cli.geometry, "box_counting", must_not_run)
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert f"{checks}" in err and "pair checks; at most 131072 are allowed" in err
        assert out == ""

    @pytest.mark.parametrize(
        "levels, message", [("3", "need at least two levels"), ("0,3", "levels must be >= 1"), ("2,13", "level 13 exceeds")]
    )
    def test_box_levels_checked_before_the_build(self, capsys, monkeypatch, levels, message):
        monkeypatch.setattr(cli, "build_subsystem", must_not_run)
        code, out, err = run(capsys, "attractor", "--t", "1", "--subsystem", "tilde:3", "--levels", levels)
        assert code == 2
        assert message in err
        assert out == ""

    @pytest.mark.parametrize("resolution", [f"1/{2**10000}", f"1/{2**64 + 1}"], ids=["2^10000", "2^64+1"])
    def test_lemma3_ratio_checked_before_the_first_probe(self, capsys, monkeypatch, resolution):
        monkeypatch.setattr(cli.geometry, "_pair_gap", must_not_run)
        argv = ("lemmas", "--lemma", "3", "--v", "1", "--w", "2", "--t-max", "1", "--resolution", resolution)
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert "t_max / resolution must be at most 2^64" in err
        assert out == ""

    @pytest.mark.parametrize("s", ["auto", "0.5"])
    @pytest.mark.parametrize("q", [",", ""])
    def test_empty_moment_orders_rejected(self, capsys, monkeypatch, s, q):
        monkeypatch.setattr(cli.pressure, "solve_level_dimension", must_not_run)
        monkeypatch.setattr(cli.geometry, "_level_cylinders", must_not_run)
        code, out, err = run(capsys, "measure", "--t", "1", "--n", "3", "--s", s, "--q", q)
        assert code == 2
        assert "need at least one moment order" in err
        assert out == ""

    @pytest.mark.parametrize(
        "q, message", [("nan", "moment order must be finite, got nan"), ("2,x", "could not convert string to float")]
    )
    def test_moment_orders_checked_before_the_exponent_solve(self, capsys, monkeypatch, q, message):
        monkeypatch.setattr(cli.pressure, "solve_level_dimension", must_not_run)
        code, out, err = run(capsys, "measure", "--t", "1", "--n", "3", "--s", "auto", "--q", q)
        assert code == 2
        assert message in err
        assert out == ""

    @pytest.mark.parametrize(
        "spec, message",
        [
            ("bogus", "subsystem spec must look like full:4 or tilde:3"),
            ("tilde:3", "dimension reports cover full:<N> subsystems"),
            ("full:0", "subsystem level must be >= 1"),
            ("full:3", "level 6 exceeds the enumeration cap 4"),  # the report also solves level 2N
        ],
    )
    def test_dim_subsystem_checked_before_the_walks(self, capsys, monkeypatch, spec, message):
        monkeypatch.setattr(cli.pressure, "level_report", must_not_run)
        code, out, err = run(capsys, "dim", "--t", "1", "--levels", "3", "--subsystem", spec)
        assert code == 2
        assert message in err
        assert out == ""

    @pytest.mark.parametrize(
        "search, message",
        [
            ("3:2:4", "--search-common expects n:t_lo:t_hi:resolution"),
            ("x:2:4:1", "invalid literal for int()"),
            ("3:0:4:1", "parameter must be positive, got '0'"),
        ],
    )
    def test_search_common_parsed_before_box_counting(self, capsys, monkeypatch, search, message):
        monkeypatch.setattr(cli.geometry, "box_counting", must_not_run)
        code, out, err = run(capsys, "attractor", "--t", "1", "--levels", "2,3", "--search-common", search)
        assert code == 2
        assert message in err
        assert out == ""

    @pytest.mark.parametrize(
        "search, message",
        [
            ("3:1:1000:1/1000000000", "the grid would have 999000000001 points; at most 10000 are allowed"),
            ("5:2:4:1", "level 5 exceeds the enumeration cap 4"),
            ("1:2:4:1", "level must be >= 2"),
            ("3:4:2:1", "need 0 < t_lo <= t_hi"),
        ],
    )
    def test_search_common_range_checked_before_box_counting(self, capsys, monkeypatch, search, message):
        monkeypatch.setattr(cli.geometry, "box_counting", must_not_run)
        code, out, err = run(capsys, "attractor", "--t", "1", "--levels", "2,3", "--search-common", search)
        assert code == 2
        assert message in err
        assert out == ""


class TestSubcommands:
    def test_pressure(self, capsys):
        doc = run_json(capsys, "pressure", "--t", "1", "--levels", "1,2", "--s", "0")
        rows = doc["result"]["pressure"]
        assert all(abs(r["value"] - 1.0986122886681098) < 1e-12 for r in rows)

    def test_separation(self, capsys):
        doc = run_json(capsys, "separation", "--t", "1", "--n", "2", "--variant", "both")
        assert doc["result"]["sesc"]["metric_variant"] == "POINTWISE_ON_X"
        assert doc["result"]["diophantine_strong"]["strong"] is True
        delta = doc["result"]["diophantine_strong"]["delta"]
        assert "/" in delta or delta.isdigit()

    def test_freeness(self, capsys):
        doc = run_json(capsys, "freeness", "--t", "1", "--depth", "3", "--samples", "25", "--max-len", "8")
        result = doc["result"]
        assert result["conjugacy_ok"] is True
        assert result["residues_ok"] is True
        assert result["overlaps"]["pairs"] == []
        assert result["relations"]["pairs"] == []

    def test_lemmas_all(self, capsys):
        doc = run_json(capsys, "lemmas", "--lemma", "all", "--k", "2", "--t", "29/10")
        assert doc["result"]["lemma2"]["ok"] is True
        assert doc["result"]["lemma4"]["ok"] is True
        assert doc["result"]["lemma4_extremal_threshold"] == "16/5"

    def test_lemmas_threshold_search(self, capsys):
        doc = run_json(capsys, "lemmas", "--lemma", "3", "--v", "1", "--w", "2", "--t-max", "8", "--resolution", "1/32")
        assert doc["result"]["lemma3"]["found"] is True

    def test_lemmas_threshold_needs_pair(self, capsys):
        code, _, _ = run(capsys, "lemmas", "--lemma", "3")
        assert code == 2

    def test_lemmas_certificate(self, capsys):
        doc = run_json(capsys, "lemmas", "--lemma", "cert", "--n", "2", "--grid", "1,2")
        assert doc["result"]["certificate"]["complete"] is True

    def test_attractor_with_search(self, capsys):
        doc = run_json(
            capsys, "attractor", "--t", "1", "--levels", "2,3,4", "--search-common", "2:1:1:1"
        )
        assert doc["result"]["box_counting"]["counts"] == [9, 20, 48]
        assert doc["result"]["common_disjoint"]["found"] is True

    def test_attractor_csv(self, capsys):
        code, out, _ = run(capsys, "attractor", "--t", "1", "--levels", "2,3", "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "epsilon,count"
        assert lines[-1].startswith("slope,")

    def test_attractor_subsystem(self, capsys):
        doc = run_json(capsys, "attractor", "--t", "3", "--subsystem", "tilde:2", "--levels", "2,3")
        assert doc["result"]["box_counting"]["counts"][0] > 0

    def test_measure_auto_exponent(self, capsys):
        doc = run_json(capsys, "measure", "--t", "1", "--n", "4", "--s", "auto")
        measure = doc["result"]["measure"]
        assert measure["zero_cylinder_count"] == 16
        assert measure["cylinder_count"] == 81
        assert 0 < doc["result"]["exponent"] < 1

    def test_measure_csv(self, capsys):
        code, out, _ = run(capsys, "measure", "--t", "1", "--n", "3", "--s", "0.7", "--format", "csv")
        assert code == 0
        assert out.splitlines()[0].startswith("level,s,cylinders")


class TestNonFiniteInputs:
    @pytest.mark.parametrize(
        "argv",
        [
            ("dim", "--t", "1", "--levels", "2", "--tol", "nan"),
            ("dim", "--t", "1", "--levels", "2", "--tol", "inf"),
            ("measure", "--t", "1", "--n", "3", "--s", "auto", "--tol", "inf"),
            ("measure", "--t", "1", "--n", "3", "--s", "auto", "--tol", "nan"),
        ],
    )
    def test_non_finite_tolerance_exits_two(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert "tolerance" in err
        assert out == ""

    @pytest.mark.parametrize("s", ["nan", "inf"])
    def test_non_finite_pressure_exponent_exits_two(self, capsys, s):
        code, out, err = run(capsys, "pressure", "--t", "1", "--levels", "1", "--s", s)
        assert code == 2
        assert "exponent" in err
        assert out == ""

    @pytest.mark.parametrize("q", ["nan", "inf", "2,-inf"])
    def test_non_finite_moment_order_exits_two(self, capsys, q):
        code, out, err = run(capsys, "measure", "--t", "1", "--n", "3", "--s", "0.5", "--q", q)
        assert code == 2
        assert "moment order must be finite" in err
        assert out == ""

    @pytest.mark.parametrize(
        "argv, quantity",
        [
            (("measure", "--t", "1", "--n", "3", "--s", "0.5", "--q", "-400"), "the moment sum at q = -400.0 overflows a float"),
            (("measure", "--t", "1e400", "--n", "2", "--s", "auto"), "a level-2 cylinder length overflows a float"),
            (("separation", "--t", "1e400", "--n", "1", "--variant", "sesc"), "the separation delta at level 1 overflows a float"),
            (("pressure", "--t", "1", "--levels", "1", "--s", "1.7e308"), "the log partition sum at s = 1.7e+308 overflows a float"),
        ],
    )
    def test_float_overflow_exits_two(self, capsys, argv, quantity):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert quantity in err
        assert out == ""

    @pytest.mark.parametrize("s", ["1e6", "600", "1e300"])
    def test_pressure_at_a_large_exponent_is_finite(self, capsys, s):
        # Every float power 4^-s underflows; S_1(s) = 3 * 4^-s at t = 1, so the estimate is log 3 - s log 4.
        [row] = run_json(capsys, "pressure", "--t", "1", "--levels", "1", "--s", s)["result"]["pressure"]
        assert row["value"] == pytest.approx(math.log(3) - float(s) * math.log(4), rel=1e-15)

    @pytest.mark.parametrize("samples", ["0", "-3"])
    def test_freeness_needs_a_sample(self, capsys, samples):
        code, out, err = run(capsys, "freeness", "--t", "1", "--depth", "1", "--samples", samples)
        assert code == 2
        assert "sample_count" in err
        assert out == ""


COMMON_ECHO = {"format": "json", "out": None, "seed": 0, "threads": 1, "tol": 1e-12, "max_level": 12}

# Each subcommand's cheap run (apart from --t) and the own flags its config must echo, in order.
CONFIG_CASES = {
    "dim": (("--levels", "1"), {"t": "1/2", "levels": "1", "subsystem": None}),
    "pressure": (("--levels", "1", "--s", "0.5"), {"t": "1/2", "levels": "1", "s": "0.5"}),
    "separation": (("--n", "1"), {"t": "1/2", "n": 1, "variant": "both", "probes": None}),
    "freeness": (
        ("--depth", "1", "--samples", "1", "--max-len", "1"),
        {"t": "1/2", "depth": 1, "samples": 1, "max_len": 1},
    ),
    "lemmas": (
        ("--lemma", "4", "--k", "1"),
        {
            "lemma": "4", "t": "1/2", "k": 1, "n": 3, "grid": None,
            "v": None, "w": None, "t_max": "64", "resolution": "1/64",
        },
    ),
    "attractor": (("--levels", "2,3"), {"t": "1/2", "levels": "2,3", "subsystem": None, "search_common": None}),
    "measure": (("--n", "2", "--s", "0.5"), {"t": "1/2", "n": 2, "s": "0.5", "q": "2,3"}),
}


# The run settings a subcommand declares a flag for, each with a value other than its default.
DECLARED_SETTINGS = {"dim": {"tol": 1e-9}, "freeness": {"seed": 5}, "measure": {"tol": 1e-9}}
# Every run-setting flag on each subcommand that does not declare it.
UNDECLARED_SETTINGS = [
    (command, name)
    for command in CONFIG_CASES
    for name in ("seed", "threads", "tol")
    if name not in DECLARED_SETTINGS.get(command, {})
]


def flag_pairs(flags):
    return [flags[i : i + 2] for i in range(0, len(flags), 2)]


class TestConfigEcho:
    @pytest.fixture(autouse=True)
    def default_level_cap(self, monkeypatch):
        monkeypatch.delenv("IFSLAB_MAX_LEVEL", raising=False)

    @pytest.mark.parametrize("t_text", ["2/4", "0.5"])
    @pytest.mark.parametrize("command", list(CONFIG_CASES))
    def test_exact_keys_order_and_values(self, capsys, command, t_text):
        flags, own = CONFIG_CASES[command]
        doc = run_json(capsys, command, "--t", t_text, *flags)
        assert list(doc["config"].items()) == list({**own, **COMMON_ECHO}.items())

    @pytest.mark.parametrize("command", list(CONFIG_CASES))
    def test_echo_ignores_the_order_flags_are_typed(self, capsys, command):
        flags, own = CONFIG_CASES[command]
        settings = DECLARED_SETTINGS.get(command, {})
        pairs = [("--t", "2/4"), *flag_pairs(flags), *((f"--{name}", str(value)) for name, value in settings.items())]
        forward = run_json(capsys, command, *[x for pair in pairs for x in pair])["config"]
        backward = run_json(capsys, command, *[x for pair in reversed(pairs) for x in pair])["config"]
        assert json.dumps(forward) == json.dumps(backward)
        assert list(forward) == [*own, *COMMON_ECHO]
        assert {name: forward[name] for name in settings} == settings

    @pytest.mark.parametrize("command, name", UNDECLARED_SETTINGS)
    def test_undeclared_setting_exits_two(self, capsys, command, name):
        flags, _ = CONFIG_CASES[command]
        with pytest.raises(SystemExit) as exc:
            main([command, "--t", "1", *flags, f"--{name}", str(COMMON_ECHO[name])])
        assert exc.value.code == 2
        assert f"unrecognized arguments: --{name}" in capsys.readouterr().err

    def test_lemma_three_rejects_a_non_rational_t(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["lemmas", "--lemma", "3", "--t", "abc", "--v", "1", "--w", "2"])
        assert exc.value.code == 2
        assert "argument --t: not a rational number: 'abc'" in capsys.readouterr().err

    def test_out_path_and_level_cap_echoed(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setenv("IFSLAB_MAX_LEVEL", "5")
        target = tmp_path / "dim.json"
        assert main(["dim", "--t", "1", "--levels", "1", "--out", str(target)]) == 0
        config = json.loads(target.read_text())["config"]
        assert config["out"] == str(target)
        assert config["max_level"] == 5


class TestPropertyViolationExit:
    def test_residue_violation_exits_three(self, capsys, monkeypatch):
        import ifslab.cli as cli
        import ifslab.separation as separation_module

        broken = separation_module.ResidueCheck(
            x_word="E", y_word="F", xe_bottom_left=1, yf_bottom_left=2,
            xe_residue=1, yf_residue=2, shape_ok=True,
        )
        monkeypatch.setattr(cli.separation, "residue_freeness_check", lambda *a, **k: [broken])
        code, _, err = run(capsys, "freeness", "--t", "1", "--depth", "2", "--samples", "1")
        assert code == 3
        assert "residue" in err


class TestOutputContract:
    def test_determinism_up_to_wall_time(self, capsys):
        docs = []
        for _ in range(2):
            docs.append(run_json(capsys, "freeness", "--t", "1", "--depth", "2", "--samples", "10", "--seed", "42"))
        for doc in docs:
            doc.pop("wall_time_ms")
        assert json.dumps(docs[0], sort_keys=True) == json.dumps(docs[1], sort_keys=True)

    def test_out_flag_writes_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run(capsys, "dim", "--t", "1", "--levels", "1", "--out", str(target))
        assert code == 0
        assert out == ""
        doc = json.loads(target.read_text())
        assert doc["schema"] == "ifslab/1"

    def test_config_embedded_and_resolved(self, capsys):
        doc = run_json(capsys, "measure", "--t", "2/3", "--n", "3", "--s", "0.6")
        config = doc["config"]
        assert config["t"] == "2/3"
        assert config["seed"] == 0 and config["threads"] == 1
        assert config["tol"] == 1e-12

    def test_rationals_serialized_as_strings(self, capsys):
        doc = run_json(capsys, "separation", "--t", "1", "--n", "1", "--variant", "sesc", "--probes", "2/3")
        assert doc["result"]["sesc"]["delta"] == "1/15"
