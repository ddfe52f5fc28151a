"""Command-line surface: outputs, exit codes, report determinism."""

import io
import contextlib
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from imcrystal import cli
from imcrystal.cli import (
    EXIT_DOMAIN,
    EXIT_PARSE,
    EXIT_PASS,
    EXIT_VERIFY_FAIL,
    main,
    run_suite,
)
from imcrystal.qalgebra import MAX_NESTING, Element, parse_element


def run(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue().strip(), err.getvalue().strip()


class TestNormalize:
    def test_serre_instance(self):
        code, out, _ = run("normalize", "x[0]*x[1]")
        assert code == EXIT_PASS and out == "q^2*x[1]x[0]"

    def test_already_normal(self):
        code, out, _ = run("normalize", "x[1]x[0]")
        assert code == EXIT_PASS and out == "x[1]x[0]"

    def test_gap_rewrite(self):
        code, out, _ = run("normalize", "x[0]*x[2]")
        assert code == EXIT_PASS and out == "q^2*x[2]x[0] + (-1+q^2)*x[1]x[1]"

    def test_round_trip(self):
        _, out, _ = run("normalize", "x[0]*x[2] + [2]*x[1] - 3/2")
        assert parse_element(out) == parse_element("x[0]*x[2] + [2]*x[1] - 3/2")

    def test_parse_error_exit_2(self):
        code, _, err = run("normalize", "x[0]*?")
        assert code == EXIT_PARSE and "position" in err

    def test_non_decimal_digit_is_parse_error(self):
        # '²' is a digit to str.isdigit but not a decimal digit, so int()
        # rejects it: the tokenizer must reject it first
        code, out, err = run("normalize", "x[²]")
        assert code == EXIT_PARSE and out == ""
        assert err == "parse error: unknown symbol '²' (at position 2)"
        # a decimal digit of another script is an integer
        code, out, _ = run("normalize", "x[٣]")
        assert code == EXIT_PASS and out == "x[3]"


class TestOmega:
    def test_psi_recursion_example(self):
        code, out, _ = run("omega", "--kind", "psi", "-p", "0", "x[1]x[0]")
        assert code == EXIT_PASS and out == "q^2*x[1]"

    def test_phi(self):
        code, out, _ = run("omega", "--kind", "phi", "-p", "-2", "x[2]")
        assert code == EXIT_PASS and out == "g^2"


@pytest.mark.parametrize("argv,expected", [
    (("normalize", "x[0]/(q-q^-1)"), "q*1/(-1+q^2)*x[0]"),
    (("normalize", "g*x[0]*x[1]/(1+q)"), "q^2*1/(1+q)*g*x[1]x[0]"),
    (("normalize", "x[0]*2/3*q^(1/2)"), "2/3*q^(1/2)*x[0]"),
    (("normalize", "(1/2+q^2)*g^(1/2)*x[1]"), "1/2*(1+2*q^2)*g^(1/2)*x[1]"),
    (("omega", "--kind", "phi", "-p", "-2", "x[0]x[1]x[-1]"),
     "-q^-8*(-1+q^4)*g^2*x[1]x[-3] + q^-8*(1+q^2-2*q^4-q^6+q^8)*g^2*x[0]x[-2]"
     " - q^-6*(-1+q^4)*g^2*x[-1]x[-1]"),
])
def test_printed_forms(argv, expected):
    # denominators, fractional scales, half exponents and gamma terms keep
    # their canonical text, in both output formats
    code, out, _ = run(*argv)
    assert code == EXIT_PASS and out == expected
    code, out, _ = run(*argv, "--format", "json")
    assert code == EXIT_PASS and json.loads(out) == {"element": expected}


@pytest.mark.parametrize("argv,expected", [
    (("omega", "--kind", "psi", "-p", "-1", "x[1]/(1+q)"), "1/(1+q)*g^-1"),
    (("pair", "x[1]/(1+q)", "x[1]"), "1/(1+q) (not congruent to a rational mod q^2)"),
    (("act", "--gen", "x+", "-k", "0", "--h", "2", "x[0]x[0]/(1+q^2)"),
     "[0] q^-1*x[0] @ (h=2,d=0)"),
    (("normalize", "x[0]/(1+q)+g*x[0]/(1-q^2)"), "(1/(1+q) - 1/(-1+q^2)*g)*x[0]"),
    (("normalize", "x[1]/(1+q)/(1-q)*(1-q^2)"), "x[1]"),
])
def test_values_with_a_denominator(argv, expected):
    # a denominator of positive degree through each command, cancelled
    # against a numerator factor in the last three
    code, out, _ = run(*argv)
    assert code == EXIT_PASS and out == expected


class TestPair:
    def test_residue_display(self):
        code, out, _ = run("pair", "x[1]x[1]", "x[1]x[1]")
        assert code == EXIT_PASS and out == "1+q^2 (= 1 mod q^2)"

    def test_zero(self):
        code, out, _ = run("pair", "x[0]", "x[1]")
        assert code == EXIT_PASS and out.startswith("0")

    @pytest.mark.parametrize("lhs, expected", [
        ("(q^-2)*x[0]", "q^-2 (pole at q = 0)"),
        ("(q)*x[0]", "q (not congruent to a rational mod q^2)"),
    ])
    def test_pole_and_incongruence_told_apart(self, lhs, expected):
        code, out, _ = run("pair", lhs, "x[0]")
        assert code == EXIT_PASS and out == expected


class TestGram:
    def test_json(self):
        code, out, _ = run(
            "gram", "--length", "2", "--degree", "2", "--window", "0:2",
            "--format", "json",
        )
        assert code == EXIT_PASS
        payload = json.loads(out)
        assert payload["basis"] == ["x[2]x[0]", "x[1]x[1]"]
        assert payload["residues_mod_q2"] == [["1", "0"], ["0", "1"]]

    def test_negative_length_rejected(self):
        code, out, err = run("gram", "--length", "-1", "--degree", "0")
        assert code == EXIT_PARSE and out == ""
        assert "--length" in err and "at least 0" in err
        # the empty monomial has length 0
        code, out, _ = run("gram", "--length", "0", "--degree", "0", "--format", "json")
        assert code == EXIT_PASS and json.loads(out)["basis"] == ["1"]


class TestAct:
    def test_raising_example(self):
        code, out, _ = run("act", "--gen", "x+", "-k", "0", "--h", "1", "x[0]")
        assert code == EXIT_PASS and out == "[0] 1 @ (h=1,d=0)"

    def test_zero_weight_is_domain_error(self):
        code, _, err = run("act", "--gen", "x+", "-k", "0", "--h", "0", "x[0]")
        assert code == EXIT_DOMAIN and "reduced" in err

    def test_zero_weight_is_read_before_the_element(self):
        code, _, err = run("act", "--h", "0", "--gen", "x+", "x[")
        assert code == EXIT_DOMAIN and "reduced" in err

    @pytest.mark.parametrize(
        "gen, expected",
        [
            ("x+", "[0] (-q^-1-q)*x[1] @ (h=2,d=1)"),
            ("x-", "[0] x[1]x[0]x[0] @ (h=2,d=1)"),
            ("h", "[0] (-q^-1-2*q-q^3)*x[1]x[0] @ (h=2,d=1)"),
            ("K", "[0] q^-2*x[0]x[0] @ (h=2,d=1)"),
            ("D", "[0] q*x[0]x[0] @ (h=2,d=1)"),
            ("E0", "[0] q^2*x[1]x[0]x[0] @ (h=2,d=1)"),
            ("E1", "[0] (q^-1+q)*x[0] @ (h=2,d=1)"),
            ("F0", "[0] (-q^-1-q)*x[-1] @ (h=2,d=1)"),
            ("F1", "[0] x[0]x[0]x[0] @ (h=2,d=1)"),
            ("K0", "[0] q^2*x[0]x[0] @ (h=2,d=1)"),
            ("K1", "[0] q^-2*x[0]x[0] @ (h=2,d=1)"),
        ],
    )
    def test_every_generator(self, gen, expected):
        code, out, _ = run("act", "--gen", gen, "-k", "1", "--h", "2", "--d", "1", "x[0]x[0]")
        assert code == EXIT_PASS and out == expected

    def test_chevalley(self):
        code, out, _ = run("act", "--gen", "K0", "--h", "2", "1")
        assert code == EXIT_PASS and out == "[0] q^-2 @ (h=2,d=0)"

    def test_heisenberg(self):
        code, out, _ = run("act", "--gen", "h", "-k", "1", "--h", "1", "x[0]")
        assert code == EXIT_PASS and out == "[0] (-q^-1-q)*x[1] @ (h=1,d=0)"


def test_parser_is_built_once():
    assert cli._build_parser() is cli._build_parser()


class TestSignedElement:
    # an element that starts with '-' is a value, not an option; each
    # output is the one the same element gave after '--' before this was so
    @pytest.mark.parametrize("argv,expected", [
        (("normalize", "-x[0]"), "-x[0]"),
        (("normalize", "-3*x[0]"), "-3*x[0]"),
        (("normalize", "-(x[0])"), "-x[0]"),
        (("normalize", "-[2]*x[0]"), "(-q^-1-q)*x[0]"),
        (("normalize", "-g*x[0]"), "-g*x[0]"),
        (("omega", "-p", "1", "-x[1]x[0]"), "-(-1+q^4)*g*x[2]"),
        (("omega", "-p", "-2", "--kind", "phi", "-x[2]"), "-g^2"),
        (("pair", "-x[0]", "x[0]"), "-1 (= -1 mod q^2)"),
        (("pair", "x[0]", "-x[0]"), "-1 (= -1 mod q^2)"),
        (("act", "--gen", "x+", "-k", "-1", "--h", "1", "-x[1]x[0]"), "[0] x[0] @ (h=1,d=0)"),
        (("act", "--gen", "x-", "-k", "-1", "--h", "-1", "-x[0]"),
         "[0] -q^2*x[0]x[-1] @ (h=-1,d=0)"),
    ])
    def test_read_as_a_value(self, argv, expected):
        assert run(*argv) == (EXIT_PASS, expected, "")
        code, out, _ = run(*argv, "--format", "json")
        assert code == EXIT_PASS and expected in json.loads(out).values()

    def test_same_as_after_a_separator(self):
        assert run("normalize", "-[2]*x[0]") == run("normalize", "--", "-[2]*x[0]")
        assert run("pair", "-x[0]", "-x[1]x[0]") == run("pair", "--", "-x[0]", "-x[1]x[0]")

    def test_negative_numbers_are_left_to_argparse(self):
        # argparse reads -2 and -1.5 as values already; they reach the
        # grammar unchanged
        assert run("normalize", "-2") == (EXIT_PASS, "-2", "")
        assert run("normalize", "-1.5")[2] == "parse error: unknown symbol '.' (at position 2)"

    def test_weight_list_that_starts_with_a_minus(self):
        # '-1,2' starts like a signed element too, so it is read as a value
        code, out, _ = run("verify", "module", "--h", "-1,2", "--max-length", "1",
                           "--window", "0:0", "--m", "-1:1", "--format", "json")
        assert code == EXIT_PASS and json.loads(out)["reports"][0]["bounds"]["weights"] == [-1, 2]

    @pytest.mark.parametrize("argv,message", [
        (("verify", "confluence", "--h", "-1,x"),
         "argument --h: expected comma-separated integers, got '-1,x'"),
        (("omega", "-p", "-2x", "x[0]"), "argument -p: invalid int value: '-2x'"),
        (("normalize", "--format", "-x[0]"), "argument --format: invalid choice: '-x[0]'"),
        (("normalize", "x[0]", "-x[1]"), "error: unrecognized arguments: -x[1]"),
    ])
    def test_a_bad_value_is_shown_as_given(self, argv, message):
        # without the space put before a signed element for argparse
        code, out, err = run(*argv)
        assert (code, out) == (EXIT_PARSE, "") and message in err

    def test_parse_error_positions_count_the_given_text(self):
        assert run("normalize", "-x[0") == (
            EXIT_PARSE, "", "parse error: expected ']', found '' (at position 4)")
        # a space the user gave is counted, as before
        assert run("normalize", " x[0")[2] == "parse error: expected ']', found '' (at position 4)"


# a valid argv of each subcommand, and the flags of it that take a value
VALUE_FLAGS = {
    ("normalize", "x[0]"): ("--format",),
    ("omega", "-p", "0", "x[0]"): ("--kind", "-p", "--format"),
    ("pair", "x[0]", "x[0]"): ("--format",),
    ("gram", "--length", "1", "--degree", "0"): ("--length", "--degree", "--window", "--format"),
    ("act", "--gen", "x-", "--h", "1", "x[0]"): ("--gen", "-k", "--h", "--d", "--format"),
    ("verify", "crystal", "--max-length", "1", "--window", "0:0"): (
        "--seed", "--h", "--d", "--max-length", "--window", "--m", "--corrupt", "--format"),
}


@pytest.mark.parametrize("argv", [
    (*base, *given)
    for base, flags in VALUE_FLAGS.items()
    for flag in flags
    for given in [(f"{flag}=--",), (flag, "--")] + ([(f"{flag}--",)] if flag[1] != "-" else [])
], ids=" ".join)
def test_a_value_of_two_dashes_is_a_usage_error(argv):
    # argparse drops '--' given as an option's own value, and stores [] for it
    code, out, err = run(*argv)
    assert (code, out) == (EXIT_PARSE, "") and "Traceback" not in err


class TestNesting:
    def test_at_the_bound(self):
        text = "(" * MAX_NESTING + "x[0]" + ")" * MAX_NESTING
        assert run("normalize", text) == (EXIT_PASS, "x[0]", "")

    def test_one_level_past_the_bound(self):
        depth = MAX_NESTING + 1
        code, out, err = run("normalize", "(" * depth + "x[0]" + ")" * depth)
        assert (code, out) == (EXIT_PARSE, "")
        # the position is that of the parenthesis one level past the bound
        assert err == (f"parse error: parentheses nested deeper than {MAX_NESTING}"
                       f" (at position {MAX_NESTING})")


def test_a_closed_stdout_keeps_the_exit_code():
    # the reader closes its end of the pipe before the child writes
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    argv = ["verify", "confluence", "--max-length", "2", "--window", "-1:1", "--format", "json"]
    child = subprocess.Popen([sys.executable, "-m", "imcrystal.cli", *argv], env=env,
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    child.stdout.close()
    err = child.stderr.read().decode()
    child.stderr.close()
    assert child.wait() == EXIT_PASS
    assert "Traceback" not in err and "BrokenPipeError" not in err


# the suite that owns each corrupted fixture, as the README documents it,
# and every (suite, fixture) pair in which the suite does not own the fixture
OWNERS = {"lattice": "crystal", "map": "module", "gram": "form"}
FOREIGN = [
    (suite, fixture)
    for suite in ("relations", "form", "crystal", "confluence", "module")
    for fixture, owner in OWNERS.items() if suite != owner
]


class TestVerify:
    def test_confluence_passes(self):
        code, out, _ = run("verify", "confluence", "--seed", "5")
        assert code == EXIT_PASS
        assert "confluence-probe: PASS" in out

    def test_confluence_checks_the_insertion_form(self, monkeypatch):
        # a wrong default form on the first word of length 3 or more that
        # the probe reads; both strategies still agree with each other
        right, bad = cli.normalize_word, []

        def wrong(word, strategy=None):
            form = right(word, strategy)
            if strategy is None and len(word) >= 3 and bad in ([], [word]):
                bad[:] = [word]
                return form * 2
            return form

        monkeypatch.setattr(cli, "normalize_word", wrong)
        code, out, err = run("verify", "confluence", "--format", "json")
        assert code == EXIT_VERIFY_FAIL and err == ""
        result = {r["name"]: r for r in json.loads(out)["reports"][0]["results"]}
        assert result["confluence-probe"]["witnesses"] == [
            f"insertion form disagrees with rewriting on x{list(bad[0])}"
        ]

    def test_relations_window_flag(self):
        code, out, _ = run("verify", "relations", "--window", "-1:1", "--m", "-1:1")
        assert code == EXIT_PASS
        assert "omegapsi-x: PASS" in out and "phi-psi: PASS" in out

    def test_crystal_small_bounds(self):
        code, out, _ = run(
            "verify", "crystal", "--h", "1", "--max-length", "2",
            "--window", "-1:1", "--m", "-2:2",
        )
        assert code == EXIT_PASS

    def test_corrupt_lattice_fails_with_witness(self):
        code, out, _ = run(
            "verify", "crystal", "--h", "1", "--max-length", "2",
            "--window", "-1:1", "--m", "-2:2", "--corrupt", "lattice",
        )
        assert code == EXIT_VERIFY_FAIL
        assert "pole at 0" in out

    def test_corrupt_gram_fails(self):
        code, out, _ = run("verify", "form", "--corrupt", "gram", "--max-length", "2")
        assert code == EXIT_VERIFY_FAIL
        assert "gram-orthonormality: FAIL" in out

    def test_json_reports_deterministic(self):
        args = ("verify", "form", "--seed", "42", "--max-length", "2",
                "--format", "json")
        code1, out1, _ = run(*args)
        code2, out2, _ = run(*args)
        assert code1 == code2 == EXIT_PASS
        assert out1 == out2
        payload = json.loads(out1)
        report = payload["reports"][0]
        assert report["suite"] == "form" and report["seed"] == 42
        assert {r["name"] for r in report["results"]} >= {
            "symmetry-random", "adjointness-random", "gram-orthonormality",
        }

    @pytest.mark.parametrize(
        "suite, window", [("form", "0:0"), ("form", "1:3"), ("form", "-3:-1"), ("all", "0:0")]
    )
    def test_membership_probe_at_a_window_without_minus_one_to_one(self, suite, window):
        # the membership fixtures lie in [-1, 1], so the probe reads the hull
        # of that and the window: q^-1 x[n] is still rejected when the window
        # does not cover n
        code, out, _ = run("verify", suite, "--window", window, "--format", "json")
        assert code == EXIT_PASS
        (form,) = (r for r in json.loads(out)["reports"] if r["suite"] == "form")
        (probe,) = (r for r in form["results"] if r["name"] == "membership-probe")
        assert (probe["status"], probe["checked"], probe["witnesses"]) == ("pass", 18, [])

    def test_usage_error_exit_2(self):
        code, _, _ = run("verify", "nonsense")
        assert code == EXIT_PARSE

    def test_max_length_below_one_rejected(self):
        for value in ("0", "-1"):
            code, out, err = run("verify", "confluence", "--max-length", value)
            assert code == EXIT_PARSE and out == ""
            assert "--max-length" in err and "at least 1" in err

    def test_given_bounds_are_honoured(self):
        code, out, _ = run("verify", "confluence", "--max-length", "1", "--format", "json")
        assert code == EXIT_PASS
        assert json.loads(out)["reports"][0]["bounds"]["max_length"] == 1
        # a zero bound from the library is run and reported, not replaced
        (report,) = run_suite("confluence", max_length=0)
        assert report.bounds["max_length"] == 0
        (report,) = run_suite("relations", max_length=1, m_range=(0, 0))
        assert report.bounds["max_length"] == 1 and report.bounds["components"] == [0, 0]

    def test_empty_weights_mean_the_default(self):
        for weights in (None, ()):
            (report,) = run_suite("crystal", weights=weights, max_length=1, m_range=(0, 0))
            assert report.bounds["weights"] == [1, 3]

    @pytest.mark.parametrize("suite", ["relations", "module", "crystal", "confluence", "all"])
    def test_inverted_bounds_raise_before_any_check(self, suite, monkeypatch):
        def not_run(*args, **kwargs):
            raise AssertionError("a suite ran on an empty range")

        for name in ("confluence", "relations", "form", "module", "crystal"):
            monkeypatch.setattr(cli, f"suite_{name}", not_run)
        with pytest.raises(ValueError, match="empty range"):
            run_suite(suite, m_range=(3, -3), max_length=1)
        with pytest.raises(ValueError, match="empty range"):
            run_suite(suite, window=(2, -2))

    def test_repeated_weight_passes_module(self):
        # the swap control takes two distinct weights, so h = 1,1 is a
        # correct input with a detected control
        code, out, _ = run("verify", "module", "--h", "1,1", "--max-length", "1", "--m", "-1:1")
        assert code == EXIT_PASS
        assert "swap-control-detected: PASS" in out

    def test_repeated_weight_detects_corrupt_map(self):
        code, out, _ = run(
            "verify", "module", "--h", "1,1", "--max-length", "1", "--m", "-1:1",
            "--corrupt", "map", "--format", "json",
        )
        assert code == EXIT_VERIFY_FAIL
        status = {r["name"]: r["status"] for r in json.loads(out)["reports"][0]["results"]}
        assert status["intertwining-maps"] == "fail"
        assert status["swap-control-detected"] == "pass"

    @pytest.mark.parametrize("suite, fixture", FOREIGN)
    def test_corrupt_fixture_of_another_suite_rejected(self, suite, fixture):
        code, out, err = run("verify", suite, "--corrupt", fixture)
        assert code == EXIT_PARSE and out == ""
        assert f"--corrupt {fixture} is a fixture of the {OWNERS[fixture]} suite" in err

    @pytest.mark.parametrize("suite, fixture", FOREIGN)
    def test_library_rejects_a_foreign_fixture_as_the_cli_does(self, suite, fixture):
        # one rule for both callers: the library raises the message the
        # command line prints, before any suite runs
        with pytest.raises(ValueError) as raised:
            run_suite(suite, corrupt=fixture)
        code, _, err = run("verify", suite, "--corrupt", fixture)
        assert code == EXIT_PARSE and err.endswith(f"error: {raised.value}")
        assert str(raised.value) == (
            f"--corrupt {fixture} is a fixture of the {OWNERS[fixture]} suite, not of {suite}"
        )

    @pytest.mark.parametrize("suite", [*OWNERS.values(), "all"])
    def test_library_rejects_an_unknown_fixture(self, suite):
        with pytest.raises(ValueError, match="unknown fixture 'bogus'"):
            run_suite(suite, corrupt="bogus")

    def test_the_table_orders_the_suites_and_owns_the_fixtures(self):
        assert list(cli.SUITES) == ["confluence", "relations", "form", "module", "crystal"]
        assert {fixture: suite for suite, fixture in cli.SUITES.items() if fixture} == OWNERS

    @pytest.mark.parametrize("fixture", sorted(OWNERS))
    def test_all_records_a_fixture_only_in_its_owners_bounds(self, fixture):
        code, out, _ = run(
            "verify", "all", "--corrupt", fixture, "--h", "1", "--max-length", "1",
            "--window", "-1:1", "--m", "-1:1", "--format", "json",
        )
        assert code == EXIT_VERIFY_FAIL
        reports = json.loads(out)["reports"]
        assert [r["suite"] for r in reports] == list(cli.SUITES)
        corrupt = {r["suite"]: r["bounds"]["corrupt"] for r in reports if "corrupt" in r["bounds"]}
        assert corrupt == {
            suite: fixture if suite == OWNERS[fixture] else None for suite in OWNERS.values()
        }
        status = {r["suite"]: r["status"] for r in reports}
        assert status == {suite: "fail" if suite == OWNERS[fixture] else "pass"
                          for suite in cli.SUITES}

    def test_inverted_m_range_rejected(self):
        code, out, err = run("verify", "relations", "--m", "2:-2")
        assert code == EXIT_PARSE and out == ""
        assert "--m" in err and "empty range" in err

    def test_inverted_window_rejected(self):
        code, out, err = run("verify", "module", "--window", "2:-2")
        assert code == EXIT_PARSE and out == ""
        assert "--window" in err and "empty range" in err


class TestImageWithoutWeight:
    """A wrong action whose image mixes weights, or a lowering image that is
    zero, is a witness of the check that reads the weight, so `verify`
    exits 1, not 3 (domain error)."""

    @pytest.mark.parametrize(
        "name, wrong, witness",
        [
            ("act_xplus", lambda right: lambda k, v: right(0, v) + v,
             "x+_0 weight wrong on h=1, x[1]"),
            ("act_xminus", lambda right: lambda k, v: v * 0, "x-_-1 weight wrong on h=1, x[]"),
        ],
        ids=["mixed-xplus", "zero-xminus"],
    )
    def test_module_weight_decomposition(self, monkeypatch, name, wrong, witness):
        monkeypatch.setattr(cli, name, wrong(getattr(cli, name)))
        code, out, err = run(
            "verify", "module", "--max-length", "1", "--window", "-1:1", "--m", "-1:1",
            "--format", "json",
        )
        assert code == EXIT_VERIFY_FAIL and err == ""
        result = {r["name"]: r for r in json.loads(out)["reports"][0]["results"]}
        assert witness in result["weight-decomposition"]["witnesses"]

    def test_relations_locality_support(self, monkeypatch):
        right = cli.omega_mono
        far = Element.monomial((3, 3, 3, 3))  # weight (4, 12): no psi image has it

        def mixed(kind, p, mono):
            img = right(kind, p, mono)
            return img if img.is_zero else img + far

        monkeypatch.setattr(cli, "omega_mono", mixed)
        code, out, err = run(
            "verify", "relations", "--max-length", "1", "--window", "0:1", "--m", "0:0",
            "--format", "json",
        )
        assert code == EXIT_VERIFY_FAIL and err == ""
        result = {r["name"]: r for r in json.loads(out)["reports"][0]["results"]}
        assert "psi[-1] on x[1]: weight mixed expected Weight(length=0, degree=0)" in (
            result["locality-support"]["witnesses"]
        )


class TestWitnessText:
    """The exact stdout of the three --corrupt controls at small bounds,
    witness strings included, pinned by the first 16 hex digits of its
    sha256."""

    @pytest.mark.parametrize(
        "argv, digests",
        [
            (("verify", "form", "--corrupt", "gram", "--max-length", "2"),
             {"json": "ab75022018b45ec9", "text": "596b2a38e3a1f5f2"}),
            (("verify", "crystal", "--corrupt", "lattice", "--max-length", "1", "--m", "-1:1"),
             {"json": "3896886aa6ca75d3", "text": "e3226da23ae461c0"}),
            (("verify", "module", "--corrupt", "map", "--max-length", "1", "--m", "-1:1",
              "--h", "1,3"),
             {"json": "c1989deeb5ba4d42", "text": "be7980cc7f3e0df8"}),
        ],
        ids=["form-gram", "crystal-lattice", "module-map"],
    )
    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_corrupt_control_output(self, argv, digests, fmt):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main([*argv, "--format", fmt])
        assert code == EXIT_VERIFY_FAIL
        assert hashlib.sha256(out.getvalue().encode()).hexdigest()[:16] == digests[fmt]
