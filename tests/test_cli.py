"""End-to-end tests of the command-line interface."""

import json
import os
import pathlib
import subprocess
import sys
import time
from math import lcm, prod

import pytest

from whlink import errors
from whlink.cli import build_parser, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--format", "json")
    return code, json.loads(out) if out else None, err


ROOT = pathlib.Path(__file__).parent.parent


def src_env(**extra):
    """The environment, with src first on PYTHONPATH and ``extra`` set."""
    path = os.environ.get("PYTHONPATH")
    src = os.pathsep.join(filter(None, [str(ROOT / "src"), path]))
    return dict(os.environ, PYTHONPATH=src, **extra)


def fresh_interpreter(*argv):
    """Run ``python *argv`` in a separate interpreter that imports whlink from src."""
    return subprocess.run([sys.executable, *argv], capture_output=True, env=src_env(), timeout=60)


def test_python_dash_m_runs_the_entry_point():
    # the process entry points, __main__.py and cli.entry_point, end to
    # end: stdout and exit code in a separate interpreter
    def whlink(*argv):
        return fresh_interpreter("-m", "whlink", *argv, "--format", "json")

    done = whlink("link", "--weights", "15,10,6", "--degree", "30")
    assert (done.returncode, done.stderr) == (0, b"")
    assert done.stdout == (ROOT / "tests" / "golden" / "link.json").read_bytes()
    done = whlink("link", "--weights", "1,4,6", "--degree", "8")
    assert (done.returncode, done.stdout) == (1, b"")
    assert json.loads(done.stderr)["class"] == "NotASmoothCurveError"


def test_one_parser_serves_every_call(capsys, monkeypatch):
    # main reuses one parser: a usage error, then a query, in this process
    # must print what each prints in an interpreter of its own
    assert build_parser() is build_parser()
    monkeypatch.setenv("COLUMNS", "80")  # usage lines wrap at the terminal width
    for argv in [
        ("link", "--weights", "1,2,3", "--degree", "seven"),
        ("link", "--weights", "15,10,6", "--degree", "30", "--format", "json"),
    ]:
        code, out, err = run(capsys, *argv)
        done = fresh_interpreter("-m", "whlink", *argv)
        assert (code, out.encode(), err.encode()) == (done.returncode, done.stdout, done.stderr)


# imports whlink and runs a verify sweep after a snapshot of sys.modules, and
# prints the top-level modules that came in and are neither whlink nor in the
# standard library
_FOREIGN_IMPORTS = """
import contextlib, io, json, sys
before = set(sys.modules)
with contextlib.redirect_stdout(io.StringIO()):
    import whlink
    from whlink import cli
    code = cli.main(["verify", "--max-degree", "6", "--format", "json"])
loaded = {name.partition(".")[0] for name in set(sys.modules) - before}
foreign = loaded - set(sys.stdlib_module_names) - {"whlink"}
print(json.dumps({"code": code, "foreign": sorted(foreign), "whlink": "whlink" in loaded}))
"""


def test_runtime_needs_only_the_standard_library():
    # the README promises no runtime dependencies outside the standard
    # library; the test extras are installed here, so a stray import of one
    # would succeed and show up only in this list
    done = fresh_interpreter("-c", _FOREIGN_IMPORTS)
    assert (done.returncode, done.stderr) == (0, b"")
    assert json.loads(done.stdout) == {"code": 0, "foreign": [], "whlink": True}


@pytest.mark.parametrize("module", ["whlink.cli", "whlink.verify"])
def test_import_skips_dataclasses_and_inspect(module):
    # dataclasses, which alone pulls in inspect, ast, dis and tokenize,
    # costs a fresh interpreter about 12 ms, and fractions, which loads
    # decimal and numbers, about 5 ms; -S leaves out site, whose own
    # imports could hide a regression
    heavy = {"dataclasses", "inspect", "fractions", "decimal", "numbers"}
    script = (
        f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r}); import {module}; "
        f"print(sorted({heavy!r} & set(sys.modules)))"
    )
    done = subprocess.run([sys.executable, "-S", "-c", script], capture_output=True, timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (0, b"[]\n", b"")


def test_genus_text(capsys):
    code, out, _ = run(capsys, "genus", "--weights", "1,2,3", "--degree", "7")
    assert code == 0
    assert "genus 1" in out
    assert "Fano index 6" in out


def test_link_json_family_member(capsys):
    code, data, _ = run_json(capsys, "link", "--weights", "1,2,3", "--degree", "7")
    assert code == 0
    assert data["genus"] == 1
    assert data["betti"] == 2
    assert data["delta_at_one"] is None
    assert {"j": 7, "num": "3", "den": "1"} in data["divisor"]


def test_link_json_poincare(capsys):
    code, data, _ = run_json(capsys, "link", "--weights", "15,10,6", "--degree", "30")
    assert code == 0
    assert data["betti"] == 0
    assert data["delta_at_one"] == "1"


@pytest.mark.parametrize(
    "weights, degree, lines",
    [
        # the trefoil knot, one circle: the coefficient sum is b0 - 1, and H_0 is free
        ("3,2", "6", ["  b0 = 1"]),
        # the Poincare sphere, a homology 3-sphere
        ("15,10,6", "30", ["  b1 = 0", "  |H_1| = Delta(1) = 1"]),
        ("1,2,3", "7", ["  b1 = 2"]),
        ("3,2,2,2", "6", ["  b2 = 0", "  |H_2| = Delta(1) = 4"]),
        # the 7-dimensional links of a quadric, H_3 = Z/2, and of a cubic
        ("1,1,1,1,1", "2", ["  b3 = 0", "  |H_3| = Delta(1) = 2"]),
        ("1,1,1,1,1", "3", ["  b3 = 10"]),
        # x^3 + y^3, three lines through the origin: three circles
        ("1,1", "3", ["  b0 = 3"]),
    ],
)
def test_link_text_labels_homology_by_dimension(capsys, weights, degree, lines):
    # the link of n variables has dimension 2n - 3; the divisor gives b_{n-2} and |H_{n-2}|
    code, out, _ = run(capsys, "link", "--weights", weights, "--degree", degree)
    assert code == 0
    labels = [line for line in out.splitlines() if line.startswith(("  b", "  |H"))]
    assert labels == lines


def test_json_output_is_byte_stable(capsys):
    first = run(capsys, "realize", "12", "--format", "json")
    second = run(capsys, "realize", "12", "--format", "json")
    assert first == second
    assert first[0] == 0


def test_cover_json(capsys):
    code, data, _ = run_json(
        capsys, "cover", "--weights", "1,1,1", "--degree", "3", "-k", "2"
    )
    assert code == 0
    assert data["paths_agree"] is True
    assert data["cover"]["delta_at_one"] == "4"
    assert data["cover"]["weights"] == [3, 2, 2, 2]


def test_cover_rejects_non_coprime(capsys):
    code, out, err = run(
        capsys, "cover", "--weights", "1,1,1", "--degree", "3", "-k", "3"
    )
    assert code == 1
    assert out == ""
    assert "coprime" in err


@pytest.mark.parametrize(
    "weights, degree, k, reason",
    [
        ("1,1,1", "3", "1", "cover exponent must be an integer greater than 1, got 1"),
        ("1,1,1,1", "4", "3", "covers are built over 3-variable weight systems"),
    ],
    ids=["k-below-two", "four-weights"],
)
def test_cover_rejects_a_bad_exponent_or_base(capsys, weights, degree, k, reason):
    argv = ["cover", "--weights", weights, "--degree", degree, "-k", k]
    code, out, err = run(capsys, *argv, "--format", "json")
    assert (code, out) == (1, "")
    assert json.loads(err) == {"class": "InputError", "error": reason, "exit_code": 1}
    assert run(capsys, *argv, "--format", "text") == (1, "", f"whlink: {reason}\n")


def test_cover_skip_direct_path(capsys):
    code, data, _ = run_json(
        capsys,
        "cover", "--weights", "1,1,1", "--degree", "3", "-k", "2",
        "--skip-direct-path",
    )
    assert code == 0
    assert data["paths_agree"] is None


def test_realize_8_has_three_candidates(capsys):
    code, data, _ = run_json(capsys, "realize", "8")
    assert code == 0
    assert data["group_undetermined"] is True
    assert data["manifold"] is None
    assert len(data["candidates"]) == 3
    assert data["h2_order"] == "64"
    assert data["chosen_p"] == 3


def test_realize_with_prime_flag(capsys):
    code, data, _ = run_json(capsys, "realize", "2", "--prime", "7")
    assert code == 0
    assert data["chosen_p"] == 7


def test_realize_rejects_non_family_prime(capsys):
    code, _, err = run(capsys, "realize", "2", "--prime", "5")
    assert code == 1
    assert "3 mod 4" in err


def test_smale_enum(capsys):
    code, data, _ = run_json(capsys, "smale-enum", "8")
    assert code == 0
    assert data["count"] == 3
    assert data["unique"] is False
    labels = [m["label"] for m in data["candidates"]]
    assert labels == ["M_8", "M_2 # M_4", "M_2 # M_2 # M_2"]


def test_primes(capsys):
    code, data, _ = run_json(capsys, "primes", "--limit", "25")
    assert code == 0
    assert data["primes"] == [3, 7, 11, 19, 23]


def test_search(capsys):
    code, data, _ = run_json(capsys, "search", "--genus", "1", "--max-degree", "7")
    assert code == 0
    systems = [(tuple(s["weights"]), s["degree"]) for s in data["systems"]]
    assert ((1, 1, 1), 3) in systems
    assert ((1, 2, 3), 7) in systems


def test_verify_small_grid(capsys):
    code, data, _ = run_json(capsys, "verify", "--max-degree", "6", "--max-k", "4")
    assert code == 0
    assert data["ok"] is True
    names = {p["name"] for p in data["properties"]}
    assert names == {
        "group_ring_relation",
        "genus_betti_duality",
        "oracle_agreement",
        "cover_two_path",
    }
    assert all(p["failed"] == 0 for p in data["properties"])


def test_verify_text_mode(capsys):
    code, out, _ = run(capsys, "verify", "--max-degree", "3", "--max-k", "2")
    assert code == 0
    assert "cover_two_path" in out


def test_bad_weights_exit_code(capsys):
    code, _, err = run(capsys, "link", "--weights", "1,x,3", "--degree", "7")
    assert code == 1
    assert "weights" in err


def test_unparseable_flags_exit_code(capsys):
    code = main(["link", "--weights", "1,2,3"])  # missing --degree
    capsys.readouterr()
    assert code == 1


def test_unknown_subcommand_exit_code(capsys):
    code = main(["frobnicate"])
    capsys.readouterr()
    assert code == 1


def test_unrealizable_system_is_input_error(capsys):
    code, _, err = run(capsys, "link", "--weights", "4,10,27", "--degree", "40")
    assert code == 1
    assert "quasi-smooth" in err


def assert_error_line(fmt, err, code, reason, base=errors.InputError):
    # one line on stderr: a JSON object in JSON mode, "whlink: <reason>" in text
    assert err.count("\n") == 1 and err.endswith("\n")
    if fmt == "json":
        error = json.loads(err)
        assert set(error) == {"class", "error", "exit_code"}
        assert issubclass(getattr(errors, error["class"]), base)
        assert error["exit_code"] == code
        assert reason in error["error"]
    else:
        assert err.startswith("whlink: ")
        assert reason in err


def assert_input_error(capsys, argv, reason):
    # exit 1 in both formats, with a one-line reason on stderr and no output
    for fmt in ("json", "text"):
        start = time.perf_counter()
        code, out, err = run(capsys, *argv, "--format", fmt)
        assert time.perf_counter() - start < 2.0
        assert code == 1
        assert out == ""
        assert_error_line(fmt, err, 1, reason)


def test_verify_vacuous_bounds(capsys):
    # bounds that leave the sweeps empty would report a pass that checked nothing
    for flag, value, reason in (
        ("--max-degree", "0", "positive integer"),
        ("--max-degree", "-5", "positive integer"),
        ("--max-k", "0", ">= 2"),
        ("--max-k", "-3", ">= 2"),
    ):
        assert_input_error(capsys, ["verify", flag, value], reason)


def test_verify_bounds_past_caps(capsys):
    from whlink.verify import MAX_VERIFY_DEGREE, MAX_VERIFY_K

    assert_input_error(
        capsys,
        ["verify", "--max-degree", str(MAX_VERIFY_DEGREE + 1)],
        f"at most {MAX_VERIFY_DEGREE}",
    )
    assert_input_error(
        capsys, ["verify", "--max-k", str(MAX_VERIFY_K + 1)], f"at most {MAX_VERIFY_K}"
    )


def test_internal_failure_maps_to_exit_2(capsys, monkeypatch):
    def boom(ws):
        raise errors.ConsistencyError("synthetic failure")

    monkeypatch.setattr("whlink.cli.link_invariants", boom)
    for fmt in ("json", "text"):
        code, out, err = run(
            capsys, "link", "--weights", "1,1,1", "--degree", "3", "--format", fmt
        )
        assert code == 2
        assert out == ""
        assert_error_line(
            fmt, err, 2, "internal consistency failure: synthetic failure", errors.ConsistencyError
        )


def test_smale_enum_with_a_wrong_splitter_exits_2(capsys, monkeypatch):
    # 1031 * 1033 gets past the first trial division to the splitter, which
    # now answers 1039, a prime that does not divide it
    from whlink import primes

    k, split = 1031 * 1033, primes._brent_rho
    monkeypatch.setattr(primes, "_brent_rho", lambda n: 1039 if n == k else split(n))
    for fmt in ("json", "text"):
        code, out, err = run(capsys, "smale-enum", str(k), "--format", fmt)
        assert code == 2
        assert out == ""
        assert_error_line(fmt, err, 2, f"factorizing {k} gave", errors.ConsistencyError)


def test_a_wrong_genus_formula_exits_2_wherever_a_genus_is_printed(capsys, monkeypatch):
    # a genus one too big passes every check of the formula itself; b_1 = 2g,
    # which link, genus and search all raise on, catches it
    from whlink import realization, weights

    formula = weights.genus_formula

    def one_too_big(*args):
        g = formula(*args)
        return None if g is None else g + 1

    for module in (weights, realization):
        monkeypatch.setattr(module, "genus_formula", one_too_big)
    for argv in (
        ("link", "--weights", "1,1,1", "--degree", "3"),
        ("genus", "--weights", "1,1,1", "--degree", "3"),
        ("search", "--genus", "2", "--max-degree", "6"),
    ):
        for fmt in ("json", "text"):
            code, out, err = run(capsys, *argv, "--format", fmt)
            assert (code, out) == (2, "")
            reason = "w=(1,1,1; d=3): multiplicity 2 != 2 * genus 2"
            assert_error_line(fmt, err, 2, reason, errors.CrossCheckError)


def test_verify_failure_is_an_error_line(capsys, monkeypatch):
    from whlink.verify import PropertyCheck, VerificationReport

    def failing(max_degree, max_k):
        check = PropertyCheck("oracle_agreement")
        check.record("synthetic mismatch")
        return VerificationReport(max_degree, max_k, 1, 0, [check])

    monkeypatch.setattr("whlink.cli.run_verification", failing)
    for fmt in ("json", "text"):
        code, out, err = run(capsys, "verify", "--format", fmt)
        assert code == 2
        assert "synthetic mismatch" in out
        assert_error_line(fmt, err, 2, "verification failed", errors.CrossCheckError)


def test_link_with_a_wrong_production_expansion_exits_2(capsys, plant_expansion_fault):
    plant_expansion_fault("whlink.invariants.char_poly_from_divisor")
    code, out, err = run(capsys, "link", "--weights", "1,1,1", "--degree", "3", "--format", "json")
    assert (code, out) == (2, "")
    assert_error_line("json", err, 2, "expansion has degree 8 and value 1", errors.CrossCheckError)
    assert json.loads(err)["class"] == "CrossCheckError"


def test_cover_with_a_wrong_relation_path_exits_2(capsys, plant_cover_fault):
    plant_cover_fault("whlink.cover")
    code, out, err = run(
        capsys, "cover", "--weights", "1,1,1", "--degree", "3", "-k", "2", "--format", "json"
    )
    assert code == 2
    assert out == ""
    assert_error_line("json", err, 2, "disagree", errors.TwoPathMismatchError)
    assert json.loads(err)["class"] == "TwoPathMismatchError"


def test_verify_with_a_wrong_relation_path_prints_then_exits_2(capsys, plant_cover_fault):
    plant_cover_fault("whlink.verify")
    argv = ["verify", "--max-degree", "6", "--max-k", "3"]
    code, data, err = run_json(capsys, *argv)
    assert code == 2
    assert data["ok"] is False
    cover = next(p for p in data["properties"] if p["name"] == "cover_two_path")
    assert cover["failed"] > 0
    assert_error_line("json", err, 2, "verification failed", errors.CrossCheckError)
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert "cover_two_path: " in out and "failures [FAILED]" in out
    assert_error_line("text", err, 2, "verification failed")


# an empty PYTHONUNBUFFERED leaves stdout block-buffered, so a short output
# fails only in the flush; "1" makes each print write at once
@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
def test_a_pipe_closed_after_the_first_line_exits_1_quietly(unbuffered):
    # 1.3 MB of JSON, far more than a pipe holds, so whlink is still
    # writing when the reader closes its end
    argv = ["-m", "whlink", "primes", "--limit", "3000000", "--format", "json"]
    proc = subprocess.Popen(
        [sys.executable, *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=src_env(PYTHONUNBUFFERED=unbuffered),
    )
    assert proc.stdout.readline() == b"{\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=60), err) == (1, b"")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this platform")
@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("fmt", ["json", "text"])
def test_a_full_stdout_is_one_error_line_and_exit_1(fmt, unbuffered):
    with open("/dev/full", "wb") as full:
        done = subprocess.run(
            [sys.executable, "-m", "whlink", "smale-enum", "4096", "--format", fmt],
            stdout=full,
            stderr=subprocess.PIPE,
            env=src_env(PYTHONUNBUFFERED=unbuffered),
            timeout=60,
        )
    err = done.stderr.decode()
    assert done.returncode == 1
    assert err.count("\n") == 1 and "Traceback" not in err
    if fmt == "json":
        error = json.loads(err)
        assert (error["class"], error["exit_code"]) == ("OSError", 1)
        assert error["error"].startswith("cannot write output: ")
    else:
        assert err.startswith("whlink: cannot write output: ")


def test_fractional_divisor_systems_are_input_errors(capsys):
    # the genus formula is integral but the divisor has fractional
    # coefficients: no quasi-smooth polynomial has these weights
    for argv in (
        ["link", "--weights", "1,4,6", "--degree", "8"],
        ["link", "--weights", "7,1,1", "--degree", "3"],
        ["cover", "--weights", "1,4,6", "--degree", "8", "-k", "3"],
        ["genus", "--weights", "1,4,6", "--degree", "8"],
        # integral, with a negative root multiplicity
        ["link", "--weights", "4,10,27", "--degree", "40"],
        ["genus", "--weights", "4,10,27", "--degree", "40"],
    ):
        code, out, err = run(capsys, *argv)
        assert code == 1, argv
        assert out == ""
        assert "fractional" in err and "quasi-smooth" in err


def test_primes_limit_past_cap_is_input_error(capsys):
    code, out, err = run(capsys, "primes", "--limit", "10000001")
    assert code == 1
    assert out == ""
    assert "at most 10000000" in err


# the product of the primes below 5300, a k of 2256 digits
_PRIMORIAL_5300 = prod(
    p for p in range(2, 5300) if all(p % q for q in range(2, int(p**0.5) + 1))
)


# a degree of 4290 digits, and the cover exponent one above it
_D4290 = 10**4289 + 7
# the largest int of 4300 digits, as many as Python turns into a string
_W4300 = 10**4300 - 1


def _brieskorn_pham(*exponents):
    """``--weights`` and ``--degree`` of z_1^a_1 + ... + z_n^a_n."""
    d = lcm(*exponents)
    return ["--weights", ",".join(str(d // a) for a in exponents), "--degree", str(d)]


# exponents 2 ... 64, 3 ... 81, 5, 25, 7 and 11: a divisor of 420 terms, whose
# torsion order 1 is the quotient of two products of about 3e8 digits each
_BP14 = (2, 4, 8, 16, 32, 64, 3, 9, 27, 81, 5, 25, 7, 11)


@pytest.mark.parametrize(
    "argv, reason",
    [
        # the torsion order k^342 has about 4446 digits
        (["cover", "--weights", "1,1,1", "--degree", "20", "-k", "10000000000001"], "digits"),
        # the torsion order 2^999000, genus 499500, has about 300729 digits
        (["cover", "--weights", "1,1,1", "--degree", "1001", "-k", "2"], "digits"),
        # cover coefficients past the float range, about 10^320
        (["cover", "--weights", "1,1,1", "--degree", str(10**160), "-k", "3"], "digits"),
        # p(50) = 204226 partitions of the exponent of 2^50
        (["smale-enum", str(2**50)], "more than 10000"),
        (["smale-enum", str(_PRIMORIAL_5300)], "digits"),
        (["search", "--genus", "0", "--max-degree", "65"], "at most 64"),
        # psi_12 = 399165290221 * 798330580441 passes the first 12 prime
        # witnesses; it must not be taken for a prime
        (["smale-enum", "318665857834031151167461"], "cannot factor"),
        (["realize", "318665857834031151167461"], "cannot factor"),
        # the genus and the divisor coefficient d^2 - 3d + 3 have about 4400 digits
        (["genus", "--weights", "1,1,1", "--degree", str(10**2200 + 1)], "digits"),
        (["link", "--weights", "1,1,1", "--degree", str(10**2200 + 1)], "digits"),
        # a fractional genus whose numerator has about 4400 digits, more than
        # Python turns into a string: the reason gives no value
        (
            ["genus", "--weights", "2,3,5", "--degree", str(10**2200 + 1)],
            "not a non-negative integer",
        ),
        # a divisor coefficient of about d^39, 4680 digits
        (["link", "--weights", ",".join(["1"] * 40), "--degree", str(10**120 + 1)], "digits"),
        # the cover degree k d has about 8580 digits
        (
            ["cover", "--weights", f"1,1,{_D4290}", "--degree", str(_D4290), "-k", str(_D4290 + 1)],
            "digits",
        ),
        # genus 49985001: the digit bound must come before the order law,
        # which would spend minutes forming k^(2g) of about 1.2e9 digits
        (["cover", "--weights", "1,1,1", "--degree", "10000", "-k", "1000000000001"], "digits"),
        (["link", *_brieskorn_pham(*_BP14)], "numerator has more than 1000000 digits"),
        # 6720 terms, which the link gate would take seconds to test
        (["link", *_brieskorn_pham(*_BP14, 13, 17, 19, 23)], "more than 1000 terms"),
        # a linear cone, so both gates pass, but its Fano index _W4300 + 2 has 4301 digits
        (["genus", "--weights", f"1,1,{_W4300}", "--degree", str(_W4300)], "Fano index"),
    ],
    ids=[
        "cover-large-k",
        "cover-large-degree",
        "cover-huge-coefficients",
        "smale-many-candidates",
        "smale-large-k",
        "search-degree",
        "smale-psi12",
        "realize-psi12",
        "genus-huge-genus",
        "link-huge-coefficient",
        "genus-huge-fractional-genus",
        "link-many-weights-huge-coefficient",
        "cover-huge-weights",
        "cover-large-genus-and-k",
        "link-many-weights-huge-torsion-product",
        "link-many-divisor-terms",
        "genus-huge-fano-index",
    ],
)
def test_oversized_inputs_are_input_errors(capsys, argv, reason):
    assert_input_error(capsys, argv, reason)


def test_many_weights_answer_at_once(capsys):
    # the Milnor-Orlik expansion stays at most tau(d) terms per factor, so
    # the number of weights does not make the product blow up
    weights = ",".join(["1"] * 40)
    start = time.perf_counter()
    code, data, _ = run_json(capsys, "link", "--weights", weights, "--degree", "2")
    assert time.perf_counter() - start < 2.0
    assert code == 0
    assert data["betti"] == 1
    assert_input_error(
        capsys,
        ["cover", "--weights", weights, "--degree", "2", "-k", "3"],
        "3-variable",
    )


def test_link_huge_degree_is_fast(capsys):
    start = time.perf_counter()
    code, data, _ = run_json(
        capsys, "link", "--weights", "1,2,3", "--degree", "999999999999999996"
    )
    assert time.perf_counter() - start < 1.0
    assert code == 0
    assert data["betti"] == 2 * data["genus"] > 0
    assert data["delta_poly"] is None


@pytest.mark.parametrize(
    "weights, degree",
    # z_1^64 + z_2^128 + z_3^(2^43) and z_1^16 + z_2^32 + z_3^(2^3300): each
    # 3-fold cover's torsion order 3^(2g) is under 4000 digits, and the product
    # it is divided out of has about 1.1e5 and 4.6e5 digits
    [((2**37, 2**36, 1), 2**43), ((2**3296, 2**3295, 1), 2**3300)],
    ids=["degree-2^43", "degree-2^3300"],
)
def test_large_degree_covers_with_long_torsion_products_answer(capsys, weights, degree):
    argv = ["--weights", ",".join(map(str, weights)), "--degree", str(degree), "-k", "3"]
    start = time.perf_counter()
    code, data, _ = run_json(capsys, "cover", *argv)
    assert time.perf_counter() - start < 2.0
    assert code == 0
    assert int(data["cover"]["delta_at_one"]) == 3 ** (2 * data["base"]["genus"])
