"""End-to-end tests of the command-line interface."""

import json
import time

from whlink.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--format", "json")
    return code, json.loads(out) if out else None, err


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


def test_verify_vacuous_bounds(capsys):
    code, data, _ = run_json(capsys, "verify", "--max-degree", "0", "--max-k", "2")
    assert code == 0
    assert data["ok"] is True
    assert all(p["checked"] == 0 for p in data["properties"])


def test_internal_failure_maps_to_exit_2(capsys, monkeypatch):
    from whlink.errors import ConsistencyError

    def boom(ws):
        raise ConsistencyError("synthetic failure")

    monkeypatch.setattr("whlink.cli.link_invariants", boom)
    code, out, err = run(capsys, "link", "--weights", "1,1,1", "--degree", "3")
    assert code == 2
    assert "internal consistency" in err


def test_fractional_divisor_systems_are_input_errors(capsys):
    # the genus formula is integral but the divisor has fractional
    # coefficients: no quasi-smooth polynomial has these weights
    for argv in (
        ["link", "--weights", "1,4,6", "--degree", "8"],
        ["link", "--weights", "7,1,1", "--degree", "3"],
        ["cover", "--weights", "1,4,6", "--degree", "8", "-k", "3"],
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


def test_link_huge_degree_is_fast(capsys):
    start = time.perf_counter()
    code, data, _ = run_json(
        capsys, "link", "--weights", "1,2,3", "--degree", "999999999999999996"
    )
    assert time.perf_counter() - start < 1.0
    assert code == 0
    assert data["betti"] == 2 * data["genus"] > 0
    assert data["delta_poly"] is None
