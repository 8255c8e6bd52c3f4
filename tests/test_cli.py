import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import lenspp
from lenspp import actions, cli
from lenspp.actions import product_of_lens_spaces
from lenspp.classify import ORBIT_SIZE_CAP, _pencil
from lenspp.cli import main, parse_space
from lenspp.forms import k_pair
from lenspp.gfp import GL2_PRIME_CAP


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    doc = json.loads(captured.out) if captured.out.strip() else None
    return code, doc, captured.err


def test_parse_space_json():
    d = parse_space('{"p": 5, "n": 2, "R": [1, 2, 0, 0], "Q": [0, 0, 1, 3]}')
    assert (d.p, d.n, d.R, d.Q) == (5, 2, (1, 2, 0, 0), (0, 0, 1, 3))


def test_parse_space_inline():
    d = parse_space("p=5 n=2 R=1,1,0,0 Q=0,0,1,1")
    assert (d.R, d.Q) == ((1, 1, 0, 0), (0, 0, 1, 1))


def test_parse_space_lens_shorthand():
    d = parse_space("lens p=5 r=1,2 rp=1,3")
    expect = product_of_lens_spaces(5, (1, 2), (1, 3))
    assert (d.R, d.Q) == (expect.R, expect.Q)


def test_parse_space_rejects_garbage():
    with pytest.raises(ValueError):
        parse_space("p=5 n=2 R=1,1,0,0")
    with pytest.raises(ValueError):
        parse_space("p=5 q=1 n=2 R=1,1,0,0 Q=0,0,1,1")
    with pytest.raises(ValueError):
        parse_space("")


_DEEP = '{"p":' + "[" * 5000 + "]" * 5000 + ',"n":2,"R":[1],"Q":[1]}'


@pytest.mark.parametrize(
    "argv", [("check-free", _DEEP), ("compare", _DEEP, "lens p=5 r=1,1 rp=1,2")]
)
def test_deeply_nested_space_json_is_invalid_input(capsys, argv):
    """JSON nested past the decoder's recursion limit is invalid input
    (exit 2), not a crash with the negative-verdict exit code 1."""
    code, doc, _ = run_cli(capsys, *argv)
    assert code == 2
    assert doc["error"] == "invalid"


def test_large_bad_space_json_gets_a_short_message(capsys):
    """The error names the bad field and value type; it does not echo the
    input, which would print the whole space on stdout and stderr."""
    obj = {"p": 5, "n": 2, "R": [0.5] * 100_000, "Q": [0, 0, 1, 1]}
    with pytest.raises(ValueError) as exc:
        actions.from_json(obj)
    assert len(str(exc.value)) < 200 and "R" in str(exc.value) and "float" in str(exc.value)
    code, doc, err = run_cli(capsys, "check-free", json.dumps(obj))
    assert code == 2
    assert doc["error"] == "invalid"
    assert len(doc["message"]) < 200 and len(err) < 300
    with pytest.raises(ValueError) as exc:
        actions.from_json([0.5] * 100_000)
    assert len(str(exc.value)) < 200


_FLOATS = ",".join(["0.5"] * 100_000)  # 400,000 characters
_OUT = object()  # stands for the census --out directory, under tmp_path


@pytest.mark.parametrize(
    "argv,field",
    [
        (("check-free", f"p=5 n=2 R={_FLOATS} Q=0,0,1,1"), "R entry 1: "),
        (("check-free", f"p=5 n=2 R=1,1,0,0 Q=0,0,1,{_FLOATS}"), "Q entry 4: "),
        (("check-free", f"lens p=5 r={_FLOATS} rp=1,2"), "r entry 1: "),
        (("check-free", f"lens p=5 r=1,1 rp=1,{_FLOATS}"), "rp entry 2: "),
        (("lens-compare", "5", "--r", _FLOATS, "--rp", "1,2"), "--r entry 1: "),
        (("lens-compare", "5", "--r", "1,2", "--rp", "1," + _FLOATS), "--rp entry 2: "),
        (("check-free", "p=" + "x" * 100_000 + " n=2 R=1,1,0,0 Q=0,0,1,1"), "p: "),
        (("check-free", "p=5 n=2 R=1,1,0,0 Q=0,0,1,1 " + "x" * 100_000), "token 5: "),
        (("check-free", "lens p=5 r=1,1 rp=1,2 " + "x" * 100_000), "token 5: "),
        (("lens-compare", "x" * 100_000, "--r", "1,2", "--rp", "1,2"), "p: "),
        (("verify-application", "x" * 100_000), "p: "),
        (("verify-application", "1" * 100_000), "p: "),
        (("census", "x" * 100_000, "2", "--out", _OUT), "p: "),
        (("census", "5", "x" * 100_000, "--out", _OUT), "n: "),
        (("census", "5", "2", "--workers", "x" * 100_000, "--out", _OUT), "--workers: "),
        (("census", "5", "2", "--sample", "x" * 100_000, "--out", _OUT), "--sample: "),
        (("census", "5", "2", "--sample", "3", "--seed", "x" * 100_000, "--out", _OUT), "--seed: "),
    ],
)
def test_large_bad_inline_space_gets_a_short_message(capsys, tmp_path, argv, field):
    """An inline, lens-compare or integer argument parse error names the
    field and the 1-based position of the first bad entry; it does not echo
    the input.  A census refused so creates no --out directory."""
    out = tmp_path / "out"
    code, doc, err = run_cli(capsys, *(str(out) if a is _OUT else a for a in argv))
    assert code == 2
    assert doc["error"] == "invalid"
    assert field in doc["message"]
    assert len(doc["message"]) < 200 and len(err) < 200
    assert not out.exists()


@pytest.mark.parametrize("level", ["homotopy", "simple", "homeo"])
def test_compare_names_the_space_that_is_not_free(capsys, level):
    not_free, free = "p=5 n=2 R=1,0,0,0 Q=0,0,1,0", "lens p=5 r=1,1 rp=1,2"
    for pair, name in (((not_free, free), "the first space"), ((free, not_free), "the second space")):
        code, doc, _ = run_cli(capsys, "compare", *pair, "--level", level)
        assert code == 2
        assert doc["message"] == f"comparison requires free actions; {name} is not free"


def test_check_free_exit_codes(capsys):
    code, doc, _ = run_cli(capsys, "check-free", "lens p=5 r=1,2 rp=1,3")
    assert code == 0
    assert doc["free"] is True

    code, doc, _ = run_cli(capsys, "check-free", "p=5 n=2 R=1,0,1,0 Q=0,1,0,1")
    assert code == 1
    assert doc["violating_element"] == [1, 0]
    assert doc["violating_pair"] == [2, 2]

    code, doc, _ = run_cli(capsys, "check-free", "p=5 n=2 R=1,2,0,0 Q=2,4,0,0")
    assert code == 2
    assert doc["error"] == "invalid"


def test_invariants_output(capsys):
    code, doc, err = run_cli(capsys, "invariants", "lens p=5 r=1,1 rp=1,1")
    assert code == 0
    assert doc["k_invariant"]["first"]["coeffs"] == [1, 0, 0]
    assert doc["k_invariant"]["second"]["coeffs"] == [0, 0, 1]
    assert doc["total_pontrjagin"]["components"]["4"]["coeffs"] == [0, 0, 0]
    assert "a^2 (mod 5)" in err

    code, doc, _ = run_cli(capsys, "invariants", "p=7 n=2 R=1,2,3,4 Q=1,1,1,1")
    assert code == 0
    assert doc["k_invariant"]["first"]["coeffs"] == [2, 3, 1]
    assert doc["k_invariant"]["second"]["coeffs"] == [5, 0, 1]


# stdout of `lenspp invariants`, byte for byte: the ring model total_pontrjagin
# derives from the k-invariant reduces exactly as a caller-built one did
_INVARIANTS_STDOUT = {
    "lens p=7 r=1,2 rp=1,3": (
        '{"k_invariant":{"first":{"coeffs":[2,0,0],"deg":2},"second":{"coeffs":[0,0,3],"deg":2}},'
        '"space":{"Q":[0,0,1,3],"R":[1,2,0,0],"n":2,"p":7},'
        '"total_pontrjagin":{"components":{"4":{"coeffs":[0,0,0],"deg":2}},"truncation":3}}\n'
    ),
    "p=7 n=2 R=1,2,3,4 Q=1,1,1,1": (
        '{"k_invariant":{"first":{"coeffs":[2,3,1],"deg":2},"second":{"coeffs":[5,0,1],"deg":2}},'
        '"space":{"Q":[1,1,1,1],"R":[1,2,3,4],"n":2,"p":7},'
        '"total_pontrjagin":{"components":{"4":{"coeffs":[0,0,1],"deg":2}},"truncation":3}}\n'
    ),
    "p=11 n=3 R=1,2,3,4,5,6 Q=1,1,1,1,1,1": (
        '{"k_invariant":{"first":{"coeffs":[6,0,6,1],"deg":3},'
        '"second":{"coeffs":[10,8,4,1],"deg":3}},'
        '"space":{"Q":[1,1,1,1,1,1],"R":[1,2,3,4,5,6],"n":3,"p":11},'
        '"total_pontrjagin":{"components":{"4":{"coeffs":[3,9,6],"deg":2},'
        '"8":{"coeffs":[0,0,0,0,9],"deg":4}},"truncation":5}}\n'
    ),
}


@pytest.mark.parametrize("space", sorted(_INVARIANTS_STDOUT))
def test_invariants_stdout_bytes(capsys, space):
    assert main(["invariants", space]) == 0
    assert capsys.readouterr().out == _INVARIANTS_STDOUT[space]


def test_invariants_requires_free_space(capsys):
    code, doc, _ = run_cli(capsys, "invariants", "p=5 n=2 R=1,0,1,0 Q=0,1,0,1")
    assert code == 2
    assert doc["error"] == "invalid"


def test_invariants_hypothesis_guard(capsys):
    code, doc, _ = run_cli(
        capsys, "invariants", "p=3 n=3 R=1,1,1,0,0,0 Q=0,0,0,1,1,1"
    )
    assert code == 2


def test_compare_levels_and_exit_codes(capsys):
    same = "lens p=5 r=1,1 rp=1,1"
    for level in ("homotopy", "simple", "homeo"):
        code, doc, _ = run_cli(capsys, "compare", same, same, "--level", level)
        assert code == 0
        assert doc["equivalent"] is True
        assert doc["witness"]["A"] == [[1, 0], [0, 1]]

    code, doc, _ = run_cli(
        capsys, "compare", "lens p=5 r=1,1 rp=1,1", "lens p=5 r=1,1 rp=1,4",
        "--level", "homeo",
    )
    assert code == 0

    code, doc, _ = run_cli(
        capsys, "compare", "lens p=5 r=1,1 rp=1,1", "lens p=5 r=1,1 rp=1,2",
        "--level", "homotopy",
    )
    assert code == 1
    assert doc["witness"] is None


def test_compare_marked_flag(capsys):
    code, doc, _ = run_cli(
        capsys, "compare", "lens p=5 r=1,1 rp=1,1",
        "p=5 n=2 R=2,2,0,0 Q=0,0,1,1", "--marked",
    )
    assert code == 0
    assert doc["witness"]["A"] == [[1, 0], [0, 1]]


def test_compare_hypothesis_violation_exit(capsys):
    same = "lens p=3 r=1,1 rp=1,1"
    code, doc, _ = run_cli(capsys, "compare", same, same)
    assert code == 2
    assert doc["error"] == "invalid"


@pytest.mark.parametrize("level", ["homotopy", "simple", "homeo"])
def test_compare_refuses_invalid_input_before_comparing_p_and_n(capsys, level):
    """A non-free space is invalid input (exit 2) against a space of another
    (p, n) too, not a negative verdict."""
    not_free = "p=5 n=2 R=1,0,0,0 Q=0,0,1,0"
    for other in ("lens p=7 r=1,1 rp=1,2", "lens p=5 r=1,1 rp=1,2"):
        for pair in ((not_free, other), (other, not_free)):
            code, doc, _ = run_cli(capsys, "compare", *pair, "--level", level)
            assert code == 2
            assert doc["error"] == "invalid"


def test_census_command(tmp_path, capsys):
    out = tmp_path / "census"
    code, doc, err = run_cli(capsys, "census", "3", "2", "--out", str(out))
    assert code == 0
    assert doc["free_count"] == 1344
    assert doc["outside_hypotheses"] is True
    assert "outside the classification hypotheses" in err
    assert (out / "census_p3_n2.ndjson").exists()
    assert (out / "summary.csv").exists()


def test_census_capacity_exit(tmp_path, capsys):
    code, doc, _ = run_cli(capsys, "census", "11", "2", "--out", str(tmp_path))
    assert code == 3
    assert doc["error"] == "capacity"


def test_census_workers_is_a_no_op(tmp_path, capsys):
    """--workers K is accepted and ignored: the census runs in one process."""
    runs = []
    for name, extra in (("one", []), ("four", ["--workers", "4"])):
        code, _, _ = run_cli(capsys, "census", "3", "2", "--out", str(tmp_path / name), *extra)
        assert code == 0
        runs.append([(tmp_path / name / f).read_bytes() for f in ("census_p3_n2.ndjson", "summary.csv")])
    assert runs[0] == runs[1]


def test_sampled_census_past_the_gl2_cap_is_refused_at_once(tmp_path, capsys):
    """Refused before free_count's sum of big binomials, which takes tens of
    seconds at n = 300."""
    out = tmp_path / "census"
    start = time.process_time()
    code, doc, _ = run_cli(capsys, "census", "1000003", "300", "--sample", "1", "--out", str(out))
    assert time.process_time() - start < 1
    assert (code, doc["error"]) == (3, "capacity")
    assert not out.exists()


@pytest.mark.parametrize("argv", [["5", "1", "--sample", "3"], ["5", "2", "--sample", "-5"]])
def test_census_invalid_request_exit(tmp_path, capsys, argv):
    out = tmp_path / "census"
    code, doc, _ = run_cli(capsys, "census", *argv, "--out", str(out))
    assert code == 2
    assert doc["error"] == "invalid"
    assert not out.exists()


def test_census_out_file_is_invalid_before_the_census_runs(tmp_path, capsys, monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("run_census called")

    monkeypatch.setattr(cli, "run_census", forbidden)
    out = tmp_path / "taken"
    out.write_text("not a directory")
    code = main(["census", "3", "2", "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out.count("\n") == 1
    assert json.loads(captured.out)["error"] == "invalid"
    assert out.read_text() == "not a directory"


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_census_workers_below_one_is_invalid_before_the_census_runs(
    tmp_path, capsys, monkeypatch, workers
):
    def forbidden(*args, **kwargs):
        raise AssertionError("run_census called")

    monkeypatch.setattr(cli, "run_census", forbidden)
    out = tmp_path / "census"
    code = main(["census", "3", "2", "--out", str(out), "--workers", workers])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out.count("\n") == 1
    assert json.loads(captured.out)["error"] == "invalid"
    assert not out.exists()


def test_census_with_p_at_most_n_is_invalid_before_the_census_runs(
    tmp_path, capsys, monkeypatch
):
    def forbidden(*args, **kwargs):
        raise AssertionError("run_census called")

    monkeypatch.setattr(cli, "run_census", forbidden)
    out = tmp_path / "census"
    code = main(["census", "3", "3", "--out", str(out), "--sample", "1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out.count("\n") == 1
    assert json.loads(captured.out)["error"] == "invalid"
    assert not out.exists()


def test_census_help_names_the_sample_caps(capsys, tmp_path):
    """--sample's help gives the GL2 cap and the orbit cap, both read from
    the code, and a sample at p = 37, the next prime past the GL2 cap,
    exits 3."""
    with pytest.raises(SystemExit) as exc:
        main(["census", "--help"])
    assert exc.value.code == 0
    text = " ".join(capsys.readouterr().out.split())
    assert f"n < p <= {GL2_PRIME_CAP};" in text
    assert f"exceeds {ORBIT_SIZE_CAP:,} pairs" in text
    assert "any p" not in text
    code, doc, _ = run_cli(capsys, "census", "37", "2", "--out", str(tmp_path / "c"), "--sample", "1")
    assert (code, doc["error"]) == (3, "capacity")


@pytest.mark.parametrize("p, n", [("11", "3"), ("17", "2")])
def test_sampled_census_with_an_oversized_orbit_refuses_within_budget(tmp_path, p, n):
    proc = run_cli_process("census", p, n, "--out", str(tmp_path / "census"), "--sample", "1")
    assert proc.returncode == 3, proc.stderr
    assert json.loads(proc.stdout)["error"] == "capacity"


@pytest.mark.parametrize("out, existed", [("census", False), ("a/b", False), ("census", True)])
def test_census_refused_mid_run_removes_only_the_directories_it_created(
    tmp_path, capsys, out, existed
):
    """census 17 2 --sample 1 passes the request checks and creates --out,
    then run_census refuses the orbit (exit 3)."""
    out = tmp_path / out
    if existed:
        out.mkdir()
    code, doc, _ = run_cli(capsys, "census", "17", "2", "--out", str(out), "--sample", "1")
    assert code == 3
    assert doc["error"] == "capacity"
    assert out.is_dir() == existed
    assert sorted(p.name for p in tmp_path.iterdir()) == (["census"] if existed else [])


def test_census_sampled(tmp_path, capsys):
    code, doc, _ = run_cli(
        capsys, "census", "7", "2", "--out", str(tmp_path), "--sample", "6",
        "--seed", "1",
    )
    assert code == 0
    assert doc["sampled"] is True
    assert doc["free_count"] == 6


def test_verify_application_command(capsys):
    code, doc, err = run_cli(capsys, "verify-application", "5")
    assert code == 0
    assert doc["quadruples"] == 256
    assert doc["ok"] is True
    assert "256 quadruples" in err


@pytest.mark.parametrize("p, code, error", [("3", 2, "invalid"), ("13", 3, "capacity")])
def test_verify_application_refusals(capsys, p, code, error):
    """p = 3 breaks the deciders' p > 3, so it is invalid input (exit 2);
    p = 13 satisfies them but is past the supported primes (exit 3)."""
    got, doc, _ = run_cli(capsys, "verify-application", p)
    assert (got, doc["error"]) == (code, error)


@pytest.mark.parametrize(
    "space, key",
    [
        ("p=5 n=2 R=1,1,0,0 Q=0,0,1,1 n=2", "n"),
        ("p=5 p=7 n=2 R=1,1,0,0 Q=0,0,1,1", "p"),
        ("lens p=5 r=1,2 rp=1,3 r=1,2", "r"),
    ],
)
def test_duplicate_key_in_a_space_is_invalid(capsys, space, key):
    code, doc, _ = run_cli(capsys, "check-free", space)
    assert code == 2
    assert doc == {"error": "invalid", "message": f"duplicate key {key!r}"}


def test_lens_compare_refuses_tuples_of_different_length(capsys):
    code, doc, err = run_cli(capsys, "lens-compare", "5", "--r", "1,2", "--rp", "1")
    assert code == 2
    assert doc == {"error": "invalid", "message": "rotation tuples must have length n = 2"}
    assert "rotation tuples must have length n = 2" in err


def test_lens_compare_command(capsys):
    code, doc, _ = run_cli(capsys, "lens-compare", "7", "--r", "1,1", "--rp", "1,2")
    assert code == 0
    assert doc["homotopy_equivalent"] is True
    assert doc["simple_homotopy_equivalent"] is False

    code, doc, _ = run_cli(
        capsys, "lens-compare", "7", "--r", "1,1", "--rp", "1,2", "--level", "simple"
    )
    assert code == 1

    code, doc, _ = run_cli(capsys, "lens-compare", "5", "--r", "1,0", "--rp", "1,1")
    assert code == 2


def test_malformed_json_space(capsys):
    code, doc, _ = run_cli(capsys, "check-free", '{"p": 5, "n": 2')
    assert code == 2
    assert doc["error"] == "invalid"


def test_stdout_is_single_json_document(capsys):
    code = main(["compare", "lens p=5 r=1,1 rp=1,1", "lens p=5 r=1,1 rp=1,1"])
    captured = capsys.readouterr()
    assert code == 0
    json.loads(captured.out)
    assert captured.out.count("\n") == 1


@pytest.mark.parametrize(
    "space",
    [
        '{"p": 5, "n": 2, "R": [1, 1, 0, 0], "Q": "0011"}',
        '{"p": "5", "n": 2, "R": [1, 1, 0, 0], "Q": [0, 0, 1, 1]}',
        '{"p": 5, "n": 2.0, "R": [1, 1, 0, 0], "Q": [0, 0, 1, 1]}',
        '{"p": 5, "n": 2, "R": [true, 1, 0, 0], "Q": [0, 0, 1, 1]}',
        '{"p": 5, "n": 2, "R": [1, 1, 0, 0], "Q": [0, 0, [1], 1]}',
    ],
)
def test_json_space_with_non_integer_field_exits_2(capsys, space):
    code, doc, _ = run_cli(capsys, "check-free", space)
    assert code == 2
    assert doc["error"] == "invalid"


def run_cli_process(*argv, timeout=20):
    """Run the CLI in a fresh interpreter; fails if it exceeds timeout seconds."""
    src = str(Path(lenspp.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    return subprocess.run(
        [sys.executable, "-m", "lenspp", *argv],
        capture_output=True, text=True, timeout=timeout, env=env,
    )


def test_check_free_large_prime_answers_within_budget():
    proc = run_cli_process("check-free", "lens p=100003 r=1,1 rp=1,2")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["free"] is True


def test_compare_homeo_beyond_gl2_cap_refuses_within_budget():
    proc = run_cli_process(
        "compare", "--level", "homeo", "lens p=10007 r=1,1 rp=1,1", "lens p=10007 r=1,2 rp=1,3"
    )
    assert proc.returncode == 3, proc.stderr
    assert json.loads(proc.stdout)["error"] == "capacity"


def test_check_free_mersenne_prime_answers_within_budget():
    proc = run_cli_process("check-free", "lens p=2305843009213693951 r=1,1 rp=1,2")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["free"] is True


def test_lens_compare_mersenne_prime_answers_within_budget():
    proc = run_cli_process("lens-compare", "2305843009213693951", "--r", "1,1", "--rp", "1,2")
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    # 2 is a square mod 2^61 - 1 (which is 7 mod 8); no unit k carries {1, 2} onto {1, 1}
    assert (doc["homotopy_equivalent"], doc["simple_homotopy_equivalent"]) == (True, False)


def test_oversized_sample_refuses_within_budget(tmp_path):
    proc = run_cli_process("census", "3", "2", "--sample", "1000000", "--out", str(tmp_path))
    assert proc.returncode == 3, proc.stderr
    assert json.loads(proc.stdout)["error"] == "capacity"


def _profile(text):
    d = parse_space(text)
    return _pencil(d.p, *k_pair(d.p, d.n, d.R, d.Q))[2]


def test_compare_homeo_of_equal_spaces_beyond_gl2_cap_answers(capsys):
    same = "lens p=101 r=1,2 rp=1,3"
    code, doc, _ = run_cli(capsys, "compare", "--level", "homeo", same, same)
    assert code == 0
    assert (doc["equivalent"], doc["checked_pairs"]) == (True, 1)


def test_compare_beyond_gl2_cap_refuses_before_the_profile_prune():
    X, Y = "p=37 n=2 R=5,32,2,23 Q=28,33,6,29", "p=37 n=2 R=32,23,4,14 Q=1,20,22,33"
    assert _profile(X) != _profile(Y)
    proc = run_cli_process("compare", "--level", "homeo", X, Y)
    assert proc.returncode == 3, proc.stderr
    assert json.loads(proc.stdout)["error"] == "capacity"


def test_compare_at_the_gl2_cap_answers_a_profile_differing_pair_within_budget():
    X, Y = "p=31 n=2 R=0,15,3,24 Q=12,4,21,1", "p=31 n=2 R=4,30,3,17 Q=7,22,24,4"
    assert _profile(X) != _profile(Y)
    proc = run_cli_process("compare", "--level", "homeo", X, Y)
    assert proc.returncode == 1, proc.stderr  # an answer: the negative verdict
    doc = json.loads(proc.stdout)
    assert (doc["equivalent"], doc["checked_pairs"]) == (False, 0)
