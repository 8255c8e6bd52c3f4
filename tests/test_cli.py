import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import lenspp
from lenspp.actions import product_of_lens_spaces
from lenspp.cli import main, parse_space


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

    code, doc, _ = run_cli(capsys, "verify-application", "13")
    assert code == 3


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


def test_oversized_sample_refuses_within_budget(tmp_path):
    proc = run_cli_process("census", "3", "2", "--sample", "1000000", "--out", str(tmp_path))
    assert proc.returncode == 3, proc.stderr
    assert json.loads(proc.stdout)["error"] == "capacity"
