"""Command line front end.

Machine-readable JSON goes to stdout (one document per invocation), human
commentary to stderr.  Exit codes: 0 success (and "equivalent" / "free" /
"no discrepancies"), 1 negative verdict, 2 invalid input or hypothesis
violation, 3 capacity refusal.

Spaces are given either as a JSON object {"p":5,"n":2,"R":[...],"Q":[...]},
as inline tokens "p=5 n=2 R=1,1,0,0 Q=0,0,1,1", or as a lens-product
shorthand "lens p=5 r=1,2 rp=1,3".
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import actions
from .actions import RotationData, product_of_lens_spaces, validate
from .census import _require_census, run_census, verify_application, write_census
from .classify import (
    ORBIT_SIZE_CAP,
    homeomorphic,
    homotopy_equivalent,
    lens_homotopy_equivalent,
    lens_simple_homotopy_equivalent,
    simple_homotopy_equivalent,
)
from .errors import CapacityError
from .forms import k_invariant
from .gfp import GL2_PRIME_CAP
from .pontrjagin import total_pontrjagin

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INVALID = 2
EXIT_CAPACITY = 3


def _emit(doc: dict) -> None:
    print(json.dumps(doc, sort_keys=True, separators=(",", ":")))


def _note(text: str) -> None:
    print(text, file=sys.stderr)


# Parse errors name the field and the 1-based position of the bad entry, and
# quote at most 20 characters of it: the input may be large.  The integer
# arguments of the subcommands are read as text and converted here too.
def _int(field: str, text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"{field}: expected an integer, got {text[:20]!r}") from None


def _ints(field: str, text: str) -> tuple[int, ...]:
    return tuple(_int(f"{field} entry {i}", tok) for i, tok in enumerate(text.split(","), 1))


def _kv(tokens: list[str], allowed: set[str], first: int = 1) -> dict[str, str]:
    out: dict[str, str] = {}
    for i, tok in enumerate(tokens, first):  # tokens[0] is token `first` of the input
        key, sep, value = tok.partition("=")
        if not sep or key not in allowed:
            raise ValueError(f"unrecognized token {i}: {tok[:20]!r}; expected key=value with key in {sorted(allowed)}")
        if key in out:
            raise ValueError(f"duplicate key {key!r}")
        out[key] = value
    missing = allowed - out.keys()
    if missing:
        raise ValueError(f"missing keys: {sorted(missing)}")
    return out


def parse_space(text: str) -> RotationData:
    """Accepts the JSON, inline, and lens-shorthand space syntaxes."""
    text = text.strip()
    if text.startswith("{"):
        try:
            obj = json.loads(text)
        except RecursionError:
            raise ValueError("space JSON is nested too deeply") from None
        return actions.from_json(obj)
    tokens = text.split()
    if not tokens:
        raise ValueError("empty space description")
    if tokens[0] == "lens":
        kv = _kv(tokens[1:], {"p", "r", "rp"}, 2)
        return product_of_lens_spaces(_int("p", kv["p"]), _ints("r", kv["r"]), _ints("rp", kv["rp"]))
    kv = _kv(tokens, {"p", "n", "R", "Q"})
    p, n = _int("p", kv["p"]), _int("n", kv["n"])
    return validate(RotationData(p, n, _ints("R", kv["R"]), _ints("Q", kv["Q"])))


def _cmd_check_free(args: argparse.Namespace) -> int:
    data = parse_space(args.space)
    report = actions.is_free(data)
    _emit(report.to_json())
    if report.free:
        _note(f"free: every nonzero group element acts without fixed points (p={data.p}, n={data.n})")
        return EXIT_OK
    gamma = report.violating_element
    i, j = report.violating_pair
    _note(
        f"not free: element {gamma} rotates trivially on plane {i} of the first"
        f" factor and plane {j} of the second, so it fixes a point"
    )
    return EXIT_NEGATIVE


def _cmd_invariants(args: argparse.Namespace) -> int:
    data = parse_space(args.space)
    report = actions.is_free(data)
    if not report.free:
        raise ValueError("invariants are defined for free actions only; this one is not free")
    k = k_invariant(data)
    cls = total_pontrjagin(data)
    _emit(
        {
            "space": actions.to_json(data),
            "k_invariant": k.to_json(),
            "total_pontrjagin": cls.to_json(),
        }
    )
    _note(f"k-invariant first block:  {k.first.render()}")
    _note(f"k-invariant second block: {k.second.render()}")
    for deg, form in cls.components:
        _note(f"pontrjagin degree {deg}: {form.render()}")
    return EXIT_OK


_LEVELS = {
    "homotopy": homotopy_equivalent,
    "simple": simple_homotopy_equivalent,
    "homeo": homeomorphic,
}


def _cmd_compare(args: argparse.Namespace) -> int:
    X = parse_space(args.space_x)
    Y = parse_space(args.space_y)
    verdict = _LEVELS[args.level](X, Y, marked=args.marked)
    _emit(verdict.to_json())
    state = "equivalent" if verdict.equivalent else "not equivalent"
    _note(f"{verdict.level}: {state} ({verdict.checked_pairs} substitution pairs checked)")
    if verdict.witness is not None:
        _note(f"witness A={verdict.witness.A} B={verdict.witness.B}")
    return EXIT_OK if verdict.equivalent else EXIT_NEGATIVE


def _cmd_census(args: argparse.Namespace) -> int:
    p, n = _int("p", args.p), _int("n", args.n)
    workers, seed = _int("--workers", args.workers), _int("--seed", args.seed)
    sample = None if args.sample is None else _int("--sample", args.sample)
    # refuse the request, then an unusable --out, before the census runs
    if workers < 1:
        raise ValueError(f"worker count must be at least 1, got {workers}")
    _require_census(p, n, sample)
    out = Path(args.out)
    made = [d for d in (out, *out.parents) if not d.exists()]  # deepest first
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ValueError(f"--out {args.out!r} is not a usable directory: {exc}") from exc
    try:
        record = run_census(p, n, sample=sample, seed=seed)
    except BaseException:
        # a census refused or interrupted mid-run leaves no empty --out behind
        for d in made:
            d.rmdir()
        raise
    paths = write_census(record, args.out)
    if record.outside_hypotheses:
        _note(
            f"warning: p={record.p}, n={record.n} is outside the classification "
            "hypotheses (p > 3 and p > n+1); counts are raw invariant cells"
        )
    _note(
        f"census p={record.p} n={record.n}: {record.free_count} free spaces, "
        f"{record.homotopy_classes} homotopy classes, "
        f"{record.homeomorphism_classes} homeomorphism classes"
    )
    for path in paths:
        _note(f"wrote {path}")
    doc = record.summary_json()
    doc["files"] = [str(path) for path in paths]
    _emit(doc)
    return EXIT_OK


def _cmd_verify_application(args: argparse.Namespace) -> int:
    report = verify_application(_int("p", args.p))
    _emit(report.to_json())
    if report.ok:
        _note(
            f"p={report.p}: criterion and classifier agree on all "
            f"{report.quadruples} quadruples ({report.criterion_true} equivalent)"
        )
        return EXIT_OK
    _note(
        f"p={report.p}: {len(report.sufficiency_discrepancies)} sufficiency and "
        f"{len(report.necessity_discrepancies)} necessity discrepancies"
    )
    return EXIT_NEGATIVE


def _cmd_lens_compare(args: argparse.Namespace) -> int:
    p = _int("p", args.p)
    r = _ints("--r", args.r)
    rp = _ints("--rp", args.rp)
    n = len(r)
    homotopy = lens_homotopy_equivalent(p, n, r, rp)
    simple = lens_simple_homotopy_equivalent(p, n, r, rp)
    _emit(
        {
            "p": p,
            "n": n,
            "r": list(r),
            "rp": list(rp),
            "homotopy_equivalent": homotopy,
            "simple_homotopy_equivalent": simple,
        }
    )
    _note(f"homotopy equivalent: {homotopy}; simple homotopy equivalent: {simple}")
    chosen = homotopy if args.level == "homotopy" else simple
    return EXIT_OK if chosen else EXIT_NEGATIVE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lenspp",
        description="Exact classification of free linear (Z/p)^2 quotients of "
        "products of two odd-dimensional spheres.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_free = sub.add_parser("check-free", help="decide whether the action is free")
    p_free.add_argument("space")
    p_free.set_defaults(func=_cmd_check_free)

    p_inv = sub.add_parser(
        "invariants", help="k-invariant and reduced total Pontrjagin class"
    )
    p_inv.add_argument("space")
    p_inv.set_defaults(func=_cmd_invariants)

    p_cmp = sub.add_parser("compare", help="decide equivalence of two quotients")
    p_cmp.add_argument("space_x")
    p_cmp.add_argument("space_y")
    p_cmp.add_argument("--level", choices=sorted(_LEVELS), default="homotopy")
    p_cmp.add_argument(
        "--marked",
        action="store_true",
        help="restrict to equivalences fixing the identification of the group",
    )
    p_cmp.set_defaults(func=_cmd_compare)

    p_census = sub.add_parser("census", help="enumerate and classify all free spaces")
    p_census.add_argument("p")
    p_census.add_argument("n")
    p_census.add_argument("--out", required=True, help="output directory")
    p_census.add_argument(
        "--workers", default="1",
        help="accepted for compatibility; the census runs in one process",
    )
    p_census.add_argument(
        "--sample", default=None,
        help=(
            "classify this many distinct free spaces drawn at random instead of all "
            f"(n < p <= {GL2_PRIME_CAP}; exit 3 on a homotopy class whose orbit "
            f"exceeds {ORBIT_SIZE_CAP:,} pairs, as at p = 17, n = 2)"
        ),
    )
    p_census.add_argument("--seed", default="0", help="seed of the --sample draw")
    p_census.set_defaults(func=_cmd_census)

    p_app = sub.add_parser(
        "verify-application",
        help="check the quadratic-residue criterion against the classifier",
    )
    p_app.add_argument("p")
    p_app.set_defaults(func=_cmd_verify_application)

    p_lens = sub.add_parser(
        "lens-compare", help="classical equivalences of the lens-space factors"
    )
    p_lens.add_argument("p")
    p_lens.add_argument("--r", required=True)
    p_lens.add_argument("--rp", required=True)
    p_lens.add_argument("--level", choices=["homotopy", "simple"], default="homotopy")
    p_lens.set_defaults(func=_cmd_lens_compare)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CapacityError as exc:
        _emit({"error": "capacity", "message": str(exc)})
        _note(f"capacity: {exc}")
        return EXIT_CAPACITY
    except (ValueError, ZeroDivisionError, json.JSONDecodeError) as exc:
        _emit({"error": "invalid", "message": str(exc)})
        _note(f"invalid: {exc}")
        return EXIT_INVALID


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
