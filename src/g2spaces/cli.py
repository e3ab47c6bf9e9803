"""Command line interface: JSON in, JSON or text out, deterministic output.

Exit codes: 0 on full success, 1 when a mathematical check fails or a
verdict is negative, 2 on malformed input, 3 on an internal error, which
prints one ``internal error: <Type>: <message>`` line on stderr.  When the
reader closes standard output early the command prints nothing more and
exits 141, as a process killed by SIGPIPE does.
"""

import argparse
import json
import os
import sys
from fractions import Fraction

from .acceptance import CRITERIA
from .bethe import (
    BetheTuple,
    descendants,
    dominant_representative,
    genericity_defect,
    population_bfs,
    shifted_orbit,
    space_from_population,
    weight_at_infinity,
)
from .fixtures import SEEDS, SPACES, factorial_basis, get_seed, get_space
from .g2 import (
    WRONSKIAN_TABLE,
    _unit,
    check_ssd,
    find_standard_basis,
    flag_is_g2_isotropic,
    flag_to_pair,
    kernel_2form,
    table_identities,
    three_form_from_spin,
    three_form_routes,
)
from .polynomials import Poly, wronskian
from .scalars import QExt
from .spaces import PolySpace, SpaceError, witt_basis
from .spin import SpinError, preimages, spinor_embed

F = Fraction


class InputError(Exception):
    """Malformed or missing input; maps to exit code 2."""


class MathFailure(Exception):
    """A well-posed computation with a negative outcome; exit code 1."""


def _emit(args, payload, lines) -> None:
    if getattr(args, "json", False):
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in lines:
            print(line)


def _load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise InputError(f"{path} is not valid JSON: {exc}") from None


def _space_from_args(args) -> PolySpace:
    if getattr(args, "file", None):
        obj = _load_json(args.file)
        try:
            return PolySpace.from_json(obj)
        except SpaceError as exc:
            raise MathFailure(f"space rejected: {exc}") from None
        except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
            raise InputError(f"bad space file: {exc}") from None
    return get_space(args.fixture)


def _parse_rational(x) -> F:
    try:
        return F(str(x))
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"bad rational {x!r}: {exc}") from None


def _parse_qext(x) -> QExt:
    if isinstance(x, dict):
        try:
            return QExt.from_json(x)
        except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
            raise InputError(f"bad field element {x!r}: {exc}") from None
    return QExt.lift(_parse_rational(x))


def _parse_vector(obj, parse, length=7):
    if not isinstance(obj, (list, tuple)) or len(obj) != length:
        raise InputError(f"expected a vector of {length} entries")
    return [parse(c) for c in obj]


def _poly_from_flag(text: str) -> Poly:
    try:
        return Poly([F(s.strip()) for s in text.split(",")])
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"bad coefficient list {text!r}: {exc}") from None


# -- space ------------------------------------------------------------------


def cmd_space_analyze(args) -> int:
    space = _space_from_args(args)
    payload = {
        "basis": [p.to_json() for p in space.basis],
        "dimension": space.dim,
        "degrees": list(space.degrees),
    }
    lines = [
        f"dimension: {space.dim}",
        "degrees: " + " ".join(str(d) for d in space.degrees),
    ]
    stage = "dimension"
    if space.dim != 7:
        verdict, reason = "not_ssd", f"dimension {space.dim}, need 7"
    else:
        try:
            stage = "self-dual"
            self_dual = bool(space.is_self_dual())
            payload["self_dual"] = self_dual
            lines.append("self-dual: " + ("yes" if self_dual else "no"))
            if not self_dual:
                verdict, reason = "not_ssd", "space is not self-dual"
            else:
                stage = "ramification"
                T = space.ramification
                payload["ramification"] = [str(t) for t in T]
                lines.append("ramification: " + ", ".join(str(t) for t in T))
                stage = "bilinear-form"
                gram = space.bilinear_form().gram
                payload["gram"] = [[str(c) for c in row] for row in gram]
                lines.append("gram matrix:")
                lines.extend("  " + " ".join(str(c) for c in row) for row in gram)
                stage = "standard-basis"
                result = check_ssd(space)
                verdict, reason = result.verdict, result.reason
        except SpaceError as exc:
            verdict, reason = "not_ssd", str(exc)
    payload["ssd"] = {"verdict": verdict, "reason": reason, "stage": stage}
    lines.append(f"ssd verdict: {verdict} ({reason}; stage: {stage})")
    _emit(args, payload, lines)
    return 0 if verdict == "ssd" else 1


def cmd_space_witt(args) -> int:
    space = _space_from_args(args)
    try:
        wb = witt_basis(space)
    except SpaceError as exc:
        raise MathFailure(f"no hyperbolic basis: {exc}") from None
    payload = {
        "basis": [p.to_json() for p in space.basis],
        "vectors": [v.to_json() for v in wb.vectors],
        "scales": [str(s) for s in wb.scales],
        "steps": [wb.m, wb.n],
    }
    lines = [f"v{i} = {v}" for i, v in enumerate(wb.vectors, 1)]
    lines.append("scales: " + " ".join(str(s) for s in wb.scales))
    lines.append(f"exponent steps: m={wb.m} n={wb.n}")
    _emit(args, payload, lines)
    return 0


def cmd_space_standard_basis(args) -> int:
    space = _space_from_args(args)
    try:
        result = find_standard_basis(space)
    except SpaceError as exc:
        raise MathFailure(str(exc)) from None
    payload = {
        "basis": [p.to_json() for p in space.basis],
        "status": result.status,
        "method": result.method,
        "detail": result.detail,
        "vectors": [v.to_json() for v in result.vectors] if result.vectors else None,
    }
    lines = [f"status: {result.status}"]
    if result.status == "found":
        lines.append(f"method: {result.method}")
        lines.extend(f"v{i} = {v}" for i, v in enumerate(result.vectors, 1))
    else:
        lines.append(f"detail: {result.detail}")
    _emit(args, payload, lines)
    return 0 if result.status == "found" else 1


def cmd_space_check_ssd(args) -> int:
    space = _space_from_args(args)
    result = check_ssd(space)
    payload = {
        "basis": [p.to_json() for p in space.basis],
        "verdict": result.verdict,
        "reason": result.reason,
        "standard_basis": [v.to_json() for v in result.basis] if result.basis else None,
    }
    lines = [f"verdict: {result.verdict}", f"reason: {result.reason}"]
    if result.basis:
        lines.extend(f"v{i} = {v}" for i, v in enumerate(result.basis, 1))
    _emit(args, payload, lines)
    return 0 if result.verdict == "ssd" else 1


# -- poly -------------------------------------------------------------------


def cmd_poly_wronskian(args) -> int:
    obj = _load_json(args.file)
    if isinstance(obj, dict):
        obj = obj.get("polys", obj.get("basis"))
    if not isinstance(obj, list) or not obj:
        raise InputError('expected a list of coefficient lists (or {"polys": [...]})')
    if len(obj) > 8:
        raise InputError(f"the Wronskian takes at most 8 polynomials, got {len(obj)}")
    try:
        polys = [Poly.from_json(row) for row in obj]
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise InputError(f"bad polynomial data: {exc}") from None
    w = wronskian(polys)
    _emit(args, {"wronskian": w.to_json()}, [str(w)])
    return 0


# -- spin -------------------------------------------------------------------


def cmd_spin_embed(args) -> int:
    if args.file:
        obj = _load_json(args.file)
        if isinstance(obj, dict):
            spaces = obj.get("spaces", [obj.get("basis")])
            if not isinstance(spaces, list) or not spaces:
                raise InputError('expected a non-empty list under "spaces"')
            obj = spaces[0]
        if not isinstance(obj, list) or len(obj) != 3:
            raise InputError("expected three coordinate vectors")
        triple = [_parse_vector(row, _parse_qext) for row in obj]
    else:
        triple = [_unit(1), _unit(2), _unit(3)]
    try:
        s = spinor_embed(triple)
    except SpinError as exc:
        raise MathFailure(str(exc)) from None
    payload = {"spinor": s.to_json()}
    lines = [f"spinor: {s}", "on the conic: yes"]
    _emit(args, payload, lines)
    return 0


def cmd_spin_preimages(args) -> int:
    if args.file:
        v = _parse_vector(_load_json(args.file), _parse_qext)
    else:
        v = _unit(4)
    try:
        pre = preimages(v)
    except ValueError as exc:
        raise InputError(str(exc)) from None
    spaces = [[[QExt.lift(c) for c in u] for u in sp] for sp in pre.spaces]
    payload = {
        "kind": pre.kind,
        "spaces": [[[c.to_json() for c in u] for u in sp] for sp in spaces],
        "lines": [s.to_json() for s in pre.lines],
    }
    out = [f"kind: {pre.kind}"]
    for idx, sp in enumerate(spaces, 1):
        out.append(f"space {idx}:")
        out.extend("  (" + ", ".join(str(c) for c in u) + ")" for u in sp)
    if not pre.spaces:
        out.append("no isotropic 3-spaces over this field")
    _emit(args, payload, out)
    return 0


# -- g2 ---------------------------------------------------------------------


def cmd_g2_threeform(args) -> int:
    values = []
    lines = ["nonzero values:"]
    agree = True
    for key, a, b, explicit in three_form_routes():
        agree = agree and a == b
        values.append({"triple": list(key), "spin": str(a), "wronskian": str(b)})
        if explicit:
            lines.append("  w({},{},{}) = {}".format(*key, a))
    payload = {"values": values, "routes_agree": agree}
    lines.append("all other triples: 0")
    lines.append("spin and Wronskian routes agree: " + ("yes" if agree else "NO"))
    _emit(args, payload, lines)
    return 0 if agree else 1


def cmd_g2_kernel(args) -> int:
    if args.file:
        v = _parse_vector(_load_json(args.file), _parse_rational)
    else:
        v = [F(int(k == 1)) for k in range(1, 8)]
    ker = kernel_2form(three_form_from_spin(), v)
    payload = {
        "vector": [str(c) for c in v],
        "dimension": len(ker),
        "basis": [[str(c) for c in u] for u in ker],
    }
    lines = [f"contraction kernel dimension: {len(ker)}"]
    lines.extend("  (" + ", ".join(str(c) for c in u) + ")" for u in ker)
    _emit(args, payload, lines)
    return 0


def cmd_g2_flags(args) -> int:
    form = three_form_from_spin()
    if args.file:
        obj = _load_json(args.file)
        if not isinstance(obj, list) or len(obj) != 3:
            raise InputError("expected three coordinate vectors")
        triple = [_parse_vector(row, _parse_rational) for row in obj]
    else:
        triple = [_unit(1), _unit(2), _unit(3)]
    ok = flag_is_g2_isotropic(form, triple)
    payload = {"compatible": ok}
    lines = ["flag is compatible with the form: " + ("yes" if ok else "no")]
    if ok:
        space = get_space("deg6")
        y1, y2 = flag_to_pair(space, witt_basis(space), triple)
        payload["pair"] = {"y1": y1.to_json(), "y2": y2.to_json()}
        lines.append(f"attached pair: y1 = {y1}, y2 = {y2}")
    _emit(args, payload, lines)
    return 0 if ok else 1


# -- bethe ------------------------------------------------------------------


def _seed_from_args(args) -> BetheTuple:
    """The seed named by the arguments; a non-generic seed is a MathFailure."""
    if args.file:
        obj = _load_json(args.file)
        try:
            seed = BetheTuple.from_json(obj)
        except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
            raise InputError(f"bad seed file: {exc}") from None
    else:
        seed = get_seed(args.fixture)
    if args.T1 is not None or args.T2 is not None:
        if seed.kind != "G2":
            raise InputError("ramification flags apply to pair seeds only")
        T1 = seed.T[0] if args.T1 is None else _poly_from_flag(args.T1)
        T2 = seed.T[1] if args.T2 is None else _poly_from_flag(args.T2)
        try:
            seed = BetheTuple(seed.kind, seed.polys, [T1, T2])
        except ValueError as exc:
            raise InputError(f"bad ramification flags: {exc}") from None
    defect = genericity_defect(seed)
    if defect is not None:
        raise MathFailure(f"seed rejected: {defect}")
    return seed


def cmd_bethe_reproduce(args) -> int:
    seed = _seed_from_args(args)
    ndirs = len(seed.polys)
    if args.direction is not None and not 1 <= args.direction <= ndirs:
        raise InputError(f"direction must be between 1 and {ndirs}")
    dirs = [args.direction] if args.direction else list(range(1, ndirs + 1))
    children = {}
    lines = [f"seed: {seed}"]
    for i in dirs:
        kids = descendants(seed, i)
        children[str(i)] = [k.to_json() for k in kids]
        if kids:
            shown = " | ".join(str(k.polys[i - 1]) for k in kids)
            lines.append(f"direction {i}: {shown}")
        else:
            lines.append(f"direction {i}: infertile (no generic partners)")
    _emit(args, {"seed": seed.to_json(), "children": children}, lines)
    return 0


def cmd_bethe_population(args) -> int:
    if args.depth < 0:
        raise InputError(f"--depth must be at least 0, got {args.depth}")
    if args.max_nodes < 1:
        raise InputError(f"--max-nodes must be at least 1, got {args.max_nodes}")
    seed = _seed_from_args(args)
    pop = population_bfs(seed, depth=args.depth, max_nodes=args.max_nodes)
    origin = {child: (direction, parent) for child, direction, parent in pop.edges}
    nodes = []
    for idx, member in enumerate(pop.members):
        direction, parent = origin.get(idx, (None, None))
        nodes.append({"tuple": member.to_json(), "direction": direction, "parent": parent})
    payload = {"population": nodes, "size": len(nodes)}
    lines = [f"members: {len(nodes)} (depth {args.depth})"]
    failed = None
    try:
        space = space_from_population(pop)
        payload["space"] = space.to_json()
        payload["degrees"] = list(space.degrees)
        lines.append("spanned degrees: " + " ".join(str(d) for d in space.degrees))
    except SpaceError as exc:
        failed = str(exc)
        payload["space"] = None
        payload["space_error"] = failed
        lines.append(f"spanned space: unavailable ({failed})")
    if seed.kind == "G2":
        orbit = shifted_orbit(weight_at_infinity(seed))
        weights = {weight_at_infinity(m) for m in pop.members}
        dom = dominant_representative(weight_at_infinity(seed))
        payload["weights"] = {
            "orbit_size": len(orbit),
            "distinct": len(weights),
            "single_orbit": weights <= orbit,
            "dominant": list(dom.coords) if dom else None,
        }
        lines.append(
            f"weights: {len(weights)} distinct, inside one shifted orbit of size "
            f"{len(orbit)}: " + ("yes" if weights <= orbit else "NO")
        )
    _emit(args, payload, lines)
    return 1 if failed else 0


# -- verify -----------------------------------------------------------------


def _parse_triple(text: str):
    try:
        key = tuple(int(s) for s in text.split(","))
    except ValueError:
        raise InputError(f"bad triple {text!r}; expected i,j,k") from None
    if key not in WRONSKIAN_TABLE:
        raise InputError(f"{key} is not an increasing triple in 1..7")
    return key


def cmd_verify_table1(args) -> int:
    corrupt = _parse_triple(args.corrupt) if args.corrupt else None
    space = get_space("deg6")
    vs = factorial_basis()
    bad = []
    for key, got, want in table_identities(space, vs):
        if key == corrupt:
            want = want + vs[0] * vs[0]
        if got != want:
            bad.append((key, got, want))
    lines = [f"table identities: {35 - len(bad)}/35"]
    for key, got, want in bad:
        lines.append(f"MISMATCH at {key}: computed {got}, expected {want}")
    payload = {
        "checked": 35,
        "passed": 35 - len(bad),
        "mismatches": [list(key) for key, _, _ in bad],
    }
    _emit(args, payload, lines)
    return 1 if bad else 0


def cmd_verify_threeform(args) -> int:
    corrupt = _parse_triple(args.corrupt) if args.corrupt else None
    bad = []
    for key, got_spin, got_wrons, want in three_form_routes():
        if key == corrupt:
            want = want + 1
        if got_spin != want or got_wrons != want:
            bad.append((key, got_spin, got_wrons, want))
    lines = [f"form values: {35 - len(bad)}/35"]
    for key, got_spin, got_wrons, want in bad:
        lines.append(
            f"MISMATCH at {key}: spin route {got_spin}, Wronskian route "
            f"{got_wrons}, expected {want}"
        )
    payload = {
        "checked": 35,
        "passed": 35 - len(bad),
        "mismatches": [list(key) for key, *_ in bad],
    }
    _emit(args, payload, lines)
    return 1 if bad else 0


def cmd_verify_all(args) -> int:
    results = []
    lines = []
    for number, slug, fn in CRITERIA:
        ok, detail = fn()
        status = "PASS" if ok else "FAIL"
        lines.append(f"ACCEPTANCE {number} {slug}: {status} ({detail})")
        results.append({"number": number, "name": slug, "ok": ok, "detail": detail})
    passed = sum(1 for r in results if r["ok"])
    lines.append(f"{passed}/{len(results)} criteria passed")
    _emit(args, {"criteria": results, "passed": passed, "total": len(results)}, lines)
    return 0 if passed == len(results) else 1


# -- wiring -----------------------------------------------------------------


def _add_space_flags(q) -> None:
    q.add_argument("file", nargs="?", help='space JSON file {"basis": [[coeffs...], ...]}')
    q.add_argument("--fixture", default="deg6", choices=sorted(SPACES), help="built-in space")
    q.add_argument("--json", action="store_true", help="machine-readable output")


def _add_seed_flags(q) -> None:
    q.add_argument("file", nargs="?", help="seed tuple JSON file")
    q.add_argument("--fixture", default="trivial", choices=sorted(SEEDS), help="built-in seed")
    q.add_argument("--T1", help="ramification T1 as comma-separated coefficients, constant first")
    q.add_argument("--T2", help="ramification T2 as comma-separated coefficients, constant first")
    q.add_argument("--json", action="store_true", help="machine-readable output")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="g2spaces",
        description="Exact arithmetic for seven-dimensional self-dual spaces of polynomials.",
    )
    sub = parser.add_subparsers(dest="group", required=True)

    space = sub.add_parser("space", help="analyze a space of polynomials").add_subparsers(
        dest="command", required=True
    )
    for name, fn in (
        ("analyze", cmd_space_analyze),
        ("witt", cmd_space_witt),
        ("standard-basis", cmd_space_standard_basis),
        ("check-ssd", cmd_space_check_ssd),
    ):
        q = space.add_parser(name)
        _add_space_flags(q)
        q.set_defaults(func=fn)

    poly = sub.add_parser("poly", help="polynomial utilities").add_subparsers(
        dest="command", required=True
    )
    q = poly.add_parser("wronskian")
    q.add_argument("file", help="JSON list of coefficient lists, constant term first")
    q.add_argument("--json", action="store_true", help="machine-readable output")
    q.set_defaults(func=cmd_poly_wronskian)

    spin = sub.add_parser("spin", help="spinor computations").add_subparsers(
        dest="command", required=True
    )
    q = spin.add_parser("embed")
    q.add_argument("file", nargs="?", help="JSON: three 7-entry coordinate vectors")
    q.add_argument("--json", action="store_true", help="machine-readable output")
    q.set_defaults(func=cmd_spin_embed)
    q = spin.add_parser("preimages")
    q.add_argument("file", nargs="?", help="JSON: one 7-entry coordinate vector")
    q.add_argument("--json", action="store_true", help="machine-readable output")
    q.set_defaults(func=cmd_spin_preimages)

    g2 = sub.add_parser("g2", help="the invariant three-form").add_subparsers(
        dest="command", required=True
    )
    q = g2.add_parser("threeform")
    q.add_argument("--json", action="store_true", help="machine-readable output")
    q.set_defaults(func=cmd_g2_threeform)
    q = g2.add_parser("kernel")
    q.add_argument("file", nargs="?", help="JSON: one 7-entry rational vector")
    q.add_argument("--json", action="store_true", help="machine-readable output")
    q.set_defaults(func=cmd_g2_kernel)
    q = g2.add_parser("flags")
    q.add_argument("file", nargs="?", help="JSON: three 7-entry rational vectors")
    q.add_argument("--json", action="store_true", help="machine-readable output")
    q.set_defaults(func=cmd_g2_flags)

    bethe = sub.add_parser("bethe", help="tuple reproduction").add_subparsers(
        dest="command", required=True
    )
    q = bethe.add_parser("reproduce")
    _add_seed_flags(q)
    q.add_argument("--direction", type=int, help="reproduce in one direction only")
    q.set_defaults(func=cmd_bethe_reproduce)
    q = bethe.add_parser("population")
    _add_seed_flags(q)
    q.add_argument("--depth", type=int, default=6, help="exploration depth (default 6)")
    q.add_argument("--max-nodes", type=int, default=400, help="node budget (default 400)")
    q.set_defaults(func=cmd_bethe_population)

    verify = sub.add_parser("verify", help="bundled verification suite").add_subparsers(
        dest="command", required=True
    )
    for name, fn, corruptible in (
        ("all", cmd_verify_all, False),
        ("table1", cmd_verify_table1, True),
        ("threeform", cmd_verify_threeform, True),
    ):
        q = verify.add_parser(name)
        q.add_argument("--json", action="store_true", help="machine-readable output")
        if corruptible:
            q.add_argument("--corrupt", help="i,j,k: corrupt that expected entry (negative control)")
        q.set_defaults(func=fn)

    return parser


EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE (13)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed stdout fails here, not at interpreter exit
        return code
    except BrokenPipeError:
        # The reader closed standard output (| head); nothing went wrong.
        # What is still buffered goes to devnull, so the exit flush is silent.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MathFailure as exc:
        print(f"failure: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
