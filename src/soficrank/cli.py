"""Command-line front end.

Subcommands: cayley-ball, sofic-verify, weiss-select, df-check,
transfer-run.  Every run prints a small human-readable table to stdout
and, when --out is given, writes a deterministic JSON report envelope
(sorted keys, canonical rationals, sha256 digest of the inputs).
Identical inputs always produce byte-identical JSON.

Exit codes: 0 when the requested check succeeded, 1 when it failed,
2 for parse errors, 3 for resource limits, 4 for internal inconsistencies
(a theory-guaranteed inequality failed, which signals a bug).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import re
import sys
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from functools import cache
from pathlib import Path
from typing import Optional

from . import __version__
from .digraph import read_graph_file
from .errors import (
    AlphabetMismatch,
    CheckFailedError,
    InternalInconsistency,
    ParseError,
    ResourceLimitError,
    SoficRankError,
    content_lines,
    read_utf8,
)
from .exactfield import json_text, parse_rational, validate_modulus
from .groupring import GroupRingKernel, compose
from .groups import FreeAbelian, GroupModel, cayley_ball, read_finite_group_file
from .limits import Limits
from .sofic import SoficApproximation, check_preconditions, verify_approximation
from .transfer import run_experiment
from .weiss import weiss_select

TOOL_NAME = "soficrank"

_RING_RE = re.compile(r"^ring\s+p=(\d+)\s+d=(\d+)\s+group=(\S+)$")
_NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")


def parse_group_descriptor(desc: str, base_dir: Optional[Path] = None) -> GroupModel:
    """Parse `Z^k` or `finite:<path-to-table>` into a group model."""
    desc = desc.strip()
    if desc.startswith("Z^"):
        try:
            k = int(desc[2:])
        except ValueError:
            raise ParseError(f"bad group descriptor {desc!r}")
        if k < 1:
            raise ParseError(f"bad group descriptor {desc!r}: rank must be >= 1")
        return FreeAbelian(k)
    if desc.startswith("finite:"):
        path = Path(desc[len("finite:") :])
        if not path.is_absolute() and base_dir is not None:
            path = base_dir / path
        return read_finite_group_file(path)
    raise ParseError(f"unknown group descriptor {desc!r} (expected Z^k or finite:<path>)")


@dataclass
class InstanceFile:
    """Parsed element file: ring header, named elements, experiment directives."""

    p: int
    d: int
    group_desc: str
    group: GroupModel
    elements: dict[str, GroupRingKernel] = field(default_factory=dict)
    directives: list[tuple[str, ...]] = field(default_factory=list)


def _parse_term(line: str, inst: InstanceFile, where: str) -> tuple:
    body = line[len("term") :].strip()
    if "@" not in body:
        raise ParseError(f"{where}: term line needs '<matrix> @ <element>', got {line!r}")
    mat_text, elem_text = body.split("@", 1)
    try:
        rows = [[int(x) % inst.p for x in row.split(",")] for row in mat_text.strip().split(";")]
    except ValueError:
        raise ParseError(f"{where}: non-integer matrix entry in {line!r}")
    if len(rows) != inst.d or any(len(r) != inst.d for r in rows):
        raise ParseError(f"{where}: coefficient must be {inst.d}x{inst.d} in {line!r}")
    g = inst.group.parse_element(elem_text.strip())
    return g, rows


def parse_instance_text(text: str, base_dir: Optional[Path] = None, where: str = "<instance>") -> InstanceFile:
    lines = content_lines(text)
    if not lines:
        raise ParseError(f"{where}: empty instance file")
    m = _RING_RE.match(lines[0])
    if not m:
        raise ParseError(f"{where}: first line must be 'ring p=<p> d=<d> group=<desc>', got {lines[0]!r}")
    p, d, desc = int(m.group(1)), int(m.group(2)), m.group(3)
    try:
        validate_modulus(p)
    except ValueError as exc:
        raise ParseError(f"{where}: {exc}")
    if d < 1:
        raise ParseError(f"{where}: module dimension d must be at least 1, got {d}")
    group = parse_group_descriptor(desc, base_dir)
    inst = InstanceFile(p=p, d=d, group_desc=desc, group=group)

    current: Optional[str] = None
    terms: dict[str, dict] = {}
    for ln in lines[1:]:
        if ln.startswith("element "):
            name = ln[len("element ") :].strip()
            if not _NAME_RE.match(name):
                raise ParseError(f"{where}: bad element name {name!r}")
            if name in terms:
                raise ParseError(f"{where}: duplicate element {name!r}")
            terms[name] = {}
            current = name
        elif ln.startswith("term"):
            if current is None:
                raise ParseError(f"{where}: term line before any 'element' header")
            g, mat = _parse_term(ln, inst, where)
            if g in terms[current]:
                raise ParseError(
                    f"{where}: duplicate term at {inst.group.format_element(g)} in element {current!r}"
                )
            terms[current][g] = mat
        elif ln.startswith("experiment "):
            inst.directives.append(tuple(ln.split()[1:]))
        else:
            raise ParseError(f"{where}: unrecognized line {ln!r}")
    try:
        for name, support in terms.items():
            inst.elements[name] = GroupRingKernel(group, d, p, support)
    except ValueError as exc:
        raise ParseError(f"{where}: {exc}")
    return inst


def parse_instance_file(path, data: Optional[bytes] = None) -> InstanceFile:
    """Parse the instance file at path, from `data`, its bytes, when the caller has read them."""
    path = Path(path)
    return parse_instance_text(read_utf8(path, data), base_dir=path.parent, where=str(path))


def format_instance(inst: InstanceFile) -> str:
    """Canonical text form: terms sorted by group element, zero terms dropped."""
    out = [f"ring p={inst.p} d={inst.d} group={inst.group_desc}"]
    group = inst.group
    for name, kern in inst.elements.items():
        out.append(f"element {name}")
        for g, mat in zip(kern.support, kern.coeffs):
            mat_text = ";".join(",".join(map(str, row)) for row in mat.tolist())
            out.append(f"term {mat_text} @ {group.format_element(g)}")
    for directive in inst.directives:
        out.append("experiment " + " ".join(directive))
    return "\n".join(out) + "\n"


def _read_input(path) -> tuple[bytes, str]:
    """An input file's bytes and their sha256.  A command reads each input file once and parses and digests the same bytes."""
    data = read_utf8(path).encode("utf-8")  # strict UTF-8 gives back the file's bytes
    return data, hashlib.sha256(data).hexdigest()


def _read_instance(path) -> tuple[InstanceFile, str]:
    """The instance file parsed, and the digest of the bytes it was parsed from."""
    data, digest = _read_input(path)
    return parse_instance_file(path, data), digest


def _emit(args, subcommand: str, inputs: dict, payload, table: list[tuple[str, object]]) -> None:
    """Print the table, and write the report envelope when --out is given; the payload is a dict or a report dataclass."""
    width = max((len(k) for k, _ in table), default=0)
    for key, value in table:
        print(f"{key.ljust(width)}  {value}")
    if args.out:
        envelope = {
            "tool": TOOL_NAME,
            "version": __version__,
            "subcommand": subcommand,
            "inputs_digest": hashlib.sha256(json.dumps(inputs, sort_keys=True).encode("utf-8")).hexdigest(),
            "payload": payload,
        }
        try:
            Path(args.out).write_text(json_text(envelope) + "\n", encoding="utf-8")
        except OSError as exc:
            raise ValueError(f"cannot write {args.out}: {exc}")
        print(f"report written to {args.out}")


def _frac_str(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


def _limit(value: Optional[int], flag: str, fallback):
    """A positive flag's value, or the fallback when the flag is absent; never 0 or negative."""
    if value is None:
        return fallback
    if value <= 0:
        raise ValueError(f"{flag} must be a positive integer, got {value}")
    return value


def _cmd_cayley_ball(args) -> int:
    group = parse_group_descriptor(args.group, Path.cwd())
    limits = Limits.from_env()
    max_ball = _limit(args.max_ball, "--max-ball", limits.max_ball_elements)
    ball = cayley_ball(group, args.radius, max_elements=max_ball)
    payload = {
        "group": group.describe(),
        "radius": args.radius,
        "size": ball.size,
        "edge_count": ball.graph.edge_count,
    }
    _emit(args, "cayley-ball", {"group": args.group, "radius": args.radius}, payload, [
        ("group", group.describe()),
        ("radius", args.radius),
        ("ball size", ball.size),
        ("edge count", ball.graph.edge_count),
    ])
    return 0


def _parse_good(arg: Optional[str], vertex_count: int) -> list[int]:
    """The good vertices in ascending order, each once."""
    if arg is None or arg == "all":
        return list(range(vertex_count))
    try:
        good = [int(x) for x in arg.split(",") if x]
    except ValueError:
        raise ParseError(f"bad good-vertex list {arg!r}")
    for v in good:
        if not (0 <= v < vertex_count):
            raise ParseError(f"good vertex {v} out of range [0, {vertex_count})")
    return sorted(set(good))


def _read_graph_input(args, epsilon: str, radius: int):
    """(group, vertex count, epsilon, good list, verify, graph digest) of a graph command, read in that order.

    The one path by which sofic-verify and weiss-select reach
    verify_approximation: verify() runs it.  When the graph header's label
    count is not the group's generator count, the file is still checked
    but no out-table is allocated, and verify() lets check_preconditions
    report the mismatch where verify_approximation would.
    """
    group = parse_group_descriptor(args.group, Path.cwd())
    limits = Limits.from_env()
    data, digest = _read_input(args.graph)
    try:
        graph = read_graph_file(args.graph, limits.max_vertices, num_labels=group.label_count, data=data)
        vertex_count, num_labels = graph.vertex_count, graph.num_labels
    except AlphabetMismatch as exc:
        graph, vertex_count, num_labels = None, exc.vertex_count, exc.num_labels
    eps = parse_rational(epsilon)
    good = _parse_good(args.good, vertex_count)

    def verify() -> SoficApproximation:
        if graph is None:  # raises: the label count rules the graph out
            check_preconditions(num_labels, eps, radius, group)
        return verify_approximation(graph, good, eps, radius, group, max_ball_elements=limits.max_ball_elements)

    return group, vertex_count, eps, good, verify, digest


def _cmd_sofic_verify(args) -> int:
    group, vertex_count, epsilon, good, verify, digest = _read_graph_input(args, args.epsilon, args.radius)
    inputs = {
        "graph": digest,
        "group": args.group,
        "radius": args.radius,
        "epsilon": str(epsilon),
        "good": good,
    }
    payload = {
        "group": group.describe(),
        "radius": args.radius,
        "epsilon": epsilon,
        "vertex_count": vertex_count,
        "good_count": len(good),
    }
    try:
        approx = verify()
    except CheckFailedError as exc:
        payload.update(verified=False, failure=str(exc), failing_vertex=getattr(exc, "vertex", None))
        _emit(args, "sofic-verify", inputs, payload, [("verified", False), ("failure", str(exc))])
        return 1
    payload.update(verified=True, ball_size=approx.ball.size)
    _emit(args, "sofic-verify", inputs, payload, [
        ("verified", True),
        ("vertices", approx.vertex_count),
        ("good vertices", len(approx.good_vertices)),
        ("radius", args.radius),
        ("epsilon", _frac_str(epsilon)),
        ("ball size", approx.ball.size),
    ])
    return 0


def _cmd_weiss_select(args) -> int:
    # Epsilon 1/2 is exactly Weiss's precondition |good| >= |V|/2; the
    # verified charts at radius 2*r0+1 are what the selection reads.
    _, _, _, good, verify, digest = _read_graph_input(args, "1/2", 2 * args.r0 + 1)
    if args.r0 < 0:
        raise ValueError(f"--r0 must be nonnegative, got {args.r0}")
    inputs = {
        "graph": digest,
        "group": args.group,
        "r0": args.r0,
        "good": good,
    }
    sel = weiss_select(verify(), args.r0)
    payload = {**asdict(sel), "separation_bound": 2 * args.r0 + 1}
    _emit(args, "weiss-select", inputs, payload, [
        ("selected", len(sel.v1)),
        ("V1", ",".join(str(v) for v in sel.v1)),
        ("density achieved", _frac_str(sel.achieved_density)),
        ("density bound", _frac_str(sel.density_bound)),
        ("min pairwise distance", sel.min_pairwise_distance),
        ("required separation", 2 * args.r0 + 1),
    ])
    return 0


def _directive(inst: InstanceFile, name: str) -> Optional[tuple[str, ...]]:
    return next((d for d in inst.directives if d and d[0] == name), None)


def _require_element(inst: InstanceFile, name: str) -> GroupRingKernel:
    if name not in inst.elements:
        raise ParseError(f"element {name!r} not defined in the instance file")
    return inst.elements[name]


def _cmd_df_check(args) -> int:
    inst, digest = _read_instance(args.instance)
    x_name, y_name = args.x, args.y
    if x_name is None or y_name is None:
        fallback = _directive(inst, "df-check")
        if fallback is None or len(fallback) < 3:
            raise ParseError(
                "element names not given and no 'experiment df-check X Y' directive found"
            )
        x_name = x_name if x_name is not None else fallback[1]
        y_name = y_name if y_name is not None else fallback[2]
    x, y = _require_element(inst, x_name), _require_element(inst, y_name)
    xy = compose(x, y)
    yx = compose(y, x)
    xy_ok = xy.is_identity()
    yx_ok = yx.is_identity()
    inputs = {"instance": digest, "x": x_name, "y": y_name}
    payload = {
        "x": x_name,
        "y": y_name,
        "xy_is_identity": xy_ok,
        "yx_is_identity": yx_ok,
    }
    _emit(args, "df-check", inputs, payload, [
        ("x", x_name),
        ("y", y_name),
        ("x*y == 1", xy_ok),
        ("y*x == 1", yx_ok),
    ])
    if xy_ok and not yx_ok:
        # One-sided inverse over a sofic group would falsify the theory.
        raise InternalInconsistency("x*y = 1 but y*x != 1")
    return 0


def _cmd_transfer_run(args) -> int:
    inst, digest = _read_instance(args.instance)
    phi_name, psi_name = args.phi, args.psi
    if phi_name is None:
        fallback = _directive(inst, "transfer")
        if fallback is None or len(fallback) < 2:
            raise ParseError(
                "no PHI given and no 'experiment transfer PHI [PSI]' directive found"
            )
        phi_name = fallback[1]
        psi_name = fallback[2] if len(fallback) >= 3 else None
    phi = _require_element(inst, phi_name)
    psi = _require_element(inst, psi_name) if psi_name is not None else None
    limits = Limits.from_env()
    max_kernel = _limit(args.max_kernel_radius, "--max-kernel-radius", limits.max_kernel_radius)
    report = run_experiment(
        phi,
        psi,
        args.mode,
        torus_n=_limit(args.torus_n, "--torus-n", None),
        max_kernel_search=max_kernel,
        max_vertices=_limit(args.max_vertices, "--max-vertices", limits.max_vertices),
        max_ball_elements=_limit(args.max_ball, "--max-ball", limits.max_ball_elements),
    )
    inputs = {
        "instance": digest,
        "phi": phi_name,
        "psi": psi_name,
        "mode": args.mode,
        "torus_n": args.torus_n,
        "max_kernel_radius": max_kernel,
        "max_vertices": args.max_vertices,
        "max_ball": args.max_ball,
    }
    table = [
        ("verdict", report.verdict),
        ("group", report.group),
        ("p / d", f"{report.p} / {report.d}"),
        ("r0 / r1 / r2", f"{report.r0} / {report.r1} / {report.r2}"),
        ("epsilon", _frac_str(report.epsilon)),
        ("|V| / |V0| / |V'| / |V''|",
         f"{report.vertex_count} / {report.good_count} / {report.v_prime_count} / {report.v_dprime_count}"),
        ("rank", report.bar_phi_rank),
        ("lower bound", _frac_str(report.lower_bound)),
        ("upper bound", _frac_str(report.upper_bound)),
    ]
    if report.identity_on_vpp is not None:
        table.append(("identity on V''", report.identity_on_vpp))
    if report.weiss is not None:
        table.append(("|V1|", len(report.weiss.v1)))
    _emit(args, "transfer-run", inputs, report, table)
    return 0


@cache  # built on first use, not at import
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=TOOL_NAME,
        description="Exact rank-counting experiments over sofic approximation graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_ball = sub.add_parser("cayley-ball", help="size and edge count of a Cayley ball")
    p_ball.add_argument("--group", "-g", required=True, help="Z^k or finite:<table-path>")
    p_ball.add_argument("--radius", "-r", type=int, required=True)
    p_ball.add_argument("--max-ball", type=int, default=None, help="override ball element limit")
    p_ball.add_argument("--out", help="write JSON report to this path")
    p_ball.set_defaults(func=_cmd_cayley_ball)

    p_ver = sub.add_parser("sofic-verify", help="verify a graph as a sofic approximation")
    p_ver.add_argument("graph", help="graph file (header 'digraph |V| |B|')")
    p_ver.add_argument("--group", "-g", required=True)
    p_ver.add_argument("--radius", "-r", type=int, required=True)
    p_ver.add_argument("--epsilon", "-e", default="1/2", help="rational a/b in (0,1)")
    p_ver.add_argument("--good", help="comma-separated good vertices (default: all)")
    p_ver.add_argument("--out")
    p_ver.set_defaults(func=_cmd_sofic_verify)

    p_wei = sub.add_parser("weiss-select", help="separated dense selection among good vertices")
    p_wei.add_argument("graph")
    p_wei.add_argument("--group", "-g", required=True)
    p_wei.add_argument("--r0", type=int, required=True)
    p_wei.add_argument("--good", help="comma-separated good vertices (default: all)")
    p_wei.add_argument("--out")
    p_wei.set_defaults(func=_cmd_weiss_select)

    p_df = sub.add_parser("df-check", help="check x*y and y*x against the identity")
    p_df.add_argument("instance", help="instance file with a ring header and named elements")
    p_df.add_argument("x", nargs="?", default=None)
    p_df.add_argument("y", nargs="?", default=None)
    p_df.add_argument("--out")
    p_df.set_defaults(func=_cmd_df_check)

    p_tr = sub.add_parser("transfer-run", help="run the rank transfer on an approximation")
    p_tr.add_argument("instance")
    p_tr.add_argument("phi", nargs="?", default=None)
    p_tr.add_argument("psi", nargs="?", default=None)
    p_tr.add_argument("--mode", choices=["lower", "upper", "both"], default="both")
    p_tr.add_argument("--torus-n", type=int, default=None, help="torus side length (default: smallest valid)")
    p_tr.add_argument("--max-kernel-radius", type=int, default=None,
                      help="kernel search bound (default: 3 * support radius + 3)")
    p_tr.add_argument("--max-vertices", type=int, default=None,
                      help="graph vertex limit (default: 10^4)")
    p_tr.add_argument("--max-ball", type=int, default=None,
                      help="Cayley ball element limit (default: 10^6)")
    p_tr.add_argument("--out")
    p_tr.set_defaults(func=_cmd_transfer_run)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return 3
    except InternalInconsistency as exc:
        print(f"internal inconsistency (bug): {exc}", file=sys.stderr)
        return 4
    except CheckFailedError as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1
    except SoficRankError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        # malformed parameter values (bad epsilon range, undersized torus, ...)
        print(f"invalid input: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
