"""Command line pipeline driver.

Each subcommand reads one stream (file or stdin), writes its result to
stdout, and exits 0 on success, 1 when a requested verdict fails, 2 on
usage or input errors.  Outputs are deterministic; the only metadata is
a version header comment.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Sequence, Tuple

from . import cells as cells_mod
from . import invariants as inv_mod
from . import io as io_mod
from . import zoo
from .partition import (
    SCHEMES,
    VertexPartition,
    labeling_cover,
    pairs_coordinates,
    scheme_partition,
    symmetric_representation,
    validate,
)
from .subdivide import (
    Limits,
    _flag_subdivision,
    infer_sides,
    join,
    pachner_2n_pass,
    slot_carriers,
    stellar_facet,
)
from .triangulation import TriangulationError

VERSION = "0.1.0"
HEADER = "# multisect %s\n" % VERSION


class UsageError(Exception):
    pass


def _b(x) -> str:
    if x is None:
        return "none"
    return "true" if x else "false"


def _csv(xs) -> str:
    return ",".join(str(x) for x in xs)


def _read(path: str) -> str:
    """A stream's text; streams are ASCII, on stdin as in a file."""
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, "r", encoding="ascii") as fh:
                text = fh.read()
    except OSError as e:
        raise UsageError("cannot read %s: %s" % (path, e.strerror)) from None
    except UnicodeDecodeError:
        pass
    else:
        if text.isascii():
            return text
    raise UsageError("cannot read %s: not ASCII text" % path)


def _write(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="ascii") as fh:
            fh.write(text)
    except OSError as e:
        raise UsageError("cannot write %s: %s" % (path, e.strerror)) from None


def _parse_subset(text: str) -> Tuple[int, ...]:
    try:
        out = tuple(int(x) for x in text.split(","))
    except ValueError:
        raise UsageError("bad subset %r, expected comma-separated class labels" % text) from None
    if len(set(out)) != len(out):
        raise UsageError("subset %r repeats a class" % text)
    return out


def _parse_blocks(text: str) -> List[List[int]]:
    try:
        return [[int(x) for x in part.split(",")] for part in text.split("/")]
    except ValueError:
        raise UsageError("bad blocks %r, expected like 0,1/2,3" % text) from None


def _need_partition(P: Optional[VertexPartition]) -> VertexPartition:
    if P is None:
        raise UsageError("this command needs a partition section in its input")
    return P


def _limits(args) -> Limits:
    """`--ceiling` as the resource limits of a command."""
    if args.ceiling is not None and args.ceiling <= 0:
        raise UsageError("ceiling must be positive")
    return Limits(args.ceiling)


def _subcomplex(args) -> Tuple[Tuple[int, ...], cells_mod.CellComplex]:
    """The `--subset` labels (all of them by default) and their complex in the input."""
    subset = _parse_subset(args.subset) if args.subset is not None else None
    T, P = io_mod.load_stream(_read(args.file))
    P = _need_partition(P)
    if subset is None:
        subset = tuple(range(P.k + 1))
    return subset, cells_mod.extract(T, P, subset)


def _emit(text: str) -> None:
    sys.stdout.write(text)


# --- subcommand handlers ----------------------------------------------------


def cmd_gen(args) -> int:
    ceiling = args.limits.ceiling()
    picks = [
        x
        for x in (args.double_simplex, args.cross_sphere, args.cross_projective)
        if x is not None
    ]
    if len(picks) != 1:
        raise UsageError("pick one of --double-simplex, --cross-sphere, --cross-projective")
    if args.double_simplex is not None:
        T = zoo.double_simplex(args.double_simplex)
    elif args.cross_sphere is not None:
        T = zoo.cross_sphere(args.cross_sphere, ceiling=ceiling)
    else:
        T = zoo.cross_projective(args.cross_projective, ceiling=ceiling)
    layout = args.format
    if layout == "vertex" and T.vertex_ids is None:
        raise UsageError("this generator has identified vertices; only the gluing layout can express it")
    _emit(HEADER + io_mod.save_triangulation(T, layout))
    return 0


def cmd_info(args) -> int:
    T, P = io_mod.load_stream(_read(args.file))
    s = T.summary()
    lines = [
        "dim %d" % T.dimension,
        "facets %d" % T.facet_count,
        "faces %s" % _csv(s.face_counts),
        "euler %d" % s.euler,
        "pseudo-manifold %s" % _b(s.pseudo_manifold),
        "orientable %s" % _b(s.orientable),
        "betti %s" % _csv(s.betti),
    ]
    if P is not None:
        lines.append("partition k %d" % P.k)
    _emit(HEADER + "\n".join(lines) + "\n")
    return 0


def cmd_subdivide(args) -> int:
    if not args.barycentric:
        raise UsageError("only --barycentric subdivision is available")
    if args.times < 1:
        raise UsageError("--times must be at least 1")
    T, _ = io_mod.load_stream(_read(args.file))
    for _ in range(args.times):
        T = _flag_subdivision(T, args.limits)
    _emit(HEADER + io_mod.save_gluing(T))
    return 0


def cmd_pachner_pass(args) -> int:
    T, P = io_mod.load_stream(_read(args.file))
    T2, P2 = pachner_2n_pass(T, _need_partition(P))
    _emit(HEADER + io_mod.save_stream(T2, P2, layout="gluing"))
    return 0


def cmd_stellar(args) -> int:
    T, _ = io_mod.load_stream(_read(args.file))
    if not 0 <= args.facet < T.facet_count:
        raise UsageError("facet %d out of range 0..%d" % (args.facet, T.facet_count - 1))
    T2 = stellar_facet(T, args.facet)
    _emit(HEADER + io_mod.save_triangulation(T2))
    return 0


def cmd_join(args) -> int:
    A, _ = io_mod.load_stream(_read(args.files[0]))
    B, _ = io_mod.load_stream(_read(args.files[1]))
    J = join(A, B, args.limits)
    _emit(HEADER + io_mod.save_triangulation(J))
    return 0


def cmd_partition(args) -> int:
    T, P_in = io_mod.load_stream(_read(args.file))
    scheme = args.scheme
    if scheme in ("odd-bary", "even-bary"):
        P = scheme_partition(T, scheme, carriers=slot_carriers(T))
    elif scheme == "even-npc":
        car = slot_carriers(T)
        P = scheme_partition(T, scheme, carriers=car, sides=infer_sides(T, car))
    elif scheme == "pairs":
        if not args.blocks:
            raise UsageError("--scheme pairs needs --blocks")
        try:  # the slot refusal alone names the flag; block errors below stay bare
            labels = pairs_coordinates(T)
        except TriangulationError as e:
            raise TriangulationError("--scheme %s" % e) from None
        P = scheme_partition(T, "pairs", blocks=_parse_blocks(args.blocks), labels=labels)
    elif scheme == "explicit":
        if args.labels:
            toks = io_mod._Tokens(_read(args.labels))
            P = io_mod._load_partition(toks, T)
            if toks.peek() is not None:
                raise TriangulationError("trailing input in labels file at %r" % toks.peek())
        elif P_in is not None:
            P = P_in
        else:
            raise UsageError("--scheme explicit needs --labels FILE or an input partition section")
    else:
        raise UsageError("unknown scheme %r" % scheme)
    _emit(HEADER + io_mod.save_stream(T, P))
    return 0


def cmd_verify(args) -> int:
    T, P = io_mod.load_stream(_read(args.file))
    rep = validate(T, _need_partition(P))
    lines = [
        "n %d k %d" % (rep.n, rep.k),
        "profile ok %s" % _b(rep.profile_ok),
    ]
    for g in rep.class_graphs:
        lines.append(
            "class graph %d vertices %d edges %d connected %s genus %d"
            % (g.label, g.vertices, g.edges, _b(g.connected), g.genus)
        )
    lines.append("supports_multisection %s" % _b(rep.supports_multisection))
    lines.append("supports_generalized %s" % _b(rep.supports_generalized))
    for d in rep.diagnostics:
        lines.append("diagnostic %s" % d)
    _emit(HEADER + "\n".join(lines) + "\n")
    return 0 if rep.profile_ok else 1


def cmd_build(args) -> int:
    subset, X = _subcomplex(args)
    s = X.summary()
    lines = [
        "subset %s" % _csv(subset),
        "cells %s" % _csv(s["counts"]),
        "dimension %d" % s["dimension"],
        "euler %d" % s["euler"],
        "connected %s" % _b(s["connected"]),
        "closed %s" % _b(s["closed"]),
        "orientable %s" % _b(s["orientable"]),
        "all-cubes %s" % _b(s["all_cubes"]),
        "top-cells %d" % s["top_cells"],
    ]
    _emit(HEADER + "\n".join(lines) + "\n")
    return 0


def cmd_npc_check(args) -> int:
    subset, X = _subcomplex(args)
    rep = cells_mod.npc_check(X)
    lines = [
        "subset %s" % _csv(subset),
        "all-cubes %s" % _b(rep.all_cubes),
        "links %d" % rep.link_count,
        "degrees %s" % _csv(sorted(set(rep.degrees))),
        "npc ok %s" % _b(rep.ok),
    ]
    for v, why in rep.failures[:20]:
        lines.append("failure %d %s" % (v, why))
    if len(rep.failures) > 20:
        lines.append("failures-elided %d" % (len(rep.failures) - 20))
    _emit(HEADER + "\n".join(lines) + "\n")
    return 0 if rep.ok else 1


def cmd_collapse(args) -> int:
    subset, X = _subcomplex(args)
    res = cells_mod.collapse(X)
    lines = [
        "subset %s" % _csv(subset),
        "raw-dim %d" % res.raw_dim,
        "spine-dim %d" % res.spine_dim,
        "pairs-removed %d" % res.pairs_removed,
        "spine-cells %s" % _csv(res.spine_counts),
        "spine-euler %d" % res.spine_euler,
    ]
    _emit(HEADER + "\n".join(lines) + "\n")
    return 0


def cmd_report(args) -> int:
    T, P = io_mod.load_stream(_read(args.file))
    R = inv_mod.multisection_report(T, _need_partition(P))
    lines = ["n %d k %d" % (R.n, R.k)]
    lines.append("profile ok %s" % _b(R.validation.profile_ok))
    lines.append("supports_multisection %s" % _b(R.supports_multisection))
    lines.append("supports_generalized %s" % _b(R.supports_generalized))
    if args.generalized:
        for subset, sd in R.spine_dims:
            bound = R.validation.subset_report(subset).generalized_dim
            lines.append(
                "subset %s spine %d generalized-bound %d ok %s"
                % (_csv(subset), sd, bound, _b(sd <= bound))
            )
    else:
        lines.append("genera %s" % _csv(R.genera))
        for subset, sd in R.spine_dims:
            bound = R.validation.subset_report(subset).required_dim
            lines.append("subset %s spine %d bound %d" % (_csv(subset), sd, bound))
    cs = R.central_summary
    lines.append(
        "central dimension %d euler %d closed %s connected %s orientable %s"
        % (cs["dimension"], cs["euler"], _b(cs["closed"]), _b(cs["connected"]), _b(cs["orientable"]))
    )
    lines.append("central betti %s" % _csv(R.central_betti))
    if R.central_genus is not None:
        lines.append("central genus %d" % R.central_genus)
    if R.npc_ok is not None:
        lines.append("npc ok %s" % _b(R.npc_ok))
    if R.euler_identity is not None:
        lines.append("euler identity %s" % _b(R.euler_identity))
    for d in R.diagnostics:
        lines.append("diagnostic %s" % d)
    _emit(HEADER + "\n".join(lines) + "\n")
    if args.out:
        payload = {
            "format": 1,
            "n": R.n,
            "k": R.k,
            "ambient_euler": R.ambient_euler,
            "genera": list(R.genera),
            "spine_dims": [[list(s), d] for s, d in R.spine_dims],
            "central": {k: v for k, v in cs.items()},
            "central_betti": list(R.central_betti),
            "central_genus": R.central_genus,
            "npc_ok": R.npc_ok,
            "euler_identity": R.euler_identity,
            "supports_multisection": R.supports_multisection,
            "supports_generalized": R.supports_generalized,
            "diagnostics": list(R.diagnostics),
        }
        _write(args.out, io_mod.dump_json(payload))
    if args.expect_multisection:
        want = R.supports_generalized if args.generalized else R.supports_multisection
        if not want:
            return 1
    return 0


def cmd_cover(args) -> int:
    T, _ = io_mod.load_stream(_read(args.file))
    if args.orientation == args.labeling:
        raise UsageError("pick exactly one of --orientation, --labeling")
    if args.orientation:
        m2, ceiling = 2 * T.facet_count, args.limits.ceiling()
        if m2 > ceiling:
            raise TriangulationError("orientation double cover would produce %d facets, over the ceiling %d" % (m2, ceiling))
        C = T.orientation_double_cover()
        note = "# orientation double cover, %d facets\n" % C.facet_count
    else:
        C = labeling_cover(T, args.limits)
        note = "# labeling cover, degree %d\n" % C.extras.get("cover_degree", 0)
    _emit(HEADER + note + io_mod.save_gluing(C))
    return 0


def cmd_symrep(args) -> int:
    T, _ = io_mod.load_stream(_read(args.file))
    R = symmetric_representation(T)
    lines = [
        "generators %d" % len(R.generators),
        "orbits %s" % _csv(sorted(len(o) for o in R.orbits)),
        "trivial %s" % _b(R.trivial),
    ]
    _emit(HEADER + "\n".join(lines) + "\n")
    return 0


def cmd_export(args) -> int:
    _, X = _subcomplex(args)
    payload = io_mod.cell_complex_json(X)
    _write(args.json, io_mod.dump_json(payload))
    return 0


# --- argument wiring --------------------------------------------------------


def _add_input(p, n: int = 1) -> None:
    if n == 1:
        p.add_argument("file", nargs="?", default="-", help="input stream, - for stdin")
    else:
        p.add_argument("files", nargs=n, help="input streams")
    p.add_argument("--ceiling", type=int, default=None, help="facet ceiling override")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="multisect",
        description="construct and verify multisections of closed manifolds from facet gluings",
    )
    ap.add_argument("--version", action="version", version="multisect %s" % VERSION)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="emit a generator family member")
    p.add_argument("--double-simplex", type=int, metavar="N")
    p.add_argument("--cross-sphere", type=int, metavar="N")
    p.add_argument("--cross-projective", type=int, metavar="N")
    p.add_argument("--format", choices=("gluing", "vertex"), default="gluing")
    p.add_argument("--ceiling", type=int, default=None)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("info", help="summary invariants of a triangulation")
    _add_input(p)
    p.set_defaults(func=cmd_info)

    p = sub.add_parser("subdivide", help="subdivide a triangulation")
    p.add_argument("--barycentric", action="store_true")
    p.add_argument("--times", type=int, default=1)
    _add_input(p)
    p.set_defaults(func=cmd_subdivide)

    p = sub.add_parser("pachner-pass", help="replace matched facet pairs by fans around fresh edges")
    _add_input(p)
    p.set_defaults(func=cmd_pachner_pass)

    p = sub.add_parser("stellar", help="star a facet at its barycentre")
    p.add_argument("--facet", type=int, required=True)
    _add_input(p)
    p.set_defaults(func=cmd_stellar)

    p = sub.add_parser("join", help="join of two vertex-layout triangulations")
    _add_input(p, n=2)
    p.set_defaults(func=cmd_join)

    p = sub.add_parser("partition", help="attach a vertex partition")
    p.add_argument("--scheme", choices=SCHEMES, required=True)
    p.add_argument("--blocks", default=None, help="coordinate blocks like 0,1/2,3")
    p.add_argument("--labels", default=None, help="partition file for --scheme explicit")
    _add_input(p)
    p.set_defaults(func=cmd_partition)

    p = sub.add_parser("verify", help="check the partition profile and class graphs")
    _add_input(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("build", help="build one labeled subcomplex")
    p.add_argument("--subset", default=None, help="class labels like 0,1")
    _add_input(p)
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("npc-check", help="curvature test on a cube complex")
    p.add_argument("--subset", default=None)
    _add_input(p)
    p.set_defaults(func=cmd_npc_check)

    p = sub.add_parser("collapse", help="greedy free-face collapse of a subcomplex")
    p.add_argument("--subset", default=None)
    _add_input(p)
    p.set_defaults(func=cmd_collapse)

    p = sub.add_parser("report", help="full multisection report")
    p.add_argument("--expect-multisection", action="store_true")
    p.add_argument("--generalized", action="store_true")
    p.add_argument("--out", default=None, help="also write the report as JSON")
    _add_input(p)
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("cover", help="orientation or labeling cover")
    p.add_argument("--orientation", action="store_true")
    p.add_argument("--labeling", action="store_true")
    _add_input(p)
    p.set_defaults(func=cmd_cover)

    p = sub.add_parser("symrep", help="reflection labeling monodromy")
    _add_input(p)
    p.set_defaults(func=cmd_symrep)

    p = sub.add_parser("export", help="write a subcomplex as JSON")
    p.add_argument("--json", required=True, metavar="PATH")
    p.add_argument("--subset", default=None)
    _add_input(p)
    p.set_defaults(func=cmd_export)

    return ap


def main(argv: Optional[Sequence[str]] = None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        args.limits = _limits(args)
        return args.func(args)
    except UsageError as e:
        sys.stderr.write("multisect: %s\n" % e)
        return 2
    except TriangulationError as e:
        sys.stderr.write("multisect: %s\n" % e)
        return 2


if __name__ == "__main__":
    sys.exit(main())
