"""Batch front door: colour, immerse, verify, gen, oracle, stress.

All commands put one JSON document on stdout and a short human log on
stderr.  Exit code 0 means every verification in the run passed; 1 means a
certificate read from a file was rejected; 2 means the input or the premise
was bad, with a machine-readable ``{"error": ...}`` document on stdout; 3
means an internal fault (a ``CertificateError``, whose dump the document
carries, or any other exception), reported by the same kind of document,
with the traceback in the log.  A fault is never reported as 1 or 2.

``colour`` validates its own colouring and exits 0 or 3: a colouring that
the validator rejects, that uses more than Δ colours or that has an even
cycle is a ``CertificateError`` whose dump gives the first failures, the
palette, Δ and the even cycles.  ``immerse`` and ``stress`` take their
verdict from ``construct_immersion``, which replays every certificate it
returns through ``verify_immersion`` against χ and raises
``CertificateError`` otherwise; they do not replay it again.  ``stress``
builds every case's graph itself, so any exception a case raises is a
fault: the case is recorded with its edge list and the fault's dump, when
it has one, the campaign finishes, and it exits 3 (0 when every case
verified).  Only ``verify`` exits 1: it replays a certificate read from a
file, independently of the constructor.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import json
import logging
import random
import re
import sys

from .colouring import cycle_matching_colouring, validate_cm_colouring
from .construct import construct_immersion
from .errors import CertificateError, GraphError, PremiseError, SizeGuardError
from .factor import brute_force_deficiency
from .generators import (
    _certificate_doc,
    emit_dot,
    emit_edge_list,
    gen_alpha2,
    gen_family,
    parse_certificate,
    parse_edge_list,
)
from .graphs import Multigraph, alpha_at_most_2
from .immersion import _optimal_colouring, verify_immersion
from .oracles import brute_alpha, brute_chi, brute_immersion_exists
from .reporting import ValidityReport

log = logging.getLogger("kchi")

_DOMAIN_ERRORS = (GraphError, SizeGuardError, PremiseError, CertificateError, OSError)


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _read_graph(path: str) -> Multigraph:
    text = _read_text(path)
    if text.lstrip().startswith("{"):  # a gen --format json document
        return _graph_from_json(text)
    return parse_edge_list(text)


def _graph_from_json(text: str) -> Multigraph:
    """The graph of a ``{"n": ..., "edges": [[u, v], ...]}`` document.

    ``n`` and every endpoint must be plain integers (not ``true``/``false``);
    anything malformed raises ``GraphError``.  Text that starts with ``{``
    and parses is always an object.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GraphError(f"graph document is not valid JSON: {exc}") from None
    if "n" not in doc or "edges" not in doc:
        raise GraphError("graph document needs the fields n and edges")
    n, edges = doc["n"], doc["edges"]
    if type(n) is not int:
        raise GraphError(f"graph document: n must be an integer, got {n!r}")
    if type(edges) is not list or not all(
        type(e) is list and len(e) == 2 and type(e[0]) is int and type(e[1]) is int
        for e in edges
    ):
        raise GraphError("graph document: edges must be a list of [u, v] integer pairs")
    return Multigraph(n, map(tuple, edges))


def _print_json(doc) -> None:
    print(json.dumps(doc, sort_keys=True, default=repr))


def _verdict(report) -> dict:
    return {
        "ok": report.ok,
        "first_violation": report.failures[0] if report.failures else None,
        "failures": list(report.failures),
    }


# -- subcommands -------------------------------------------------------------


def _cmd_colour(args) -> int:
    g = _read_graph(args.graph)
    colouring = cycle_matching_colouring(g)  # r-bounded for every r ≥ 2
    report = validate_cm_colouring(g, colouring, r=args.r)
    delta = g.max_degree()
    even = report.details["even_cycles"]
    problems = report.failures[:1]
    if colouring.palette > delta:
        problems.append(f"palette {colouring.palette} exceeds max degree {delta}")
    if even:
        problems.append(f"{len(even)} even cycle(s)")
    if problems:  # --r is at least 2, so the colouring breaks its own contract
        raise CertificateError(
            "cycle-matching colouring failed its check: " + "; ".join(problems),
            dump={
                "failures": report.failures[:8],
                "palette": colouring.palette,
                "max_degree": delta,
                "even_cycles": even[:8],
            },
        )
    _print_json(
        {
            "kind": "cm-colouring",
            "r": args.r,
            "palette": colouring.palette,
            "max_degree": delta,
            "classes": colouring.classes(),
            "verdict": _verdict(report),
        }
    )
    log.info("%d colours for max degree %d — valid", colouring.palette, delta)
    return 0


def _cmd_immerse(args) -> int:
    g = _read_graph(args.graph)
    imm = construct_immersion(g)  # replayed against χ inside, or raised
    t = len(imm.corners)
    doc = _certificate_doc(imm)
    doc["chi"] = t
    doc["verdict"] = _verdict(ValidityReport.from_failures([]))
    _print_json(doc)
    listed = len(imm.listed)
    implicit = t * (t - 1) // 2 - listed
    log.info("verified K%d certificate (%d paths listed, %d implicit)", t, listed, implicit)
    return 0


def _cmd_verify(args) -> int:
    g = _read_graph(args.graph)
    imm = parse_certificate(g, _read_text(args.certificate))
    if alpha_at_most_2(g):  # chi_alpha2 would test it a second time
        t, source = len(_optimal_colouring(g).classes), "chromatic number"
    else:
        t, source = len(imm.corners), "certificate"
    report = verify_immersion(g, imm, t)
    _print_json({"kind": "verdict", "t": t, "t_source": source, **_verdict(report)})
    if report.ok:
        log.info("certificate accepted: K%d immersion", t)
        return 0
    log.error("certificate rejected: %s", report.failures[0])
    return 1


def _cmd_gen(args) -> int:
    if args.family:
        name = args.family[0]
        params = tuple(
            int(x) if re.fullmatch(r"[+-]?\d+", x) else x for x in args.family[1:]
        )
        g = gen_family(name, params)
        origin: dict = {"family": name, "params": list(params)}
    else:
        if args.n is None:
            raise GraphError("gen needs a family or --n")
        g = gen_alpha2(args.n, args.density, args.seed)
        origin = {"n": args.n, "density": args.density, "seed": args.seed}
    if args.format == "dot":
        sys.stdout.write(emit_dot(g))
    else:
        _print_json(
            {
                "kind": "graph",
                "n": g.n,
                "m": g.m,
                "edges": [list(e) for e in g.edges],
                **origin,
            }
        )
    log.info("generated %s", g)
    return 0


def _cmd_oracle(args) -> int:
    g = _read_graph(args.graph)
    doc: dict = {"kind": "oracle", "oracle": args.value}
    if args.value == "chi":
        doc["value"] = brute_chi(g)
    elif args.value == "alpha":
        doc["value"] = brute_alpha(g)
    elif args.value == "chi-prime-r":
        from .colouring import brute_force_chi_prime_r

        doc["r"] = args.r
        doc["value"] = brute_force_chi_prime_r(g, args.r)
    elif args.value == "deficiency":
        pair = brute_force_deficiency(g, [2] * g.n)
        doc["value"] = pair.value
        doc["s"] = sorted(pair.s)
        doc["t"] = sorted(pair.t)
    else:  # immersion-exists
        t = brute_chi(g)
        doc["t"] = t
        doc["value"] = brute_immersion_exists(g, t)
    _print_json(doc)
    log.info("%s = %s", args.value, doc["value"])
    return 0


def _stress_case(task: tuple[int, int, int, float | None]):
    base_seed, i, n_cap, density = task
    rng = random.Random(base_seed * 1_000_003 + i)
    n = rng.randint(1, n_cap)
    d = density if density is not None else rng.random()
    g = gen_alpha2(n, d, rng.randrange(2**32))
    try:
        construct_immersion(g)  # replayed against χ inside, or raised
    except Exception as exc:  # g meets the premise, so this is a fault; the other cases still run
        log.exception("internal fault in case %d", i)
        failures = [f"{type(exc).__name__}: {exc}"]
        record = {"case": i, "n": g.n, "edge_list": emit_edge_list(g), "failures": failures}
        dump = getattr(exc, "dump", None)
        if dump:
            record["dump"] = dump
        return record
    return None


def _cmd_stress(args) -> int:
    tasks = [(args.seed, i, args.n, args.density) for i in range(args.count)]
    if args.count < 32:
        results = list(map(_stress_case, tasks))
    else:
        with concurrent.futures.ProcessPoolExecutor() as pool:
            results = list(pool.map(_stress_case, tasks, chunksize=max(1, args.count // 64)))
    dumps = [dump for dump in results if dump is not None]
    ok = args.count - len(dumps)
    _print_json(
        {
            "kind": "stress",
            "count": args.count,
            "ok": ok,
            "seed": args.seed,
            "n": args.n,
            "density": args.density,
            "verified": f"{ok}/{args.count}",
            "failures": dumps,
        }
    )
    log.info("%d/%d verified", ok, args.count)
    if dumps:
        log.error(
            "internal fault in %d case(s), first: case %d (seed %d)",
            len(dumps), dumps[0]["case"], args.seed,
        )
        return 3
    return 0


# -- wiring ------------------------------------------------------------------


def _int_from(low: int):
    """An argparse type: an integer of at least ``low``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"expected an integer ≥ {low}, got {value}")
        return value

    return parse


def _density(text: str) -> float:
    """An argparse type: a pair probability in [0, 1] (so never NaN)."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}") from None
    if not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError(f"expected a density in [0, 1], got {text}")
    return value


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        _print_json({"error": {"type": "UsageError", "message": message}})
        self.print_usage(sys.stderr)
        raise SystemExit(2)


class _SubcommandParser(_Parser):
    """Options and operands in any order: options are parsed first, operands
    after.  Plain argparse fills ``oracle``'s optional ``graph`` with its
    default as soon as an option follows ``value``, so ``oracle chi-prime-r
    --r 2 FILE`` would leave FILE unrecognised.
    """

    _inside = False

    def parse_known_args(self, args=None, namespace=None):
        if self._inside:  # parse_known_intermixed_args calls back here, twice
            return super().parse_known_args(args, namespace)
        self._inside = True
        try:
            return self.parse_known_intermixed_args(args, namespace)
        finally:
            self._inside = False


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="kchi", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_SubcommandParser)

    def graph_arg(p):
        p.add_argument("graph", nargs="?", default="-",
                       help="edge-list file, or - for stdin (default)")

    p = sub.add_parser("colour", help="cycle-matching edge colouring within max degree")
    p.add_argument("--r", type=_int_from(2), default=2,
                   help="degree bound per colour class the validator checks (≥ 2)")
    graph_arg(p)
    p.set_defaults(func=_cmd_colour)

    p = sub.add_parser("immerse", help="build and verify a complete-graph immersion")
    graph_arg(p)
    p.set_defaults(func=_cmd_immerse)

    p = sub.add_parser("verify", help="replay an immersion certificate")
    p.add_argument("graph", help="edge-list file, or - for stdin")
    p.add_argument("certificate", help="certificate JSON file, or - for stdin")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("gen", help="emit an instance")
    p.add_argument("family", nargs="*", help="family name and integer parameters")
    p.add_argument("--n", type=int, help="vertex count for seeded random instances")
    p.add_argument("--density", type=_density, default=0.5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=["json", "dot"], default="json")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("oracle", help="exhaustive ground truth on small inputs")
    p.add_argument("value", choices=["chi", "alpha", "chi-prime-r", "deficiency",
                                     "immersion-exists"])
    p.add_argument("--r", type=int, default=2)
    graph_arg(p)
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("stress", help="seeded construct+verify campaign")
    p.add_argument("--n", type=_int_from(1), default=40, help="vertex count cap")
    p.add_argument("--count", type=_int_from(0), default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--density", type=_density, default=None,
                   help="fixed density (default: varies per case)")
    p.set_defaults(func=_cmd_stress)

    return parser


def main(argv=None) -> int:
    log.handlers.clear()
    log.addHandler(logging.StreamHandler(sys.stderr))
    log.setLevel(logging.INFO)
    log.propagate = False
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _DOMAIN_ERRORS as exc:
        doc = {"error": {"type": type(exc).__name__, "message": str(exc)}}
        dump = getattr(exc, "dump", None)
        if dump:
            doc["error"]["dump"] = dump
        _print_json(doc)
        fault = isinstance(exc, CertificateError)  # a broken internal contract
        log.error("%s", exc, exc_info=fault)
        return 3 if fault else 2
    except Exception as exc:  # a fault in kchi itself, not a verdict on the input
        _print_json({"error": {"type": type(exc).__name__, "message": str(exc)}})
        log.exception("internal fault")
        return 3


if __name__ == "__main__":
    sys.exit(main())
