"""Command line front end.

Every computation in the library is reachable as a subcommand with
deterministic text or JSON output.  Exit codes: 0 success, 2 usage error,
1 domain error (bad word, bad index, malformed diagram); ``equiv`` uses 0
for equivalent, 3 for distinct, 4 for unknown; ``verify`` returns 1 when
any check fails.
"""

from __future__ import annotations

import argparse
import json
import sys

from .desing import degree_spectrum, eta_hat
from .gauss import Arrow, ArrowKind, GaussWord, braid_of_gauss, gauss_of_braid
from .pure import decompose, factor_singular, print_pure_word
from .suites import SUITE_NAMES, run_suite
from .surface import surface_summary
from .words import (Budget, Distinct, Equivalent, Unknown, degree, equivalent,
                    parse_word, print_word, relation_catalog, singularity_count,
                    theta)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="svb",
        description="Singular virtual braid computations on words, Gauss "
                    "diagrams, formal sums, and surfaces.")
    subs = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str, *, words: int = 0):
        p = subs.add_parser(name, help=help_text)
        if name != "from-gauss":
            p.add_argument("--n", type=int, required=True, help="number of strands")
        names = () if words == 0 else ("word",) if words == 1 else ("left", "right")
        for label in names:
            p.add_argument(label, help="braid word: tokens like s1, s1', r2, t1; "
                           "e for the empty word")
        p.add_argument("--format", choices=("text", "json"), default="text")
        return p

    add("parse", "parse a word and echo its normal spelling", words=1)
    add("invariants", "permutation, degree, and singularity count", words=1)
    p = add("equiv", "decide equivalence of two words", words=2)
    p.add_argument("--budget", type=int, default=Budget.nodes,
                   help="node budget of every search, normalisation "
                   "slide searches included (default %(default)s)")
    add("to-gauss", "Gauss diagram of a word", words=1)
    p = add("from-gauss", "braid word realizing a Gauss diagram")
    p.add_argument("diagram", help="diagram as JSON: "
                   '{"n":..,"arrows":[{"tail":..,"head":..,"kind":"+|-|s"}],"perm":[..]}')
    add("desing", "desingularization as a signed formal sum", words=1)
    add("decompose", "pure word and permutation of the semidirect splitting",
        words=1)
    add("factor", "conjugated singular letters times the crossing content",
        words=1)
    add("genus", "Euler characteristic, boundary count, and capped genus",
        words=1)
    add("relations", "list the defining relation instances at this strand count")
    p = add("verify", "run a property suite")
    p.add_argument("suite", choices=SUITE_NAMES)
    p.add_argument("--seed", type=int, default=0)
    return parser


def _emit(fmt: str, payload, text: str) -> str:
    if fmt == "json":
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"
    return text


def _cmd_parse(args) -> tuple[int, str]:
    w = parse_word(args.word, args.n)
    payload = {"n": w.n, "word": print_word(w), "length": len(w)}
    return 0, _emit(args.format, payload, print_word(w) + "\n")


def _cmd_invariants(args) -> tuple[int, str]:
    w = parse_word(args.word, args.n)
    th = list(theta(w))
    payload = {"theta": th, "degree": degree(w),
               "singularities": singularity_count(w)}
    text = (f"theta: {th}\ndegree: {payload['degree']}\n"
            f"singularities: {payload['singularities']}\n")
    return 0, _emit(args.format, payload, text)


def _json_value(value):
    """An invariant as JSON: pair invariants as [i, j, writhe, singular] rows."""
    if isinstance(value, dict):
        return [[i, j, w, s] for (i, j), (w, s) in value.items()]
    return value


def _cmd_equiv(args) -> tuple[int, str]:
    u = parse_word(args.left, args.n)
    v = parse_word(args.right, args.n)
    verdict = equivalent(u, v, Budget(args.budget))
    if isinstance(verdict, Equivalent):
        payload = {"verdict": "equivalent", "moves": len(verdict.trace),
                   "trace": [{"label": s.label, "position": s.position}
                             for s in verdict.trace]}
        return 0, _emit(args.format, payload,
                        f"equivalent: {len(verdict.trace)} moves\n")
    if isinstance(verdict, Distinct):
        payload = {"verdict": "distinct", "invariant": verdict.invariant,
                   "left": _json_value(verdict.left), "right": _json_value(verdict.right)}
        text = (f"distinct: {verdict.invariant} "
                f"{verdict.left} != {verdict.right}\n")
        return 3, _emit(args.format, payload, text)
    assert isinstance(verdict, Unknown)
    payload = {"verdict": "unknown", "nodes": verdict.nodes_explored,
               "depth_forward": verdict.depth_forward,
               "depth_backward": verdict.depth_backward}
    text = (f"unknown: explored {verdict.nodes_explored} nodes "
            f"(depth {verdict.depth_forward}+{verdict.depth_backward})\n")
    return 4, _emit(args.format, payload, text)


# A diagram's arrow kinds as written in its JSON form.
_ARROW_CHAR = {ArrowKind.POS: "+", ArrowKind.NEG: "-", ArrowKind.SING: "s"}


def _cmd_to_gauss(args) -> tuple[int, str]:
    g = gauss_of_braid(parse_word(args.word, args.n))
    d = {"n": g.n,
         "arrows": [{"tail": a.tail, "head": a.head, "kind": _ARROW_CHAR[a.kind]}
                    for a in g.arrows],
         "perm": list(g.perm)}
    lines = [f"n: {d['n']}"]
    lines += [f"arrow: {a['tail']} -> {a['head']} {a['kind']}" for a in d["arrows"]]
    lines.append(f"perm: {d['perm']}")
    return 0, _emit(args.format, d, "\n".join(lines) + "\n")


def _cmd_from_gauss(args) -> tuple[int, str]:
    try:
        data = json.loads(args.diagram)
    except json.JSONDecodeError as exc:
        raise ValueError(f"diagram is not valid JSON: {exc}") from exc
    kinds = {c: k for k, c in _ARROW_CHAR.items()}
    try:
        arrows = tuple(Arrow(a["tail"], a["head"], kinds[a["kind"]]) for a in data["arrows"])
        g = GaussWord(data["n"], arrows, tuple(data["perm"]))
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed gauss word data: {exc}") from exc
    w = braid_of_gauss(g)
    payload = {"n": g.n, "word": print_word(w)}
    return 0, _emit(args.format, payload, print_word(w) + "\n")


def _cmd_desing(args) -> tuple[int, str]:
    w = parse_word(args.word, args.n)
    fs = eta_hat(w)
    rows = [{"coeff": c, "word": print_word(term)} for term, c in fs.terms()]
    spectrum = degree_spectrum(fs)
    payload = {"terms": rows,
               "spectrum": {str(d): c for d, c in spectrum.items()}}
    lines = [f"{r['coeff']:+d} {r['word']}" for r in rows]
    lines.append("spectrum: " + " ".join(f"{d}:{c}" for d, c in spectrum.items()))
    return 0, _emit(args.format, payload, "\n".join(lines) + "\n")


def _cmd_decompose(args) -> tuple[int, str]:
    pair = decompose(parse_word(args.word, args.n))
    text = f"pure: {print_pure_word(pair.pure)}\nperm: {list(pair.perm)}\n"
    payload = {"pure": print_pure_word(pair.pure), "perm": list(pair.perm)}
    return 0, _emit(args.format, payload, text)


def _cmd_factor(args) -> tuple[int, str]:
    f = factor_singular(parse_word(args.word, args.n))
    payload = {"taus": [{"conjugator": print_word(c), "index": i}
                        for c, i in f.conjugated_taus],
               "virtual": print_word(f.virtual_part)}
    lines = [f"tau {i} conjugated by: {print_word(c)}"
             for c, i in f.conjugated_taus]
    lines.append(f"virtual: {print_word(f.virtual_part)}")
    return 0, _emit(args.format, payload, "\n".join(lines) + "\n")


def _cmd_genus(args) -> tuple[int, str]:
    s = surface_summary(parse_word(args.word, args.n))
    text = f"euler: {s.euler}\nboundaries: {s.boundaries}\ngenus: {s.genus}\n"
    payload = {"euler": s.euler, "boundaries": s.boundaries, "genus": s.genus}
    return 0, _emit(args.format, payload, text)


def _cmd_relations(args) -> tuple[int, str]:
    if args.n < 2:
        raise ValueError(f"need at least two strands, got {args.n}")
    instances = relation_catalog(args.n)
    payload = [{"family": r.family, "lhs": print_word(r.lhs),
                "rhs": print_word(r.rhs)} for r in instances]
    lines = [f"{r.family}: {print_word(r.lhs)} == {print_word(r.rhs)}"
             for r in instances]
    return 0, _emit(args.format, payload, "\n".join(lines) + "\n")


def _cmd_verify(args) -> tuple[int, str]:
    report = run_suite(args.suite, args.n, args.seed)
    good, bad = report.counts()
    payload = {"suite": report.suite, "n": report.n, "seed": report.seed,
               "passed": report.passed,
               "counts": {"passed": good, "failed": bad},
               "checks": [{"name": c.name, "passed": c.passed, "detail": c.detail}
                          for c in report.checks]}
    lines = [f"{'PASS' if c.passed else 'FAIL'} {c.name}: {c.detail}"
             for c in report.checks]
    lines.append(f"{report.suite}: {good} passed, {bad} failed")
    return (0 if report.passed else 1), _emit(args.format, payload,
                                              "\n".join(lines) + "\n")


_HANDLERS = {
    "parse": _cmd_parse,
    "invariants": _cmd_invariants,
    "equiv": _cmd_equiv,
    "to-gauss": _cmd_to_gauss,
    "from-gauss": _cmd_from_gauss,
    "desing": _cmd_desing,
    "decompose": _cmd_decompose,
    "factor": _cmd_factor,
    "genus": _cmd_genus,
    "relations": _cmd_relations,
    "verify": _cmd_verify,
}


def run(argv) -> tuple[int, str]:
    parser = _build_parser()
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as exc:
        return (exc.code if isinstance(exc.code, int) else 2), ""
    try:
        return _HANDLERS[args.command](args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1, ""


def main() -> None:
    code, out = run(sys.argv[1:])
    if out:
        sys.stdout.write(out)
    sys.exit(code)


if __name__ == "__main__":
    main()
