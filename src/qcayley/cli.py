"""Command-line surface: reproducible reports over the library operations.

Output modes: `--format json` emits one object per line with the fixed keys
{cmd, spec, params, quantity, value_lo, value_hi, tail, anchor}; `--format
csv` uses the documented per-command layouts (see README).  Numeric bounds
are decimal strings rounded outward, so a printed [value_lo, value_hi] is
itself a certified enclosure; exact rationals additionally carry an `exact`
field in JSON.

Exit codes: 0 success, 1 verification failure, 2 usage/config/gate errors.
Runs are deterministic for a fixed config and seed.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from fractions import Fraction

from . import estimates as est
from . import qctree as qt
from . import verify as verify_mod
from .aunitary import _check_walks, cn_lower
from .cayley import DEFAULT_VERTEX_CAP, build_tree
from .errors import QCayleyError
from .fusion import (
    ORTHOGONAL,
    a_param,
    ao_dims,
    dual_direction,
    format_irrep,
    parse_spec,
    single_ao_dimq,
)
from .scalars import QQ, Interval, _digits, _text

__all__ = ["main"]

_DIGITS = 17


def _dec(q, digits: int, round_up: bool) -> str:
    """Directed decimal rendering of an exact rational."""
    q = Fraction(q)
    if q != 0 and abs(q) < Fraction(1, 10**15):
        digits = 45  # keep resolution on certified tail bounds
    scale = 10 ** digits
    num = q.numerator * scale
    den = q.denominator
    scaled = -((-num) // den) if round_up else num // den
    sign = "-" if scaled < 0 else ""
    scaled = abs(scaled)
    whole, frac = divmod(scaled, scale)
    return f"{sign}{_digits(whole)}.{frac:0{digits}d}".rstrip("0").rstrip(".") or "0"


def _rational(value):
    """A rational option value such as 3, 7/2 or 3.5; anything else is a usage error."""
    try:
        return QQ(value)
    except (ValueError, TypeError, ZeroDivisionError):
        raise QCayleyError(f"not a rational number: {value!r}") from None


class Reporter:
    def __init__(self, fmt: str, stream, cmd: str, spec_text: str):
        self.fmt = fmt
        self.stream = stream
        self.cmd = cmd
        self.spec_text = spec_text
        self._csv_header_done = False

    def row(self, quantity: str, lo, hi=None, tail=None, anchor: str = "",
            exact=None, **params):
        hi = lo if hi is None else hi
        rec = {
            "cmd": self.cmd,
            "spec": self.spec_text,
            "params": params,
            "quantity": quantity,
            "value_lo": _dec(lo, _DIGITS, round_up=False),
            "value_hi": _dec(hi, _DIGITS, round_up=True),
            "tail": _dec(tail, _DIGITS, round_up=True) if tail is not None else None,
            "anchor": anchor,
        }
        if self.fmt == "json":
            if exact is not None:
                rec["exact"] = _text(exact)
            self.stream.write(json.dumps(rec, sort_keys=True) + "\n")
        else:
            if not self._csv_header_done:
                self.stream.write("cmd,spec,quantity,params,value_lo,value_hi,tail,anchor\n")
                self._csv_header_done = True
            ptxt = ";".join(f"{k}={v}" for k, v in sorted(params.items()))
            self.stream.write(",".join([
                self.cmd, self.spec_text, quantity, ptxt,
                rec["value_lo"], rec["value_hi"], rec["tail"] or "", anchor,
            ]) + "\n")

    def interval_row(self, quantity: str, iv: Interval, tail=None, anchor: str = "", **params):
        self.row(quantity, iv.lo, iv.hi, tail=tail, anchor=anchor, **params)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_dims(args, out) -> int:
    spec = parse_spec(args.spec)
    dimq = single_ao_dimq(spec)
    dims = ao_dims(dimq, args.count)
    if args.format == "csv":
        out.write(",".join(_text(d) for d in dims) + "\n")
    else:
        rep = Reporter("json", out, "dims", args.spec)
        for k, d in enumerate(dims):
            rep.row("dimension", d, exact=d, anchor="ao-dimension-recursion", index=k)
    return 0


def cmd_tree(args, out) -> int:
    spec = parse_spec(args.spec)
    tree = build_tree(spec, args.radius, max_vertices=args.max_vertices)
    dir_name = {d: (f"{d.factor}:g" if d.bar == 0 else f"{d.factor}:{'u' if d.bar > 0 else 'U'}")
                for d in tree.directions}
    for v in range(tree.n_vertices):
        out.write(json.dumps({
            "id": v,
            "word": format_irrep(tree.word(v)),
            "length": tree.length(v),
            "dimq": _text(tree.dim(v)),
        }, sort_keys=True) + "\n")
    for p, c, d in tree.ascending_edges():
        out.write(json.dumps({"src": p, "dst": c, "dir": dir_name[d], "ascending": True},
                             sort_keys=True) + "\n")
        out.write(json.dumps({"src": c, "dst": p, "dir": dir_name[dual_direction(spec, d)],
                              "ascending": False}, sort_keys=True) + "\n")
    return 0


def cmd_paths(args, out) -> int:
    spec = parse_spec(args.spec)
    tree = build_tree(spec, args.radius, max_vertices=args.max_vertices)
    if args.unit_weights:
        tree = tree.classical()
    rep = Reporter(args.format, out, "paths", args.spec)
    for v in range(tree.n_vertices):
        nsq = qt.path_norm_sq(tree, v)
        rep.row("path_norm_sq", nsq, exact=nsq, anchor="path-norm",
                vertex=v, length=tree.length(v))
    return 0


def cmd_fixed_vector(args, out) -> int:
    spec = parse_spec(args.spec)
    fv = qt.fixed_vector(spec, args.radius)
    rep = Reporter(args.format, out, "fixed-vector", args.spec)
    rep.row("norm_sq", fv.norm_sq, fv.norm_sq + fv.tail_bound, tail=fv.tail_bound,
            anchor="fixed-vector-series", radius=args.radius)
    rep.row("e2_residual_norm", fv.residual_norm, tail=None,
            anchor="fixed-vector-residual", radius=args.radius,
            exact=fv.residual_norm)
    rep.row("tail_ratio", fv.certificate.ratio, exact=fv.certificate.ratio,
            anchor="geometric-tail-certificate", start=fv.certificate.start)
    return 0


def cmd_gram(args, out) -> int:
    spec = parse_spec(args.spec)
    if (args.k is None) != (args.l is None):
        raise QCayleyError("--k and --l must be given together")
    if args.kmax < 0:
        raise QCayleyError("--kmax must be >= 0")
    if args.k is None and args.radius < args.kmax:
        raise QCayleyError("--radius must be >= --kmax")  # else the table stops half printed
    rep = Reporter(args.format, out, "gram", args.spec)
    if args.k is not None:
        iv = qt.gram(spec, args.k, args.l, args.radius)
        rep.interval_row("gram_entry", iv, tail=iv.width, anchor="gram-entry-series",
                         k=args.k, l=args.l, radius=args.radius)
        return 0
    for k in range(args.kmax + 1):
        for l in range(k, args.kmax + 1):
            iv = qt.gram(spec, k, l, args.radius)
            rep.interval_row("gram_entry", iv, tail=iv.width, anchor="gram-entry-series",
                             k=k, l=l, radius=args.radius)
    dee = qt.gram_bound(spec, args.kmax, args.radius)
    rep.row("decay_constant_D", dee, anchor="gram-decay-bound", kmax=args.kmax)
    return 0


def cmd_growth(args, out) -> int:
    spec = parse_spec(args.spec)
    if len(spec.factors) != 1 or spec.factors[0].kind == ORTHOGONAL:
        raise QCayleyError("growth applies to a single Au factor, e.g. --spec 'Au(3)'")
    dimq = spec.factors[0].dimq
    if dimq.denominator != 1:
        raise QCayleyError("growth needs an integer generator dimension")
    if args.n_max < 1:
        raise QCayleyError("--n-max must be >= 1")
    N = int(dimq)
    _check_walks(N, args.n_max)  # refuse up front, not once n reaches the cap
    values = [cn_lower(n, N) for n in range(1, args.n_max + 1)]
    if args.format == "csv":
        out.write("n,cn_lower,first_diff,slope\n")
        for i, v in enumerate(values):
            n = i + 1
            diff = "" if i == 0 else _text(v - values[i - 1])
            slope = "" if i == 0 else _text((v - values[0]) / (n - 1))
            out.write(f"{n},{_text(v)},{diff},{slope}\n")
    else:
        rep = Reporter("json", out, "growth", args.spec)
        for i, v in enumerate(values):
            n = i + 1
            rep.row("cn_lower", v, exact=v, anchor="unitary-growth-bound", n=n)
            if i:
                rep.row("first_diff", v - values[i - 1], exact=v - values[i - 1],
                        anchor="unitary-growth-step", n=n)
    return 0


def cmd_rd_norm(args, out) -> int:
    spec = parse_spec(args.spec)
    dimq = single_ao_dimq(spec)
    s = _rational(args.s)
    rep = Reporter(args.format, out, "rd-norm", args.spec)
    if args.r is not None:
        r = _rational(args.r)
        res = est.nonuni_norm_sq(s, r, dimq, args.radius)
        quantity = "weighted_norm_sq"
        anchor = "weighted-decay-series"
        params = dict(s=str(s), r=str(r), radius=args.radius)
    else:
        res = est.rd_norm_sq(dimq, s, args.radius)
        quantity = "rd_norm_sq"
        anchor = "rapid-decay-series"
        params = dict(s=str(s), radius=args.radius)
    rep.row(quantity, res.partial, res.hi, tail=res.tail_bound, anchor=anchor, **params)
    rep.row("tail_ratio", res.ratio, exact=res.ratio, anchor="geometric-tail-certificate",
            crossover=res.crossover, **params)
    return 0


def _parse_a(text: str, tolerance=None):
    if text.startswith("growth:"):
        tol = _rational(tolerance) if tolerance else QQ(1, 10**30)
        return a_param(_rational(text[len("growth:"):]), tol).interval
    return _rational(text)


def cmd_schur(args, out) -> int:
    if args.size < 1:
        raise QCayleyError("--size must be >= 1")  # else the report stops half printed
    a = _parse_a(args.a, args.tolerance)
    rep = Reporter(args.format, out, "schur", "")
    bound = est.toeplitz_schur_bound(a)
    trunc = est.truncated_toeplitz_norm(a, args.size)  # refuses a size past the cap before any row
    rep.interval_row("schur_bound", bound, anchor="toeplitz-schur-bound", a=args.a)
    rep.interval_row("truncated_norm", trunc, anchor="toeplitz-truncated-norm",
                     a=args.a, size=args.size)
    return 0 if trunc.hi <= bound.hi + QQ(1, 10**9) else 1


def cmd_chain_check(args, out) -> int:
    if args.count < 1:
        raise QCayleyError("--count must be >= 1")
    a = _parse_a(args.a, args.tolerance)
    rng = random.Random(args.seed)
    rep = Reporter(args.format, out, "chain-check", "")
    failures = 0
    for _ in range(args.count):
        if not est.orientation_chain_check(a, verify_mod._random_chain_vector(rng)):
            failures += 1
    rep.row("violations", QQ(failures), exact=QQ(failures),
            anchor="cauchy-schwarz-chain", a=args.a, count=args.count, seed=args.seed)
    return 0 if failures == 0 else 1


def cmd_verify(args, out) -> int:
    results = verify_mod.run_all(args.profile, args.seed)
    for line in verify_mod.report_lines(results):
        out.write(line + "\n")
    return 0 if all(r.passed for r in results) else 1


# ---------------------------------------------------------------------------
# argument wiring
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="qcayley",
        description="Certified arithmetic on weighted Cayley trees of universal quantum groups",
    )
    p.add_argument("--config", help="JSON file with default option values; flags win")
    sub = p.add_subparsers(dest="command", required=True)

    shared = {
        "format": dict(choices=("json", "csv"), default="json"),
        "seed": dict(type=int, default=verify_mod.DEFAULT_SEED),
        "tolerance": dict(help="growth-parameter enclosure width, e.g. 1e-30"),
        "spec": dict(help='e.g. "Ao(3)" or "Ao(3)*Au(3)"'),
        "a": dict(default="2", help="rational like 3/2, or growth:DIMQ"),
        "max-vertices": dict(type=int, default=DEFAULT_VERTEX_CAP),
    }

    def common(sp, *flags):
        """--output plus the shared flags this subcommand reads."""
        sp.add_argument("--output", help="write the report to this path")
        for flag in flags:
            sp.add_argument(f"--{flag}", **shared[flag])

    sp = sub.add_parser("dims", help="quantum dimension sequence of an Ao factor")
    common(sp, "format", "spec")
    sp.add_argument("--count", type=int, default=10)
    sp.set_defaults(fn=cmd_dims)

    sp = sub.add_parser("tree", help="dump vertices and directed edges as JSON lines")
    common(sp, "spec", "max-vertices")
    sp.add_argument("--radius", type=int, default=4)
    sp.set_defaults(fn=cmd_tree)

    sp = sub.add_parser("paths", help="squared path-vector norms per vertex")
    common(sp, "format", "spec", "max-vertices")
    sp.add_argument("--radius", type=int, default=6)
    sp.add_argument("--unit-weights", action="store_true")
    sp.set_defaults(fn=cmd_paths)

    sp = sub.add_parser("fixed-vector", help="truncated infinite-geodesic path vector")
    common(sp, "format", "spec")
    sp.add_argument("--radius", type=int, default=40)
    sp.set_defaults(fn=cmd_fixed_vector)

    sp = sub.add_parser("gram", help="certified Gram entries of the inverse series")
    common(sp, "format", "spec")
    sp.add_argument("--kmax", type=int, default=10)
    sp.add_argument("--k", type=int)
    sp.add_argument("--l", type=int)
    sp.add_argument("--radius", type=int, default=40)
    sp.set_defaults(fn=cmd_gram)

    sp = sub.add_parser("growth", help="linear-growth lower bounds for Au powers")
    common(sp, "format", "spec")
    sp.add_argument("--n-max", type=int, default=8)
    sp.set_defaults(fn=cmd_growth)

    sp = sub.add_parser("rd-norm", help="rapid-decay norm series (weighted with --r)")
    common(sp, "format", "spec")
    sp.add_argument("--s", default="3", help="Sobolev exponent; 2s must be an integer")
    sp.add_argument("--r", help="weight base for the non-unimodular variant")
    sp.add_argument("--radius", type=int, default=60)
    sp.set_defaults(fn=cmd_rd_norm)

    sp = sub.add_parser("schur", help="Toeplitz decay-matrix norm vs the Schur bound")
    common(sp, "format", "tolerance", "a")
    sp.add_argument("--size", type=int, default=50)
    sp.set_defaults(fn=cmd_schur)

    sp = sub.add_parser("chain-check", help="randomized summation-inequality checks")
    common(sp, "format", "seed", "tolerance", "a")
    sp.add_argument("--count", type=int, default=200)
    sp.set_defaults(fn=cmd_chain_check)

    sp = sub.add_parser("verify", help="run the acceptance suite")
    common(sp, "seed")
    sp.add_argument("--profile", choices=tuple(verify_mod.PROFILES), default="quick")
    sp.set_defaults(fn=cmd_verify)
    return p


_CONFIG_KEYS = ("format", "output", "seed", "spec", "radius", "count",
                "kmax", "n_max", "s", "r", "a", "size", "profile", "max_vertices",
                "tolerance")


def _with_config(argv: list, args: argparse.Namespace) -> list:
    """argv with each config value the command reads inserted as `--key=VALUE` right
    after the command, so argparse checks it as it checks the flag and a flag wins.
    A JSON string is the flag's text; any other value is its JSON text (0.1 is 1/10)."""
    with open(args.config) as fh:
        loaded = json.load(fh)
    if not isinstance(loaded, dict):
        raise QCayleyError("the config file must hold a JSON object")
    unknown = set(loaded) - set(_CONFIG_KEYS)
    if unknown:
        raise QCayleyError(f"unknown config keys: {sorted(unknown)}")
    flags = [f"--{key.replace('_', '-')}={v if isinstance(v, str) else json.dumps(v)}"
             for key, v in loaded.items() if hasattr(args, key)]
    i = 0  # the command: skip --config PATH, --config=PATH and abbreviations like --conf PATH
    while argv[i].startswith("-"):
        i += 1 if "=" in argv[i] else 2
    return argv[:i + 1] + flags + argv[i + 1:]


def main(argv=None) -> int:
    parser = _build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parser.parse_args(argv)
    try:
        if args.config:
            args = parser.parse_args(_with_config(argv, args))
        if hasattr(args, "spec") and args.spec is None:
            raise QCayleyError("--spec is required")
        if getattr(args, "tolerance", None) is not None and _rational(args.tolerance) <= 0:
            raise QCayleyError("tolerance must be positive")
        if args.output:
            with open(args.output, "w") as out:
                code = args.fn(args, out)
        else:
            code = args.fn(args, sys.stdout)
        return code
    except (QCayleyError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
