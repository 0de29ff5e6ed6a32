"""confbc command line.

Verbs:
  region   evaluate one bound's support envelope for a channel
  verify   run a named verification suite
  sweep    track a metric while one channel parameter varies
  fm       Fourier-Motzkin elimination on a JSON inequality system
  plot     draw a region boundary SVG from a support CSV

Exit codes: 0 ok / 1 failure (including failed verify, and a file that
cannot be read or written) / 2 bound not applicable to this channel /
3 malformed channel or JSON / 4 parameter grid larger than the
evaluation budget.
"""

import argparse
import csv
import functools
import json
import sys

import numpy as np

from . import __version__
from . import dm_bounds as dmb
from . import gaussian_bounds as gb
from .channels import load_channel
from .errors import (ChannelFormatError, ConfbcError, GridTooLargeError,
                     InapplicableBoundError)
from .regions import (CANONICAL_DIRS_2D, CANONICAL_DIRS_3D, LinearSystem,
                      RegionEnvelope, default_dirs_2d, default_dirs_3d,
                      envelope_boundary_2d, fm_eliminate, write_support_csv)
from .suites import _finite_json, run_suite, suite_names

_TABLES = {"dm": dmb.BOUNDS, "gaussian": gb.BOUNDS}
_BOUND_NAMES = tuple(dict.fromkeys([*dmb.BOUNDS, *gb.BOUNDS]))
# sweep --metric sumrate-gap: the converse and its inner bound, per kind
_GAP_BOUNDS = {"dm": ("outer", "inner1"), "gaussian": ("outer", "df")}
# the documented exit codes, most specific first (JSONDecodeError is a ValueError)
_EXIT_CODES = ((InapplicableBoundError, 2),
               ((ChannelFormatError, json.JSONDecodeError), 3),
               (GridTooLargeError, 4),
               ((ConfbcError, ValueError, OSError), 1))


# ---------------------------------------------------------------------------
# region evaluation
# ---------------------------------------------------------------------------

def _bound(ch, name):
    table = _TABLES[ch.kind]
    if name not in table:
        raise InapplicableBoundError("bound %r needs a %s channel" % (
            name, "gaussian" if ch.kind == "dm" else "discrete"))
    return table[name]


def _pick_dirs(bound, n, r2_slice):
    if n is not None and n < 1:
        raise ValueError("--dirs must be a positive integer, got %d" % n)
    if len(bound.variables) == 3 and not r2_slice:
        return default_dirs_3d(n or 512)
    dirs = default_dirs_2d(n or 181)
    return np.column_stack([dirs, np.zeros(dirs.shape[0])]) if r2_slice else dirs


def _envelope(ch, bound, dirs, args):
    return bound.envelope(ch, args.grid, dirs,
                          u_card=args.u_card, v_card=args.v_card)


def _cmd_region(args):
    ch = load_channel(args.channel)
    if args.r2 is not None and args.r2 != 0.0:
        raise InapplicableBoundError("only the R2 = 0 slice is supported")
    bound = _bound(ch, args.bound)
    slicing = args.r2 is not None and len(bound.variables) == 3
    dirs = _pick_dirs(bound, args.dirs, slicing)
    env = _envelope(ch, bound, dirs, args)
    if slicing:
        env = RegionEnvelope(("R0", "R1"), dirs[:, :2], env.supports,
                             meta={**env.meta, "slice": "R2=0"})
    if args.out:
        write_support_csv(env, args.out)
    if args.svg:
        if len(env.variables) != 2:
            raise InapplicableBoundError(
                "SVG wants a 2-d region; pass --r2 0 to slice")
        _write_svg([(args.bound, envelope_boundary_2d(env))], args.svg,
                   xlab=env.variables[0], ylab=env.variables[1])
    if args.json:
        doc = {"bound": args.bound, "channel": ch.to_json_dict(),
               "variables": list(env.variables),
               "directions": env.directions, "supports": env.supports,
               "meta": env.meta}
        print(json.dumps(_finite_json(doc)))
    elif not args.out and not args.svg:
        # the default fans start with the canonical rows
        k = len(CANONICAL_DIRS_2D if len(env.variables) == 2 else CANONICAL_DIRS_3D)
        for d, s in zip(env.directions[:k], env.supports[:k]):
            print("support %s = %.9g"
                  % ("+".join("%g*%s" % (w, v) for w, v
                              in zip(d, env.variables) if w), s))
    return 0


# ---------------------------------------------------------------------------
# verification suites
# ---------------------------------------------------------------------------

def _cmd_verify(args):
    report = run_suite(args.suite, seed=args.seed)
    for line in report.summary_lines():
        print(line)
    print("suite %s: %s" % (report.suite, "PASS" if report.passed else "FAIL"))
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(report.to_json_dict(), fh, indent=1)
    return 0 if report.passed else 1


# ---------------------------------------------------------------------------
# parameter sweeps
# ---------------------------------------------------------------------------

def _with_param(ch, name, value):
    doc = ch.to_json_dict()
    if ch.kind == "dm" and name in ("lambda", "power"):
        raise InapplicableBoundError(
            "discrete channels have no %r parameter to vary" % name)
    doc[name] = value
    return load_channel(doc)


def _sweep_metric(ch, args):
    if args.metric == "sumrate-gap":
        d = np.array([(1.0, 1.0, 1.0)])
        outer, inner = (_envelope(ch, _bound(ch, name), d, args).supports[0]
                        for name in _GAP_BOUNDS[ch.kind])
        return float(outer - inner)
    bound = _bound(ch, args.bound)
    direction = np.array([float(t) for t in args.dir.split(",")])
    want = len(bound.variables)
    if direction.shape[0] != want:
        raise InapplicableBoundError(
            "bound %r expects a %d-component --dir" % (args.bound, want))
    env = _envelope(ch, bound, direction[None, :], args)
    return float(env.supports[0])


def _cmd_sweep(args):
    base = load_channel(args.channel)
    values = np.linspace(args.start, args.stop, args.count)
    rows = []
    for v in values:
        ch = _with_param(base, args.vary, float(v))
        rows.append((float(v), _sweep_metric(ch, args)))
    header = (args.vary, args.metric.replace("-", "_") + "_bits")
    if args.out:
        with open(args.out, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(header)
            for v, m in rows:
                w.writerow(["%.9g" % v, "%.9g" % m])
    for v, m in rows:
        print("%s=%.9g %s=%.9g" % (args.vary, v, header[1], m))
    return 0


# ---------------------------------------------------------------------------
# Fourier-Motzkin on JSON systems
# ---------------------------------------------------------------------------

def _cmd_fm(args):
    with open(args.system) as fh:
        doc = json.load(fh)
    system = LinearSystem.from_json_dict(doc)
    names = [t for t in args.eliminate.split(",") if t]
    out = fm_eliminate(system, names, prune=not args.no_prune)
    text = json.dumps(out.to_json_dict(), indent=1)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0


# ---------------------------------------------------------------------------
# plotting
# ---------------------------------------------------------------------------

def _read_support_csv(path):
    """Boundary points of a support CSV's 2-d region, or a boundary
    CSV's points as written.  ValueError on any other header, on a row
    whose width is not the header's, and on a support CSV with no rows."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    head, body = (rows[0], rows[1:]) if rows else ([], [])
    if head not in (["R0", "R1"], ["dir0", "dir1", "dir2", "support_bits"]):
        raise ValueError("%s: not a support or boundary CSV (header %r)"
                         % (path, ",".join(head)))
    for line, r in enumerate(body, start=2):
        if len(r) != len(head):
            raise ValueError("%s line %d: %d fields under a %d-field header"
                             % (path, line, len(r), len(head)))
    if head == ["R0", "R1"]:                         # boundary file
        return np.array([[float(a), float(b)] for a, b in body])
    if not body:
        raise ValueError("%s: a support CSV with no rows" % path)
    vals = np.array([[float(x) for x in r] for r in body])
    dirs, sup = vals[:, :3], vals[:, 3]
    if np.any(dirs[:, 2] != 0.0):
        raise InapplicableBoundError(
            "plot wants a 2-d region (dir2 must be 0); slice with --r2 0")
    env = RegionEnvelope(("R0", "R1"), dirs[:, :2], sup)
    return envelope_boundary_2d(env)


def _cmd_plot(args):
    pts = _read_support_csv(args.infile)
    label = args.label or "region"
    _write_svg([(label, pts)], args.svg)
    return 0


_PALETTE = ("#c2410c", "#1d4ed8", "#15803d", "#7e22ce", "#be123c")


def _write_svg(curves, path, xlab="R0", ylab="R1"):
    """Minimal standalone SVG: axes plus one polyline per region."""
    w, h, m = 640.0, 480.0, 60.0
    xmax = ymax = 1e-9
    for _, pts in curves:
        if len(pts):
            xmax = max(xmax, float(pts[:, 0].max()))
            ymax = max(ymax, float(pts[:, 1].max()))
    xmax *= 1.08
    ymax *= 1.08

    def sx(x):
        return m + (x / xmax) * (w - 2 * m)

    def sy(y):
        return h - m - (y / ymax) * (h - 2 * m)

    out = ['<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 %g %g" '
           'font-family="sans-serif" font-size="12">' % (w, h),
           '<rect width="%g" height="%g" fill="white"/>' % (w, h),
           '<line x1="%g" y1="%g" x2="%g" y2="%g" stroke="black"/>'
           % (m, h - m, w - m, h - m),
           '<line x1="%g" y1="%g" x2="%g" y2="%g" stroke="black"/>'
           % (m, m, m, h - m),
           '<text x="%g" y="%g" text-anchor="middle">%s (bits)</text>'
           % (w / 2, h - m / 3, xlab),
           '<text x="%g" y="%g" text-anchor="middle" '
           'transform="rotate(-90 %g %g)">%s (bits)</text>'
           % (m / 3, h / 2, m / 3, h / 2, ylab),
           '<text x="%g" y="%g" text-anchor="middle">0</text>'
           % (m, h - m + 16),
           '<text x="%g" y="%g" text-anchor="middle">%.3g</text>'
           % (sx(xmax / 1.08), h - m + 16, xmax / 1.08),
           '<text x="%g" y="%g" text-anchor="end">%.3g</text>'
           % (m - 6, sy(ymax / 1.08) + 4, ymax / 1.08)]
    for i, (label, pts) in enumerate(curves):
        color = _PALETTE[i % len(_PALETTE)]
        if len(pts) == 0:
            continue
        coords = " ".join("%.2f,%.2f" % (sx(x), sy(y)) for x, y in pts)
        out.append('<polyline points="%s" fill="none" stroke="%s" '
                   'stroke-width="1.5"/>' % (coords, color))
        lx, ly = pts[len(pts) // 2]
        out.append('<text x="%g" y="%g" fill="%s">%s</text>'
                   % (sx(lx) + 6, sy(ly) - 6, color, label))
    out.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(out) + "\n")


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _build_parser():
    p = argparse.ArgumentParser(
        prog="confbc",
        description="rate regions for two-receiver broadcast channels "
                    "with conferencing decoders")
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="verb", required=True)
    # the channel, grid and alphabet sizes region and sweep both take
    swept = argparse.ArgumentParser(add_help=False)
    swept.add_argument("--channel", required=True,
                       help="channel JSON file (or inline JSON)")
    swept.add_argument("--grid", type=float, default=None,
                       help="parameter grid step (bound-specific default)")
    swept.add_argument("--u-card", type=int, default=None)
    swept.add_argument("--v-card", type=int, default=None)

    r = sub.add_parser("region", parents=[swept],
                       help="evaluate a bound's support envelope")
    r.add_argument("--bound", required=True, choices=_BOUND_NAMES)
    r.add_argument("--dirs", type=int, default=None,
                   help="number of swept support directions")
    r.add_argument("--r2", type=float, default=None,
                   help="slice a 3-d region at R2=0 (only 0 is accepted)")
    r.add_argument("--out", help="write dir/support CSV here")
    r.add_argument("--svg", help="write a boundary SVG here (2-d regions)")
    r.add_argument("--json", action="store_true",
                   help="print the envelope as JSON on stdout")
    r.set_defaults(fn=_cmd_region)

    v = sub.add_parser("verify", help="run a named verification suite")
    v.add_argument("--suite", required=True, choices=suite_names())
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--json", help="also write the report as JSON here")
    v.set_defaults(fn=_cmd_verify)

    s = sub.add_parser("sweep", parents=[swept],
                       help="vary one parameter, track one metric")
    s.add_argument("--vary", required=True,
                   choices=("lambda", "power", "c12", "c21"))
    s.add_argument("--start", type=float, required=True)
    s.add_argument("--stop", type=float, required=True)
    s.add_argument("--count", type=int, default=9)
    s.add_argument("--metric", required=True,
                   choices=("sumrate-gap", "dir-support"))
    s.add_argument("--bound", default="outer", choices=_BOUND_NAMES)
    s.add_argument("--dir", default="1,1,1",
                   help="comma direction for dir-support")
    s.add_argument("--out", help="write value/metric CSV here")
    s.set_defaults(fn=_cmd_sweep)

    f = sub.add_parser("fm", help="project a JSON inequality system")
    f.add_argument("--system", required=True, help="LinearSystem JSON file")
    f.add_argument("--eliminate", required=True,
                   help="comma-separated variable names to remove")
    f.add_argument("--no-prune", action="store_true",
                   help="skip the vertex sweep that drops rows never active "
                        "at a vertex; tautology removal, proportional-row "
                        "dedup and Chernikov's rule always run")
    f.add_argument("--out", help="write the projected system here")
    f.set_defaults(fn=_cmd_fm)

    g = sub.add_parser("plot", help="support CSV -> boundary SVG")
    g.add_argument("--in", dest="infile", required=True)
    g.add_argument("--svg", required=True)
    g.add_argument("--label", default=None)
    g.set_defaults(fn=_cmd_plot)
    return p


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ConfbcError, ValueError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return next(code for types, code in _EXIT_CODES
                    if isinstance(exc, types))


if __name__ == "__main__":
    sys.exit(main())
