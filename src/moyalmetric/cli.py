"""Batch command surface for the quantum-plane metric library.

Every subcommand resolves a RunConfig (flag > MOYAL_* environment variable >
config file > default), prints a human summary to stdout and writes its
machine-readable result into the output directory.  Output files are
deterministic: a ``# key = value`` header echoes the effective configuration,
floats are formatted at 12 significant digits, line endings are ``\\n`` and
the encoding is UTF-8, so reruns with identical settings reproduce files byte
for byte.

Exit codes follow the usual batch conventions: 0 success, 2 certified-value
anomaly (an infeasible certificate, a failed proposition check or a violated
bracket), 64 usage error (bad flags or unparseable state expression), 65 data
error (bad config file, out-of-range state, leakage past the guarded edge),
73 output error (an output directory or file that cannot be created).
Commands write their files (each writer announces its own) and then raise on
an anomaly or bad input; ``main`` alone maps outcomes to exit codes.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import itertools
import json
import math
import os
import re
import sys
import zlib
from collections import Counter
from typing import NamedTuple

import numpy as np

from . import acceptance
from .config import RunConfig, format_value, resolve_config
from .doubling import (
    identification_sweep,
    make_doubled,
    pythagoras_check,
    reference_lambda,
)
from .fock import LeakageError, displace, eigenstate, vacuum_projector
from .lengthop import (
    _family_square_length,
    build_length,
    counterexample_L2prime,
    d_L,
    d_L2,
    modified_length,
)
from .spectral import (
    DiracCalculus,
    DistanceReport,
    _ladder_defect,
    closed_form_for,
    distance_diagonal_lp,
    distance_solver,
    length_vs_optimal_discrepancy,
    lipschitz_seminorm,
    optimal_element_eigenstates,
    optimal_element_translation,
)
from .starprod import star_fourier, star_integral_report, star_matrix, vacuum_symbol
from .stateexpr import (
    StateExprError,
    _parse_complex,
    build_state,
    format_state_expr,
    parse_state_expr,
)

__all__ = ["main", "build_parser"]

EXIT_OK = 0
EXIT_ANOMALY = 2
EXIT_USAGE = 64
EXIT_DATA = 65
EXIT_CANTCREAT = 73

_SLUG_MAX = 96  # longest slug, so that a name with two of them fits 255 bytes
_PLAIN, _REAL, _IMAG = (re.compile(r"[A-Za-z0-9.]+"), re.compile(r"[0-9.]+"),
                        re.compile(r"[0-9.]+[ij]"))
_RANGE_MAX = 10_000  # most points of an 'a..b' shift range

_FEAS_SLACK = 1e-8
_SVG_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd")


class _Row(NamedTuple):
    """One CSV row; the fields are the columns of docs/formats.md, in order,
    and a command names only the cells it fills."""

    label: str
    d_D: float | None = None
    d_L: float | None = None
    d_L2: float | None = None
    d_L_mod: float | None = None
    rel_gap: float | None = None
    feasibility: float | None = None


class _UsageError(Exception):
    """Command-line usage problem; mapped to exit code 64."""


class _Parser(argparse.ArgumentParser):
    """argparse with the exit-code policy of this tool instead of exit(2)."""

    def error(self, message):
        raise _UsageError(message)


# ---------------------------------------------------------------------------
# deterministic writers


def _unslug(slug: str) -> str:
    """The expression a readable tag stands for: each ``-`` read as ``+``
    between a real and an imaginary number, as ``:`` elsewhere."""
    parts = slug.split("-")
    return parts[0] + "".join(
        ("+" if _REAL.fullmatch(a) and _IMAG.fullmatch(b) else ":") + b
        for a, b in zip(parts, parts[1:]))


def _slug(text: str) -> str:
    """Filename-safe tag for a state expression, one per expression.  The
    readable tag writes ``:`` and ``+`` as ``-``.  An expression that it does
    not read back to (``_unslug``) has each character other than letters,
    digits and ``.`` written as ``-``, then ``--`` and the hex UTF-8 bytes of
    those characters, and readable tags, with no empty part, hold no ``--``.
    A tag longer than _SLUG_MAX is cut and ends in the CRC-32 of the full
    text instead."""
    expr = text.strip()
    slug = expr.replace(":", "-").replace("+", "-")
    if not all(map(_PLAIN.fullmatch, slug.split("-"))) or _unslug(slug) != expr:
        marks = re.findall(r"[^A-Za-z0-9.]", expr)
        slug = re.sub(r"[^A-Za-z0-9.]", "-", expr) + "--" + "".join(marks).encode().hex()
    if len(slug) > _SLUG_MAX:
        slug = f"{slug[: _SLUG_MAX - 9]}-{zlib.crc32(text.encode()):08x}"
    return slug


def _cell(value) -> str:
    """CSV cell: blanks for missing values, fixed float format otherwise."""
    if value is None or (isinstance(value, float) and math.isnan(value)):
        return ""
    return format_value(value)


def _write(cfg: RunConfig, name: str, text: str) -> str:
    """Write one output file, UTF-8 with the line endings of ``text``, and
    announce it."""
    os.makedirs(cfg.output_dir, exist_ok=True)
    path = os.path.join(cfg.output_dir, name)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    print(f"wrote {path}")
    return path


def _write_csv(cfg: RunConfig, name: str, rows: list[_Row]) -> str:
    """The header echo, the column row ``_Row._fields``, then one line per row."""
    text = io.StringIO()
    text.writelines(f"{line}\n" for line in cfg.header_lines())
    csv.writer(text, lineterminator="\n").writerows(
        [_Row._fields, *([_cell(v) for v in row] for row in rows)])
    return _write(cfg, name, text.getvalue())


def check_header(path: str, cfg: RunConfig) -> None:
    """Verify the config echo at the top of an output file.

    The suite calls this on everything it writes; a missing or stale header
    means the artifact no longer records how it was produced, which is an
    anomaly rather than a data problem.
    """
    want = cfg.header_lines()
    with open(path, encoding="utf-8") as fh:
        got = [fh.readline().rstrip("\n") for _ in want]
    if got != want:
        raise ArithmeticError(f"output file {path} lost its configuration header")


def _quantize(obj):
    """Recursively fix JSON floats to the 12-significant-digit policy."""
    if isinstance(obj, float):
        if not math.isfinite(obj):
            return None
        return float(format_value(obj))
    if isinstance(obj, dict):
        return {k: _quantize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_quantize(v) for v in obj]
    return obj


def _write_json(cfg: RunConfig, name: str, payload: dict) -> str:
    body = {"config": cfg.as_dict(), **payload}
    return _write(cfg, name, json.dumps(_quantize(body), indent=2, ensure_ascii=False) + "\n")


def _svg_plot(cfg: RunConfig, name: str, title: str, xlabel: str, ylabel: str, series) -> str:
    """Minimal deterministic SVG line plot.

    Hand-rolled on purpose: plotting libraries embed version banners and
    generated ids in their SVG, which breaks the byte-identical-rerun
    guarantee.  ``series`` is a list of (label, xs, ys).
    """
    width, height = 720, 480
    ml, mr, mt, mb = 78, 24, 46, 56
    pts = [
        (float(x), float(y))
        for _, xs, ys in series
        for x, y in zip(xs, ys)
        if math.isfinite(float(x)) and math.isfinite(float(y))
    ]
    if not pts:
        raise ValueError("nothing to plot: every series is empty")
    xmin = min(p[0] for p in pts)
    xmax = max(p[0] for p in pts)
    ymin = min(p[1] for p in pts)
    ymax = max(p[1] for p in pts)
    if xmax - xmin < 1e-300:
        xmin, xmax = xmin - 1.0, xmax + 1.0
    # A y-range at roundoff level (a degenerate spectrum) is drawn flat
    # rather than autoscaled to its noise.
    if ymax - ymin < 1e-9 * max(1.0, abs(ymax)):
        ymin, ymax = ymin - 1.0, ymax + 1.0

    def sx(x: float) -> float:
        return ml + (x - xmin) / (xmax - xmin) * (width - ml - mr)

    def sy(y: float) -> float:
        return height - mb - (y - ymin) / (ymax - ymin) * (height - mt - mb)

    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
    ]
    for line in cfg.header_lines():
        out.append(f"<!-- {line} -->")
    out.append(f'<rect width="{width}" height="{height}" fill="white"/>')
    x0, y0 = sx(xmin), sy(ymin)
    x1, y1 = sx(xmax), sy(ymax)
    out.append(
        f'<line x1="{x0:.2f}" y1="{y0:.2f}" x2="{x1:.2f}" y2="{y0:.2f}" stroke="black"/>'
    )
    out.append(
        f'<line x1="{x0:.2f}" y1="{y0:.2f}" x2="{x0:.2f}" y2="{y1:.2f}" stroke="black"/>'
    )
    for i in range(5):
        tx = xmin + i * (xmax - xmin) / 4.0
        ty = ymin + i * (ymax - ymin) / 4.0
        out.append(
            f'<text x="{sx(tx):.2f}" y="{y0 + 18:.2f}" font-size="11" '
            f'text-anchor="middle">{tx:.6g}</text>'
        )
        out.append(
            f'<text x="{x0 - 6:.2f}" y="{sy(ty) + 4:.2f}" font-size="11" '
            f'text-anchor="end">{ty:.6g}</text>'
        )
    for idx, (label, xs, ys) in enumerate(series):
        color = _SVG_COLORS[idx % len(_SVG_COLORS)]
        coords = " ".join(
            f"{sx(float(x)):.2f},{sy(float(y)):.2f}" for x, y in zip(xs, ys)
        )
        out.append(
            f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="1.5"/>'
        )
        for x, y in zip(xs, ys):
            out.append(
                f'<circle cx="{sx(float(x)):.2f}" cy="{sy(float(y)):.2f}" r="2.5" '
                f'fill="{color}"/>'
            )
        out.append(
            f'<text x="{width - mr:.2f}" y="{mt + 16 * idx:.2f}" font-size="12" '
            f'text-anchor="end" fill="{color}">{label}</text>'
        )
    out.append(
        f'<text x="{(ml + width - mr) / 2:.2f}" y="{mt - 16:.2f}" font-size="14" '
        f'text-anchor="middle">{title}</text>'
    )
    out.append(
        f'<text x="{(ml + width - mr) / 2:.2f}" y="{height - 14:.2f}" font-size="12" '
        f'text-anchor="middle">{xlabel}</text>'
    )
    out.append(
        f'<text x="18" y="{(mt + height - mb) / 2:.2f}" font-size="12" '
        f'text-anchor="middle" transform="rotate(-90 18 {(mt + height - mb) / 2:.2f})">'
        f"{ylabel}</text>"
    )
    out.append("</svg>")
    return _write(cfg, name, "\n".join(out) + "\n")


# ---------------------------------------------------------------------------
# small parsing helpers


def _parse_kappa_list(text: str) -> list[complex]:
    """Shift grids: either 'a..b' (unit steps, inclusive) or 'k1,k2,...'."""
    text = text.strip()
    if ".." in text:
        lo_s, _, hi_s = text.partition("..")
        try:
            lo, hi = float(lo_s), float(hi_s)
        except ValueError:
            raise _UsageError(f"bad range {text!r}; expected like 0..10") from None
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError(f"range bounds must be finite, got {text!r}")
        if hi < lo:
            raise _UsageError(f"empty range {text!r}")
        steps = int(math.floor(hi - lo + 1e-9))
        if steps >= _RANGE_MAX:
            raise _UsageError(f"range {text!r} has more than {_RANGE_MAX} points")
        values = [complex(lo + i) for i in range(steps + 1)]
    else:
        values = [_parse_complex(part) for part in text.split(",") if part.strip()]
        if not values:
            raise _UsageError(f"empty shift list {text!r}")
    _distinct([_label_complex(k) for k in values], "shifts")
    return values


def _distinct(labels: list[str], what: str) -> None:
    """Reject inputs that would print alike in the labels of one file."""
    label, count = Counter(labels).most_common(1)[0]
    if count > 1:
        raise _UsageError(f"two {what} print alike as {label!r} at 12 significant digits")


def _label_complex(z: complex) -> str:
    """A shift as labels print it, at the 12 digits of every number cell."""
    return format_value(z.real) + ("" if z.imag == 0 else f"{z.imag:+.12g}i")


def _fmt(x: float) -> str:
    return format_value(float(x))


# ---------------------------------------------------------------------------
# distance


def _report_stdout(rep: DistanceReport) -> str:
    parts = [f"{rep.method:<13s} d_D = {_fmt(rep.value)}"]
    if rep.upper is not None:
        parts.append(f"upper = {_fmt(rep.upper)}")
    parts.append(f"feasibility = {_fmt(rep.feasibility)}")
    if rep.gap is not None:
        parts.append(f"gap = {_fmt(rep.gap)}")
    line = "   ".join(parts)
    if rep.note:
        line += f"\n    note: {rep.note}"
    return line


def _report_payload(rep: DistanceReport, with_certificate: bool) -> dict:
    payload = {key: getattr(rep, key) for key in
               ("method", "value", "feasibility", "gap", "upper", "note", "increments")}
    if with_certificate and rep.certificate is not None:
        mat = rep.certificate.mat
        payload["certificate"] = {"real": mat.real.tolist(), "imag": mat.imag.tolist()}
    return payload


def cmd_distance(cfg: RunConfig, args) -> None:
    ctx = cfg.context()
    calc = DiracCalculus(ctx)
    tag1 = parse_state_expr(args.state1)
    tag2 = parse_state_expr(args.state2)
    s1 = build_state(ctx, tag1)
    s2 = build_state(ctx, tag2)
    print(f"state 1: {format_state_expr(tag1)}")
    print(f"state 2: {format_state_expr(tag2)}")

    reports: list[DistanceReport] = []
    skipped: list[str] = []
    if args.method in ("closed", "all"):
        rep = closed_form_for(calc, s1, s2)
        if rep is not None:
            reports.append(rep)
        elif args.method == "closed":
            raise ValueError(
                "no closed form covers this pair (it is neither a common "
                "translation family nor number states at one shift); "
                "use --method lp, solver or all"
            )
        else:
            skipped.append("closed-form: pair is outside the covered families")
    if args.method in ("lp", "all"):
        try:
            reports.append(distance_diagonal_lp(calc, s1, s2))
        except ValueError as exc:
            if args.method == "lp":
                raise
            skipped.append(f"diagonal-lp: {exc}")
    if args.method in ("solver", "all"):
        reports.append(distance_solver(calc, s1, s2, cfg.solver()))

    for rep in reports:
        print(_report_stdout(rep))
    for line in skipped:
        print(f"skipped {line}")

    route_gaps: dict[str, float] = {}
    for a, b in itertools.combinations(reports, 2):
        key = f"{a.method} vs {b.method}"
        route_gaps[key] = abs(a.value - b.value)
        print(f"route gap {key} = {_fmt(route_gaps[key])}")

    anomaly = any(rep.feasibility > 1.0 + _FEAS_SLACK for rep in reports)
    payload = {
        "command": "distance",
        "states": [format_state_expr(tag1), format_state_expr(tag2)],
        "method": args.method,
        "reports": [_report_payload(rep, args.with_certificate) for rep in reports],
        "skipped": skipped,
        "route_gaps": route_gaps,
        "anomaly": anomaly,
    }
    name = f"distance_{_slug(args.state1)}_{_slug(args.state2)}_{args.method}.json"
    _write_json(cfg, name, payload)
    if anomaly:
        raise ArithmeticError("a certificate exceeded the unit seminorm budget")


# ---------------------------------------------------------------------------
# quantum length


def cmd_qlength(cfg: RunConfig, args) -> None:
    ctx = cfg.context()
    tag1 = parse_state_expr(args.state1)
    tag2 = parse_state_expr(args.state2)
    s1 = build_state(ctx, tag1)
    s2 = build_state(ctx, tag2)

    sq = d_L2(s1, s2)
    lin = d_L(s1, s2)
    mod = modified_length(s1, s2)
    print(f"d_L2       = {_fmt(sq)}")
    print(f"d_L        = {_fmt(lin)}")
    print(f"sqrt(d_L2) = {_fmt(math.sqrt(max(sq, 0.0)))}")
    print(f"d_L_mod    = {_fmt(mod)}")

    rows = [_Row(f"pair N={ctx.trunc_dim}", d_L=lin, d_L2=sq, d_L_mod=mod)]

    anomaly = False
    f1, f2 = s1.family, s2.family
    if f1 is not None and f2 is not None:
        closed_sq = _family_square_length(ctx.theta, f1[0], f2[0], abs(f1[1] - f2[1]))
        resid = abs(closed_sq - sq) / max(1.0, abs(closed_sq))
        print(f"family closed form d_L2 = {_fmt(closed_sq)} (relative residual {_fmt(resid)})")
        rows.append(_Row("family closed form", d_L2=closed_sq, rel_gap=resid))
        if resid > 1e-6:
            anomaly = True

    half = ctx.trunc_dim // 2
    if half >= 8:
        try:
            hctx = dataclasses.replace(cfg, trunc_dim=half).context()
            h1 = build_state(hctx, tag1)
            h2 = build_state(hctx, tag2)
        except ValueError as exc:  # both states build at N: N/2 leaks or lacks a level
            why = "leakage" if isinstance(exc, LeakageError) else "range"
            print(f"convergence in N: not testable at N={half} ({exc})")
            rows.append(_Row(f"pair N={half} untestable ({why})"))
        else:
            hsq = d_L2(h1, h2)
            hlin = d_L(h1, h2)
            hmod = modified_length(h1, h2)
            drift = max(
                abs(sq - hsq) / max(1.0, abs(sq)),
                abs(lin - hlin) / max(1.0, abs(lin)),
                abs(mod - hmod) / max(1.0, abs(mod)),
            )
            converged = drift <= 1e-6
            rows.append(_Row(f"pair N={half}", d_L=hlin, d_L2=hsq, d_L_mod=hmod, rel_gap=drift))
            print(
                f"convergence in N: N={ctx.trunc_dim} vs N={half}, max relative "
                f"drift {_fmt(drift)} -> {'converged' if converged else 'NOT converged'}"
            )
            if not converged:
                anomaly = True
    else:
        print(f"convergence in N: skipped (N/2 = {half} is below the minimum truncation)")

    _write_csv(cfg, f"qlength_{_slug(args.state1)}_{_slug(args.state2)}.csv", rows)
    if anomaly:
        raise ArithmeticError("a length value failed its cross-check")


# ---------------------------------------------------------------------------
# verification battery


def cmd_suite(cfg: RunConfig, args) -> None:
    mode = "quick" if args.quick else "full"
    print(f"verification battery ({mode} settings)")

    def progress(res: acceptance.CriterionResult) -> None:
        mark = "pass" if res.passed else "FAIL"
        print(
            f"[{res.index:>2}/10] {mark}  {res.name}  "
            f"(worst ratio {_fmt(res.worst)}, {res.seconds:.1f} s)"
        )
        if not res.passed:
            print(f"        {res.detail}")

    results = acceptance.run_all(cfg, quick=args.quick, progress=progress)
    rows = [
        _Row(f"criterion {r.index}: {r.name}", rel_gap=r.worst, feasibility=float(r.passed))
        for r in results
    ]
    npass = sum(1 for r in results if r.passed)
    total = sum(r.seconds for r in results)
    print(f"suite: {npass}/{len(results)} criteria passed in {total:.1f} s")
    check_header(_write_csv(cfg, f"suite_{mode}.csv", rows), cfg)
    if npass < len(results):
        raise ArithmeticError(f"{len(results) - npass} of {len(results)} criteria failed")


# ---------------------------------------------------------------------------
# proposition commands


def cmd_spectrum(cfg: RunConfig, args) -> None:
    count = args.count
    if count < 1:
        raise ValueError(f"--count must be at least 1, got {count}")
    ctx = cfg.context()
    rows: list[_Row] = []
    spectra: dict[int, np.ndarray] = {}
    dims = [ctx.trunc_dim]
    if ctx.trunc_dim // 2 >= 8:
        dims.append(ctx.trunc_dim // 2)
    for dim in dims:
        sub = dataclasses.replace(cfg, trunc_dim=dim).context()
        spectra[dim] = np.asarray(build_length(sub).spectrum[:count])
    for dim in dims:
        ref = spectra[dims[0]]
        for k, w in enumerate(spectra[dim]):
            rel = (abs(float(w) - float(ref[k])) / max(1.0, abs(float(ref[k])))
                   if dim != dims[0] and k < len(ref) else None)
            rows.append(_Row(f"L2 eigenvalue k={k} N={dim}", d_L2=float(w), rel_gap=rel))

    floor = 2.0 * ctx.theta
    resid = abs(float(spectra[dims[0]][0]) - floor)
    print(f"min Sp(L2) = {_fmt(float(spectra[dims[0]][0]))} (closed form 2*theta = {_fmt(floor)})")
    print(f"residual   = {_fmt(resid)}")
    _write_csv(cfg, "spectrum.csv", rows)
    if args.plot:
        series = [
            (f"N={dim}", list(range(len(spectra[dim]))), [float(w) for w in spectra[dim]])
            for dim in dims
        ]
        _svg_plot(cfg, "spectrum.svg", "lowest square-length spectrum",
                  "eigenvalue index", "eigenvalue", series)
    if resid > 1e-6 * max(1.0, floor):
        raise ArithmeticError("the spectral floor moved away from 2*theta")


def cmd_pythagoras(cfg: RunConfig, args) -> None:
    ctx = cfg.context()
    calc = DiracCalculus(ctx)
    dd = make_doubled(calc, reference_lambda(calc, args.family))
    kappas = _parse_kappa_list(args.kappa)
    # Every translate is built before any solve, so a bad shift fails first.
    base = eigenstate(ctx, args.family)
    states = [displace(base, k) for k in kappas]
    pairs = [(0, 0), *itertools.combinations(range(len(kappas)), 2)]
    print(f"family m={args.family}, internal rung d_I = {_fmt(dd.internal_distance)}")

    rows: list[_Row] = []
    worst = 0.0
    for i, j in pairs:
        ka, kb = kappas[i], kappas[j]
        res = pythagoras_check(dd, states[i], states[j], cfg.solver())
        rel = abs(res.lhs - res.rhs_equal) / max(1.0, res.rhs_equal)
        worst = max(worst, rel)
        label = f"family m={args.family} k1={_label_complex(ka)} k2={_label_complex(kb)}"
        rows.append(_Row(label, d_D=math.sqrt(res.lhs), d_L_mod=abs(kb - ka), rel_gap=rel,
                         feasibility=1.0))
        print(
            f"k1={_label_complex(ka):<8} k2={_label_complex(kb):<8} "
            f"lhs = {_fmt(res.lhs)}  rhs = {_fmt(res.rhs_equal)}  "
            f"bracket [{_fmt(res.rhs_lo)}, {_fmt(res.rhs_hi)}]  rel = {_fmt(rel)}"
        )
    print(f"worst relative equality residual = {_fmt(worst)}")
    _write_csv(cfg, "pythagoras.csv", rows)
    if worst > 1e-6:
        raise ArithmeticError("the quadrature equality failed on a family pair")


def cmd_asymptotics(cfg: RunConfig, args) -> None:
    ctx = cfg.context()
    grid = _parse_kappa_list(args.kappa)
    _distinct([_fmt(abs(k - grid[0])) for k in grid], "shifts' separations from the first")
    same, shift, level = identification_sweep(DiracCalculus(ctx), args.family, grid)
    m = args.family

    def tag(row) -> str:
        return " (closed)" if row.closed else ""

    rows = [
        _Row(f"same-family m={m} |dk|={_fmt(r.separation)}{tag(r)}",
             d_D=r.distance, d_L2=r.length, rel_gap=r.rel_gap)
        for r in same
    ]
    rows += [
        _Row(f"cross-family-shift |dk|={_fmt(r.separation)} m={m} n={m + 1}{tag(r)}",
             d_D=r.distance, d_L_mod=r.length, rel_gap=r.rel_gap, feasibility=1.0)
        for r in shift
    ]
    rows += [
        _Row(f"cross-family-level n={r.separation} m={m}",
             d_D=r.distance, d_L_mod=r.length, rel_gap=r.rel_gap, feasibility=1.0)
        for r in level
    ]
    print(
        f"shift sweep: rel gap {_fmt(shift[0].rel_gap)} at |dk|={_fmt(shift[0].separation)} -> "
        f"{_fmt(shift[-1].rel_gap)} at |dk|={_fmt(shift[-1].separation)} (monotone from |dk|=1 on)"
    )
    print(
        f"level sweep: rel gap {_fmt(level[0].rel_gap)} at n={level[0].separation} -> "
        f"{_fmt(level[-1].rel_gap)} at n={level[-1].separation} (monotone)"
    )
    _write_csv(cfg, "asymptotics.csv", rows)
    if args.plot:
        series = [
            (name, [r.separation for r in rs], [r.rel_gap for r in rs])
            for name, rs in (("shift sweep", shift), ("level sweep", level))
        ]
        _svg_plot(cfg, "asymptotics.svg", "identification relative gap",
                  "separation", "relative gap", series)


def cmd_counterexample(cfg: RunConfig, args) -> None:
    try:
        idx = tuple(int(part) for part in args.indices.split(","))
    except ValueError:
        raise _UsageError(f"bad index list {args.indices!r}; expected like 0,2,4,6") from None
    if len(idx) != 4:
        raise _UsageError("--indices needs exactly four comma-separated levels")
    ctx = cfg.context()
    res = counterexample_L2prime(ctx, *idx)
    tag = "-".join(str(i) for i in idx)
    rows = [
        _Row(f"indices {tag} lhs 3*dmod^2(triple vs single)", d_L2=res.lhs),
        _Row(f"indices {tag} rhs pair/single combination", d_L2=res.rhs),
        _Row(f"indices {tag} residual", d_L2=res.residual),
    ]
    print(f"lhs      = {_fmt(res.lhs)}")
    print(f"rhs      = {_fmt(res.rhs)}")
    print(f"residual = {_fmt(res.residual)}")
    print(
        "a residual away from zero is the expected outcome: no pair-space "
        "operator realizes the modified square length linearly"
    )
    _write_csv(cfg, "counterexample.csv", rows)


def cmd_riemann(cfg: RunConfig, args) -> None:
    ctx = cfg.context()
    calc = DiracCalculus(ctx)
    m = args.family
    top = args.upto if args.upto is not None else min(m + 20, ctx.interior_dim - 1)
    if top <= m:
        raise ValueError(f"--upto must exceed the family level {m}, got {top}")
    rows: list[_Row] = []
    gaps: list[float] = []
    for n in range(m + 1, top + 1):
        disc = length_vs_optimal_discrepancy(calc, m, n)
        gaps.append(disc.rel_gap)
        rows.append(_Row(f"pair m={m} n={n}", d_D=disc.d_D, d_L_mod=disc.d_L_mod,
                         rel_gap=disc.rel_gap))
    monotone = all(b < a + 1e-12 for a, b in zip(gaps, gaps[1:]))
    print(f"rel gap: {_fmt(gaps[0])} at n={m + 1} -> {_fmt(gaps[-1])} at n={top}")
    print(f"monotone decreasing: {'yes' if monotone else 'NO'}")
    _write_csv(cfg, "riemann.csv", rows)
    if args.plot:
        xs = list(range(m + 1, top + 1))
        _svg_plot(cfg, "riemann.svg", "partial-sum distance vs modified length",
                  "upper level n", "relative gap", [("relative gap", xs, gaps)])
    if not monotone:
        raise ArithmeticError("the relative gap failed to decrease")


def cmd_oracle(cfg: RunConfig, args) -> None:
    points: list[tuple[float, float]] = []
    for part in args.points.split(";"):
        xy = part.split(",")
        if len(xy) != 2:
            raise _UsageError(f"bad point {part!r}; expected x,y")
        try:
            points.append((float(xy[0]), float(xy[1])))
        except ValueError:
            raise _UsageError(f"bad point {part!r}; expected numbers") from None
    labels = [f"vacuum pair at ({_fmt(x[0])} {_fmt(x[1])})" for x in points]
    _distinct(labels, "points")

    theta = cfg.theta
    f0 = vacuum_symbol(theta, args.box, args.step)

    # Matrix route: the vacuum projector is a star idempotent, so the product
    # symbol is again 2 exp(-|x|^2/theta).  The projector identity is checked
    # on actual matrices, the symbol value in closed form.
    ctx = cfg.context()
    p0 = vacuum_projector(ctx)
    idem = float(np.abs(star_matrix(p0, p0).mat - p0.mat).max())

    rows = [_Row("vacuum projector idempotent (matrix route)", rel_gap=idem)]
    anomaly = idem > 1e-12
    for x, label in zip(points, labels):
        val, bound = star_integral_report(f0, f0, x, theta=theta)
        want = 2.0 * math.exp(-(x[0] ** 2 + x[1] ** 2) / theta)
        quad_err = abs(val - want)
        ratio = quad_err / bound if bound > 0 else math.inf
        four = star_fourier(f0, f0, x, theta=theta)
        four_err = abs(four - val)
        rows.append(_Row(f"{label} quadrature vs matrix", rel_gap=ratio, feasibility=bound))
        rows.append(_Row(f"{label} fourier vs quadrature", rel_gap=four_err, feasibility=1e-6))
        print(
            f"x=({x[0]:g},{x[1]:g})  quadrature = {_fmt(val.real)}  matrix = {_fmt(want)}  "
            f"|diff| = {_fmt(quad_err)} (bound {_fmt(bound)})  fourier drift = {_fmt(four_err)}"
        )
        if quad_err > bound or four_err > 1e-6:
            anomaly = True

    _write_csv(cfg, "oracle.csv", rows)
    if anomaly:
        raise ArithmeticError("a star-product route left its certified bound")


def cmd_optimal_element(cfg: RunConfig, args) -> None:
    calc = DiracCalculus(cfg.context())
    elt = optimal_element_translation(calc, args.xi)
    s_elt = lipschitz_seminorm(calc, elt)
    print(f"translation element: seminorm = {_fmt(s_elt)} (target 1)")

    chain = optimal_element_eigenstates(calc, upto=args.upto)
    s_chain = lipschitz_seminorm(calc, chain)
    defect_resid = _ladder_defect(calc, chain.mat)
    print(f"ladder element:      seminorm = {_fmt(s_chain)} (target 1)")
    print(f"interior defect vs ground projector: residual = {_fmt(defect_resid)}")

    disc = length_vs_optimal_discrepancy(calc, 0, 1)
    print(f"radial element gap (0,1) = {_fmt(disc.d_L_mod)}")

    rows = [
        _Row(f"translation element xi={_fmt(args.xi)}", rel_gap=abs(s_elt - 1.0),
             feasibility=s_elt),
        _Row(f"ladder element upto={args.upto}", rel_gap=abs(s_chain - 1.0), feasibility=s_chain),
        _Row("ladder defect vs ground projector", rel_gap=defect_resid),
        _Row("radial element pair m=0 n=1", d_D=disc.d_D, d_L_mod=disc.d_L_mod,
             rel_gap=disc.rel_gap),
    ]
    _write_csv(cfg, "optimal_element.csv", rows)
    if max(abs(s_elt - 1.0), abs(s_chain - 1.0)) > 1e-10:
        raise ArithmeticError("an optimal-element identity failed")


# ---------------------------------------------------------------------------
# parser assembly


def _add_common(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("configuration")
    group.add_argument("--config", help="key-value config file")
    group.add_argument("--trunc-dim", type=int, help="truncation size N")
    group.add_argument("--theta", type=float, help="deformation scale")
    group.add_argument("--tol", type=float, help="numerical tolerance")
    group.add_argument("--solver-iterations", type=int,
                       help="splitting-loop iterations, on either sheet")
    group.add_argument("--leakage-bound", type=float, help="allowed edge leakage")
    group.add_argument("--output-dir", help="directory for CSV/JSON/SVG results")


def _overrides(args) -> dict[str, object]:
    # The option dests of _add_common are RunConfig's field names.
    return {f.name: getattr(args, f.name) for f in dataclasses.fields(RunConfig)}


def build_parser() -> _Parser:
    parser = _Parser(prog="moyalmetric",
                     description="metric computations on the truncated quantum plane")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    p = sub.add_parser("distance", help="spectral distance between two states")
    p.add_argument("state1")
    p.add_argument("state2")
    p.add_argument("--method", choices=("closed", "lp", "solver", "all"), default="all")
    p.add_argument("--with-certificate", action="store_true",
                   help="embed the certificate matrix in the JSON report")
    p.set_defaults(func=cmd_distance)

    p = sub.add_parser("qlength", help="quantum length family between two states")
    p.add_argument("state1")
    p.add_argument("state2")
    p.set_defaults(func=cmd_qlength)

    p = sub.add_parser("suite", help="run the verification battery")
    p.add_argument("--quick", action="store_true", help="reduced sizes and budgets")
    p.set_defaults(func=cmd_suite)

    p = sub.add_parser("spectrum", help="lowest square-length eigenvalues")
    p.add_argument("--count", type=int, default=8, help="how many eigenvalues")
    p.add_argument("--plot", action="store_true", help="also write an SVG plot")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("pythagoras", help="doubled-sheet quadrature bracket")
    p.add_argument("--family", type=int, default=0, help="reference level m")
    p.add_argument("--kappa", default="0,1", help="shift list k1,k2,... (or a..b)")
    p.set_defaults(func=cmd_pythagoras)

    p = sub.add_parser("asymptotics", help="identification sweep of the two metrics")
    p.add_argument("--family", type=int, default=0, help="reference level m")
    p.add_argument("--kappa", default="0..10", help="shift grid a..b or k1,k2,...")
    p.add_argument("--plot", action="store_true", help="also write an SVG plot")
    p.set_defaults(func=cmd_asymptotics)

    p = sub.add_parser("counterexample", help="no-square-length-operator residual")
    p.add_argument("--indices", default="0,2,4,6", help="four levels i,j,k,l")
    p.set_defaults(func=cmd_counterexample)

    p = sub.add_parser("riemann", help="partial-sum distance vs modified length")
    p.add_argument("--family", type=int, default=0, help="lower level m")
    p.add_argument("--upto", type=int, default=None, help="largest partner level")
    p.add_argument("--plot", action="store_true", help="also write an SVG plot")
    p.set_defaults(func=cmd_riemann)

    p = sub.add_parser("oracle", help="star-product route agreement")
    p.add_argument("--box", type=float, default=8.0, help="half-width of the sample box")
    p.add_argument("--step", type=float, default=1.0 / 16.0, help="grid step")
    p.add_argument("--points", default="0,0;0.5,-0.25", help="evaluation points x,y;x,y;...")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("optimal-element", help="distance-attaining element identities")
    p.add_argument("--xi", type=float, default=0.0, help="translation phase")
    p.add_argument("--upto", type=int, default=6, help="largest ladder level")
    p.set_defaults(func=cmd_optimal_element)

    for p in sub.choices.values():
        _add_common(p)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        cfg = resolve_config(file_path=args.config, overrides=_overrides(args))
        args.func(cfg, args)
        return EXIT_OK
    except (_UsageError, StateExprError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except ArithmeticError as exc:
        print(f"anomaly: {exc}", file=sys.stderr)
        return EXIT_ANOMALY
    except OSError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return EXIT_CANTCREAT


if __name__ == "__main__":
    sys.exit(main())
