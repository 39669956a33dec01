"""Command-line interface exposing every library operation.

Words are given positionally in either text encoding; the alphabet size is
always ``--gens``.  ``--len`` is a word length, never an alphabet size.  The
empty word prints as ``1`` in text output; JSON output uses the empty string.
Each ``cmd_*`` handler returns its JSON payload, its text and its exit code;
``main`` alone prints, once, whichever form ``--json`` selects.  Handlers whose
output grows with the input build only that form and leave the other empty.
Exit codes: 0 success, 1 verification failure, 2 usage error or an output file
that cannot be written, and 141 (as for a command that SIGPIPE ends) when the
reader closes stdout early, as ``| head`` does.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import json
import math
import os
import sys

from . import counting, pairings, polynomials, words

ROTATION_HELP = (
    "Rotation offset r maps l_1...l_n to l_{r+1}...l_n l_1...l_r; offset 0 is the word itself."
)

Output = tuple[dict, str, int]


def _show(w: words.Word) -> str:
    return words.word_to_text(w) or "1"


def _word_of(args) -> words.Word:
    return words.parse_word(args.word, args.gens)


def cmd_reduce(args) -> Output:
    w = _word_of(args)
    r = words.linear_reduce(w)
    payload = {"word": str(w), "reduced": str(r), "letters": list(r.letters), "length": len(r)}
    return payload, _show(r), 0


def cmd_cyclic_reduce(args) -> Output:
    w = _word_of(args)
    r = words.cyclic_reduce(w)
    payload = {"word": str(w), "reduced": str(r), "letters": list(r.letters), "k": len(r)}
    return payload, _show(r), 0


def cmd_good_rotations(args) -> Output:
    w = _word_of(args)
    rot = words.good_rotations(w)
    k = len(rot)
    return {"word": str(w), "k": k, "rotations": rot}, f"k={k} rotations={rot}", 0


def cmd_profile(args) -> Output:
    w = _word_of(args)
    p = words.reduction_profile(w, args.horizon)
    if args.json:
        values = list(p.values)
        return {"word": str(w), "k": p.k, "period_start": p.period_start, "values": values}, "", 0
    return {}, f"k={p.k} period_start={p.period_start}\nvalues={','.join(map(str, p.values))}", 0


def cmd_decompose(args) -> Output:
    w = _word_of(args)
    d = words.standard_decomposition(w)
    parts = {"prefix": d.prefix, "core": d.core, "suffix": d.suffix}
    payload = {"word": str(w), **{name: str(v) for name, v in parts.items()}}
    return payload, " ".join(f"{name}={_show(v)}" for name, v in parts.items()), 0


def cmd_pairing(args) -> Output:
    w = _word_of(args)
    p = pairings.admissible_half_pairing(w)
    reduction = pairings.standard_cyclic_reduction(w)  # the letters at p's through strings
    payload = {"word": str(w), "k": len(reduction), "standard_reduction": str(reduction)}
    text = f"k={len(reduction)} standard_reduction={_show(reduction)}\n"
    text += pairings.render_half_pairing(p)
    return payload | pairings.half_pairing_to_json(p), text, 0


def cmd_dots(args) -> Output:
    if args.decode is not None:
        p = pairings.from_dots(pairings.DotDiagram(args.decode))
        return pairings.half_pairing_to_json(p), pairings.render_half_pairing(p), 0
    if args.word is None:
        raise ValueError("give a word or --decode COLORS")
    w = _word_of(args)
    d = pairings.to_dots(pairings.admissible_half_pairing(w))
    return {"word": str(w), "colors": d.colors}, d.colors, 0


def cmd_enumerate_pairings(args) -> Output:
    found = pairings.enumerate_half_pairings(args.len, args.through)
    if args.json:
        payload = {"n": args.len, "through": args.through, "count": len(found)}
        payload["pairings"] = [pairings.half_pairing_to_json(p) for p in found]
        return payload, "", 0
    lines = [pairings.render_half_pairing(p).replace("\n", ", ") for p in found]
    return {}, "\n".join([f"count={len(found)}", *lines]), 0


def _refuse_unprintable(log_value: float) -> None:
    """Refuses, before computing it, an answer of at least e^log_value that has more
    digits than Python converts from an integer to text."""
    # the 1e-6 covers lgamma's rounding
    if limit := counting._digit_limit(log_value / math.log(10) - 1e-6):
        raise ValueError(
            f"the answer has more than {limit} digits, Python's limit on printing an integer"
            " (PYTHONINTMAXSTRDIGITS=0 lifts it)"
        )


def cmd_count(args) -> Output:
    n, k, gens = args.len, args.through, args.gens
    if gens >= 1 and 1 <= k <= n and (n - k) % 2 == 0:  # otherwise the count is 0 or refused
        half = (n - k) // 2
        _refuse_unprintable(
            half * math.log(2 * gens - 1)
            + math.lgamma(n + 1) - math.lgamma(half + 1) - math.lgamma(n - half + 1)
        )
    value = counting.reduction_class_size(n, k, gens)
    return {"n": n, "k": k, "gens": gens, "count": value}, str(value), 0


def cmd_kesten(args) -> Output:
    h, gens = args.len // 2, args.gens
    if gens >= 1 and h >= 1 and args.len % 2 == 0:
        # the r = 1 term of the ballot sum, (2h-2)!/(h! (h-1)!) 2N (2N-1)^(h-1), bounds it below
        _refuse_unprintable(
            math.lgamma(2 * h - 1) - math.lgamma(h + 1) - math.lgamma(h)
            + math.log(2 * gens) + (h - 1) * math.log(2 * gens - 1)
        )
    value = counting.kesten_moment(args.len, gens)
    return {"n": args.len, "gens": gens, "moment": value}, str(value), 0


def cmd_census(args) -> Output:
    tally = counting.census(args.len, args.gens, budget=args.budget)
    if args.csv:
        with open(args.csv, "w", newline="") as fh:
            csv.writer(fh).writerows([["reduction", "length", "count"], *tally.csv_rows()])
    if args.json:
        return tally.to_json(), "", 0
    items = sorted(tally.counts.items(), key=lambda kv: (len(kv[0]), kv[0]))
    lines = [f"{key or '1'} {count}" for key, count in items]
    return {}, "\n".join([*lines, f"total={tally.total} classes={len(items)}"]), 0


def cmd_verify_xtoq(args) -> Output:
    report = counting.verify_power_expansion(args.len, args.gens, budget=args.budget)
    verdict = "PASS" if report.ok else "FAIL"
    lines = [f"n={report.length} gens={report.alphabet_size} total={report.total} {verdict}"]
    lines += [f"  {v}" for v in report.violations]
    return report.to_json(), "\n".join(lines), 0 if report.ok else 1


def _log_largest_coefficient(n: int, gens: int, one_seeded: bool) -> float:
    """A lower bound on the log of poly's largest |coefficient|, q = 2N - 1.

    In the triangle basis, as in the recurrence seeded with x, the x^(n-2i) coefficient
    is n C(n-i, i) q^i / (n-i) for i < n/2.  Seeded with 1, it is B_n - 2q B_(n-1), where the
    x^(k-1-2i) coefficient of B_k is (-1)^i C(k-1-i, i) q^i.  An even n's constant,
    2(-q)^(n/2) plus 2(N-1) or 2, is at least 2q^(n/2) - q - 1 in magnitude.
    """
    log_c = lambda a, b: math.lgamma(a + 1) - math.lgamma(b + 1) - math.lgamma(a - b + 1)
    q = 2 * gens - 1
    log_q = math.log(q)
    if one_seeded:
        terms = [log_c(n - 1 - i, i) + i * log_q for i in range((n + 1) // 2)]
        terms += [math.log(2) + (i + 1) * log_q + log_c(n - 2 - i, i) for i in range((n - 1) // 2)]
    else:
        terms = [math.log(n / (n - i)) + log_c(n - i, i) + i * log_q for i in range((n + 1) // 2)]
    if n % 2 == 0 and q > 1:  # at N = 1 the constant is at most 4
        half = n / 2 * log_q
        terms.append(math.log(2) + half + math.log1p(-(q + 1) / 2 * math.exp(-half)))
    return max(terms)


def cmd_poly(args) -> Output:
    if args.gens >= 1 and 1 <= args.len <= polynomials.MAX_POLY_DEGREE:  # else refused below
        one_seeded = args.basis == "recurrence" and args.r1 == "one"
        _refuse_unprintable(_log_largest_coefficient(args.len, args.gens, one_seeded))
    if args.basis == "triangle":
        p = polynomials.fluctuation_poly(args.len, args.gens)
    else:
        p = polynomials.fluctuation_poly_recurrence(args.len, args.gens, args.r1)
    payload = {"n": args.len, "gens": args.gens, "basis": args.basis, **polynomials.poly_to_json(p)}
    return payload, str(p), 0


def cmd_verify_poly(args) -> Output:
    report = polynomials.verify_poly_expansion(args.len, args.gens, budget=args.budget)
    lines = [f"triangle: {'PASS' if report.triangle_exact else 'FAIL'}"]
    if report.recurrence_residual is None:
        lines.append("recurrence: FAIL (differs by more than a constant)")
    else:
        lines.append(f"recurrence: Q_n + ({report.recurrence_residual})*identity")
    lines += [f"  {v}" for v in report.violations]
    return report.to_json(), "\n".join(lines), 0 if report.ok else 1


def cmd_rmt(args) -> Output:
    import secrets
    from . import rmt  # numpy and secrets load only for this command
    seed = args.seed if args.seed is not None else secrets.randbits(128)
    cfg = rmt.SimConfig(
        matrix_size=args.size, alphabet_size=args.gens, trials=args.trials,
        max_power=args.max_power, seed=seed, z_threshold=args.z_threshold,
    )
    k_max = args.k_max if args.k_max is not None else min(4, cfg.max_power)
    if not 0 <= k_max <= cfg.max_power:
        raise ValueError("need 0 <= --k-max <= --max-power (0 disables the diagonalization check)")
    if k_max > 0 and cfg.trials < 3:
        raise ValueError("need --trials >= 3 for a jackknife standard error, or --k-max 0")
    if k_max > 0:
        rmt._check_k_max(cfg, k_max)
    # An unwritable --csv fails here, before any trial is sampled.
    with open(args.csv, "w", newline="") if args.csv else contextlib.nullcontext() as csv_file:
        samples = rmt.sample_traces(cfg)
        moments = []
        for p in range(1, cfg.max_power + 1):
            est, se = rmt.estimate_moment(samples, p)
            ref = counting.kesten_moment(p, cfg.alphabet_size)
            z = (est - ref) / se if se > 0 else 0.0
            moments.append({"p": p, "estimate": est, "se": se, "kesten": ref, "z": z})
        report = rmt.diagonalization_from_samples(samples, k_max) if k_max > 0 else None
        tables = [] if report is None else [
            ("basis", report.basis_cov, report.basis_se, report.basis_z),
            ("monomial", report.monomial_cov, report.monomial_se, report.monomial_z),
        ]
        if csv_file:
            rows = [["moment", m["p"], "", m["estimate"], m["se"], m["z"]] for m in moments]
            rows += [[name, i + 1, j + 1, cov[i][j], se_[i][j], z_[i][j]]
                     for name, cov, se_, z_ in tables for i in range(k_max) for j in range(k_max)]
            csv.writer(csv_file).writerows([["table", "i", "j", "value", "se", "z"], *rows])

    config = {k: v for k, v in dataclasses.asdict(cfg).items() if k != "seed"}
    payload = {"seed": seed, "config": config, "moments": moments,
               "diagonalization": report.to_json() if report else None}
    lines = [f"seed={seed}", f"m={cfg.matrix_size} gens={cfg.alphabet_size} trials={cfg.trials}"]
    lines += [f"p={m['p']} estimate={m['estimate']:.6f} se={m['se']:.6f} kesten={m['kesten']} "
              f"z={m['z']:+.2f}" for m in moments]
    if report:
        lines += [
            f"diagonalizing basis: {', '.join(report.polynomials)}",
            f"basis off-diagonal |z| <= {cfg.z_threshold}: "
            + ("PASS" if report.basis_offdiag_ok else "FAIL"),
            f"monomial contrast has off-diagonal |z| > {cfg.z_threshold}: "
            f"{report.monomial_has_large_offdiag}",
        ]
        lines += [f"z[{name}] " + " ".join(f"{z_[i][j]:+9.3f}" for j in range(k_max))
                  for name, _, _, z_ in tables for i in range(k_max)]
    return payload, "\n".join(lines), 1 if report and not report.basis_offdiag_ok else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="freecycle",
        description="Cyclic reduction, half-pairings, exact counts and trace fluctuations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    json_opt = argparse.ArgumentParser(add_help=False)
    json_opt.add_argument("--json", action="store_true", help="emit JSON")
    word_opts = argparse.ArgumentParser(add_help=False)
    word_opts.add_argument("word", help="word text: alphabetic (aB = u1 u2^-1) or JSON ([1,-2])")
    word_opts.add_argument("--gens", type=int, required=True, help="alphabet size N")
    size_opts = argparse.ArgumentParser(add_help=False)
    size_opts.add_argument("--len", type=int, required=True, help="word length n (poly: degree)")
    size_opts.add_argument("--gens", type=int, required=True, help="alphabet size N")
    budget_opt = argparse.ArgumentParser(add_help=False)
    budget_opt.add_argument("--budget", type=int, default=counting.DEFAULT_BUDGET)

    def command(name, handler, help_text, *parents, epilog=None):
        sp = sub.add_parser(name, help=help_text, epilog=epilog, parents=[*parents, json_opt])
        sp.set_defaults(handler=handler)
        return sp

    command("reduce", cmd_reduce, "linear reduction of a word", word_opts)
    command("cyclic-reduce", cmd_cyclic_reduce, "canonical cyclic reduction", word_opts)
    command(
        "good-rotations", cmd_good_rotations, "rotation offsets with good reduction", word_opts,
        epilog=ROTATION_HELP,
    )
    sp = command("profile", cmd_profile, "prefix reduction lengths of the repeated word", word_opts)
    sp.add_argument("--horizon", type=int, default=None, help="number of profile values")
    command("decompose", cmd_decompose, "split into prefix * core * suffix", word_opts)
    command("pairing", cmd_pairing, "the admissible half-pairing of a word", word_opts)

    sp = command("dots", cmd_dots, "dot-diagram encoding of a pairing", epilog=ROTATION_HELP)
    sp.add_argument("word", nargs="?", default=None)
    sp.add_argument("--gens", type=int, default=1, help="alphabet size N (with a word)")
    sp.add_argument("--decode", metavar="COLORS", default=None, help="B/W string to decode")

    sp = command(
        "enumerate-pairings", cmd_enumerate_pairings, "all half-pairings with given through strings"
    )
    sp.add_argument("--len", type=int, required=True, help="number of points n")
    sp.add_argument("--through", type=int, required=True, help="number of through strings k")

    sp = command(
        "count", cmd_count, "class size: words of length n per reduction of length k", size_opts
    )
    sp.add_argument("--through", type=int, required=True, help="reduction length k")
    command("kesten", cmd_kesten, "number of length-n words reducible to the identity", size_opts)
    sp = command(
        "census", cmd_census, "exhaustive tally of standard cyclic reductions",
        size_opts, budget_opt,
    )
    sp.add_argument("--csv", metavar="PATH", default=None)
    command(
        "verify-xtoq", cmd_verify_xtoq, "check census against predicted class sizes",
        size_opts, budget_opt,
    )
    sp = command("poly", cmd_poly, "diagonalizing polynomial of degree n", size_opts)
    sp.add_argument("--basis", choices=("triangle", "recurrence"), default="triangle")
    sp.add_argument("--r1", choices=("x", "one"), default="x", help="recurrence degree-1 seed")
    command(
        "verify-poly", cmd_verify_poly, "census check of the polynomial expansions",
        size_opts, budget_opt,
    )

    sp = command("rmt", cmd_rmt, "Monte Carlo moments and fluctuation diagonalization")
    sp.add_argument("--gens", type=int, required=True)
    sp.add_argument("--size", type=int, default=200, help="matrix size m")
    sp.add_argument("--trials", type=int, default=500)
    sp.add_argument("--max-power", type=int, default=6)
    sp.add_argument("--seed", type=int, default=None, help="omit to draw one (echoed)")
    sp.add_argument("--z-threshold", type=float, default=4.0)
    sp.add_argument("--k-max", type=int, default=None, help="0 disables the diagonalization check")
    sp.add_argument("--csv", metavar="PATH", default=None)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        payload, text, code = args.handler(args)
        print(json.dumps(payload, indent=2) if args.json else text)
        sys.stdout.flush()
        return code
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Python's recipe: the flush at exit then writes to devnull, not the closed pipe.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except OSError as exc:  # after BrokenPipeError, which is one
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
