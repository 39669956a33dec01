"""Command-line interface exposing every library operation.

Words are given positionally in either text encoding; the alphabet size is
always ``--gens``.  ``--len`` is a word length, never an alphabet size.  The
empty word prints as ``1`` in text output; JSON output uses the empty string.
Exit codes: 0 success, 1 verification failure, 2 usage error, and 141 (as for
a command that SIGPIPE ends) when the reader closes stdout early, as ``| head`` does.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys

import numpy as np

from . import counting, pairings, polynomials, rmt, words

ROTATION_HELP = (
    "Rotation offset r maps l_1...l_n to l_{r+1}...l_n l_1...l_r; offset 0 is the word itself."
)


def _show(w: words.Word) -> str:
    return words.word_to_text(w) or "1"


def _emit(args, payload: dict, text: str) -> None:
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        print(text)


def _word_of(args) -> words.Word:
    return words.parse_word(args.word, args.gens)


def cmd_reduce(args) -> int:
    w = _word_of(args)
    r = words.linear_reduce(w)
    _emit(
        args,
        {"word": str(w), "reduced": str(r), "letters": list(r.letters), "length": len(r)},
        _show(r),
    )
    return 0


def cmd_cyclic_reduce(args) -> int:
    w = _word_of(args)
    r = words.cyclic_reduce(w)
    _emit(
        args,
        {"word": str(w), "reduced": str(r), "letters": list(r.letters), "k": len(r)},
        _show(r),
    )
    return 0


def cmd_good_rotations(args) -> int:
    w = _word_of(args)
    rot = words.good_rotations(w)
    k = len(rot)
    _emit(args, {"word": str(w), "k": k, "rotations": rot}, f"k={k} rotations={rot}")
    return 0


def cmd_profile(args) -> int:
    w = _word_of(args)
    profile = words.reduction_profile(w, args.horizon)
    payload = {
        "word": str(w),
        "k": profile.k,
        "period_start": profile.period_start,
        "values": list(profile.values),
    }
    text = (
        f"k={profile.k} period_start={profile.period_start}\n"
        + "values=" + ",".join(map(str, profile.values))
    )
    _emit(args, payload, text)
    return 0


def cmd_decompose(args) -> int:
    w = _word_of(args)
    d = words.standard_decomposition(w)
    payload = {"word": str(w), "prefix": str(d.prefix), "core": str(d.core), "suffix": str(d.suffix)}
    _emit(
        args,
        payload,
        f"prefix={_show(d.prefix)} core={_show(d.core)} suffix={_show(d.suffix)}",
    )
    return 0


def cmd_pairing(args) -> int:
    w = _word_of(args)
    p = pairings.admissible_half_pairing(w)
    # The standard reduction is the letters at the through strings, in index order.
    reduction = words.Word(w.alphabet_size, tuple(w.letters[i - 1] for i in sorted(p.singletons)))
    payload = {
        "word": str(w),
        "k": len(reduction),
        "standard_reduction": str(reduction),
        **pairings.half_pairing_to_json(p),
    }
    text = f"k={len(reduction)} standard_reduction={_show(reduction)}\n" + pairings.render_half_pairing(p)
    _emit(args, payload, text)
    return 0


def cmd_dots(args) -> int:
    if args.decode is not None:
        p = pairings.from_dots(pairings.DotDiagram(args.decode))
        _emit(args, pairings.half_pairing_to_json(p), pairings.render_half_pairing(p))
        return 0
    if args.word is None:
        raise ValueError("give a word or --decode COLORS")
    w = words.parse_word(args.word, args.gens)
    d = pairings.to_dots(pairings.admissible_half_pairing(w))
    _emit(args, {"word": str(w), "colors": d.colors}, d.colors)
    return 0


def cmd_enumerate_pairings(args) -> int:
    found = pairings.enumerate_half_pairings(args.len, args.through)
    if args.json:
        print(
            json.dumps(
                {
                    "n": args.len,
                    "through": args.through,
                    "count": len(found),
                    "pairings": [pairings.half_pairing_to_json(p) for p in found],
                },
                indent=2,
            )
        )
    else:
        print(f"count={len(found)}")
        for p in found:
            print(pairings.render_half_pairing(p).replace("\n", ", "))
    return 0


def cmd_count(args) -> int:
    value = counting.reduction_class_size(args.len, args.through, args.gens)
    _emit(args, {"n": args.len, "k": args.through, "gens": args.gens, "count": value}, str(value))
    return 0


def cmd_kesten(args) -> int:
    value = counting.kesten_moment(args.len, args.gens)
    _emit(args, {"n": args.len, "gens": args.gens, "moment": value}, str(value))
    return 0


def cmd_census(args) -> int:
    tally = counting.census(args.len, args.gens, budget=args.budget, jobs=args.jobs)
    if args.csv:
        with open(args.csv, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["reduction", "length", "count"])
            writer.writerows(tally.csv_rows())
    if args.json:
        print(json.dumps(tally.to_json(), indent=2))
    else:
        items = sorted(tally.counts.items(), key=lambda kv: (len(kv[0]), kv[0]))
        for key, count in items:
            print(f"{key or '1'} {count}")
        print(f"total={tally.total} classes={len(items)}")
    return 0


def cmd_verify_xtoq(args) -> int:
    report = counting.verify_power_expansion(args.len, args.gens, budget=args.budget)
    if args.json:
        print(json.dumps(report.to_json(), indent=2))
    else:
        print(
            f"n={report.length} gens={report.alphabet_size} total={report.total} "
            f"{'PASS' if report.ok else 'FAIL'}"
        )
        for v in report.violations:
            print(f"  {v}")
    return 0 if report.ok else 1


def cmd_poly(args) -> int:
    if args.basis == "triangle":
        p = polynomials.fluctuation_poly(args.len, args.gens)
    else:
        p = polynomials.fluctuation_poly_recurrence(args.len, args.gens, args.r1)
    _emit(args, {"n": args.len, "gens": args.gens, "basis": args.basis, **polynomials.poly_to_json(p)}, str(p))
    return 0


def cmd_verify_poly(args) -> int:
    report = polynomials.verify_poly_expansion(args.len, args.gens, budget=args.budget)
    if args.json:
        print(json.dumps(report.to_json(), indent=2))
    else:
        print(f"triangle: {'PASS' if report.triangle_exact else 'FAIL'}")
        if report.recurrence_residual is None:
            print("recurrence: FAIL (differs by more than a constant)")
        else:
            print(f"recurrence: Q_n + ({report.recurrence_residual})*identity")
        for v in report.violations:
            print(f"  {v}")
    return 0 if report.ok else 1


def cmd_rmt(args) -> int:
    seed = args.seed if args.seed is not None else int(np.random.SeedSequence().entropy)
    cfg = rmt.SimConfig(
        matrix_size=args.size,
        alphabet_size=args.gens,
        trials=args.trials,
        max_power=args.max_power,
        seed=seed,
        z_threshold=args.z_threshold,
    )
    samples = rmt.sample_traces(cfg)
    moments = []
    for p in range(1, cfg.max_power + 1):
        est, se = rmt.estimate_moment(samples, p)
        ref = counting.kesten_moment(p, cfg.alphabet_size)
        z = (est - ref) / se if se > 0 else 0.0
        moments.append({"p": p, "estimate": est, "se": se, "kesten": ref, "z": z})
    k_max = args.k_max if args.k_max is not None else min(4, cfg.max_power)
    report = rmt.diagonalization_from_samples(samples, k_max) if k_max > 0 else None

    if args.csv:
        with open(args.csv, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["table", "i", "j", "value", "se", "z"])
            for row in moments:
                writer.writerow(["moment", row["p"], "", row["estimate"], row["se"], row["z"]])
            if report:
                for name, cov, se_, z_ in (
                    ("basis", report.basis_cov, report.basis_se, report.basis_z),
                    ("monomial", report.monomial_cov, report.monomial_se, report.monomial_z),
                ):
                    for i in range(k_max):
                        for j in range(k_max):
                            writer.writerow([name, i + 1, j + 1, cov[i][j], se_[i][j], z_[i][j]])
    if args.json:
        payload = {
            "seed": seed,
            "config": {
                "matrix_size": cfg.matrix_size,
                "alphabet_size": cfg.alphabet_size,
                "trials": cfg.trials,
                "max_power": cfg.max_power,
                "z_threshold": cfg.z_threshold,
            },
            "moments": moments,
            "diagonalization": report.to_json() if report else None,
        }
        print(json.dumps(payload, indent=2))
    else:
        print(f"seed={seed}")
        print(f"m={cfg.matrix_size} gens={cfg.alphabet_size} trials={cfg.trials}")
        for row in moments:
            print(
                f"p={row['p']} estimate={row['estimate']:.6f} se={row['se']:.6f} "
                f"kesten={row['kesten']} z={row['z']:+.2f}"
            )
        if report:
            print(f"diagonalizing basis: {', '.join(report.polynomials)}")
            verdict = "PASS" if report.basis_offdiag_ok else "FAIL"
            print(f"basis off-diagonal |z| <= {cfg.z_threshold}: {verdict}")
            print(f"monomial contrast has off-diagonal |z| > {cfg.z_threshold}: "
                  f"{report.monomial_has_large_offdiag}")
            for name, z_ in (("basis", report.basis_z), ("monomial", report.monomial_z)):
                for i in range(k_max):
                    print(f"z[{name}] " + " ".join(f"{z_[i][j]:+9.3f}" for j in range(k_max)))
    if report and not report.basis_offdiag_ok:
        return 1
    return 0


def _add_word_command(sub, name: str, handler, help_text: str, epilog: str | None = None):
    sp = sub.add_parser(name, help=help_text, epilog=epilog)
    sp.add_argument("word", help="word text: alphabetic (aB = u1 u2^-1) or JSON ([1,-2])")
    sp.add_argument("--gens", type=int, required=True, help="alphabet size N")
    sp.add_argument("--json", action="store_true", help="emit JSON")
    sp.set_defaults(handler=handler)
    return sp


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="freecycle",
        description="Cyclic reduction, half-pairings, exact counts and trace fluctuations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    _add_word_command(sub, "reduce", cmd_reduce, "linear reduction of a word")
    _add_word_command(sub, "cyclic-reduce", cmd_cyclic_reduce, "canonical cyclic reduction")
    _add_word_command(
        sub, "good-rotations", cmd_good_rotations,
        "rotation offsets with good reduction", epilog=ROTATION_HELP,
    )
    sp = _add_word_command(
        sub, "profile", cmd_profile, "prefix reduction lengths of the repeated word"
    )
    sp.add_argument("--horizon", type=int, default=None, help="number of profile values")
    _add_word_command(sub, "decompose", cmd_decompose, "split into prefix * core * suffix")
    _add_word_command(sub, "pairing", cmd_pairing, "the admissible half-pairing of a word")

    sp = sub.add_parser("dots", help="dot-diagram encoding of a pairing", epilog=ROTATION_HELP)
    sp.add_argument("word", nargs="?", default=None)
    sp.add_argument("--gens", type=int, default=1, help="alphabet size N (with a word)")
    sp.add_argument("--decode", metavar="COLORS", default=None, help="B/W string to decode")
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(handler=cmd_dots)

    sp = sub.add_parser("enumerate-pairings", help="all half-pairings with given through strings")
    sp.add_argument("--len", type=int, required=True, help="number of points n")
    sp.add_argument("--through", type=int, required=True, help="number of through strings k")
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(handler=cmd_enumerate_pairings)

    sp = sub.add_parser("count", help="class size: words of length n per reduction of length k")
    sp.add_argument("--len", type=int, required=True, help="word length n")
    sp.add_argument("--through", type=int, required=True, help="reduction length k")
    sp.add_argument("--gens", type=int, required=True)
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(handler=cmd_count)

    sp = sub.add_parser("kesten", help="number of length-n words reducible to the identity")
    sp.add_argument("--len", type=int, required=True)
    sp.add_argument("--gens", type=int, required=True)
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(handler=cmd_kesten)

    sp = sub.add_parser("census", help="exhaustive tally of standard cyclic reductions")
    sp.add_argument("--len", type=int, required=True)
    sp.add_argument("--gens", type=int, required=True)
    sp.add_argument("--budget", type=int, default=counting.DEFAULT_BUDGET)
    sp.add_argument("--jobs", type=int, default=1, help="worker processes")
    sp.add_argument("--csv", metavar="PATH", default=None)
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(handler=cmd_census)

    sp = sub.add_parser("verify-xtoq", help="check census against predicted class sizes")
    sp.add_argument("--len", type=int, required=True)
    sp.add_argument("--gens", type=int, required=True)
    sp.add_argument("--budget", type=int, default=counting.DEFAULT_BUDGET)
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(handler=cmd_verify_xtoq)

    sp = sub.add_parser("poly", help="diagonalizing polynomial of degree n")
    sp.add_argument("--len", type=int, required=True, help="degree n")
    sp.add_argument("--gens", type=int, required=True)
    sp.add_argument("--basis", choices=("triangle", "recurrence"), default="triangle")
    sp.add_argument("--r1", choices=("x", "one"), default="x", help="recurrence degree-1 seed")
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(handler=cmd_poly)

    sp = sub.add_parser("verify-poly", help="census check of the polynomial expansions")
    sp.add_argument("--len", type=int, required=True)
    sp.add_argument("--gens", type=int, required=True)
    sp.add_argument("--budget", type=int, default=counting.DEFAULT_BUDGET)
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(handler=cmd_verify_poly)

    sp = sub.add_parser("rmt", help="Monte Carlo moments and fluctuation diagonalization")
    sp.add_argument("--gens", type=int, required=True)
    sp.add_argument("--size", type=int, default=200, help="matrix size m")
    sp.add_argument("--trials", type=int, default=500)
    sp.add_argument("--max-power", type=int, default=6)
    sp.add_argument("--seed", type=int, default=None, help="omit to draw one (echoed)")
    sp.add_argument("--z-threshold", type=float, default=4.0)
    sp.add_argument("--k-max", type=int, default=None, help="0 disables the diagonalization check")
    sp.add_argument("--csv", metavar="PATH", default=None)
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(handler=cmd_rmt)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.handler(args)
        sys.stdout.flush()
        return code
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Python's recipe: the flush at exit then writes to devnull, not the closed pipe.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141


if __name__ == "__main__":
    sys.exit(main())
