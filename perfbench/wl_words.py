"""long-words: every word kernel on long words of three kinds and five sizes.

A round analyses one fresh word of each kind at each size, interleaved, so a
slow spell of the host hits every kind and size alike.  Sizes grow by 2^0.625
from 2^8 to 2^10.5: five classes, so the median operation falls inside the
middle class rather than on a boundary between two, and a round takes about
two seconds, so a run holds enough rounds for a steady median.
"""

from __future__ import annotations

import random
import time

import bench
import checks
from checks import expect

SIZES = tuple(round(2 ** (8 + 0.625 * j)) for j in range(5))
KINDS = ("random", "cancelling", "adversarial")
LAYERS = (
    "words.linear_reduce",
    "words.cyclic_reduce",
    "words.good_rotations",
    "pairings.admissible_half_pairing",
    "pairings.standard_cyclic_reduction",
    "pairings.to_dots",
    "pairings.from_dots",
    "words.standard_decomposition",
    "words.reduction_profile",
    "pairings.HalfPairing",
)
SCALING = ("words.good_rotations", "pairings.admissible_half_pairing")


def warm_up(fc) -> None:
    w = fc.word([1, 2, -1, 1, 2, 2, -2, -1], 2)
    fc.reduction_profile(w)
    fc.from_dots(fc.to_dots(fc.admissible_half_pairing(w)))
    fc.good_rotations(w)
    fc.standard_decomposition(w)


def _cyclically_reduced(rng: random.Random, length: int, gens: int) -> list[int]:
    alphabet = [s * g for g in range(1, gens + 1) for s in (1, -1)]
    while True:
        out = [rng.choice(alphabet)]
        while len(out) < length:
            l = rng.choice(alphabet)
            if l != -out[-1]:
                out.append(l)
        if out[0] != -out[-1]:
            return out


def make_word(rng: random.Random, kind: str, n: int) -> tuple[int, list[int]]:
    """(alphabet size, letters) of one input word."""
    if kind == "random":
        return 2, [rng.choice((1, -1, 2, -2)) for _ in range(n)]
    if kind == "cancelling":
        core = _cyclically_reduced(rng, 4 + n % 2 + 2 * rng.randrange(3), 2)
        u = [rng.choice((1, -1, 2, -2)) for _ in range((n - len(core)) // 2)]
        letters = u + core + [-l for l in reversed(u)]
        # The rotation search in admissible_half_pairing scans up to the core, so the
        # core lands within n/8 of the middle: a uniform offset made the cost of one
        # word, and with it the median operation, jump from run to run.
        target = n // 2 + rng.randrange(-(n // 8), n // 8)
        r = (len(u) - target) % len(letters)
        return 2, letters[r:] + letters[:r]
    m = (n - 1) // 2
    return 1, [1] * m + [-1] * (m + 1)


class Workload:
    unit = "letters"

    def __init__(self, seed: int, tracer: bench.Tracer):
        self.fc = bench.import_freecycle()
        self.tracer = tracer
        self.inputs = random.Random(f"long-words:{seed}")
        self.sampling = random.Random(f"long-words-checks:{seed}")

    def round(self, index: int) -> dict:
        words = [(n, kind, *make_word(self.inputs, kind, n)) for n in SIZES for kind in KINDS]
        ops, work = [], 0
        with self.tracer.span("round"):
            for n, kind, gens, letters in words:
                seconds, error = self.analyse(n, gens, letters)
                ops.append({"name": f"{kind}-{n}", "s": seconds, "error": error})
                work += len(letters)
        return {"ops": ops, "work": work}

    def analyse(self, n: int, gens: int, letters: list[int]) -> tuple[float, str | None]:
        fc, call = self.fc, self.tracer.call
        w = fc.word(letters, gens)
        start = time.perf_counter()
        try:
            with self.tracer.span(f"op.n{n}"):
                red = call("words.linear_reduce", fc.linear_reduce, w)
                cyc = call("words.cyclic_reduce", fc.cyclic_reduce, w)
                good = call("words.good_rotations", fc.good_rotations, w)
                p = call("pairings.admissible_half_pairing", fc.admissible_half_pairing, w)
                std = call("pairings.standard_cyclic_reduction", fc.standard_cyclic_reduction, w)
                dots = call("pairings.to_dots", fc.to_dots, p)
                back = call("pairings.from_dots", fc.from_dots, dots)
                dec = call("words.standard_decomposition", fc.standard_decomposition, w)
                k = len(cyc)
                prof = call("words.reduction_profile", fc.reduction_profile, w) if 4 * k >= len(letters) else None
            seconds = time.perf_counter() - start
            if self.tracer.enabled:
                # Validation alone: rebuild the pairing from its blocks, outside the operation.
                call("pairings.HalfPairing", fc.HalfPairing, p.n, p.pairs, p.singletons)
            self.check(w, red, cyc, good, p, std, dots, back, dec, prof)
        except Exception as exc:  # one operation's failure, recorded and counted
            return time.perf_counter() - start, f"{type(exc).__name__}: {exc}"
        return seconds, None

    def check(self, w, red, cyc, good, p, std, dots, back, dec, prof) -> None:
        letters, k = w.letters, len(cyc)
        checks.check_linear_reduce(letters, red.letters)
        checks.check_cyclic_reduce(letters, cyc.letters)
        checks.check_good_rotations(letters, good, k, self.sampling)
        checks.check_pairing(letters, p.pairs, p.singletons)
        other = self.sampling.choice(good[1:] or good)
        expect(self.fc.admissible_half_pairing(w, rotation=other) == p,
               f"forcing good rotation {other} gives another pairing")
        expect(std.letters == tuple(letters[i - 1] for i in sorted(p.singletons)),
               "standard_cyclic_reduction is not the through-string letters")
        expect(len(dots.colors) == len(letters) and dots.colors.count("B") == len(p.pairs),
               "dot diagram does not colour one point per chord black")
        expect(back == p, "from_dots(to_dots(p)) != p")
        checks.check_decomposition(letters, dec.prefix.letters, dec.core.letters, dec.suffix.letters)
        if prof is not None:
            expect(prof.k == k, "profile reports another cyclic reduction length")
            checks.check_profile(letters, prof.values, k, prof.period_start)

    def finish(self) -> list[str]:
        return []

    def layer_metrics(self, span_groups) -> dict[str, tuple[float, str]]:
        samples = bench.layer_samples(span_groups)
        out = {f"{name}.self_s": (bench.median([sum(r) for r in samples.get(name, [[0.0]])]), "s")
               for name in LAYERS}
        for name in SCALING:
            per_class = {n: [] for n in SIZES}
            for spans in span_groups:
                totals = dict.fromkeys(SIZES, 0.0)
                for (sname, _, _, parent), t in zip(spans, bench.self_times(spans)):
                    if sname == name:
                        totals[int(spans[parent][0][len("op.n"):])] += t
                for n in SIZES:
                    per_class[n].append(totals[n])
            out[f"{name}.scaling_exp"] = (
                bench.loglog_slope(SIZES, [bench.median(per_class[n]) for n in SIZES]), "1")
        return out
