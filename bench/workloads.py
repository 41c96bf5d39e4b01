"""The four benchmark workloads: verify, symbolic, surgery and cli.

Each workload turns the benchmark seed and a round number into a fixed
list of items (``generate``), runs one item inside the timed region (``run``) and checks
an item's output outside it (``check``).  ``run`` returns the output the
checks and the cross-pass digests look at; ``check`` returns ``None`` when
the output is right and a one-line reason otherwise.

The item mixes are stratified by instance size.  The cost of an item grows
roughly fivefold per composed edge (the 5^e state tables), so a mix drawn
freely from the generators would make one seed's run ten times slower than
the next.  Each workload fixes how many items of each size a pass holds and
lets the seed choose the structure, so the mix, and with it the run time,
is the same for every seed.

Library calls go through module attributes (``polynomials.q_poly``, not a
name imported here) so that the traced run's rebinding sees them.
"""

from __future__ import annotations

import contextlib
import io
import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

from ribbontensor import arrow, cli, files, packaged, poly, polynomials, randgen, tensor_formula

# The criterion-1 registry: global variables plus a_l..y_l for six edges.
SYMBOLIC_REGISTRY = poly.standard_registry(f"e{i}" for i in range(6))

# parse_poly adds one term at a time, so it is quadratic in the term count:
# 0.1 s at 625 terms, about 2 s at 3,125 and about a minute at 15,625 (the
# per-edge five-weight polynomial of four, five and six edges).  Larger
# results are checked by evaluation only, which keeps a pass's checks
# shorter than its timed part.
PARSE_CHECK_MAX_TERMS = 200

VERIFY_POINTS = 10  # the CLI default


# --------------------------------------------------------------------------
# verify: the pointwise identity checks, one run_verification call per
# instance, ten points each


def composed_size(kind, instance) -> int:
    """Edge count of the composed side of one verification instance."""
    pg, factors, _, _ = instance
    K = tensor_formula.TheoremKind
    if kind in (K.MAINMV, K.FULLTENSOR):
        return len(pg.ap.edges) - len(factors) + sum(len(ph.ap.edges) - 1 for _, ph, _ in factors)
    if kind in (K.MAIN, K.CORZ, K.BR, K.BRZHAT):
        return len(pg.ap.edges) * (len(factors[0].ap.edges) - 1)
    if kind is K.TWOSUM:
        return len(pg.ap.edges) + len(factors.ap.edges) - 2
    if kind in (K.TRANSITION, K.PLANEMVBR):
        return sum(len(ah.edges) - 1 for _, ah, _ in factors)
    if kind is K.TUTTE:
        return pg.m * (factors[0].m - 1)
    raise ValueError(f"unknown theorem kind {kind}")


# Composed sizes of the instances in one pass: sizes the default
# generator (size budget 6) produces.  Most of the largest take 1 to 7 s
# per instance (five or six composed edges for the state-table kinds,
# twelve graph edges for tutte) and are left out so that a pass fits in
# about a third of a run.  corz keeps one six-edge instance, under a second
# because its zero weights skip most of the 15,625-leaf table at each
# point; it brings the hot L1 cache reuse of the large instances.
#
# The nine four-edge instances of mainmv, main and fulltensor and the
# six-edge corz one are the slowest calls, 0.25 to 0.8 s.  They are a fifth
# of the calls, so the 90th percentile falls inside that group rather than
# at its edge, where it would follow the seed's fastest large instance.
VERIFY_SIZES = {
    "full": {
        "mainmv": (1, 2, 3, 4, 4, 4),
        "main": (1, 2, 3, 4, 4, 4),
        "corz": (1, 2, 3, 4, 6),
        "fulltensor": (1, 2, 3, 4, 4, 4),
        "twosum": (1, 2, 3, 4),
        "br": (1, 2, 3, 4, 4),
        "brzhat": (1, 2, 3, 4),
        "transition": (1, 2, 3, 4, 5),
        "planemvbr": (1, 2, 3, 4, 5),
        "tutte": (2, 3, 4, 6, 8, 9),
    },
    "tiny": {kind.value: (2,) for kind in tensor_formula.TheoremKind},
}


def instance_seeds(kind, sizes, rng, tries=20000):
    """Seeds whose first ``random_instance`` has each of ``sizes``."""
    wanted = list(sizes)
    found = []
    for _ in range(tries):
        if not wanted:
            return sorted(found, key=lambda entry: entry[1])
        s = rng.randrange(2**31)
        size = composed_size(kind, tensor_formula.random_instance(kind, random.Random(s)))
        if size in wanted:
            wanted.remove(size)
            found.append((s, size))
    raise RuntimeError(f"no {kind.value} instance of sizes {wanted} in {tries} seeds")


@contextlib.contextmanager
def counting_comparisons():
    """Count the comparisons ``verify_identity`` returns while active."""
    counts = []
    original = tensor_formula.verify_identity

    def counted(*args, **kwargs):
        outcome = original(*args, **kwargs)
        counts.append(len(outcome.comparisons))
        return outcome

    tensor_formula.verify_identity = counted
    try:
        yield counts
    finally:
        tensor_formula.verify_identity = original


class Verify:
    name = "verify"

    def __init__(self, size):
        self.sizes = VERIFY_SIZES[size]

    def generate(self, seed, round_):
        rng = random.Random(f"verify-{seed}-{round_}")
        items = []
        for kind in tensor_formula.TheoremKind:
            for s, size in instance_seeds(kind, self.sizes[kind.value], rng):
                items.append((kind, s, size))
        return items

    def items_in(self, item):
        return VERIFY_POINTS

    def run(self, item):
        kind, s, _ = item
        return tensor_formula.run_verification(kind, seed=s, instances=1, points=VERIFY_POINTS)

    def summary(self, output):
        return (output.kind, output.seed, output.instances, output.points, output.ok, len(output.failures))

    def check(self, item, output):
        kind, s, size = item
        if not output.ok:
            return f"{output.kind} seed {output.seed}: {len(output.failures)} failing point(s)"
        if (output.instances, output.points) != (1, VERIFY_POINTS):
            return f"{output.kind}: report echoes {output.instances}x{output.points}"
        if size == min(self.sizes[kind.value]):
            # The report does not say how much it compared, so the smallest
            # instances run again, outside the timed region, with a counter.
            with counting_comparisons() as counts:
                again = tensor_formula.run_verification(kind, seed=s, instances=1, points=VERIFY_POINTS)
            if not again.ok or sum(counts) < self.required_comparisons(item):
                return f"{output.kind} seed {output.seed}: {sum(counts)} comparisons made"
        return None

    def required_comparisons(self, item):
        """Comparisons a call must make at least: one per point."""
        return VERIFY_POINTS


# --------------------------------------------------------------------------
# symbolic: the polynomial ring, five symbolic invariants per presentation

# Presentations per pass by edge count.  Latency jumps about fourfold per
# edge, so a percentile that fell between two sizes would jump with the
# seed; these counts put the median call among the four-edge presentations
# and the 90th percentile among the five-edge ones.
SYMBOLIC_COUNTS = {
    "full": {1: 3, 2: 3, 3: 2, 4: 34, 5: 6, 6: 2},
    "tiny": {1: 1, 2: 1, 3: 1},
}


def br_from_mv(ap, x, y, z):
    """Bollobas-Riordan value at (x, y, z) through the multivariate subset
    expansion: BR = (x-1)^-k(E) (yz)^-v Zmv(a=(x-1)yz^2, b_e=yz, c=1/z)."""
    k = arrow.surface_stats(ap).k
    v = len(ap.circles)
    mv = polynomials.mv_br_value(ap, (x - 1) * y * z * z, {l: y * z for l in ap.edges}, 1 / z)
    return (x - 1) ** (-k) * (y * z) ** (-v) * mv


class Symbolic:
    name = "symbolic"

    def __init__(self, size):
        self.counts = SYMBOLIC_COUNTS[size]

    def generate(self, seed, round_):
        rng = random.Random(f"symbolic-{seed}-{round_}")
        names = sorted(set(SYMBOLIC_REGISTRY.names) | {"z"})
        items = []
        for m, n in self.counts.items():
            for _ in range(n):
                pg = randgen.random_packaged(rng, max_edges=m, min_edges=m)
                # Small rationals keep the exact evaluation of the 15,625-term
                # six-edge results in the checks to about a second.
                point = randgen.random_point(rng, names, bound=100)
                if point["x"] == 1:  # the BR check divides by x - 1
                    point["x"] += Fraction(1, 7)
                items.append((pg, point))
        return items

    def items_in(self, item):
        return 1

    def run(self, item):
        pg, _ = item
        w = polynomials.WeightSystem.per_edge(SYMBOLIC_REGISTRY)
        results = (
            polynomials.q_multivariate(pg, w),
            polynomials.q_poly(pg),
            polynomials.transition_poly(pg.ap),
            polynomials.br_poly(pg.ap),
            polynomials.tutte_poly(polynomials.graph_of_presentation(pg.ap)),
        )
        return results, tuple(poly.to_canonical_string(p) for p in results)

    def summary(self, output):
        return output[1]

    def check(self, item, output):
        pg, pt = item
        results, texts = output
        for p, text in zip(results, texts):
            if len(p.terms) <= PARSE_CHECK_MAX_TERMS and poly.parse_poly(text, p.registry) != p:
                return f"parse_poly does not invert {text[:60]!r}"
        qmv, q, trans, br, tutte = results
        edges = sorted(pg.ap.edges)
        al, be, ga = pt["alpha"], pt["beta"], pt["gamma"]
        per_edge = {l: tuple(pt[f"{s}_{l}"] for s in "abcxy") for l in edges}
        global_w = {l: tuple(pt[s] for s in "abcxy") for l in edges}
        table = polynomials.transition_state_table(pg.ap)
        pairs = (
            ("q_multivariate", qmv.eval_at(pt), polynomials.q_value(pg, per_edge, al, be, ga)),
            ("q_poly", q.eval_at(pt), polynomials.q_value(pg, global_w, al, be, ga)),
            (
                "transition_poly",
                trans.eval_at(pt),
                polynomials.transition_table_value(
                    table, {l: per_edge[l][:3] for l in edges}, pt["t"]
                ),
            ),
            ("br_poly", br.eval_at(pt), br_from_mv(pg.ap, pt["x"], pt["y"], pt["z"])),
            (
                "tutte_poly",
                tutte.eval_at(pt),
                polynomials.tutte_value(
                    polynomials.graph_of_presentation(pg.ap), pt["x"], pt["y"]
                ),
            ),
        )
        for name, symbolic, numeric in pairs:
            if symbolic != numeric:
                return f"{name} evaluates to {symbolic}, the numeric engine to {numeric}"
        return None


# --------------------------------------------------------------------------
# surgery: arrow surgery, 2-sums and canonical forms, no polynomial work

SURGERY_ITEMS = {"full": 84, "tiny": 3}

# canonical_packaged refuses a presentation whose empty circles have more
# than 100,000 distinct orders (SizeLimitExceeded), nine or more in distinct
# blocks.  A 2-sum or an edge operation empties at most the two circles the
# coupled edge's ends sit on, so a criterion-3 presentation with at most six
# empty circles stays inside that limit.  About one draw in 1,500 has more.
MAX_BASE_EMPTY_CIRCLES = 6


def host_factor_base(i):
    """Sizes of item ``i``: hosts cycle through 2-8 edges, factors 2-4,
    criterion-3 presentations 1-5, so every 21 items repeat one mix."""
    return 2 + i % 7, 2 + (i // 7) % 3, 1 + i % 5


class Surgery:
    name = "surgery"

    def __init__(self, size):
        self.count = SURGERY_ITEMS[size]

    def generate(self, seed, round_):
        rng = random.Random(f"surgery-{seed}-{round_}")
        items = []
        for i in range(self.count):
            h, f, b = host_factor_base(i)
            host = randgen.random_packaged(rng, max_edges=h, min_edges=h)
            factor = randgen.random_packaged(rng, max_edges=f, min_edges=f)
            e = rng.choice(sorted(factor.ap.edges))
            swaps = {l: rng.random() < 0.5 for l in sorted(host.ap.edges)}
            base = randgen.random_packaged(rng, max_edges=b, min_edges=b)
            while sum(not circle for circle in base.ap.circles) > MAX_BASE_EMPTY_CIRCLES:
                base = randgen.random_packaged(rng, max_edges=b, min_edges=b)
            f_base = rng.choice(sorted(base.ap.edges))
            k_swaps = tuple(rng.random() < 0.5 for _ in range(5))
            items.append((host, factor, e, swaps, base, f_base, k_swaps))
        return items

    def items_in(self, item):
        return 1

    def run(self, item):
        host, factor, e, swaps, base, f_base, k_swaps = item
        tensor = packaged.uniform_tensor(host, factor, e, swaps)
        stats = arrow.surface_stats(tensor.ap)
        ops = tuple(
            packaged.apply_edge_op(tensor, label, kind)
            for label in sorted(tensor.ap.edges)
            for kind in packaged.EdgeOpKind
        )
        realised = []
        for k, kind, swap in zip(packaged.k_presentations(), packaged.EdgeOpKind, k_swaps):
            zz = packaged.PackagedPresentation(k.ap.relabel({"e": "zz"}), k.vparts, k.bparts)
            lhs = packaged.canonical_packaged(
                packaged.two_sum(base, zz, packaged.Coupling(f_base, "zz", swap))
            )
            rhs = packaged.canonical_packaged(packaged.apply_edge_op(base, f_base, kind))
            realised.append((kind.value, lhs, rhs))
        return tensor, stats, ops, tuple(realised)

    def summary(self, output):
        tensor, stats, ops, realised = output
        return (
            files.dumps_presentation(tensor),
            stats,
            tuple(files.dumps_presentation(pg) for pg in ops),
            tuple(lhs == rhs for _, lhs, rhs in realised),
        )

    def check(self, item, output):
        tensor, _, ops, realised = output
        for kind, lhs, rhs in realised:
            if lhs != rhs:
                return f"2-sum with the {kind} basis presentation differs from the operation"
        for pg in (tensor,) + ops:
            arrow.validate(pg.ap)
        return None


# --------------------------------------------------------------------------
# cli: the command-line front end as a process, one call at a time

CLI_CYCLES = {"full": 5, "tiny": 1}
POLY_KINDS = ("q", "qmv", "z", "zhat", "qhat", "transition", "mvbr", "br", "tutte", "zdot")
COUPLING_MODES = ("straight", "swap", "random:{}")
ELAPSED = re.compile(r"elapsed=\S+")


class Cli:
    """About 175 ms a call, most of it interpreter start and import."""

    name = "cli"

    def __init__(self, size, work_dir: Path, src: Path):
        self.cycles = CLI_CYCLES[size]
        self.work_dir = work_dir
        self.env = dict(os.environ, PYTHONPATH=str(src))

    def _file(self, name, pg):
        path = self.work_dir / name
        path.write_text(files.dumps_presentation(pg), encoding="utf-8")
        return str(path)

    def generate(self, seed, round_):
        """Eight calls a cycle: info, op, twosum, tensor, three poly, verify."""
        rng = random.Random(f"cli-{seed}-{round_}")
        self.work_dir.mkdir(parents=True, exist_ok=True)
        kinds = list(tensor_formula.TheoremKind)
        ops = [k.value for k in packaged.EdgeOpKind]
        calls = []
        for c in range(self.cycles):
            pg = randgen.random_packaged(rng, max_edges=4, min_edges=1)
            a = self._file(f"c{c}-a.json", pg)
            calls.append(["info", a])
            calls.append(["op", a, rng.choice(sorted(pg.ap.edges)), ops[c % len(ops)]])

            g = randgen.random_packaged(rng, max_edges=4, min_edges=1)
            h0 = randgen.random_packaged(rng, max_edges=4, min_edges=1)
            h = packaged.PackagedPresentation(
                h0.ap.relabel({l: f"h{l}" for l in h0.ap.edges}), h0.vparts, h0.bparts
            )
            swap = "swap" if rng.random() < 0.5 else "straight"
            coupling = f"{rng.choice(sorted(g.ap.edges))}:{rng.choice(sorted(h.ap.edges))}:{swap}"
            calls.append(["twosum", self._file(f"c{c}-g.json", g), self._file(f"c{c}-h.json", h),
                          "--coupling", coupling])

            host = randgen.random_packaged(rng, max_edges=3, min_edges=1)
            factor = randgen.random_packaged(rng, max_edges=3, min_edges=2)
            mode = COUPLING_MODES[c % 3].format(rng.randrange(1000))
            calls.append(["tensor", self._file(f"c{c}-host.json", host),
                          self._file(f"c{c}-factor.json", factor),
                          "--edge", rng.choice(sorted(factor.ap.edges)), "--coupling-mode", mode])

            for j in range(3):
                which = POLY_KINDS[(3 * c + j) % len(POLY_KINDS)]
                calls.append(["poly", a, "--which", which])

            kind = kinds[(self.cycles * round_ + c) % len(kinds)]
            (s, _), = instance_seeds(kind, (2,), rng)
            calls.append(["verify", kind.value, "--seed", str(s), "--instances", "1", "--points", "3"])
        return calls

    def items_in(self, item):
        return 1

    def run(self, argv):
        proc = subprocess.run(
            [sys.executable, "-m", "ribbontensor.cli", *argv],
            env=self.env, capture_output=True, text=True, timeout=60,
        )
        return proc.returncode, ELAPSED.sub("elapsed=", proc.stdout)

    def in_process(self, argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        return code, ELAPSED.sub("elapsed=", out.getvalue())

    def summary(self, output):
        return output

    def check(self, argv, output):
        code, text = output
        if code != 0:
            return f"{' '.join(argv[:2])}: exit code {code}"
        if self.in_process(argv) != output:
            return f"{' '.join(argv[:2])}: output differs from the same call in-process"
        return None
