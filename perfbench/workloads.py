"""The four benchmark workloads: their seeded inputs, their ops and the answer checks.

Every op is one closed-loop call into lcdkit: the next op starts when the
previous one returns.  An op's ``call`` returns the program's output; its
``check`` raises WrongAnswer when that output breaks the paper's contract
or disagrees with an answer computed another way.  Expected values are
computed lazily, once per run, through ``Workload.expect``, so a test can
plant a wrong one there.

Calls go through module attributes (``construct.search_extend``, not a
from-import), so the tracer's wrappers see them.  Every call that takes
``threads`` gets it explicitly.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import warnings
from pathlib import Path
from typing import Any, Callable

import numpy as np

import inputs
import refalg
from lcdkit import cli, codes, construct, corpus, gf

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference" / "verify.json"

# answer of the paper's headline search, method 1 on t_19_6_9, exhaustive
HEADLINE = {"vector": "0000102210220001222", "min_weight": 9, "candidates": 1_062_153}


class WrongAnswer(Exception):
    pass


@dataclasses.dataclass
class Op:
    name: str
    call: Callable[[], Any]
    check: Callable[[Any], None]
    probe: str = "int"  # the speed.py probe most like the op's own work
    workers: int = 1  # processes the op runs on; the speed meter pauses during ops with more


def require(cond, message: str) -> None:
    if not cond:
        raise WrongAnswer(message)


def freeze(obj):
    """Hashable snapshot of an op output, so a repeated output reuses its verdict."""
    if isinstance(obj, np.ndarray):
        return ("ndarray", obj.shape, obj.tobytes())
    if isinstance(obj, dict):
        return tuple((k, freeze(v)) for k, v in sorted(obj.items()))
    if isinstance(obj, (list, tuple)):
        return tuple(freeze(o) for o in obj)
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return (type(obj).__name__,) + tuple(freeze(getattr(obj, f.name)) for f in dataclasses.fields(obj))
    return obj


def new_code(F: refalg.Field, G: np.ndarray):
    return codes.new_code(gf.field_by_name(F.name), G)


class Workload:
    name = ""

    def __init__(self, seed: int):
        self.seed = seed
        self.expected: dict[str, Any] = {}
        self.entries = corpus.manifest()
        self.ops: list[Op] = []

    def expect(self, key: str, compute: Callable[[], Any]):
        if key not in self.expected:
            self.expected[key] = compute()
        return self.expected[key]

    def warmup(self) -> None:
        raise NotImplementedError


# -- search ------------------------------------------------------------------


class Search(Workload):
    """construct.search_extend: candidate generation and coset scoring."""

    name = "search"

    def __init__(self, seed: int):
        super().__init__(seed)
        base = corpus.resolve_code("t_19_6_9", self.entries)
        g14 = inputs.lcd(inputs.rng_for(seed, "search.gf4h_14_6"), refalg.GF4H, 6, 14)
        g70 = inputs.lcd(inputs.rng_for(seed, "search.gf2_70_10"), refalg.GF2, 10, 70)
        sample_seed = int(inputs.rng_for(seed, "search.sample").integers(2**31))
        c14, c70 = new_code(refalg.GF4H, g14), new_code(refalg.GF2, g70)
        self.ops = [
            self._op("t_19_6_9.m1.exhaustive", base, 3**13, sample_seed, self._check_headline, probe="bulk"),
            self._op("t_19_6_9.m1.sampled", base, 50_000, sample_seed),
            self._op("gf4h_14_6.m1.exhaustive", c14, 4**8, sample_seed, self._check_brute_force),
            self._op("gf2_70_10.m1.sampled", c70, 4_000, sample_seed),
        ]

    def warmup(self) -> None:
        g = inputs.lcd(inputs.rng_for(self.seed, "search.warmup"), refalg.GF3, 3, 8)
        construct.search_extend(new_code(refalg.GF3, g), construct.M1, budget=3**5, seed=0, threads=1)

    def _op(self, name, C, budget, seed, extra=None, probe="int") -> Op:
        F = refalg.FIELDS[C.field.name]

        def call():
            return construct.search_extend(C, construct.M1, budget=budget, seed=seed, threads=1)

        def check(r):
            G = np.asarray(C.generator)
            x = np.asarray(r.vector)
            E = np.asarray(r.code.generator)
            require(r.exact, "search over a code under the cap must be exact")
            require(r.exhaustive == (C.field.order ** (C.n - C.k) <= budget), "exhaustive flag")
            require(not refalg.pairings(F, G, x.reshape(1, -1)).any(), "extension vector is not in the dual")
            require(refalg.weight_condition(F, "m1", int(np.count_nonzero(x))), "extension vector fails the weight condition")
            require(np.array_equal(E, refalg.extend_m1_matrix(G, x)), "result code is not the method-1 extension")
            require(refalg.is_lcd(F, E), "extended code is not LCD")
            d = (refalg.min_weight(F, E), codes.min_weight(r.code, strategy=codes.BROUWER_ZIMMERMANN, threads=1))
            require(r.min_weight == d[0] == d[1], f"reported d={r.min_weight}, exhaustive/BZ of the result give {d}")
            if extra is not None:
                extra(name, C, F, r)

        return Op(name, call, check, probe)

    def _check_headline(self, name, C, F, r):
        want = self.expect(f"{name}.headline", lambda: dict(HEADLINE))
        got = codes.format_vector(C.field, r.vector)
        require(got == want["vector"], f"vector {got}, expected {want['vector']}")
        require(r.min_weight == want["min_weight"], f"d={r.min_weight}, expected {want['min_weight']}")
        require(r.candidates == want["candidates"], f"{r.candidates} candidates, expected {want['candidates']}")

    def _check_brute_force(self, name, C, F, r):
        def brute():
            G = np.asarray(C.generator)
            cands = refalg.codewords(F, refalg.dual_basis(F, G))
            cands = cands[[refalg.weight_condition(F, "m1", int(w)) for w in refalg.weights(cands)]]
            scores = np.minimum(refalg.min_weight(F, G), 1 + refalg.coset_min_weights(F, cands, refalg.codewords(F, G)))
            best = int(scores.max())
            vector = min(map(tuple, cands[scores == best].tolist()))
            return {"score": best, "vector": vector, "candidates": len(cands)}

        want = self.expect(f"{name}.brute", brute)
        require(r.min_weight == want["score"], f"score {r.min_weight}, brute force gives {want['score']}")
        require(tuple(int(v) for v in r.vector) == want["vector"], "winner is not the smallest best vector")
        require(r.candidates == want["candidates"], f"{r.candidates} candidates, brute force counts {want['candidates']}")


# -- distance ----------------------------------------------------------------


class Distance(Workload):
    """Exact minimum weight: the exhaustive scan loops and Brouwer-Zimmermann."""

    name = "distance"

    def __init__(self, seed: int):
        super().__init__(seed)

        def code(tag, F, k, n, plant=()):
            rng = inputs.rng_for(seed, f"distance.{tag}")
            if tag.endswith(".bz"):
                return new_code(F, inputs.with_information_blocks(rng, F, k, n, plant)), rng
            return new_code(F, inputs.full_rank(rng, F, k, n)), rng

        ex2, _ = code("gf2_40_23", refalg.GF2, 23, 40)
        ex3, _ = code("gf3_30_14", refalg.GF3, 14, 30)
        ex4, _ = code("gf4h_30_11", refalg.GF4H, 11, 30)
        bz2, rng2 = code("gf2_80_40.bz", refalg.GF2, 40, 80, plant=(4, 6))
        bz3, rng3 = code("gf3_48_16.bz", refalg.GF3, 16, 48, plant=(4, 6, 5))
        bz4, _ = code("gf4h_40_12.bz", refalg.GF4H, 12, 40, plant=(4, 6, 5))
        wd2, _ = code("gf2_32_20", refalg.GF2, 20, 32)

        def bz(C):
            return lambda: codes.min_weight(C, strategy=codes.BROUWER_ZIMMERMANN, threads=1)

        def exhaustive(C, threads):
            return lambda: codes.min_weight(C, strategy=codes.EXHAUSTIVE, threads=threads)

        def permuted_bz(C, rng):
            # reorder the information-set blocks and shuffle inside each, so the
            # permuted code keeps the block structure and the BZ work
            k, n = C.k, C.n
            blocks = [list(rng.permutation(range(s, s + k))) for s in range(0, n - k + 1, k)]
            perm = sum(blocks[1:] + blocks[:1], []) + list(range(len(blocks) * k, n))
            return bz(codes.new_code(C.field, C.generator[:, perm]))

        self.ops = [
            self._d_op("gf2_40_23.exhaustive.t1", exhaustive(ex2, 1), "gf2_40_23", bz(ex2)),
            self._d_op("gf2_40_23.exhaustive.t2", exhaustive(ex2, 2), "gf2_40_23", bz(ex2), workers=2),
            self._d_op("gf3_30_14.exhaustive", exhaustive(ex3, 1), "gf3_30_14", bz(ex3)),
            self._d_op("gf4h_30_11.exhaustive", exhaustive(ex4, 1), "gf4h_30_11", bz(ex4)),
            self._d_op("gf2_80_40.bz", bz(bz2), "gf2_80_40", permuted_bz(bz2, rng2), at_most=10),
            self._d_op("gf3_48_16.bz", bz(bz3), "gf3_48_16", permuted_bz(bz3, rng3), at_most=15),
            self._d_op("gf4h_40_12.bz", bz(bz4), "gf4h_40_12", exhaustive(bz4, 2), at_most=15),
            Op("gf2_32_20.weight_distribution.t1", lambda: codes.weight_distribution(wd2, threads=1), self._check_wd(wd2)),
            Op("gf2_32_20.weight_distribution.t2", lambda: codes.weight_distribution(wd2, threads=2), self._check_wd(wd2),
               workers=2),
        ]

    def warmup(self) -> None:
        g = inputs.full_rank(inputs.rng_for(self.seed, "distance.warmup"), refalg.GF2, 6, 16)
        C = new_code(refalg.GF2, g)
        codes.min_weight(C, strategy=codes.EXHAUSTIVE, threads=1)
        codes.min_weight(C, strategy=codes.BROUWER_ZIMMERMANN, threads=1)

    def _d_op(self, name, call, key, reference, at_most=None, workers=1) -> Op:
        def check(d):
            want = self.expect(f"{key}.d", reference)
            require(d == want, f"d={d}, the other method gives {want}")
            require(at_most is None or d <= at_most, f"d={d} exceeds the planted word's weight {at_most}")

        return Op(name, call, check, workers=workers)

    def _check_wd(self, C):
        def check(wd):
            want = self.expect("gf2_32_20.wd", lambda: codes.weight_distribution(C, threads=1).counts)
            d = self.expect("gf2_32_20.d", lambda: codes.min_weight(C, strategy=codes.BROUWER_ZIMMERMANN, threads=1))
            require(wd.counts == want, "distribution differs between 1 and 2 workers")
            require(sum(wd.counts) == 2**C.k and wd.counts[0] == 1, "counts do not sum to 2^k")
            require(wd.min_weight == d == next(w for w in range(1, C.n + 1) if want[w]), f"min weight {wd.min_weight}, BZ gives {d}")

        return check


# -- algebra -----------------------------------------------------------------

# every (field, n, k, LCD or not) with 4 <= n <= 12 and 1 <= k <= min(6, n - 1),
# ALGEBRA_COPIES times over: 1152 codes, so the seed changes the matrices but
# not the mix of sizes, and pass times of different seeds stay comparable
ALGEBRA_COPIES = 4


class Algebra(Workload):
    """Many small codes: per-call overhead of the hull and extension constructions."""

    name = "algebra"

    def __init__(self, seed: int):
        super().__init__(seed)
        # decompose_m1 may hand back the zero vector, which extend_m1 accepts with a warning
        warnings.filterwarnings("ignore", message="all-zero extension vector")
        rng = inputs.rng_for(seed, "algebra")
        grid = [(F, n, k, lcd) for _ in range(ALGEBRA_COPIES) for F in (refalg.GF2, refalg.GF3, refalg.GF4H)
                for n in range(4, 13) for k in range(1, min(6, n - 1) + 1) for lcd in (True, False)]
        for i, (F, n, k, lcd) in enumerate(grid):
            G = inputs.lcd(rng, F, k, n) if lcd else inputs.non_lcd(rng, F, k, n)
            x = inputs.nonzero_dual_vector(rng, F, G)
            # decompose_m1 is defined on odd-like binary LCD codes of dimension >= 2
            odd = F.q == 2 and k >= 2 and bool((G.sum(axis=1) % 2).any())
            self.ops.append(self._op(f"{F.name}_{n}_{k}.{i}", F, new_code(F, G), x, odd))

    def warmup(self) -> None:
        self.ops[0].call()

    def _op(self, name, F, C, x, odd) -> Op:
        def call():
            out = {"lcd": codes.is_lcd(C)}
            h = codes.hull(C)
            out["hull"] = (h.dim, h.basis, h.pivot_set)
            out["dual"] = codes.dual(C).generator
            d = out["d"] = codes.min_weight(C, threads=1)
            if h.dim < C.k:
                S, T = construct.shorten_to_lcd(C)
                out["shorten"] = (S.generator, T)
            if 0 < h.dim < d:
                P, T = construct.puncture_to_lcd(C, threads=1)
                out["puncture"] = (P.generator, T)
            if out["lcd"]:
                for method, extend in (("m1", construct.extend_m1), ("m2", construct.extend_m2)):
                    try:
                        out[method] = extend(C, x).generator
                    except construct.WeightCondition:
                        out[method] = None
                if odd:
                    i, S, y = construct.decompose_m1(C)
                    out["decompose"] = (i, S.generator, y, construct.extend_m1(S, y).generator)
            return out

        def check(out):
            self._check(name, F, np.asarray(C.generator), x, odd, out)

        return Op(name, call, check, probe="mixed")

    def _check(self, name, F, G, x, odd, out) -> None:
        k, n = G.shape
        want = self.expect(
            name,
            lambda: {"lcd": refalg.is_lcd(F, G), "l": refalg.hull_dim(F, G), "d": refalg.min_weight(F, G),
                     "wd": refalg.weight_distribution(F, G)},
        )
        l, d = want["l"], want["d"]
        require(out["lcd"] == want["lcd"], "is_lcd verdict")
        dim, B, T = out["hull"]
        require(dim == l and B.shape == (l, n), f"hull dimension {dim}, expected {l}")
        if l:
            require(refalg.rank(F, B) == l and refalg.rank(F, np.vstack([G, B])) == k, "hull basis is not a subspace of C")
            require(not refalg.pairings(F, G, B).any(), "hull basis is not in the dual")
            require(T == tuple(int(np.nonzero(r)[0][0]) for r in B), "pivot set is not the hull basis pivots")
        D = out["dual"]
        require(D.shape == (n - k, n) and refalg.rank(F, D) == n - k, "dual has the wrong dimension")
        require(not refalg.pairings(F, G, D).any(), "dual rows do not pair to zero with C")
        require(out["d"] == d, f"d={out['d']}, expected {d}")
        require(("shorten" in out) == (l < k) and ("puncture" in out) == (0 < l < d), "wrong set of constructions ran")
        if "shorten" in out:
            S, T2 = out["shorten"]
            require(T2 == T, "shortening set is not the hull pivot set")
            require(S.shape == (k - l, n - l) and refalg.is_lcd(F, S), "shortening is not an LCD [n-l,k-l] code")
            require(refalg.min_weight(F, S) >= d, "shortening lost distance")
            lifted = np.zeros((k - l, n), dtype=np.uint8)
            lifted[:, [j for j in range(n) if j not in T2]] = S
            require(refalg.rank(F, np.vstack([G, lifted])) == k, "shortened words are not codewords of C")
        if "puncture" in out:
            P, T2 = out["puncture"]
            keep = [j for j in range(n) if j not in T2]
            require(T2 == T and P.shape == (k, n - l) and refalg.is_lcd(F, P), "puncturing is not an LCD [n-l,k] code")
            require(refalg.same_row_space(F, P, G[:, keep]), "punctured code is not C without T")
            require(refalg.min_weight(F, P) >= d - l, "puncturing lost more than l")
        if want["lcd"] and x is not None:
            for method in ("m1", "m2"):
                E = refalg.extend_m1_matrix(G, x) if method == "m1" else np.vstack([x.reshape(1, -1), G])
                cond = refalg.weight_condition(F, method, int(np.count_nonzero(x)))
                require(cond == refalg.is_lcd(F, E), f"{method}: weight condition and LCD-ness of the extension disagree")
                got = out[method]
                require((got is not None) == cond, f"{method}: extension accepted or refused against the weight condition")
                require(got is None or np.array_equal(got, E), f"{method}: extension matrix")
        require(("decompose" in out) == (want["lcd"] and odd), "decompose_m1 ran on the wrong codes")
        if "decompose" in out:
            i, S, y, E = out["decompose"]
            require(S.shape == (k - 1, n - 1) and refalg.is_lcd(F, S), "decomposition base is not an LCD [n-1,k-1] code")
            require(not refalg.pairings(F, S, y.reshape(1, -1)).any(), "decomposition vector is not in the dual")
            require(refalg.weight_distribution(F, E) == want["wd"], "extend_m1(decompose_m1(C)) changes the weight distribution")


# -- verify ------------------------------------------------------------------


class Verify(Workload):
    """cli.main in-process: corpus-check, replays, bounds tables and eaqecc."""

    name = "verify"

    def __init__(self, seed: int):
        super().__init__(seed)
        self.reference = json.loads(REFERENCE.read_text(encoding="utf-8"))
        argvs = verify_argvs(self.entries)
        order = inputs.rng_for(seed, "verify").permutation(len(argvs))
        self.ops = [self._op(*argvs[i]) for i in order]

    def warmup(self) -> None:
        run_cli(["--threads", "1", "eaqecc", "5", "1", "5"])

    def _op(self, name, argv) -> Op:
        def check(out):
            want = self.expect(name, lambda: self.reference[name])
            require(out[0] == want["exit"], f"exit code {out[0]}, expected {want['exit']}")
            require(out[1] == want["stdout"], "stdout differs from the reference")
            require(out[2] == want["stderr"], f"stderr {out[2]!r}, expected {want['stderr']!r}")

        return Op(name, lambda: run_cli(argv), check, probe="mixed")


def verify_argvs(entries) -> list[tuple[str, list[str]]]:
    records = corpus.data_dir()
    out = [("corpus-check", ["--threads", "1", "corpus-check"])]
    for e in entries.values():
        if e.kind == "record":
            out.append((f"replay.{e.id}", ["--threads", "1", "replay", str(records / e.file)]))
    out.append(("bounds.gf2", ["--threads", "1", "bounds", "--field", "gf2"]))
    out.append(("bounds.gf3", ["--threads", "1", "bounds", "--field", "gf3"]))
    out.append(("eaqecc", ["--threads", "1", "eaqecc", "22", "12", "7", "--s", "3"]))
    return out


def run_cli(argv) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


WORKLOADS = {w.name: w for w in (Search, Distance, Algebra, Verify)}
