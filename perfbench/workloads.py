"""Seeded job sets for the four benchmark workloads.

Everything here is plain integer arithmetic on the standard random module:
the documents are generated without calling the program under test, so a
defect in the program cannot leak into its own inputs.  A job set is a pure
function of (workload, seed, small): sizes come from fixed strata and the
seed picks a value inside each stratum plus all random content, which keeps
the total work of a pass nearly the same from seed to seed.

Every word in a job set is distinct, so no job is served from prefix-cache
entries an earlier job left behind; a command-line user never gets such hits.

The form is the standard one, Q(x, y) = sum_i x[2i] y[2i+1] - x[2i+1] y[2i],
and a cycle g with chirality c acts as Id - c * g (J g)^T, as in lefsig.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from typing import Callable

WORKLOADS = ("long-word", "high-genus", "cover-ladder", "two-route")

Cycle = tuple[tuple[int, ...], int]  # (homology vector, chirality)
IntMatrix = list[list[int]]

# fixture words, the same vectors as data/*.json and tests/fixtures.py
MATSUMOTO = ((0, 0, 0, 1), (0, 1, -1, 1), (0, 1, 0, 0), (1, -1, 0, 0))  # genus 2
CHAIN = ((0, 1, -1, 0), (1, -1, -1, 0), (0, 1, 0, 0))  # genus 1, 2 boundaries
POSITIVE = ((1, 0), (2, 5), (1, 5))  # genus 1, 1 boundary; signature +1 per block
DELTA_PAIR = ((0, 0, 1, 0), (0, 0, 1, 0))  # genus 1, 2 boundaries
BLOCK_ACTION = ((11, 6), (75, 41))  # action of one POSITIVE block
LONG_WORD = 900  # cycles; past about this length a cold word_action fails


@dataclass(frozen=True)
class Piece:
    """A monodromy word on its own surface, as the benchmark generated it."""

    genus: int
    boundary: int
    cycles: tuple[Cycle, ...]

    @property
    def half_dim(self) -> int:
        return self.genus if self.boundary == 0 else self.genus + self.boundary - 1

    def document(self, name: str) -> str:
        cycles = [
            {"vector": list(v)} if c == 1 else {"vector": list(v), "chirality": -1}
            for v, c in self.cycles
        ]
        return json.dumps({"name": name, "genus": self.genus,
                           "boundary": self.boundary, "cycles": cycles})


@dataclass
class Job:
    """`spec` goes to the worker process; `check` stays with the harness and
    says how to compute the expected answer by a second route."""

    spec: dict
    check: dict


@dataclass
class Workload:
    name: str
    jobs: list[Job] = field(default_factory=list)
    docs: dict[str, str] = field(default_factory=dict)
    probe: list[str] = field(default_factory=list)  # docs for the cold word_action probe

    seen: set[Piece] = field(default_factory=set)

    def add_doc(self, piece: Piece, label: str) -> str:
        if piece in self.seen:
            raise ValueError(f"{self.name}: word {label!r} occurs twice")
        self.seen.add(piece)
        path = f"docs/{len(self.docs):04d}.json"
        self.docs[path] = piece.document(label)
        return path

    def fresh(self, make: Callable[[], Piece]) -> Piece:
        """A word from `make` that no job of this set uses yet."""
        for _ in range(100):
            piece = make()
            if piece not in self.seen:
                return piece
        raise ValueError(f"{self.name}: no new word after 100 draws")


# ---------------------------------------------------------------------------
# integer symplectic algebra
# ---------------------------------------------------------------------------


def j_apply(v: tuple[int, ...]) -> list[int]:
    out = []
    for i in range(0, len(v), 2):
        out += [v[i + 1], -v[i]]
    return out


def identity(n: int) -> IntMatrix:
    return [[int(i == j) for j in range(n)] for i in range(n)]


def mat_mul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def transvection(v: tuple[int, ...], chirality: int) -> IntMatrix:
    w = j_apply(v)
    n = len(v)
    return [[int(i == j) - chirality * v[i] * w[j] for j in range(n)] for i in range(n)]


def word_action(cycles: tuple[Cycle, ...], dim: int) -> IntMatrix:
    """T_n ... T_1, the action of the whole word."""
    m = identity(dim)
    for v, c in cycles:
        m = mat_mul(transvection(v, c), m)
    return m


def mat_apply(m: IntMatrix, v: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(sum(a * b for a, b in zip(row, v)) for row in m)


def random_vector(rng: random.Random, dim: int, spread: int) -> tuple[int, ...]:
    v = [rng.randint(-spread, spread) for _ in range(dim)]
    if not any(v):
        v[rng.randrange(dim)] = 1
    return tuple(v)


def random_symplectic(rng: random.Random, dim: int, twists: int) -> IntMatrix:
    """Product of `twists` transvections along small vectors: integral and
    symplectic by construction, with an integral inverse."""
    m = identity(dim)
    for _ in range(twists):
        m = mat_mul(transvection(random_vector(rng, dim, 1), rng.choice((1, -1))), m)
    return m


def random_cycles(rng: random.Random, half_dim: int, n: int, spread: int) -> tuple[Cycle, ...]:
    return tuple((random_vector(rng, 2 * half_dim, spread), rng.choice((1, -1)))
                 for _ in range(n))


def certificate_sum(n: int) -> IntMatrix:
    """sum_{k=1..n} ((B^T)^k J - J B^k) for the block action B."""
    b = [list(r) for r in BLOCK_ACTION]
    j = [[0, 1], [-1, 0]]
    p = identity(2)
    total = [[0, 0], [0, 0]]
    for _ in range(n):
        p = mat_mul(p, b)
        pt = [list(r) for r in zip(*p)]
        left, right = mat_mul(pt, j), mat_mul(j, p)
        total = [[total[r][c] + left[r][c] - right[r][c] for c in range(2)] for r in range(2)]
    return total


# ---------------------------------------------------------------------------
# job sets
# ---------------------------------------------------------------------------


def spread(rng: random.Random, k: int, lo: int, hi: int) -> list[int]:
    """One integer from each of k equal strata of [lo, hi].

    The values are distinct when the range holds at least k integers; when it
    holds fewer, each stratum is a single value and the schedule is fixed.
    """
    width = (hi - lo + 1) / k
    out = []
    for i in range(k):
        a, b = lo + int(i * width), lo + int((i + 1) * width) - 1
        out.append(rng.randint(a, max(a, b)))
    return out


def fixture(name: str) -> Piece:
    return {
        "matsumoto": Piece(2, 0, tuple((v, 1) for v in MATSUMOTO)),
        "chain": Piece(1, 2, tuple((v, 1) for v in CHAIN)),
        "positive": Piece(1, 1, tuple((v, 1) for v in POSITIVE)),
        "delta-pair": Piece(1, 2, tuple((v, 1) for v in DELTA_PAIR)),
    }[name]


def repeated(piece: Piece, n: int) -> Piece:
    return Piece(piece.genus, piece.boundary, piece.cycles * n)


def conjugated(piece: Piece, a: IntMatrix) -> Piece:
    """The word with every cycle moved by the symplectic map a: its action is
    a phi a^-1 and its signature is unchanged."""
    return Piece(piece.genus, piece.boundary,
                 tuple((mat_apply(a, v), c) for v, c in piece.cycles))


def _signature_job(wl: Workload, piece: Piece, label: str, check: dict) -> None:
    path = wl.add_doc(piece, label)
    wl.jobs.append(Job({"kind": "cli", "argv": ["signature", path, "--json"]},
                       dict(check, steps=len(piece.cycles))))


def _long_word(wl: Workload, rng: random.Random, small: bool) -> None:
    """Genus 1-2 words of 20 to 1002 cycles, plus generate and certificate jobs.

    One word per repeated family has about 1000 cycles on purpose: those are
    the words a cold word_action fails on at the commit that added this
    benchmark.  Their lengths are fixed, not drawn, because these three jobs
    take half the pass and set the peak memory."""
    many = 1 if small else None

    def long(reps: int) -> list[int]:
        return [] if small else [reps]

    for q in spread(rng, many or 16, 5, 20) + long(250):
        _signature_job(wl, repeated(fixture("matsumoto"), q), f"matsumoto x{q}",
                       {"rule": "matsumoto", "q": q})
    for r in spread(rng, many or 20, 7, 27) + long(334):
        _signature_job(wl, repeated(fixture("chain"), r), f"chain x{r}",
                       {"rule": "cover", "base": fixture("chain"), "n": r})
    for r in spread(rng, many or 20, 7, 27) + long(334):
        _signature_job(wl, repeated(fixture("positive"), r), f"positive x{r}",
                       {"rule": "value", "value": r})
    for i, size in enumerate(spread(rng, many or 18, 20, 80)):
        # the base length cycles with the job, not drawn: these words sit
        # around the 90th percentile
        base = wl.fresh(lambda: Piece(2, 0, random_cycles(rng, 2, 4 + i % 3, 1)))
        reps = size // len(base.cycles)
        _signature_job(wl, repeated(base, reps), f"random genus 2 x{reps}",
                       {"rule": "cover", "base": base, "n": reps})
    surfaces = ((1, 0), (1, 2), (2, 0), (2, 1))
    for i, r in enumerate(spread(rng, many or 18, 7, 27)):
        genus, boundary = surfaces[i % len(surfaces)]
        wl.jobs.append(Job(
            {"kind": "cli", "argv": ["generate", "--genus", str(genus),
                                     "--boundary", str(boundary), "--n", str(r)]},
            {"rule": "generate", "n": r}))
    for r in spread(rng, many or 5, 40, 200):
        wl.jobs.append(Job({"kind": "certificate", "n": r},
                           {"rule": "certificate", "matrix": certificate_sum(r)}))
    wl.probe = [job.spec["argv"][1] for job in wl.jobs
                if job.spec.get("argv", [""])[0] == "signature"]


def _block_sum(rng: random.Random, genus: int, target: int) -> tuple[Piece, list[Piece]]:
    """Fixture and small random words on disjoint handles, interleaved with
    each piece's own order kept, then moved by a symplectic change of basis.
    Twists on disjoint handles commute, so the total is the sum of the pieces'
    signatures."""
    kinds = ("matsumoto", "chain", "positive", "delta-pair", "random")
    pieces: list[Piece] = []
    offsets: list[int] = []
    handle = count = 0
    while count < target:
        kind = rng.choice(kinds)
        if kind == "random":
            h = rng.randint(1, 2)
            piece = Piece(h, 0, random_cycles(rng, h, rng.randint(2, 4), 2))
        else:
            piece = fixture(kind)
        if handle + piece.half_dim > genus:
            break
        pieces.append(Piece(piece.genus, piece.boundary, piece.cycles[: target - count]))
        offsets.append(handle)
        handle += piece.half_dim
        count += len(pieces[-1].cycles)
    queues = [list(p.cycles) for p in pieces]
    cycles = []
    while any(queues):
        k = rng.choices(range(len(queues)), weights=[len(q) for q in queues])[0]
        v, c = queues[k].pop(0)
        full = [0] * (2 * genus)
        full[2 * offsets[k]: 2 * offsets[k] + len(v)] = v
        cycles.append((tuple(full), c))
    word = conjugated(Piece(genus, 0, tuple(cycles)), random_symplectic(rng, 2 * genus, 3))
    return word, pieces


def _high_genus(wl: Workload, rng: random.Random, small: bool) -> None:
    """signature on 4-7-cycle block sums at genus 4-8, and two at genus 10 and 12."""
    if small:
        plan = [(3, 5), (4, 6)]
    else:
        # a fixed multiset of (genus, length) pairs: only the words vary with the seed
        plan = [(4 + i % 5, 4 + i // 5 % 4) for i in range(98)] + [(10, 7), (12, 7)]
    for genus, target in plan:
        pieces: list[Piece] = []

        def make() -> Piece:
            word, found = _block_sum(rng, genus, target)
            pieces[:] = found
            return word

        word = wl.fresh(make)
        _signature_job(wl, word, f"block sum genus {genus}",
                       {"rule": "sum", "pieces": list(pieces)})


def _cover_ladder(wl: Workload, rng: random.Random, small: bool) -> None:
    """power --n N on conjugated fixture words and random genus 2-3 words.
    The few large folds use the fixture words, whose powers keep small
    entries; random words have growing entries and would dominate."""
    folds = [(n, i % 3) for i, n in enumerate(spread(rng, 2 if small else 72, 2, 20))]
    folds += [(n, 3 + i % 6) for i, n in enumerate(spread(rng, 1 if small else 25, 2, 12))]
    if not small:
        folds += [(n, i) for i, n in enumerate(spread(rng, 3, 48, 52))]
    for fold, family in folds:
        if family >= 3:
            # genus and length of a random word cycle with the job, not drawn:
            # these jobs sit at the 90th percentile and their cost grows fast
            # with both
            h, length = 2 + family % 2, 4 + (family - 3) // 2
            base = Piece(h, 0, random_cycles(rng, h, length, 1))
        else:
            base = fixture(("matsumoto", "chain", "positive")[family])
        piece = wl.fresh(lambda: conjugated(base, random_symplectic(rng, 2 * base.half_dim, 3)))
        path = wl.add_doc(piece, f"conjugated word, fold {fold}")
        wl.jobs.append(Job({"kind": "cli", "argv": ["power", path, "--n", str(fold), "--json"]},
                           {"rule": "power", "piece": piece, "n": fold}))


def _graph_triple(phi_later: IntMatrix, phi_earlier: IntMatrix) -> list[IntMatrix]:
    """Spanning sets of graph(phi_later), the diagonal and the conjugate graph
    of phi_earlier, moved from (V + V, Q + -Q) to the standard form on V + V
    by swapping a_i and b_i in the second copy."""
    n = len(phi_later)

    def swap(y: list[int]) -> list[int]:
        return [y[i ^ 1] for i in range(n)]

    cols_later = [list(c) for c in zip(*phi_later)]
    cols_earlier = [list(c) for c in zip(*phi_earlier)]
    unit = identity(n)
    return [
        [unit[i] + swap(cols_later[i]) for i in range(n)],
        [unit[i] + swap(unit[i]) for i in range(n)],
        [cols_earlier[i] + swap(unit[i]) for i in range(n)],
    ]


def _two_route(wl: Workload, rng: random.Random, small: bool) -> None:
    """Both per-step routes on random genus 2-3 words, plus meyer and maslov
    jobs on matrices built from pairs of random words u, v: their values are
    given by signature(u v) - signature(u) - signature(v)."""
    words = [(2, n) for n in spread(rng, 1 if small else 60, 4, 8)]
    words += [(3, n) for n in spread(rng, 1 if small else 10, 3, 6)]
    for h, size in words:
        piece = wl.fresh(lambda: Piece(h, 0, random_cycles(rng, h, size, 1)))
        path = wl.add_doc(piece, f"random genus {h}")
        wl.jobs.append(Job({"kind": "two_route", "doc": path},
                           {"rule": "two_route", "steps": size}))
    for i in range(2 if small else 30):
        command = ("meyer", "maslov")[i % 2]
        h = (2 + i // 2 % 2) if command == "meyer" else (1 + i // 2 % 2)
        earlier = Piece(h, 0, random_cycles(rng, h, rng.randint(2, 4), 2))
        later = Piece(h, 0, random_cycles(rng, h, rng.randint(2, 4), 2))
        phi_earlier = word_action(earlier.cycles, 2 * h)
        phi_later = word_action(later.cycles, 2 * h)
        if command == "meyer":
            doc = {"dimension": 2 * h, "matrices": [phi_later, phi_earlier]}
            argv = ["meyer"]
        else:
            doc = {"dimension": 4 * h, "matrices": _graph_triple(phi_later, phi_earlier)}
            argv = ["maslov", "--check-axioms"]
        path = f"docs/{len(wl.docs):04d}.json"
        wl.docs[path] = json.dumps(doc)
        wl.jobs.append(Job({"kind": "cli", "argv": argv[:1] + [path] + argv[1:]},
                           {"rule": command, "earlier": earlier, "later": later}))


BUILDERS = {
    "long-word": _long_word,
    "high-genus": _high_genus,
    "cover-ladder": _cover_ladder,
    "two-route": _two_route,
}


def _is_long(job: Job) -> bool:
    return job.check.get("steps", 0) >= LONG_WORD


def build(name: str, seed: int, small: bool = False) -> Workload:
    rng = random.Random(f"lefsig-bench:{name}:{seed}")
    wl = Workload(name)
    BUILDERS[name](wl, rng, small)
    # Long words run last, in the order they were made: the peak memory of a
    # pass is what the prefix cache holds when they run, and a fixed place
    # keeps it from depending on the shuffle.
    last = [job for job in wl.jobs if _is_long(job)]
    wl.jobs = [job for job in wl.jobs if not _is_long(job)]
    rng.shuffle(wl.jobs)
    wl.jobs += last
    return wl
