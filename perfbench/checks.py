"""Expected answers by a second route, compared with what the jobs returned.

    long-word     positive words give exactly n; Matsumoto repeats follow
                  sigma(M^(10q+s)) = -24 q + sigma(M^s); other repeated words
                  w^N match the cover formula for (sigma(w), phi(w), N)
    cover-ladder  the cover signature of w at fold N equals signature(w^N)
    high-genus    the total equals the sum of the pieces' signatures
    two-route     local_sigma and local_sigma_via_maslov agree at every step;
                  meyer and maslov values equal the defect
                  signature(u v) - signature(u) - signature(v) (up to sign)

These run in the harness process after the timed passes.
"""

from __future__ import annotations

from typing import Any

from workloads import Job, Piece, fixture, repeated


def _perturb(x: Any) -> Any:
    """A deliberately wrong version of an expected value."""
    if isinstance(x, bool):
        return not x
    if isinstance(x, int):
        return x + 1
    return [_perturb(x[0])] + list(x[1:])


class Checker:
    def __init__(self) -> None:
        import lefsig

        self.lefsig = lefsig
        self._cache: dict[int, Any] = {}

    def word(self, piece: Piece) -> Any:
        lf = self.lefsig
        return lf.word(lf.Surface(piece.genus, piece.boundary),
                       [list(v) for v, _ in piece.cycles], [c for _, c in piece.cycles])

    def sigma(self, piece: Piece) -> int:
        return self.lefsig.signature(self.word(piece)).total

    def cover_formula(self, base: Piece, n: int) -> int:
        """n sigma(w) - sum_{m<n} sig(S_m), S_m = sum_{i<=m} (phi^i)^T J - J phi^i,
        accumulated in one pass over m."""
        lf = self.lefsig
        w = self.word(base)
        phi = lf.word_action(w)
        j = w.space.form
        p = lf.Matrix.identity(phi.rows)
        s = lf.Matrix.zeros(phi.rows, phi.rows)
        total = n * lf.signature(w).total
        for _ in range(1, n):
            p = p @ phi
            s = s + (p.transpose() @ j - j @ p)
            total -= lf.signature_symmetric(s)
        return total

    def defect(self, earlier: Piece, later: Piece) -> int:
        joined = Piece(earlier.genus, earlier.boundary, earlier.cycles + later.cycles)
        return self.sigma(joined) - self.sigma(earlier) - self.sigma(later)

    def _expected(self, check: dict) -> Any:
        rule = check["rule"]
        if rule == "matsumoto":
            q, s = divmod(check["q"], 10)
            base = self.sigma(repeated(fixture("matsumoto"), s)) if s else 0
            return [-24 * q + base, check["steps"]]
        if rule == "value":
            return [check["value"], check["steps"]]
        if rule == "cover":
            return [self.cover_formula(check["base"], check["n"]), check["steps"]]
        if rule == "sum":
            return [sum(self.sigma(p) for p in check["pieces"]), check["steps"]]
        if rule == "generate":
            return [check["n"], 3 * check["n"]]
        if rule == "certificate":
            return [True, [[str(x) for x in row] for row in check["matrix"]]]
        if rule == "power":
            return [self.sigma(repeated(check["piece"], check["n"])), check["n"] - 1]
        if rule == "meyer":
            return self.defect(check["earlier"], check["later"])
        if rule == "maslov":
            return [-self.defect(check["earlier"], check["later"]), True]
        raise ValueError(f"unknown check rule {rule!r}")

    def expected(self, index: int, job: Job, answer: Any) -> Any:
        if job.check["rule"] == "two_route":
            direct = answer[0] if len(answer[0]) == job.check["steps"] else None
            return [direct, direct]
        if index not in self._cache:
            self._cache[index] = self._expected(job.check)
        return self._cache[index]

    def mismatches(self, jobs: list[Job], results: list[dict], tamper: bool = False) -> list[str]:
        """Descriptions of every answered job whose answer is wrong.  With
        `tamper`, the first answered job's expected value is made wrong."""
        out = []
        for i, (job, res) in enumerate(zip(jobs, results, strict=True)):
            if res["error"] is not None:
                continue
            want = self.expected(i, job, res["answer"])
            if tamper:
                want, tamper = _perturb(want), False
            if res["answer"] != want:
                out.append(f"job {i} ({' '.join(job.spec.get('argv', [job.spec['kind']]))}): "
                           f"got {str(res['answer'])[:120]}, expected {str(want)[:120]}")
        return out
