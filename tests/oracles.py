"""Independent cross-check routines used only by the tests.

The library computes signatures by congruence diagonalization; here the same
number is recovered from the characteristic polynomial instead.  For a
symmetric matrix all eigenvalues are real, so Descartes' rule of signs is
exact: the number of positive eigenvalues equals the sign variations of
p(t), the number of negative ones the variations of p(-t).

Wall's space W = B ∩ (C + A) / ((B ∩ C) + (B ∩ A)) of a Lagrangian triple
and its form are built here the long way: intersections by a kernel, a
recombination and a canonicalization, and the radical complement by a greedy
scan over the standard coordinate vectors.  The library reads the index off
Kashiwara's space {(x, y) in B x C : x + y in A} instead and must equal the
signature of this form.

The index is also kept as the library once read it, from the 3n x 3n
Lion-Vergne form on A + B + C (`lion_vergne_index`); the library's form on
Kashiwara's space, of dimension about n, must give the same number.

The exact eliminations are kept here in their Fraction form, as the library
once ran them: Gauss-Jordan that inverts each pivot, and a congruence that
subtracts Fraction multiples of the pivot row.  The library's fraction-free
kernels must agree with them exactly.

The fiber-sum defect is rebuilt as the library once computed it: the index
tau(graph A, diagonal, graph B^{-1}) of graph Lagrangians in the doubled
space (V + V, Q + -Q), each graph validated by the `Lagrangian`
constructor.  The doubled space is taken on the standard form of V + V,
with a_i and b_i swapped in the second copy, which turns -Q into Q.  The library evaluates
Meyer's form on V instead and must agree exactly.

Prefix actions Phi_k = T_k ... T_1 are rebuilt on plain ints by writing each
transvection out as a full matrix and multiplying it in, with no call into
the package.

The dual-preservation shortcut is kept as the library once ran it: a checked
`Matrix` of (Phi_{k-1} - Id) stacked over the pairing row, solved over
Fractions.  The library asks one int elimination instead.

`is_symplectic` once formed M^T J M by two `Matrix` products; the library
reads the Gram matrix of M's columns off `SymplecticSpace.gram` instead and
must give the same verdict.  `gram` and `pairing` apply J by one
swap-and-negate per vector; `reference_gram` writes the dense J out itself
(`standard_form`) and sums each J v over its nonzero pattern, and the two
must agree entry for entry, down to the type.

Every matrix product once went through `vec_dot`; the library now multiplies
all-int operands by a C-level sum of products and must agree entry for entry,
down to the type.

Subspaces are handled here as tuples of spanning rows: `span_basis`
canonicalizes them to the RREF basis, `kernel_basis` gives the right kernel
of a matrix, one vector per free column, and `fraction_solve` the solution
with every free variable zero, all read off `fraction_rref`.  The library
reads Lagrangian bases, ranks, Meyer's kernel and the step's solution off
its int elimination instead, with no division.

The handlebody route (Ozbagci 2002; Gompf-Stipsicz 1999) reads a word's
fields and nothing else from the package.  X is the fiber times D^2 with a
2-handle along each gamma_k, framed -c_k against the fiber; its intersection
form on ker(Gamma: Z^n -> H_1, e_k -> gamma_k) is
Q_X(a, b) = -sum_k c_k a_k b_k - sum_{i<j} a_i b_j Q(gamma_i, gamma_j).  With
M = 2 Q_X written out on all of Z^n and Gamma_I a set of rows of Gamma of full
row rank r, the border [[M, Gamma_I^T], [Gamma_I, 0]] adds (r, r) to the
inertia, so its signature is the fibration's.  Q is written out here, and the
signature is `congruence_signature`'s.

The `signature --json` and `power --json` payloads are built here as the CLI
once built them, for `json.dumps(payload, indent=2)`.  The CLI writes the same
bytes directly.
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul

from lefsig.maslov import maslov_index
from lefsig.engine import SignatureTrace
from lefsig.errors import InputError
from lefsig.ratlinalg import Matrix, Vector, as_vector, signature_symmetric, vec_dot
from lefsig.symplectic import Lagrangian, MonodromyWord, SymplecticSpace, word_action


def span_basis(vectors, dim: int) -> tuple[Vector, ...]:
    """Canonical (RREF) basis of the span of the given vectors inside Q^dim."""
    rows = [list(as_vector(v)) for v in vectors]
    for r in rows:
        if len(r) != dim:
            raise InputError(f"vector of length {len(r)} in ambient dimension {dim}")
    reduced, pivots = fraction_rref(rows)
    return tuple(tuple(reduced[i]) for i in range(len(pivots)))


def kernel_basis(a: Matrix) -> tuple[Vector, ...]:
    """Basis of the right kernel of A, one vector per free column f: 1 at f,
    minus the RREF's column f at the pivot columns, 0 elsewhere."""
    reduced, pivots = fraction_rref(a.to_lists())
    kernel = []
    for f in sorted(set(range(a.cols)) - set(pivots)):
        v = [Fraction(int(j == f)) for j in range(a.cols)]
        for row, c in zip(reduced, pivots):
            v[c] = -row[f]
        kernel.append(tuple(v))
    return tuple(kernel)


def fraction_solve(rows, cols: int) -> tuple[Fraction, ...] | None:
    """The solution with every free variable zero of the rows [A | b], `cols`
    columns in A, by `fraction_rref`; None when b's column takes a pivot."""
    reduced, pivots = fraction_rref(rows)
    if pivots and pivots[-1] == cols:
        return None
    x = [Fraction(0)] * cols
    for row, c in zip(reduced, pivots):
        x[c] = row[cols]
    return tuple(x)


def charpoly(m: Matrix) -> list[Fraction]:
    """Coefficients of det(tI - M), ascending order, leading coefficient 1.

    Faddeev-LeVerrier recursion; exact over Fraction.
    """
    n = m.rows
    coeffs = [Fraction(0)] * (n + 1)
    coeffs[n] = Fraction(1)
    mk = Matrix.zeros(n, n)
    ident = Matrix.identity(n)
    for k in range(1, n + 1):
        mk = m @ (mk + ident.scale(coeffs[n - k + 1])) if k > 1 else m
        trace = sum((mk.at(i, i) for i in range(n)), Fraction(0))
        coeffs[n - k] = -trace / k
    return coeffs


def _variations(seq: list[Fraction]) -> int:
    signs = [1 if x > 0 else -1 for x in seq if x != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def signature_via_charpoly(s: Matrix) -> int:
    """Signature of a symmetric matrix via Descartes sign counting."""
    assert s == s.transpose()
    p = charpoly(s)
    pos = _variations(p)
    neg = _variations([c if k % 2 == 0 else -c for k, c in enumerate(p)])
    return pos - neg


def fraction_rref(rows):
    """Gauss-Jordan over Fractions with the first-nonzero pivot rule.
    Returns (rows, pivot column list)."""
    rows = [list(row) for row in rows]
    nrows = len(rows)
    pivots = []
    r = 0
    for c in range(len(rows[0]) if nrows else 0):
        if r == nrows:
            break
        pivot_row = next((i for i in range(r, nrows) if rows[i][c] != 0), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = Fraction(1, rows[r][c])
        rows[r] = [x * inv for x in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return rows, pivots


def _swap_sym(m, i: int, j: int) -> None:
    m[i], m[j] = m[j], m[i]
    for row in m:
        row[i], row[j] = row[j], row[i]


def fraction_signature_symmetric(s: Matrix) -> int:
    """Signature by congruence over Fractions: each step takes the Schur
    complement of its diagonal pivot and counts the pivot's sign; a vanishing
    trailing diagonal gets a manufactured pivot by a row+column addition."""
    assert s == s.transpose()
    return congruence_signature(s.to_lists())


def congruence_signature(m: list[list]) -> int:
    """`fraction_signature_symmetric` on a symmetric matrix of int or Fraction
    rows, which it consumes."""
    n = len(m)
    sig = 0
    for k in range(n):
        if m[k][k] == 0:
            i = next((i for i in range(k + 1, n) if m[i][i] != 0), None)
            if i is not None:
                _swap_sym(m, k, i)
            else:
                pos = next(
                    ((i, j) for i in range(k, n) for j in range(i + 1, n) if m[i][j] != 0),
                    None,
                )
                if pos is None:
                    break
                i, j = pos
                for c in range(k, n):
                    m[i][c] += m[j][c]
                for r in range(k, n):
                    m[r][i] += m[r][j]
                if i != k:
                    _swap_sym(m, k, i)
        p = m[k][k]
        sig += 1 if p > 0 else -1
        for r in range(k + 1, n):
            if m[r][k] != 0:
                f = Fraction(m[r][k], p)
                for c in range(k + 1, n):
                    m[r][c] -= f * m[k][c]
    return sig


def reference_intersect_spans(u, v, dim: int) -> tuple:
    """Canonical basis of span(u) ∩ span(v): every kernel vector (s, t) of
    [u | -v] gives the common vector sum s_i u_i."""
    if not u or not v:
        return ()
    u = [as_vector(x) for x in u]
    stacked = Matrix(u + [tuple(-y for y in as_vector(w)) for w in v], dim).transpose()
    meet = [
        tuple(sum((c * x[i] for c, x in zip(coeffs, u)), Fraction(0)) for i in range(dim))
        for coeffs in kernel_basis(stacked)
    ]
    return span_basis(meet, dim)


def greedy_complement(u_coords, k: int) -> list[int]:
    """Indices i of the standard vectors e_i, scanned left to right, that are
    not yet in the span of u_coords and the e_j chosen before."""
    chosen: list[int] = []
    spanning = list(u_coords)
    for i in range(k):
        e = tuple(Fraction(1 if j == i else 0) for j in range(k))
        if len(span_basis(spanning + [e], k)) > len(span_basis(spanning, k)):
            chosen.append(i)
            spanning.append(e)
    return chosen


def _coordinates(columns, x) -> tuple[Fraction, ...] | None:
    """`fraction_solve` of sum_i t_i columns_i = x."""
    return fraction_solve([list(row) for row in zip(*columns, x)], len(columns))


def reference_wall_space(a: Lagrangian, b: Lagrangian, c: Lagrangian) -> tuple[tuple, Matrix]:
    """(representatives, form matrix) of the Wall space, computed the long way."""
    space = a.space
    dim = space.dim
    circle = reference_intersect_spans(b.basis, span_basis(c.basis + a.basis, dim), dim)
    if not circle:
        return (), Matrix.zeros(0, 0)
    c_parts = []
    for d in circle:
        sol = _coordinates(a.basis + c.basis, [-x for x in d])
        coeffs = sol[len(a.basis):]
        c_parts.append(tuple(sum((t * y[i] for t, y in zip(coeffs, c.basis)), Fraction(0))
                             for i in range(dim)))
    psi = [[space.pairing(x, cp) for cp in c_parts] for x in circle]
    u = span_basis(reference_intersect_spans(b.basis, c.basis, dim)
                   + reference_intersect_spans(b.basis, a.basis, dim), dim)
    u_coords = [_coordinates(circle, x) for x in u]
    chosen = greedy_complement(u_coords, len(circle))
    form = Matrix(tuple(tuple(psi[i][j] for j in chosen) for i in chosen), len(chosen))
    return tuple(circle[i] for i in chosen), form


def lion_vergne_index(a: Lagrangian, b: Lagrangian, c: Lagrangian) -> int:
    """Minus the signature of Kashiwara's form on A + B + C, the 3n x 3n
    matrix [[0, P, R^T], [P^T, 0, S], [R, S^T, 0]] with P = A J B^T,
    S = B J C^T and R = C J A^T, as the library once computed the index."""
    space = a.space
    n = space.half_dim
    p, s, r = (space.gram(x.basis, y.basis) for x, y in ((a, b), (b, c), (c, a)))
    pt, st, rt = (tuple(zip(*m)) for m in (p, s, r))
    zero = ((0,) * n,) * n
    form = tuple(x + y + z for blocks in ((zero, p, rt), (pt, zero, s), (r, st, zero))
                 for x, y, z in zip(*blocks))
    return -signature_symmetric(Matrix._exact(form, 3 * n))


def standard_form(dim: int) -> list[list[int]]:
    """The standard J written out: blocks [[0, 1], [-1, 0]] down the diagonal."""
    j_form = [[0] * dim for _ in range(dim)]
    for i in range(0, dim, 2):
        j_form[i][i + 1], j_form[i + 1][i] = 1, -1
    return j_form


def reference_apply_form(v) -> list:
    """J v, each entry summed on its own over the nonzero pattern of the dense J."""
    return [sum(f * v[j] for j, f in enumerate(row) if f) for row in standard_form(len(v))]


def dense_prefix_actions(vectors, chiralities, dim: int) -> list[list[list[int]]]:
    """Phi_0 = Id, ..., Phi_n as int matrices: T_k = Id - c_k g (J g)^T in full,
    J the `standard_form`, and Phi_k = T_k Phi_{k-1}."""
    j_form = standard_form(dim)
    phi = [[int(i == k) for k in range(dim)] for i in range(dim)]
    actions = [phi]
    for g, c in zip(vectors, chiralities, strict=True):
        w = [sum(j_form[i][k] * g[k] for k in range(dim)) for i in range(dim)]
        t = [[int(i == k) - c * g[i] * w[k] for k in range(dim)] for i in range(dim)]
        phi = [[sum(t[i][m] * phi[m][k] for m in range(dim)) for k in range(dim)]
               for i in range(dim)]
        actions.append(phi)
    return actions


def symplectic_inverse(space: SymplecticSpace, m: Matrix) -> Matrix:
    """M^{-1} = J^{-1} M^T J, which M^T J M = J gives for any form J; J^{-1}
    is solved column by column."""
    ident = Matrix.identity(space.dim).entries
    inverse_form = Matrix([_coordinates(space.form.transpose().entries, e) for e in ident],
                          space.dim).transpose()
    return inverse_form @ m.transpose() @ space.form


def doubled_space(space: SymplecticSpace) -> SymplecticSpace:
    """(V + V, Q + -Q), the ambient space of graph Lagrangians, on the standard
    form of V + V: `_swap` carries the second copy's -Q to Q."""
    return SymplecticSpace(2 * space.half_dim)


def _swap(y) -> tuple:
    """y with a_i and b_i exchanged: Q(swap x, swap y) = -Q(x, y)."""
    return tuple(y[i ^ 1] for i in range(len(y)))


def graph(doubled: SymplecticSpace, m: Matrix) -> Lagrangian:
    """Graph {(x, Mx)} of M in the doubled space, spanned by the rows
    (e_i, swap(M e_i)) and validated by the `Lagrangian` constructor: it is
    Lagrangian exactly when M is symplectic."""
    ident = Matrix.identity(m.rows).entries
    return Lagrangian(doubled, [e + _swap(c) for e, c in zip(ident, m.transpose().entries)])


def graph_triple(space: SymplecticSpace, a: Matrix, b: Matrix) -> tuple[Lagrangian, ...]:
    """(graph A, diagonal, graph B^{-1}) in the doubled space."""
    doubled = doubled_space(space)
    return (graph(doubled, a), graph(doubled, Matrix.identity(space.dim)),
            graph(doubled, symplectic_inverse(space, b)))


def reference_fiber_sum_defect(space: SymplecticSpace, a: Matrix, b: Matrix) -> int:
    """The gluing defect as Wall's index of graph Lagrangians,
    tau(graph A, diagonal, graph B^{-1}), with A the later piece's monodromy."""
    return maslov_index(*graph_triple(space, a, b))


def reference_shortcut_dual_preserved(word: MonodromyWord, k: int) -> bool:
    """Some y with Phi_{k-1} y = y and Q(gamma_k, y) = 1 exists, by a stacked
    `Matrix` and `fraction_solve`; gamma_k must not be null-homologous."""
    space = word.space
    fixed = word_action(word, k - 1) - Matrix.identity(space.dim)
    # Q(gamma, y) = gamma^T J y = -(J gamma)^T y as a functional of y
    pairing_row = tuple(-x for x in space.form.apply(word.cycles[k - 1].homology_class))
    stacked = Matrix(fixed.entries + (pairing_row,), space.dim)
    rows = [list(row) + [int(i == space.dim)] for i, row in enumerate(stacked.entries)]
    return fraction_solve(rows, space.dim) is not None


def reference_is_symplectic(space: SymplecticSpace, m: Matrix) -> bool:
    """M^T J M == J by two `Matrix` products; False for a matrix of the wrong shape."""
    if m.rows != space.dim or m.cols != space.dim:
        return False
    return m.transpose() @ space.form @ m == space.form


def reference_gram(space: SymplecticSpace, us, vs) -> tuple[tuple, ...]:
    """Rows (Q(u, v) for v in vs) for u in us, in dimension `space.dim`: each
    J v by `reference_apply_form`, then each entry one sum of products."""
    assert all(len(v) == space.dim for v in (*us, *vs))
    jvs = [reference_apply_form(v) for v in vs]
    return tuple(tuple(sum(map(mul, u, jv)) for jv in jvs) for u in us)


def reference_matmul(a: Matrix, b: Matrix) -> tuple[tuple, ...]:
    """The entries of a @ b, each one `vec_dot` of a row and a column."""
    columns = [b.column(j) for j in range(b.cols)]
    return tuple(tuple(vec_dot(row, col) for col in columns) for row in a.entries)


def signature_payload(trace: SignatureTrace) -> dict:
    """The `signature --json` payload: witnesses as strings, null when absent."""
    return {
        "signature": trace.total,
        "null_homologous_count": trace.null_homologous_count,
        "steps": [
            {
                "index": s.index,
                "vector": list(s.cycle.homology_class),
                "chirality": s.cycle.chirality,
                "solvable": s.solvable,
                "sigma": s.sigma,
                "witness": None if s.witness is None else list(map(str, s.witness)),
            }
            for s in trace.steps
        ],
    }


def power_payload(base: int, fold: int, sigmas: list[int]) -> dict:
    """The `power --json` payload: n * base minus the correction terms."""
    return {
        "base_signature": base,
        "fold": fold,
        "corrections": [{"power": m, "sigma": s} for m, s in enumerate(sigmas, start=1)],
        "signature": fold * base - sum(sigmas),
    }


def handle_signature(word: MonodromyWord) -> int:
    """Signature of the handlebody of the word: the bordered matrix
    [[M, Gamma_I^T], [Gamma_I, 0]] of the module docstring, by congruence."""
    gammas = [c.homology_class for c in word.cycles]
    chiralities = [c.chirality for c in word.cycles]
    n = len(gammas)

    def q(x, y):  # the standard form, blocks [[0, 1], [-1, 0]]
        return sum(x[i] * y[i + 1] - x[i + 1] * y[i] for i in range(0, len(x), 2))

    m = [[0] * n for _ in range(n)]
    for i in range(n):
        m[i][i] = -2 * chiralities[i]
        for j in range(i + 1, n):
            m[i][j] = m[j][i] = -q(gammas[i], gammas[j])
    # the pivot columns of the rows gamma_k are independent rows of Gamma
    _, rows = fraction_rref(gammas)
    border = [[g[i] for g in gammas] for i in rows]
    bordered = [row + [b[k] for b in border] for k, row in enumerate(m)]
    bordered += [b + [0] * len(border) for b in border]
    return congruence_signature(bordered)
