"""Leonard-pair detection, switching elements, affine relations, and
split-form generation.

A validated pair is Leonard exactly when some nonzero X in the
subalgebra M generated by A maps the first Astar-eigenspace into the
last one.  Detection solves that membership condition as a homogeneous
linear system in the tau-basis coefficients alpha of X.  In a split basis
(_split_diagonal) tau_i(A) e_0 = e_i, so its solutions are Vstar_d's line
(Terwilliger, LAA 330, 2001, Thm 1.9); any other pair's are one
subspaces.kernel, whose columns are the images tau_i(A)u of each Echelon
row u of Vstar_0, one linalg.shifted_chain per u, which steps by R - r I
for A = R / d_A and each integer root r of A (EigenDecomposition.roots).
The certificate is unique up to scalar and, normalized, is the switching
element the closed-form idempotent sum gives from the split sequences.
Both are polynomials in A: in a split basis in A's diagonal order each is
built from its first column, alpha or the divided differences of S's
scalars c_j on (roots, d_A) (_split_polynomial), else as sum c_j E_j, one
product C diag(c) C^-1 (eigen._idempotent_sum); affine reduction reads c_j
off X's action on each eigenspace.  No tau_i(A), no Matrix per index.

Generation certifies every split form in generate_split_form: one whose
sequences satisfy PA1-PA5 (Terwilliger, LAA 330, 2001, Thm 1.9), as every
1x1 form's do, by reading them once (pairs._split_phi), phi checked against
PA4; any other is rejected with validate_pair's reason.  random_leonard
draws from an affine family whose phi has a closed form in integers, so a
rejected draw is a bug, and builds its pair once, in the orderings drawn
(pairs._split_basis_pair).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import partial
from itertools import accumulate
from math import lcm
from operator import mul

from .errors import (
    DiameterZero,
    DimensionMismatch,
    EigenspaceMismatch,
    ExhaustedRetries,
    FieldMismatch,
    GeneratedPairInvalid,
    HypothesisNotMet,
    InvalidLeonardParameters,
    InvariantViolation,
    NotLeonardError,
    TdpError,
    ZeroVarphi,
)
from .eigen import EigenDecomposition, _are_eigenvectors, _idempotent_sum
from .fields import Field, PrimeField
from .linalg import Matrix, modulus, row_elements, shifted_chain
from .pairs import TriDiagonalPair, _split_basis_pair, _split_phi, _unit_lower_bidiagonal, validate_pair
from .serio import scalar_to_str
from .subspaces import Subspace, kernel, maps_into, subspace_sum

# ---- result and parameter types --------------------------------------------


@dataclass(frozen=True)
class LeonardCertificate:
    """A nonzero X = sum alpha_i tau_i(A) with X Vstar_0 <= Vstar_d.

    alpha is normalized so alpha_d = 1 (the last coefficient can never
    vanish on a nonzero solution; see the cascade property).
    solution_dim counts independent solutions of the homogeneous system,
    which is 1 on every Leonard pair.
    """

    alpha: tuple
    x: Matrix
    solution_dim: int


@dataclass(frozen=True)
class NotLeonard:
    """Negative detection result: only X = 0 satisfies the containment.
    Carries the shape that obstructs (some entry exceeds 1)."""

    shape: tuple
    solution_dim: int = 0


@dataclass(frozen=True)
class AffineRelation:
    """Scalars of an affine change A' = rA + sI (unstarred half) or
    Astar' = rstar Astar + sstar I (starred half)."""

    r: object = None
    s: object = None
    rstar: object = None
    sstar: object = None


@dataclass(frozen=True)
class LeonardParameterSet:
    """Eigenvalue sequences and split sequences defining a split form.

    theta and thetastar each hold d+1 distinct scalars; varphi (first
    split sequence) and phi (second split sequence) hold d nonzero
    scalars each.
    """

    field: Field
    theta: tuple
    thetastar: tuple
    varphi: tuple
    phi: tuple

    def __post_init__(self):
        field = self.field
        for name in ("theta", "thetastar", "varphi", "phi"):
            object.__setattr__(self, name, tuple(field.scalar(x) for x in getattr(self, name)))
        theta, thetastar, varphi, phi = self.theta, self.thetastar, self.varphi, self.phi
        if not theta:
            raise InvalidLeonardParameters("theta must be nonempty")
        d = len(theta) - 1
        if len(thetastar) != d + 1:
            raise InvalidLeonardParameters("theta and thetastar lengths differ")
        if len(varphi) != d or len(phi) != d:
            raise InvalidLeonardParameters(
                f"split sequences must have length {d}, got "
                f"{len(varphi)} and {len(phi)}"
            )
        if len(set(theta)) != d + 1:
            raise InvalidLeonardParameters("theta entries must be distinct")
        if len(set(thetastar)) != d + 1:
            raise InvalidLeonardParameters("thetastar entries must be distinct")
        if any(x == field.zero for x in varphi):
            raise ZeroVarphi("first split sequence contains a zero entry")
        if any(x == field.zero for x in phi):
            raise InvalidLeonardParameters("second split sequence contains a zero entry")

    @property
    def d(self) -> int:
        return len(self.theta) - 1


# ---- detection ---------------------------------------------------------------


def detect_leonard(pair: TriDiagonalPair):
    """Certificate of a nonzero X in the A-subalgebra with
    X Vstar_0 <= Vstar_d, or NotLeonard when only X = 0 works.

    Existence of the certificate is equivalent to every eigenspace being
    1-dimensional, and both directions are cross-checked on the way out.
    The outcome is kept on the (immutable) pair and reused.
    """
    if "_leonard" not in pair.__dict__:
        object.__setattr__(pair, "_leonard", _detect(pair))
    return pair.__dict__["_leonard"]


def _detect(pair: TriDiagonalPair):
    field, d = pair.field, pair.diameter
    vstar0, vstard, p = pair.vstar(0), pair.vstar(d), modulus(field)
    (a_rows, da), roots = pair.a._ints, pair.eig_a.roots
    first = vstar0.echelon.rows  # Vstar_0 = span(e_0) exactly when its one Echelon row is e_0
    if split := (list(first) == [0] and not any(first[0][1:]) and _split_diagonal(pair.eig_a)):
        solutions = vstard  # X e_0 = alpha: the solutions are Vstar_d
    else:  # the chain gives w_i = d_A^i tau_i(A) u, so tau_i(A) u leaves the residual r_i / (s_i d_A^i)
        rows = []
        for u in first.values():
            res = [(*vstard.echelon._residual(w), da**i) for i, w in enumerate(shifted_chain(a_rows, roots[:d], u, p))]
            lcd = lcm(*[s * f for _, s, f in res])
            cols = [[x * (lcd // (s * f)) for x in w] for w, s, f in res]
            rows.extend(row for row in zip(*cols) if any(row))
        solutions = kernel(Matrix._of_ints(field, rows)) if rows else Subspace.full(field, d + 1)
    if not (solution_dim := solutions.dim):
        if pair.shape.is_all_ones():
            raise InvariantViolation("no certificate found although every eigenspace is 1-dimensional")
        return NotLeonard(shape=tuple(pair.shape), solution_dim=0)
    w = solutions.echelon.rows[solutions.echelon.pivots[0]]
    if not w[d]:
        raise InvariantViolation("certificate with vanishing top coefficient")
    e, s = (1, pow(w[d], -1, p)) if p else (abs(w[d]), 1 if w[d] > 0 else -1)
    a = [x * s % p for x in w] if p else [x * s for x in w]  # alpha = w / w_d = a / e
    # cascade: once a coefficient is nonzero, all later ones stay nonzero
    min_nonzero = next(i for i, x in enumerate(a) if x)
    if not all(a[min_nonzero:]):
        raise InvariantViolation("certificate coefficients violate the cascade")
    if min_nonzero != 0 or pair.dim != d + 1 or not pair.shape.is_all_ones():
        raise InvariantViolation("certificate exists but the pair does not look Leonard")
    if split:  # alpha is X's first column
        x = _split_polynomial(pair.a, roots, a, e)
    else:  # X = sum_j c_j E_j, c_j = sum_i alpha_i tau_i(theta_j) by Horner's rule in Newton
        cs = [0] * (d + 1)  # form, every j at once; for theta = r / d_A the ints c are e d_A^d c_j
        for i in range(d, -1, -1):
            cs = [a[i] * da ** (d - i) + (rj - roots[i]) * c for rj, c in zip(roots, cs)]
        x = _idempotent_sum(pair.eig_a, cs, e * da**d)
    if x.is_zero():
        raise InvariantViolation("certificate matrix is zero")
    if not maps_into(x, vstar0, vstard):
        raise InvariantViolation("certificate containment fails on recheck")
    return LeonardCertificate(alpha=row_elements(field, a, e), x=x, solution_dim=solution_dim)


def _split_diagonal(eig: EigenDecomposition) -> bool:
    """Whether eig's operator A = R / d_A is lower bidiagonal with R_{i,i-1} = d_A
    (so each eigenspace is a line) and eig.roots is R's diagonal: A's eigenvalues
    theta_i = R_ii / d_A in eig's order, on int rows."""
    rows, da = eig.operator._ints
    return eig.roots == tuple(row[i] for i, row in enumerate(rows)) and _unit_lower_bidiagonal(rows, da)


def _split_polynomial(a: Matrix, t: tuple, v: list, e: int) -> Matrix:
    """f(A) from its first column v / e, for A = a = R / d_A with _split_diagonal holding
    and t = A's roots: A e_k = theta_k e_k + e_{k+1}, so column k is v_k / (e d_A^k) with
    v_{k+1} = (R - t_k I) v_k, O(n) a column.  The closing step (R - t_d I) v_d = 0 is
    A f(A) e_d = f(A) A e_d, so f(A) commutes with A (n distinct eigenvalues) and is in
    the A-subalgebra; a failure is a bug."""
    (rows, da), p, n = a._ints, modulus(a.field), len(t)
    r = [row[i] for i, row in enumerate(rows)]

    def step(v, s):  # (R - s I) v, every band entry of R d_A
        w = [(x - s) * y + da * z for x, y, z in zip(r, v, [0, *v])]
        return [x % p for x in w] if p else w

    cols = list(accumulate(t[:-1], step, initial=v))
    if any(step(cols[-1], t[-1])):
        raise InvariantViolation("polynomial in A does not commute with A")
    scale = [da ** (n - 1 - k) for k in range(n)]
    return Matrix._of_ints(a.field, [list(map(mul, row, scale)) for row in zip(*cols)], e * scale[0])


# ---- affine relations ---------------------------------------------------------


def reduce_to_affine(pair: TriDiagonalPair, x: Matrix) -> AffineRelation:
    """Given X in the A-subalgebra with X Vstar_0 <= Vstar_0 + Vstar_1,
    recover (r, s) with X = rA + sI.

    X lies in the subalgebra, spanned by the primitive idempotents E_j of
    A, exactly when it acts on each eigenspace V_j as a scalar c_j = q / d_X,
    q = (R_X u)_k / u_k for R_X = d_X X and one Echelon row u of V_j with
    pivot k: every row of V_j is checked as (R_X - q I) u = 0, which fails on
    u itself when the quotient is not exact.  X = rA + sI exactly when
    c_j = c_0 + r (theta_j - theta_0) for every j, which the containment
    hypothesis forces and which is asserted; then s = c_0 - r theta_0.
    """
    if pair.diameter == 0:
        raise DiameterZero("affine reduction assumes diameter at least 1")
    if x.field != pair.field:
        raise FieldMismatch(f"{x.field!r} vs {pair.field!r}")
    if x.nrows != pair.dim or x.ncols != pair.dim:
        raise DimensionMismatch("X has the wrong size")
    (rows, dx), p, qs = x._ints, modulus(pair.field), []
    for space in pair.eig_a.eigenspaces:
        k, u = next(iter(space.echelon.rows.items()))  # u[k], its pivot entry, is nonzero (1 over GF(p))
        xu = sum(map(mul, rows[k], u))
        qs.append(xu % p if p else xu // u[k])
        if not _are_eigenvectors(rows, p, qs[-1], space.echelon.rows.values()):
            raise HypothesisNotMet("X is not in the subalgebra generated by A")
    cs = row_elements(pair.field, qs, dx)
    target = subspace_sum(pair.vstar(0), pair.vstar(1))
    if not maps_into(x, pair.vstar(0), target):
        raise HypothesisNotMet("X Vstar_0 is not inside Vstar_0 + Vstar_1")
    thetas = pair.eig_a.eigenvalues
    r = (cs[1] - cs[0]) / (thetas[1] - thetas[0])
    if any(c != cs[0] + r * (t - thetas[0]) for c, t in zip(cs[2:], thetas[2:])):
        raise InvariantViolation("containment holds but the tau-expansion has degree above one")
    return AffineRelation(r=r, s=cs[0] - r * thetas[0])


def _align_orderings(eig_p: EigenDecomposition, eig_q: EigenDecomposition, side: str):
    """eig_q reordered to share eig_p's eigenspace sequence, allowing a
    full reversal; EigenspaceMismatch with the first bad index otherwise."""
    spaces_p = list(eig_p.eigenspaces)
    spaces_q = list(eig_q.eigenspaces)
    if spaces_p == spaces_q:
        return eig_q
    if spaces_p == list(reversed(spaces_q)):
        return eig_q.reversed()
    index = next(k for k, (sp, sq) in enumerate(zip(spaces_p, spaces_q)) if sp != sq)
    raise EigenspaceMismatch(
        f"{side}-eigenspaces differ at position {index} (up to reversal)",
        side=side,
        index=index,
    )


def affine_relation(pair_p: TriDiagonalPair, pair_q: TriDiagonalPair):
    """Certify A' = rA + sI and Astar' = rstar Astar + sstar I for two
    pairs sharing all eigenspaces (orderings may be reversed).

    Returns the two halves (unstarred, starred); r and rstar are nonzero
    whenever the diameter is positive.
    """
    if pair_p.field != pair_q.field:
        raise FieldMismatch(f"{pair_p.field!r} vs {pair_q.field!r}")
    if pair_p.dim != pair_q.dim:
        raise DimensionMismatch("pairs live on different spaces")
    if pair_p.diameter != pair_q.diameter:
        raise EigenspaceMismatch(
            "different numbers of eigenspaces", side="A", index=0
        )
    field = pair_p.field

    def half(theta_p, theta_q, m_p, m_q, d):
        if d == 0:
            r = field.one
            s = theta_q[0] - theta_p[0]
        else:
            r = (theta_q[1] - theta_q[0]) / (theta_p[1] - theta_p[0])
            s = theta_q[0] - r * theta_p[0]
            if not r:
                raise InvariantViolation("affine scale vanished on distinct eigenvalues")
        if m_q != m_p.scale(r).shift(-s):
            raise InvariantViolation(
                "shared eigenspaces but no affine relation; hypothesis violated"
            )
        return r, s

    d = pair_p.diameter
    eig_qa = _align_orderings(pair_p.eig_a, pair_q.eig_a, "A")
    r, s = half(pair_p.eig_a.eigenvalues, eig_qa.eigenvalues, pair_p.a, pair_q.a, d)
    eig_qs = _align_orderings(pair_p.eig_astar, pair_q.eig_astar, "Astar")
    rstar, sstar = half(
        pair_p.eig_astar.eigenvalues, eig_qs.eigenvalues, pair_p.astar, pair_q.astar, d
    )
    return AffineRelation(r=r, s=s), AffineRelation(rstar=rstar, sstar=sstar)


# ---- switching elements -------------------------------------------------------


def switching_from_sequences(params: LeonardParameterSet, eig_a: EigenDecomposition) -> Matrix:
    """S = sum_r c_r E_r, c_r = (phi_d phi_{d-1} ... phi_{d-r+1}) / (varphi_1 ... varphi_r),
    with empty products equal to one and E_r the primitive idempotents of
    A taken in the theta-order of params (eigen.primitive_idempotents).
    In a split basis in theta's order S = f(A), f(theta_r) = c_r, is built
    from its first column (_split_polynomial), else as one product
    C diag(c) C^-1 of A's eigenbasis change (eigen._idempotent_sum)."""
    field, d = params.field, params.d
    if tuple(eig_a.eigenvalues) != params.theta:
        raise HypothesisNotMet("eigenvalue ordering does not match the parameter set")
    cs = [field.one]
    for r in range(1, d + 1):
        cs.append(cs[-1] * params.phi[d - r] / params.varphi[r - 1])
    ((cs,), e), (_, da), p, t = Matrix(field, [cs])._ints, eig_a.operator._ints, modulus(field), eig_a.roots
    if not _split_diagonal(eig_a):
        return _idempotent_sum(eig_a, cs, e)
    for j in range(1, d + 1):  # cs / e become f's divided differences f[theta_0, ..., theta_j], theta = t / d_A,
        gaps = [x - y for x, y in zip(t[j:], t)]  # mod p by inverses, over Q each level over the lcm of its gaps
        m = 1 if p else lcm(*gaps)
        q = [pow(g, -1, p) if p else m // g for g in gaps]
        cs, e = [x * m for x in cs[:j]] + [(x - y) * da * z for x, y, z in zip(cs[j:], cs[j - 1 :], q)], e * m
        cs = [x % p for x in cs] if p else cs
    return _split_polynomial(eig_a.operator, t, cs, e)


def switching_via_solve(pair: TriDiagonalPair) -> Matrix:
    """The detection certificate's X, normalized so alpha_d = 1; unique
    up to the scalar fixed by normalization."""
    found = detect_leonard(pair)
    if isinstance(found, NotLeonard):
        raise NotLeonardError(f"pair has shape {found.shape}")
    if found.solution_dim != 1:
        raise InvariantViolation(
            f"certificate space has dimension {found.solution_dim}, expected 1"
        )
    return found.x


# ---- generation ----------------------------------------------------------------


def _split_matrices(field, theta, thetastar, varphi) -> tuple[Matrix, Matrix]:
    """The split-form matrices described in generate_split_form, on int
    rows: theta, and thetastar with varphi, are coerced once each as one row."""
    ((t,), da), ((u,), ds), n = Matrix(field, [theta])._ints, Matrix(field, [[*thetastar, *varphi]])._ints, len(theta)
    a = [[t[i] if j == i else da if j == i - 1 else 0 for j in range(n)] for i in range(n)]
    astar = [[u[i] if j == i else u[n + i] if j == i + 1 else 0 for j in range(n)] for i in range(n)]
    return Matrix._of_ints(field, a, da), Matrix._of_ints(field, astar, ds)


def generate_split_form(params: LeonardParameterSet) -> tuple[Matrix, Matrix]:
    """A lower bidiagonal with diagonal theta and unit subdiagonal,
    Astar upper bidiagonal with diagonal thetastar and superdiagonal
    varphi.  A form whose sequences form a parameter array (pairs._split_phi,
    every form at d = 0) is certified by Terwilliger's classification and
    builds no pair; phi must be PA4's phi, else InvalidLeonardParameters.  Any
    other form is no Leonard pair: validate_pair's rejection is GeneratedPairInvalid."""
    field, p = params.field, modulus(params.field)
    a, astar = _split_matrices(field, params.theta, params.thetastar, params.varphi)
    if (found := _split_phi(a, astar)) is None:  # no parameter array: the engine explains the rejection
        try:
            validate_pair(a, astar)
        except TdpError as e:
            raise GeneratedPairInvalid(f"generated split form failed validation: {e}", cause=e) from e
        raise InvariantViolation("validated split form has no parameter array")  # Terwilliger's Thm 1.9
    phis, e = found
    for i, (given, x) in enumerate(zip(params.phi, phis)):  # given = x / e, cross-multiplied on ints
        if (given.v * e - x) % p if p else given.numerator * e != x * given.denominator:
            given, want = scalar_to_str(given), scalar_to_str(field.scalar(x) / field.scalar(e))
            raise InvalidLeonardParameters(f"phi[{i}] is {given}, but PA4 gives {want}")
    return a, astar


def aligned_to_params(pair: TriDiagonalPair, params: LeonardParameterSet) -> TriDiagonalPair | None:
    """The pair, each ordering reversed where its first eigenvalue differs
    from the parameters'; None when the sequences still differ."""
    if pair.theta(0) != params.theta[0]:
        pair = pair.with_reversed_a()
    if pair.thetastar(0) != params.thetastar[0]:
        pair = pair.with_reversed_astar()
    if (tuple(pair.eig_a.eigenvalues), tuple(pair.eig_astar.eigenvalues)) != (params.theta, params.thetastar):
        return None
    return pair


_MAX_RETRIES = 40


def random_leonard(field: Field, d: int, seed) -> tuple[LeonardParameterSet, TriDiagonalPair]:
    """Deterministic pseudo-random Leonard pair of diameter d: the split
    form _random_split_form draws and certifies, with orderings theta and
    thetastar in the order drawn (pairs._split_basis_pair)."""
    params, a, astar = _random_split_form(field, d, seed)
    return params, _split_basis_pair(a, astar)


def _random_split_form(field: Field, d: int, seed) -> tuple[LeonardParameterSet, Matrix, Matrix]:
    """(params, A, Astar) of a deterministic pseudo-random draw.

    Each draw (a, b, astar, bstar, t) gives theta_i = a i + b, thetastar_i
    = astar i + bstar, varphi_i = i (d - i + 1) t and phi_i = i (d - i + 1)
    (t + a astar), an affine family on which PA1-PA5 hold (Terwilliger,
    LAA 330, 2001, Thm 1.9) unless some phi_i is 0, that is (as p > d)
    when d >= 1 and t + a astar = 0: such a draw is skipped.  The split
    form is built and certified by generate_split_form; a rejection of a
    drawn parameter array is a bug, raised as InvariantViolation.
    """
    if d < 0:
        raise DimensionMismatch("diameter must be nonnegative")
    if isinstance(field, PrimeField) and field.p <= d:
        raise ExhaustedRetries(
            f"GF({field.p}) cannot host {d + 1} distinct eigenvalues"
        )
    rng = random.Random(seed)
    if isinstance(field, PrimeField):  # a nonzero scale, any shift
        scale, shift = partial(rng.randrange, 1, field.p), partial(rng.randrange, field.p)
    else:
        scale, shift = partial(rng.choice, [x for x in range(-6, 7) if x]), partial(rng.randrange, -9, 10)
    for _ in range(_MAX_RETRIES):
        a_scale, b_shift, astar_scale, bstar_shift, t = scale(), shift(), scale(), shift(), scale()
        s = t + a_scale * astar_scale  # phi_i / (i (d - i + 1))
        if d and not field.scalar(s):
            continue
        try:
            params = LeonardParameterSet(
                field=field,
                theta=[a_scale * i + b_shift for i in range(d + 1)],
                thetastar=[astar_scale * i + bstar_shift for i in range(d + 1)],
                varphi=[i * (d - i + 1) * t for i in range(1, d + 1)],
                phi=[i * (d - i + 1) * s for i in range(1, d + 1)],
            )
            return params, *generate_split_form(params)
        except (InvalidLeonardParameters, GeneratedPairInvalid) as e:
            raise InvariantViolation(f"drawn parameter array rejected: {e}") from e
    raise ExhaustedRetries(f"no valid parameter set found after {_MAX_RETRIES} attempts")
