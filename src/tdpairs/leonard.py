"""Leonard-pair detection, switching elements, affine relations, and
split-form generation.

A validated pair is Leonard exactly when some nonzero X in the
subalgebra generated by A maps the first Astar-eigenspace into the last
one.  Detection solves that membership condition as a homogeneous linear
system in the tau-basis coefficients of X, whose solutions are one
subspaces.kernel; the certificate is unique up to scalar and, suitably
normalized, is the switching element that the closed-form idempotent sum
also produces from the split sequences.  Affine reduction reads the
tau-expansion of X off one Subspace residual.  Both run on the Echelon
engine and read tau_i(A) through split.checked_tau_matrices.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

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
from .eigen import EigenDecomposition, primitive_idempotents
from .fields import Field, PrimeField
from .linalg import Matrix
from .pairs import TriDiagonalPair, validate_pair, vstar0_vector
from .split import checked_tau_matrices
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


def _membership_rows(images, target):
    """Linear conditions on alpha expressing sum_i alpha_i images[i][j]
    in target, for every j.  Membership is linear: the combination lies
    in target iff the same combination of the images' residuals against
    target's RREF basis vanishes, so each column of those residuals
    that is not all zero gives one condition."""
    rows = []
    for image_seq in images:
        residuals = [target.residual(w) for w in image_seq]
        rows.extend(row for row in zip(*residuals) if any(row))
    return rows


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
    field = pair.field
    d = pair.diameter
    taus = checked_tau_matrices(pair)
    vstar0 = pair.vstar(0)
    vstard = pair.vstar(d)
    images = [[m.apply(u) for m in taus] for u in vstar0.basis]
    rows = _membership_rows(images, vstard)
    solutions = (kernel(Matrix(field, rows)) if rows else Subspace.full(field, d + 1)).basis
    solution_dim = len(solutions)
    if solution_dim == 0:
        if pair.shape.is_all_ones():
            raise InvariantViolation(
                "no certificate found although every eigenspace is 1-dimensional"
            )
        return NotLeonard(shape=tuple(pair.shape), solution_dim=0)
    alpha = list(solutions[0])
    if not alpha[d]:
        raise InvariantViolation("certificate with vanishing top coefficient")
    inv = field.one / alpha[d]
    alpha = tuple(x * inv for x in alpha)
    # cascade: once a coefficient is nonzero, all later ones stay nonzero
    min_nonzero = next(i for i, x in enumerate(alpha) if x)
    if any(alpha[i] == field.zero for i in range(min_nonzero, d + 1)):
        raise InvariantViolation("certificate coefficients violate the cascade")
    if min_nonzero != 0 or pair.dim != d + 1 or not pair.shape.is_all_ones():
        raise InvariantViolation("certificate exists but the pair does not look Leonard")
    x = Matrix.zeros(field, pair.dim, pair.dim)
    for coeff, m in zip(alpha, taus):
        if coeff:
            x = x + m.scale(coeff)
    if x.is_zero():
        raise InvariantViolation("certificate matrix is zero")
    if not maps_into(x, vstar0, vstard):
        raise InvariantViolation("certificate containment fails on recheck")
    return LeonardCertificate(alpha=alpha, x=x, solution_dim=solution_dim)


def leonard_basis(pair: TriDiagonalPair, cert: LeonardCertificate, u) -> tuple:
    """The basis (tau_0(A)u, ..., tau_d(A)u) of V for nonzero u in
    Vstar_0; in it, A is lower bidiagonal with diagonal theta_0..theta_d
    and unit subdiagonal."""
    field = pair.field
    d = pair.diameter
    if cert.x.is_zero() or not maps_into(cert.x, pair.vstar(0), pair.vstar(d)):
        raise HypothesisNotMet("certificate fails its defining containment")
    u = vstar0_vector(pair.vstar(0), u)
    vectors = [u]
    for i in range(1, d + 1):
        vectors.append(pair.a.shift(pair.theta(i - 1)).apply(vectors[-1]))
    if Subspace.span(field, pair.dim, vectors).dim < len(vectors):
        raise InvariantViolation("tau images of u do not form a basis")
    if len(vectors) != pair.dim:
        raise InvariantViolation("basis has wrong size; pair is not Leonard")
    return tuple(vectors)


# ---- affine relations ---------------------------------------------------------


def reduce_to_affine(pair: TriDiagonalPair, x: Matrix) -> AffineRelation:
    """Given X in the A-subalgebra with X Vstar_0 <= Vstar_0 + Vstar_1,
    recover (r, s) with X = rA + sI.

    The tau-expansion alpha of X is read off one residual: that of
    (X, 0) against the rows (tau_i(A), e_i) is (0, -alpha) exactly when
    X = sum alpha_i tau_i(A), and nonzero in its first n^2 entries when X
    is outside the subalgebra.  All coefficients above degree one are
    asserted to vanish, which the containment hypothesis forces; then
    r = alpha_1 and s = alpha_0 - alpha_1 theta_0.
    """
    if pair.diameter == 0:
        raise DiameterZero("affine reduction assumes diameter at least 1")
    if x.field != pair.field:
        raise FieldMismatch(f"{x.field!r} vs {pair.field!r}")
    if x.nrows != pair.dim or x.ncols != pair.dim:
        raise DimensionMismatch("X has the wrong size")
    field = pair.field
    d, nn = pair.diameter, pair.dim**2
    eye = Matrix.identity(field, d + 1).rows
    rows = [(*m.flatten(), *e) for m, e in zip(checked_tau_matrices(pair), eye)]
    residual = Subspace.span(field, nn + d + 1, rows).residual((*x.flatten(), *(field.zero,) * (d + 1)))
    if any(residual[:nn]):
        raise HypothesisNotMet("X is not in the subalgebra generated by A")
    alpha = [-a for a in residual[nn:]]
    target = subspace_sum(pair.vstar(0), pair.vstar(1))
    if not maps_into(x, pair.vstar(0), target):
        raise HypothesisNotMet("X Vstar_0 is not inside Vstar_0 + Vstar_1")
    if any(alpha[i] != field.zero for i in range(2, d + 1)):
        raise InvariantViolation("containment holds but the tau-expansion has degree above one")
    r = alpha[1]
    s = alpha[0] - alpha[1] * pair.theta(0)
    return AffineRelation(r=r, s=s)


def _align_orderings(eig_p: EigenDecomposition, eig_q: EigenDecomposition, side: str):
    """eig_q reordered to share eig_p's eigenspace sequence, allowing a
    full reversal; EigenspaceMismatch with the first bad index otherwise."""
    spaces_p = list(eig_p.eigenspaces)
    spaces_q = list(eig_q.eigenspaces)
    if spaces_p == spaces_q:
        return eig_q
    if spaces_p == list(reversed(spaces_q)):
        return eig_q.reversed()
    comparison = spaces_q if len(spaces_p) == len(spaces_q) else []
    index = 0
    for k, (sp, sq) in enumerate(zip(spaces_p, comparison)):
        if sp != sq:
            index = k
            break
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
    """S = sum_r (phi_d phi_{d-1} ... phi_{d-r+1}) / (varphi_1 ... varphi_r) E_r,
    with empty products equal to one and E_r the primitive idempotents of
    A taken in the theta-order of params."""
    field = params.field
    d = params.d
    if tuple(eig_a.eigenvalues) != params.theta:
        raise HypothesisNotMet(
            "eigenvalue ordering does not match the parameter set"
        )
    idempotents = primitive_idempotents(eig_a)
    result = idempotents[0]
    numerator = field.one
    denominator = field.one
    for r in range(1, d + 1):
        numerator = numerator * params.phi[d - r]
        denominator = denominator * params.varphi[r - 1]
        result = result + idempotents[r].scale(numerator / denominator)
    return result


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
    """The split-form matrices described in generate_split_form."""
    size = len(theta)
    a_rows = [[field.zero] * size for _ in range(size)]
    astar_rows = [[field.zero] * size for _ in range(size)]
    for i in range(size):
        a_rows[i][i] = theta[i]
        astar_rows[i][i] = thetastar[i]
    for i in range(1, size):
        a_rows[i][i - 1] = field.one
        astar_rows[i - 1][i] = varphi[i - 1]
    return Matrix(field, a_rows), Matrix(field, astar_rows)


def _split_pair(params: LeonardParameterSet) -> TriDiagonalPair:
    """The validated split-form pair of params; generation fails when
    it does not pass validation."""
    a, astar = _split_matrices(params.field, params.theta, params.thetastar, params.varphi)
    try:
        return validate_pair(a, astar)
    except TdpError as e:
        raise GeneratedPairInvalid(
            f"generated split form failed validation: {e}", cause=e
        ) from e


def generate_split_form(params: LeonardParameterSet) -> tuple[Matrix, Matrix]:
    """A lower bidiagonal with diagonal theta and unit subdiagonal,
    Astar upper bidiagonal with diagonal thetastar and superdiagonal
    varphi; the output must pass validation or generation fails."""
    pair = _split_pair(params)
    return pair.a, pair.astar


def _phi_pa4(field, theta, thetastar, varphi):
    """Second split sequence of a Leonard system from its eigenvalues and
    first split sequence, by Terwilliger's PA4 (LAA 330, 2001):
    phi_i = varphi_1 sum_{h<i} (theta_h - theta_{d-h}) / (theta_0 - theta_d)
    + (thetastar_i - thetastar_0)(theta_{d-i+1} - theta_0).

    Returns None when some phi_i is zero (degenerate parameters)."""
    d = len(theta) - 1
    phi, partial = [], field.zero
    for i in range(1, d + 1):
        partial += theta[i - 1] - theta[d - i + 1]
        phi.append(
            varphi[0] * partial / (theta[0] - theta[d])
            + (thetastar[i] - thetastar[0]) * (theta[d - i + 1] - theta[0])
        )
    return tuple(phi) if all(phi) else None


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
    """Deterministic pseudo-random Leonard pair of diameter d.

    Parameters are drawn from a family known to validate (affine
    eigenvalue progressions with first split sequence proportional to
    i(d - i + 1)), the split form is generated and validated, and the
    accepted pair is returned with its orderings aligned to the
    parameter sequences.  Every output passes the full validator; the
    family only controls how often retries happen.
    """
    if d < 0:
        raise DimensionMismatch("diameter must be nonnegative")
    if isinstance(field, PrimeField) and field.p <= d:
        raise ExhaustedRetries(
            f"GF({field.p}) cannot host {d + 1} distinct eigenvalues"
        )
    rng = random.Random(seed)
    last_failure = None
    for _ in range(_MAX_RETRIES):
        if isinstance(field, PrimeField):
            p = field.p
            a_scale = rng.randrange(1, p)
            b_shift = rng.randrange(p)
            astar_scale = rng.randrange(1, p)
            bstar_shift = rng.randrange(p)
            t = rng.randrange(1, p)
        else:
            a_scale = rng.choice([x for x in range(-6, 7) if x])
            b_shift = rng.randrange(-9, 10)
            astar_scale = rng.choice([x for x in range(-6, 7) if x])
            bstar_shift = rng.randrange(-9, 10)
            t = rng.choice([x for x in range(-6, 7) if x])
        theta = tuple(field.scalar(a_scale * i + b_shift) for i in range(d + 1))
        thetastar = tuple(
            field.scalar(astar_scale * i + bstar_shift) for i in range(d + 1)
        )
        varphi = tuple(field.scalar(i * (d - i + 1) * t) for i in range(1, d + 1))
        if any(x == field.zero for x in varphi):
            continue
        phi = _phi_pa4(field, theta, thetastar, varphi)
        if phi is None:
            continue
        try:
            params = LeonardParameterSet(
                field=field, theta=theta, thetastar=thetastar, varphi=varphi, phi=phi
            )
            pair = _split_pair(params)
        except (InvalidLeonardParameters, GeneratedPairInvalid) as e:
            last_failure = e
            continue
        aligned = aligned_to_params(pair, params)
        if aligned is None:
            raise InvariantViolation("generated pair misaligned with parameters")
        return params, aligned
    raise ExhaustedRetries(
        f"no valid parameter set found after {_MAX_RETRIES} attempts"
        + (f" (last failure: {last_failure})" if last_failure else "")
    )
