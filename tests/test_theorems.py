"""What the literature proves of every tridiagonal pair, asserted on each
validated pair the tests can reach: the acceptance pool, the GF(3) search
hits, Kronecker sums, every split form of the parameter draws that
validate_pair accepts, and a q-type parameter array over Q."""

from __future__ import annotations

import random
from fractions import Fraction
from math import comb

import tdpairs.leonard
from tdpairs import GF, QQ, SearchSpec, TdpError, random_leonard, search_shape, validate_pair
from tdpairs.linalg import modulus

from oracles import kron_sum_fixture
from test_leonard import parameter_draws


def _theorem_failures(pair) -> list:
    """The theorems pair breaks: rho_i <= rho_0 C(d, i) (K. Nomura and P.
    Terwilliger, LAA 429, 2008), and for d >= 3 one beta for theta and
    thetastar, (theta_{i-2} - theta_{i+1}) / (theta_{i-1} - theta_i) the same
    for 2 <= i <= d - 1 on both sides (T. Ito, K. Tanabe and P. Terwilliger,
    DIMACS Ser. 56, 2001), cross-multiplied on the stored integer roots,
    whose common scale d cancels in each ratio."""
    rho, d, p = tuple(pair.shape), pair.diameter, modulus(pair.field)
    failures = [f"rho_{i} = {rho[i]} > {rho[0]} C({d}, {i})" for i in range(d + 1) if rho[i] > rho[0] * comb(d, i)]
    if d >= 3:
        sides = (pair.eig_a.roots, pair.eig_astar.roots)
        ratios = [(x[i - 2] - x[i + 1], x[i - 1] - x[i]) for x in sides for i in range(2, d)]
        (top, bottom), residue = ratios[0], (lambda x: x % p) if p else (lambda x: x)
        failures += [f"beta differs at {k}" for k, (x, y) in enumerate(ratios) if residue(x * bottom - top * y)]
    return failures


def _pairs():
    for i in range(200):  # the acceptance pool, seed 0
        field = (QQ, GF(5), GF(7), GF(13))[i % 4]
        yield random_leonard(field, i % 7 % (5 if field == GF(5) else 7), seed=i)[1]
    specs = [SearchSpec(GF(3), 4, (1, 2, 1), budget=40, start=start) for start in (184950, 191268)]
    hits = [pair for spec in specs for pair in search_shape(spec).instances]
    assert len(hits) == 4  # the GF(3) (1, 2, 1) hits at 184953, 184983, 191271 and 191301
    yield from hits
    for field in (QQ, GF(101)):
        yield validate_pair(*kron_sum_fixture(field, ((0, 1),) * 2, (1, 2)))
        yield validate_pair(*kron_sum_fixture(field, ((0, 1),) * 3, (1, 2, 3)))
    for field in (QQ, GF(5), GF(7), GF(13), GF(101)):
        rng = random.Random(27 + getattr(field, "p", 0))
        for theta, thetastar, varphi in parameter_draws(field, rng):
            try:
                yield validate_pair(*tdpairs.leonard._split_matrices(field, theta, thetastar, varphi))
            except TdpError:
                pass
    # q-type: theta_i = 2^i, thetastar_i = 2^-i (beta = 5/2 on both), varphi by PA3 for phi_1 = 1
    theta, thetastar = [Fraction(2**i) for i in range(6)], [Fraction(1, 2**i) for i in range(6)]
    partial, varphi = Fraction(0), []
    for i in range(1, 6):
        partial += (theta[i - 1] - theta[6 - i]) / (theta[0] - theta[5])
        varphi.append(partial + (thetastar[i] - thetastar[0]) * (theta[i - 1] - theta[5]))
    yield validate_pair(*tdpairs.leonard._split_matrices(QQ, theta, thetastar, varphi))


def test_every_reachable_pair_obeys_the_shape_bound_and_shares_one_beta():
    seen, failures = [], []
    for pair in _pairs():
        seen.append((tuple(pair.shape), pair.diameter, pair.field))
        failures += [(pair.field, pair.a.rows, pair.astar.rows, f) for f in _theorem_failures(pair)]
    assert failures == []
    assert len(seen) > 600 and sum(d >= 3 for _, d, _ in seen) > 250
    assert {(1, 2, 1), (1, 3, 3, 1), (1,) * 6} <= {shape for shape, _, _ in seen}
    assert {field for _, d, field in seen if d >= 3} == {QQ, GF(5), GF(7), GF(13), GF(101)}
