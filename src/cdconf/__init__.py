"""Computable pseudoconformal analysis over quaternions and octonions.

Modules
-------
algebra   exact Cayley-Dickson arithmetic, elementary functions, polar form
calculus  numerical Jacobians, the pseudoconformality test, SO(4)/SO(8)
          derivative factorizations
phrase    the noncommutative symbolic calculus: parsing, lengths, metric,
          differentiation and exact antidifferentiation
contour   planar loops, line integrals, winding numbers, argument
          principle, Rouche comparison, maximum principle, zero location
moebius   fractional R-linear words, hyperspheres, symmetric points,
          reflection extension
domains   ball/polydisc automorphisms, the half-space Cayley transform,
          norm-shrinking and identity verifiers
normal    the C^1 proximity metric and a desk-scale normal-family
          classifier
suites    named seeded verification suites (also behind `cdconf suite`)
cli       the JSON command-line surface
"""

from .algebra import (
    ALGEBRA_TOL,
    CdNumber,
    PolarForm,
    cd,
    conj,
    exp,
    inv,
    ln_branch,
    ln_principal,
    mul,
    norm,
    polar,
    pow_real,
    proj,
    re,
)
from .calculus import (
    OctGivensFactorization,
    QuatFactorization,
    RealJacobian,
    Verdict,
    dzbar_norm,
    factor_octonion_givens,
    factor_quaternion,
    is_pseudoconformal_at,
    jacobian,
)

__version__ = "0.1.0"
