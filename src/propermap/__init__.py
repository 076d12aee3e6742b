"""Certificates of properness for the polynomial maps x + (Ax)^k.

Decide whether the map built from a square rational matrix A is proper,
emit machine-checkable certificates either way, and for non-proper maps
produce explicit escape curves whose images stay bounded.
"""

from .certify import (
  NONPROPER,
  PROPER,
  UNDECIDED,
  Certificate,
  certify,
  corank1_decide,
  k1_properness,
  necessary_escape_search,
  sufficient_screens,
  verify_certificate,
)
from .forge import (
  Family3x3Params,
  density_experiment,
  forge_3x3,
  golden_3x3,
  sample_rank_r,
  shift_5x5,
)
from .hadamard import hpow, hprod, rational_kth_root
from .keller import find_sign_pattern, invertibility_verdict, is_druzkowski
from .linalg import RatMatrix, RatVector, Subspace, as_rat
from .recipes import ConjugationFrame, EscapeCurve, build_witness_point
from .witness import (
  general_k_witness,
  probe_mu,
  validate_witness,
)

__all__ = [
  "NONPROPER",
  "PROPER",
  "UNDECIDED",
  "Certificate",
  "ConjugationFrame",
  "EscapeCurve",
  "Family3x3Params",
  "RatMatrix",
  "RatVector",
  "Subspace",
  "as_rat",
  "build_witness_point",
  "certify",
  "corank1_decide",
  "density_experiment",
  "find_sign_pattern",
  "forge_3x3",
  "general_k_witness",
  "golden_3x3",
  "hpow",
  "hprod",
  "invertibility_verdict",
  "is_druzkowski",
  "k1_properness",
  "necessary_escape_search",
  "probe_mu",
  "rational_kth_root",
  "sample_rank_r",
  "shift_5x5",
  "sufficient_screens",
  "validate_witness",
  "verify_certificate",
]

__version__ = "0.1.0"
