"""The decision pipeline: screens, the corank-1 procedure, and certificates."""

import ast
import hashlib
import importlib
import itertools
import json
import random
import subprocess
import sys
from dataclasses import FrozenInstanceError, replace
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
  ESCAPE_DIRECTION_SEEDS,
  box_coefficient_table,
  f_exact,
  f_hat_exact,
  family_member,
  naive_cube_direction,
  ones_kernel_sample,
  planted_pattern,
  rand_antisymmetric,
  rand_int_matrix,
  rand_invertible,
  rand_rat_rank,
  rand_symmetric,
  reference_candidates,
  reference_kernel_directions,
  src_env,
  two_class_kernel,
  two_pattern_kernel,
)
from propermap.certify import (
  NONPROPER,
  PROPER,
  UNDECIDED,
  Analysis,
  AuditEntry,
  certify,
  condition_chain,
  corank1_decide,
  k1_properness,
  kernel_cuberoot_candidates,
  necessary_escape_search,
  normalize_kernel_direction,
  sufficient_screens,
  verify_certificate,
)
from propermap.forge import (
  golden_3x3,
  sample_rank_r,
  shift_5x5,
)
from propermap.hadamard import hpow, hprod, rational_cube_root_direction
from propermap.jsonio import certificate_from_json, certificate_to_json, dumps
from propermap.linalg import (
  RatMatrix,
  RatVector,
  Subspace,
  image_basis,
  intersect,
  kernel_basis,
  orthogonal_complement,
  primitive_integer_vector,
  rank,
  solve_affine_in_subspace,
)
from propermap.recipes import ConjugationFrame, build_witness_point
from propermap.witness import validate_witness

# the package re-exports the function certify, which hides the module
certify_module = importlib.import_module("propermap.certify")
linalg_module = importlib.import_module("propermap.linalg")

# corank 1 with kernel line (1,1,2): the cube root of the kernel direction
# is irrational, every membership it needs holds, and the escape system has
# no solution even numerically, so no screen can decide the instance
UNDECIDED_FIXTURE = [[1, 1, -1], [1, 1, -1], [1, -1, 0]]

# a corank-1 matrix whose full-support kernel cube root is rational but not
# constant, so no screen fires and the direction decides
BLOCKED_DIRECTION = [[3, 0, -3], [6, 0, -6], [-3, Fraction(-1, 8), 4]]


def test_escape_search_invertible_matrix_is_a_proof():
  s = necessary_escape_search(RatMatrix.of([[2, 1], [1, 1]]))
  assert s.candidate is None
  assert s.none_is_proof


def test_escape_search_zero_matrix_is_a_proof():
  s = necessary_escape_search(RatMatrix.zero(3, 3))
  assert s.candidate is None
  assert s.none_is_proof


def test_escape_search_shift_finds_the_classic_candidate():
  S = shift_5x5()
  s = necessary_escape_search(S)
  assert s.candidate == RatVector.of([0, 0, 1, 1, 0])
  assert s.image_vector == RatVector.of([1, 1, 0, 0, 0])
  assert s.image_vector == S.apply(s.candidate)
  assert not s.image_vector.is_zero()
  assert S.apply(hpow(s.image_vector, 3)).is_zero()


def test_screens_identity_fires_kernel_in_gram():
  cert = certify(RatMatrix.identity(3))
  assert cert.verdict == PROPER
  assert cert.reason == "kernel-in-gram-kernel"


def test_screens_symmetric_and_antisymmetric(subtests=None):
  rng = random.Random(2)
  for build in (rand_symmetric, rand_antisymmetric):
    A = build(rng, 4)
    cert = certify(A)
    assert cert.verdict == PROPER
    assert cert.reason == "kernel-in-gram-kernel"


def test_screens_rank_one_outer_product():
  A = RatMatrix.of([[1, 2], [1, 2]])
  cert = certify(A)
  assert cert.verdict == PROPER
  assert cert.reason == "gram-rank-1"


def test_screens_shift_is_triangular():
  cert = certify(shift_5x5())
  assert cert.verdict == PROPER
  assert cert.reason == "triangular"
  # the screen decides, so certify never runs the escape search
  steps = {a.step: a.outcome for a in cert.audit}
  assert steps.get("escape-search") == "skipped"
  # yet an escape candidate exists: the necessary condition alone cannot
  # settle properness
  assert necessary_escape_search(shift_5x5()).candidate is not None


def test_screens_lower_triangular_fires_too():
  A = RatMatrix.of([[0, 0, 0], [2, 0, 0], [1, -1, 0]])
  screen, _ = sufficient_screens(A)
  assert screen is not None
  assert screen.reason == "triangular"


def test_corank1_golden_member_is_non_proper():
  cert = corank1_decide(golden_3x3())
  assert cert.verdict == NONPROPER
  assert cert.reason == "escape-direction"
  recipe = cert.witness()
  assert recipe is not None
  assert recipe.kind == "simple"
  assert recipe.x_inf == RatVector.of([1, 1, 1])


def test_corank1_blocked_kernel_line_is_proper():
  A = RatMatrix.of([[-2, -3, 5], [0, -1, 1], [-2, -3, 5]])
  cert = corank1_decide(A)
  assert cert.verdict == PROPER
  assert cert.reason == "kernel-line-blocked"


def test_corank1_two_by_two_fast_path():
  cert = corank1_decide(RatMatrix.of([[1, -1], [1, -1]]))
  assert cert.verdict == PROPER
  assert cert.reason == "kernel-line-blocked"


def test_corank1_rejects_wrong_corank():
  with pytest.raises(ValueError):
    corank1_decide(RatMatrix.identity(3))
  with pytest.raises(ValueError):
    corank1_decide(RatMatrix.zero(3, 3))


def test_normalize_kernel_direction_all_ones_is_identity_frame():
  A = golden_3x3()
  nk = normalize_kernel_direction(A, RatVector.of([1, 1, 1]))
  assert nk.frame.perm == (0, 1, 2)
  assert nk.frame.diag == (1, 1, 1)
  assert nk.matrix == A
  assert nk.generator == RatVector.of([1, 1, 1])


def test_normalize_kernel_direction_scales_by_cube_roots():
  A = RatMatrix.of([[1, 0, -8], [0, 1, -8], [1, 1, -16]])
  g = RatVector.of([8, 8, 1])
  assert A.apply(g).is_zero()
  nk = normalize_kernel_direction(A, g)
  assert nk.generator == RatVector.of([1, 1, 1])
  assert nk.matrix.apply(nk.generator).is_zero()
  assert sorted(nk.frame.diag) == [Fraction(1, 2), Fraction(1, 2), Fraction(1)]


def test_normalize_kernel_direction_pushes_zeros_last():
  A = RatMatrix.of([[1, 0, -8], [0, 1, 0], [1, 1, -8]])
  g = RatVector.of([8, 0, 1])
  assert A.apply(g).is_zero()
  nk = normalize_kernel_direction(A, g)
  assert nk.generator == RatVector.of([1, 1, 0])
  assert nk.support_size == 2
  assert nk.matrix.apply(nk.generator).is_zero()


def test_normalize_kernel_direction_negative_entries():
  A = RatMatrix.of([[1, -1], [1, -1]])
  nk = normalize_kernel_direction(A, RatVector.of([-1, -1]))
  assert nk.generator == RatVector.of([1, 1])
  assert nk.frame.diag == (Fraction(-1), Fraction(-1))


def test_normalize_kernel_direction_rejects_non_kernel_vectors():
  with pytest.raises(ValueError):
    normalize_kernel_direction(golden_3x3(), RatVector.of([1, 0, 0]))


def test_condition_chain_on_golden_direction():
  A = golden_3x3()
  rep = condition_chain(A, RatVector.of([1, 1, 1]))
  assert rep.satisfied
  assert rep.depth == 1
  u = RatVector.of(rep.stages[0].solution)
  assert A.apply(u) == -RatVector.of([1, 1, 1])


def test_condition_chain_infeasible_direction():
  # the identity kills no cube, so the chain must fail at its first equation
  rep = condition_chain(RatMatrix.identity(3), RatVector.of([1, 1, 1]))
  assert not rep.satisfied


def test_condition_chain_rejects_a_zero_or_non_pattern_direction():
  A = golden_3x3()
  with pytest.raises(ValueError, match="direction must be nonzero"):
    condition_chain(A, RatVector.zero(3))
  with pytest.raises(ValueError, match="needs a 0/1 direction"):
    condition_chain(A, RatVector.of([1, 2, 0]))


def test_certify_golden_is_non_proper_with_validated_recipe():
  A = golden_3x3()
  cert = certify(A)
  assert cert.verdict == NONPROPER
  assert cert.reason == "escape-direction"
  assert verify_certificate(A, cert)


def test_certify_undecided_fixture():
  A = RatMatrix.of(UNDECIDED_FIXTURE)
  assert A.m - rank(A) == 1
  g = kernel_basis(A).basis[0]
  cert = certify(A)
  assert cert.verdict == UNDECIDED
  assert cert.reason == "outside-decidable-screens"
  assert not cert.decided
  # undecided certificates claim nothing, so there is nothing to verify
  assert not verify_certificate(A, cert)


def test_certify_small_dimensions_always_decide():
  rng = random.Random(21)
  for trial in range(40):
    m = rng.choice([1, 2])
    A = rand_int_matrix(rng, m, box=5)
    cert = certify(A)
    assert cert.verdict == PROPER


def test_certify_verdicts_survive_diagonal_conjugation():
  rng = random.Random(23)
  for trial in range(25):
    m = rng.choice([2, 3])
    A = rand_int_matrix(rng, m)
    d = [Fraction(rng.choice([1, 2, 3, -1, -2]), rng.choice([1, 2]))
         for _ in range(m)]
    D = RatMatrix.diagonal(d)
    Dinv3 = RatMatrix.diagonal([1 / t ** 3 for t in d])
    B = D.matmul(A).matmul(Dinv3)
    ca, cb = certify(A), certify(B)
    if ca.decided and cb.decided:
      assert ca.verdict == cb.verdict


def test_verify_certificate_all_proper_reason_codes():
  for rows in ([[2, 1], [1, 1]],            # kernel-in-gram-kernel
               [[1, 2], [1, 2]],            # gram-rank-1
               [[0, 1], [0, 0]]):           # gram-rank-1 beats triangular here
    A = RatMatrix.of(rows)
    cert = certify(A)
    assert cert.verdict == PROPER
    assert verify_certificate(A, cert)
  S = shift_5x5()
  assert verify_certificate(S, certify(S))


def test_verify_certificate_rejects_matrix_swap():
  A = golden_3x3()
  cert = certify(A)
  other = RatMatrix.identity(3)
  assert not verify_certificate(other, cert)


def test_corank1_is_decisive_on_all_ones_kernels():
  rng = random.Random(31)
  for trial in range(30):
    A = ones_kernel_sample(rng, rng.choice([3, 4]))
    cert = corank1_decide(A)
    assert cert.verdict in (PROPER, NONPROPER)
    assert verify_certificate(A, cert)


def test_kernel_cuberoot_candidates_identity_has_none():
  assert kernel_cuberoot_candidates(RatMatrix.identity(3)) == []


def test_kernel_cuberoot_candidates_golden_contains_ones():
  assert RatVector.of([1, 1, 1]) in kernel_cuberoot_candidates(golden_3x3())


def test_certificate_audit_records_the_pipeline():
  cert = certify(golden_3x3())
  steps = [a.step for a in cert.audit]
  assert "escape-search" in steps
  assert cert.audit[0].outcome in ("candidate", "provably empty", "nothing found")


# (verdict, reason) of certify on a seeded corpus reaching every path that
# can decide: each screen that can fire, each corank-1 reason, and corank
# >= 2 outcomes of the escape search and of the candidate sweep.  The order
# of the pipeline's steps must not change any entry.
REGRESSION = {
  "identity-3": (lambda: RatMatrix.identity(3),
                 (PROPER, "kernel-in-gram-kernel")),
  "zero-3": (lambda: RatMatrix.zero(3, 3), (PROPER, "kernel-in-gram-kernel")),
  "symmetric-4": (lambda: rand_symmetric(random.Random(2), 4),
                  (PROPER, "kernel-in-gram-kernel")),
  "antisymmetric-4": (lambda: rand_antisymmetric(random.Random(3), 4),
                      (PROPER, "kernel-in-gram-kernel")),
  "invertible-3": (lambda: rand_invertible(random.Random(4), 3),
                   (PROPER, "kernel-in-gram-kernel")),
  "rank-one-2": (lambda: RatMatrix.of([[1, 2], [1, 2]]),
                 (PROPER, "gram-rank-1")),
  "shift-5x5": (shift_5x5, (PROPER, "triangular")),
  "lower-3": (lambda: RatMatrix.of([[0, 0, 0], [2, 0, 0], [1, -1, 0]]),
              (PROPER, "triangular")),
  "ones-kernel-4": (lambda: ones_kernel_sample(random.Random(1), 4),
                    (PROPER, "kernel-line-blocked")),
  "golden-3x3": (golden_3x3, (NONPROPER, "escape-direction")),
  # kernel line (1, 8, 1): its cube root (1, 2, 1) lies in the image, so the
  # escape search finds it, and the escape check then blocks it
  "blocked-direction-3": (lambda: RatMatrix.of(BLOCKED_DIRECTION),
                          (PROPER, "kernel-line-blocked")),
  "undecided-fixture": (lambda: RatMatrix.of(UNDECIDED_FIXTURE),
                        (UNDECIDED, "outside-decidable-screens")),
  "planted-0": (lambda: planted_pattern(random.Random(0), 3),
                (PROPER, "kernel-line-blocked")),
  "planted-1": (lambda: planted_pattern(random.Random(1), 4),
                (PROPER, "escape-chain-unsat")),
  "planted-2": (lambda: planted_pattern(random.Random(2), 3),
                (PROPER, "no-escape-direction")),
  "planted-57": (lambda: planted_pattern(random.Random(57), 4),
                 (NONPROPER, "escape-chain-numeric")),
  "planted-70": (lambda: planted_pattern(random.Random(70), 3),
                 (NONPROPER, "escape-chain")),
  # the depth-2 chain: a rational hat cube root, lifts u1 and v1
  "planted-837": (lambda: planted_pattern(random.Random(837), 4),
                  (NONPROPER, "escape-chain")),
  "planted-77": (lambda: planted_pattern(random.Random(77), 4),
                 (UNDECIDED, "outside-decidable-screens")),
  "planted-92": (lambda: planted_pattern(random.Random(92), 3),
                 (NONPROPER, "escape-direction")),
  "two-classes-119": (lambda: two_class_kernel(random.Random(119)),
                      (NONPROPER, "escape-direction-numeric")),
  "two-patterns-2000": (lambda: two_pattern_kernel(random.Random(2000)),
                        (PROPER, "no-escape-direction")),
  "two-patterns-2004": (lambda: two_pattern_kernel(random.Random(2004)),
                        (UNDECIDED, "outside-decidable-screens")),
  "two-patterns-2176": (lambda: two_pattern_kernel(random.Random(2176)),
                        (NONPROPER, "escape-chain")),
  "two-patterns-2247": (lambda: two_pattern_kernel(random.Random(2247)),
                        (NONPROPER, "escape-direction")),
  "rank-6-3-1": (lambda: sample_rank_r(6, 3, seed=1),
                 (UNDECIDED, "outside-decidable-screens")),
  "rank-6-3-2": (lambda: sample_rank_r(6, 3, seed=2),
                 (UNDECIDED, "outside-decidable-screens")),
}


@pytest.mark.parametrize("name", sorted(REGRESSION))
def test_certify_regression_table(name):
  build, expected = REGRESSION[name]
  cert = certify(build())
  assert (cert.verdict, cert.reason) == expected


@pytest.mark.parametrize("name", sorted(
  name for name, (_, (verdict, _)) in REGRESSION.items()
  if verdict != UNDECIDED))
def test_certify_regression_certificates_verify_after_json(name):
  A = REGRESSION[name][0]()
  cert = certify(A)
  back = certificate_from_json(json.loads(dumps(certificate_to_json(cert))))
  assert verify_certificate(A, back)


def test_verify_certificate_rejects_a_swapped_proper_reason():
  # each Proper reason below names an argument that does not hold for the
  # matrix, so the certificate must fail although its verdict is right
  swaps = [("planted-0", "escape-chain-unsat"),
           ("planted-1", "kernel-line-blocked"),
           ("planted-1", "no-escape-direction"),
           ("blocked-direction-3", "escape-chain-unsat"),
           ("blocked-direction-3", "no-escape-direction"),
           ("two-patterns-2000", "kernel-line-blocked"),
           ("two-patterns-2000", "escape-chain-unsat"),
           # its kernel direction has zeros: the chain decides it, not the
           # full-support escape check that blocks a kernel line
           ("planted-2", "kernel-line-blocked")]
  for name, reason in swaps:
    A = REGRESSION[name][0]()
    cert = certify(A)
    assert cert.verdict == PROPER and cert.reason != reason
    assert verify_certificate(A, cert)
    assert not verify_certificate(A, replace(cert, reason=reason)), \
      (name, reason)
  # a swap to an argument that also holds is still a valid certificate once
  # it carries that argument's evidence: the kernel line of planted-0 is
  # all ones and misses the image
  A = REGRESSION["planted-0"][0]()
  swapped = replace(certify(A), reason="no-escape-direction")
  assert not verify_certificate(A, swapped)
  note = necessary_escape_search(A).note
  assert verify_certificate(A, replace(swapped, evidence={"note": note}))


def test_verify_certificate_rejects_a_perturbed_recipe():
  # the witness validation re-checks a rational recipe's equations exactly,
  # so one changed entry of u (simple recipe) or of the lift v1 (chain
  # recipe) fails the certificate after a JSON round trip
  for name, field in (("golden-3x3", "u"), ("planted-837", "v1")):
    A = REGRESSION[name][0]()
    back = certificate_from_json(
      json.loads(dumps(certificate_to_json(certify(A)))))
    assert verify_certificate(A, back)
    recipe = back.witness()
    entries = getattr(recipe, field).entries
    bad = replace(recipe, **{field: RatVector.of([entries[0] + 1,
                                                  *entries[1:]])})
    broken = replace(back, evidence=dict(back.evidence, recipe=bad))
    assert not verify_certificate(A, broken), (name, field)


def _json_round_trip(cert):
  return certificate_from_json(json.loads(dumps(certificate_to_json(cert))))


def test_verify_certificate_reads_kernel_line_evidence():
  # the all-ones line is blocked by its screen, the other by
  # _decide_direction: evidence that is not what that step writes for A
  # fails, even though the reason holds
  forged = {"generator": RatVector.of([5, 7, 9]),
            "in_reduced_subspace": False}
  for A in (RatMatrix.of([[-2, -3, 5], [0, -1, 1], [-2, -3, 5]]),
            RatMatrix.of(BLOCKED_DIRECTION)):
    cert = certify(A)
    assert (cert.verdict, cert.reason) == (PROPER, "kernel-line-blocked")
    assert verify_certificate(A, _json_round_trip(cert))
    for evidence in ({}, forged, dict(cert.evidence, **forged)):
      broken = replace(cert, evidence=evidence)
      assert not verify_certificate(A, broken), (A, evidence)
      assert not verify_certificate(A, _json_round_trip(broken))


def _edits(value):
  """Values that differ from `value` in one field: a changed scalar or
  vector entry, a number of another type that == takes as equal, or, for
  a dict, one field changed or dropped."""
  if isinstance(value, bool):
    return [not value, int(value)]
  if isinstance(value, int):
    return [value + 1, float(value)] + [bool(value)] * (value in (0, 1))
  if isinstance(value, str):
    return [value + " (edited)"]
  if value is None:
    return ["edited"]
  if isinstance(value, RatVector):
    return [RatVector.of([value[0] + 1, *value.entries[1:]])]
  if isinstance(value, dict):
    changed = [dict(value, **{key: e}) for key, v in value.items()
               for e in _edits(v)]
    dropped = [{k2: v2 for k2, v2 in value.items() if k2 != key}
               for key in value]
    return changed + dropped
  raise TypeError(type(value).__name__)


# one matrix per Proper reason of x + (Ax)^3
PROPER_BY_REASON = {
  "kernel-in-gram-kernel": lambda: RatMatrix.of([[1, 2], [2, 1]]),
  "gram-rank-1": lambda: RatMatrix.of([[1, 2], [3, 6]]),
  "triangular": lambda: RatMatrix.of([[1, 1, 1], [0, 0, 1], [0, 0, 1]]),
  "kernel-line-blocked": lambda: planted_pattern(random.Random(0), 3),
  "escape-chain-unsat": lambda: planted_pattern(random.Random(1), 4),
  "no-escape-direction": lambda: planted_pattern(random.Random(2), 3),
}


def test_verify_certificate_checks_every_proper_reasons_evidence():
  # each Proper certificate must carry exactly what its deciding step
  # writes for A; one field changed or dropped fails it, in memory and
  # after a JSON round trip, where a chain report is a plain summary dict
  for reason, build in PROPER_BY_REASON.items():
    A = build()
    cert = certify(A)
    assert (cert.verdict, cert.reason) == (PROPER, reason)
    back = _json_round_trip(cert)
    assert verify_certificate(A, cert) and verify_certificate(A, back)
    for source in (cert, back):
      if reason == "escape-chain-unsat" and source is cert:
        continue     # the in-memory chain is a report, edited through JSON
      for evidence in _edits(dict(source.evidence)):
        broken = replace(source, evidence=evidence)
        assert not verify_certificate(A, broken), (reason, evidence)
        assert not verify_certificate(A, _json_round_trip(broken))
  for reason in ("escape-chain-unsat", "no-escape-direction"):
    A = PROPER_BY_REASON[reason]()
    cert = certify(A)
    for evidence in ({}, {"note": "anything"}):
      assert not verify_certificate(A, replace(cert, evidence=evidence))
  A = PROPER_BY_REASON["kernel-in-gram-kernel"]()
  cert = certify(A)
  assert cert.evidence == {"kernel_dim": 0, "note": "matrix invertible"}
  assert not verify_certificate(
    A, replace(cert, evidence=dict(cert.evidence, kernel_dim=5)))


def test_full_support_corank1_refutations_verify_and_replay():
  # kernel lines with no zero coordinate that reach the escape check and
  # are refuted by a simple recipe, past every screen
  for s in ESCAPE_DIRECTION_SEEDS:
    A = planted_pattern(random.Random(s), 3 + s % 2)
    cert = certify(A)
    assert (cert.verdict, cert.reason) == (NONPROPER, "escape-direction"), s
    assert cert.audit[1:5] == tuple(sufficient_screens(A)[1])
    back = _json_round_trip(cert)
    assert verify_certificate(A, back)
    recipe = back.witness()
    assert recipe.kind == "simple" and validate_witness(A, recipe).passed
    # u + e_j breaks A u = -x_inf by column j of A, which is not zero
    for j in range(A.m):
      e_j = RatVector.of([int(i == j) for i in range(A.m)])
      bumped = replace(recipe, u=recipe.u + e_j)
      assert not validate_witness(A, bumped).invariant_ok, (s, j)
      assert not verify_certificate(
        A, replace(back, evidence=dict(back.evidence, recipe=bumped)))


def test_verify_certificate_rejects_another_power():
  # the reasons argue about x + (Ax)^3, and a recipe about its own k
  A = golden_3x3()
  nonproper = certify(A)
  assert nonproper.verdict == NONPROPER and nonproper.witness().k == 3
  B = RatMatrix.of([[1, 2], [2, 1]])
  proper = certify(B)
  assert proper.verdict == PROPER
  for M, cert, k in ((A, nonproper, 5), (B, proper, 2)):
    assert verify_certificate(M, _json_round_trip(cert))
    assert not verify_certificate(M, replace(cert, k=k)), (cert.reason, k)
    assert not verify_certificate(M, _json_round_trip(replace(cert, k=k)))


def test_verify_certificate_rejects_evidence_of_another_size():
  A = golden_3x3()
  singular = RatMatrix.identity(3).scale(-1)
  linear = k1_properness(singular)
  assert verify_certificate(singular, linear)
  long_z = RatVector.of([*linear.evidence["kernel_vector"].entries, 1])
  assert not verify_certificate(
    singular, replace(linear, evidence=dict(linear.evidence,
                                            kernel_vector=long_z)))
  cert = certify(A)
  recipe = cert.witness()
  short = replace(recipe, x_inf=RatVector.of(recipe.x_inf.entries[:2]),
                  u=RatVector.of(recipe.u.entries[:2]))
  framed = replace(recipe, frame=ConjugationFrame(perm=(1, 0), diag=(1, 1)))
  for bad in (short, framed):
    broken = replace(cert, evidence=dict(cert.evidence, recipe=bad))
    assert not verify_certificate(A, broken)
    assert not verify_certificate(A, _json_round_trip(broken))


# sha256 over the certificate JSON of planted_pattern(Random(s), 3 + s % 2)
# for s = 0..299, which reach every escape-chain outcome.  A "-numeric"
# recipe holds entries rounded from LAPACK floats, so it is left out.  Any
# changed byte changes the digest: move it only with a deliberate change
# of verdicts or of the certificate format.
PLANTED_CERTIFICATES_SHA256 = (
  "ada246686253b14ed9b82ae90805007e04bc97e03f25df1b65f7565e213f1394")


def test_planted_certificate_bytes_are_pinned():
  digest = hashlib.sha256()
  chain_reasons = set()
  for s in range(300):
    cert = certify(planted_pattern(random.Random(s), 3 + s % 2))
    obj = certificate_to_json(cert)
    if cert.reason.endswith("-numeric"):
      del obj["evidence"]["recipe"]
    digest.update(dumps(obj).encode())
    if "chain" in cert.evidence:
      chain_reasons.add(cert.reason)
  assert chain_reasons == {"escape-chain", "escape-chain-unsat",
                           "escape-chain-numeric",
                           "outside-decidable-screens"}
  assert digest.hexdigest() == PLANTED_CERTIFICATES_SHA256


# the sha256 of the certificate JSON texts of sample_rank_r at the five
# corank >= 2 strata m/r = 4/2, 5/3, 6/3, 6/4, 8/4, seeds 0-59 each, in
# that order; it moves only with a change of verdicts or of the format
RANK_SAMPLE_CERTIFICATES_SHA256 = (
  "ed655f43972cffbc7c7e79ada4fc630202e10778fe0938211fdb5fb8e9e9e7fc")


def test_rank_sample_certificate_bytes_are_pinned():
  digest = hashlib.sha256()
  for m, r in ((4, 2), (5, 3), (6, 3), (6, 4), (8, 4)):
    for s in range(60):
      cert = certify(sample_rank_r(m, r, seed=s))
      digest.update(dumps(certificate_to_json(cert)).encode())
  assert digest.hexdigest() == RANK_SAMPLE_CERTIFICATES_SHA256


# the sha256 of the certificate JSON texts of family_member(Random(s)) for
# s = 0..99, then two_class_kernel(Random(s)) for s = 0..199: matrices with
# Fraction entries, which the planted and rank-sample digests never parse.
# Most are corank 1, but 34 two_class_kernel draws are corank 2 and end in
# the corank >= 2 sweep, whose audit entries the digest pins too.  None
# reaches a float chain, so every recipe is pinned.
FRACTION_CORANK1_CERTIFICATES_SHA256 = (
  "1cd34558b7f95956264f3d4a95ce81565a157b1882d90384c5f051b605b57786")


def test_fraction_corank1_certificate_bytes_are_pinned():
  digest = hashlib.sha256()
  reasons = set()
  matrices = ([family_member(random.Random(s)) for s in range(100)]
              + [two_class_kernel(random.Random(s)) for s in range(200)])
  for A in matrices:
    cert = certify(A)
    reasons.add(cert.reason)
    text = dumps(certificate_to_json(cert))
    digest.update(text.encode())
    if cert.decided:
      back = certificate_from_json(json.loads(text))
      assert verify_certificate(A, back), text
  assert reasons == {"escape-direction", "escape-direction-numeric",
                     "outside-decidable-screens"}
  assert digest.hexdigest() == FRACTION_CORANK1_CERTIFICATES_SHA256


def test_linear_case_regression():
  for A, expected in ((golden_3x3(), (PROPER, "linear-map-invertible")),
                      (RatMatrix.identity(2).scale(-1),
                       (NONPROPER, "linear-map-singular"))):
    cert = k1_properness(A)
    assert (cert.verdict, cert.reason) == expected
    assert verify_certificate(A, cert)


def _package_imports(module):
  """(source module, name) for every import in a module of the package; the
  source of `from . import certify` is certify itself."""
  package = Path(certify_module.__file__).parent
  tree = ast.parse((package / f"{module}.py").read_text())
  for node in ast.walk(tree):
    if isinstance(node, ast.ImportFrom):
      source = (node.module or "").removeprefix("propermap").lstrip(".")
      for a in node.names:
        yield source or a.name, a.name
    elif isinstance(node, ast.Import):
      for a in node.names:
        yield a.name.removeprefix("propermap."), None


def test_certify_and_witness_share_no_private_names():
  # certify uses witness's public names only, and witness imports nothing
  # from certify, so the two modules never import each other
  private = [name for source, name in _package_imports("certify")
             if source == "witness" and name.startswith("_")]
  assert not private
  assert "witness" in {source for source, _ in _package_imports("certify")}
  assert "certify" not in {source for source, _ in _package_imports("witness")}


def test_every_private_module_name_is_named_elsewhere_in_src():
  # a module-level _function or _Class that no other line of the package
  # names is dead code
  package = Path(certify_module.__file__).parent
  defined, named = [], set()
  for path in sorted(package.glob("*.py")):
    tree = ast.parse(path.read_text())
    defined += [(path.name, node.name) for node in tree.body
                if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                and node.name.startswith("_")
                and not node.name.startswith("__")]
    for node in ast.walk(tree):
      if isinstance(node, ast.Name):
        named.add(node.id)
      elif isinstance(node, ast.Attribute):
        named.add(node.attr)
      elif isinstance(node, ast.alias):
        named.add(node.name)
  assert len(defined) > 20
  assert [d for d in defined if d[1] not in named] == []


def test_screens_decide_without_the_escape_search(monkeypatch):
  def refuse(A):
    raise AssertionError("escape search ran although a screen fires")
  monkeypatch.setattr(certify_module, "necessary_escape_search", refuse)
  for name in ("identity-3", "zero-3", "symmetric-4", "antisymmetric-4",
               "rank-one-2", "shift-5x5", "lower-3", "ones-kernel-4"):
    build, expected = REGRESSION[name]
    cert = certify(build())
    assert (cert.verdict, cert.reason) == expected
    assert cert.audit[0].step == "escape-search"
    assert cert.audit[0].outcome == "skipped"


def _assert_gram_identities(A):
  """Im(A A^T) = Im A, and the screen's A^T k test agrees with A A^T k."""
  G = A.gram()
  an = Analysis(A)
  assert an.image == image_basis(G)
  assert an.rank == image_basis(G).dim
  gram_test = all(G.apply(k).is_zero() for k in an.kernel.basis)
  assert certify_module._kernel_in_gram_kernel(an) == gram_test


@pytest.mark.parametrize("m", range(1, 7))
def test_gram_identities_on_every_rank(m):
  rng = random.Random(100 + m)
  for r in range(m + 1):
    for _ in range(3):
      A = rand_rat_rank(rng, m, r)
      _assert_gram_identities(A)
      # symmetric, so its kernel lies in the Gram kernel: the screen fires
      G = A.gram()
      _assert_gram_identities(G)
      assert certify_module._kernel_in_gram_kernel(Analysis(G))


def test_gram_identities_on_normalized_conjugates():
  rng = random.Random(11)
  cube_roots = [Fraction(n, d) for n in (-3, -2, -1, 1, 2, 3) for d in (1, 2, 3)]
  for _ in range(12):
    A0 = planted_pattern(rng, rng.choice([3, 4, 5]))
    pattern = primitive_integer_vector(kernel_basis(A0).basis[0])
    c = RatVector.of([rng.choice(cube_roots) for _ in range(A0.m)])
    w = hprod(hpow(c, 3), pattern)
    # A0 diag(c^3)^-1 has the kernel vector diag(c^3) pattern = w
    A = A0.matmul(RatMatrix.diagonal([1 / x ** 3 for x in c]))
    nk = normalize_kernel_direction(A, w)
    _assert_gram_identities(A)
    _assert_gram_identities(nk.matrix)


def test_decisions_never_form_the_gram_matrix(monkeypatch):
  def refuse(self):
    raise AssertionError("the Gram matrix A A^T was formed")
  monkeypatch.setattr(RatMatrix, "gram", refuse)
  for name, (build, expected) in sorted(REGRESSION.items()):
    A = build()
    cert = certify(A)
    assert (cert.verdict, cert.reason) == expected, name
    if cert.decided:
      back = certificate_from_json(json.loads(dumps(certificate_to_json(cert))))
      assert verify_certificate(A, back), name


def test_kernel_is_enumerated_at_most_once_per_certify(monkeypatch):
  calls = []
  integer_columns = certify_module._integer_columns

  def counting(space):
    calls.append(list(space.basis))
    return integer_columns(space)
  monkeypatch.setattr(certify_module, "_integer_columns", counting)
  for name in ("two-patterns-2004", "two-patterns-2176", "two-patterns-2247",
               "rank-6-3-1"):
    A = REGRESSION[name][0]()
    kernel = list(kernel_basis(A).basis)
    calls.clear()
    cert = certify(A)
    assert (cert.verdict, cert.reason) == REGRESSION[name][1]
    assert sum(basis == kernel for basis in calls) == 1, name


def _rank_samples():
  for m, r in ((4, 2), (5, 3), (6, 3), (6, 4), (8, 4)):
    for s in range(30):
      yield sample_rank_r(m, r, seed=s)


def test_sweep_never_decides_a_direction_outside_the_image(monkeypatch):
  real = certify_module._decide_direction
  decided = []

  def recording(an, y):
    decided.append(an.image.contains(y))
    return real(an, y)
  monkeypatch.setattr(certify_module, "_decide_direction", recording)
  outside = unread = swept = 0
  matrices = itertools.chain(
    _rank_samples(),
    (two_pattern_kernel(random.Random(s)) for s in range(10000, 10200)))
  for A in matrices:
    an = Analysis(A)
    if not an.cube_root_directions:
      # the bounded search has nothing to test, so it never needs Im A
      search = necessary_escape_search(an)
      assert search.candidate is None and not search.none_is_proof
      assert "image" not in an.__dict__
      unread += 1
    decided.clear()
    certify(A)
    assert all(decided), A
    swept += len(decided)
    for y in an.cube_root_directions:
      if an.image.contains(y) or all(y):
        continue
      # only verify_certificate can pass such a direction: it is brought
      # to a 0/1 pattern, and the chain fails at its first membership
      for d in (y, y.scale(2)):
        got = real(an, d)
        assert (got.verdict, got.reason) == (PROPER, "escape-chain-unsat")
        assert got.evidence["chain"].failure == \
          "x_inf is not in the reduced subspace"
        outside += 1
  assert outside > 0 and unread > 0 and swept > 0


# a non-integer basis whose entries need more than 64 bits
BIG_BASIS = [[Fraction(2 ** 64 + 3, 7), 0, Fraction(-5, 2 ** 65 + 1), 1, 0],
             [1, Fraction(3 ** 50, 11), 0, 2, Fraction(-1, 2)],
             [0, Fraction(1, 3), Fraction(2 ** 70, 9), -1, 2 ** 80]]


def _big_subspace() -> Subspace:
  space = Subspace.span([RatVector.of(row) for row in BIG_BASIS], 5)
  assert space.dim == 3
  assert max(max(abs(a.numerator), a.denominator)
             for b in space.basis for a in b) > 2 ** 64
  return space


def _wrapping_subspace(dim: int, free: int) -> Subspace:
  """The canonical basis e_j + free * e_dim (j < dim) of R^(dim + 1)."""
  basis = [RatVector.of([int(i == j) for i in range(dim)] + [free])
           for j in range(dim)]
  space = Subspace.span(basis, dim + 1)
  assert list(space.basis) == basis
  return space


def _reference_directions(space: Subspace) -> list[RatVector]:
  """The oracle for `Analysis.cube_root_directions`: the reference
  directions of the first 1600 reference candidates, every candidate
  tested, sorted stably by (-support, sum of |y|) and cut to 400."""
  table = box_coefficient_table(space.dim)
  found = reference_kernel_directions(space.basis, table, 1600)
  found.sort(key=lambda v: (-len(v.support()),
                            sum(abs(x) for x in v.entries)))
  return found[:400]


def test_integer_candidate_enumeration_matches_rational_reference():
  # kernel dims 1 to 6: dims 1-4 take the full product box, 5 and 6 the
  # pairs and signs
  spaces = [kernel_basis(sample_rank_r(m, r, seed=seed))
            for seed, (m, r) in enumerate([(4, 3), (4, 2), (5, 3), (6, 3),
                                           (6, 4), (5, 2), (8, 4), (8, 3),
                                           (8, 2)])]
  assert [s.dim for s in spaces] == [1, 2, 2, 3, 2, 3, 4, 5, 6]
  # large integer combinations: c = (1, 1, 1, 1) on the first sums to
  # 2^64 at the last coordinate, c = (1, 1, 1) on the second to 1.5 * 2^62;
  # BIG_BASIS has entries past 2^64
  spaces += [_wrapping_subspace(4, 2 ** 62), _wrapping_subspace(3, 2 ** 61)]
  spaces.append(_big_subspace())
  for space in spaces:
    an = Analysis(_matrix_with_kernel(space))
    assert list(an.cube_root_directions) == _reference_directions(space)


def _matrix_with_kernel(space: Subspace) -> RatMatrix:
  """A square matrix whose kernel is `space`: the rows span its orthogonal
  complement, padded with zero rows."""
  m = space.ambient_dim
  rows = [b.entries for b in orthogonal_complement(space).basis]
  A = RatMatrix.of(rows + [[0] * m] * (m - len(rows)))
  assert kernel_basis(A) == space
  return A


def _planted_cube_subspace(rng: random.Random, dim: int, m: int) -> Subspace:
  """A canonical basis e_j + (free entries in {-1, 0, 1, 7}): many +-1
  combinations have free entries 0, +-1 or +-8, so their cube roots are
  rational, and many others are not."""
  basis = []
  for j in range(dim):
    row = [0] * m
    row[j] = 1
    for f in range(dim, m):
      row[f] = rng.choice([-1, 0, 0, 1, 1, 7])
    basis.append(RatVector.of(row))
  return Subspace.span(basis, m)


def test_kernel_directions_match_the_full_reference_sweep():
  rng = random.Random(9)
  spaces = [kernel_basis(sample_rank_r(m, 2, seed=m)) for m in range(4, 9)]
  spaces += [_planted_cube_subspace(rng, dim, dim + 3) for dim in range(2, 7)]
  spaces += [kernel_basis(RatMatrix.zero(dim, dim)) for dim in range(2, 7)]
  spaces += [kernel_basis(two_pattern_kernel(random.Random(s)))
             for s in (2000, 2004)]
  spaces.append(_big_subspace())
  # kernel dims 2-4 take the full box, 5 and 6 the pairs and signs
  assert {s.dim for s in spaces} == {2, 3, 4, 5, 6}
  hits = 0
  for space in spaces:
    A = _matrix_with_kernel(space)
    want = _reference_directions(space)
    hits += len(want)
    assert kernel_cuberoot_candidates(A) == want
  assert hits > 100


def _planted_escape_matrix(seed: int) -> tuple[RatMatrix, RatVector]:
  """A = B C with kernel of dimension 4 in R^7, canonical basis e_j + free
  entries in {-1, 0, 1, 7}: the rows of C span the orthogonal complement of
  the kernel, and B's first column is the rational cube-root direction of
  the +-1 kernel combination with the smallest support, so it lies in the
  image.  The other columns of B are random, so no other direction does."""
  rng = random.Random(seed)
  space = _planted_cube_subspace(rng, 4, 7)
  y = None
  for c in itertools.product((-1, 0, 1), repeat=4):
    if any(c):
      w = [sum(cj * b[i] for cj, b in zip(c, space.basis)) for i in range(7)]
      d = naive_cube_direction(w)
      if d is not None and (y is None or len(d.support()) < len(y.support())):
        y = d
  assert y is not None and len(y.support()) <= 3
  C = RatMatrix.of([b.entries for b in orthogonal_complement(space).basis])
  B = RatMatrix.of([[y[i], rng.randint(-3, 3), rng.randint(-3, 3)]
                    for i in range(7)])
  A = B.matmul(C)
  assert kernel_basis(A) == space
  return A, y


@pytest.mark.parametrize("seed", range(4))
def test_escape_search_and_sweep_read_one_horizon(seed):
  # the low-support direction sits late among the 40 tuples of the dim-4
  # table; the escape search must reach every direction the sweep does
  A, y = _planted_escape_matrix(seed)
  s = necessary_escape_search(A)
  assert s.candidate is not None
  assert s.image_vector == y == A.apply(s.candidate)
  assert s.image_vector in kernel_cuberoot_candidates(A)


def _disjoint_cube_matrix(rng: random.Random, d: int
                          ) -> tuple[RatMatrix, Subspace]:
  """A matrix of size 10 whose kernel has a basis of d + 1 vectors on
  disjoint blocks of one or two coordinates, each entry a cube, and whose
  image meets the span of their cube roots in the span of d independent
  +-1 combinations of those roots.  Returns A and that meet."""
  m, at, roots = 10, 0, []
  for _ in range(d + 1):
    size = rng.choice([1, 2])
    root = [0] * m
    for i in range(at, at + size):
      root[i] = rng.choice([-1, 1, 2])
    roots.append(RatVector.of(root))
    at += size
  kernel = Subspace.span([hpow(r, 3) for r in roots], m)
  C = RatMatrix.of([b.entries for b in orthogonal_complement(kernel).basis])
  while True:
    combos = [sum((r.scale(Fraction(rng.choice([-1, 0, 1]))) for r in roots),
                  RatVector.zero(m)) for _ in range(d)]
    B = RatMatrix(tuple(
      tuple(v[i] for v in combos) + tuple(Fraction(rng.randint(-3, 3))
                                          for _ in range(m - 2 * d - 1))
      for i in range(m)))
    A = B.matmul(C)
    if (Subspace.span(combos, m).dim == d
        and kernel_basis(A) == kernel):
      break
  meet = intersect(Subspace.span(roots, m), Analysis(A).image)
  assert meet == Subspace.span(combos, m)
  return A, meet


def test_disjoint_support_pick_is_the_widest_reference_candidate():
  rng = random.Random(60)
  cancelled = 0
  # fewer meets of dim 4: the oracle forms all 1120 tuples in Fractions
  for d, count in ((2, 8), (3, 8), (4, 3)):
    for _ in range(count):
      A, meet = _disjoint_cube_matrix(rng, d)
      s = necessary_escape_search(A)
      assert s.none_is_proof and s.note == "candidate found"
      want = reference_candidates(meet.basis,
                                  certify_module._unit_tuples(d))[0]
      assert rank(RatMatrix((s.image_vector.entries, want.entries))) == 1
      assert s.image_vector == A.apply(s.candidate)
      # the whole coefficient box widens the pick no further
      box = reference_candidates(meet.basis, box_coefficient_table(d))[0]
      assert s.image_vector.support() == box.support()
      ones = sum(meet.basis, RatVector.zero(meet.ambient_dim))
      cancelled += len(ones.support()) < len(want.support())
  # some meets lose support in the all-ones combination, so the pick is
  # not always the first tuple of the table
  assert cancelled >= 2


@pytest.mark.parametrize("seed", range(4))
def test_cube_line_test_sees_only_unit_coefficient_tuples(monkeypatch, seed):
  seen = []
  cube_line = certify_module._cube_line

  def recording(c, free, scale2):
    seen.append(c)
    return cube_line(c, free, scale2)
  monkeypatch.setattr(certify_module, "_cube_line", recording)
  certify(sample_rank_r(8, 4, seed=seed))
  assert seen
  for c in seen:
    assert {abs(x) for x in c} - {0} == {1}, c


_small_rationals = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 6))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_analysis_image_reads_the_pivot_columns(data):
  m = data.draw(st.integers(1, 6), label="m")
  r = data.draw(st.integers(0, m), label="r")
  # A = B C with the identity at r drawn rows of B and r drawn columns of
  # C has rank exactly r; row i is then scaled by a fraction over i + 2,
  # so the rows carry different denominators
  rows_at = data.draw(st.permutations(range(m)), label="rows")[:r]
  cols_at = data.draw(st.permutations(range(m)), label="cols")[:r]
  B = [[Fraction(int(rows_at.index(i) == t)) if i in rows_at
        else data.draw(_small_rationals) for t in range(r)] for i in range(m)]
  C = [[Fraction(int(cols_at.index(j) == t)) if j in cols_at
        else data.draw(_small_rationals) for j in range(m)] for t in range(r)]
  scales = [Fraction(data.draw(st.sampled_from([-3, -1, 1, 2, 5])), i + 2)
            for i in range(m)]
  A = RatMatrix(tuple(
      tuple(s * sum((B[i][t] * C[t][j] for t in range(r)), Fraction(0))
            for j in range(m)) for i, s in enumerate(scales)))
  an = Analysis(A)
  assert an.rank == r
  assert an.image == image_basis(A)
  assert an.image.dim == r


def test_analysis_caches_on_its_own_object_and_stays_frozen():
  A = RatMatrix.of(BLOCKED_DIRECTION)
  a, b = Analysis(A), Analysis(A)
  parts = ("kernel", "rank", "row_space", "image", "cube_root_directions")
  first = [getattr(a, name) for name in parts]
  assert all(getattr(a, name) is v for name, v in zip(parts, first))
  # reading a computed nothing for b, and b computes its own values
  assert vars(b) == {"A": A}
  assert b.kernel == a.kernel and b.kernel is not a.kernel
  assert b.image == a.image and b.image is not a.image
  for name in ("A", "kernel", "image"):
    with pytest.raises(FrozenInstanceError):
      setattr(a, name, None)
  assert a.kernel is first[0]


def test_certify_eliminates_each_kernel_once_per_analysis(monkeypatch):
  matrices = []
  # every kernel an Analysis reads is the complement of its row space
  real = certify_module.Analysis.row_space.func

  def counting(an):
    matrices.append(an.A)
    return real(an)
  monkeypatch.setattr(certify_module.Analysis.row_space, "func", counting)
  # the last has the kernel line (8, 1, 0) and (2, 1, 0) in its image,
  # so its direction is normalized
  samples = ([planted_pattern(random.Random(s), 3 + s % 2) for s in range(60)]
             + [golden_3x3(), shift_5x5(), sample_rank_r(6, 3, seed=1),
                RatMatrix.of([[2, -16, 0], [1, -8, 0], [0, 0, 1]])])
  normalized = rechecked = 0
  for A in samples:
    matrices.clear()
    cert = certify(A)
    # one Analysis of A, plus one per normalized direction, each of its
    # own matrix: no matrix is eliminated twice
    assert sum(M is A for M in matrices) == 1
    assert len({id(M) for M in matrices}) == len(matrices)
    normalized += len(matrices) - 1
    before = len(matrices)
    assert verify_certificate(A, cert) == cert.decided
    if cert.verdict == PROPER and cert.reason != "triangular":
      # its recheck reads A's kernel from an Analysis of its own: nothing
      # is cached across calls
      assert sum(M is A for M in matrices[before:]) == 1
      rechecked += 1
  assert normalized > 0 and rechecked > 0


def test_elimination_budget_of_a_request(monkeypatch):
  # the integer eliminations of certify + JSON round trip + verify, as a
  # bench request runs them; the escape search solves the preimage of its
  # direction only when `candidate` is read, which no decision does
  calls = 0
  real = linalg_module.rref

  def counting(rows):
    nonlocal calls
    calls += 1
    return real(rows)
  monkeypatch.setattr(linalg_module, "rref", counting)
  monkeypatch.setattr(certify_module, "rref", counting)
  budget = {"golden_3x3": (golden_3x3(), "escape-direction", 6),
            "no-escape": (planted_pattern(random.Random(2), 3),
                          "no-escape-direction", 6),
            "blocked": (planted_pattern(random.Random(0), 3),
                        "kernel-line-blocked", 8)}
  for name, (A, reason, want) in budget.items():
    calls = 0
    cert = certify(A)
    assert cert.reason == reason
    assert verify_certificate(A, _json_round_trip(cert))
    assert calls == want, (name, calls)
  # reading the candidate solves it then, once
  search = necessary_escape_search(golden_3x3())
  calls = 0
  assert search.candidate is search.candidate is not None
  assert calls == 1
  # the matrix and row space it keeps for that take no part in eq or repr
  again = necessary_escape_search(golden_3x3())
  assert again == search and repr(again) == repr(search)
  assert "RatMatrix" not in repr(search)


def test_candidate_box_stays_below_the_first_cube_ratio():
  # a ratio a / b of coefficients with |a|, b <= 7 is a rational cube only
  # when |a| = b, so a primitive tuple with entries below 8 has a rational
  # direction only when its nonzero entries are +-1
  for a in range(-7, 8):
    for b in range(1, 8):
      if a != 0:
        assert (rational_cube_root_direction((b, a)) is not None) == \
            (abs(a) == b)
  # at 8, c = (1, 8) on two unit vectors would have a rational direction
  assert rational_cube_root_direction((1, 8)) == RatVector.of([1, 2])


def test_coefficient_table_is_one_fixed_tuple():
  tables = [certify_module._unit_tuples(dim) for dim in range(1, 7)]
  assert all(isinstance(t, tuple) for t in tables)
  # dims 1-4 take every +-1 tuple, dims 5 and 6 the pairs and signs
  assert [len(t) for t in tables] == [1, 4, 13, 40, 41, 68]
  assert certify_module._unit_tuples(4) is tables[3]
  # the +-1 rows of the reference box, in its order
  for dim in range(1, 11):
    assert list(certify_module._unit_tuples(dim)) == [
      c for c in box_coefficient_table(dim) if max(map(abs, c)) == 1]


def test_kernel_cuberoot_candidates_are_pairwise_non_parallel():
  for A in (RatMatrix.zero(3, 3), sample_rank_r(8, 3, seed=10),
            two_pattern_kernel(random.Random(2000))):
    found = kernel_cuberoot_candidates(A)
    assert len(found) >= 2
    for i, y in enumerate(found):
      assert A.apply(hpow(y, 3)).is_zero()
      for z in found[:i]:
        assert rank(RatMatrix((y.entries, z.entries))) == 2


def test_huge_kernel_entry_is_decided_exactly():
  # kernel line (N, 1, 1) with N far beyond float range: the cube-ratio
  # tests take integer roots of N and must not overflow
  N = 10 ** 320
  A = RatMatrix.of([[1, 2 - N, -2], [2, 1 - 2 * N, -1], [0, 5, -5]])
  assert kernel_basis(A).dim == 1
  assert A.apply(RatVector.of([N, 1, 1])).is_zero()
  cert = certify(A)
  assert (cert.verdict, cert.reason) == (PROPER, "no-escape-direction")
  back = certificate_from_json(json.loads(dumps(certificate_to_json(cert))))
  assert verify_certificate(A, back)


# kernel spanned by (1,2,0,0,0,0) and (0,0,1,3,0,0): no kernel vector has a
# rational cube root, while every cube root lies in the image e1..e4
IRRATIONAL_KERNEL_PLANE = [[-2, 1, -6, 2, 1, 1], [-4, 2, -6, 2, -1, -1],
                           [-4, 2, -3, 1, 2, -1], [4, -2, -3, 1, 0, -1],
                           [0] * 6, [0] * 6]


def test_bounded_search_that_finds_nothing_ends_with_the_base_note():
  base = "bounded search over rational directions found nothing"
  for A in (RatMatrix.of(IRRATIONAL_KERNEL_PLANE), sample_rank_r(6, 3, seed=1)):
    search = necessary_escape_search(A)
    assert (search.candidate, search.none_is_proof, search.note) == \
        (None, False, base)
  cert = certify(RatMatrix.of(IRRATIONAL_KERNEL_PLANE))
  assert (cert.verdict, cert.reason) == (UNDECIDED, "outside-decidable-screens")
  assert cert.audit[0] == AuditEntry("escape-search", "nothing found", base)


def test_corank1_irrational_kernel_line_avoiding_the_image_is_proper():
  # kernel line (1, 2, 0): the classes (1, 0, 0) and (0, 1, 0) of its cube
  # root (1, 2^(1/3), 0) do not both lie in the image span((1,0,1), (0,1,1)),
  # so the escape search proves that no direction escapes
  A = RatMatrix.of([[-2, 1, 0], [0, 0, 1], [-2, 1, 1]])
  assert kernel_basis(A).rows == ((1, 2, 0),)
  for cert in (certify(A), corank1_decide(A)):
    assert (cert.verdict, cert.reason) == (PROPER, "no-escape-direction")
    assert verify_certificate(A, _json_round_trip(cert))
  # the line has no rational cube-root direction for a blocking argument
  blocked = replace(cert, reason="kernel-line-blocked",
                    evidence={"generator": RatVector.of([1, 2, 0]),
                              "failed": "direction not in reduced subspace"})
  assert not verify_certificate(A, _json_round_trip(blocked))
  # the same line inside the image {x3 = 0} is not blocked
  inside = RatMatrix.of([[-2, 1, 0], [0, 0, 1], [0, 0, 0]])
  assert corank1_decide(inside).reason != "kernel-line-blocked"
  for c in (cert, blocked):
    assert not verify_certificate(inside, replace(c, matrix=inside))


def test_corank1_decide_is_certify_after_the_screens():
  # a direct call gives certify's certificate less the screens' entries
  rng = random.Random(47)
  matrices = ([planted_pattern(random.Random(s), 3 + s % 2)
               for s in range(300)]
              + [ones_kernel_sample(rng, rng.choice([3, 4]))
                 for _ in range(60)]
              + [two_class_kernel(random.Random(s)) for s in range(60)]
              + [family_member(random.Random(s)) for s in range(20)])
  reasons = set()
  for A in matrices:
    if Analysis(A).kernel.dim != 1:
      continue
    cert = certify(A)
    if cert.audit[0].outcome == "skipped":
      continue
    unscreened = tuple(a for a in cert.audit
                       if not a.step.startswith("screen:"))
    assert corank1_decide(A) == replace(cert, audit=unscreened)
    reasons.add(cert.reason)
  assert reasons == {"no-escape-direction", "escape-direction",
                     "escape-chain", "escape-chain-unsat",
                     "escape-chain-numeric", "outside-decidable-screens"}


def test_exact_certify_does_not_import_numpy():
  # a fresh interpreter: certify and verify on the exact paths only
  code = """
import sys
from propermap.certify import certify, verify_certificate
from propermap.forge import golden_3x3, sample_rank_r, shift_5x5
from propermap.linalg import RatMatrix
for A in (RatMatrix.identity(3), golden_3x3(), shift_5x5(),
          sample_rank_r(6, 3, seed=1), RatMatrix.of(%r)):
  cert = certify(A)
  assert verify_certificate(A, cert) == cert.decided, cert.reason
assert "numpy" not in sys.modules, "numpy was imported"
""" % (IRRATIONAL_KERNEL_PLANE,)
  done = subprocess.run([sys.executable, "-c", code], env=src_env(),
                        capture_output=True, text=True, timeout=120)
  assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("name", ["planted-70", "two-patterns-2176"])
def test_escape_chain_end_to_end(name):
  A = REGRESSION[name][0]()
  cert = certify(A)
  assert (cert.verdict, cert.reason) == (NONPROPER, "escape-chain")
  back = certificate_from_json(json.loads(dumps(certificate_to_json(cert))))
  assert verify_certificate(A, back)

  recipe = back.witness()
  assert recipe.frame is None
  # an escape point z of x + A(x^3) lies in Im(A), and x = -z^3 + b with
  # A b = z + A(z^3) has Ax = z, so F(x) = x + (Ax)^3 = b: F stays bounded
  # while |x| grows like gamma^3.  Points are rebuilt in exact arithmetic
  # at gamma = t^3 so that gamma^(1/3) = t.
  zero = RatVector.zero(A.m)
  r, v, v1 = (w if w is not None else zero
              for w in (recipe.u_hat_root, recipe.v, recipe.v1))
  rowspace = image_basis(A.transpose())
  sizes = []
  for t in (Fraction(10), Fraction(100)):
    gamma = t ** 3
    z = RatVector.of([
      gamma * recipe.x_inf[i]
      + (gamma * recipe.u1[i] + t * v1[i]) / (3 * gamma ** 2)
      + t * r[i] + (v[i] / (3 * t * r[i] ** 2) if r[i] else 0)
      for i in range(A.m)])
    approx = build_witness_point(recipe, float(gamma))
    assert all(abs(a - float(b)) <= 1e-9 * float(gamma)
               for a, b in zip(approx, z))
    b = solve_affine_in_subspace(A, f_hat_exact(A, z), rowspace)
    assert b is not None
    x = b - hpow(z, 3)
    assert A.apply(x) == z
    image = f_exact(A, x)
    assert image == b
    sizes.append((max(abs(c) for c in x), max(abs(c) for c in image)))
  (x_small, f_small), (x_large, f_large) = sizes
  assert x_large >= 10 ** 5 * x_small
  assert f_large <= f_small <= 1
