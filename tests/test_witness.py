"""Witness validation, the sphere-minimum probe, and the linear fast path."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from helpers import naive_det, ones_kernel_sample, rand_int_matrix, rows_of
from propermap.certify import NONPROPER, PROPER, certify, k1_properness
from propermap.forge import (
  Family3x3Params,
  forge_3x3,
  golden_3x3,
  sample_rank_r,
  shift_5x5,
)
from propermap.linalg import RatMatrix, RatVector
from propermap.recipes import WitnessRecipe, build_witness_point
from propermap.witness import (
  general_k_witness,
  probe_mu,
  validate_witness,
)

ONES = RatVector.of([1, 1, 1])
E1 = RatVector.of([1, 0, 0])


def test_golden_recipe_validates():
  A = golden_3x3()
  recipe = certify(A).witness()
  rep = validate_witness(A, recipe)
  assert rep.passed
  assert rep.invariant_ok
  assert not rep.rejected
  # the leading residual order cancels, leaving decay like 1/gamma
  assert rep.fitted_decay_exponent <= -0.8
  # points hug the escape ray: at gamma = 1e6 the norm is gamma * sqrt(3)
  expected = rep.gammas[-1] * math.sqrt(3.0)
  assert abs(rep.point_norms[-1] - expected) <= 0.01 * expected
  assert all(b > a for a, b in zip(rep.point_norms, rep.point_norms[1:]))
  assert rep.direction_errors[-1] <= rep.direction_errors[0]


def test_corrupted_recipe_fails_loudly():
  # perturbing u off the kernel breaks A u = -x_inf, and the residuals grow
  # linearly instead of decaying
  A = golden_3x3()
  bad = WitnessRecipe(kind="simple", x_inf=ONES, u=RatVector.of([1, 1, 0]))
  rep = validate_witness(A, bad)
  assert not rep.passed
  assert not rep.invariant_ok
  assert rep.note == "recipe equations do not hold"
  assert rep.fitted_decay_exponent >= 0.8


def test_fabricated_recipe_on_identity_is_refused():
  # A u = -x_inf holds but A(x_inf^3) = 0 does not: the identity is proper
  A = RatMatrix.identity(2)
  fake = WitnessRecipe(kind="simple", x_inf=RatVector.of([1, 1]),
                       u=RatVector.of([-1, -1]))
  rep = validate_witness(A, fake)
  assert not rep.invariant_ok
  assert not rep.passed


def test_zero_u_recipe_is_rejected_not_crashed():
  A = golden_3x3()
  rec = WitnessRecipe(kind="simple", x_inf=ONES, u=RatVector.of([0, 0, 0]))
  with pytest.raises(ValueError, match="u = 0"):
    build_witness_point(rec, 10.0)
  rep = validate_witness(A, rec)
  assert rep.rejected
  assert not rep.passed
  assert "rejected" in rep.note


def test_gamma_schedule_is_validated():
  A = golden_3x3()
  recipe = certify(A).witness()
  with pytest.raises(ValueError):
    validate_witness(A, recipe, gammas=(10.0,))
  with pytest.raises(ValueError):
    validate_witness(A, recipe, gammas=(-1.0, 10.0, 100.0))


def test_recipe_shape_errors():
  with pytest.raises(ValueError, match="kind"):
    WitnessRecipe(kind="mystery", x_inf=ONES, u=E1)
  with pytest.raises(ValueError, match="dimension"):
    WitnessRecipe(kind="simple", x_inf=ONES, u=RatVector.of([1, 0]))
  with pytest.raises(ValueError, match="positive"):
    build_witness_point(WitnessRecipe(kind="simple", x_inf=ONES, u=E1), -3.0)


def test_probe_identity_reports_growth():
  rep = probe_mu(RatMatrix.identity(3), seed=1)
  assert rep.classification == "GrowthObserved"
  assert rep.mu_values[-1] > rep.mu_values[0]


def test_probe_zero_matrix_reports_growth():
  # the map degenerates to x itself, so mu(r) = r exactly
  rep = probe_mu(RatMatrix.zero(2, 2), seed=1)
  assert rep.classification == "GrowthObserved"
  for r, mu in zip(rep.radii, rep.mu_values):
    assert mu == pytest.approx(r, rel=1e-6)


def test_probe_golden_sees_the_bounded_escape_curve():
  rep = probe_mu(golden_3x3(), seed=0)
  assert rep.classification == "BoundedObserved"
  assert min(rep.mu_values) < 10.0


def test_probe_agrees_with_blocked_kernel_verdict():
  A = RatMatrix.of([[1, -1], [1, -1]])
  assert certify(A).verdict == PROPER
  assert probe_mu(A, seed=0).classification == "GrowthObserved"


def test_probe_schedule_validation():
  A = RatMatrix.identity(2)
  with pytest.raises(ValueError):
    probe_mu(A, radii=(1.0, 2.0, 4.0))
  with pytest.raises(ValueError):
    probe_mu(A, radii=(1.0, 2.0, 2.0, 4.0))
  with pytest.raises(ValueError):
    probe_mu(A, radii=(-1.0, 1.0, 2.0, 4.0))


def test_probe_is_deterministic_for_a_seed():
  A = golden_3x3()
  r1 = probe_mu(A, seed=7)
  r2 = probe_mu(A, seed=7)
  assert r1.mu_values == r2.mu_values
  assert r1.classification == r2.classification
  assert r1.seed == 7


# mu_values recorded from the one-start-at-a-time descent this probe replaced;
# the batched descent rounds differently, so they agree to about 1e-11
RECORDED_MU = {
  ("golden", None): (
    0.18392219605285676, 0.16815514549980268, 0.14701746347357617,
    0.12464176660213173, 0.10341806443621947, 0.08453257423551973,
    0.0683943477130688, 0.05496177242534233, 0.04397085924213302,
    0.03508143966517061, 0.028160443718445123),
  ("golden", (1, 2, 4, 8)): (
    0.18392219605285676, 0.16815514549980268, 0.14701746347357617,
    0.12464176660213173),
  ("shift", None): (
    0.7595717054724644, 0.9761610838699526, 1.110169986077198,
    1.223691695463555, 1.3351784522495516, 1.4507257311079955,
    2.191490500758444, 2.440849750240511, 3.807719656884112,
    6.559573582366731, 6.445512151974779),
  ("shift", (1, 2, 4, 8)): (
    0.7595717054724644, 0.9761610838699526, 1.110169986077198,
    1.223691695463555),
  ("identity", None): (
    1.333333333333333, 4.666666666666666, 25.333333333333332,
    178.66666666666666, 1381.333333333333, 10954.666666666666,
    87445.33333333333, 699178.6666666666, 5592661.333333333,
    44739754.666666664, 357914965.3333333),
  ("identity", (1, 2, 4, 8)): (
    1.333333333333333, 4.666666666666666, 25.333333333333332,
    178.66666666666666),
}
PROBE_FIXTURES = {"golden": golden_3x3, "shift": shift_5x5,
                  "identity": lambda: RatMatrix.identity(3)}


@pytest.mark.parametrize("name,radii", list(RECORDED_MU),
                         ids=[f"{n}-{'default' if r is None else 'short'}"
                              for n, r in RECORDED_MU])
def test_probe_matches_recorded_values(name, radii):
  rep = probe_mu(PROBE_FIXTURES[name](), seed=0, radii=radii)
  assert rep.mu_values == pytest.approx(RECORDED_MU[(name, radii)], rel=1e-9)


# mu_values recorded from the probe that descended one sphere at a time (all
# starts of a sphere in one batch, then one loop per chained row); they cover
# a 2-dimensional kernel, the dense-circle starts of m = 2, and k = 2
RECORDED_MU_MORE = {
  ("ones4", 3, None): (
    0.23535274325606875, 1.0651427416229464, 2.5704877961475905,
    5.416092269527259, 11.233622915245656, 22.645442204753483,
    45.182418422555386, 90.27904086518521, 180.33058553951082,
    360.5536319203889, 720.6269075877447),
  ("ones4", 3, (1, 2, 4, 8)): (
    0.23535274325606875, 1.0651427416229464, 2.5704877961475905,
    5.416092269527259),
  ("family", 3, None): (
    0.10965503462592681, 0.08640556246467286, 0.06744306899609974,
    0.05273923483977552, 0.04140343617162391, 0.03261698257091545,
    0.02576066411453512, 0.020381038836890828, 0.016143385349045514,
    0.012796521363970359, 0.010148663653602185),
  ("family", 3, (1, 2, 4, 8)): (
    0.10965503462592681, 0.08640556246467286, 0.06744306899609974,
    0.05273923483977552),
  ("two", 3, None): (
    2.233309782232038, 12.573427937791287, 90.51852059269187,
    704.3741435702037, 5595.645576389329, 44686.57226151227,
    357335.4451183658, 2858369.3209034717, 22866326.100098036,
    182929351.87300402, 1463432301.1317115),
  ("two", 3, (1, 2, 4, 8)): (
    2.233309782232038, 12.573427937791287, 90.51852059269187,
    704.3741435702037),
  ("rank3of5", 3, None): (
    0.32518196995275944, 0.6854531922908914, 1.4156557542485648,
    2.888011129590853, 5.8476631951249445, 11.7857257837671,
    23.685446049466677, 47.51458879119845, 95.21027867382418,
    190.64877284450995, 381.5851131134832),
  ("rank3of5", 3, (1, 2, 4, 8)): (
    0.32518297795687856, 0.6854551191822538, 1.415659426417191,
    2.8880184049950963),
  ("golden", 2, None): (
    0.2006934783448773, 0.233471408438429, 0.26134578304652994,
    0.28412775038273874, 0.3021070830170613, 0.3158998284554528,
    0.3262521350922059, 0.3338957613002682, 0.33947153078794706,
    0.3435030800944908, 0.34640060047717597),
  ("golden", 2, (1, 2, 4, 8)): (
    0.2006934783448773, 0.233471408438429, 0.26134578304652994,
    0.28412775038273874),
}
MORE_FIXTURES = {
  "ones4": lambda: ones_kernel_sample(random.Random(11), 4),
  "family": lambda: forge_3x3(Family3x3Params.from_free(1, 2, 1, -1)),
  "two": lambda: RatMatrix.of([[2, 1], [-1, 1]]),
  "rank3of5": lambda: sample_rank_r(5, 3, seed=2),
  "golden": golden_3x3,
}


@pytest.mark.parametrize("name,k,radii", list(RECORDED_MU_MORE),
                         ids=[f"{n}-k{k}-{'default' if r is None else 'short'}"
                              for n, k, r in RECORDED_MU_MORE])
def test_probe_matches_more_recorded_values(name, k, radii):
  rep = probe_mu(MORE_FIXTURES[name](), k=k, seed=0, radii=radii)
  assert rep.mu_values == pytest.approx(RECORDED_MU_MORE[(name, k, radii)],
                                        rel=1e-9)


def test_probe_classifications_match_recorded_ones_kernel_samples():
  rng = random.Random(404)
  classes = [probe_mu(ones_kernel_sample(rng, rng.choice([3, 4])),
                      seed=i).classification for i in range(20)]
  assert classes == ["GrowthObserved"] * 20


def _sigma_min(M: RatMatrix) -> float:
  rows = [[float(M.entry(i, j)) for j in range(M.m)] for i in range(M.m)]
  return float(np.linalg.svd(np.array(rows), compute_uv=False)[-1])


@pytest.mark.parametrize("A,k", [
  (RatMatrix.of([[-1]]), 3),          # m = 1: the sphere is two points
  (RatMatrix.of([[0]]), 3),           # m = 1 with a kernel start
  (shift_5x5(), 3),                   # m = 5: no dense starts
  (golden_3x3(), 1),                  # (Ax)^(k-1) is all ones
  (shift_5x5(), 1),
  (golden_3x3(), 2),
  (RatMatrix.of([[1, -1], [1, -1]]), 2),
], ids=["m1", "m1-kernel", "m5", "k1-golden", "k1-shift", "k2-golden",
        "k2-m2"])
def test_probe_batch_shapes(A, k):
  radii = (1.0, 2.0, 4.0, 8.0)
  rep = probe_mu(A, k=k, seed=5, radii=radii)
  assert rep.classification in ("GrowthObserved", "BoundedObserved",
                                "Inconclusive")
  assert len(rep.mu_values) == len(radii)
  assert probe_mu(A, k=k, seed=5, radii=radii).mu_values == rep.mu_values
  if A.m == 1:
    # the two points +-r give |r + a^3 r^3| exactly
    a = float(A.entry(0, 0))
    assert rep.mu_values == pytest.approx([abs(r + a ** 3 * r ** 3)
                                           for r in radii], rel=1e-12)
  if k == 1:
    # x + Ax is linear, so mu(r) = r * sigma_min(I + A)
    s = _sigma_min(RatMatrix.identity(A.m).add(A))
    assert rep.mu_values == pytest.approx([r * s for r in radii], rel=1e-9)


def test_linear_case_zero_matrix():
  cert = k1_properness(RatMatrix.zero(3, 3))
  assert cert.verdict == PROPER
  assert cert.evidence["determinant"] == 1


def test_linear_case_negated_identity():
  A = RatMatrix.identity(2).scale(Fraction(-1))
  cert = k1_properness(A)
  assert cert.verdict == NONPROPER
  z = cert.evidence["kernel_vector"]
  assert not z.is_zero()
  assert RatMatrix.identity(2).add(A).apply(z).is_zero()


def test_linear_case_nilpotent_is_proper():
  cert = k1_properness(RatMatrix.of([[0, 1], [0, 0]]))
  assert cert.verdict == PROPER
  assert cert.evidence["determinant"] == 1


def test_linear_case_against_determinant_oracle():
  rng = random.Random(5)
  for trial in range(100):
    A = rand_int_matrix(rng, 4, box=3)
    M = RatMatrix.identity(4).add(A)
    d = naive_det(rows_of(M))
    cert = k1_properness(A)
    if d == 0:
      assert cert.verdict == NONPROPER
    else:
      assert cert.verdict == PROPER
      assert cert.evidence["determinant"] == d


def test_general_power_matches_cubic_recipe():
  A = golden_3x3()
  rec = general_k_witness(A, ONES, E1, 3)
  assert rec.k == 3
  assert validate_witness(A, rec).passed


def test_general_power_five_decays_faster():
  A = golden_3x3()
  rec = general_k_witness(A, ONES, E1, 5)
  rep = validate_witness(A, rec)
  assert rep.passed
  assert rep.fitted_decay_exponent <= -2.0


def test_general_power_two_flags_negative_image():
  A = RatMatrix.of([[1, -1], [1, -1]])
  x_inf = RatVector.of([1, 1])
  u = RatVector.of([0, 1])
  rec = general_k_witness(A, x_inf, u, 2)
  rep = validate_witness(A, rec)
  assert rep.passed
  assert rep.negative_image_coordinates


def test_general_power_names_the_failed_equation():
  A = golden_3x3()
  with pytest.raises(ValueError, match=r"A\(x_inf\^k\) = 0"):
    general_k_witness(A, RatVector.of([1, 1, 2]), E1, 3)
  with pytest.raises(ValueError, match=r"A u \+ x_inf = 0"):
    general_k_witness(A, ONES, RatVector.of([0, 1, 0]), 3)
  with pytest.raises(ValueError, match="no zero coordinate"):
    general_k_witness(A, RatVector.of([1, 0, 1]), E1, 3)
  with pytest.raises(ValueError, match=">= 2"):
    general_k_witness(A, ONES, E1, 1)
