"""End-to-end command-line behavior, driven in process through main()."""

import itertools
import json
import random
import subprocess
import sys
import time

import pytest

from helpers import planted_pattern, src_env

from propermap.certify import certify
from propermap.cli import main
from propermap.forge import Family3x3Params, forge_3x3, golden_3x3, shift_5x5
from propermap.jsonio import (
  certificate_to_json,
  dumps,
  matrix_to_json,
  recipe_to_json,
)
from propermap.linalg import RatMatrix

UNDECIDED_ROWS = [[1, 1, -1], [1, 1, -1], [1, -1, 0]]


def write_matrix(path, A):
  path.write_text(dumps(matrix_to_json(A)))
  return str(path)


def run(capsys, argv):
  code = main(argv)
  captured = capsys.readouterr()
  return code, captured.out, captured.err


def test_analyze_proper_exits_zero(tmp_path, capsys):
  path = write_matrix(tmp_path / "shift.json", shift_5x5())
  code, out, err = run(capsys, ["analyze", "--input", path])
  assert code == 0
  payload = json.loads(out)
  assert payload["verdict"] == "Proper"
  assert payload["reason"] == "triangular"
  assert err == ""


def test_analyze_non_proper_exits_zero_with_recipe(tmp_path, capsys):
  path = write_matrix(tmp_path / "g.json", golden_3x3())
  code, out, _ = run(capsys, ["analyze", "--input", path])
  assert code == 0
  payload = json.loads(out)
  assert payload["verdict"] == "NonProper"
  assert payload["reason"] == "escape-direction"
  assert payload["evidence"]["recipe"]["kind"] == "simple"


def test_analyze_undecided_exits_two(tmp_path, capsys):
  path = write_matrix(tmp_path / "u.json", RatMatrix.of(UNDECIDED_ROWS))
  code, out, _ = run(capsys, ["analyze", "--input", path])
  assert code == 2
  assert json.loads(out)["verdict"] == "Undecided"


def test_analyze_linear_power(tmp_path, capsys):
  A = RatMatrix.identity(2).scale(-1)
  path = write_matrix(tmp_path / "neg.json", A)
  code, out, _ = run(capsys, ["analyze", "--input", path, "--k", "1"])
  assert code == 0
  payload = json.loads(out)
  assert payload["verdict"] == "NonProper"
  assert payload["k"] == 1


def test_analyze_rejects_unsupported_power(tmp_path, capsys):
  path = write_matrix(tmp_path / "m.json", RatMatrix.identity(2))
  code, _, err = run(capsys, ["analyze", "--input", path, "--k", "2"])
  assert code == 1
  assert "'k' must be 1 or 3" in err


def test_missing_input_file_exits_one(tmp_path, capsys):
  code, _, err = run(capsys, ["analyze", "--input", str(tmp_path / "no.json")])
  assert code == 1
  assert "cannot read input file" in err


def test_malformed_json_exits_one(tmp_path, capsys):
  path = tmp_path / "bad.json"
  path.write_text("{not json")
  code, _, err = run(capsys, ["analyze", "--input", str(path)])
  assert code == 1
  assert "malformed JSON" in err


def test_non_rational_entries_exit_one(tmp_path, capsys):
  path = tmp_path / "float.json"
  path.write_text(json.dumps({"m": 1, "rows": [[0.5]]}))
  code, _, err = run(capsys, ["analyze", "--input", str(path)])
  assert code == 1
  assert "entry (0,0)" in err


def test_usage_error_exits_one(capsys):
  code, _, err = run(capsys, ["analyze"])
  assert code == 1
  assert "error" in err


def test_druzkowski_shift_and_identity(tmp_path, capsys):
  path = write_matrix(tmp_path / "s.json", shift_5x5())
  code, out, _ = run(capsys, ["druzkowski", "--input", path])
  assert code == 0
  assert json.loads(out)["druzkowski"] is True
  path2 = write_matrix(tmp_path / "i.json", RatMatrix.identity(2))
  code, out, _ = run(capsys, ["druzkowski", "--input", path2])
  assert code == 0
  payload = json.loads(out)
  assert set(payload) == {"druzkowski", "k", "counterexample", "note"}
  assert payload["druzkowski"] is False
  assert payload["counterexample"] is not None


def test_witness_from_certificate(tmp_path, capsys):
  A = golden_3x3()
  path = tmp_path / "cert.json"
  path.write_text(dumps(certificate_to_json(certify(A))))
  code, out, _ = run(capsys, ["witness", "--input", str(path)])
  assert code == 0
  payload = json.loads(out)
  assert payload["passed"] is True
  assert payload["gammas"][-1] == 1e6


def test_witness_schedule_override(tmp_path, capsys):
  A = golden_3x3()
  path = tmp_path / "cert.json"
  path.write_text(dumps(certificate_to_json(certify(A))))
  code, out, _ = run(capsys, ["witness", "--input", str(path),
                              "--schedule", "10,1000,100000"])
  assert code == 0
  assert json.loads(out)["gammas"] == [10.0, 1000.0, 100000.0]


def test_witness_from_matrix_and_recipe_payload(tmp_path, capsys):
  A = golden_3x3()
  recipe = certify(A).witness()
  path = tmp_path / "pair.json"
  path.write_text(dumps({"matrix": matrix_to_json(A),
                         "recipe": recipe_to_json(recipe)}))
  code, out, _ = run(capsys, ["witness", "--input", str(path)])
  assert code == 0
  assert json.loads(out)["passed"] is True


def test_witness_rejects_extra_fields(tmp_path, capsys):
  A = golden_3x3()
  recipe = certify(A).witness()
  path = tmp_path / "pair.json"
  path.write_text(dumps({"matrix": matrix_to_json(A),
                         "recipe": recipe_to_json(recipe),
                         "note": "hi"}))
  code, _, err = run(capsys, ["witness", "--input", str(path)])
  assert code == 1
  assert "unexpected field 'note'" in err


@pytest.mark.parametrize("frame, field", [
  ({"perm": [0, 1, 2, 3], "diag": ["0", "1", "1", "1"]}, "diag"),
  ({"perm": [99, 1, 2, 3], "diag": ["1", "1", "1", "1"]}, "perm"),
])
def test_witness_rejects_a_frame_that_cannot_conjugate(tmp_path, capsys,
                                                       frame, field):
  A = planted_pattern(random.Random(57), 4)
  recipe = recipe_to_json(certify(A).witness())
  assert recipe["kind"] == "corank-chain"
  recipe["frame"] = frame
  path = tmp_path / "pair.json"
  path.write_text(dumps({"matrix": matrix_to_json(A), "recipe": recipe}))
  code, out, err = run(capsys, ["witness", "--input", str(path)])
  assert (code, out) == (1, "")
  assert err.startswith("error: ") and f"'{field}'" in err
  assert "Traceback" not in err


@pytest.mark.parametrize("change", ["short", "long"])
@pytest.mark.parametrize("field", ["v", "u1", "v1", "u_hat_root"])
def test_witness_rejects_a_recipe_vector_of_another_length(tmp_path, capsys,
                                                           field, change):
  # a short vector used to fail with an IndexError, and a long u1, v1 or
  # u_hat_root used to pass: the float equations zip the vectors short
  A = planted_pattern(random.Random(57), 4)
  recipe = recipe_to_json(certify(A).witness())
  recipe[field] = (recipe[field][:-1] if change == "short"
                   else recipe[field] + ["0"])
  path = tmp_path / "pair.json"
  path.write_text(dumps({"matrix": matrix_to_json(A), "recipe": recipe}))
  code, out, err = run(capsys, ["witness", "--input", str(path)])
  assert (code, out) == (1, "")
  assert err.startswith("error: ") and f"'{field}'" in err
  assert "Traceback" not in err


def test_witness_requires_a_recipe(tmp_path, capsys):
  path = tmp_path / "cert.json"
  path.write_text(dumps(certificate_to_json(certify(shift_5x5()))))
  code, _, err = run(capsys, ["witness", "--input", str(path)])
  assert code == 1
  assert "no witness recipe" in err


def test_witness_bad_schedule_exits_one(tmp_path, capsys):
  path = tmp_path / "cert.json"
  path.write_text(dumps(certificate_to_json(certify(golden_3x3()))))
  code, _, err = run(capsys, ["witness", "--input", str(path),
                              "--schedule", "100,10"])
  assert code == 1
  assert "--schedule" in err


def test_probe_growth_exits_zero(tmp_path, capsys):
  path = write_matrix(tmp_path / "i.json", RatMatrix.identity(2))
  code, out, _ = run(capsys, ["probe", "--input", path, "--seed", "3"])
  assert code == 0
  payload = json.loads(out)
  assert payload["classification"] == "GrowthObserved"
  assert payload["seed"] == 3


def test_probe_inconclusive_exits_two(tmp_path, capsys):
  # a non-proper family member whose sphere minimum climbs from 8e-4 at r = 1
  # to 6e-3 near r = 8 and then decays only like r^-0.3: the tail neither
  # returns within 3x of the r = 1 value nor climbs, so no trend is claimed
  A = forge_3x3(Family3x3Params.from_free(1, 0, 2, -2))
  path = write_matrix(tmp_path / "p.json", A)
  code, out, _ = run(capsys, ["probe", "--input", path,
                              "--radii", "1,4,16,64,256,1024"])
  assert code == 2
  assert json.loads(out)["classification"] == "Inconclusive"


def test_probe_bad_radii_exits_one(tmp_path, capsys):
  path = write_matrix(tmp_path / "i.json", RatMatrix.identity(2))
  code, _, err = run(capsys, ["probe", "--input", path, "--radii", "4,2,1"])
  assert code == 1
  assert "--radii" in err


@pytest.mark.parametrize("k", ["0", "-1"])
def test_probe_non_positive_k_exits_one(tmp_path, capsys, k):
  path = write_matrix(tmp_path / "i.json", RatMatrix.of([[1, 1], [-1, -1]]))
  code, out, err = run(capsys, ["probe", "--input", path, "--k", k])
  assert code == 1
  assert out == ""
  assert "field 'k' must be a positive integer" in err


@pytest.mark.parametrize("command, flag, values", [
  ("probe", "--radii", "1,2,4,inf"),
  ("probe", "--radii", "1,2,4,nan"),
  ("witness", "--schedule", "10,nan,100"),
  ("witness", "--schedule", "10,100,inf"),
])
def test_non_finite_schedules_exit_one(tmp_path, command, flag, values):
  # a non-finite radius once sent the probe into an endless loop, so the
  # command runs in a child process under a timeout
  if command == "probe":
    path = write_matrix(tmp_path / "i.json", RatMatrix.identity(2))
  else:
    path = tmp_path / "cert.json"
    path.write_text(dumps(certificate_to_json(certify(golden_3x3()))))
  proc = subprocess.run(
    [sys.executable, "-m", "propermap.cli", command, "--input", str(path),
     flag, values], capture_output=True, text=True, env=src_env(), timeout=60)
  assert proc.returncode == 1
  assert proc.stdout == ""
  assert f"{flag} values must be finite" in proc.stderr


def test_forge_3x3_payload(capsys):
  code, out, _ = run(capsys, ["forge", "3x3"])
  assert code == 0
  payload = json.loads(out)
  assert payload["matrix"] == matrix_to_json(golden_3x3())
  assert payload["params"]["a11"] == "-1"


def test_forge_5x5_payload(capsys):
  code, out, _ = run(capsys, ["forge", "5x5"])
  assert code == 0
  assert json.loads(out)["matrix"] == matrix_to_json(shift_5x5())


def test_density_csv_output(capsys):
  code, out, _ = run(capsys, ["density", "--m", "2", "--r", "1",
                              "--trials", "3", "--seed", "5"])
  assert code == 0
  lines = out.splitlines()
  assert lines[0] == "seed,m,r,verdict,reason"
  assert len(lines) == 4
  assert all(line.split(",")[1:3] == ["2", "1"] for line in lines[1:])


def test_density_output_is_byte_identical_across_runs(capsys, monkeypatch):
  # a clock whose steps keep growing makes any timing that leaks into the
  # output differ between the two runs
  ticks = itertools.count()
  monkeypatch.setattr(time, "perf_counter", lambda: float(next(ticks) ** 2))
  argv = ["density", "--m", "2", "--r", "1", "--trials", "3", "--seed", "5"]
  first = run(capsys, argv)
  second = run(capsys, argv)
  assert first == second
  assert first[1]


def test_signs_found_and_not_found(tmp_path, capsys):
  path = write_matrix(tmp_path / "s.json", shift_5x5())
  code, out, _ = run(capsys, ["signs", "--input", path])
  assert code == 0
  payload = json.loads(out)
  assert payload["found"] is True
  assert payload["global_sign"] == 1
  # planting a single negative entry into a strictly positive matrix kills
  # both global signs
  B = RatMatrix.of([[1, 2, 1], [2, 1, 1], [1, -1, 2]])
  path2 = write_matrix(tmp_path / "b.json", B)
  code, out, _ = run(capsys, ["signs", "--input", path2])
  assert code == 0
  assert json.loads(out) == {"found": False}


def test_out_flag_writes_the_same_bytes(tmp_path, capsys):
  path = write_matrix(tmp_path / "g.json", golden_3x3())
  code, out, _ = run(capsys, ["analyze", "--input", path])
  assert code == 0
  target = tmp_path / "cert.json"
  code2, out2, _ = run(capsys, ["analyze", "--input", path,
                                "--out", str(target)])
  assert code2 == 0
  assert out2 == ""
  assert target.read_text() == out


def test_reruns_are_byte_identical(tmp_path, capsys):
  path = write_matrix(tmp_path / "g.json", golden_3x3())
  outputs = set()
  for _ in range(2):
    _, out, _ = run(capsys, ["analyze", "--input", path])
    outputs.add(out)
  assert len(outputs) == 1
  for _ in range(2):
    _, out, _ = run(capsys, ["probe", "--input", path, "--seed", "1"])
    outputs.add(out)
  assert len(outputs) == 2


# ---------------------------------------------------------------------------
# golden stdout: these payloads hold only strings, integers and booleans, so
# their text is the same on every platform and is pinned byte for byte
# ---------------------------------------------------------------------------

ANALYZE_GOLDEN_3X3 = """\
{
  "audit": [
    {
      "detail": "candidate found",
      "outcome": "candidate",
      "step": "escape-search"
    },
    {
      "detail": "",
      "outcome": "no",
      "step": "screen:kernel-in-gram-kernel"
    },
    {
      "detail": "",
      "outcome": "no",
      "step": "screen:gram-rank-1"
    },
    {
      "detail": "",
      "outcome": "no",
      "step": "screen:triangular"
    },
    {
      "detail": "all-ones direction reaches the reduced subspace and its image",
      "outcome": "no",
      "step": "screen:kernel-line-blocked"
    },
    {
      "detail": "primitive generator (1, 1, 1)",
      "outcome": "found",
      "step": "kernel-line"
    },
    {
      "detail": "escape direction confirmed",
      "outcome": "satisfied",
      "step": "escape-direction"
    }
  ],
  "evidence": {
    "direction": {
      "entries": [
        "1",
        "1",
        "1"
      ],
      "type": "vector"
    },
    "recipe": {
      "k": 3,
      "kind": "simple",
      "numeric": false,
      "type": "recipe",
      "u": [
        "1",
        "0",
        "0"
      ],
      "x_inf": [
        "1",
        "1",
        "1"
      ]
    },
    "u": {
      "entries": [
        "1",
        "0",
        "0"
      ],
      "type": "vector"
    }
  },
  "k": 3,
  "matrix": {
    "m": 3,
    "rows": [
      [
        "-1",
        "-1",
        "2"
      ],
      [
        "-1",
        "0",
        "1"
      ],
      [
        "-1",
        "0",
        "1"
      ]
    ]
  },
  "reason": "escape-direction",
  "verdict": "NonProper"
}
"""


ANALYZE_SHIFT_5X5 = """\
{
  "audit": [
    {
      "detail": "a structural screen decided first",
      "outcome": "skipped",
      "step": "escape-search"
    },
    {
      "detail": "",
      "outcome": "no",
      "step": "screen:kernel-in-gram-kernel"
    },
    {
      "detail": "",
      "outcome": "no",
      "step": "screen:gram-rank-1"
    },
    {
      "detail": "upper",
      "outcome": "fires",
      "step": "screen:triangular"
    }
  ],
  "evidence": {
    "orientation": "upper"
  },
  "k": 3,
  "matrix": {
    "m": 5,
    "rows": [
      [
        "0",
        "0",
        "1",
        "0",
        "0"
      ],
      [
        "0",
        "0",
        "0",
        "1",
        "0"
      ],
      [
        "0",
        "0",
        "0",
        "0",
        "1"
      ],
      [
        "0",
        "0",
        "0",
        "0",
        "0"
      ],
      [
        "0",
        "0",
        "0",
        "0",
        "0"
      ]
    ]
  },
  "reason": "triangular",
  "verdict": "Proper"
}
"""


ANALYZE_IDENTITY_3 = """\
{
  "audit": [
    {
      "detail": "a structural screen decided first",
      "outcome": "skipped",
      "step": "escape-search"
    },
    {
      "detail": "matrix invertible",
      "outcome": "fires",
      "step": "screen:kernel-in-gram-kernel"
    }
  ],
  "evidence": {
    "kernel_dim": 0,
    "note": "matrix invertible"
  },
  "k": 3,
  "matrix": {
    "m": 3,
    "rows": [
      [
        "1",
        "0",
        "0"
      ],
      [
        "0",
        "1",
        "0"
      ],
      [
        "0",
        "0",
        "1"
      ]
    ]
  },
  "reason": "kernel-in-gram-kernel",
  "verdict": "Proper"
}
"""


FORGE_3X3 = """\
{
  "matrix": {
    "m": 3,
    "rows": [
      [
        "-1",
        "-1",
        "2"
      ],
      [
        "-1",
        "0",
        "1"
      ],
      [
        "-1",
        "0",
        "1"
      ]
    ]
  },
  "params": {
    "a11": "-1",
    "a12": "-1",
    "a21": "-1",
    "a22": "0",
    "lam": "0"
  }
}
"""


SIGNS_SHIFT_5X5 = """\
{
  "delta": [
    1,
    1,
    1,
    1,
    1
  ],
  "found": true,
  "global_sign": 1
}
"""


SIGNS_NONE = """\
{
  "found": false
}
"""


SIGNS_NONE_ROWS = [[1, 2, 1], [2, 1, 1], [1, -1, 2]]


@pytest.mark.parametrize("argv, build, expected", [
  (["analyze"], golden_3x3, ANALYZE_GOLDEN_3X3),
  (["analyze"], shift_5x5, ANALYZE_SHIFT_5X5),
  (["analyze"], lambda: RatMatrix.identity(3), ANALYZE_IDENTITY_3),
  (["forge", "3x3"], None, FORGE_3X3),
  (["signs"], shift_5x5, SIGNS_SHIFT_5X5),
  (["signs"], lambda: RatMatrix.of(SIGNS_NONE_ROWS), SIGNS_NONE),
], ids=["analyze-golden-3x3", "analyze-shift-5x5", "analyze-identity-3",
        "forge-3x3", "signs-found", "signs-not-found"])
def test_stdout_matches_golden_bytes(tmp_path, capsys, argv, build, expected):
  if build is not None:
    argv = argv + ["--input", write_matrix(tmp_path / "in.json", build())]
  code, out, err = run(capsys, argv)
  assert (code, err) == (0, "")
  assert out == expected
