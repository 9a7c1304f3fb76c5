import json
import math

import numpy as np
import pytest

from striplab import PointSet, Polynomial, discretize, lawson_refine, perturbation_bound, roots, zeta_em
from striplab.approximation import _weighted_basis
from striplab.cli import main
from striplab.errors import InvalidSpec
from striplab.targets import TargetFunction


def write_json(path, payload):
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


@pytest.fixture
def segment_set(tmp_path):
    return write_json(
        tmp_path / "segment.json",
        {"variant": "segment", "a": [-0.1, 0.0], "b": [0.1, 0.0]},
    )


@pytest.fixture
def strip_point_set(tmp_path):
    return write_json(tmp_path / "point.json", {"variant": "points", "points": [[0.75, 0.0]]})


@pytest.fixture
def arc_set(tmp_path):
    return write_json(
        tmp_path / "arc.json",
        {"variant": "arc", "center": [0.75, 0.0], "radius": 0.1,
         "angle_start": 0.0, "angle_end": 1.5 * math.pi},
    )


def read_json(path):
    return json.loads(path.read_text(encoding="utf-8"))


# ---------------------------------------------------------------- approx


def test_approx_identity_success(tmp_path, segment_set):
    out = tmp_path / "out.json"
    code = main(["approx", "--set", segment_set, "--target", "identity",
                 "--eps", "0.1", "--out", str(out)])
    assert code == 0
    payload = read_json(out)
    assert payload["certified_total_error"] < 0.1
    assert payload["certificate"]["min_modulus_lower_bound"] > 0
    assert payload["fit"]["polynomial"]["coeffs"]
    assert payload["manifest"]["command"] == "approx"
    assert payload["manifest"]["input_digests"]["set"]


def test_approx_impossible_eps_exits_2_with_best_attempt(tmp_path, segment_set):
    out = tmp_path / "out.json"
    code = main(["approx", "--set", segment_set, "--target", "abs",
                 "--eps", "1e-15", "--max-degree", "4", "--out", str(out)])
    assert code == 2
    payload = read_json(out)
    assert "error" in payload
    assert payload["fit"]["degree_used"] <= 4  # best attempt still emitted


def test_approx_arc_conj_small_eps_budget_failure(tmp_path, arc_set):
    # eps 1e-2 needs a fit below 5e-3, which no polynomial of degree <= 30
    # reaches on this arc (Bernstein-Walsh: at least 8.59e-3), so the honest
    # outcome is exit 2 with the best attempt, which the centred frame still
    # brings well below the monomial basis's 7e-2 stall
    out = tmp_path / "out.json"
    code = main(["approx", "--set", arc_set, "--target", "conj",
                 "--eps", "1e-2", "--max-degree", "30", "--out", str(out)])
    assert code == 2
    payload = read_json(out)
    assert "error" in payload and 5e-3 < payload["fit"]["sup_error_on_samples"] < 2e-2


def test_approx_malformed_set_exits_1(tmp_path, capsys):
    bad = write_json(tmp_path / "bad.json", {"variant": "segment", "a": [0, 0]})
    code = main(["approx", "--set", bad, "--target", "identity", "--eps", "0.1"])
    assert code == 1
    assert "error" in json.loads(capsys.readouterr().out)


MALFORMED_TARGETS = {
    "samples_not_pairs": {"kind": "samples", "values": [1, 2]},
    "samples_without_values": {"kind": "samples"},
    "constant_not_numbers": {"kind": "builtin", "name": "constant", "value": ["a", "b"]},
}


@pytest.mark.parametrize("name", sorted(MALFORMED_TARGETS))
def test_approx_malformed_target_file_exits_1(tmp_path, segment_set, capsys, name):
    bad = write_json(tmp_path / "target.json", MALFORMED_TARGETS[name])
    code = main(["approx", "--set", segment_set, "--target", bad, "--eps", "0.1"])
    assert code == 1
    assert "error" in json.loads(capsys.readouterr().out)


def test_approx_negative_max_degree_exits_1(segment_set, capsys):
    code = main(["approx", "--set", segment_set, "--target", "identity",
                 "--eps", "0.1", "--max-degree", "-1"])
    assert code == 1
    assert "max_degree" in json.loads(capsys.readouterr().out)["error"]


def test_missing_required_flag_exits_1(segment_set, capsys):
    assert main(["approx", "--set", segment_set]) == 1


# ---------------------------------------------------------------- scan


def test_scan_self_similarity_exit_0(tmp_path, strip_point_set):
    out_json = tmp_path / "report.json"
    out_csv = tmp_path / "trace.csv"
    code = main(["scan", "--set", strip_point_set, "--target", "zeta",
                 "--T", "10", "--step", "0.5", "--eps", "0.5",
                 "--out-json", str(out_json), "--out-csv", str(out_csv)])
    assert code == 0
    payload = read_json(out_json)
    assert payload["report"]["hit_intervals"]
    assert payload["report"]["empirical_density"] > 0
    assert out_csv.read_text().startswith("t,D\n")


def test_scan_eps_zero_exit_3_with_outputs(tmp_path, strip_point_set):
    out_json = tmp_path / "report.json"
    out_csv = tmp_path / "trace.csv"
    code = main(["scan", "--set", strip_point_set, "--target", "zeta",
                 "--T", "10", "--step", "0.5", "--eps", "0",
                 "--out-json", str(out_json), "--out-csv", str(out_csv)])
    assert code == 3
    payload = read_json(out_json)
    assert payload["error"]
    assert payload["report"]["hit_intervals"] == []
    # the trace lives in the CSV only: a header plus t = 0, 0.5, ..., 10
    assert "trace" not in payload["report"]
    assert len(out_csv.read_text().splitlines()) == 21 + 1


def test_scan_csv_byte_identical_across_reruns(tmp_path, strip_point_set):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["scan", "--set", strip_point_set, "--target", "zeta",
            "--T", "10", "--step", "0.5", "--eps", "0.5"]
    assert main(args + ["--out-csv", str(out1)]) == 0
    assert main(args + ["--out-csv", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_scan_via_polynomial(tmp_path, strip_point_set):
    out_json = tmp_path / "report.json"
    code = main(["scan", "--set", strip_point_set, "--target", "constant:-3.44128538694522,0",
                 "--T", "10", "--step", "0.5", "--eps", "0.5", "--via-polynomial",
                 "--out-json", str(out_json)])
    assert code == 0
    payload = read_json(out_json)
    assert payload["via_polynomial"]["certificate"]["min_modulus_lower_bound"] > 0
    assert payload["via_polynomial"]["scan_eps"] == 0.25
    assert payload["report"]["eps"] == 0.25
    # the constant sits near zeta(0.75), so t = 0 is a hit at the halved eps
    assert payload["report"]["hit_intervals"][0][0] == 0.0


def test_scan_constant_target(tmp_path, strip_point_set):
    out_json = tmp_path / "r.json"
    code = main(["scan", "--set", strip_point_set, "--target", "constant:1.0",
                 "--T", "40", "--step", "0.5", "--eps", "0.9",
                 "--out-json", str(out_json)])
    payload = read_json(out_json)
    assert code in (0, 3)
    assert payload["report"]["best_D"] > 0


def test_scan_samples_target_file(tmp_path, strip_point_set):
    # a samples file with one value per grid point reads as that constant
    target = write_json(tmp_path / "target.json", {"kind": "samples", "values": [[1.0, 0.0]]})
    args = ["scan", "--set", strip_point_set, "--T", "40", "--step", "0.5", "--eps", "0.9"]
    from_file, from_constant = tmp_path / "file.json", tmp_path / "constant.json"
    code = main(args + ["--target", target, "--out-json", str(from_file)])
    assert code == main(args + ["--target", "constant:1.0", "--out-json", str(from_constant)])
    payload = read_json(from_file)
    assert payload["report"] == read_json(from_constant)["report"]
    assert payload["manifest"]["config"]["target"] == {"kind": "samples", "values": [[1.0, 0.0]]}
    assert payload["manifest"]["input_digests"]["target"]


# ---------------------------------------------------------------- zeta


def test_zeta_command_basel(capsys):
    assert main(["zeta", "--re", "2", "--im", "0"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["value"][0] == pytest.approx(math.pi**2 / 6.0, abs=1e-10)
    assert payload["value"][1] == 0.0
    assert payload["error_estimate"] < 1e-12


def test_zeta_command_pole_exit_1(capsys):
    assert main(["zeta", "--re", "1", "--im", "0"]) == 1
    assert "error" in json.loads(capsys.readouterr().out)


def test_zeta_command_infinite_terms_per_unit_t_exit_1(capsys):
    assert main(["zeta", "--re", "0.75", "--im", "1", "--terms-per-unit-t", "inf"]) == 1
    assert "terms_per_unit_t" in json.loads(capsys.readouterr().out)["error"]


# ---------------------------------------------------------------- errors

# every check that used to raise a class of its own, each caught by the
# command line's one StriplabError handler; the zeta guards also go through
# `striplab zeta`
INVALID_SPEC_SITES = {
    "constant_roots": (lambda: roots(Polynomial((5,))), "constant polynomials", None),
    "unpaired_root_lists": (
        lambda: perturbation_bound(1.0, (0.0,), (0.0, 1.0), 1.0), "differ in length", None
    ),
    "too_few_samples": (
        lambda: lawson_refine(discretize(PointSet((0.1, 0.9)), 0.1), TargetFunction((0j, 0j)), 5, 0),
        "needs at least 6 samples",
        None,
    ),
    "rank_deficient_basis": (
        lambda: _weighted_basis(np.array([-0.5, 0.1j, 0.9]), np.full(3, 1.0 / 3), 3),
        "orthogonalization collapsed",
        None,
    ),
    "zeta_pole": (lambda: zeta_em(1.0 + 0j), "pole at 1", ("1", "0")),
    "zeta_real_part": (lambda: zeta_em(-1.5 + 0j), "supported range", ("-1.5", "0")),
    "zeta_imaginary_part": (lambda: zeta_em(0.75 + 2e8j), "precision guard", ("0.75", "2e8")),
}


@pytest.mark.parametrize("site", sorted(INVALID_SPEC_SITES))
def test_former_error_classes_raise_invalid_spec(site, capsys):
    call, message, zeta_args = INVALID_SPEC_SITES[site]
    with pytest.raises(InvalidSpec, match=message):
        call()
    if zeta_args is not None:
        assert main(["zeta", "--re", zeta_args[0], "--im", zeta_args[1]]) == 1
        assert message in json.loads(capsys.readouterr().out)["error"]


# ---------------------------------------------------------------- cantor


def test_cantor_depth_1(capsys):
    assert main(["cantor", "--depth", "1"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["intervals"] == [[0.0, 0.375], [0.625, 1.0]]


def test_cantor_depth_3_total_length(capsys):
    assert main(["cantor", "--depth", "3"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["intervals"]) == 8
    assert payload["total_length"] == pytest.approx(0.5625, abs=1e-15)


def test_approx_output_matches_library_call(tmp_path, segment_set):
    out = tmp_path / "out.json"
    assert main(["approx", "--set", segment_set, "--target", "identity",
                 "--eps", "0.1", "--out", str(out)]) == 0
    payload = read_json(out)

    from striplab import Segment, approximate_nonvanishing

    fp, fit, cert = approximate_nonvanishing(
        Segment(-0.1, 0.1), {"kind": "builtin", "name": "identity"}, 0.1
    )
    assert payload["fit"]["sup_error_on_samples"] == fit.sup_error_on_samples
    assert payload["certificate"]["perturbation_bound_value"] == cert.perturbation_bound_value
    assert payload["factored_polynomial"]["roots"] == [[r.real, r.imag] for r in fp.roots]


def test_cantor_emits_product_set(tmp_path):
    out = tmp_path / "set.json"
    code = main(["cantor", "--depth", "2", "--y-lo", "0.0", "--y-hi", "0.4",
                 "--scale", "0.4", "--offset-re", "0.55", "--offset-im", "0.1",
                 "--out", str(out)])
    assert code == 0
    payload = read_json(out)
    from striplab import build_set, CantorProduct

    K = build_set(payload["set"])
    assert isinstance(K, CantorProduct)


def test_cantor_rejects_invalid_product_set(tmp_path, capsys):
    out = tmp_path / "set.json"
    code = main(["cantor", "--depth", "2", "--y-lo", "1", "--y-hi", "0",
                 "--scale", "-2", "--out", str(out)])
    assert code == 1
    assert "error" in json.loads(capsys.readouterr().out)
    assert not out.exists()


@pytest.mark.parametrize("half_range", [["--y-lo", "0"], ["--y-hi", "0.4"]])
def test_cantor_rejects_half_given_y_range(tmp_path, capsys, half_range):
    out = tmp_path / "set.json"
    assert main(["cantor", "--depth", "1", *half_range, "--out", str(out)]) == 1
    assert "--y-lo and --y-hi" in json.loads(capsys.readouterr().out)["error"]
    assert not out.exists()
