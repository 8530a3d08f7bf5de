import json
from fractions import Fraction

import pytest

from llvkit.rings import (QuadraticForm, RingFormatError,
                          RingValidationError, load_ring, ring_from_dict,
                          ring_to_dict, save_ring)
from llvkit.scalars import FIELD_RATIONAL, Gauss, format_scalar, parse_scalar


def test_scalar_parse_format_roundtrip():
    for text, field in (("3/2", "rational"), ("-7", "rational"),
                        ("1/2+3/4i", "gaussian"), ("-i", "gaussian"),
                        ("2i", "gaussian"), ("0", "gaussian")):
        val = parse_scalar(text, field)
        assert parse_scalar(format_scalar(val), field) == val


def test_scalar_rejects_floats_and_imag_in_rational():
    with pytest.raises(ValueError):
        parse_scalar("1.5")
    with pytest.raises(ValueError):
        parse_scalar("2i", FIELD_RATIONAL)


@pytest.mark.parametrize("text", ["1/0", "1/0i", "2+1/0i", "-3/00", "0/0"])
def test_scalar_rejects_zero_denominators(text):
    with pytest.raises(ValueError, match="zero denominator"):
        parse_scalar(text, "gaussian")


def test_gauss_arithmetic():
    x = Gauss(Fraction(1, 2), Fraction(3, 4))
    assert x * x.conjugate() == Fraction(1, 4) + Fraction(9, 16)
    assert (x / x) == 1
    assert Gauss(0, 1) ** 2 == -1


def test_validate_k3_passes(k3):
    assert k3.validate().ok


def test_validate_zeroed_top_pairing(k3):
    data = ring_to_dict(k3)
    data["integration"] = ["0"]
    with pytest.raises(RingValidationError) as err:
        ring_from_dict(data)
    assert any(i.check == "duality" for i in err.value.report.issues)


def test_validate_nonassociative_perturbation(k3):
    data = ring_to_dict(k3)
    # perturb one structure constant e1*e2 without touching its partner
    rec = {"i": 1, "j": 2, "k": 23, "coeff": "5"}
    data["products"] = [r for r in data["products"]
                        if not (r["i"] == 1 and r["j"] == 2)] + [rec]
    with pytest.raises(RingValidationError) as err:
        ring_from_dict(data)
    checks = {i.check for i in err.value.report.issues}
    assert "graded-commutativity" in checks or "associativity" in checks


def test_multiply_unit_and_pairing(k3):
    x = k3.embed(2, [Fraction(i) for i in range(22)])
    assert k3.multiply(k3.unit(), x) == x
    # hyperbolic-type pair: e4, e5 have gram -1; e1*e1 = +top
    e1 = k3.basis_vector(1)
    assert k3.multiply(e1, e1) == k3.scale(k3.basis_vector(23), 1)
    e4 = k3.basis_vector(4)
    assert k3.multiply(e4, e4) == k3.scale(k3.basis_vector(23), -1)


def test_multiply_degree_overflow_is_zero(k3):
    top = k3.basis_vector(23)
    assert not any(k3.multiply(top, top))
    assert not any(k3.multiply(top, k3.basis_vector(1)))


def test_sigma_sigmabar_product_nonzero(model52):
    prod = model52.multiply(model52.sigma(), model52.sigma_bar())
    nz = [gi for gi, c in enumerate(prod) if c]
    assert nz
    assert all(model52.bidegrees[gi] == (2, 2) for gi in nz)


def test_save_load_roundtrip(tmp_path, k3, model52):
    for ring in (k3, model52):
        path = tmp_path / "ring.json"
        save_ring(ring, path)
        loaded = load_ring(path)
        assert loaded.structure_equal(ring)


def test_load_rejects_missing_symmetry_partner(tmp_path, k3):
    data = ring_to_dict(k3)
    # one-sided record: c(1,2,top) present without its (2,1) partner
    data["products"].append({"i": 1, "j": 2, "k": 23, "coeff": "1"})
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(data))
    with pytest.raises(RingValidationError) as err:
        load_ring(path)
    assert any(i.check == "graded-commutativity" for i in err.value.report.issues)


def test_load_rejects_bad_bigrading(tmp_path, model52):
    data = ring_to_dict(model52)
    data["bigrading"][0] = [1, 1]       # degree-0 unit mislabeled
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    with pytest.raises(RingFormatError, match="does not sum to degree"):
        load_ring(path)


# JSON true and false are ints to isinstance; each edit below equals the
# original integer (dims[8] = 1, products[1] = (0, 1, 1), bigrading[0] =
# (0, 0)), so only the type is wrong
BOOLEAN_EDITS = {
    "top_degree": lambda d: d.update(top_degree=True),
    "dims": lambda d: d["dims"].__setitem__(8, True),
    "index i": lambda d: d["products"][1].update(i=False),
    "index j": lambda d: d["products"][1].update(j=True),
    "index k": lambda d: d["products"][1].update(k=True),
    "bigrading": lambda d: d["bigrading"].__setitem__(0, [False, False]),
}


@pytest.mark.parametrize("field", sorted(BOOLEAN_EDITS))
def test_load_rejects_json_booleans_as_integers(tmp_path, model52, field):
    data = ring_to_dict(model52)
    BOOLEAN_EDITS[field](data)
    path = tmp_path / "bools.json"
    path.write_text(json.dumps(data))
    with pytest.raises(RingFormatError, match=f"{field}( entries)? must be"):
        load_ring(path)


def test_load_rejects_malformed_rational(tmp_path, k3):
    data = ring_to_dict(k3)
    data["products"][5]["coeff"] = "1.25"
    path = tmp_path / "bad2.json"
    path.write_text(json.dumps(data))
    with pytest.raises(RingFormatError, match="malformed"):
        load_ring(path)


def test_load_rejects_float_literals(tmp_path):
    path = tmp_path / "floats.json"
    path.write_text('{"top_degree": 0, "dims": [1], "basis": [["1"]], '
                    '"products": [], "integration": ["1"], "x": 1.5}')
    with pytest.raises(RingFormatError, match="float"):
        load_ring(path)


def test_parse_error_carries_location(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(RingFormatError, match="line 1"):
        load_ring(path)


def test_quadratic_form_restrict():
    q = QuadraticForm.diagonal([1, 1, -1])
    sub = q.restrict([(1, 1, 0), (0, 0, 1)])
    assert sub.rows == ((Fraction(2), Fraction(0)), (Fraction(0), Fraction(-1)))
