import hashlib
import json
from fractions import Fraction

import pytest

from llvkit.rings import (QuadraticForm, RingFormatError,
                          RingValidationError, gaussian_extension, load_ring,
                          ring_from_dict, ring_to_dict, save_ring)
from llvkit.scalars import FIELD_RATIONAL, Gauss, format_scalar, parse_scalar

from ring_oracles import structure_equal


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
        assert structure_equal(loaded, ring)


# sha256 of the saved files, computed before the normal form of Q(i)
# turned the rational constants of these rings from Gauss values into ints
# and Fractions: the files are unchanged
SAVED_RING_DIGESTS = {
    "model52": "6c070e744cb668c67bc3c6b2b223ae6f652eecc295d6004113aac15dc5908011",
    "torus_big": "bc877f254863eb88ed937305cf721c903746a82b47a74208b5d227e655aac77c",
    "gaussian torus2":
        "863e70f841851160dc96a2ed85bec3a778d4b0bbe0df6c951c459b497d7c92ec",
    "k3big": "8b7c04ccf17246293e215e38d4223ff369d133664dc881c7db90c93c953448fb",
}


@pytest.mark.parametrize("name", sorted(SAVED_RING_DIGESTS))
def test_gaussian_rings_round_trip(tmp_path, request, name):
    ring = (gaussian_extension(request.getfixturevalue("torus2"))
            if name == "gaussian torus2" else request.getfixturevalue(name))
    path = tmp_path / "ring.json"
    save_ring(ring, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == \
        SAVED_RING_DIGESTS[name]
    loaded = load_ring(path)
    assert structure_equal(loaded, ring)
    save_ring(loaded, tmp_path / "again.json")
    assert (tmp_path / "again.json").read_bytes() == path.read_bytes()


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


def test_load_rejects_a_repeated_product_record(tmp_path, model52):
    # a second e1*e2 = e7 record would make multiply's coefficient 2 while
    # the validation's dict reads it once
    data = ring_to_dict(model52)
    first = data["products"].index({"i": 1, "j": 2, "k": 7, "coeff": "1"})
    data["products"].append({"i": 1, "j": 2, "k": 7, "coeff": "1"})
    path = tmp_path / "repeated.json"
    path.write_text(json.dumps(data))
    with pytest.raises(RingFormatError) as err:
        load_ring(path)
    assert err.value.location == f"$.products[{len(data['products']) - 1}]"
    assert f"repeated product record (1, 2, 7), first at $.products[{first}]" \
        in str(err.value)


# misspelt optional keys: each would load a plain ring, or one without a
# form, and silently drop what it names
UNKNOWN_KEY_EDITS = {
    "$.bigradings": lambda d: d.update(bigradings=d.pop("bigrading")),
    "$.quadratic-form": lambda d: d.update(
        {"quadratic-form": d.pop("quadratic_form")}),
    "$.products[0]": lambda d: d["products"][0].update(
        coef=d["products"][0].pop("coeff")),
}


@pytest.mark.parametrize("location", sorted(UNKNOWN_KEY_EDITS))
def test_load_rejects_unknown_keys(tmp_path, model52, location):
    data = ring_to_dict(model52)
    UNKNOWN_KEY_EDITS[location](data)
    path = tmp_path / "unknown.json"
    path.write_text(json.dumps(data))
    with pytest.raises(RingFormatError, match="unknown key") as err:
        load_ring(path)
    assert err.value.location == location


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
