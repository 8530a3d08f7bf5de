"""Finite-dimensional graded-commutative model rings with exact arithmetic.

A GradedAlgebra is stored by structure constants on a homogeneous basis,
together with an integration functional on the (one-dimensional) top
degree.  Validation checks graded commutativity, associativity, unit
behaviour and Poincare duality.  A BigradedAlgebra adds a (p,q) label per
basis element and distinguished classes sigma, sigma-bar of bidegree
(2,0) and (0,2).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from math import gcd

from .linalg import Matrix, SparseEchelon
from .reporting import Record
from .scalars import (FIELD_GAUSSIAN, FIELD_RATIONAL, clear_denominators,
                      clear_table, format_scalar, parse_scalar, to_field)


class RingFormatError(ValueError):
    """Malformed ring description file; carries a location string."""

    def __init__(self, message, location=None):
        self.location = location
        super().__init__(message if location is None
                         else f"{location}: {message}")


class RingValidationError(ValueError):
    """Structurally parsable ring that violates the ring axioms."""

    def __init__(self, report):
        self.report = report
        super().__init__("ring validation failed:\n" + report.summary())


@dataclass(frozen=True)
class QuadraticForm:
    """Symmetric bilinear form on the degree-2 piece, by its Gram matrix."""

    gram: Matrix

    def __post_init__(self):
        if not self.gram.is_symmetric():
            raise ValueError("quadratic form Gram matrix must be symmetric")

    @property
    def dim(self):
        return self.gram.nrows

    def pair(self, u, v):
        return sum(x * y for x, y in zip(self.gram.matvec(v), u))

    def evaluate(self, v):
        return self.pair(v, v)

    def is_nondegenerate(self):
        return self.gram.rank() == self.dim

    def restrict(self, vectors):
        """Gram matrix of the form on the span of the given vectors."""
        return Matrix([[self.pair(u, v) for v in vectors] for u in vectors],
                      ncols=len(vectors))

    @staticmethod
    def diagonal(entries):
        n = len(entries)
        return QuadraticForm(Matrix(
            [[entries[i] if i == j else 0 for j in range(n)]
             for i in range(n)], ncols=n))


@dataclass
class ValidationIssue:
    check: str
    detail: str

    def __str__(self):
        return f"{self.check}: {self.detail}"


@dataclass
class ValidationReport:
    ok: bool
    issues: list

    def summary(self):
        if self.ok:
            return "all ring invariants hold"
        return "\n".join(str(i) for i in self.issues)

    def record(self, name="ring axioms", extra=(), **data) -> Record:
        """The report as a record, with the ``extra`` issue lines found
        outside ``validate`` (a declared form that fails on the ring)."""
        issues = [str(i) for i in self.issues] + list(extra)
        return Record(name, "graded commutativity, associativity, unit, "
                      "Poincare duality", {"issues": issues, **data},
                      "fail" if issues else "pass")


class GradedAlgebra:
    """Graded-commutative algebra with unit, top integration, exact scalars.

    Elements are coordinate tuples of length ``total_dim`` over the basis,
    concatenated degree by degree.  Products landing above the top degree
    are zero by convention.
    """

    def __init__(self, field_name, dims, labels, products, integration,
                 quadratic_form=None, name=""):
        self.field = field_name
        self.dims = tuple(int(d) for d in dims)
        self.top = len(self.dims) - 1
        self.labels = tuple(tuple(ls) for ls in labels)
        if len(self.labels) != len(self.dims):
            raise ValueError("labels must list one tuple per degree")
        for k, (d, ls) in enumerate(zip(self.dims, self.labels)):
            if len(ls) != d:
                raise ValueError(f"degree {k}: {len(ls)} labels for dim {d}")
        self.offsets = []
        run = 0
        for d in self.dims:
            self.offsets.append(run)
            run += d
        self.total_dim = run
        self._degree_of = []
        for k, d in enumerate(self.dims):
            self._degree_of.extend([k] * d)
        # products: dict[(gi, gj)] -> tuple of (gk, coeff); pairs given
        # one entries object share its normal form
        self.products = {}
        normal = {}
        for pair, entries in products.items():
            e = normal.get(id(entries))
            if e is None:
                e = normal[id(entries)] = tuple(
                    (gk, c if type(c) is int else to_field(c, field_name))
                    for gk, c in entries if c)
            if e:
                self.products[pair] = e
        self.integration = tuple(to_field(c, field_name) for c in integration)
        if len(self.integration) != self.dims[self.top]:
            raise ValueError("integration must list one coefficient per top basis element")
        self.quadratic_form = quadratic_form
        self.name = name

    # -- bookkeeping --------------------------------------------------

    def degree_of(self, gi):
        return self._degree_of[gi]

    def slice_of(self, k):
        return self.offsets[k], self.offsets[k] + self.dims[k]

    def zero(self):
        return (0,) * self.total_dim

    def basis_vector(self, gi):
        v = [0] * self.total_dim
        v[gi] = 1
        return tuple(v)

    def unit(self):
        if self.dims[0] != 1:
            raise ValueError("ring has no canonical unit: degree 0 is not 1-dim")
        return self.basis_vector(0)

    def embed(self, k, coeffs):
        """Full coordinate vector from degree-k coordinates."""
        if len(coeffs) != self.dims[k]:
            raise ValueError(f"degree {k} expects {self.dims[k]} coordinates")
        v = [0] * self.total_dim
        lo, _ = self.slice_of(k)
        for t, c in enumerate(coeffs):
            v[lo + t] = to_field(c, self.field)
        return tuple(v)

    def component(self, x, k):
        lo, hi = self.slice_of(k)
        return tuple(x[lo:hi])

    def homogeneous_degree(self, x):
        """Degree of a homogeneous element, None for 0 or mixed."""
        deg = None
        for gi, c in enumerate(x):
            if c:
                k = self._degree_of[gi]
                if deg is None:
                    deg = k
                elif deg != k:
                    return None
        return deg

    # -- algebra ------------------------------------------------------

    def mul_basis(self, gi, gj):
        return self.products.get((gi, gj), ())

    def multiply(self, x, y):
        """Bilinear product of full coordinate vectors."""
        if len(x) != self.total_dim or len(y) != self.total_dim:
            raise ValueError("multiply expects full coordinate vectors")
        acc = [0] * self.total_dim
        xs = [(gi, c) for gi, c in enumerate(x) if c]
        ys = [(gj, c) for gj, c in enumerate(y) if c]
        for gi, ci in xs:
            for gj, cj in ys:
                f = ci * cj
                for gk, c in self.mul_basis(gi, gj):
                    acc[gk] = acc[gk] + f * c
        return tuple(acc)

    def power(self, x, k):
        out = self.unit()
        for _ in range(k):
            out = self.multiply(out, x)
        return out

    def integrate(self, x):
        """Pairing of the top-degree component against the fundamental class."""
        lo, hi = self.slice_of(self.top)
        s = 0
        for c, w in zip(x[lo:hi], self.integration):
            if c and w:
                s = s + c * w
        return s

    def scale(self, x, c):
        c = to_field(c, self.field)
        return tuple(c * a for a in x)

    def add(self, x, y):
        return tuple(a + b for a, b in zip(x, y))

    # -- validation ---------------------------------------------------

    validation = None    # the report of require_valid, kept for reporting

    def require_valid(self, report=None):
        """Keep ``report`` (by default a full ``validate``) on the ring and
        raise unless it holds."""
        self.validation = self.validate() if report is None else report
        if not self.validation.ok:
            raise RingValidationError(self.validation)
        return self

    def validate(self) -> ValidationReport:
        """Graded commutativity, associativity, the unit and Poincare
        duality, each on the basis.

        Associativity runs over Z[i]: with D the common denominator of the
        structure constants (``scalars.clear_table``), every constant of
        D * c is an int, or a Gauss with int parts where it is not real.
        Both sides of (e_i e_j) e_k = e_i (e_j e_k) are sums of products of
        two constants, so they scale by D^2 != 0 together, and the identity
        holds for D * c exactly when it holds for c.  A ring whose
        constants are all ints is read as it is.
        """
        _, table = clear_table(self.products)
        issues = [*self._unit_issues(), *self._commutativity_issues(),
                  *self._associativity_issues(table),
                  *self._duality_issues(table), *self._validate_extra()]
        return ValidationReport(not issues, issues)

    def _unit_issues(self):
        if self.dims[0] != 1 or self.dims[self.top] != 1:
            return [ValidationIssue(check, f"{where} has dimension {d}, "
                                    "expected 1")
                    for check, where, d in (("unit", "degree 0", self.dims[0]),
                                            ("top", "top degree",
                                             self.dims[self.top])) if d != 1]
        return [ValidationIssue("unit", f"1*{self.label_of(gi)} != "
                                f"{self.label_of(gi)}")
                for gi in range(self.total_dim)
                if dict(self.mul_basis(0, gi)) != {gi: 1}]

    def _commutativity_issues(self):
        """e_j e_i = +-e_i e_j on every pair: a pair whose products are both
        zero holds, so only the pairs with a product are visited."""
        odd, products = [k % 2 for k in self._degree_of], self.products
        bad = set()
        for gi, gj in products:
            if gi <= gj or (gj, gi) not in products:
                gi, gj = min(gi, gj), max(gi, gj)
                if (dict(products.get((gi, gj), ()))
                        != {gk: -c if odd[gi] and odd[gj] else c
                            for gk, c in products.get((gj, gi), ())}):
                    bad.add((gi, gj))
        return [ValidationIssue("graded-commutativity", f"({self.label_of(gi)}"
                                f", {self.label_of(gj)})")
                for gi, gj in sorted(bad)]

    def _associativity_issues(self, table):
        """Every triple (i, j, k) of positive degree with i <= k that
        survives the top degree (a unit factor is covered by the unit
        check), on the structure constants ``table``.

        The mirrored triple (k, j, i) is the same identity once graded
        commutativity holds, and a ring where it fails is rejected by
        that check: with s = (-1)^(|i||j| + |i||k| + |j||k|),
        (e_k e_j) e_i = s e_i (e_j e_k) and e_k (e_j e_i) = s (e_i e_j) e_k.
        A triple whose two sides are both empty, e_i e_j = e_j e_k = 0,
        holds and is skipped.
        """
        issues = []
        deg, top = self._degree_of, self.top
        first_pos = self.offsets[1] if top >= 1 else self.total_dim
        rows = _by_row(table, self.total_dim)
        for gi in range(first_pos, self.total_dim):
            row_i = rows[gi]
            for gj in range(first_pos, self.total_dim):
                dij = deg[gi] + deg[gj]
                if dij > top:       # the basis runs by degree
                    break
                pij, row_j = row_i.get(gj, ()), rows[gj]
                for gk in range(gi, self.total_dim):
                    if dij + deg[gk] > top:
                        break
                    if not pij and gk not in row_j:
                        continue
                    left = {}
                    for gl, c in pij:
                        for gm, c2 in rows[gl].get(gk, ()):
                            left[gm] = left.get(gm, 0) + c * c2
                    right = {}
                    for gl, c in row_j.get(gk, ()):
                        for gm, c2 in row_i.get(gl, ()):
                            right[gm] = right.get(gm, 0) + c * c2
                    if left != right and _differ(left, right):
                        issues.append(ValidationIssue(
                            "associativity",
                            f"({self.label_of(gi)}, {self.label_of(gj)}, "
                            f"{self.label_of(gk)})"))
        return issues

    def _duality_issues(self, table):
        """Poincare duality: <a, b> = sum c w over the terms c e_l of a*b.
        Each pairing block is ranked as sparse rows, on the constants
        ``table`` and the integration scaled to ints: a scalar multiple of
        the block, of the same rank."""
        issues = []
        lo_top, _ = self.slice_of(self.top)
        weight = {lo_top + t: w for t, w in
                  enumerate(clear_denominators(self.integration)[1]) if w}
        get = table.get
        for k in range(self.top + 1):
            kd = self.top - k
            if self.dims[k] != self.dims[kd]:
                issues.append(ValidationIssue("duality", f"dim A^{k} = "
                              f"{self.dims[k]} != {self.dims[kd]} = dim A^{kd}"))
                continue
            if self.dims[k] == 0:
                continue
            lo_k, _ = self.slice_of(k)
            lo_d, _ = self.slice_of(kd)
            rows = []
            for gi in range(lo_k, lo_k + self.dims[k]):
                row = {}
                for b in range(self.dims[kd]):
                    s = 0
                    for gl, c in get((gi, lo_d + b), ()):
                        w = weight.get(gl)
                        if w:
                            s = s + c * w
                    if s:
                        row[b] = s
                rows.append(row)
            span = SparseEchelon.over(rows)
            for row in rows:
                span.add(row)
            if span.dim != self.dims[k]:
                issues.append(ValidationIssue(
                    "duality", f"degenerate top pairing A^{k} x A^{kd}"))
        return issues

    def _validate_extra(self):
        return []

    def label_of(self, gi):
        k = self._degree_of[gi]
        return self.labels[k][gi - self.offsets[k]]

    def __repr__(self):
        return (f"{type(self).__name__}(dims={self.dims}, field={self.field}"
                f"{', ' + self.name if self.name else ''})")


class BigradedAlgebra(GradedAlgebra):
    """Graded algebra with a (p,q) Hodge label on every basis element."""

    def __init__(self, field_name, dims, labels, products, integration,
                 bidegrees, quadratic_form=None, name=""):
        super().__init__(field_name, dims, labels, products, integration,
                         quadratic_form=quadratic_form, name=name)
        self.bidegrees = tuple((int(p), int(q)) for p, q in bidegrees)
        if len(self.bidegrees) != self.total_dim:
            raise ValueError("one (p,q) label per basis element required")
        for gi, (p, q) in enumerate(self.bidegrees):
            if p + q != self.degree_of(gi):
                raise ValueError(
                    f"basis element {self.label_of(gi)}: bidegree ({p},{q}) "
                    f"does not sum to degree {self.degree_of(gi)}")
        sig = [gi for gi, pq in enumerate(self.bidegrees) if pq == (2, 0)]
        sigb = [gi for gi, pq in enumerate(self.bidegrees) if pq == (0, 2)]
        if len(sig) != 1 or len(sigb) != 1:
            raise ValueError("bigraded ring needs exactly one (2,0) and one "
                             "(0,2) basis element (sigma and sigma-bar)")
        self.sigma_index = sig[0]
        self.sigma_bar_index = sigb[0]
        # optional rational companion, populated by model constructors:
        # per degree, the Matrix whose columns are the rational-model
        # coordinates of this ring's basis (None in odd degrees)
        self.rational_model = None
        self.to_rational_mats = None

    def sigma(self):
        return self.basis_vector(self.sigma_index)

    def sigma_bar(self):
        return self.basis_vector(self.sigma_bar_index)

    def symplectic_n(self):
        if self.top % 4:
            raise ValueError("bigraded model must have top degree 4n")
        return self.top // 4

    def hodge_dims(self):
        out = {}
        for p, q in self.bidegrees:
            out[(p, q)] = out.get((p, q), 0) + 1
        return out

    def _validate_extra(self):
        bideg = self.bidegrees
        return [ValidationIssue("bigrading", f"{self.label_of(gi)}*"
                                f"{self.label_of(gj)} hits {self.label_of(gk)}"
                                f" outside ({pi + pj},{qi + qj})")
                for gi, (pi, qi) in enumerate(bideg)
                for gj, (pj, qj) in enumerate(bideg[gi:], gi)
                for gk, c in self.mul_basis(gi, gj)
                if c and bideg[gk] != (pi + pj, qi + qj)]

    def companion_certificate(self) -> ValidationReport:
        """This ring's axioms, read off its validated rational companion R
        through T = ``to_rational_mats`` (column j of degree k holds the
        R-coordinates of basis element j).

        Besides the unit, graded-commutativity and bigrading checks it
        certifies (1) T is square in every degree, (2) T(e_i e_j) =
        T(e_i) T(e_j) for all i <= j with deg i + deg j <= top
        (commutativity gives i > j, the bigrading the pairs above the top),
        (3) int_R T(e) = int e on the top basis and (4) this ring's own
        Poincare pairing is nondegenerate (``_duality_issues``).  Then T
        is injective: if T(x) = 0, then for every y
        int xy = int_R T(xy) = int_R T(x) T(y) = 0 by (2) and (3), so
        x = 0 by (4).  As the dimensions agree in each degree, T is a
        bijective ring map, and T((xy)z) = Tx Ty Tz = T(x(yz)) gives
        associativity.

        (2) runs over Z[i]: T, this ring's constants c and R's constants r
        are each scaled once by their common denominators D_T, D_c and D_r
        (``scalars.clear_denominators``).  The left side sum c T(e_k)
        scales by D_c D_T and the right side sum T(e_i)_a T(e_j)_b r_ab by
        D_T^2 D_r, so (2) holds exactly when D_T D_r times the scaled left
        side equals D_c times the scaled right side.  (4) ranks the
        pairing on the scaled constants, as ``validate`` does.
        """
        issues = [*self._unit_issues(), *self._commutativity_issues(),
                  *self._validate_extra()]
        rat, image = self.rational_model, [{} for _ in range(self.total_dim)]

        def fail(detail):
            return ValidationReport(False, issues + [
                ValidationIssue("companion", detail)])

        if (rat is None or rat.dims != self.dims
                or not (rat.validation and rat.validation.ok)):
            return fail("no validated rational model of the same dims")
        blocks = []
        for k, d in enumerate(self.dims):
            t = self.to_rational_mats[k]
            if not d:
                continue
            if t is None or t.shape() != (d, d):
                return fail(f"degree {k}: T is not square")
            blocks.append((k, list(t.entries())))
        den_t, ints_t = clear_denominators(
            x for _, t in blocks for _, _, x in t)
        ints_t = iter(ints_t)
        for k, t in blocks:         # image[i] = D_T T(e_i), R-indexed
            lo = self.offsets[k]
            for r, j, _ in t:
                image[lo + j][lo + r] = next(ints_t)
        den_c, table = clear_table(self.products)
        issues += self._duality_issues(table)
        den_r, rat_table = clear_table(rat.products)
        f_left, f_right = den_t * den_r, den_c
        g = gcd(f_left, f_right)
        f_left, f_right = f_left // g, f_right // g
        deg, top = self._degree_of, self.top
        rows, rat_rows = (_by_row(table, self.total_dim),
                          _by_row(rat_table, rat.total_dim))
        bad = []
        for gj in range(self.total_dim):
            # e_a T(e_j) in R for the a that T(e_i) meets, scaled by f_right
            times_j = {}
            for gi in range(gj + 1):
                if deg[gi] + deg[gj] > top:
                    break
                left, right = {}, {}
                for gk, c in rows[gi].get(gj, ()):
                    c *= f_left
                    for r, x in image[gk].items():
                        left[r] = left.get(r, 0) + c * x
                for a, x in image[gi].items():
                    prod_a = times_j.get(a)
                    if prod_a is None:
                        prod_a = times_j[a] = {}
                        row_a = rat_rows[a]
                        for b, y in image[gj].items():
                            y *= f_right
                            for r, c in row_a.get(b, ()):
                                prod_a[r] = prod_a.get(r, 0) + y * c
                    for r, y in prod_a.items():
                        right[r] = right.get(r, 0) + x * y
                if left != right and _differ(left, right):
                    bad.append((gi, gj))
        for gi, gj in sorted(bad):
            li, lj = self.label_of(gi), self.label_of(gj)
            issues.append(ValidationIssue(
                "companion", f"T({li}*{lj}) != T({li})*T({lj})"))
        lo = self.offsets[self.top]
        top_t = self.to_rational_mats[self.top]
        for t, w in enumerate(self.integration):
            if w != sum(row[t] * v for row, v in zip(top_t.rows,
                                                     rat.integration)):
                issues.append(ValidationIssue(
                    "companion", f"int T({self.label_of(lo + t)}) != {w}"))
        return ValidationReport(not issues, issues)


def _by_row(table, size):
    """A product table {(i, j): entries} as rows: rows[i][j] = entries."""
    rows = [{} for _ in range(size)]
    for (gi, gj), entries in table.items():
        rows[gi][gj] = entries
    return rows


def _differ(a, b):
    """Whether two sparse vectors {index: value} differ, entries compared
    by their difference: the explicit zeros that sums can leave are
    ignored."""
    return any(a.get(k, 0) - b.get(k, 0) for k in a.keys() | b.keys())


def gaussian_extension(ring: GradedAlgebra):
    """The same ring with scalars extended from Q to Q(i).  Its rational
    structure constants are already in the normal form of Q(i), so only
    the field changes."""
    if ring.field == FIELD_GAUSSIAN:
        return ring
    extra = (ring.bidegrees,) if isinstance(ring, BigradedAlgebra) else ()
    out = type(ring)(FIELD_GAUSSIAN, ring.dims, ring.labels, ring.products,
                     ring.integration, *extra,
                     quadratic_form=ring.quadratic_form, name=ring.name)
    # the axioms are identities among the same rational constants, and the
    # pairing's rank is the same over Q(i)
    out.validation = ring.validation
    return out


# -- ring description files ----------------------------------------------
#
# Structured object notation (JSON text).  Coefficients are exact strings
# ("3/2", "1/2+3/4i"); floats are rejected outright.


def _expect(cond, message, location):
    if not cond:
        raise RingFormatError(message, location)


def ring_to_dict(ring: GradedAlgebra) -> dict:
    data = {
        "top_degree": ring.top,
        "field": ring.field,
        "dims": list(ring.dims),
        "basis": [list(ls) for ls in ring.labels],
        "products": [
            {"i": gi, "j": gj, "k": gk, "coeff": format_scalar(c)}
            for (gi, gj), entries in sorted(ring.products.items())
            for gk, c in entries],
        "integration": [format_scalar(c) for c in ring.integration],
    }
    if isinstance(ring, BigradedAlgebra):
        data["bigrading"] = [list(pq) for pq in ring.bidegrees]
    if ring.quadratic_form is not None:
        data["quadratic_form"] = [[format_scalar(c) for c in row]
                                  for row in ring.quadratic_form.gram.rows]
    return data


def save_ring(ring: GradedAlgebra, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(ring_to_dict(ring), fh, indent=1)
        fh.write("\n")


_REQUIRED_KEYS = ("top_degree", "dims", "basis", "products", "integration")
_RING_KEYS = _REQUIRED_KEYS + ("field", "quadratic_form", "bigrading")
_PRODUCT_KEYS = ("i", "j", "k", "coeff")


def ring_from_dict(data: dict):
    """The ring of a description, always validated: ``require_valid``
    raises RingValidationError when an axiom fails.  An unknown key, at
    the top or in a product record, and a repeated (i, j, k) product
    record are format errors: a misspelt optional key would drop what it
    names, and a repeated record would be summed by ``multiply`` but read
    once by the validation's ``dict``."""
    _expect(isinstance(data, dict), "ring description must be an object", "$")
    for key in data:
        _expect(key in _RING_KEYS, f"unknown key {key!r}", f"$.{key}")
    for key in _REQUIRED_KEYS:
        _expect(key in data, f"missing required field {key!r}", "$")
    top = data["top_degree"]
    _expect(type(top) is int and top >= 0, "top_degree must be a nonnegative integer",
            "$.top_degree")
    field_name = data.get("field", FIELD_RATIONAL)
    _expect(field_name in (FIELD_RATIONAL, FIELD_GAUSSIAN),
            f"unknown field {field_name!r}", "$.field")
    dims = data["dims"]
    _expect(isinstance(dims, list) and all(type(d) is int and d >= 0 for d in dims),
            "dims must be a list of nonnegative integers", "$.dims")
    _expect(len(dims) == top + 1,
            f"dims lists {len(dims)} degrees, expected top_degree+1 = {top + 1}",
            "$.dims")
    basis = data["basis"]
    _expect(isinstance(basis, list) and len(basis) == top + 1,
            "basis must list labels for each degree", "$.basis")
    for k, (d, ls) in enumerate(zip(dims, basis)):
        _expect(isinstance(ls, list) and len(ls) == d,
                f"degree {k} lists {len(ls) if isinstance(ls, list) else '?'} labels "
                f"for dimension {d}", f"$.basis[{k}]")
    total = sum(dims)
    products = {}
    first_record = {}               # (i, j, k) -> index of its record
    _expect(isinstance(data["products"], list), "products must be a list", "$.products")
    for idx, rec in enumerate(data["products"]):
        loc = f"$.products[{idx}]"
        _expect(isinstance(rec, dict), "product record must be an object", loc)
        for key in rec:
            _expect(key in _PRODUCT_KEYS,
                    f"unknown key {key!r} in product record", loc)
        for key in _PRODUCT_KEYS:
            _expect(key in rec, f"product record missing {key!r}", loc)
        gi, gj, gk = rec["i"], rec["j"], rec["k"]
        for nm, g in (("i", gi), ("j", gj), ("k", gk)):
            _expect(type(g) is int and 0 <= g < total,  # true is an int to isinstance
                    f"index {nm} must be an integer in 0..{total - 1}, got {g!r}", loc)
        first = first_record.setdefault((gi, gj, gk), idx)
        _expect(first == idx, f"repeated product record ({gi}, {gj}, {gk}), "
                f"first at $.products[{first}]", loc)
        _expect(isinstance(rec["coeff"], str),
                "coeff must be an exact coefficient string (no floats)", loc)
        try:
            c = parse_scalar(rec["coeff"], field_name)
        except ValueError as exc:
            raise RingFormatError(str(exc), loc) from exc
        products.setdefault((gi, gj), []).append((gk, c))
    integ_raw = data["integration"]
    _expect(isinstance(integ_raw, list) and len(integ_raw) == dims[top],
            "integration must list one coefficient per top basis element",
            "$.integration")
    integration = []
    for idx, txt in enumerate(integ_raw):
        _expect(isinstance(txt, str), "integration coefficients must be exact strings",
                f"$.integration[{idx}]")
        try:
            integration.append(parse_scalar(txt, field_name))
        except ValueError as exc:
            raise RingFormatError(str(exc), f"$.integration[{idx}]") from exc
    qform = None
    if data.get("quadratic_form") is not None:
        rows = data["quadratic_form"]
        _expect(top >= 2, "quadratic_form requires a degree-2 piece",
                "$.quadratic_form")
        _expect(isinstance(rows, list) and len(rows) == dims[2],
                "quadratic_form must be a dense matrix on the degree-2 basis",
                "$.quadratic_form")
        grid = []
        for ri, row in enumerate(rows):
            _expect(isinstance(row, list) and len(row) == dims[2],
                    "quadratic_form rows must match the degree-2 dimension",
                    f"$.quadratic_form[{ri}]")
            out_row = []
            for ci, txt in enumerate(row):
                _expect(isinstance(txt, str), "entries must be exact strings",
                        f"$.quadratic_form[{ri}][{ci}]")
                try:
                    val = parse_scalar(txt, FIELD_RATIONAL)
                except ValueError as exc:
                    raise RingFormatError(str(exc),
                                          f"$.quadratic_form[{ri}][{ci}]") from exc
                out_row.append(val)
            grid.append(out_row)
        try:
            qform = QuadraticForm(Matrix(grid, ncols=dims[2]))
        except ValueError as exc:
            raise RingFormatError(str(exc), "$.quadratic_form") from exc
    cls, extra = GradedAlgebra, ()
    if data.get("bigrading") is not None:
        bg = data["bigrading"]
        _expect(isinstance(bg, list) and len(bg) == total,
                "bigrading must label every basis element", "$.bigrading")
        degree_of = []
        for k, d in enumerate(dims):
            degree_of.extend([k] * d)
        for gi, pq in enumerate(bg):
            _expect(isinstance(pq, list) and len(pq) == 2
                    and all(type(t) is int for t in pq),
                    "bigrading entries must be [p, q] integer pairs",
                    f"$.bigrading[{gi}]")
            _expect(pq[0] + pq[1] == degree_of[gi],
                    f"bidegree ({pq[0]},{pq[1]}) does not sum to degree "
                    f"{degree_of[gi]}", f"$.bigrading[{gi}]")
        cls, extra = BigradedAlgebra, ([tuple(pq) for pq in bg],)
    try:
        ring = cls(field_name, dims, basis, products, integration, *extra,
                   quadratic_form=qform)
    except ValueError as exc:
        raise RingFormatError(str(exc), "$") from exc
    return ring.require_valid()


def load_ring(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise RingFormatError(exc.strerror or str(exc), str(path)) from exc
    except UnicodeDecodeError as exc:
        raise RingFormatError(f"not UTF-8 text ({exc.reason} at byte "
                              f"{exc.start})", str(path)) from exc
    try:
        data = json.loads(text, parse_float=_reject_float,
                          parse_constant=_reject_float)
    except json.JSONDecodeError as exc:
        raise RingFormatError(exc.msg, f"line {exc.lineno}, column {exc.colno}") from exc
    return ring_from_dict(data)


def _reject_float(token):
    raise RingFormatError(f"float literal {token!r} rejected: coefficients must "
                          "be exact strings")
