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

from .linalg import Matrix
from .scalars import (FIELD_GAUSSIAN, FIELD_RATIONAL, Gauss,
                      format_scalar, parse_scalar, to_field)


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
        # products: dict[(gi, gj)] -> tuple of (gk, coeff)
        self.products = {
            pair: tuple((gk, to_field(c, field_name)) for gk, c in entries if c)
            for pair, entries in products.items()}
        self.products = {p: e for p, e in self.products.items() if e}
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

    def require_valid(self):
        """Validate, keep the report on the ring, raise unless it holds."""
        self.validation = self.validate()
        if not self.validation.ok:
            raise RingValidationError(self.validation)
        return self

    def validate(self, max_issues=None) -> ValidationReport:
        issues = []

        def note(check, detail):
            issues.append(ValidationIssue(check, detail))
            return max_issues is not None and len(issues) >= max_issues

        if self.dims[0] != 1:
            note("unit", f"degree 0 has dimension {self.dims[0]}, expected 1")
        if self.dims[self.top] != 1:
            note("top", f"top degree has dimension {self.dims[self.top]}, expected 1")
        if not issues:
            unit = 0
            for gi in range(self.total_dim):
                got = dict(self.mul_basis(unit, gi))
                if got != {gi: to_field(1, self.field)}:
                    if note("unit", f"1*{self.label_of(gi)} != {self.label_of(gi)}"):
                        return ValidationReport(False, issues)
        # graded commutativity
        for gi in range(self.total_dim):
            di = self._degree_of[gi]
            for gj in range(gi, self.total_dim):
                dj = self._degree_of[gj]
                sign = -1 if (di % 2) and (dj % 2) else 1
                left = dict(self.mul_basis(gi, gj))
                right = {gk: sign * c for gk, c in self.mul_basis(gj, gi)}
                if left != right:
                    if note("graded-commutativity",
                            f"({self.label_of(gi)}, {self.label_of(gj)})"):
                        return ValidationReport(False, issues)
        # associativity, skipping triples that die for degree reasons and
        # triples with a unit factor (already covered by the unit check)
        first_pos = self.offsets[1] if self.top >= 1 else self.total_dim
        for gi in range(first_pos, self.total_dim):
            di = self._degree_of[gi]
            for gj in range(first_pos, self.total_dim):
                dj = self._degree_of[gj]
                if di + dj > self.top:
                    continue
                pij = self.mul_basis(gi, gj)
                for gk in range(first_pos, self.total_dim):
                    dk = self._degree_of[gk]
                    if di + dj + dk > self.top:
                        continue
                    left = {}
                    for gl, c in pij:
                        for gm, c2 in self.mul_basis(gl, gk):
                            v = left.get(gm, 0) + c * c2
                            if v:
                                left[gm] = v
                            elif gm in left:
                                del left[gm]
                    right = {}
                    for gl, c in self.mul_basis(gj, gk):
                        for gm, c2 in self.mul_basis(gi, gl):
                            v = right.get(gm, 0) + c * c2
                            if v:
                                right[gm] = v
                            elif gm in right:
                                del right[gm]
                    if left != right:
                        if note("associativity",
                                f"({self.label_of(gi)}, {self.label_of(gj)}, "
                                f"{self.label_of(gk)})"):
                            return ValidationReport(False, issues)
        # Poincare duality: <a, b> = sum c w over the terms c e_l of a*b
        lo_top, _ = self.slice_of(self.top)
        weight = {lo_top + t: w for t, w in enumerate(self.integration) if w}
        for k in range(self.top + 1):
            kd = self.top - k
            if self.dims[k] != self.dims[kd]:
                note("duality", f"dim A^{k} = {self.dims[k]} != {self.dims[kd]} = dim A^{kd}")
                continue
            if self.dims[k] == 0:
                continue
            lo_k, _ = self.slice_of(k)
            lo_d, _ = self.slice_of(kd)
            pairing = Matrix(
                [[sum(c * weight[gl]
                      for gl, c in self.mul_basis(lo_k + a, lo_d + b)
                      if gl in weight)
                  for b in range(self.dims[kd])] for a in range(self.dims[k])],
                ncols=self.dims[kd])
            if pairing.rank() != self.dims[k]:
                note("duality", f"degenerate top pairing A^{k} x A^{kd}")
        issues.extend(self._validate_extra())
        return ValidationReport(not issues, issues)

    def _validate_extra(self):
        return []

    def label_of(self, gi):
        k = self._degree_of[gi]
        return self.labels[k][gi - self.offsets[k]]

    def structure_equal(self, other) -> bool:
        return (type(self) is type(other) and self.field == other.field
                and self.dims == other.dims and self.labels == other.labels
                and {p: dict(e) for p, e in self.products.items()}
                == {p: dict(e) for p, e in other.products.items()}
                and self.integration == other.integration
                and self._bigrading_tuple() == other._bigrading_tuple())

    def _bigrading_tuple(self):
        return None

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
        # optional rational companion, populated by model constructors
        self.rational_model = None
        self.to_rational_mats = None     # per even degree: Matrix, columns = rational coords
        self.from_rational_mats = None

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

    def _bigrading_tuple(self):
        return self.bidegrees

    def _validate_extra(self):
        issues = []
        for gi in range(self.total_dim):
            pi, qi = self.bidegrees[gi]
            for gj in range(gi, self.total_dim):
                pj, qj = self.bidegrees[gj]
                for gk, c in self.mul_basis(gi, gj):
                    if c and self.bidegrees[gk] != (pi + pj, qi + qj):
                        issues.append(ValidationIssue(
                            "bigrading",
                            f"{self.label_of(gi)}*{self.label_of(gj)} hits "
                            f"{self.label_of(gk)} outside ({pi + pj},{qi + qj})"))
        return issues

    def from_rational(self, x):
        self._need_companion()
        out = [to_field(0, self.field)] * self.total_dim
        for k in range(self.top + 1):
            lo, _ = self.rational_model.slice_of(k)
            comp = tuple(x[lo:lo + self.rational_model.dims[k]])
            if not any(comp):
                continue
            big = self.from_rational_mats[k].matvec(comp)
            mylo, _ = self.slice_of(k)
            for t, c in enumerate(big):
                out[mylo + t] = c
        return tuple(out)

    def _need_companion(self):
        if self.rational_model is None:
            raise ValueError("this bigraded ring carries no rational companion")


def gaussian_extension(ring: GradedAlgebra):
    """The same ring with scalars extended from Q to Q(i)."""
    if ring.field == FIELD_GAUSSIAN:
        return ring
    products = {p: [(gk, Gauss(c)) for gk, c in e] for p, e in ring.products.items()}
    integ = [Gauss(c) for c in ring.integration]
    if isinstance(ring, BigradedAlgebra):
        out = BigradedAlgebra(FIELD_GAUSSIAN, ring.dims, ring.labels, products,
                              integ, ring.bidegrees,
                              quadratic_form=ring.quadratic_form,
                              name=ring.name)
    else:
        out = GradedAlgebra(FIELD_GAUSSIAN, ring.dims, ring.labels, products,
                            integ, quadratic_form=ring.quadratic_form,
                            name=ring.name)
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


def ring_from_dict(data: dict, validate=True):
    _expect(isinstance(data, dict), "ring description must be an object", "$")
    for key in ("top_degree", "dims", "basis", "products", "integration"):
        _expect(key in data, f"missing required field {key!r}", "$")
    top = data["top_degree"]
    _expect(isinstance(top, int) and top >= 0, "top_degree must be a nonnegative integer",
            "$.top_degree")
    field_name = data.get("field", FIELD_RATIONAL)
    _expect(field_name in (FIELD_RATIONAL, FIELD_GAUSSIAN),
            f"unknown field {field_name!r}", "$.field")
    dims = data["dims"]
    _expect(isinstance(dims, list) and all(isinstance(d, int) and d >= 0 for d in dims),
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
    _expect(isinstance(data["products"], list), "products must be a list", "$.products")
    for idx, rec in enumerate(data["products"]):
        loc = f"$.products[{idx}]"
        _expect(isinstance(rec, dict), "product record must be an object", loc)
        for key in ("i", "j", "k", "coeff"):
            _expect(key in rec, f"product record missing {key!r}", loc)
        gi, gj, gk = rec["i"], rec["j"], rec["k"]
        for nm, g in (("i", gi), ("j", gj), ("k", gk)):
            _expect(isinstance(g, int) and 0 <= g < total,
                    f"index {nm}={g} out of range 0..{total - 1}", loc)
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
    if data.get("bigrading") is not None:
        bg = data["bigrading"]
        _expect(isinstance(bg, list) and len(bg) == total,
                "bigrading must label every basis element", "$.bigrading")
        degree_of = []
        for k, d in enumerate(dims):
            degree_of.extend([k] * d)
        for gi, pq in enumerate(bg):
            _expect(isinstance(pq, list) and len(pq) == 2
                    and all(isinstance(t, int) for t in pq),
                    "bigrading entries must be [p, q] integer pairs",
                    f"$.bigrading[{gi}]")
            _expect(pq[0] + pq[1] == degree_of[gi],
                    f"bidegree ({pq[0]},{pq[1]}) does not sum to degree "
                    f"{degree_of[gi]}", f"$.bigrading[{gi}]")
        try:
            ring = BigradedAlgebra(field_name, dims, basis, products, integration,
                                   [tuple(pq) for pq in bg], quadratic_form=qform)
        except ValueError as exc:
            raise RingFormatError(str(exc), "$") from exc
    else:
        try:
            ring = GradedAlgebra(field_name, dims, basis, products, integration,
                                 quadratic_form=qform)
        except ValueError as exc:
            raise RingFormatError(str(exc), "$") from exc
    return ring.require_valid() if validate else ring


def load_ring(path, validate=True):
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
    return ring_from_dict(data, validate=validate)


def _reject_float(token):
    raise RingFormatError(f"float literal {token!r} rejected: coefficients must "
                          "be exact strings")
