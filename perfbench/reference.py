"""Independent answer check for the benchmark's queries.

Nothing here imports vclde.  Every numeric answer is recomputed by a plain
forward recursion over the generated input documents,

    y_t = phi_1(t) y_{t-1} + ... + phi_p(t) y_{t-p} + v_t,

exactly for rationals and within rel 1e-9 / abs 1e-12 for binary64.  The
Casoratian is checked against Abel's product, symbolic outputs are evaluated
at a seeded rational point, and expansions against an elimination
determinant.
"""

from __future__ import annotations

import contextlib
import json
import math
import random
import sys
from fractions import Fraction

REL_TOL = 1e-9
ABS_TOL = 1e-12

OK, FAILED, KNOWN = "ok", "failed", "known-defect"


@contextlib.contextmanager
def unlimited_int_digits():
    """Lift CPython's int/str digit limit while parsing huge exact answers."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


# ------------------------------------------------------------ recursion

def _number(raw, arith: str):
    return float(raw) if arith == "float64" else Fraction(raw)


def row_source(doc: dict, arith: str):
    """(p, t -> (phi_1(t), ..., phi_p(t))) for a coefficient document."""
    p = doc["p"]
    kind = doc["kind"]
    if kind == "constant":
        row = tuple(_number(v, arith) for v in doc["phi"])
        return p, lambda t: row
    if kind == "periodic":
        cycle = [tuple(_number(v, arith) for v in r) for r in doc["rows"]]
        period = len(cycle)
        return p, lambda t: cycle[t % period]
    rows = {int(k): tuple(_number(v, arith) for v in r) for k, r in doc["rows"].items()}
    return p, rows.__getitem__


def forward(p, row_at, s, init, forcing_at, t):
    """y_t from the window init = (y_{s-p+1}, ..., y_s)."""
    if t <= s:
        return init[t - (s - p + 1)]
    window = list(init)
    for u in range(s + 1, t + 1):
        row = row_at(u)
        acc = forcing_at(u)
        for m in range(p):
            acc = acc + row[m] * window[-1 - m]
        window.append(acc)
        window.pop(0)
    return window[-1]


def _unit_window(p, one, zero, position):
    return [one if i == position else zero for i in range(p)]


def green_value(p, row_at, t, s, one, zero):
    return forward(p, row_at, s, _unit_window(p, one, zero, p - 1), lambda u: zero, t)


def fundamental_matrix(p, row_at, t, s, one, zero):
    """Entry (i, j) is the branch-j solution at t - i + 1."""
    columns = []
    for j in range(1, p + 1):
        init = _unit_window(p, one, zero, p - j)
        columns.append([
            forward(p, row_at, s, init, lambda u: zero, t - i + 1) for i in range(1, p + 1)
        ])
    return [[columns[j][i] for j in range(p)] for i in range(p)]


def abel_casoratian(p, row_at, t, s, one):
    """Casoratian by Abel's formula: prod over u of (-1)^(p+1) phi_p(u)."""
    sign = -1 if p % 2 == 0 else 1
    total = one
    for u in range(s + 1, t + 1):
        total = total * (sign * row_at(u)[p - 1])
    return total


def elimination_det(rows):
    """Exact determinant of a square Fraction matrix by Gaussian elimination."""
    a = [list(r) for r in rows]
    n = len(a)
    det = Fraction(1)
    for c in range(n):
        pivot = next((r for r in range(c, n) if a[r][c] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            a[c], a[pivot] = a[pivot], a[c]
            det = -det
        det *= a[c][c]
        for r in range(c + 1, n):
            f = a[r][c] / a[c][c]
            if f:
                for k in range(c, n):
                    a[r][k] -= f * a[c][k]
    return det


# ------------------------------------------------------------- symbolic

class SymbolicPoint:
    """Seeded rational values for the symbols phi_m(t), y(t), v(t), h[i,j]."""

    def __init__(self, seed: int):
        self.seed = seed
        self._cache: dict[tuple, Fraction] = {}

    def value(self, atom: tuple) -> Fraction:
        if atom not in self._cache:
            rng = random.Random(f"{self.seed}:{atom}")
            self._cache[atom] = Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 7))
        return self._cache[atom]

    def phi_row(self, p: int):
        return lambda t: tuple(self.value(("phi", m, t)) for m in range(1, p + 1))

    def evaluate(self, terms: list) -> Fraction:
        total = Fraction(0)
        for term in terms:
            sign = term["sign"]
            if sign not in (1, -1):
                raise ValueError(f"bad term sign {sign!r}")
            prod = Fraction(sign)
            for f in term["factors"]:
                kind = f["kind"]
                if kind == "h":
                    key = ("h", f["i"], f["j"])
                elif kind == "phi":
                    key = ("phi", f["m"], f["t"])
                else:
                    key = (kind, f["t"])
                prod *= self.value(key)
            total += prod
        return total


# ---------------------------------------------------------------- check

class Checker:
    """Compares one query's CLI outcome with the benchmark's own answer."""

    def __init__(self, docs: dict, seed: int):
        self.docs = docs
        self.point = SymbolicPoint(seed)
        self._expected: dict[str, object] = {}

    def check(self, query, code: int, out: str, err: str) -> tuple[str, str]:
        expect = query.expect
        if expect["kind"] == "reject":
            return self._check_reject(expect, code, err)
        if code != 0:
            defect = query.known_defect
            if defect and _matches_error(defect, code, err):
                return KNOWN, f"exit {code}: {defect['error']} (known defect)"
            return FAILED, f"exit {code}: {err.strip()[-200:]}"
        try:
            payload = json.loads(out)
            return self._check_payload(query, payload)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            return FAILED, f"unreadable output: {exc!r}"[:300]

    def _check_reject(self, expect, code, err):
        if not _matches_error(expect, code, err):
            return FAILED, f"expected exit {expect['code']} {expect['error']}, got {code}"
        return OK, ""

    def _check_payload(self, query, payload):
        expect = query.expect
        kind = expect["kind"]
        if kind == "verify":
            good = payload["passed"] is True and all(c["passed"] for c in payload["checks"])
            return (OK, "") if good else (FAILED, "verify did not pass")
        if kind == "expand":
            return self._check_expand(expect["order"], payload)
        if query.qid not in self._expected:
            self._expected[query.qid] = self._reference(expect)
        want = self._expected[query.qid]
        if kind == "green":
            got = [payload["H"]]
        elif kind == "solve":
            got = [payload["y"]]
        else:
            got = [v for row in payload["matrix"] for v in row] + [payload["casoratian"]]
        if len(got) != len(want):
            return FAILED, f"expected {len(want)} values, got {len(got)}"
        for g, w in zip(got, want):
            if not self._same(expect["arith"], g, w):
                return FAILED, f"value mismatch: got {str(g)[:80]}, want {str(w)[:80]}"
        return OK, ""

    def _same(self, arith, got, want) -> bool:
        if arith == "float64":
            return (
                isinstance(got, float)
                and math.isfinite(got)
                and math.isclose(got, want, rel_tol=REL_TOL, abs_tol=ABS_TOL)
            )
        if arith == "symbolic":
            return self.point.evaluate(got) == want
        if not isinstance(got, str):
            return False
        with unlimited_int_digits():
            return Fraction(got) == want

    def _model(self, expect):
        arith = expect["arith"]
        if arith == "symbolic":
            p = expect["p"]
            return p, self.point.phi_row(p), Fraction(1), Fraction(0)
        p, row_at = row_source(self.docs[expect["coeffs"]], arith)
        one, zero = (1.0, 0.0) if arith == "float64" else (Fraction(1), Fraction(0))
        return p, row_at, one, zero

    def _reference(self, expect) -> list:
        p, row_at, one, zero = self._model(expect)
        kind = expect["kind"]
        if kind == "green":
            return [green_value(p, row_at, expect["t"], expect["s"], one, zero)]
        if kind == "solve":
            return [self._solution(expect, p, row_at, zero)]
        t, s = expect["t"], expect["s"]
        matrix = fundamental_matrix(p, row_at, t, s, one, zero)
        return [v for row in matrix for v in row] + [abel_casoratian(p, row_at, t, s, one)]

    def _solution(self, expect, p, row_at, zero):
        arith = expect["arith"]
        t = expect["t"]
        if arith == "symbolic":
            s = expect["s"]
            init = [self.point.value(("y", u)) for u in range(s - p + 1, s + 1)]
            return forward(p, row_at, s, init, lambda u: self.point.value(("v", u)), t)
        doc = self.docs[expect["problem"]]
        s = doc["s"]
        init = [_number(v, arith) for v in doc["init"]]
        forcing = {int(k): _number(v, arith) for k, v in doc["forcing"].items()}
        force_at = (lambda u: forcing[u]) if forcing else (lambda u: zero)
        return forward(p, row_at, s, init, force_at, t)

    def _check_expand(self, k, payload):
        count = 1 << (k - 1)
        if payload["verified"] is not True:
            return FAILED, "expansion not verified"
        if payload["count"] != count or len(payload["terms"]) != count:
            return FAILED, f"expected {count} terms"
        h = [
            [self.point.value(("h", i, j)) if j <= i + 1 else Fraction(0)
             for j in range(1, k + 1)]
            for i in range(1, k + 1)
        ]
        if self.point.evaluate(payload["terms"]) != elimination_det(h):
            return FAILED, "expansion differs from the determinant"
        return OK, ""


def _matches_error(expect: dict, code: int, err: str) -> bool:
    if code != expect["code"]:
        return False
    lines = [line for line in err.splitlines() if line.strip()]
    if not lines:
        return False
    try:
        body = json.loads(lines[-1])
    except ValueError:
        return False
    if body.get("error") != expect["error"]:
        return False
    if "t" in expect and body.get("t") != expect["t"]:
        return False
    return expect.get("message_contains", "") in body.get("message", "")
