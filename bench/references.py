"""Reference answers, computed off the timed path, for every query kind.

Each checker takes the query's ``check`` record (see ``workloads``), the
captured stdout and the exit code, and returns a list of mismatch
descriptions (empty when the answer is right).  The references are
independent of the code path that produced the answer:

* covers: closed forms for surface groups and the T^3 2-skeleton, graph
  covers for free groups, and otherwise b0 times the first Betti number
  of the Reidemeister-Schreier kernel presentation; the Euler
  characteristic must be |H| (1 - n + m);
* profiles: ``omega_by_alternating_sum`` for elementary abelian groups,
  the closed form for cyclic groups, and Jennings' product formula from
  hand-derived dimension-subgroup ranks for table groups;
* presentations: exponent sums and ranks recomputed here in plain Python.
"""

from __future__ import annotations

import json

from workloads import exponent_matrix, rank_mod


def check(ref: dict, stdout: str, exit_code: int, hcc) -> list[str]:
    if exit_code != 0:
        return [f"exit code {exit_code}, expected 0"]
    try:
        out = json.loads(stdout)
    except ValueError:
        return ["stdout is not one JSON document"]
    errors: list[str] = []
    _CHECKERS[ref["kind"]](ref, out, hcc, errors)
    return errors


def _expect(errors, what, got, want):
    if got != want:
        errors.append(f"{what}: got {got!r}, expected {want!r}")


# --- covers -----------------------------------------------------------------

def _kernel_b1(ref, hcc) -> int:
    pres = hcc.parse_presentation(ref["pres"])
    target = ref["target"]
    if target[0] == "ea":
        group = hcc.make_elementary_abelian(target[1], target[2])
        images = [group.ea_index[tuple(x)] for x in ref["images"]]
    else:
        group = hcc.make_cyclic(target[1])
        images = [x % target[1] for x in ref["images"]]
    hom = hcc.Homomorphism(pres, group, images)
    kernel = hcc.reidemeister_schreier(pres, hom)
    return hcc.complex_summary(kernel, ref["p"]).b1


def cover_betti(ref, hcc) -> tuple[int, int, int]:
    order, k = ref["order"], ref["image_order"]
    n, m = ref["n"], ref["m"]
    b0 = order // k
    family = ref["family"]
    if family[0] == "surface":
        g = family[1]
        b1, b2 = b0 * (2 + k * (2 * g - 2)), b0
    elif family[0] == "t3":
        b1, b2 = 3 * b0, b0 * (k + 2)
    elif family[0] == "free":
        b1, b2 = b0 * (1 + k * (n - 1)), 0
    else:
        b1 = b0 * _kernel_b1(ref, hcc)
        b2 = order * (1 - n + m) - b0 + b1
    return b0, b1, b2


def _verdict_expected(ref) -> int | None:
    """Rank r of the deck group when it is (Z_p)^r for the coefficient p."""
    target, p = ref["target"], ref["p"]
    if target[0] == "ea" and target[1] == p:
        return target[2]
    if target[0] == "cyclic" and target[1] == p:
        return 1
    return None


def _check_cover(ref, out, hcc, errors):
    order, n, m = ref["order"], ref["n"], ref["m"]
    b0, b1, b2 = cover_betti(ref, hcc)
    _expect(errors, "euler", b0 - b1 + b2, order * (1 - n + m))
    for key, want in (("p", ref["p"]), ("order", order), ("surjective", ref["image_order"] == order),
                      ("b0", b0), ("b1", b1), ("b2", b2), ("hrk", b0 + b1 + b2),
                      ("euler", order * (1 - n + m))):
        _expect(errors, key, out.get(key), want)
    base = out.get("base") or {}
    _expect(errors, "base", [base.get("b0"), base.get("b1"), base.get("b2")], ref["base"])
    r = _verdict_expected(ref)
    verdict = out.get("verdict")
    if r is None:
        _expect(errors, "verdict", verdict, None)
        return
    if not isinstance(verdict, dict):
        errors.append("verdict missing")
        return
    hrk = b0 + b1 + b2
    for key, want in (("r", r), ("threshold", 2**r), ("hrk", hrk), ("passed", hrk >= 2**r),
                      ("equality", hrk == 2**r), ("connected", b0 == 1), ("unclassified", False)):
        _expect(errors, f"verdict.{key}", verdict.get(key), want)


# --- filtration profiles -----------------------------------------------------

def _dims_from_lambdas(order, lambdas):
    dims = [order]
    for lam in lambdas:
        dims.append(dims[-1] - lam)
    return dims


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def jennings_lambdas(p, ranks):
    """Coefficients of prod_k (1 + t^k + ... + t^{(p-1)k})^{d_k}."""
    poly = [1]
    for k, d in ranks.items():
        factor = [0] * ((p - 1) * int(k) + 1)
        for i in range(p):
            factor[i * int(k)] = 1
        for _ in range(d):
            poly = _poly_mul(poly, factor)
    return poly


def profile(p, group, hcc, jennings=None):
    """(delta_dims, lambdas, nilpotent, stabilization_k) of F_p[group]."""
    kind = group[0]
    if kind == "ea":
        _, q, r = group
        lambdas = [hcc.omega_by_alternating_sum(q, r, k) for k in range(r * (q - 1) + 1)]
        dims = _dims_from_lambdas(q**r, lambdas)
    elif kind == "cyclic":
        n = group[1]
        pa = 1
        while n % (pa * p) == 0:
            pa *= p
        dims = [n - k for k in range(pa + 1)] + ([n - pa] if n != pa else [])
    else:
        ranks = {int(k): v for k, v in jennings.items()}
        dims = _dims_from_lambdas(group[1], jennings_lambdas(p, ranks))
    lambdas = [dims[k] - dims[k + 1] for k in range(len(dims) - 1)]
    nilpotent = dims[-1] == 0
    return dims, lambdas, nilpotent, len(dims) - 1 if nilpotent else len(dims) - 2


def _ref_profile(ref, hcc):
    return profile(ref["p"], ref["group"], hcc, ref.get("jennings"))


def _check_ring(ref, out, hcc, errors):
    dims, lambdas, nilpotent, stab = _ref_profile(ref, hcc)
    for key, want in (("p", ref["p"]), ("order", dims[0]), ("delta_dims", dims), ("lambdas", lambdas),
                      ("nilpotent", nilpotent), ("stabilization_k", stab)):
        _expect(errors, key, out.get(key), want)


def _bounds_report(b1, d, order, lambdas):
    values, prefix = [], 0
    for lam in lambdas:
        values.append(1 + b1 * lam + d * prefix - order)
        prefix += lam
    best = max(values)
    return [{"k": k, "value": v} for k, v in enumerate(values)], {"k": values.index(best), "value": best}


def _check_bounds(ref, out, hcc, errors, actual=None):
    _, lambdas, _, _ = _ref_profile(ref, hcc)
    bounds, best = _bounds_report(ref["b1_G"], ref["d"], ref["order"], lambdas)
    tight = None if actual is None else actual == best["value"]
    for key, want in (("p", ref["p"]), ("b1_G", ref["b1_G"]), ("d", ref["d"]), ("bounds", bounds),
                      ("best", best), ("actual", actual), ("tight", tight), ("verdict", "ok")):
        _expect(errors, key, out.get(key), want)


def _check_bounds_actual(ref, out, hcc, errors):
    target = ref["target"]
    group = ["ea", target[1], target[2]] if target[0] == "ea" else ["cyclic", target[1]]
    _check_bounds({**ref, "group": group}, out, hcc, errors, actual=cover_betti(ref, hcc)[1])


# --- omega -------------------------------------------------------------------

def _check_omega(ref, out, hcc, errors):
    p, r = ref["p"], ref["r"]
    coeffs = [1]
    for _ in range(r):
        coeffs = _poly_mul(coeffs, [1] * p)
    rows = [{"k": k, "omega": c, "pi": (r - 1) * c - sum(coeffs[k + 1:])} for k, c in enumerate(coeffs)]
    _expect(errors, "rows", out.get("rows"), rows)


def _check_suite(ref, out, hcc, errors):
    _expect(errors, "violations", out.get("violations"), [])
    if not out.get("rows"):
        errors.append("suite printed no rows")


# --- presentations -----------------------------------------------------------

def parse_words(text):
    """Generator names and exponent lists of a printed presentation."""
    body = text.strip()[1:-1]
    gens_part, _, rels_part = body.partition("|")
    names = [g.strip() for g in gens_part.split(",")]
    relators = []
    for rel in filter(None, (r.strip() for r in rels_part.split(","))):
        word = []
        for term in rel.split():
            if term == "1":
                continue
            name, _, exp = term.partition("^")
            e = int(exp) if exp else 1
            word += [(names.index(name), 1 if e > 0 else -1)] * abs(e)
        relators.append(word)
    return names, relators


def _check_present(ref, out, hcc, errors):
    p, n, exps = ref["p"], ref["n"], ref["exponents"]
    m = len(exps[0])
    rk = rank_mod(exps, p)
    for key, want in (("p", p), ("n_generators", n), ("n_relators", m), ("witness_deficiency", n - m),
                      ("boundary", [[x % p for x in row] for row in exps]), ("rank", rk),
                      ("b0", 1), ("b1", n - rk), ("b2", m - rk), ("euler", 1 - n + m)):
        _expect(errors, key, out.get(key), want)
    normalized = out.get("normalized") or {}
    names, relators = parse_words(normalized.get("presentation", "<|>"))
    _expect(errors, "normalized shape", (len(names), len(relators)), (n, m))
    boundary = [[x % p for x in row] for row in exponent_matrix(len(names), relators)]
    _expect(errors, "normalized.boundary", normalized.get("boundary"), boundary)
    diagonal = [boundary[i][i] for i in range(rk)] if len(boundary) >= rk else []
    _expect(errors, "normalized.diagonal", normalized.get("diagonal"), diagonal)
    off = [(i, j) for i in range(n) for j in range(m) if boundary[i][j] and (i != j or i >= rk)]
    if off or 0 in diagonal:
        errors.append("normalized boundary is not diagonal of full rank")


def _check_iterate(ref, out, hcc, errors):
    p = ref["p"]
    _expect(errors, "p", out.get("p"), p)
    stages = out.get("stages") or []
    if not stages:
        errors.append("no stages")
        return
    _expect(errors, "stage 0", stages[0],
            {"index": 1, "b1": ref["base"][1], "generators": ref["n"], "relators": ref["m"]})
    for prev, st in zip(stages, stages[1:]):
        index = p ** prev["b1"]
        _expect(errors, "stage index", st.get("index"), index)
        _expect(errors, "stage generators", st.get("generators"), index * (prev["generators"] - 1) + 1)
        _expect(errors, "stage relators", st.get("relators"), index * prev["relators"])
        if prev["generators"] - prev["relators"] >= 1 and st.get("b1", 0) < 2 ** (prev["b1"] - 1):
            errors.append(f"stage b1 {st.get('b1')} below the growth bound")
    if len(stages) > ref["steps"] + 1:
        errors.append("more stages than steps")
    if out.get("truncated"):
        if not isinstance(out.get("reason"), str):
            errors.append("truncated without a reason")
    elif len(stages) != ref["steps"] + 1 and stages[-1]["b1"] != 0:
        errors.append("stopped early without truncation")



_CHECKERS = {
    "cover": _check_cover,
    "bounds_actual": _check_bounds_actual,
    "ring": _check_ring,
    "bounds": _check_bounds,
    "omega": _check_omega,
    "suite": _check_suite,
    "present": _check_present,
    "iterate": _check_iterate,
}
