"""Seeded inputs, op cycles and expected results of the three workloads.

The program sees only the model files written here. Every expected value is
computed from the closed forms of the constructions, never read back from
the program's own ``expected`` echo, so a wrong engine cannot vouch for
itself.

An op is one or more CLI calls timed together; a cycle is a fixed list of
ops. Runs execute whole cycles, so the mix of op kinds, and therefore every
percentile, is the same in every run.
"""

import json
import math
import os
import random
from dataclasses import dataclass, field

# Acceptance tolerance of the test suite (tests/test_acceptance.py).
TOL = 1e-8

WORKLOADS = ("cli-cold", "sweep-3d", "scale-heis")

# Boeckx-invariant ranges per class, kept away from the |I| = 1 guard band.
CLASS_RANGES = {"I": (1.4, 2.6), "II": (-0.6, 0.6), "III": (-2.6, -1.4)}


@dataclass
class Step:
    """One CLI call: argv relative to the work directory, and its expectation."""

    argv: list
    rc: int = 0
    expect: dict = field(default_factory=dict)  # see check_step
    json_out: bool = True


@dataclass
class Op:
    kind: str
    steps: list
    reject: bool = False


# ---------------------------------------------------------------- model files


def _contact_3d(name, brackets, g=None):
    return {
        "name": name,
        "dim": 3,
        "basis_labels": ["X", "Y", "xi"],
        "brackets": brackets,
        "structure": {
            "kind": "contact",
            "phi": [[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]],
            "xi": [0.0, 0.0, 1.0],
            "eta": [0.0, 0.0, 1.0],
            "g": g or [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
        },
    }


def family_3d(lam, d, metric_scale=1.0):
    """[X,Y] = 2 xi, [xi,X] = (lam + d) Y, [xi,Y] = (lam - d) X; phi X = Y, g = I."""
    brackets = [
        {"i": 1, "j": 2, "coeffs": {"3": 2.0}},
        {"i": 3, "j": 1, "coeffs": {"2": lam + d}},
        {"i": 3, "j": 2, "coeffs": {"1": lam - d}},
    ]
    g = [[metric_scale if i == j else 0.0 for j in range(3)] for i in range(3)]
    return _contact_3d(f"family-3d({lam:.6g},{d:.6g})", brackets, g)


def broken_jacobi_3d(c):
    """Antisymmetric constants that violate the Jacobi identity (for c != 0)."""
    brackets = [
        {"i": 1, "j": 2, "coeffs": {"3": 2.0}},
        {"i": 2, "j": 3, "coeffs": {"1": c}},
        {"i": 3, "j": 1, "coeffs": {"1": c}},
    ]
    return _contact_3d("broken-jacobi-3d", brackets)


def non_nullity_3d(a, r):
    """[X,Y] = 2 xi + a X, [xi,Y] = r X: a valid contact structure, no nullity condition."""
    brackets = [
        {"i": 1, "j": 2, "coeffs": {"1": a, "3": 2.0}},
        {"i": 3, "j": 2, "coeffs": {"1": r}},
    ]
    return _contact_3d("non-nullity-3d", brackets)


def nilpotent_h_5d():
    """The 5-dim paracontact model with h~ != 0 and h~^2 = 0 (kappa~ = -1)."""
    brackets = [
        {"i": 1, "j": 2, "coeffs": {"2": 2.0}},
        {"i": 1, "j": 3, "coeffs": {"5": 2.0}},
        {"i": 2, "j": 3, "coeffs": {"4": -2.0}},
        {"i": 2, "j": 4, "coeffs": {"3": 2.0, "5": 2.0}},
        {"i": 5, "j": 1, "coeffs": {"3": -2.0}},
        {"i": 5, "j": 2, "coeffs": {"4": -2.0}},
    ]
    phi = [[0.0] * 5 for _ in range(5)]
    g = [[0.0] * 5 for _ in range(5)]
    for i, v in enumerate((1.0, 1.0, -1.0, -1.0)):
        phi[i][i] = v
    g[0][2] = g[2][0] = g[1][3] = g[3][1] = g[4][4] = 1.0
    return {
        "name": "nilpotent-h-5d",
        "dim": 5,
        "basis_labels": ["X1", "X2", "Y1", "Y2", "xi"],
        "brackets": brackets,
        "structure": {"kind": "paracontact", "phi": phi, "xi": [0.0, 0.0, 0.0, 0.0, 1.0],
                      "eta": [0.0, 0.0, 0.0, 0.0, 1.0], "g": g},
    }


def heisenberg(dim, kind, metric_scale=1.0, order=None):
    """H_dim with [X_i, Y_i] = 2 xi.

    contact: phi X_i = Y_i, g = I (Sasakian, kappa = 1).
    paracontact: phi~ = +1 on X, -1 on Y, g~ pairs X_i with Y_i (para-Sasakian,
    kappa~ = -1). ``order`` places the canonical basis vector k at position
    order[k], so a seed can shuffle the basis without changing the geometry.
    """
    n = (dim - 1) // 2
    pos = list(order) if order is not None else list(range(dim))
    xs, ys, xi = [pos[i] for i in range(n)], [pos[n + i] for i in range(n)], pos[dim - 1]
    labels = [""] * dim
    phi = [[0.0] * dim for _ in range(dim)]
    g = [[0.0] * dim for _ in range(dim)]
    brackets = []
    for i, (x, y) in enumerate(zip(xs, ys)):
        labels[x], labels[y] = f"X{i + 1}", f"Y{i + 1}"
        brackets.append({"i": x + 1, "j": y + 1, "coeffs": {str(xi + 1): 2.0}})
        if kind == "contact":
            phi[y][x], phi[x][y] = 1.0, -1.0
            g[x][x] = g[y][y] = metric_scale
        else:
            phi[x][x], phi[y][y] = 1.0, -1.0
            g[x][y] = g[y][x] = metric_scale
    labels[xi] = "xi"
    g[xi][xi] = metric_scale
    e_xi = [1.0 if k == xi else 0.0 for k in range(dim)]
    return {
        "name": f"heisenberg-{dim}d-{kind}",
        "dim": dim,
        "basis_labels": labels,
        "brackets": brackets,
        "structure": {"kind": kind, "phi": phi, "xi": e_xi, "eta": e_xi, "g": g},
    }


def write_model(workdir, name, doc):
    path = os.path.join(workdir, name)
    with open(path, "w", encoding="utf-8") as fh:
        if isinstance(doc, str):
            fh.write(doc)
        else:
            json.dump(doc, fh)
    return name


# ------------------------------------------------------------- expectations


def family_point(rng, cls):
    """A seeded (lambda, d) of the given class; IV and V sit exactly on I = +-1."""
    lam = rng.uniform(0.6, 1.6)
    if cls == "IV":
        return lam, lam
    if cls == "V":
        return lam, -lam
    lo, hi = CLASS_RANGES[cls]
    return lam, rng.uniform(lo, hi) * lam


def family_expect(lam, d, cls):
    return {"kappa": 1.0 - lam * lam, "mu": 2.0 - 2.0 * d, "boeckx": d / lam, "class": cls}


def tower_expect(lam, d, steps):
    """Node constants of derive --steps N (see tower.sequence)."""
    kappa, mu = 1.0 - lam * lam, 2.0 - 2.0 * d
    contact_branch = abs(d / lam) < 1.0
    nodes = [("contact", kappa, mu)]
    for k in range(1, steps):
        if contact_branch and k % 2 == 0:
            nodes.append(("contact", kappa + (1.0 - mu / 2.0) ** 2, 2.0))
        else:
            nodes.append(("paracontact", kappa - 2.0 + (1.0 - mu / 2.0) ** 2, 2.0))
    return nodes


def _num(x):
    """JSON number, or the repr string the CLI writes for nan/inf, as a float."""
    if isinstance(x, bool) or x is None:
        return math.nan
    if isinstance(x, (int, float)):
        return float(x)
    try:
        return float(x)
    except (TypeError, ValueError):
        return math.nan


def residuals(report):
    """Every residual in a report: 'residuals' and 'identities' tables, and
    scalar keys ending in 'residual' or '_delta' (None means not computed)."""
    out = []
    if isinstance(report, dict):
        for key, val in report.items():
            if key in ("residuals", "identities") and isinstance(val, dict):
                out.extend(_num(v) for v in val.values())
            elif (key.endswith("residual") or key.endswith("_delta")) and not isinstance(val, (dict, list)):
                if val is not None:
                    out.append(_num(val))
            else:
                out.extend(residuals(val))
    elif isinstance(report, list):
        for item in report:
            out.extend(residuals(item))
    return out


def worst(values):
    """max |v| that propagates NaN: one NaN residual makes the whole op fail."""
    top = 0.0
    for v in values:
        if v != v:
            return math.nan
        top = max(top, abs(v))
    return top


def _close(got, want):
    got = _num(got)
    return abs(got - want) <= TOL * max(1.0, abs(want))


def check_step(rc, report, stdout, step):
    """None when the call's output matches ``step``, else a short reason."""
    if rc != step.rc:
        return f"exit code {rc}, expected {step.rc}"
    exp = step.expect
    if "batch" in exp:
        return _check_batch(stdout, exp["batch"])
    if not step.json_out:
        return None
    if report is None:
        return "no JSON report"
    if exp.get("not_nullity"):
        nul = report.get("nullity") or {}
        return None if nul.get("error") == "not_nullity" else "expected not_nullity"
    if step.rc != 0:
        return None if report.get("valid") is False else "rejected model reported valid"
    if report.get("valid") is not True:
        return "model reported invalid"
    top = worst(residuals(report))
    if not top <= TOL:
        return f"residual {top!r} above {TOL}"
    nul = report.get("nullity") or {}
    for key in ("kappa", "mu", "boeckx"):
        if key in exp and not _close(nul.get(key), exp[key]):
            return f"{key} = {nul.get(key)!r}, expected {exp[key]!r}"
    for key in ("class", "spectral_type"):
        if key in exp and nul.get(key) != exp[key]:
            return f"{key} = {nul.get(key)!r}, expected {exp[key]!r}"
    if exp.get("class") in ("I", "II", "III", "IV", "V") and nul.get("class_pang_checked") != exp["class"]:
        return f"class_pang_checked = {nul.get('class_pang_checked')!r}"
    flags = report.get("flags") or {}
    for key, want in exp.get("flags", {}).items():
        if flags.get(key) is not want:
            return f"flag {key} = {flags.get(key)!r}, expected {want}"
    if "tower" in exp:
        nodes = report.get("tower") or []
        if len(nodes) != len(exp["tower"]):
            return f"{len(nodes)} tower nodes, expected {len(exp['tower'])}"
        for node, (kind, kappa, mu) in zip(nodes, exp["tower"]):
            if node.get("kind") != kind or not _close(node.get("kappa"), kappa) or not _close(node.get("mu"), mu):
                return f"tower node {node.get('index')} = {node.get('kind')}, {node.get('kappa')!r}, {node.get('mu')!r}"
    if exp.get("sasakian_ok") and (report.get("sasakian_construction") or {}).get("checks", {}).get("valid") is not True:
        return "Sasakian construction not verified"
    if exp.get("legendre3_ok") and (report.get("legendre3") or {}).get("checks", {}).get("valid") is not True:
        return "second bi-Legendrian pair not verified"
    return None


def _check_batch(stdout, expected):
    """Batch mode prints human text with 6 significant digits; compare at that precision."""
    sections = stdout.split("== ")[1:]
    if len(sections) != len(expected):
        return f"{len(sections)} batch sections, expected {len(expected)}"
    for text, (name, exp) in zip(sections, expected):
        if text.split("\n", 1)[0] != os.path.join("batch", name):
            return f"batch section for {name} missing"
        line = next((ln for ln in text.splitlines() if ln.startswith("nullity: kappa = ")), None)
        if line is None:
            return f"batch {name}: no nullity line"
        fields = line.replace(",", " ").split()
        kappa, mu = float(fields[3]), float(fields[6])
        if line.rsplit("class ", 1)[-1] != exp["class"]:
            return f"batch {name}: class not {exp['class']}"
        for got, want in ((kappa, exp["kappa"]), (mu, exp["mu"])):
            if not abs(got - want) <= TOL + 5e-6 * abs(want):
                return f"batch {name}: {got!r} != {want!r}"
        if "valid = True" not in text:
            return f"batch {name}: structure not valid"
    return None


# ---------------------------------------------------------------- workloads


def _analyze(path, expect, full=True):
    argv = ["analyze", path] + (["--sasakian", "--legendre3"] if full else [])
    return Step(argv + ["--json", "out.json"], 0, expect)


def _derive(name, lam, d, cls, steps=6):
    return Step(["derive", name, "--steps", str(steps), "--json", "out.json"], 0,
                {**family_expect(lam, d, cls), "tower": tower_expect(lam, d, steps)})


def _family_file(workdir, rng, cls, tag):
    lam, d = family_point(rng, cls)
    name = write_model(workdir, f"family-{tag}.json", family_3d(lam, d))
    return name, lam, d


def _family_analyze_expect(lam, d, cls):
    exp = family_expect(lam, d, cls)
    if cls in ("I", "III"):
        exp.update(sasakian_ok=True, legendre3_ok=True)
    return exp


NILPOTENT_EXPECT = {"kappa": -1.0, "spectral_type": "nilpotent"}
HEIS3_EXPECT = {"kappa": -1.0, "flags": {"para_sasakian": True, "integrable": True}}
SASAKIAN_EXPECT = {"kappa": 1.0, "class": "Sasakian", "flags": {"sasakian": True}}
PARA_SASAKIAN_EXPECT = {"kappa": -1.0, "flags": {"para_sasakian": True, "integrable": True}}


def build(workload, seed, workdir):
    """Write the workload's model files into ``workdir``; return its op cycle."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "cli-cold":
        return _build_cli_cold(rng, workdir)
    if workload == "sweep-3d":
        return _build_sweep(rng, workdir)
    if workload == "scale-heis":
        return _build_heis(rng, workdir, 21)
    raise ValueError(f"unknown workload {workload!r}")


def _build_cli_cold(rng, workdir):
    files = {cls: _family_file(workdir, rng, cls, cls) for cls in ("I", "II", "III", "IV")}
    nil = write_model(workdir, "nilpotent-h-5d.json", nilpotent_h_5d())
    h3 = write_model(workdir, "heisenberg-3d.json", heisenberg(3, "paracontact"))
    bj = write_model(workdir, "broken-jacobi-3d.json", broken_jacobi_3d(rng.uniform(0.5, 1.5)))
    lam, d = family_point(rng, "II")
    sm = write_model(workdir, "scaled-metric-3d.json", family_3d(lam, d, metric_scale=2.0))
    bad = write_model(workdir, "malformed.json", '{"dim": 3, "brackets": [')
    os.makedirs(os.path.join(workdir, "batch"), exist_ok=True)
    batch = []
    for k, cls in enumerate(("I", "II", "III", "IV", "V", "I", "II", "III")):
        lam_b, d_b = family_point(rng, cls)
        name = f"m{k}.json"
        write_model(workdir, os.path.join("batch", name), family_3d(lam_b, d_b))
        batch.append((name, family_expect(lam_b, d_b, cls)))

    def fam(cls, full):
        name, lam_c, d_c = files[cls]
        exp = _family_analyze_expect(lam_c, d_c, cls) if full else family_expect(lam_c, d_c, cls)
        return _analyze(name, exp, full)

    return [
        Op("analyze-full-I", [fam("I", True)]),
        Op("analyze-full-III", [fam("III", True)]),
        Op("analyze-II", [fam("II", False)]),
        Op("analyze-nilpotent-5d", [_analyze(nil, NILPOTENT_EXPECT, False)]),
        Op("analyze-heisenberg-3d", [_analyze(h3, HEIS3_EXPECT, False)]),
        Op("derive-I", [_derive(*files["I"], "I")]),
        Op("derive-II", [_derive(*files["II"], "II")]),
        Op("analyze-batch", [Step(["analyze", "--batch", "batch"], 0, {"batch": batch}, json_out=False)]),
        # The four designated rejects form one op: their latencies fall in two
        # groups (about 640 and 730 ms), and a median over four separate kinds
        # would sit on the edge between those groups.
        Op("reject-designated", [
            Step(["analyze", bj, "--json", "out.json"], 1),
            Step(["analyze", sm, "--json", "out.json"], 1),
            Step(["analyze", bad], 2, json_out=False),
            Step(["derive", files["IV"][0], "--steps", "6"], 3, json_out=False),
        ], reject=True),
    ]


SWEEP_VARIANTS = 4
# Per variant, 16 accepted ops fall in latency groups: 3-dim analyze of
# II/IV/V, Heisenberg and the nilpotent 5-dim model (~8-15 ms, 31 %), eight
# derives on the |I| > 1 branch (~16 ms, 50 %), and the derive on class II and
# full analyze of I/III (~20-23 ms, 19 %). Six rejects: jacobi and metric
# (~3 ms), three not-nullity (~4 ms), derive at |I| = 1 (~10 ms). With these
# counts p50 falls well inside the largest group, p90 inside the top group and
# the reject median inside the not-nullity group, never on an edge between modes.
SWEEP_DERIVE_CLASSES = ("I", "III") * 4 + ("II",)
SWEEP_NOT_NULLITY = 3
# The not-nullity models' (a, r) are drawn one per cell of a 4 x 3 grid over
# [0.5, 1.5]^2, at a seeded point inside the cell. Their analyze time depends
# on (a, r) (2.7 to 4.7 ms at best on the same host), so unstratified draws
# would move the reject median with the seed.
NOT_NULLITY_GRID = (4, 3)


def not_nullity_points(rng):
    """One seeded (a, r) per grid cell, in seeded order."""
    na, nr = NOT_NULLITY_GRID
    cells = [(i, j) for i in range(na) for j in range(nr)]
    rng.shuffle(cells)
    return [(0.5 + (i + rng.random()) / na, 0.5 + (j + rng.random()) / nr) for i, j in cells]


def _build_sweep(rng, workdir):
    nil = write_model(workdir, "nilpotent-h-5d.json", nilpotent_h_5d())
    h3 = write_model(workdir, "heisenberg-3d.json", heisenberg(3, "paracontact"))
    cycle = []
    not_nullity = iter(not_nullity_points(rng))
    for v in range(SWEEP_VARIANTS):
        pts = {cls: _family_file(workdir, rng, cls, f"{cls}-{v}") for cls in ("I", "II", "III", "IV", "V")}
        for cls, (name, lam, d) in pts.items():
            cycle.append(Op(f"analyze-full-{cls}", [_analyze(name, _family_analyze_expect(lam, d, cls))]))
        for k, cls in enumerate(SWEEP_DERIVE_CLASSES):
            cycle.append(Op(f"derive-{cls}", [_derive(*_family_file(workdir, rng, cls, f"d{k}-{v}"), cls)]))
        cycle.append(Op("analyze-nilpotent-5d", [_analyze(nil, NILPOTENT_EXPECT)]))
        cycle.append(Op("analyze-heisenberg-3d", [_analyze(h3, HEIS3_EXPECT)]))
        for k in range(SWEEP_NOT_NULLITY):
            nn = write_model(workdir, f"non-nullity-{k}-{v}.json", non_nullity_3d(*next(not_nullity)))
            cycle.append(Op("reject-not-nullity", [_analyze(nn, {"not_nullity": True})], reject=True))
        lam, d = family_point(rng, "I")
        sm = write_model(workdir, f"scaled-metric-{v}.json", family_3d(lam, d, metric_scale=rng.uniform(1.5, 3.0)))
        cycle.append(Op("reject-metric", [Step(["analyze", sm, "--sasakian", "--legendre3", "--json", "out.json"], 1)],
                        reject=True))
        bj = write_model(workdir, f"broken-jacobi-{v}.json", broken_jacobi_3d(rng.uniform(0.5, 1.5)))
        cycle.append(Op("reject-jacobi", [Step(["analyze", bj, "--json", "out.json"], 1)], reject=True))
        edge = pts["IV" if v % 2 == 0 else "V"][0]
        cycle.append(Op("reject-derive-edge", [Step(["derive", edge, "--steps", "6"], 3, json_out=False)],
                        reject=True))
    return cycle


def heis_files(rng, workdir, dim, metric_scale=1.0, tag=""):
    """Both Heisenberg structures of one dimension, in one seeded basis order."""
    order = list(range(dim))
    if rng is not None:
        rng.shuffle(order)
    names = []
    for kind in ("contact", "paracontact"):
        doc = heisenberg(dim, kind, metric_scale, order)
        names.append(write_model(workdir, f"heis-{dim}-{kind}{tag}.json", doc))
    return names


def heis_op(names):
    contact, para = names
    return Op("analyze-heisenberg", [_analyze(contact, SASAKIAN_EXPECT), _analyze(para, PARA_SASAKIAN_EXPECT)])


def _build_heis(rng, workdir, dim):
    names = heis_files(rng, workdir, dim)
    bad = heis_files(rng, workdir, dim, metric_scale=2.0, tag="-doubled")
    reject = Op("reject-doubled-metric",
                [Step(["analyze", p, "--sasakian", "--legendre3", "--json", "out.json"], 1) for p in bad],
                reject=True)
    return [heis_op(names), reject] * 3
