"""Write the report bundle of every config the report-bytes check hashes,
then print one "file sha256" line per written file, sorted by path.

The configs are the benchmark workloads at seeds 1 and 2, the demo configs,
and the hand-written configs below (172 files in all).  The inputs come from
``bench/workloads.py`` of the current directory, the program from the
``src`` directory that ``PYTHONPATH`` names, so one script compares two
trees.  Run from the root of a checkout::

    PYTHONPATH=/path/to/base/src python scripts/report_bytes.py "$TMPDIR/base" > base.sha
    PYTHONPATH=$PWD/src python scripts/report_bytes.py "$TMPDIR/new" > new.sha
    diff base.sha new.sha

Matrix files are written under ``bench/_work/report_bytes/``, which git ignores.
"""
import hashlib
import json
import os
import sys
from pathlib import Path

import specfam
from specfam import run_analysis
from specfam.cli import DEMO_CONFIGS


def main(out: Path) -> None:
    sys.path.insert(0, "bench")
    from workloads import WORKLOADS
    src = Path(os.environ["PYTHONPATH"]).resolve()
    if not Path(specfam.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"specfam imported from {specfam.__file__}, not {src}")
    # seed 2 adds more random_crossings flows to the gate of both flow routes
    configs = [(f"seed{seed}/{w}/{case.name}", case.config) for seed in (1, 2)
               for w, make in WORKLOADS.items() for case in make(seed, Path("bench/_work") / w)]
    configs += [(f"demo/{kind}", config) for kind, config in sorted(DEMO_CONFIGS.items())]
    # no config above has a failing scan point or a weak polarized run.
    # The spectrum meets the ceiling 4.5 at grid point 5 alone, so b just
    # below it leaves that point, and no other, without a gap
    configs.append(("failures/discrete_no_gap", {
        "family": {"kind": "dirac_circle", "dim": 11, "params": {"alpha": [0.0, 1.0]}},
        "grid": {"start": 0.0, "end": 1.0, "points": 11},
        "seed": 0,
        "analyses": [{"kind": "discrete-spectrum",
                      "params": {"b_levels": [1.4, 4.49999999]}}],
    }))
    # a contraction written here, with no specfam code: one eigenvalue
    # sits on the level ceiling 1 - eta = 0.7 at grid points 4 to 6
    family = Path("bench/_work/report_bytes/weak_family.json")
    family.parent.mkdir(parents=True, exist_ok=True)
    rows = [[-1.0, -0.95, -0.4 + 0.02 * k, 0.2, 0.7 if 4 <= k <= 6 else 0.5, 0.95, 1.0]
            for k in range(11)]
    family.write_text(json.dumps({
        "dim": 7, "grid": [k / 10 for k in range(11)],
        "matrices": [[[[v if i == j else 0.0, 0.0] for j in range(7)]
                      for i, v in enumerate(row)] for row in rows]}))
    configs.append(("failures/polarized_weak", {
        "family": {"kind": "matrix_path_file", "dim": 7, "params": {"path": str(family)}},
        "seed": 0,
        "analyses": [{"kind": "polarized",
                      "params": {"b_levels": [0.3, 0.699999999], "eta": 0.3,
                                 "interior_budget": 4}}],
    }))
    # no config above refuses a certify-adapted pair. A dense 4 x 4 file,
    # H diag(v) H with the symmetric orthogonal H of entries +-1/2, is
    # refused once each: at level 1.5, v2 leaves the window between grid
    # points 5 and 6 (RankJump); at level 0.5, v1 sits on it at point 5
    # (EdgeOnSpectrum); at level 3.5 on points 0 to 4, v1 moves 0.05 a
    # step inside the window, above the cap 0.01 (ModulusExceeded)
    signs = [[1, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]]
    grid = [k / 10 for k in range(11)]
    matrices = []
    for k in range(11):
        v = [-3.0, 0.25 + 0.05 * k, 1.0 if k <= 5 else 2.0, 4.0]
        matrices.append([[[sum(signs[i][j] * v[j] * signs[j][l] for j in range(4)) / 4, 0.0]
                          for l in range(4)] for i in range(4)])
    family = Path("bench/_work/report_bytes/dense_refusals.json")
    family.write_text(json.dumps({"dim": 4, "grid": grid, "matrices": matrices}))
    configs.append(("failures/certify_refusals", {
        "family": {"kind": "matrix_path_file", "dim": 4, "params": {"path": str(family)}},
        "seed": 0,
        "analyses": [
            {"kind": "certify-adapted", "params": {"level": 1.5}},
            {"kind": "certify-adapted", "params": {"level": 0.5}},
            {"kind": "certify-adapted",
             "params": {"level": 3.5, "lo_index": 0, "hi_index": 4, "cap": 0.01}},
        ],
    }))
    # a dense matrix file, also written here with plain json: since
    # diagonal files take the diagonal form, no other config runs the
    # topology chains, the distances or a truncation on dense file matrices
    ladder = [k + 0.5 - 8 for k in range(16)]
    grid = [k / 40 for k in range(41)]
    family = Path("bench/_work/report_bytes/dense_family.json")
    family.write_text(json.dumps({
        "dim": 16, "grid": grid,
        "matrices": [[[[(ladder[i] if i == j else 0.0) + 0.6 * x / (1 + i + j), 0.0]
                       for j in range(16)] for i in range(16)] for x in grid]}))
    configs.append(("files/dense_ladder", {
        "family": {"kind": "matrix_path_file", "dim": 16, "params": {"path": str(family)}},
        "seed": 0,
        "analyses": [
            {"kind": "graph-continuity", "params": {"delta": 0.2, "x_index": 20}},
            {"kind": "riesz-continuity", "params": {"delta": 0.1, "x_index": 0}},
            {"kind": "riesz-continuity", "params": {"delta": 0.2, "x_index": 30}},
            {"kind": "distances", "params": {}},
            {"kind": "truncation", "params": {"dims": [8, 12, 16], "window": [-2.0, 2.0]}},
        ],
    }))
    # two diagonal matrix files whose complex diagonal norms fall back to
    # the SVD (spectral._complex_diagonal_norms): at dimension 2, where
    # LAPACK rounds a diagonal's moduli (dlas2), and with entries near
    # 1e140, which keep the diagonal form but put the resolvent
    # differences below the SVD's scaling threshold (~6.7e-139)
    grid = [k / 20 for k in range(21)]
    for name, rows in (("diagonal_dim2", [[-3.0 + x, 12.0 + 2.0 * x] for x in grid]),
                       ("diagonal_tiny", [[1e140 * (1 + k + x) for k in range(5)]
                                          for x in grid])):
        family = Path(f"bench/_work/report_bytes/{name}.json")
        family.write_text(json.dumps({
            "dim": len(rows[0]), "grid": grid,
            "matrices": [[[[v if i == j else 0.0, 0.0] for j in range(len(row))]
                          for i, v in enumerate(row)] for row in rows]}))
        configs.append((f"files/{name}", {
            "family": {"kind": "matrix_path_file", "dim": len(rows[0]),
                       "params": {"path": str(family)}},
            "seed": 0,
            "analyses": [
                {"kind": "graph-continuity", "params": {"delta": 0.2, "x_index": 10}},
                {"kind": "graph-continuity", "params": {"delta": 0.5, "x_index": 0}},
                {"kind": "distances", "params": {}},
            ],
        }))
    # a matrix file of mixed forms: diagonal matrices, except every third,
    # whose (0, 5) coupling keeps it dense, so a range over it mixes
    # permutation-form and dense decompositions. The topology chains build such
    # a range dense throughout; an adapted-pair edge is dense where one of its
    # two points is dense and diagonal elsewhere
    grid = [k / 20 for k in range(21)]
    rows = [[-3.0 + x, -1.2 + 0.4 * x, -0.3 + 0.8 * x, 0.9 - 0.2 * x, 2.0 + 0.5 * x,
             3.5 - x] for x in grid]
    family = Path("bench/_work/report_bytes/mixed_forms.json")
    family.write_text(json.dumps({
        "dim": 6, "grid": grid,
        "matrices": [[[[v if i == j else 1e-3 if y % 3 == 0 and {i, j} == {0, 5} else 0.0,
                        0.0] for j in range(6)] for i, v in enumerate(row)]
                     for y, row in enumerate(rows)]}))
    configs.append(("files/mixed_forms", {
        "family": {"kind": "matrix_path_file", "dim": 6, "params": {"path": str(family)}},
        "seed": 0,
        "analyses": [
            {"kind": "certify-adapted", "params": {"level": 1.3}},
            {"kind": "discrete-spectrum", "params": {"b_levels": [0.2, 0.7, 1.5]}},
            {"kind": "riesz-continuity", "params": {"delta": 0.3, "x_index": 10}},
            {"kind": "graph-continuity", "params": {"delta": 0.6, "x_index": 10}},
            {"kind": "distances", "params": {}},
            {"kind": "flow", "params": {}},
        ],
    }))
    # a small dense Hermitian file written token by token, tab-indented:
    # integer tokens, -0, and signed exponents in both cases, so a change
    # of number reader shows in the hashes. Each pair of mirrored
    # entries spells the same double two ways (2.5e-3 and 25E-4)
    def tokens(value, depth=0):
        if isinstance(value, str):
            return value
        pad = "\n" + "\t" * (depth + 1)
        return ("[" + pad + ("," + pad).join(tokens(v, depth + 1) for v in value)
                + "\n" + "\t" * depth + "]")
    grid = [k / 20 for k in range(21)]
    matrices = []
    for x in grid:
        m = [[["0", "0"] for _ in range(4)] for _ in range(4)]
        m[0][0] = ["%.3e" % (2 * x - 1.025), "-0"]
        m[1][1] = ["-5E-1", "0"]
        m[2][2] = ["%.3E" % (1 + x / 2), "-0"]
        m[3][3] = ["1E+2", "0"]
        m[0][1], m[1][0] = ["2.5e-3", "%.2e" % (x / 10)], ["25E-4", "-%.2e" % (x / 10)]
        m[1][2], m[2][1] = ["1", "-0"], ["1.0", "0"]
        matrices.append(m)
    family = Path("bench/_work/report_bytes/token_forms.json")
    family.write_text('{"dim": 4, "grid": ' + json.dumps(grid)
                      + ', "matrices": ' + tokens(matrices) + "}")
    configs.append(("files/token_forms", {
        "family": {"kind": "matrix_path_file", "dim": 4, "params": {"path": str(family)}},
        "seed": 0,
        "analyses": [
            {"kind": "flow", "params": {}},
            {"kind": "distances", "params": {}},
            {"kind": "graph-continuity", "params": {"delta": 0.2, "x_index": 10}},
        ],
    }))
    # a dense Hermitian file of several 64 KiB chunks, tab-indented, with -0
    # and exponent tokens, so the reader's chunk cuts fall inside pairs and
    # its matrices are validated in more than one block. Mirrored entries
    # spell the same double (the imaginary part negated) in other forms
    dim, grid = 16, [k / 15 - 1 for k in range(31)]
    matrices = []
    for x in grid:
        m = [[None] * dim for _ in range(dim)]
        for i in range(dim):
            m[i][i] = ["%.17e" % (i - 7.5 + 1.3 * x), "-0" if i % 2 else "0"]
            for j in range(i + 1, dim):
                re, im = (0.4 + x) / (1 + i + j), 0.3 * (i - j) / (2 + i * j)
                m[i][j] = ["%.17E" % re, "%.17e" % im]
                m[j][i] = [repr(re), "%.17E" % -im]
        matrices.append(m)
    family = Path("bench/_work/report_bytes/dense_chunks.json")
    family.write_text('{"dim": %d, "grid": %s, "matrices": %s}'
                      % (dim, json.dumps(grid), tokens(matrices)))
    configs.append(("files/dense_chunks", {
        "family": {"kind": "matrix_path_file", "dim": dim, "params": {"path": str(family)}},
        "seed": 0,
        "analyses": [{"kind": "flow", "params": {}}, {"kind": "distances", "params": {}}],
    }))
    # two dense files refused at grid index 15, past the first 64 KiB read:
    # the reader has made the operators of the blocks before it, then reads
    # the file again with json, so each report names the refusal as json does.
    # One has a matrix that is not Hermitian, the other an entry that reads as
    # an infinity
    dim, grid = 12, [k / 20 for k in range(21)]
    for name, spoil in (("refused_not_hermitian", lambda m: m[0][3].__setitem__(0, "0.75")),
                        ("refused_not_finite", lambda m: m[2][7].__setitem__(0, "1e400"))):
        matrices = []
        for y, x in enumerate(grid):
            m = [[None] * dim for _ in range(dim)]
            for i in range(dim):
                m[i][i] = [repr(i - 5.5 + x), "0"]
                for j in range(i + 1, dim):
                    re, im = (0.3 + x) / (1 + i + j), 0.2 * (i - j) / (2 + i * j)
                    m[i][j], m[j][i] = [repr(re), repr(im)], [repr(re), repr(-im)]
            if y == 15:
                spoil(m)
            matrices.append(m)
        family = Path(f"bench/_work/report_bytes/{name}.json")
        family.write_text('{"dim": %d, "grid": %s, "matrices": %s}'
                          % (dim, json.dumps(grid), tokens(matrices)))
        configs.append((f"failures/{name}", {
            "family": {"kind": "matrix_path_file", "dim": dim, "params": {"path": str(family)}},
            "seed": 0,
            "analyses": [{"kind": "flow", "params": {}}, {"kind": "distances", "params": {}}],
        }))
    # random_crossings at shapes no benchmark config builds, so the
    # generator's matmul and eigh over the grid are hashed there too: dim 1
    # (refused by the partition route), dim 2 and dim 16, at the largest seed
    for dim in (1, 2, 16):
        configs.append((f"random/edge_dims/dim{dim}", {
            "family": {"kind": "random_crossings", "dim": dim, "params": {}},
            "grid": {"start": 0.0, "end": 0.77, "points": 160},
            "seed": 2**64 - 1,
            "analyses": [
                {"kind": "flow", "params": {}},
                {"kind": "discrete-spectrum", "params": {"b_levels": [0.1, 0.2, 0.3]}},
                {"kind": "truncation", "params": {"dims": [1, 2, 16],
                                                  "window": [-0.45, 0.45]}},
            ],
        }))
    # analyses that read edges a scan before them normed: a dense
    # random_crossings family scanned first, then one range and level the
    # scan certified (points 7 to 27, level 0.4455...) certified again under
    # a cap, and a graph chain whose pair the scan found at b = 1 / delta, so
    # their bytes do not depend on what an earlier analysis computed
    configs.append(("random/warm_cold", {
        "family": {"kind": "random_crossings", "dim": 8, "params": {}},
        "grid": {"start": 0.0, "end": 1.0, "points": 81},
        "seed": 0,
        "analyses": [
            {"kind": "discrete-spectrum",
             "params": {"b_levels": [0.1, 0.25, 0.4], "definitional": False}},
            {"kind": "certify-adapted",
             "params": {"level": 0.4455020274152541, "lo_index": 7, "hi_index": 27,
                        "cap": 1.5}},
            {"kind": "graph-continuity", "params": {"delta": 2.5, "x_index": 10}},
        ],
    }))
    for name, config in configs:
        run_analysis(config, output_dir=out / name)
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        print(path.relative_to(out), hashlib.sha256(path.read_bytes()).hexdigest())


if __name__ == "__main__":
    main(Path(sys.argv[1]))
