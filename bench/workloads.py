"""The benchmark's workloads: inputs, the job(s) of one closed-loop
iteration, and the checks of their outputs.

Each workload is staged once per process (``stage``), then ``run`` issues
its jobs one after the other and returns their raw outputs. ``observe``
turns those outputs into plain values (one dict per job) outside the timed
region, and ``check`` compares them with reference values recorded when
the benchmark was introduced. The checks are seed-independent and never
assert the known-red acceptance criteria 5 and 6 at full strength.
"""

from __future__ import annotations

import csv
import json
import os
import shutil

import numpy as np

import tibt
import tibt.cli

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")


def _rel(value, ref):
    return abs(value - ref) / abs(ref)


def _read_csv(path):
    with open(path, encoding="ascii", newline="") as fh:
        return list(csv.DictReader(fh))


class LyapRod:
    """Library call ``alrs_lyap(heat_rod(n))`` with the criterion-9 config."""

    name = "lyap_rod_1m"
    jobs = 1
    sizes = {"full": 10**6, "toy": 3000}

    def __init__(self, seed, scale, workdir):
        self.seed = seed
        self.n = self.sizes[scale]
        self.workdir = workdir

    def stage(self):
        self.model = tibt.heat_rod(self.n)
        self.cfg = tibt.AlrsConfig(r0=2, dr=2, tol=1e-4, i_max=3, k_max=21,
                                   seed=self.seed)

    def prepare(self):
        pass

    def run(self):
        return [tibt.alrs_lyap(self.model.A, self.model.B, self.cfg)]

    def observe(self, outputs):
        res = outputs[0]
        v = res.factor.basis
        gram = v.T @ v
        orth = float(np.linalg.norm(gram - np.eye(gram.shape[0]), 2))
        return [{"converged": bool(res.converged), "rank": int(res.factor.rank),
                 "sweeps": len(res.singular_history),
                 "top": [float(x) for x in res.values[:6]], "orth_err": orth}]

    @staticmethod
    def check(obs, ref):
        problems = []
        if not obs["converged"]:
            problems.append("not converged")
        for key in ("rank", "sweeps"):
            if obs[key] != ref[key]:
                problems.append(f"{key} {obs[key]} != reference {ref[key]}")
        if len(obs["top"]) != len(ref["top"]):
            problems.append(f"{len(obs['top'])} values, reference has {len(ref['top'])}")
        else:
            worst = max(_rel(v, r) for v, r in zip(obs["top"], ref["top"]))
            if not worst <= 1e-6:
                problems.append(f"top values off reference by {worst:.2e} relative")
        if not obs["orth_err"] <= 1e-10:
            problems.append(f"basis not orthonormal: {obs['orth_err']:.2e}")
        return problems


class _CliWorkload:
    """Jobs issued through ``tibt.cli.main`` on staged JSON configs."""

    def __init__(self, seed, scale, workdir):
        self.seed = seed
        self.scale = scale
        self.workdir = workdir

    def configs(self):
        raise NotImplementedError

    def stage(self):
        os.makedirs(self.workdir, exist_ok=True)
        self.jobs_argv = []
        for tag, command, cfg in self.configs():
            path = os.path.join(self.workdir, f"{tag}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(cfg, fh)
            out = os.path.join(self.workdir, f"out_{tag}")
            self.jobs_argv.append((tag, out, [command, path, "--output-dir", out,
                                              "--seed", str(self.seed)]))

    def prepare(self):
        # a failed job writes nothing, so stale artifacts must not survive
        for _, out, _ in self.jobs_argv:
            shutil.rmtree(out, ignore_errors=True)

    def run(self):
        return [(tag, out, tibt.cli.main(argv)) for tag, out, argv in self.jobs_argv]


DR = 2
TOL_BT = 1e-5


class BtRod(_CliWorkload):
    """``tibt run`` with task ``atia-bt`` on a heat rod above ``dense_cap``."""

    name = "bt_rod_100k"
    jobs = 1
    sizes = {"full": 100_000, "toy": 6000}

    def configs(self):
        return [("bt", "run", {"model": {"kind": "heat_rod", "n": self.sizes[self.scale]},
                               "task": "atia-bt",
                               "alg": {"r0": 2, "dr": DR, "tol": TOL_BT}})]

    def observe(self, outputs):
        _, out, code = outputs[0]
        if code != 0:
            return [{"exit": code}]
        hsv = [float(row["value"]) for row in _read_csv(os.path.join(out, "hsv.csv"))]
        errs = {row["metric"]: row for row in _read_csv(os.path.join(out, "errors.csv"))}
        hinf = errs["hinf_rel_error_vs_original"]
        return [{"exit": code, "order": int(hinf["r"]), "rows": len(hsv),
                 "hsv": hsv[:2], "hinf": float(hinf["value"])}]

    @staticmethod
    def check(obs, ref):
        if obs["exit"] != 0:
            return [f"exit code {obs['exit']}"]
        problems = []
        # the stop rule raises the order by dr before the final rebuild, so
        # some starting pairs end one step above the reference (seed 6: 10)
        if not ref["order"] <= obs["order"] <= ref["order"] + DR or obs["rows"] != obs["order"]:
            problems.append(f"order {obs['order']} ({obs['rows']} values) outside "
                            f"[{ref['order']}, {ref['order'] + DR}]")
        if not _rel(obs["hsv"][0], ref["hsv"][0]) <= 1e-6:
            problems.append("top Hankel estimate off reference by more than 1e-6")
        if not _rel(obs["hsv"][1], ref["hsv"][1]) <= 1e-4:
            problems.append("second Hankel estimate off reference by more than 1e-4")
        # 10 * tol: how far the adaptive ROM stays from dense BT quality is the
        # known criterion-5 limitation (seed 1 gives 1.56e-5), not checked here
        if not obs["hinf"] <= 10 * TOL_BT:
            problems.append(f"hinf_rel_error_vs_original {obs['hinf']:.3e} > {10 * TOL_BT:g}")
        return problems


class CompareC5(_CliWorkload):
    """Two ``tibt compare`` jobs with the criterion-5 pairing."""

    name = "compare_c5"
    jobs = 2
    sizes = {"full": (1000, 300), "toy": (200, 40)}

    def configs(self):
        n_rod, n_dense = self.sizes[self.scale]
        common = {"task": "compare", "tols": [1e-5], "grid_points": 300}
        return [("rod", "compare", {"model": {"kind": "heat_rod", "n": n_rod}, **common}),
                ("dense", "compare", {"model": {"kind": "random_stable", "n": n_dense,
                                                "m": 2, "p": 2}, **common})]

    def observe(self, outputs):
        obs = []
        for tag, out, code in outputs:
            if code != 0:
                obs.append({"job": tag, "exit": code})
                continue
            (row,) = _read_csv(os.path.join(out, "comparison.csv"))
            obs.append({"job": tag, "exit": code, "converged": row["converged"] == "true",
                        "r_selected": int(row["r_selected"]),
                        "atia": float(row["atia_hinf_ratio"]),
                        "bt": float(row["bt_hinf_ratio"])})
        return obs

    @staticmethod
    def check(obs, ref):
        if obs["exit"] != 0:
            return [f"exit code {obs['exit']}"]
        problems = []
        if not obs["converged"]:
            problems.append("not converged")
        if ref["job"] == "rod":
            # seed-free: the dense BT ratio depends only on the selected order
            if not _rel(obs["bt"], ref["bt"]) <= 1e-8:
                problems.append(f"bt_hinf_ratio {obs['bt']!r} != reference {ref['bt']!r}")
            if not obs["atia"] <= 10.0 * obs["bt"]:
                problems.append("atia_hinf_ratio above 10x bt_hinf_ratio")
        elif not obs["atia"] <= 1.1 * obs["bt"]:
            problems.append("atia_hinf_ratio above 1.1x bt_hinf_ratio")
        return problems


WORKLOADS = {cls.name: cls for cls in (LyapRod, BtRod, CompareC5)}


def job_references(workload, scale):
    """One reference dict per job of ``workload``."""
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        refs = json.load(fh)[scale][workload.name]
    return refs if isinstance(refs, list) else [refs]
