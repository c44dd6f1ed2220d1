"""The benchmark's workloads: their CLI calls, inputs and output checks.

A workload is a fixed list of ``no3l`` command lines built from the
benchmark's workload seed; the program sees only those flags.  Paths in the
command lines are relative, and each pass runs in its own directory, so two
passes of one workload must write the same bytes and print the same text.

At the default seed and full size every pinned output in ``expected.json``
is compared.  At any other seed the checks are invariants that hold for
every seed: survivor sets verify to 0 triples, ``run_trials`` completes its
own retention check, seed-independent outputs match their pins.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

DEFAULT_SEED = 1
# Program seeds of workload seed s start at 1 + (s - 1) * SEED_STRIDE, so
# neighbouring workload seeds share no sample (lemmas-t7 uses 1000 seeds).
SEED_STRIDE = 1000
EXPECTED = Path(__file__).with_name("expected.json")

SIZES = {
    "full": {
        "stats-w13": {"trial_count": 20, "c": 0.1, "window_exponent": 13},
        "construct-verify": {
            "samples": 4, "c": "1.0", "window": 12, "p": 2003, "greedy_window": 10,
        },
        "lemmas-t7": {"tmin": 3, "tmax": 7, "c": "0.5", "trials": 1000},
    },
    "smoke": {
        "stats-w13": {"trial_count": 4, "c": 0.5, "window_exponent": 6},
        "construct-verify": {"samples": 2, "c": "1.0", "window": 6, "p": 31, "greedy_window": 5},
        "lemmas-t7": {"tmin": 3, "tmax": 4, "c": "0.5", "trials": 20},
    },
}


def program_seed(seed: int) -> int:
    """First program seed of a workload seed; the default seed maps to 1."""
    return (1 + (seed - DEFAULT_SEED) * SEED_STRIDE) % (1 << 63)


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def output_files(work: Path) -> dict[str, Path]:
    """Every file a pass wrote, by path relative to the pass directory."""
    return {p.relative_to(work).as_posix(): p for p in sorted(work.rglob("*")) if p.is_file()}


@dataclass
class Call:
    """One ``no3l.cli.main`` call and what it returned and printed."""

    argv: list[str]
    status: int | None
    stdout: str
    stderr: str
    seconds: float


@dataclass
class Checks:
    """Checks attempted and the description of each that failed."""

    attempted: int = 0
    failures: list[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok

    def status(self, call: Call, expected: int) -> bool:
        return self.check(
            call.status == expected,
            f"{' '.join(call.argv)}: exit {call.status}, expected {expected}"
            + (f" ({call.stderr.strip().splitlines()[-1]})" if call.stderr.strip() else ""),
        )

    @property
    def failed(self) -> int:
        return len(self.failures)


def _triples_printed(call: Call) -> int | None:
    match = re.fullmatch(r"triples: (\d+)\n", call.stdout)
    return int(match.group(1)) if match else None


def _close(actual, expected, rel: float = 1e-12) -> bool:
    """Integers exactly, floats within rel, containers element by element."""
    if isinstance(expected, bool) or isinstance(expected, str) or expected is None:
        return actual == expected
    if isinstance(expected, int):
        return isinstance(actual, int) and not isinstance(actual, bool) and actual == expected
    if isinstance(expected, float):
        return isinstance(actual, float) and math.isclose(actual, expected, rel_tol=rel)
    if isinstance(expected, list):
        return (
            isinstance(actual, list) and len(actual) == len(expected)
            and all(_close(a, e, rel) for a, e in zip(actual, expected))
        )
    if isinstance(expected, dict):
        return (
            isinstance(actual, dict) and actual.keys() == expected.keys()
            and all(_close(actual[k], expected[k], rel) for k in expected)
        )
    return False


class Workload:
    name = ""
    why = ""

    def __init__(self, seed: int, size: str = "full") -> None:
        self.seed = seed
        self.size = size
        self.base = program_seed(seed)
        self.params = SIZES[size][self.name]
        self.pinned = size == "full" and seed == DEFAULT_SEED

    @cached_property
    def pins(self) -> dict:
        return json.loads(EXPECTED.read_text(encoding="ascii"))[self.name]

    def program_seeds(self) -> list[int]:
        raise NotImplementedError

    def prepare(self, work: Path) -> None:
        """Write the inputs a pass needs into its (empty) directory."""

    def argvs(self) -> list[list[str]]:
        raise NotImplementedError

    def check(self, work: Path, calls: list[Call], checks: Checks) -> None:
        """Every check of one pass; an unreadable output is a failed check."""
        try:
            self.check_outputs(work, calls, checks)
        except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            checks.check(False, f"{self.name}: reading the outputs raised {exc!r}")
        if self.pinned:
            for call, expected in zip(calls, self.pins["stdout"]):
                checks.check(
                    call.stdout == expected,
                    f"{' '.join(call.argv)}: printed {call.stdout!r}, pinned {expected!r}",
                )

    def pins_of(self, work: Path, calls: list[Call]) -> dict:
        """The values expected.json holds for this workload, read off one pass."""
        return {"stdout": [call.stdout for call in calls], **self.output_pins(work, calls)}

    def check_outputs(self, work: Path, calls: list[Call], checks: Checks) -> None:
        raise NotImplementedError

    def output_pins(self, work: Path, calls: list[Call]) -> dict:
        raise NotImplementedError


class StatsW13(Workload):
    name = "stats-w13"
    why = "the acceptance manifest through no3l stats: the sampler is ~90% of trial time"

    def manifest(self) -> dict:
        return {"base_seed": self.base, **self.params}

    def program_seeds(self) -> list[int]:
        return [self.base + i for i in range(self.params["trial_count"])]

    def prepare(self, work: Path) -> None:
        (work / "manifest.json").write_text(json.dumps(self.manifest()) + "\n", encoding="ascii")

    def argvs(self) -> list[list[str]]:
        return [["stats", "--manifest", "manifest.json", "--out", "runs"]]

    def check_outputs(self, work: Path, calls: list[Call], checks: Checks) -> None:
        from no3l.sampling import read_pointset
        from no3l.triples import count_collinear_triples

        (call,) = calls
        if not checks.status(call, 0):
            return
        runs = work / "runs"
        n = self.params["trial_count"]
        names = [f"trial{i:04d}_{kind}.tsv" for i in range(n) for kind in "qs"]
        files = output_files(runs)
        checks.check(
            sorted(files) == sorted(names + ["aggregate.csv", "aggregate.json", "density.csv"]),
            f"stats wrote {sorted(files)}",
        )
        agg = json.loads((runs / "aggregate.json").read_text(encoding="ascii"))
        trials = agg["trials"]
        checks.check(
            [t["seed"] for t in trials] == self.program_seeds(),
            "aggregate.json seeds differ from the manifest's",
        )
        for i, trial in enumerate(trials):
            q = read_pointset(runs / f"trial{i:04d}_q.tsv")
            s = read_pointset(runs / f"trial{i:04d}_s.tsv")
            checks.check(
                (trial["q_size"], trial["s_size"]) == (len(q), len(s)),
                f"trial {i}: aggregate sizes differ from the files",
            )
            checks.check(count_collinear_triples(s) == 0, f"trial {i}: S has a triple")
        if self.pinned:
            for fname, digest in self.pins["sha256"].items():
                checks.check(
                    fname in files and sha256(files[fname]) == digest,
                    f"{fname}: bytes differ from the pinned output",
                )

    def output_pins(self, work: Path, calls: list[Call]) -> dict:
        files = output_files(work / "runs")
        return {"sha256": {name: sha256(path) for name, path in files.items()}}


class ConstructVerify(Workload):
    name = "construct-verify"
    why = "the sample, repair, verify file pipeline: triple kernel and greedy dominate"

    def program_seeds(self) -> list[int]:
        return [self.base + i for i in range(self.params["samples"])]

    def argvs(self) -> list[list[str]]:
        p = self.params
        out = []
        for i, seed in enumerate(self.program_seeds()):
            out += [
                ["sample", "--seed", str(seed), "--c", p["c"], "--window", str(p["window"]),
                 "--out", f"q{i}.tsv"],
                ["construct", "--in", f"q{i}.tsv", "--method", "delete-max", "--out", f"s{i}.tsv"],
                ["verify", "--in", f"s{i}.tsv"],
                ["verify", "--in", f"q{i}.tsv"],
            ]
        out += [
            ["construct", "--method", "parabola", "--p", str(p["p"]), "--out", "parabola.tsv"],
            ["verify", "--in", "parabola.tsv"],
            ["construct", "--method", "greedy", "--window", str(p["greedy_window"]),
             "--out", "greedy.tsv"],
            ["verify", "--in", "greedy.tsv"],
        ]
        return out

    def check_outputs(self, work: Path, calls: list[Call], checks: Checks) -> None:
        from no3l.sampling import read_pointset

        samples = self.params["samples"]
        q_triples = []
        for i in range(samples):
            sample, repair, verify_s, verify_q = calls[4 * i: 4 * i + 4]
            ok = checks.status(sample, 0) & checks.status(repair, 0)
            checks.status(verify_s, 0)
            checks.check(_triples_printed(verify_s) == 0, f"s{i}.tsv: {verify_s.stdout!r}")
            found = _triples_printed(verify_q)
            q_triples.append(found)
            checks.check(
                found is not None and verify_q.status == (1 if found else 0),
                f"q{i}.tsv: exit {verify_q.status} with {verify_q.stdout!r}",
            )
            if ok:
                q = set(read_pointset(work / f"q{i}.tsv"))
                s = set(read_pointset(work / f"s{i}.tsv"))
                checks.check(s <= q, f"s{i}.tsv is not a subset of q{i}.tsv")
        for j, fname in ((4 * samples, "parabola.tsv"), (4 * samples + 2, "greedy.tsv")):
            build, verify = calls[j: j + 2]
            checks.status(build, 0)
            checks.status(verify, 0)
            checks.check(_triples_printed(verify) == 0, f"{fname}: {verify.stdout!r}")
            # Parabola and greedy take no seed: their pins hold at every seed.
            if self.size == "full":
                checks.check(
                    (work / fname).is_file() and sha256(work / fname) == self.pins["sha256"][fname],
                    f"{fname}: bytes differ from the pinned output",
                )
        if self.pinned:
            checks.check(
                q_triples == self.pins["q_triples"],
                f"Q triple counts {q_triples}, pinned {self.pins['q_triples']}",
            )
            for i in range(samples):
                fname = f"s{i}.tsv"
                checks.check(
                    (work / fname).is_file() and sha256(work / fname) == self.pins["sha256"][fname],
                    f"{fname}: bytes differ from the pinned output",
                )

    def output_pins(self, work: Path, calls: list[Call]) -> dict:
        samples = self.params["samples"]
        names = [f"s{i}.tsv" for i in range(samples)] + ["parabola.tsv", "greedy.tsv"]
        return {
            "q_triples": [_triples_printed(calls[4 * i + 3]) for i in range(samples)],
            "sha256": {name: sha256(work / name) for name in names},
        }


# Report keys that depend on the seeds; every other key is exact analytics.
_SEEDED_KEYS = (
    "monte_carlo", "x_miss_freq", "y_miss_freq", "event_miss_freq", "summability_proxy",
    "decay_ok",
)


class LemmasT7(Workload):
    name = "lemmas-t7"
    why = "exact line-family scans up to T = 7 plus 1000 small Monte Carlo samples"

    def program_seeds(self) -> list[int]:
        return [self.base + i for i in range(self.params["trials"])]

    def argvs(self) -> list[list[str]]:
        p = self.params
        return [[
            "lemmas", "--tmin", str(p["tmin"]), "--tmax", str(p["tmax"]), "--c", p["c"],
            "--trials", str(p["trials"]), "--base-seed", str(self.base), "--out", "lemmas.json",
        ]]

    def check_outputs(self, work: Path, calls: list[Call], checks: Checks) -> None:
        (call,) = calls
        if not checks.status(call, 0):
            return
        report = json.loads((work / "lemmas.json").read_text(encoding="ascii"))
        ts = list(range(self.params["tmin"], self.params["tmax"] + 1))
        mc = report["monte_carlo"]
        trials = self.params["trials"]
        checks.check(report["t_values"] == ts and report["sample_size"] == trials,
                     "lemmas: wrong exponents or sample size")
        checks.check(
            len(mc["x_by_seed"]) == trials
            and all(len(row) == len(ts) for row in mc["x_by_seed"] + mc["y_by_seed"]),
            "lemmas: per-seed vectors have the wrong shape",
        )
        for i in range(len(ts)):
            xs = [row[i] for row in mc["x_by_seed"]]
            checks.check(
                math.isclose(mc["x_mean"][i], math.fsum(xs) / trials, rel_tol=1e-9),
                f"lemmas: x_mean at T = {ts[i]} is not the mean of x_by_seed",
            )
        freqs = report["x_miss_freq"] + report["y_miss_freq"] + report["event_miss_freq"]
        checks.check(all(0.0 <= f <= 1.0 for f in freqs), "lemmas: a frequency outside [0, 1]")
        if self.size != "full":
            return
        expected = self.pins["report"]
        for key in sorted(expected):
            if key in _SEEDED_KEYS and not self.pinned:
                continue
            checks.check(
                _close(report.get(key), expected[key]),
                f"lemmas: {key} differs from the pinned report",
            )

    def output_pins(self, work: Path, calls: list[Call]) -> dict:
        return {"report": json.loads((work / "lemmas.json").read_text(encoding="ascii"))}


WORKLOADS = {cls.name: cls for cls in (StatsW13, ConstructVerify, LemmasT7)}
