"""Command line contract tests.

Exercised in process through cli.main for speed; one subprocess test
covers the installed entry point.  Exit statuses are part of the
contract: 0 success, 1 failed check, 2 usage error.
"""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from no3l import cli, experiments, parallel, sampling
from no3l.cli import main
from no3l.sampling import PointSet, read_pointset, write_pointset


class _NoPool:
    """Stands in for ProcessPoolExecutor where no pool may start."""

    def __init__(self, *args, **kwargs):
        raise AssertionError("a process pool started")


def _grid3(path):
    pts = [(x, y) for x in (1, 2, 3) for y in (1, 2, 3)]
    write_pointset(PointSet(pts, {"kind": "baseline"}), path)
    return path


def test_sample_writes_deterministic_file(tmp_path, capsys):
    out1 = tmp_path / "a.tsv"
    out2 = tmp_path / "b.tsv"
    assert main(["sample", "--seed", "42", "--c", "0.1", "--window", "10",
                 "--out", str(out1)]) == 0
    assert main(["sample", "--seed", "42", "--c", "0.1", "--window", "10",
                 "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    ps = read_pointset(out1)
    assert ps.meta == {"kind": "sampled", "seed": 42, "c": 0.1, "window_exponent": 10}


def test_sample_rejects_negative_rate(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sample", "--seed", "1", "--c", "-1", "--window", "5",
              "--out", str(tmp_path / "x.tsv")])
    assert exc.value.code == 2
    assert "--c" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags,needle",
    [
        (["--seed", str(2**64), "--window", "3"], "argument --seed: must fit in an unsigned"),
        (["--seed", "1", "--window", "0"], "argument --window: must be a positive integer"),
    ],
    ids=["seed-past-64-bits", "window-zero"],
)
def test_sample_flags_outside_their_domain_are_usage_errors(tmp_path, capsys, flags, needle):
    out = tmp_path / "x.tsv"
    with pytest.raises(SystemExit) as exc:
        main(["sample", "--c", "0.1", *flags, "--out", str(out)])
    assert exc.value.code == 2
    usage, *errors = capsys.readouterr().err.splitlines()
    assert usage.startswith("usage: no3l sample")
    assert len(errors) == 1 and needle in errors[0]
    assert not out.exists()


def test_pipeline_sample_construct_verify(tmp_path, capsys):
    q = tmp_path / "q.tsv"
    s = tmp_path / "s.tsv"
    main(["sample", "--seed", "5", "--c", "0.4", "--window", "8", "--out", str(q)])
    assert main(["construct", "--in", str(q), "--method", "delete-max",
                 "--out", str(s)]) == 0
    assert main(["verify", "--in", str(s)]) == 0
    assert "triples: 0" in capsys.readouterr().out
    assert read_pointset(s).meta["kind"] == "constructed"


def test_verify_reports_grid_triples(tmp_path, capsys):
    path = _grid3(tmp_path / "grid.tsv")
    assert main(["verify", "--in", str(path)]) == 1
    assert "triples: 8" in capsys.readouterr().out
    assert main(["verify", "--in", str(path), "--box", "2"]) == 0
    assert "triples: 0" in capsys.readouterr().out


def test_verify_box_past_int64_counts_the_whole_set(tmp_path, capsys):
    # --box has no upper bound; a side past every int64 norm is the whole set
    path = _grid3(tmp_path / "grid.tsv")
    assert main(["verify", "--in", str(path)]) == 1
    whole = capsys.readouterr().out
    assert main(["verify", "--in", str(path), "--box", str(10**30)]) == 1
    assert capsys.readouterr().out == whole == "triples: 8\n"


def test_verify_missing_file_is_usage_error(tmp_path, capsys):
    assert main(["verify", "--in", str(tmp_path / "nope.tsv")]) == 2
    assert "error" in capsys.readouterr().err


def test_construct_parabola(tmp_path, capsys):
    out = tmp_path / "par.tsv"
    assert main(["construct", "--method", "parabola", "--p", "101",
                 "--out", str(out)]) == 0
    assert len(read_pointset(out)) == 101
    with pytest.raises(SystemExit) as exc:
        main(["construct", "--method", "parabola", "--p", "100",
              "--out", str(out)])
    assert exc.value.code == 2
    assert "prime" in capsys.readouterr().err


def _no_call(*args, **kwargs):
    raise AssertionError("called past the modulus cap")


@pytest.mark.parametrize("p", ["1048583", "4294967291", "4294967311", str(10**30)])
def test_construct_rejects_a_modulus_past_the_cap_before_testing_it(
    tmp_path, capsys, monkeypatch, p
):
    # primes among them too: the first prime past 2**20 and the last below 2**32
    # would build 1e6 to 4e9 points, and 10**30 would not finish its trial division
    monkeypatch.setattr(cli, "_is_prime", _no_call)
    monkeypatch.setattr(cli, "modular_parabola", _no_call)
    with pytest.raises(SystemExit) as exc:
        main(["construct", "--method", "parabola", "--p", p, "--out", str(tmp_path / "p.tsv")])
    assert exc.value.code == 2
    errors = [line for line in capsys.readouterr().err.splitlines() if "error" in line]
    assert errors == [
        f"no3l construct: error: argument --p: must be a prime below 1048576, got {p}"
    ]
    assert not (tmp_path / "p.tsv").exists()


def test_construct_accepts_the_largest_prime_below_the_cap():
    args = cli.build_parser().parse_args(
        ["construct", "--method", "parabola", "--p", "1048573", "--out", "p.tsv"]
    )
    assert args.p == 1048573


def test_construct_missing_conditional_flags(tmp_path, capsys):
    assert main(["construct", "--method", "greedy", "--out",
                 str(tmp_path / "g.tsv")]) == 2
    assert "--window" in capsys.readouterr().err
    assert main(["construct", "--method", "delete-max", "--out",
                 str(tmp_path / "d.tsv")]) == 2
    assert "--in" in capsys.readouterr().err
    assert main(["construct", "--method", "parabola", "--out",
                 str(tmp_path / "p.tsv")]) == 2
    err = capsys.readouterr().err
    assert "--p" in err
    assert len(err.splitlines()) == 1


# each construct method's own input flag; a missing --in file is never read
_METHOD_FLAG = {"delete-max": ["--in", "missing.tsv"], "greedy": ["--window", "3"],
                "parabola": ["--p", "7"]}


@pytest.mark.parametrize(
    "method,other", [(m, o) for m in _METHOD_FLAG for o in _METHOD_FLAG if o != m]
)
def test_construct_refuses_a_flag_its_method_does_not_read(
    tmp_path, capsys, monkeypatch, method, other
):
    monkeypatch.chdir(tmp_path)
    for name in ("read_pointset", "greedy_construct", "modular_parabola"):
        monkeypatch.setattr(cli, name, _no_call)
    flag = _METHOD_FLAG[other][0]
    argv = ["construct", "--method", method, *_METHOD_FLAG[method], *_METHOD_FLAG[other],
            "--out", "out.tsv"]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: --method {method} does not read {flag}\n"
    assert not Path("out.tsv").exists()


def test_construct_greedy(tmp_path, capsys):
    out = tmp_path / "g.tsv"
    assert main(["construct", "--method", "greedy", "--window", "4",
                 "--out", str(out)]) == 0
    assert len(read_pointset(out)) == 20
    assert main(["verify", "--in", str(out)]) == 0


def test_stats_runs_manifest(tmp_path, capsys):
    man = tmp_path / "man.json"
    man.write_text(json.dumps({
        "base_seed": 3, "trial_count": 2, "c": 0.2, "window_exponent": 6,
    }), encoding="ascii")
    out = tmp_path / "runs"
    assert main(["stats", "--manifest", str(man), "--out", str(out)]) == 0
    names = sorted(p.name for p in out.iterdir())
    assert "aggregate.json" in names
    assert "trial0000_q.tsv" in names
    # every persisted point file parses back
    for name in names:
        if name.endswith(".tsv") and name.startswith("trial"):
            read_pointset(out / name)


def test_stats_output_bytes_are_pinned(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    Path("man.json").write_text(json.dumps({
        "base_seed": 1, "trial_count": 4, "c": 0.5, "window_exponent": 8,
    }), encoding="ascii")
    assert main(["stats", "--manifest", "man.json", "--out", "runs"]) == 0
    digests = {
        name: hashlib.sha256((tmp_path / "runs" / name).read_bytes()).hexdigest()
        for name in ("aggregate.json", "aggregate.csv", "density.csv")
    }
    assert digests == {
        "aggregate.json": "de485587fee9a294e298df4bd433192a5c2225c4dd5d7751c39d9e4c19e09111",
        "aggregate.csv": "1a2b56c5d8925b00282bd6ba47fb1196e1f06a6b3cc58a2c6dbdb05f6807ba35",
        "density.csv": "7ef96edd69ffbf8dc1d641a7f18077f280ff25b0a369537bb955fc980730b95f",
    }


def test_lemmas_csv_has_one_row_per_exponent(capsys):
    assert main(["lemmas", "--tmin", "2", "--tmax", "4", "--c", "0.4",
                 "--trials", "10", "--format", "csv"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("T,c,sample_size,")
    assert len(lines) == 4


def test_lemmas_json_contains_exact_and_sampled_means(tmp_path):
    out = tmp_path / "rep.json"
    assert main(["lemmas", "--tmin", "2", "--tmax", "3", "--c", "0.4",
                 "--trials", "10", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["t_values"] == [2, 3]
    assert len(doc["weights"]) == 2
    assert len(doc["monte_carlo"]["y_mean"]) == 2


def test_lemmas_json_bytes_do_not_depend_on_the_worker_count(tmp_path, monkeypatch):
    # The 20 seeds go in chunks of 20, 10 + 10 and 7 + 7 + 6 at 1, 2 and 3
    # workers; blocks of 255 cells, one row of the W = 8 window, make each
    # sampler pass one seed.
    written = []
    for workers, block in (("1", None), ("2", None), ("3", None), ("1", 255)):
        monkeypatch.setenv("NO3L_THREADS", workers)
        if block is not None:
            monkeypatch.setattr(sampling, "_BLOCK_CELLS", block)
            assert sampling._block_row_seeds(8) == 1
        out = tmp_path / f"lemmas{len(written)}.json"
        assert main(["lemmas", "--tmin", "3", "--tmax", "7", "--c", "0.5",
                     "--trials", "20", "--out", str(out)]) == 0
        written.append(out.read_bytes())
    assert written[1:] == written[:1] * 3


def test_delete_max_and_verify_bytes_do_not_depend_on_the_worker_count(
    tmp_path, monkeypatch, capsys
):
    q = tmp_path / "q.tsv"
    assert main(["sample", "--seed", "1", "--c", "1.0", "--window", "12", "--out", str(q)]) == 0
    # construct and verify count in-process: no pool starts at two workers
    monkeypatch.setattr(parallel, "ProcessPoolExecutor", _NoPool)
    runs = []
    for workers in ("1", "2"):
        monkeypatch.setenv("NO3L_THREADS", workers)
        monkeypatch.chdir(tmp_path)
        capsys.readouterr()
        assert main(["construct", "--in", "q.tsv", "--method", "delete-max",
                     "--out", f"s{workers}.tsv"]) == 0
        assert main(["verify", "--in", f"s{workers}.tsv"]) == 0
        assert main(["verify", "--in", "q.tsv"]) == 1
        out = capsys.readouterr().out.replace(f"s{workers}.tsv", "s.tsv")
        runs.append(((tmp_path / f"s{workers}.tsv").read_bytes(), out))
    assert runs[0] == runs[1]
    assert runs[0][1].endswith("triples: 0\ntriples: 15446\n")


@pytest.mark.parametrize(
    "rows, needle",
    [(["1\t1", "1\t1", "2\t2", "3\t3"], "strictly ordered"),
     ([f"{i}\t{i * i}" for i in range(1, 60)] + [f"1\t{2**62}"], "int64")],
    ids=["duplicate", "too-wide"],
)
def test_bad_files_exit_2_before_any_pool(tmp_path, capsys, monkeypatch, rows, needle):
    monkeypatch.setattr(parallel, "ProcessPoolExecutor", _NoPool)
    monkeypatch.setenv("NO3L_THREADS", "2")
    path = tmp_path / "bad.tsv"
    meta = '{"c": null, "kind": null, "seed": null, "window_exponent": null}'
    path.write_text("\n".join(["#no3l v1", f"#meta {meta}", *rows]) + "\n", encoding="ascii")
    for argv in (["verify", "--in", str(path)],
                 ["construct", "--in", str(path), "--method", "delete-max",
                  "--out", str(tmp_path / "s.tsv")]):
        assert main(argv) == 2
        assert needle in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags,needle",
    [
        (["--tmax", "21"], "box exponents must be at most 19"),
        (["--tmax", "4", "--base-seed", str(2**64 - 1)], "seed must fit in 64 bits"),
    ],
    ids=["tmax-past-the-window-cap", "seeds-past-64-bits"],
)
def test_lemmas_rejects_bad_input_before_any_work(capsys, monkeypatch, flags, needle):
    def no_work(*args):
        raise AssertionError("sampled or scanned before validating")

    monkeypatch.setattr(experiments, "_mc_vectors", no_work)
    monkeypatch.setattr(experiments, "map_ordered", no_work)
    assert main(["lemmas", "--tmin", "3", "--c", "0.5", "--trials", "2", *flags]) == 2
    err = capsys.readouterr().err
    assert needle in err
    assert len(err.splitlines()) == 1


def _no_trial(args):
    raise AssertionError("a trial ran before the seeds were validated")


@pytest.mark.parametrize("command", ["stats", "bench"])
def test_batches_reject_a_last_seed_past_64_bits_before_any_trial(
    tmp_path, capsys, monkeypatch, command
):
    # the first seed fits; trial 1's seed, 2**64, does not
    monkeypatch.setattr(experiments, "_run_one_trial", _no_trial)
    monkeypatch.setattr(parallel, "ProcessPoolExecutor", _NoPool)
    base_seed, out = 2**64 - 1, tmp_path / "runs"
    if command == "stats":
        man = tmp_path / "man.json"
        man.write_text(json.dumps({
            "base_seed": base_seed, "trial_count": 2, "c": 0.1, "window_exponent": 12,
        }), encoding="ascii")
        argv = ["stats", "--manifest", str(man), "--out", str(out)]
    else:
        argv = ["bench", "--window", "12", "--c", "0.1", "--trials", "2", "--nmin", "16",
                "--alpha", "0", "--base-seed", str(base_seed), "--out", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    where = f"{man}: " if command == "stats" else ""
    assert err == f"error: {where}seed must fit in 64 bits, got {2**64}\n"
    assert not out.exists()


def test_stats_fails_on_an_unusable_out_dir_before_any_trial(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(experiments, "_run_one_trial", _no_trial)
    monkeypatch.setattr(parallel, "ProcessPoolExecutor", _NoPool)
    man = tmp_path / "man.json"
    man.write_text(json.dumps({
        "base_seed": 1, "trial_count": 3, "c": 0.1, "window_exponent": 12,
    }), encoding="ascii")
    blocker = tmp_path / "file"
    blocker.write_text("", encoding="ascii")
    assert main(["stats", "--manifest", str(man), "--out", str(blocker / "runs")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_stats_rejects_a_bad_worker_count_before_making_its_out_dir(
    tmp_path, capsys, monkeypatch
):
    monkeypatch.setattr(experiments, "_run_one_trial", _no_trial)
    monkeypatch.setenv("NO3L_THREADS", "abc")
    man = tmp_path / "man.json"
    man.write_text(json.dumps({
        "base_seed": 1, "trial_count": 2, "c": 0.1, "window_exponent": 6,
    }), encoding="ascii")
    out = tmp_path / "new"
    assert main(["stats", "--manifest", str(man), "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: NO3L_THREADS must be an integer, got 'abc'\n"
    assert not out.exists()


_HEADER = [b"#no3l v1", b'#meta {"c": null, "kind": null, "seed": null, "window_exponent": null}']


@pytest.mark.parametrize("line", [1, 2, 3, 4], ids=["magic", "meta", "row", "last-row"])
def test_a_non_ascii_byte_names_its_file_and_line(tmp_path, capsys, monkeypatch, line):
    monkeypatch.setattr(parallel, "ProcessPoolExecutor", _NoPool)
    monkeypatch.chdir(tmp_path)
    lines = [*_HEADER, b"1\t1", b"2\t2"]
    lines[line - 1] += b"\xe9"
    Path("bad.tsv").write_bytes(b"\n".join(lines) + b"\n")
    for argv in (["verify", "--in", "bad.tsv"],
                 ["construct", "--in", "bad.tsv", "--method", "delete-max", "--out", "s.tsv"]):
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: bad.tsv:{line}: non-ASCII byte 0xe9\n"
    assert not Path("s.tsv").exists()


def test_a_non_ascii_manifest_names_its_file_and_line(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(experiments, "_run_one_trial", _no_trial)
    monkeypatch.setattr(parallel, "ProcessPoolExecutor", _NoPool)
    monkeypatch.chdir(tmp_path)
    Path("man.json").write_bytes(
        b'{"base_seed": 1,\n "trial_count": 2,\n "c": 0.1, "out_dir": "r\xc3\xa9",\n'
        b' "window_exponent": 6}\n'
    )
    assert main(["stats", "--manifest", "man.json"]) == 2
    assert capsys.readouterr().err == "error: man.json:3: non-ASCII byte 0xc3\n"


def test_lemmas_at_zero_rate_write_strict_json(capsys):
    # the Chebyshev bound has no value at c = 0: null, never Infinity
    assert main(["lemmas", "--tmin", "1", "--tmax", "3", "--c", "0", "--trials", "3"]) == 0

    def not_json(token):
        raise AssertionError(f"{token} is not JSON")

    report = json.loads(capsys.readouterr().out, parse_constant=not_json)
    assert report["chebyshev_x_bound"] == [None] * 3


def test_lemmas_rejects_reversed_range(capsys):
    assert main(["lemmas", "--tmin", "5", "--tmax", "3", "--c", "0.4",
                 "--trials", "4"]) == 2
    assert "--tmax" in capsys.readouterr().err


def test_bench_pass_and_fail(tmp_path, capsys):
    argv = ["bench", "--window", "7", "--c", "0.3", "--trials", "3",
            "--nmin", "16", "--alpha"]
    assert main(argv + ["0.0", "--format", "csv"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "n,median_ratio,ok"
    assert len(out) == 1 + 3  # n = 16, 32, 64
    assert main(argv + ["99.0"]) == 1
    err = capsys.readouterr().err
    assert "n = 16, 32, 64" in err


@pytest.mark.parametrize(
    "window,nmin,profiled",
    [(8, 256, "16 to 128"), (4, 16, "none")],
    ids=["past-the-largest-side", "no-side-profiled"],
)
def test_bench_rejects_an_nmin_past_every_profiled_side(
    capsys, monkeypatch, window, nmin, profiled
):
    # no profiled side is >= nmin, so the density check would check nothing
    monkeypatch.setattr(experiments, "_run_one_trial", _no_trial)
    monkeypatch.setattr(parallel, "ProcessPoolExecutor", _NoPool)
    argv = ["bench", "--window", str(window), "--c", "0.1", "--trials", "1",
            "--nmin", str(nmin), "--alpha", "99", "--format", "csv"]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (
        f"error: --nmin {nmin} leaves no box side to check"
        f" (window {window} profiles sides: {profiled})\n"
    )


def _child_env() -> dict:
    # the child imports the package this suite imported, even when only
    # pytest's own pythonpath setting put it on the path
    src = os.path.dirname(os.path.dirname(cli.__file__))
    paths = [src, *filter(None, [os.environ.get("PYTHONPATH")])]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}


def test_console_script_entry_point(tmp_path):
    # lemmas imports the experiment layer, which the cli module does not load
    for argv in (
        ["sample", "--seed", "1", "--c", "0.1", "--window", "6", "--out", "q.tsv"],
        ["lemmas", "--tmin", "3", "--tmax", "4", "--c", "0.5", "--trials", "5",
         "--out", "lemmas.json"],
    ):
        proc = subprocess.run(
            [sys.executable, "-m", "no3l.cli", *argv],
            cwd=tmp_path,
            capture_output=True,
            text=True,
            env=_child_env(),
        )
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / argv[-1]).exists()


COLD_IMPORT_PROBE = """
import json, sys
import no3l.cli
print(json.dumps({
    "no3l": sorted(m for m in sys.modules if m.partition(".")[0] == "no3l"),
    "pool": [m for m in ("concurrent.futures.process", "multiprocessing", "statistics")
             if m in sys.modules],
}))
"""


def test_importing_the_cli_loads_only_what_the_file_commands_run():
    # a sample, construct or verify process never loads the experiment layer
    # or the process pool; stats, lemmas and bench import them when they run
    proc = subprocess.run(
        [sys.executable, "-c", COLD_IMPORT_PROBE],
        capture_output=True,
        text=True,
        env=_child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {
        "no3l": ["no3l", "no3l.cli", "no3l.construct", "no3l.sampling", "no3l.triples"],
        "pool": [],
    }


def test_verify_rejects_non_integer_window_meta(tmp_path, capsys):
    path = tmp_path / "bad.tsv"
    path.write_text(
        '#no3l v1\n#meta {"c": null, "kind": null, "seed": null,'
        ' "window_exponent": "a"}\n1\t1\n',
        encoding="ascii",
    )
    assert main(["verify", "--in", str(path)]) == 2
    assert "window_exponent" in capsys.readouterr().err


@pytest.mark.parametrize(
    "window, row, needle",
    [("3", "8\t1", "point (8, 1) outside declared window [1, 2**3 - 1]^2"),
     ("3", "0\t5", "point (0, 5) outside declared window [1, 2**3 - 1]^2"),
     ("true", "2\t2", "window_exponent must be a nonnegative integer, got True")],
    ids=["row-past-the-window", "row-on-the-axis", "window-true"],
)
def test_verify_rejects_a_file_outside_its_window(tmp_path, capsys, window, row, needle):
    path = tmp_path / "bad.tsv"
    meta = f'{{"c": null, "kind": null, "seed": null, "window_exponent": {window}}}'
    path.write_text(f"#no3l v1\n#meta {meta}\n1\t1\n{row}\n", encoding="ascii")
    assert main(["verify", "--in", str(path)]) == 2
    err = capsys.readouterr().err
    assert needle in err
    assert len(err.splitlines()) == 1


def test_verify_rejects_coordinates_too_wide_to_pack(tmp_path, capsys):
    # the same limit holds for a 4-point file and a 200-point one
    for size in (4, 200):
        path = tmp_path / f"wide{size}.tsv"
        pts = [(i, i * i) for i in range(1, size)] + [(1, 2**62)]
        write_pointset(PointSet(pts, {"kind": "baseline"}), path)
        assert main(["verify", "--in", str(path)]) == 2
        assert "int64" in capsys.readouterr().err


@pytest.mark.parametrize(
    "row",
    ["+2\t1", "1_0\t3", "02\t1", " 2\t1", "2\t1\r"],
    ids=["plus-sign", "underscore", "leading-zero", "leading-space", "carriage-return"],
)
def test_verify_rejects_rows_the_writer_never_emits(tmp_path, capsys, row):
    # each would otherwise read back as a set some other file also encodes
    path = tmp_path / "odd.tsv"
    meta = '{"c": null, "kind": null, "seed": null, "window_exponent": null}'
    path.write_text(f"#no3l v1\n#meta {meta}\n1\t1\n{row}\n", encoding="ascii")
    assert main(["verify", "--in", str(path)]) == 2
    err = capsys.readouterr().err
    assert "odd.tsv:4:" in err
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize(
    "argv",
    [["verify"], ["construct", "--method", "delete-max", "--out", "s.tsv"]],
    ids=["verify", "construct"],
)
@pytest.mark.parametrize(
    "meta,needle",
    [
        ('{"c": NaN, "kind": null, "extra": 1}', "NaN"),
        ('{"kind": null, "extra": 1}', "extra"),
        ('{"c": 0.5, "kind": [-Infinity]}', "-Infinity"),
        ('{"seed": 1e999}', "1e999"),
        ('{"c":0.5,"kind":null,"seed":null,"window_exponent":null}', "writer emits"),
        ('{"c": 0.5, "kind": null, "seed": null}', "writer emits"),
        ('{"c": 0.50, "kind": null, "seed": null, "window_exponent": null}', "writer emits"),
        ('{"kind": null, "c": 0.5, "seed": null, "window_exponent": null}', "writer emits"),
        ("[]", "not a JSON object"),
        ('{"c": null, "c": null, "kind": null, "seed": null, "window_exponent": null}', "twice"),
        ('{"seed": 1' + "0" * 5000 + "}", "digits"),
    ],
    ids=["nan-and-unknown-key", "unknown-key", "nested-infinity", "overflowing-literal",
         "spacing", "missing-key", "trailing-zero", "key-order", "not-an-object",
         "duplicate-key", "huge-int"],
)
def test_meta_the_writer_never_emits_is_a_usage_error(
    tmp_path, capsys, monkeypatch, argv, meta, needle
):
    # each read to a set that its own rewrite did not reproduce, that the
    # writer wrote back as NaN or Infinity, which is not JSON, or that the
    # writer writes with another meta line
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "odd.tsv"
    path.write_text(f"#no3l v1\n#meta {meta}\n1\t1\n", encoding="ascii")
    assert main([*argv, "--in", str(path)]) == 2
    err = capsys.readouterr().err
    assert "odd.tsv:2:" in err
    assert needle in err
    assert len(err.splitlines()) == 1
    assert not (tmp_path / "s.tsv").exists()


@pytest.mark.parametrize(
    "argv",
    [["verify"], ["construct", "--method", "delete-max", "--out", "s.tsv"]],
    ids=["verify", "construct"],
)
@pytest.mark.parametrize("rows, line", [(["1\t1", "2\t2"], 4), ([], 2)], ids=["row", "meta"])
def test_a_last_line_without_a_newline_is_a_usage_error(
    tmp_path, capsys, monkeypatch, argv, rows, line
):
    # the writer ends every line in a newline, so this file would be a
    # second encoding of the set the file with the newline encodes
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "cut.tsv"
    meta = '{"c": null, "kind": null, "seed": null, "window_exponent": null}'
    path.write_text("\n".join(["#no3l v1", f"#meta {meta}", *rows]), encoding="ascii")
    assert main([*argv, "--in", str(path)]) == 2
    err = capsys.readouterr().err
    assert f"cut.tsv:{line}: the last line has no final newline" in err
    assert len(err.splitlines()) == 1
    assert not (tmp_path / "s.tsv").exists()


MUTATION_BYTES = b"+-0_ \t\n\r19a#{}\"\x00\xff"

# Meta lines the writer emits and ones it never does: unknown keys, NaN,
# infinities and overflowing literals, at the top level or nested.
_meta_values = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=3)),
    lambda inner: st.lists(inner, max_size=2),
    max_leaves=4,
)
meta_lines = st.one_of(
    st.none(),
    st.dictionaries(
        st.sampled_from(["kind", "seed", "c", "window_exponent", "extra"]), _meta_values, max_size=5
    ).map(json.dumps),
    st.just('{"c": 1e999}'),
)

mutated_files = st.tuples(
    st.lists(st.tuples(st.integers(1, 40), st.integers(1, 40)), max_size=12, unique=True),
    st.sampled_from([None, 6]),
    meta_lines,
    st.lists(
        st.tuples(
            st.sampled_from(["insert", "delete", "replace"]),
            st.integers(-30, 60),
            st.sampled_from(MUTATION_BYTES),
        ),
        min_size=1,
        max_size=4,
    ),
)


def _write_mutated(path, spec) -> bytes:
    """Write a valid file, swap in the given meta line, apply the byte edits,
    and return what was written.

    Edit positions count from the first row, so small offsets hit the rows
    and negative ones the header.
    """
    pts, window, meta, edits = spec
    write_pointset(PointSet(pts, {"kind": "sampled", "window_exponent": window}), path)
    data = bytearray(path.read_bytes())
    rows_start = data.index(b"\n", data.index(b"\n") + 1) + 1
    if meta is not None:
        header = f"#no3l v1\n#meta {meta}\n".encode("ascii")
        data[:rows_start] = header
        rows_start = len(header)
    for op, offset, byte in edits:
        at = min(max(rows_start + offset, 0), len(data))
        if op == "insert":
            data.insert(at, byte)
        elif at < len(data):
            if op == "delete":
                del data[at]
            else:
                data[at] = byte
    path.write_bytes(bytes(data))
    return bytes(data)


@given(mutated_files)
@settings(max_examples=300, deadline=None)
def test_read_pointset_is_canonical_or_rejects(tmp_path_factory, spec):
    tmp = tmp_path_factory.mktemp("fuzz")
    data = _write_mutated(tmp / "in.tsv", spec)
    try:
        ps = read_pointset(tmp / "in.tsv")
    except ValueError:
        return
    # a file that reads is the writer's file of its set, byte for byte
    write_pointset(ps, tmp / "out.tsv")
    assert (tmp / "out.tsv").read_bytes() == data
    assert read_pointset(tmp / "out.tsv") == ps


@given(mutated_files)
@settings(max_examples=150, deadline=None)
def test_verify_on_mutated_files_keeps_the_exit_contract(tmp_path_factory, spec):
    path = tmp_path_factory.mktemp("fuzz") / "in.tsv"
    _write_mutated(path, spec)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        status = main(["verify", "--in", str(path)])
    assert status in (0, 1, 2)
    assert len(err.getvalue().splitlines()) <= 1


DEEPLY_NESTED_JSON = "[" * 100000 + "]" * 100000


@pytest.mark.parametrize(
    "argv",
    [["verify"], ["construct", "--method", "delete-max", "--out", "s.tsv"]],
    ids=["verify", "construct"],
)
def test_deeply_nested_meta_is_a_usage_error(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "deep.tsv"
    path.write_text(f"#no3l v1\n#meta {DEEPLY_NESTED_JSON}\n1\t1\n", encoding="ascii")
    assert main([*argv, "--in", str(path)]) == 2
    err = capsys.readouterr().err
    assert "nested too deeply" in err
    assert len(err.splitlines()) == 1


def test_stats_rejects_deeply_nested_manifest(tmp_path, capsys):
    man = tmp_path / "man.json"
    man.write_text(DEEPLY_NESTED_JSON, encoding="ascii")
    assert main(["stats", "--manifest", str(man), "--out", str(tmp_path / "runs")]) == 2
    err = capsys.readouterr().err
    assert "nested too deeply" in err
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize(
    "doc,needle",
    [
        ({"base_seed": 3, "trial_count": 2, "c": 0.2, "window_exponent": 6,
          "trails": 2}, "trails"),
        ({"base_seed": 3, "c": 0.2, "window_exponent": 6}, "trial_count"),
        ({"base_seed": 3, "trial_count": "2", "c": 0.2, "window_exponent": 6},
         "trial_count"),
        ([3, 2, 0.2, 6], "JSON object"),
    ],
    ids=["unknown-key", "missing-key", "wrong-type", "not-an-object"],
)
def test_stats_rejects_bad_manifest(tmp_path, capsys, doc, needle):
    man = tmp_path / "man.json"
    man.write_text(json.dumps(doc), encoding="ascii")
    assert main(["stats", "--manifest", str(man), "--out", str(tmp_path / "runs")]) == 2
    err = capsys.readouterr().err
    assert needle in err
    assert len(err.splitlines()) == 1


_GOOD_KEYS = '"trial_count": 2, "c": 0.1, "window_exponent": 6'


@pytest.mark.parametrize(
    "text",
    [
        '{"base_seed": 1, }',
        '{"base_seed": 1, "trial_count": 0, "c": 0.1, "window_exponent": 6}',
        '{"base_seed": 1, "trial_count": 2, "c": NaN, "window_exponent": 6}',
        '{"base_seed": 1, "trial_count": 2, "c": -Infinity, "window_exponent": 6}',
        '{"base_seed": 1, "trial_count": 2, "c": 1e999, "window_exponent": 6}',
        '{"base_seed": 1, "trial_count": 2, "c": 0.1, "window_exponent": 40}',
        '{"base_seed": -1, ' + _GOOD_KEYS + "}",
        '{"base_seed": 1, "log_base": "log2", ' + _GOOD_KEYS + "}",
        '{"base_seed": 1, "t_exact_cap": 0, ' + _GOOD_KEYS + "}",
        '{"base_seed": 1, "base_seed": 2, ' + _GOOD_KEYS + "}",
        '{"base_seed": 1, "out_dir": {"a": 1, "a": 2}, ' + _GOOD_KEYS + "}",
        '{"base_seed": 1' + "0" * 5000 + ", " + _GOOD_KEYS + "}",
    ],
    ids=[
        "syntax", "no-trials", "nan-rate", "infinite-rate", "overflowing-rate", "wide-window",
        "negative-seed", "log2", "exact-cap", "duplicate-key", "nested-duplicate", "huge-int",
    ],
)
def test_every_manifest_error_names_its_file(tmp_path, capsys, monkeypatch, text):
    monkeypatch.setattr(experiments, "_run_one_trial", _no_trial)
    monkeypatch.setattr(parallel, "ProcessPoolExecutor", _NoPool)
    monkeypatch.chdir(tmp_path)
    Path("man.json").write_text(text, encoding="ascii")
    assert main(["stats", "--manifest", "man.json"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: man.json: ")
    assert len(err.splitlines()) == 1
    assert not Path("trials").exists()


RATES_WITHOUT_A_FLOAT_CUBE = pytest.mark.parametrize(
    "rate", ["1e200", "1e-200"], ids=["cube-overflows", "cube-underflows"]
)


@RATES_WITHOUT_A_FLOAT_CUBE
def test_lemmas_rejects_rate_without_a_float_cube(capsys, rate):
    assert main(["lemmas", "--tmin", "2", "--tmax", "3", "--c", rate,
                 "--trials", "3"]) == 2
    err = capsys.readouterr().err
    assert "c**3" in err
    assert len(err.splitlines()) == 1


@RATES_WITHOUT_A_FLOAT_CUBE
def test_bench_rejects_rate_without_a_float_cube(capsys, rate):
    assert main(["bench", "--c", rate, "--window", "3", "--trials", "2",
                 "--nmin", "2", "--alpha", "0.1"]) == 2
    err = capsys.readouterr().err
    assert "c**3" in err
    assert len(err.splitlines()) == 1


@RATES_WITHOUT_A_FLOAT_CUBE
def test_stats_rejects_rate_without_a_float_cube(tmp_path, capsys, rate):
    man = tmp_path / "man.json"
    man.write_text(json.dumps({
        "base_seed": 3, "trial_count": 2, "c": float(rate), "window_exponent": 3,
    }), encoding="ascii")
    out = tmp_path / "runs"
    assert main(["stats", "--manifest", str(man), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "c**3" in err
    assert len(err.splitlines()) == 1
    assert not out.exists()
