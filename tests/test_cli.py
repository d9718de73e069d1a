"""Command-line surface: subcommands, file round-trips, exit codes."""

import io
import os
import struct
import subprocess
import sys
import tempfile
import threading
import time
import tracemalloc
import warnings
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import segboost.booster
import segboost.cli
import segboost.tensors
from segboost import (
    IGNORE_LABEL,
    SimConfig,
    TensorFormatError,
    ValidationError,
    argmax_labels,
    boost,
    boost_report,
    one_hot,
    read_tensor,
    validate_probmap,
    vote_naive,
    VicinitySpec,
    write_tensor,
)
from segboost.cli import build_parser, main


def run_cli(*args):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(args))
    return code, out.getvalue(), err.getvalue()


def _rows_of(band, *args):
    """``(owner, rows)``: the array that owns a class-last band view's memory, and the rows of it the band covers."""
    owner = band if band.base is None else band.base
    start = (band.__array_interface__["data"][0] - owner.__array_interface__["data"][0]) // band.strides[-3]
    return id(owner), range(start, start + band.shape[-3])


def count_stages(monkeypatch):
    """What each pipeline stage covers, call by call, counted at the name each module calls.

    The booster and the CLI run the private kernels once the input is
    checked. Validate, argmax and confidence record the rows of the map or
    band they scan (see :func:`covered_rows`), weights the number of images
    it weighs, and votes the height of the one-hot block it counts and the
    rows of that block it votes on. A view covers its rows of the array it
    views (:func:`_rows_of`). A band that ``segboost boost`` streams sits in
    a buffer of its own, so it covers the rows its thread last began: rows
    of the input file, read through the band getter, in pass 1, and rows of
    the boosted map, voted on in pass 2.
    """
    began = threading.local()  # (owner, rows) of the streamed band this thread is on
    read = segboost.tensors._Ten1Rows.__getitem__
    def get_band(reader, index):
        began.band = (id(reader), range(*index[-3].indices(reader.shape[1])))
        return read(reader, index)
    monkeypatch.setattr(segboost.tensors._Ten1Rows, "__getitem__", get_band)
    votes = segboost.booster._votes
    def vote_band(labels, rows, *args):
        began.band = ("boosted", range(rows.start, rows.stop))
        return votes(labels, rows, *args)
    monkeypatch.setattr(segboost.booster, "_votes", vote_band)
    def rows_of(band, *args):
        return began.band if band.base is None and hasattr(began, "band") else _rows_of(band)

    stages = {
        "validate": ({"booster": "_is_probmap", "cli": "validate_probmap"}, rows_of),
        "vote": ({"booster": "_band_votes", "cli": "vote_integral"},
                 lambda p_oh, v, rows=slice(None), *_: (len(p_oh), range(*rows.indices(len(p_oh))))),
        "confidence": ({"booster": "_neg_entropy", "cli": "_neg_entropy"}, rows_of),
        "weights": ({"booster": "_image_weights", "cli": "_image_weights"}, lambda planes: planes.shape[0]),
        "argmax": ({"booster": "_argmax", "cli": "argmax_labels"}, rows_of),
    }
    cover = {stage: [] for stage in stages}
    for stage, (names, measure) in stages.items():
        for module_name, name in names.items():
            module = getattr(segboost, module_name)
            def counted(*args, _fn=getattr(module, name), _log=cover[stage], _measure=measure, **kwargs):
                _log.append(_measure(*args))
                return _fn(*args, **kwargs)
            monkeypatch.setattr(module, name, counted)
    return cover


def covered_rows(calls):
    """The rows each array had scanned, in call order, one list per array, arrays in the order first seen."""
    rows = {}
    for owner, band in calls:
        rows.setdefault(owner, []).extend(band)
    return list(rows.values())


@pytest.fixture
def probmap(tmp_path):
    rng = np.random.default_rng(31)
    raw = rng.random((12, 10, 3)).astype(np.float32) + np.float32(1e-3)
    pred = raw / raw.sum(axis=2, keepdims=True)
    path = tmp_path / "pred.ten1"
    path.write_bytes(write_tensor(pred))
    return path, pred


@pytest.fixture
def labelmap(tmp_path):
    rng = np.random.default_rng(37)
    labels = rng.integers(0, 3, size=(9, 9)).astype(np.uint16)
    path = tmp_path / "labels.ten1"
    path.write_bytes(write_tensor(labels))
    return path, labels


class TestExitCodes:
    def test_usage_errors_exit_one(self, probmap, tmp_path):
        path, _ = probmap
        assert run_cli()[0] == 1
        assert run_cli("boost")[0] == 1  # --out missing
        assert run_cli("boost", str(path), "--out", str(tmp_path / "o"), "--vicinity", "4")[0] == 1
        assert run_cli("boost", str(path), "--out", str(tmp_path / "o"), "--bogus")[0] == 1
        assert run_cli("frobnicate")[0] == 1
        assert run_cli("bounds", "--n", "100")[0] == 1
        assert run_cli("simulate", "--policies", "ruv,warp", "--iters", "1")[0] == 1

    def test_window_and_policy_rules_are_worded_by_the_library(self, probmap, tmp_path, monkeypatch):
        path, _ = probmap
        monkeypatch.setattr(segboost.cli, "ablate", lambda *args: pytest.fail("a grid cell ran"))
        out = str(tmp_path / "o")
        for argv, rule in [
            (("boost", str(path), "--out", out, "--vicinity", "4"), lambda: VicinitySpec(4, 4)),
            (("vote", str(path), "--out", out, "--vicinity", "-1"), lambda: VicinitySpec(-1, -1)),
            (("simulate", "--vicinities", "3,4"), lambda: VicinitySpec(4, 4)),
            (("simulate", "--vicinity", "0"), lambda: VicinitySpec(0, 0)),
            (("simulate", "--policies", "ruv,warp"), lambda: SimConfig(policy="warp")),
        ]:
            with pytest.raises(ValidationError) as info:
                rule()
            assert run_cli(*argv) == (1, "", f"usage error: {info.value}\n")

    @pytest.mark.parametrize("lam", ["0", "1.5"])
    def test_diverged_training_is_a_data_error(self, lam):
        with np.errstate(all="ignore"):
            code, out, err = run_cli("simulate", "--lr", "1e100", "--iters", "5", "--images", "6",
                                     "--labeled-fraction", "0.25", "--lambda", lam, "--seed", "0")
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.endswith(" at iteration 5\n")

    @pytest.mark.parametrize("flag, value", [
        ("--eval-every", "0"), ("--noise", "-1"), ("--lambda", "nan"), ("--batch", "0"),
        ("--lr", "-1"), ("--height", "0"), ("--seed", "-1"), ("--labeled-fraction", "1"),
    ])
    def test_config_that_cannot_run_is_one_usage_error(self, flag, value):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_cli("simulate", "--iters", "2", "--images", "4", flag, value)
        assert (code, out, caught) == (1, "", [])
        assert len(err.splitlines()) == 1 and err.startswith("usage error: ")

    def test_data_errors_exit_two(self, tmp_path):
        missing = tmp_path / "missing.ten1"
        assert run_cli("boost", str(missing), "--out", str(tmp_path / "o"))[0] == 2
        bad = tmp_path / "bad.ten1"
        bad.write_bytes(b"WHAT" + bytes(20))
        code, _, err = run_cli("boost", str(bad), "--out", str(tmp_path / "o"))
        assert code == 2
        assert "magic" in err and "offset" in err

    def test_success_exits_zero(self, probmap, tmp_path):
        path, _ = probmap
        assert run_cli("boost", str(path), "--out", str(tmp_path / "out.ten1"))[0] == 0


class TestBoostCommand:
    def test_writes_valid_boosted_tensor(self, probmap, tmp_path):
        path, pred = probmap
        out = tmp_path / "boosted.ten1"
        code, report, _ = run_cli("boost", str(path), "--out", str(out), "--vicinity", "3")
        assert code == 0
        boosted = read_tensor(out.read_bytes())
        assert boosted.shape == pred.shape
        assert boosted.dtype == np.float32
        np.testing.assert_allclose(boosted.sum(axis=2, dtype=np.float64), 1.0, atol=1e-6)
        assert report.splitlines()[0] == "metric,value"
        assert "changed_fraction," in report

    def test_policy_none_writes_one_hot(self, probmap, tmp_path):
        path, pred = probmap
        out = tmp_path / "none.ten1"
        run_cli("boost", str(path), "--out", str(out), "--policy", "none")
        expected = one_hot(argmax_labels(pred), 3).astype(np.float32)
        np.testing.assert_array_equal(read_tensor(out.read_bytes()), expected)

    def test_harden_writes_u16_labels(self, probmap, tmp_path):
        path, pred = probmap
        out = tmp_path / "hard.ten1"
        run_cli("boost", str(path), "--out", str(out), "--harden")
        labels = read_tensor(out.read_bytes())
        assert labels.dtype == np.uint16
        assert labels.shape == pred.shape[:2]

    def test_round_trip_is_bit_exact(self, probmap, tmp_path):
        path, _ = probmap
        out = tmp_path / "b.ten1"
        run_cli("boost", str(path), "--out", str(out))
        blob = out.read_bytes()
        assert write_tensor(read_tensor(blob)) == blob

    @pytest.mark.parametrize("policy", ["ruv", "uniform", "none"])
    def test_report_lines_are_the_library_report(self, probmap, tmp_path, policy):
        path, pred = probmap
        _, text, _ = run_cli("boost", str(path), "--out", str(tmp_path / "b.ten1"),
                             "--vicinity", "3", "--border", "zero", "--policy", policy)
        rep = boost_report(pred, VicinitySpec(3, 3, "zero"), policy)
        assert text.splitlines() == [
            "metric,value",
            f"changed_fraction,{rep.changed_fraction:.6f}",
            f"mean_weight,{rep.mean_weight:.6f}",
            f"mean_confidence,{rep.mean_confidence:.6f}",
        ]

    @pytest.mark.parametrize("harden", [[], ["--harden"]])
    def test_each_stage_runs_once(self, probmap, tmp_path, monkeypatch, harden):
        path, pred = probmap
        every_row = list(range(pred.shape[0]))  # 12 rows: bands 0-4, 5-9 and 10-11
        monkeypatch.setattr(segboost.booster, "_BAND_ROWS", 5)
        monkeypatch.setattr(segboost.booster, "_THREADS", 1)  # the stages then see the bands in order
        cover = count_stages(monkeypatch)
        assert run_cli("boost", str(path), "--out", str(tmp_path / "b.ten1"), "--vicinity", "3", *harden)[0] == 0
        assert covered_rows(cover["validate"]) == covered_rows(cover["confidence"]) == [every_row]
        # argmax runs on the input and on the boosted map, which --harden reuses
        assert covered_rows(cover["argmax"]) == [every_row, every_row]
        assert cover["weights"] == [1]  # one call weighs the one image
        # each band's one-hot has a halo of the window's row radius, 1, clipped to the map: rows 0-5, 4-10
        # and 9-11; votes come only for the band's own rows 0-4, 5-9 and 10-11
        assert cover["vote"] == [(6, range(0, 5)), (7, range(1, 6)), (3, range(1, 3))]

    @pytest.mark.parametrize("threads", [2, 3])
    def test_each_stage_runs_once_on_threads(self, probmap, tmp_path, monkeypatch, threads):
        path, pred = probmap
        every_row = list(range(pred.shape[0]))
        monkeypatch.setattr(segboost.booster, "_BAND_ROWS", 5)
        monkeypatch.setattr(segboost.booster, "_THREADS", threads)
        cover = count_stages(monkeypatch)
        ran_on = []
        argmax = segboost.booster._argmax
        def recorded(*args):
            ran_on.append(threading.current_thread())
            return argmax(*args)
        monkeypatch.setattr(segboost.booster, "_argmax", recorded)
        assert run_cli("boost", str(path), "--out", str(tmp_path / "b.ten1"), "--vicinity", "3")[0] == 0
        # pass 1 ends before pass 2 starts, and each starts its own helpers
        assert len(ran_on) == 6
        for one_pass in (ran_on[:3], ran_on[3:]):  # 3 bands: one thread each, or the caller takes bands 0 and 2
            assert len(set(one_pass)) == threads
        # the same bands as on one thread, each once, in whatever order the threads ran them
        for stage, maps in (("validate", 1), ("confidence", 1), ("argmax", 2)):
            assert [sorted(rows) for rows in covered_rows(cover[stage])] == [every_row] * maps, stage
        assert cover["weights"] == [1]
        assert Counter(cover["vote"]) == Counter([(6, range(0, 5)), (7, range(1, 6)), (3, range(1, 3))])

    @pytest.mark.parametrize("policy", ["ruv", "uniform", "none"])
    @pytest.mark.parametrize("border", ["clip", "zero"])
    def test_soft_output_is_the_tensor_of_the_library_boost(self, probmap, tmp_path, monkeypatch, policy, border):
        path, pred = probmap
        monkeypatch.setattr(segboost.booster, "_BAND_ROWS", 5)
        out = tmp_path / "soft.ten1"
        assert run_cli("boost", str(path), "--out", str(out), "--vicinity", "5", "--border", border,
                       "--policy", policy)[0] == 0
        assert out.read_bytes() == write_tensor(boost(pred, VicinitySpec(5, 5, border), policy).data)

    @pytest.mark.parametrize("policy", ["ruv", "uniform", "none"])
    def test_harden_writes_the_argmax_of_the_boosted_map(self, probmap, tmp_path, policy):
        path, pred = probmap
        out = tmp_path / "hard.ten1"
        run_cli("boost", str(path), "--out", str(out), "--harden", "--vicinity", "3", "--policy", policy)
        want = argmax_labels(boost(pred, VicinitySpec(3, 3), policy).data)
        assert out.read_bytes() == write_tensor(want)

    def test_rejects_maps_that_are_not_probabilities(self, tmp_path):
        src, out = tmp_path / "pred.ten1", tmp_path / "o.ten1"
        src.write_bytes(write_tensor(np.full((4, 5, 3), 5.0 / 7.0, dtype=np.float32)))
        for command in (["boost", str(src), "--out", str(out)], ["conf", str(src)]):
            code, _, err = run_cli(*command)
            assert code == 2
            assert "class sum" in err


@st.composite
def _probmaps(draw):
    """An (H, W, K) float32 probability map with ties and exact zeros, 1 to 40 rows: up to 40 bands, or two of 32."""
    shape = (draw(st.integers(1, 40)), draw(st.integers(1, 5)), draw(st.integers(1, 20)))
    raw = draw(arrays(np.int64, shape, elements=st.integers(0, 3) | st.integers(0, 10**6)))
    raw[..., 0] += raw.sum(axis=-1) == 0  # every row has mass
    return (raw / raw.sum(axis=-1, keepdims=True)).astype(np.float32)


class _ShortFile(io.FileIO):
    """A file whose reads return no bytes from offset ``cut`` on, as if it ended there."""

    cut = 0

    def readinto(self, buffer):
        room = self.cut - self.tell()
        return super().readinto(memoryview(buffer).cast("B")[:room]) if room > 0 else 0


class TestStreamedBoost:
    """``segboost boost`` reads its input and writes its output a band of rows at a time."""

    @given(pred=_probmaps(), band=st.sampled_from([1, 7, 32]), threads=st.integers(1, 3),
           policy=st.sampled_from(["ruv", "uniform", "none"]), border=st.sampled_from(["clip", "zero"]),
           size=st.sampled_from([1, 3, 5, 9]))
    def test_files_and_lines_are_the_library_boost(self, pred, band, threads, policy, border, size):
        v = VicinitySpec(size, size, border)
        rep = boost_report(pred, v, policy)
        printed = (f"metric,value\nchanged_fraction,{rep.changed_fraction:.6f}\n"
                   f"mean_weight,{rep.mean_weight:.6f}\nmean_confidence,{rep.mean_confidence:.6f}\n")
        with tempfile.TemporaryDirectory() as d, pytest.MonkeyPatch.context() as patch:
            patch.setattr(segboost.booster, "_BAND_ROWS", band)
            patch.setattr(segboost.booster, "_THREADS", threads)
            src, soft, hard = Path(d) / "pred.ten1", Path(d) / "soft.ten1", Path(d) / "hard.ten1"
            src.write_bytes(write_tensor(pred))
            flags = ["--vicinity", str(size), "--border", border, "--policy", policy]
            assert run_cli("boost", str(src), "--out", str(soft), *flags) == (0, printed, "")
            assert run_cli("boost", str(src), "--out", str(hard), "--harden", *flags) == (0, printed, "")
            assert soft.read_bytes() == write_tensor(boost(pred, v, policy).data)
            assert hard.read_bytes() == write_tensor(rep.labels)

    @pytest.mark.parametrize("harden", [[], ["--harden"]])
    def test_out_may_name_the_input(self, probmap, tmp_path, monkeypatch, harden):
        path, _ = probmap
        monkeypatch.setattr(segboost.booster, "_BAND_ROWS", 5)
        apart = tmp_path / "apart.ten1"
        want = run_cli("boost", str(path), "--out", str(apart), *harden)
        assert run_cli("boost", str(path), "--out", str(path), *harden) == want and want[0] == 0
        assert path.read_bytes() == apart.read_bytes()

    @pytest.mark.parametrize("harden", [[], ["--harden"]])
    def test_a_map_that_fails_its_check_leaves_out_as_it_was(self, tmp_path, monkeypatch, harden):
        pred = np.full((12, 4, 3), 1 / 3, dtype=np.float32)
        pred[9, 2] = [0.5, 0.5, 0.5]  # in the last of three 5-row bands
        pred[11, 1, 0] = np.nan
        with pytest.raises(ValidationError) as whole:
            validate_probmap(pred)
        src, out = tmp_path / "pred.ten1", tmp_path / "o.ten1"
        src.write_bytes(write_tensor(pred))
        out.write_bytes(b"an earlier output")
        monkeypatch.setattr(segboost.booster, "_BAND_ROWS", 5)
        assert run_cli("boost", str(src), "--out", str(out), *harden) == (2, "", f"error: {whole.value}\n")
        assert out.read_bytes() == b"an earlier output"

    def test_a_file_that_ends_mid_band_is_a_truncated_payload(self, probmap, tmp_path, monkeypatch):
        path, pred = probmap
        row = pred.shape[1] * pred.shape[2] * 4
        cut = 6 + 8 * 3 + 7 * row + row // 2  # halfway through row 7, in the second of three 5-row bands
        monkeypatch.setattr(segboost.booster, "_BAND_ROWS", 5)
        monkeypatch.setattr(_ShortFile, "cut", cut)
        monkeypatch.setattr(segboost.cli, "open", lambda file, *args, **kwargs: _ShortFile(file), raising=False)
        out = tmp_path / "o.ten1"
        for threads in (1, 2):
            monkeypatch.setattr(segboost.booster, "_THREADS", threads)
            assert run_cli("boost", str(path), "--out", str(out)) == (
                2, "", f"error: truncated payload (byte offset {cut})\n")
            assert not out.exists()
        with pytest.raises(TensorFormatError) as info:
            segboost.cli._read_file(str(path), segboost.cli._PROBMAP)
        assert info.value.offset == cut

    @pytest.mark.parametrize("dims", [(0, 2**62, 3), (4, 2**62, 0)])
    def test_an_empty_map_numpy_cannot_hold_is_a_format_error(self, tmp_path, dims):
        blob = b"TEN1" + bytes([0, 3]) + struct.pack("<3Q", *dims)
        with pytest.raises(TensorFormatError) as info:
            read_tensor(blob)
        src = tmp_path / "pred.ten1"
        src.write_bytes(blob)
        assert run_cli("boost", str(src), "--out", str(tmp_path / "o.ten1")) == (2, "", f"error: {info.value}\n")

    def test_a_tall_map_with_no_pixels_exits_at_once(self, tmp_path):
        # a 30-byte file naming (2**22, 0, 3) kept a loop over its bands busy for 3 to 6 s; a larger h would
        # only cost more time and memory to show the same fault, so no larger case is made
        src = tmp_path / "pred.ten1"
        src.write_bytes(b"TEN1" + bytes([0, 3]) + struct.pack("<3Q", 2**22, 0, 3))
        start = time.perf_counter()
        done = run_cli("boost", str(src), "--out", str(tmp_path / "o.ten1"))
        assert time.perf_counter() - start < 0.1
        assert done == (2, "", "error: confidence plane of shape (4194304, 0) has no pixels\n")
        assert not (tmp_path / "o.ten1").exists()

    def test_a_run_cut_short_leaves_no_file_that_reads_as_a_tensor(self, probmap, tmp_path, monkeypatch):
        # band 1 of 2 is written before band 0 fails, so the file has the size of the whole tensor
        path, _ = probmap
        monkeypatch.setattr(segboost.booster, "_BAND_ROWS", 6)
        monkeypatch.setattr(segboost.booster, "_THREADS", 2)
        written = threading.Event()
        write, votes = segboost.tensors._Ten1Rows.write, segboost.booster._votes
        def put(writer, rows, band):
            write(writer, rows, band)
            written.set()
        def vote(labels, rows, *args):
            if rows.start == 0:
                assert written.wait(30)
                raise OSError("no space left on device")
            return votes(labels, rows, *args)
        monkeypatch.setattr(segboost.tensors._Ten1Rows, "write", put)
        monkeypatch.setattr(segboost.booster, "_votes", vote)
        out = tmp_path / "o.ten1"
        assert run_cli("boost", str(path), "--out", str(out)) == (2, "", "error: no space left on device\n")
        assert out.stat().st_size == path.stat().st_size
        with pytest.raises(TensorFormatError, match="bad magic"):
            read_tensor(out.read_bytes())

    @pytest.mark.parametrize("harden", [[], ["--harden"]])
    def test_out_may_name_a_named_pipe(self, probmap, tmp_path, monkeypatch, harden):
        path, _ = probmap
        monkeypatch.setattr(segboost.booster, "_BAND_ROWS", 5)
        fifo, want = tmp_path / "out.fifo", tmp_path / "want.ten1"
        os.mkfifo(fifo)
        got = []
        def drain():
            with open(fifo, "rb") as f:
                got.append(f.read())
        reader = threading.Thread(target=drain, daemon=True)
        reader.start()
        try:
            done = run_cli("boost", str(path), "--out", str(fifo), *harden)
        finally:
            reader.join(30)
            if reader.is_alive():  # the command never opened the pipe: open it so the reader returns
                with open(fifo, "wb"):
                    pass
        assert done == run_cli("boost", str(path), "--out", str(want), *harden) and done[0] == 0
        assert got == [want.read_bytes()]

    @pytest.mark.parametrize("harden", [[], ["--harden"]])
    @pytest.mark.parametrize("stdin", ["pipe", "file"])
    def test_dash_reads_stdin(self, probmap, tmp_path, harden, stdin):
        # cat pred.ten1 | segboost boost - --out o.ten1, and segboost boost - --out o.ten1 < pred.ten1
        path, _ = probmap
        want, got = tmp_path / "want.ten1", tmp_path / "got.ten1"
        code, lines, _ = run_cli("boost", str(path), "--out", str(want), "--vicinity", "3", *harden)
        src = str(Path(segboost.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        argv = [sys.executable, "-m", "segboost.cli", "boost", "-", "--out", str(got), "--vicinity", "3", *harden]
        with open(path, "rb") as f:
            feed = dict(input=f.read()) if stdin == "pipe" else dict(stdin=f)
            done = subprocess.run(argv, env=env, capture_output=True, timeout=120, **feed)
        assert (done.returncode, done.stdout.decode(), done.stderr) == (code, lines, b"") and code == 0
        assert got.read_bytes() == want.read_bytes()

    def test_a_large_map_peaks_at_a_fraction_of_its_input(self, tmp_path):
        # the (H, W) planes and two bands in flight take about 0.5x; the whole input alone would take 1x
        pred = np.random.default_rng(44).random((1024, 512, 19), dtype=np.float32) + np.float32(1e-3)
        pred /= pred.sum(axis=2, keepdims=True)
        src = tmp_path / "pred.ten1"
        src.write_bytes(write_tensor(pred))
        del pred
        tracemalloc.start()
        try:
            assert run_cli("boost", str(src), "--out", str(tmp_path / "o.ten1"))[0] == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        nbytes = 1024 * 512 * 19 * 4
        assert peak <= 0.6 * nbytes, f"peak {peak / nbytes:.2f}x the input"


class TestOutputsInPlace:
    """A TEN1 ``--out`` is overwritten in place, not truncated first, and ends with the bytes of a fresh write."""

    @pytest.mark.parametrize("command", [["boost"], ["boost", "--harden"], ["conf"], ["vote"]])
    @pytest.mark.parametrize("before", ["longer", "shorter", "the same tensor"])
    def test_an_existing_out_ends_as_a_fresh_write(self, probmap, tmp_path, command, before):
        path, _ = probmap
        fresh, out = tmp_path / "fresh.ten1", tmp_path / "out.ten1"
        want = run_cli(command[0], str(path), "--out", str(fresh), *command[1:])
        size = fresh.stat().st_size
        out.write_bytes({"longer": b"\xff" * (size + 4099), "shorter": b"TEN1\x00",
                         "the same tensor": fresh.read_bytes()}[before])
        assert run_cli(command[0], str(path), "--out", str(out), *command[1:]) == want and want[0] == 0
        assert out.read_bytes() == fresh.read_bytes()

    @pytest.mark.parametrize("first, then", [([], ["--harden"]), (["--harden"], [])])
    def test_harden_and_soft_outputs_overwrite_each_other(self, probmap, tmp_path, first, then):
        path, _ = probmap
        fresh, out = tmp_path / "fresh.ten1", tmp_path / "out.ten1"
        assert run_cli("boost", str(path), "--out", str(out), *first)[0] == 0
        assert run_cli("boost", str(path), "--out", str(out), *then) == run_cli(
            "boost", str(path), "--out", str(fresh), *then)
        assert out.read_bytes() == fresh.read_bytes()

    @pytest.mark.parametrize("threads", [1, 2])
    def test_a_pass_2_failure_over_an_earlier_output_leaves_bad_magic(self, probmap, tmp_path, monkeypatch, threads):
        # the earlier output is a whole tensor of the same shape; its header must not survive the failed run
        path, _ = probmap
        out = tmp_path / "o.ten1"
        assert run_cli("boost", str(path), "--out", str(out))[0] == 0
        monkeypatch.setattr(segboost.booster, "_BAND_ROWS", 5)
        monkeypatch.setattr(segboost.booster, "_THREADS", threads)
        votes = segboost.booster._votes
        def vote(labels, rows, *args):
            if rows.start == 5:
                raise OSError("no space left on device")
            return votes(labels, rows, *args)
        monkeypatch.setattr(segboost.booster, "_votes", vote)
        assert run_cli("boost", str(path), "--out", str(out)) == (2, "", "error: no space left on device\n")
        with pytest.raises(TensorFormatError, match="bad magic"):
            read_tensor(out.read_bytes())

    @pytest.mark.parametrize("command", [["boost"], ["boost", "--harden"], ["conf"]])
    def test_out_may_name_a_device_that_cannot_be_cut(self, probmap, tmp_path, command):
        # the null device seeks but cannot be truncated; only a regular file is overwritten in place
        path, _ = probmap
        want = run_cli(command[0], str(path), "--out", str(tmp_path / "o.ten1"), *command[1:])
        assert run_cli(command[0], str(path), "--out", os.devnull, *command[1:]) == want and want[0] == 0


class TestVoteAndConf:
    def test_fast_flag_gives_identical_bytes(self, labelmap, tmp_path):
        path, _ = labelmap
        slow, fast = tmp_path / "v1.ten1", tmp_path / "v2.ten1"
        assert run_cli("vote", str(path), "--out", str(slow))[0] == 0
        assert run_cli("vote", str(path), "--out", str(fast), "--fast")[0] == 0
        assert slow.read_bytes() == fast.read_bytes()

    def test_vote_matches_library(self, labelmap, tmp_path):
        path, labels = labelmap
        out = tmp_path / "v.ten1"
        run_cli("vote", str(path), "--out", str(out), "--vicinity", "3", "--border", "zero")
        expected = vote_naive(one_hot(labels, 3), VicinitySpec(3, 3, "zero"))
        np.testing.assert_array_equal(read_tensor(out.read_bytes()), expected)

    def test_vote_accepts_probmap_input(self, probmap, tmp_path):
        path, pred = probmap
        out = tmp_path / "v.ten1"
        assert run_cli("vote", str(path), "--out", str(out))[0] == 0
        assert read_tensor(out.read_bytes()).shape == pred.shape

    def test_all_void_labelmap_needs_classes(self, tmp_path):
        path = tmp_path / "void.ten1"
        path.write_bytes(write_tensor(np.full((3, 3), IGNORE_LABEL, dtype=np.uint16)))
        assert run_cli("vote", str(path), "--out", str(tmp_path / "v.ten1"))[0] == 2
        assert run_cli("vote", str(path), "--out", str(tmp_path / "v.ten1"), "--classes", "2")[0] == 0

    def test_conf_checks_its_input_once(self, probmap, tmp_path, monkeypatch):
        path, pred = probmap
        cover = count_stages(monkeypatch)
        assert run_cli("conf", str(path), "--out", str(tmp_path / "c.ten1"))[0] == 0
        every_row = list(range(pred.shape[0]))
        assert covered_rows(cover["validate"]) == covered_rows(cover["confidence"]) == [every_row]
        assert (cover["weights"], cover["vote"], cover["argmax"]) == ([1], [], [])

    def test_conf_reads_a_named_pipe(self, probmap, tmp_path):
        path, _ = probmap
        fifo = tmp_path / "pred.fifo"
        os.mkfifo(fifo)
        def feed():
            with open(fifo, "wb") as f:
                f.write(path.read_bytes())
        writer = threading.Thread(target=feed, daemon=True)
        writer.start()
        try:
            got = run_cli("conf", str(fifo))
        finally:
            writer.join(30)
            if writer.is_alive():  # the command never opened the pipe: open it so the writer returns
                with open(fifo, "rb"):
                    pass
        assert got == run_cli("conf", str(path)) and got[0] == 0

    def test_conf_one_hot_is_zero_plane(self, tmp_path):
        oh = one_hot(np.zeros((4, 4), dtype=np.uint16), 2).astype(np.float32)
        path = tmp_path / "oh.ten1"
        path.write_bytes(write_tensor(oh))
        out = tmp_path / "conf.ten1"
        code, text, _ = run_cli("conf", str(path), "--out", str(out))
        assert code == 0
        np.testing.assert_array_equal(read_tensor(out.read_bytes()), np.zeros((4, 4), np.float32))
        assert "conf_mean,0.000000" in text


class TestEvalCommand:
    def test_identical_files_score_one(self, labelmap, tmp_path):
        path, _ = labelmap
        code, text, _ = run_cli("eval", str(path), str(path))
        assert code == 0
        assert text.strip().splitlines()[-1] == "miou,1.000000"

    def test_hand_counted_example(self, tmp_path):
        truth = tmp_path / "t.ten1"
        pred = tmp_path / "p.ten1"
        truth.write_bytes(write_tensor(np.array([[0, 0, 1, 1]], dtype=np.uint16)))
        pred.write_bytes(write_tensor(np.array([[0, 1, 1, 1]], dtype=np.uint16)))
        code, text, _ = run_cli("eval", str(truth), str(pred))
        lines = text.strip().splitlines()
        assert lines[0] == "class,iou"
        assert lines[1] == "0,0.500000"
        assert lines[2] == "1,0.666667"
        assert lines[-1] == "miou,0.583333"

    def test_disjoint_binary_files(self, tmp_path):
        truth = tmp_path / "t.ten1"
        pred = tmp_path / "p.ten1"
        truth.write_bytes(write_tensor(np.array([[0, 0]], dtype=np.uint16)))
        pred.write_bytes(write_tensor(np.array([[1, 1]], dtype=np.uint16)))
        code, text, _ = run_cli("eval", str(truth), str(pred), "--classes", "2")
        assert text.strip().splitlines()[-1] == "miou,0.000000"


class TestSimulateCommand:
    def test_deterministic_bytes(self, tmp_path):
        args = ("simulate", "--policy", "none", "--lambda", "0", "--seed", "7",
                "--iters", "12", "--images", "6", "--labeled-fraction", "0.25",
                "--eval-every", "12")
        a = run_cli(*args)
        b = run_cli(*args)
        assert a[0] == 0
        assert a[1] == b[1]
        assert a[1].splitlines()[0] == "policy,vicinity,seed,iter,miou"

    def test_grid_row_count(self, tmp_path):
        out = tmp_path / "grid.csv"
        code, _, _ = run_cli(
            "simulate", "--policies", "none,uniform,ruv", "--vicinities", "3,5",
            "--seeds", "0,1", "--iters", "6", "--images", "6",
            "--labeled-fraction", "0.25", "--eval-every", "6", "--out", str(out),
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 1 + 2 * (1 + 1 + 2)

    def test_written_file_matches_stdout(self, tmp_path):
        args = ("simulate", "--policy", "ruv", "--seed", "3", "--iters", "6",
                "--images", "6", "--labeled-fraction", "0.25", "--eval-every", "6")
        _, stdout, _ = run_cli(*args)
        out = tmp_path / "o.csv"
        run_cli(*args, "--out", str(out))
        assert out.read_text() == stdout


class TestBoundsCommand:
    def test_closed_form_kl_zero(self):
        code, text, _ = run_cli("bounds", "--kl", "0", "--n", "100", "--delta", "0.05")
        assert code == 0
        assert text.splitlines()[0] == "quantity,mode,value"
        assert "gap_bound,-,0.173082" in text

    def test_mean_vector_path(self):
        code, text, _ = run_cli(
            "bounds", "--mu-q", "1,2", "--mu-p", "0,0", "--n", "50",
            "--risk", "0.1", "--mode", "paper",
        )
        assert code == 0
        assert "kl,paper,10.000000" in text
        assert "risk_upper_bound,paper," in text

    def test_standard_mode(self):
        _, text, _ = run_cli("bounds", "--mu-q", "1,2", "--mu-p", "0,0", "--n", "50",
                             "--mode", "standard")
        assert "kl,standard,2.500000" in text

    def test_kl_and_mean_routes_give_one_risk_bound(self):
        # standard-mode KL of means (1, 0) and (0, 0) is 0.5
        by_kl = run_cli("bounds", "--kl", "0.5", "--n", "100", "--risk", "0.1")[1]
        by_means = run_cli("bounds", "--mu-q", "1,0", "--mu-p", "0,0", "--mode", "standard",
                           "--n", "100", "--risk", "0.1")[1]
        assert "kl,standard,0.500000" in by_means
        risk_lines = [
            [line.rsplit(",", 1)[1] for line in text.splitlines() if line.startswith("risk_upper_bound,")]
            for text in (by_kl, by_means)
        ]
        assert risk_lines[0] == risk_lines[1] == ["0.323082"]

    def test_kl_and_means_together_is_usage_error(self):
        assert run_cli("bounds", "--kl", "1", "--mu-q", "1", "--mu-p", "0", "--n", "5")[0] == 1


class TestExportPgm:
    def test_writes_expected_header_and_levels(self, labelmap, tmp_path):
        path, labels = labelmap
        out = tmp_path / "img.pgm"
        code, _, _ = run_cli("export-pgm", str(path), "--out", str(out), "--classes", "3")
        assert code == 0
        blob = out.read_bytes()
        assert blob.startswith(b"P5\n9 9\n255\n")
        body = np.frombuffer(blob[len(b"P5\n9 9\n255\n"):], dtype=np.uint8)
        assert set(np.unique(body)) <= {0, 127, 254}

    def test_custom_palette(self, labelmap, tmp_path):
        path, _ = labelmap
        out = tmp_path / "img.pgm"
        code, _, _ = run_cli(
            "export-pgm", str(path), "--out", str(out), "--classes", "3",
            "--palette", "10,20,30",
        )
        assert code == 0
        body = np.frombuffer(out.read_bytes().split(b"\n255\n", 1)[1], dtype=np.uint8)
        assert set(np.unique(body)) <= {10, 20, 30}

    def test_probmap_input_rejected(self, probmap, tmp_path):
        path, _ = probmap
        assert run_cli("export-pgm", str(path), "--out", str(tmp_path / "x"), "--classes", "3")[0] == 2


def documented_command_lines():
    """Every ``segboost ...`` line of the README's "Command line" block and of the cli docstring."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    lines = block.splitlines() + segboost.cli.__doc__.splitlines()
    return [line.split("#", 1)[0].split() for line in lines if line.strip().startswith("segboost ")]


class TestDocumentedCommands:
    def test_every_documented_line_parses(self):
        argvs = documented_command_lines()
        assert len(argvs) >= 14
        for argv in argvs:
            build_parser().parse_args(argv[1:])


class TestSimulateFlags:
    @pytest.fixture
    def simulate(self, monkeypatch):
        """Run ``simulate`` with flags; returns the config, policies and window sizes ablate got."""
        calls = []

        def fake_ablate(data, config, policies, vicinities):
            calls.append((config, tuple(policies), tuple(vicinities)))
            return []

        monkeypatch.setattr(segboost.cli, "ablate", fake_ablate)

        def run(*flags):
            assert run_cli("simulate", *flags)[0] == 0
            (call,) = calls
            return call

        return run

    def test_no_flags_give_the_default_config(self, simulate):
        assert simulate() == (SimConfig(), ("ruv",), (5,))

    @pytest.mark.parametrize("flag, field, text, value", [
        ("--lambda", "lam", "0.5", 0.5), ("--lr", "lr", "0.05", 0.05), ("--iters", "iters", "7", 7),
        ("--batch", "batch", "2", 2), ("--eval-every", "eval_every", "3", 3), ("--images", "images", "9", 9),
        ("--height", "height", "11", 11), ("--width", "width", "13", 13), ("--classes", "classes", "4", 4),
        ("--labeled-fraction", "labeled_fraction", "0.25", 0.25), ("--noise", "noise", "0.1", 0.1),
        ("--seed", "seeds", "7", (7,)), ("--seeds", "seeds", "3,1", (3, 1)), ("--harden", "harden", None, True),
    ])
    def test_each_flag_sets_its_field(self, simulate, flag, field, text, value):
        config, _, _ = simulate(flag, *([text] if text else []))
        assert config == replace(SimConfig(), **{field: value})

    def test_window_flags_set_the_vicinity(self, simulate):
        config, _, vicinities = simulate("--vicinity", "3", "--border", "zero")
        assert config == replace(SimConfig(), vicinity=VicinitySpec(3, 3, "zero"))
        assert vicinities == (3,)

    def test_plural_flags_win(self, simulate):
        config, policies, vicinities = simulate(
            "--policy", "uniform", "--policies", "none,ruv", "--vicinity", "9", "--vicinities", "3,7",
            "--seed", "8", "--seeds", "1,2",
        )
        assert (policies, vicinities) == (("none", "ruv"), (3, 7))
        assert config == replace(SimConfig(), seeds=(1, 2), vicinity=VicinitySpec(3, 3))

    def test_names_drop_blank_items(self, simulate):
        assert simulate("--policies", " none, ,ruv,")[1] == ("none", "ruv")

    @pytest.mark.parametrize("args", [
        ("simulate", "--seeds", "1,,2"), ("simulate", "--vicinities", "3,,5"), ("simulate", "--seeds", "1,x"),
        ("bounds", "--mu-q", "1,,2", "--mu-p", "0,0", "--n", "5"),
        ("export-pgm", "in.ten1", "--out", "o.pgm", "--classes", "3", "--palette", "0,,2"),
    ])
    def test_numbers_reject_blank_items(self, args):
        code, out, err = run_cli(*args)
        assert (code, out) == (1, "")
        assert err.startswith("usage error: argument --")


class TestInputRules:
    @pytest.fixture
    def command(self, labelmap, tmp_path):
        path, _ = labelmap

        def argv(name, source=path):
            return {
                "boost": ["boost", str(source), "--out", str(tmp_path / "b.ten1")],
                "conf": ["conf", str(source)],
                "vote": ["vote", str(source), "--out", str(tmp_path / "v.ten1")],
                "eval": ["eval", str(source), str(source)],
                "export-pgm": ["export-pgm", str(source), "--out", str(tmp_path / "x.pgm"), "--classes", "3"],
            }[name]

        return argv

    @pytest.mark.parametrize("value", ["0", "-3"])
    @pytest.mark.parametrize("name", ["vote", "eval", "export-pgm"])
    def test_classes_below_one_is_a_usage_error(self, command, name, value):
        # vote and eval used to report "--classes 0 is below the largest label", exit 2
        code, out, err = run_cli(*command(name), "--classes", value)
        assert (code, out) == (1, "")
        assert err.startswith("usage error: class count must be an integer from 1 to ")

    @pytest.mark.parametrize("name, array, wanted", [
        ("boost", np.zeros((4, 4), np.uint16), "3-D f32 probability map"),
        ("conf", np.zeros((4, 4, 3), np.uint16), "3-D f32 probability map"),
        ("vote", np.zeros((4, 4), np.float32), "2-D u16 label map or 3-D f32 probability map"),
        ("eval", np.zeros((4, 4, 3), np.uint8), "2-D u16 label map or 3-D f32 probability map"),
        ("export-pgm", np.full((4, 4, 3), 1 / 3, np.float32), "2-D u16 label map"),
    ], ids=["boost", "conf", "vote", "eval", "export-pgm"])
    def test_wrong_file_kind_is_one_data_error(self, command, tmp_path, name, array, wanted):
        source = tmp_path / "wrong.ten1"
        source.write_bytes(write_tensor(array))
        code, out, err = run_cli(*command(name, source))
        assert (code, out) == (2, "")
        assert err == f"error: {source}: expected a {wanted}, got {array.dtype} with shape {array.shape}\n"

    def test_palette_level_above_255_is_a_data_error(self, command):
        # used to end in numpy's bare OverflowError
        code, _, err = run_cli(*command("export-pgm"), "--palette", "0,10,300")
        assert code == 2
        assert err.startswith("error: palette gray levels must be integers in 0..255")
