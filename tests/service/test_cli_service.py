"""Tests for the `repro serve` / `repro replay` CLI commands.

`replay` is exercised in-process (it terminates); `serve` is run as a
real subprocess with an ephemeral port and shut down with SIGINT, the
way an operator would drive it.
"""

import json
import signal
import subprocess
import sys
import time
import urllib.request

import pytest

from repro.cli import main
from repro.ratings.events import Rating
from repro.service import (DetectionService, ProcessDetectionService,
                           ServiceConfig)

from tests.service.conftest import SERVICE_THRESHOLDS, submit_all

ARGS_40 = ["--n", "40", "--shards", "3", "--t-n", "40"]


def make_data_dir(tmp_path, planted_events):
    """A durable data dir: one closed epoch + an open-epoch WAL tail."""
    service = DetectionService(ServiceConfig(
        n=40, num_shards=3, thresholds=SERVICE_THRESHOLDS,
        data_dir=tmp_path / "svc",
    )).start()
    submit_all(service, planted_events)
    service.end_period()
    service.submit([Rating(1, 0, 1), Rating(2, 0, 1), Rating(3, 0, -1)])
    service.kill()  # leave the tail un-snapshotted
    return tmp_path / "svc"


class TestReplay:
    def test_requires_data_dir(self, capsys):
        assert main(["replay", "--n", "40"]) == 2
        assert "--data-dir" in capsys.readouterr().err

    def test_replays_tail_and_reports(self, tmp_path, planted_events, capsys):
        data_dir = make_data_dir(tmp_path, planted_events)
        code = main(["replay", "--data-dir", str(data_dir), *ARGS_40])
        out = capsys.readouterr().out
        assert code == 0
        assert "recovered epoch=1" in out
        assert "replayed WAL tail: 3 event(s)" in out
        assert "pairs=[[4, 5], [6, 7]]" in out

    def test_verify_cross_checks_batch_detector(self, tmp_path,
                                                planted_events, capsys):
        data_dir = make_data_dir(tmp_path, planted_events)
        code = main(["replay", "--data-dir", str(data_dir), "--verify",
                     *ARGS_40])
        out = capsys.readouterr().out
        assert code == 0
        assert "MATCH" in out and "MISMATCH" not in out

    def test_end_period_closes_the_open_epoch(self, tmp_path,
                                              planted_events, capsys):
        data_dir = make_data_dir(tmp_path, planted_events)
        assert main(["replay", "--data-dir", str(data_dir), "--end-period",
                     *ARGS_40]) == 0
        capsys.readouterr()
        assert main(["replay", "--data-dir", str(data_dir), *ARGS_40]) == 0
        assert "recovered epoch=2" in capsys.readouterr().out


def make_process_data_dir(tmp_path, planted_events):
    """A process-mode data dir: one closed epoch + an open WAL tail."""
    service = ProcessDetectionService(ServiceConfig(
        n=40, num_shards=3, thresholds=SERVICE_THRESHOLDS,
        data_dir=tmp_path / "svc",
    )).start()
    submit_all(service, planted_events)
    service.end_period()
    service.submit([Rating(1, 0, 1), Rating(2, 0, 1), Rating(3, 0, -1)])
    service.kill()  # no drain, no snapshot: leave a genuine tail
    return tmp_path / "svc"


class TestReplayProcessMode:
    """`replay`/`rings` recover a dir the process transport wrote.

    Both transports share the per-shard layout, so the offline tools
    open it with the thread transport and see every worker's WAL.
    """

    def test_replay_recovers_worker_wals(self, tmp_path, planted_events,
                                         capsys):
        data_dir = make_process_data_dir(tmp_path, planted_events)
        code = main(["replay", "--data-dir", str(data_dir), "--verify",
                     *ARGS_40])
        out = capsys.readouterr().out
        assert code == 0
        assert "recovered epoch=1" in out
        assert "replayed WAL tail: 3 event(s)" in out
        assert "pairs=[[4, 5], [6, 7]]" in out
        assert "MATCH" in out and "MISMATCH" not in out

    def test_rings_recovers_process_dir(self, tmp_path, planted_events,
                                        capsys):
        data_dir = make_process_data_dir(tmp_path, planted_events)
        # close the tail so the suspect graph has published verdicts
        assert main(["replay", "--data-dir", str(data_dir), "--end-period",
                     *ARGS_40]) == 0
        capsys.readouterr()
        assert main(["rings", "--data-dir", str(data_dir), *ARGS_40]) == 0
        assert "pair verdicts" in capsys.readouterr().out

    def test_retired_layout_is_refused(self, tmp_path, capsys):
        wal_dir = tmp_path / "svc" / "wal"
        wal_dir.mkdir(parents=True)
        (wal_dir / "wal-00000000.jsonl").write_text(
            '{"rater": 1, "target": 2, "value": 1, "time": 0.0}\n')
        code = main(["replay", "--data-dir", str(tmp_path / "svc"),
                     *ARGS_40])
        assert code == 2
        assert "retired single-WAL layout" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["serve", "replay"])
    def test_matrix_backend_flag_is_gone(self, tmp_path, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, "--data-dir", str(tmp_path / "svc"),
                  "--matrix-backend", "mmap", *ARGS_40])
        assert exc.value.code == 2
        assert "--matrix-backend" in capsys.readouterr().err
        assert not (tmp_path / "svc").exists()

    def test_json_era_shard_is_refused(self, tmp_path, capsys):
        """A shard holding only a JSON snapshot (builds before state
        images) exits 2 with the migration, never opens empty."""
        snapshots = tmp_path / "svc" / "shard-00" / "snapshots"
        snapshots.mkdir(parents=True)
        (snapshots / "snapshot-00000000-0000000000.json").write_text("{}")
        code = main(["replay", "--data-dir", str(tmp_path / "svc"),
                     *ARGS_40])
        assert code == 2
        assert "--matrix-backend mmap" in capsys.readouterr().err

    def test_thread_dir_reopens_under_workers(self, tmp_path,
                                              planted_events):
        """A dir written by ``serve --shards 2`` reopens under
        ``--workers 2`` with byte-identical shard states."""
        import argparse

        from repro.cli import _build_service

        def ns(shards, workers):
            return argparse.Namespace(
                n=40, shards=shards, data_dir=str(tmp_path / "svc"),
                queue_capacity=1024, snapshot_every=0, fsync=False,
                t_r=1.0, t_a=0.9, t_b=0.7, t_n=40, workers=workers)

        thread = _build_service(ns(shards=2, workers=0)).start()
        assert thread.status()["mode"] == "thread"
        submit_all(thread, planted_events)
        before = json.dumps(thread.export_shard_states(), sort_keys=True)
        thread.stop()

        process = _build_service(ns(shards=3, workers=2)).start()
        try:
            assert process.status()["mode"] == "process"
            assert json.dumps(process.export_shard_states(),
                              sort_keys=True) == before
        finally:
            process.stop()


class TestServe:
    def test_serve_end_to_end_over_http(self, tmp_path):
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--data-dir", str(tmp_path / "svc"), *ARGS_40],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        try:
            banner = proc.stdout.readline()
            assert "serving on http://" in banner
            url = banner.split()[2]
            payload = json.dumps({"ratings": [
                {"rater": 1, "target": 0, "value": 1},
                {"rater": 2, "target": 0, "value": 1},
            ]}).encode()
            req = urllib.request.Request(f"{url}/ratings", data=payload,
                                         method="POST")
            with urllib.request.urlopen(req, timeout=10) as response:
                assert response.status == 202
            with urllib.request.urlopen(f"{url}/healthz",
                                        timeout=10) as response:
                doc = json.loads(response.read())
            assert doc["epoch_events"] == 2
        finally:
            proc.send_signal(signal.SIGINT)
            try:
                proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                proc.kill()
                pytest.fail("serve did not shut down on SIGINT")
        assert proc.returncode == 0

    def test_auto_period_closes_epochs(self, tmp_path):
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--auto-period", "2", *ARGS_40],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        try:
            banner = proc.stdout.readline()
            url = banner.split()[2]
            payload = json.dumps({"ratings": [
                {"rater": 1, "target": 0, "value": 1},
                {"rater": 2, "target": 0, "value": 1},
            ]}).encode()
            req = urllib.request.Request(f"{url}/ratings", data=payload,
                                         method="POST")
            with urllib.request.urlopen(req, timeout=10) as response:
                assert response.status == 202
            deadline = time.time() + 10
            epoch = 0
            while time.time() < deadline:
                with urllib.request.urlopen(f"{url}/healthz",
                                            timeout=10) as response:
                    epoch = json.loads(response.read())["epoch"]
                if epoch >= 1:
                    break
                time.sleep(0.05)
            assert epoch >= 1  # the auto-period thread closed it
        finally:
            proc.send_signal(signal.SIGINT)
            try:
                proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                proc.kill()
                pytest.fail("serve did not shut down on SIGINT")
        assert proc.returncode == 0

    def test_serve_workers_runs_process_mode(self, tmp_path):
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--workers", "2", *ARGS_40],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        try:
            banner = proc.stdout.readline()
            assert "mode=process" in banner
            url = banner.split()[2]
            payload = json.dumps({"ratings": [
                {"rater": 1, "target": 0, "value": 1},
            ]}).encode()
            req = urllib.request.Request(f"{url}/ratings", data=payload,
                                         method="POST")
            with urllib.request.urlopen(req, timeout=10) as response:
                assert response.status == 202
            with urllib.request.urlopen(f"{url}/healthz",
                                        timeout=10) as response:
                doc = json.loads(response.read())
            assert doc["mode"] == "process"
            assert len(doc["workers"]) == 2
        finally:
            proc.send_signal(signal.SIGINT)
            try:
                proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                proc.kill()
                pytest.fail("serve did not shut down on SIGINT")
        assert proc.returncode == 0
