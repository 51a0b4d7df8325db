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
                t_r=1.0, t_a=0.9, t_b=0.7, t_n=40,
                matrix_backend=None, workers=workers)

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


class TestLoadtest:
    LOAD_ARGS = ["loadtest", "--n", "40", "--t-n", "40",
                 "--events-per-stage", "400", "--warmup", "100",
                 "--batch", "50"]

    def test_thread_mode_table(self, capsys):
        code = main([*self.LOAD_ARGS, "--rates", "max"])
        out = capsys.readouterr().out
        assert code == 0
        assert "mode=thread" in out
        assert "saturation knee" in out

    def test_process_mode_json(self, capsys):
        code = main([*self.LOAD_ARGS, "--workers", "2",
                     "--rates", "1000,max", "--json"])
        out = capsys.readouterr().out
        assert code == 0
        doc = json.loads(out)
        assert doc["mode"] == "process"
        assert doc["shards"] == 2
        assert len(doc["stages"]) == 2
        assert doc["stages"][0]["mode"] == "open"
        assert doc["stages"][1]["mode"] == "closed"

    def test_bad_rates_rejected(self, capsys):
        code = main([*self.LOAD_ARGS, "--rates", "fast"])
        assert code == 2
        assert "rate" in capsys.readouterr().err
