"""HTTP control plane and the repro-warehouse CLI."""

from __future__ import annotations

import http.client
import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.telemetry import Telemetry
from repro.warehouse import (
    GatewayCommand,
    ServiceGateway,
    WarehouseService,
    job_from_spec,
    make_api_server,
)
from repro.warehouse.api import MAX_BODY_BYTES
from repro.warehouse.cli import main


class TestJobFromSpec:
    def test_lc_constant_load(self):
        command = job_from_spec(
            {"workload": "memcached", "name": "mc-1", "load": 0.6, "at": 9.0}
        )
        assert command.kind == "submit"
        assert command.name == "mc-1"
        assert command.at_s == 9.0
        assert command.job.is_lc
        assert command.job.load_at(0.0) == pytest.approx(0.6)

    def test_lc_step_schedule(self):
        command = job_from_spec(
            {"workload": "xapian", "schedule": [[0, 0.3], [120, 0.9]]}
        )
        assert command.job.load_at(0.0) == pytest.approx(0.3)
        assert command.job.load_at(120.0) == pytest.approx(0.9)
        assert command.name == "xapian"
        assert command.at_s is None

    def test_bg(self):
        command = job_from_spec({"workload": "canneal"})
        assert not command.job.is_lc

    @pytest.mark.parametrize(
        "spec, message",
        [
            ({}, "workload"),
            ({"workload": "not-a-thing"}, "unknown workload"),
            ({"workload": "canneal", "load": 0.5}, "neither"),
            ({"workload": "memcached", "load": "high"}, "number"),
            ({"workload": "memcached", "schedule": [[1, 2, 3]]}, "schedule"),
            ({"workload": "memcached", "name": ""}, "name"),
            ({"workload": "memcached", "at": "now"}, "'at'"),
            ({"workload": "canneal", "at": float("nan")}, "'at'"),
            ({"workload": "canneal", "at": float("inf")}, "'at'"),
            ({"workload": "memcached", "load": True}, "'load'"),
            ({"workload": "memcached", "load": float("nan")}, "'load'"),
            (
                {"workload": "memcached",
                 "schedule": [[0, 0.3], [float("nan"), 0.9]]},
                "schedule",
            ),
            (
                {"workload": "memcached", "schedule": [[0, 0.3], ["nan", 0.9]]},
                "schedule",
            ),
            ({"workload": "memcached", "schedule": [[0, True]]}, "schedule"),
            ({"workload": "memcached", "schedule": [[0, "0.4"]]}, "schedule"),
        ],
    )
    def test_bad_specs_raise(self, spec, message):
        with pytest.raises(ValueError, match=message):
            job_from_spec(spec)


class TestServiceGateway:
    def test_drain_returns_commands_in_order_once(self):
        gateway = ServiceGateway()
        gateway.enqueue(GatewayCommand(kind="depart", name="a"))
        gateway.enqueue(GatewayCommand(kind="depart", name="b"))
        drained = gateway.drain()
        assert [c.name for c in drained] == ["a", "b"]
        assert gateway.drain() == []

    def test_publish_replaces_status(self):
        gateway = ServiceGateway()
        assert json.loads(gateway.status_bytes()) == {}
        gateway.publish({"jobs_running": 3})
        assert json.loads(gateway.status_bytes()) == {"jobs_running": 3}

    def test_published_snapshot_is_immune_to_later_mutation(self):
        """publish() encodes under the lock; the caller keeping (and
        trashing) the dict must not change what /status serves."""
        gateway = ServiceGateway()
        status = {"jobs_running": 3, "nodes": [0, 1]}
        gateway.publish(status)
        status["jobs_running"] = -1
        status["nodes"].append(99)
        status.clear()
        assert json.loads(gateway.status_bytes()) == {
            "jobs_running": 3,
            "nodes": [0, 1],
        }


@pytest.fixture
def api_server():
    telemetry = Telemetry.enabled()
    telemetry.metrics.counter("warehouse.arrivals").add(2)
    gateway = ServiceGateway()
    server = make_api_server(gateway, telemetry.metrics)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield gateway, server
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5.0)


def _get(url):
    with urllib.request.urlopen(url, timeout=5.0) as response:
        return response.status, response.read()


def _post(url, payload):
    body = payload if isinstance(payload, bytes) else json.dumps(payload).encode()
    request = urllib.request.Request(url, data=body, method="POST")
    with urllib.request.urlopen(request, timeout=5.0) as response:
        return response.status, json.loads(response.read())


def _post_length_only(server, content_length):
    """POST headers claiming ``content_length`` bytes, with no body."""
    host, port = server.server_address[:2]
    conn = http.client.HTTPConnection(host, port, timeout=5.0)
    try:
        conn.putrequest("POST", "/submit")
        conn.putheader("Content-Length", content_length)
        conn.endheaders()
        response = conn.getresponse()
        return response.status, json.loads(response.read())
    finally:
        conn.close()


class TestHTTPEndpoints:
    def test_status_serves_published_snapshot(self, api_server):
        gateway, server = api_server
        gateway.publish({"jobs_running": 7, "time_s": 42.0})
        status, body = _get(f"{server.url}/status")
        assert status == 200
        assert json.loads(body)["jobs_running"] == 7

    def test_metrics_mounted_alongside(self, api_server):
        _, server = api_server
        status, body = _get(f"{server.url}/metrics")
        assert status == 200
        assert b"warehouse_arrivals 2.0" in body

    def test_submit_and_depart_queue_commands(self, api_server):
        gateway, server = api_server
        status, reply = _post(
            f"{server.url}/submit", {"workload": "canneal", "name": "bg-1"}
        )
        assert status == 202 and reply == {"queued": "submit", "name": "bg-1"}
        status, reply = _post(
            f"{server.url}/depart", {"name": "bg-1", "at": 50.0}
        )
        assert status == 202 and reply == {"queued": "depart", "name": "bg-1"}
        commands = gateway.drain()
        assert [c.kind for c in commands] == ["submit", "depart"]
        assert commands[1].at_s == 50.0

    def test_bad_requests_are_400(self, api_server):
        gateway, server = api_server
        with pytest.raises(urllib.error.HTTPError) as err:
            _post(f"{server.url}/submit", b"{not json")
        assert err.value.code == 400
        with pytest.raises(urllib.error.HTTPError) as err:
            _post(f"{server.url}/submit", {"workload": "nope"})
        assert err.value.code == 400
        with pytest.raises(urllib.error.HTTPError) as err:
            _post(f"{server.url}/depart", {"name": 3})
        assert err.value.code == 400
        # json.loads reads a bare NaN; queueing it would break heap order.
        for path, spec in (
            ("submit", {"workload": "canneal", "at": float("nan")}),
            ("depart", {"name": "bg-1", "at": float("nan")}),
        ):
            with pytest.raises(urllib.error.HTTPError) as err:
                _post(f"{server.url}/{path}", spec)
            assert err.value.code == 400
        assert gateway.drain() == []

    def test_non_integer_content_length_is_400(self, api_server):
        gateway, server = api_server
        status, reply = _post_length_only(server, "ten")
        assert status == 400 and "Content-Length" in reply["error"]
        assert gateway.drain() == []

    def test_negative_content_length_is_400(self, api_server):
        gateway, server = api_server
        status, reply = _post_length_only(server, "-5")
        assert status == 400 and "Content-Length" in reply["error"]
        assert gateway.drain() == []

    def test_oversized_body_is_413(self, api_server):
        gateway, server = api_server
        status, reply = _post_length_only(server, str(MAX_BODY_BYTES + 1))
        assert status == 413
        assert gateway.drain() == []

    def test_body_just_under_the_cap_is_accepted(self, api_server):
        gateway, server = api_server
        body = json.dumps({"workload": "canneal", "name": "bg-1"}).encode()
        body += b" " * (MAX_BODY_BYTES - 1 - len(body))
        assert len(body) == MAX_BODY_BYTES - 1
        status, reply = _post(f"{server.url}/submit", body)
        assert status == 202 and reply == {"queued": "submit", "name": "bg-1"}
        assert [c.name for c in gateway.drain()] == ["bg-1"]

    def test_unknown_paths_are_404(self, api_server):
        _, server = api_server
        with pytest.raises(urllib.error.HTTPError) as err:
            _get(f"{server.url}/nope")
        assert err.value.code == 404
        with pytest.raises(urllib.error.HTTPError) as err:
            _post(f"{server.url}/reboot", {})
        assert err.value.code == 404


class TestGatewayDrivesService:
    def test_submitted_jobs_reach_the_scheduler(self, mini_server):
        from repro.warehouse.cli import _apply_gateway

        service = WarehouseService(4)
        gateway = ServiceGateway()
        gateway.enqueue(job_from_spec({"workload": "canneal", "name": "x"}))
        gateway.enqueue(job_from_spec({"workload": "memcached", "at": 5.0}))
        _apply_gateway(service, gateway)
        service.run_until(10.0)
        gateway.publish(service.status())
        published = json.loads(gateway.status_bytes())
        assert published["jobs_running"] == 2
        assert set(service.placements()) == {"x", "memcached"}

    def test_past_requests_are_clamped_to_now(self):
        from repro.warehouse.cli import _apply_gateway

        service = WarehouseService(2)
        service.run_until(100.0)
        gateway = ServiceGateway()
        gateway.enqueue(
            job_from_spec({"workload": "canneal", "name": "late", "at": 3.0})
        )
        _apply_gateway(service, gateway)  # must not raise "in the past"
        service.run_until(101.0)
        assert service.has_job("late")


class TestCLI:
    def test_run_check_is_deterministic(self, capsys):
        assert main(["run", "--check"]) == 0
        out = capsys.readouterr().out
        assert "warehouse check: OK" in out

    def test_run_text_report(self, capsys):
        code = main(
            ["run", "--nodes", "10", "--jobs", "6", "--duration", "120",
             "--report-every", "60", "--seed", "3"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "jobs=" in out and "qos=" in out

    def test_run_json_report(self, capsys):
        code = main(
            ["run", "--nodes", "10", "--jobs", "6", "--duration", "120",
             "--shards", "2", "--json", "--seed", "3"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["final"]["arrivals"] == 6
        assert len(payload["rows"]) >= 1

    def test_run_rejects_bad_shapes(self, capsys):
        assert main(["run", "--nodes", "2", "--shards", "3"]) == 2
        assert main(["run", "--nodes", "0"]) == 2

    def test_run_with_store_and_clite_probe(self, tmp_path, capsys):
        store = tmp_path / "obs.jsonl"
        code = main(
            ["run", "--nodes", "4", "--jobs", "3", "--duration", "60",
             "--probe", "clite", "--store", str(store), "--seed", "2"]
        )
        assert code == 0
        assert store.exists()
