"""The service API bounds request bodies before reading them.

``Content-Length`` used to go straight to ``rfile.read``: a negative
value read to EOF (pinning a keep-alive handler thread) and a huge one
was trusted as it stood. Both are now refused from the headers alone,
over a raw socket so no client library can sanitize the header first.
"""

from __future__ import annotations

import json
import socket

import pytest

from repro.service import FaseService, ServiceClient
from repro.service.api import MAX_BODY_BYTES
from repro.survey.chaos import stub_result


@pytest.fixture()
def service(tmp_path):
    with FaseService(tmp_path / "svc", workers=1, shard_fn=stub_result) as svc:
        svc.start()
        yield svc


def _raw_post(service, content_length, body=b""):
    """POST /jobs with a hand-written Content-Length; (status, JSON body).

    Reads until the server closes the connection, so a server that
    waited for the declared body instead of answering would time out.
    """
    host, port = service.address
    request = (
        f"POST /jobs HTTP/1.1\r\nHost: {host}\r\n"
        f"Content-Type: application/json\r\nContent-Length: {content_length}\r\n\r\n"
    ).encode("ascii") + body
    with socket.create_connection((host, port), timeout=10.0) as sock:
        sock.sendall(request)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
    head, _, payload = b"".join(chunks).partition(b"\r\n\r\n")
    status = int(head.split(b" ", 2)[1])
    return status, json.loads(payload)


def test_negative_content_length_is_400(service):
    status, payload = _raw_post(service, -1, body=b'{"tenant": "alice"}')
    assert status == 400
    assert "non-negative" in payload["error"]


def test_oversized_content_length_is_413_unread(service):
    # No body is sent at all: the answer must come from the header alone.
    status, payload = _raw_post(service, MAX_BODY_BYTES + 1)
    assert status == 413
    assert str(MAX_BODY_BYTES) in payload["error"]


def test_service_keeps_serving_after_refusals(service):
    _raw_post(service, -5)
    _raw_post(service, 10**15)
    host, port = service.address
    assert ServiceClient(f"http://{host}:{port}").jobs() == []
