"""The one transport that both remote clients use."""

import json
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

from labelforge.errors import post_json


def test_post_json_posts_the_payload_and_decodes_the_reply(monkeypatch):
    monkeypatch.setenv("no_proxy", "*")  # the request goes to the local server, never a proxy
    seen = {}

    class Echo(BaseHTTPRequestHandler):
        def do_POST(self):
            body = self.rfile.read(int(self.headers["Content-Length"]))
            seen.update(path=self.path, body=json.loads(body), key=self.headers["X-Key"])
            reply = json.dumps({"embedding": [1.0, 2.5]}).encode("utf-8")
            self.send_response(200)
            self.send_header("Content-Length", str(len(reply)))
            self.end_headers()
            self.wfile.write(reply)

        def log_message(self, *args):
            pass

    server = HTTPServer(("127.0.0.1", 0), Echo)
    thread = threading.Thread(target=server.handle_request)
    thread.start()
    try:
        endpoint = f"http://127.0.0.1:{server.server_port}/embed"
        reply = post_json(endpoint, {"input": "x"}, {"X-Key": "k"}, timeout=10.0)
    finally:
        thread.join()
        server.server_close()
    assert reply == {"embedding": [1.0, 2.5]}
    assert seen == {"path": "/embed", "body": {"input": "x"}, "key": "k"}
