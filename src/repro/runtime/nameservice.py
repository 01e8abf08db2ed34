"""Bootstrap name service for the process runtime: space id → endpoint.

Before any CLF traffic can flow, every process in a
:class:`~repro.runtime.procs.ProcCluster` must learn where every other
space listens.  The parent runs one :class:`NameService` on a listening
socket whose port is the *only* address children need (passed in their
spawn arguments); each process — parent included — then calls
:func:`register` with its space id and CLF TCP port (0 when only same-node
peers dial it, at an address derived from the session) and blocks until
the service has heard from all ``n_spaces`` participants, at which point
the complete directory ``{space_id: port}`` is broadcast back over the
same connections.  The rendezvous doubles as a startup barrier: no process
proceeds to mesh wiring until every listener exists, so
:meth:`~repro.transport.sockets.SocketEndpoint.connect_mesh` never dials a
listener that is not yet bound.

The protocol is one length-prefixed JSON object each way — deliberately
pickle-free, so a confused or stale client cannot execute anything here.
"""

from __future__ import annotations

import json
import socket
import struct
import threading

from repro.errors import TransportError

__all__ = ["NameService", "register"]

_LEN = struct.Struct("<I")
_MAX_MSG = 1 << 20


def _recv_exact(sock: socket.socket, nbytes: int) -> bytes:
    chunks = bytearray()
    while len(chunks) < nbytes:
        part = sock.recv(nbytes - len(chunks))
        if not part:
            raise ConnectionError("name service peer closed the connection")
        chunks += part
    return bytes(chunks)


def _send_obj(sock: socket.socket, obj) -> None:
    payload = json.dumps(obj).encode()
    sock.sendall(_LEN.pack(len(payload)) + payload)


def _recv_obj(sock: socket.socket):
    (length,) = _LEN.unpack(_recv_exact(sock, _LEN.size))
    if length > _MAX_MSG:
        raise TransportError(f"name service message of {length} bytes refused")
    return json.loads(_recv_exact(sock, length))


class NameService:
    """Collect ``n_spaces`` registrations, then broadcast the directory.

    Runs an accept thread in the parent process.  Each accepted connection
    is held open until the directory is complete (or :meth:`close` aborts
    the rendezvous, which surfaces as a connection error at every waiting
    registrant — nobody hangs).
    """

    def __init__(self, n_spaces: int):
        if n_spaces < 1:
            raise ValueError(f"n_spaces must be >= 1, got {n_spaces}")
        self.n_spaces = n_spaces
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind(("127.0.0.1", 0))
        self._listener.listen(n_spaces)
        self.port: int = self._listener.getsockname()[1]
        self._lock = threading.Lock()
        self._waiting: list[socket.socket] = []
        self._directory: dict[int, int] = {}
        self._closed = False
        self._thread = threading.Thread(
            target=self._serve, name="stm-nameservice", daemon=True
        )
        self._thread.start()

    def _serve(self) -> None:
        while not self._closed:
            try:
                conn, _addr = self._listener.accept()
            except OSError:
                break  # listener closed
            try:
                reg = _recv_obj(conn)
                space, port = int(reg["space"]), int(reg["port"])
            except Exception:
                conn.close()
                continue
            complete = False
            with self._lock:
                if space in self._directory:
                    conn.close()  # duplicate: first registration wins
                    continue
                self._directory[space] = port
                self._waiting.append(conn)
                if len(self._directory) == self.n_spaces:
                    complete = True
                    directory = dict(self._directory)
                    waiting = self._waiting
                    self._waiting = []
            if complete:
                for sock in waiting:
                    try:
                        _send_obj(sock, {"directory": directory})
                    except OSError:
                        pass  # a registrant died mid-rendezvous; its
                        # absence surfaces at connect_mesh instead
                    sock.close()
                return

    @property
    def directory(self) -> dict[int, int]:
        """Registrations seen so far (diagnostics; complete after rendezvous)."""
        with self._lock:
            return dict(self._directory)

    def close(self) -> None:
        """Abort the rendezvous; waiting registrants get a connection error."""
        self._closed = True
        try:
            self._listener.shutdown(socket.SHUT_RDWR)  # wakes its accept()
        except OSError:
            pass  # already shut down
        self._listener.close()
        with self._lock:
            waiting, self._waiting = self._waiting, []
        for sock in waiting:
            sock.close()
        self._thread.join(timeout=5.0)


def register(
    ns_port: int, space: int, port: int, timeout: float = 30.0
) -> dict[int, int]:
    """Register this process's CLF listener; block for the full directory."""
    try:
        with socket.create_connection(("127.0.0.1", ns_port), timeout=timeout) as sock:
            sock.settimeout(timeout)
            _send_obj(sock, {"space": space, "port": port})
            reply = _recv_obj(sock)
    except (OSError, ConnectionError) as exc:
        raise TransportError(
            f"space {space}: name service rendezvous failed: {exc}"
        ) from exc
    return {int(k): int(v) for k, v in reply["directory"].items()}
