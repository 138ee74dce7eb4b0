"""Speak the line protocol to a scripted session, then over a real socket.

Frames are newline-terminated text. The server echoes the handshake, acks
every event by sequence number, and reports each fused command with its
source channel. Ordering violations close the connection; a failed or
expired fallback only fails the episode.
"""

import socket
import threading

from mmfuse import DEFAULT_PORT, FusionServer, run_session

SCRIPT = [
    "HELLO mmfuse/1",
    "EVT GESTURE 1 250 WAVE_OUT",
    "EVT GESTURE 2 5000 NONE",
    'EVT SPEECH 3 5400 "move left"',
    "EVT GESTURE 4 9000 NONE",
    'EVT SPEECH 5 9300 "beam me up"',
    "BYE",
]


def scripted() -> None:
    print("scripted session (run_session, no sockets)")
    for line in SCRIPT:
        print(f"  C: {line}")
    print("  --")
    # run_session takes lines exactly as the wire would deliver them
    for reply in run_session([line + "\n" for line in SCRIPT]):
        print(f"  S: {reply.rstrip()}")


def over_tcp() -> None:
    print("\nsame conversation over TCP")
    server = FusionServer(("127.0.0.1", 0))
    port = server.server_address[1]
    t = threading.Thread(target=server.serve_forever, daemon=True)
    t.start()
    try:
        with socket.create_connection(("127.0.0.1", port), timeout=5) as sock:
            f = sock.makefile("rw", encoding="utf-8", newline="\n")
            for line in SCRIPT:
                f.write(line + "\n")
                f.flush()
            for reply in f:
                print(f"  S: {reply.rstrip()}")
                if reply.startswith("BYE"):
                    break
    finally:
        server.shutdown()
        server.server_close()
    print(f"(default port is {DEFAULT_PORT}; this demo bound an ephemeral one)")


if __name__ == "__main__":
    scripted()
    over_tcp()
