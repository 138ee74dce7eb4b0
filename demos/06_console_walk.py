"""Drive the episode console the way the `mmfuse repl` command does.

The console owns a simulated arm and a fusion session. `g NAME` delivers
one band capture (`g none` is an empty window); after an empty capture,
the console waits for an `s "..."` utterance inside the fallback window.
`tick MS` advances the clock, `state` prints the arm and fusion state,
`quit` leaves.
"""

import io

from mmfuse.repl import ReplSession

SCRIPT = [
    "g wave_out",
    "g wave_out",
    "state",
    "g none",
    's "move up"',
    "g none",
    "tick 99999",
    "g double_tap",
    "state",
    "quit",
]


def main() -> None:
    session = ReplSession()
    for line in SCRIPT:
        print(f"> {line}")
        out = io.StringIO()
        alive = session.handle(line, out)
        for reply in out.getvalue().splitlines():
            print(f"  {reply}")
        if not alive:
            break


if __name__ == "__main__":
    main()
