#!/usr/bin/env python3
"""Test endpoint that replays a recorded reply stream, paced by the requests it reads.

Usage: replay_endpoint.py STREAM

STREAM holds reply lines, each ended by a newline. The first line (the handshake) is sent at
once; after each request (an EMBED line and its payload line) the next two lines are sent,
whatever they say. When the lines run out the endpoint exits, closing its stdout. It imports
no numpy, so it starts in a few tens of milliseconds.
"""

import os
import sys


def main() -> None:
    with open(sys.argv[1], "rb") as fh:
        lines = fh.read().split(b"\n")[:-1]
    requests, replies = sys.stdin.buffer, sys.stdout.buffer
    sent = 1
    try:
        replies.write(b"".join(line + b"\n" for line in lines[:sent]))
        replies.flush()
        while sent < len(lines) and requests.readline() and requests.readline():
            replies.write(b"".join(line + b"\n" for line in lines[sent:sent + 2]))
            replies.flush()
            sent += 2
    except BrokenPipeError:  # the client closed the connection first; drop what is unsent
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


if __name__ == "__main__":
    main()
