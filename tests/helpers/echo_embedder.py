#!/usr/bin/env python3
"""Test endpoint speaking the embedding line protocol.

Returns a deterministic unit vector seeded by the hash of the luminance
payload. Flags exercise the adapter's failure paths:
  --dim N         embedding dimension (default 16)
  --norm-scale X  scale of the returned vector's norm (default 1.0)
  --bad-dim       drop one value from every response
  --bad-token     send a non-numeric token in place of the last value
  --hang          never answer the first request
  --slow-first S  answer the first request only after S seconds
  --slow-hello S  send the handshake only after S seconds
  --bad-hello     send a malformed handshake
  --flood N       answer with a vector line of N digits, then "flood sent" on stderr
"""

import base64
import hashlib
import sys
import time

import numpy as np


def main() -> None:
    argv = sys.argv[1:]

    def flag_value(name, default):
        return type(default)(argv[argv.index(name) + 1]) if name in argv else default

    dim = flag_value("--dim", 16)
    norm_scale = flag_value("--norm-scale", 1.0)
    delay = flag_value("--slow-first", 0.0)
    flood = flag_value("--flood", 0)
    time.sleep(flag_value("--slow-hello", 0.0))

    if "--bad-hello" in argv:
        sys.stdout.write("HOWDY\n")
        sys.stdout.flush()
        return
    sys.stdout.write(f"HELLO echo {dim}\n")
    sys.stdout.flush()

    while True:
        line = sys.stdin.readline()
        if not line:
            return
        parts = line.split()
        if not parts or parts[0] != "EMBED":
            return
        payload = sys.stdin.readline().strip()
        data = base64.b64decode(payload)
        if "--hang" in argv:
            time.sleep(3600)
        time.sleep(delay)
        delay = 0.0
        seed = int(hashlib.sha256(data).hexdigest()[:8], 16)
        vec = np.random.default_rng(seed).standard_normal(dim)
        vec = vec / np.linalg.norm(vec) * norm_scale
        if "--bad-dim" in argv:
            vec = vec[:-1]
        tokens = [f"{v:.9g}" for v in vec]
        if flood:  # one token, written 64 KiB at a time, its newline only after all of it
            sys.stdout.write("VEC\n")
            for sent in range(0, flood, 1 << 16):
                sys.stdout.write("0" * min(1 << 16, flood - sent))
            sys.stdout.write("\n")
            sys.stdout.flush()
            print("flood sent", file=sys.stderr, flush=True)
            continue
        if "--bad-token" in argv:
            tokens[-1] = "0.5x"
        sys.stdout.write("VEC\n" + " ".join(tokens) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
