"""Check that a change's CLI outputs differ from the parent's only by appended report keys.

Usage (from anywhere):

    python3 scripts/cli_prefix.py PARENT_DIR CHANGE_DIR

PARENT_DIR and CHANGE_DIR are directories kept by ``scripts/cli_digest.py
--keep`` on two trees. The check passes only if all of these hold:

- every file under PARENT_DIR exists under CHANGE_DIR at the same path;
- every such file other than ``report.txt`` and ``stdout.txt`` is byte-equal;
- in ``report.txt`` and ``stdout.txt`` the parent's bytes are a prefix of the
  change's, and the appended text is whole ``key=value`` lines, each with a
  key the file does not already hold.

Files only the change has are not checked. For each file with appended
lines, one line ``<run>/<file>: <key> ...`` names the appended keys on
stdout; each failure is one line on stderr. Exits 0 if the check passes, 1
if it fails and 2 on bad usage. It uses the standard library only.
"""

from __future__ import annotations

import os
import sys

REPORTS = ("report.txt", "stdout.txt")


def appended_keys(parent: bytes, change: bytes) -> tuple[list[str], str | None]:
    """(keys appended, None) if change is parent plus whole key=value lines
    with new keys; otherwise ([], the reason)."""
    if not change.startswith(parent):
        return [], "the parent's bytes are not a prefix"
    tail = change[len(parent):]
    if not tail:
        return [], None
    if parent and not parent.endswith(b"\n"):
        return [], "the parent's last line is extended"
    if not tail.endswith(b"\n"):
        return [], "the appended text does not end a line"
    seen = {line.split("=", 1)[0] for line in parent.decode().splitlines() if "=" in line}
    keys = []
    for line in tail.decode().splitlines():
        key = line.split("=", 1)[0]
        if "=" not in line or not key:
            return [], f"appended line {line!r} is not key=value"
        if key in seen:
            return [], f"appended key {key!r} is already in the file"
        seen.add(key)
        keys.append(key)
    return keys, None


def compare(parent_dir: str, change_dir: str) -> tuple[list[str], list[str]]:
    """(appended-key lines, failure lines) for the two directories."""
    appended, failures = [], []
    paths = sorted(os.path.relpath(os.path.join(root, name), parent_dir)
                   for root, _, names in os.walk(parent_dir) for name in names)
    for path in paths:
        target = os.path.join(change_dir, path)
        if not os.path.isfile(target):
            failures.append(f"{path}: missing from the change")
            continue
        with open(os.path.join(parent_dir, path), "rb") as fh:
            before = fh.read()
        with open(target, "rb") as fh:
            after = fh.read()
        if os.path.basename(path) not in REPORTS:
            if before != after:
                failures.append(f"{path}: bytes differ")
            continue
        try:
            keys, reason = appended_keys(before, after)
        except UnicodeDecodeError:
            keys, reason = [], "not UTF-8 text"
        if reason is not None:
            failures.append(f"{path}: {reason}")
        elif keys:
            appended.append(f"{path}: {' '.join(keys)}")
    return appended, failures


def main(argv: list[str]) -> int:
    if len(argv) != 2 or not all(os.path.isdir(d) for d in argv):
        print(__doc__, file=sys.stderr)
        return 2
    appended, failures = compare(*argv)
    for line in appended:
        print(line)
    for line in failures:
        print(line, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
