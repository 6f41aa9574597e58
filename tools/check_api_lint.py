#!/usr/bin/env python3
"""API lint: public functions must not re-grow owned `Vec<Poi>` signatures.

The fleet-scale refactor (DESIGN.md §15) moved POI payloads into the
canonical `PoiTable` and made handles (`PoiId`) the currency of every
hot path. Owned `Vec<Poi>` in a *public function signature* is now the
exception, reserved for the sanctioned payload boundaries:

  * air-interface transfer (building an index, decoding a bucket,
    a client retrieving payloads off the air), and
  * explicit resolve/export bridges that turn handles back into
    payloads for callers who want them.

Everything else must speak handles. This script scans every `pub fn`
signature in the library sources and fails if `Vec<Poi>` appears in one
that is not on the explicit allowlist below — `#[deprecated]` buys no
exemption, so an owned-POI API cannot come back as a "shim". Adding a
new owned-POI public API therefore requires touching this file — which
is the point.

Usage: python3 tools/check_api_lint.py  (run from the repo root)
"""

import re
import sys
from pathlib import Path

# Sanctioned `pub fn … Vec<Poi> …` signatures, keyed "<path>::<fn name>".
ALLOWED = {
    # Air-interface payload boundaries: POIs genuinely move here.
    "crates/broadcast/src/index.rs::try_build",
    "crates/broadcast/src/wire.rs::decode_bucket",
    "crates/broadcast/src/client.rs::retrieve",
    "crates/broadcast/src/client.rs::retrieve_rec",
    # Explicit export/resolve bridges (handle -> payload, by request).
    "crates/broadcast/src/table.rs::to_vec",
    "crates/p2p/src/protocol.rs::resolve",
    # Query-result assembly: algorithm outputs are payloads by design.
    "crates/core/src/mvr.rs::from_regions",
    "crates/core/src/sbwq.rs::adoptable_window_region",
}

FN_NAME = re.compile(r"\bfn\s+([A-Za-z0-9_]+)")

SRC_GLOBS = ["src/**/*.rs", "crates/*/src/**/*.rs"]


def signatures(text):
    """Yields (line_no, fn_name, signature) for each pub fn.

    A signature runs from its `pub fn` line to the first `{` or `;` at
    paren depth zero.
    """
    lines = text.splitlines()
    for i, line in enumerate(lines):
        stripped = line.strip()
        # Bare `pub` only: pub(crate)/pub(super) are not public API.
        if not re.match(r"pub\s+(const\s+)?fn\s", stripped):
            continue
        sig, depth, j = [], 0, i
        while j < len(lines):
            sig.append(lines[j])
            depth += lines[j].count("(") - lines[j].count(")")
            body = lines[j].split("//")[0]
            if depth <= 0 and ("{" in body or body.rstrip().endswith(";")):
                break
            j += 1
        flat = " ".join(s.strip() for s in sig)
        m = FN_NAME.search(flat)
        if not m:
            continue
        yield i + 1, m.group(1), flat


def main():
    root = Path(__file__).resolve().parent.parent
    violations = []
    seen_allowed = set()
    for glob in SRC_GLOBS:
        for path in sorted(root.glob(glob)):
            rel = path.relative_to(root).as_posix()
            for line_no, name, sig in signatures(path.read_text()):
                if "Vec<Poi>" not in sig.replace(" ", "").replace(
                    "Vec < Poi >", "Vec<Poi>"
                ):
                    continue
                key = f"{rel}::{name}"
                if key in ALLOWED:
                    seen_allowed.add(key)
                else:
                    violations.append(f"{rel}:{line_no}: pub fn {name}: {sig}")
    stale = ALLOWED - seen_allowed
    if stale:
        print("stale allowlist entries (signature gone or no longer owned):")
        for key in sorted(stale):
            print(f"  {key}")
    if violations:
        print("public APIs re-growing owned Vec<Poi> signatures:")
        for v in violations:
            print(f"  {v}")
        print(
            "\nNew public APIs must speak PoiId handles against the canonical\n"
            "PoiTable (DESIGN.md §15). If this boundary genuinely transfers\n"
            "payloads, add it to ALLOWED in tools/check_api_lint.py with a\n"
            "justifying comment."
        )
    if stale or violations:
        return 1
    print(f"api lint ok: {len(seen_allowed)} sanctioned owned-POI boundaries")
    return 0


if __name__ == "__main__":
    sys.exit(main())
