#!/usr/bin/env python3
"""API lint: no owned `Vec<Poi>` public signatures, no hidden env knobs,
no public function that only its own unit tests call, one public entry
point per operation.

The fleet-scale refactor (DESIGN.md §15) moved POI payloads into the
canonical `PoiTable` and made handles (`PoiId`) the currency of every
hot path. Owned `Vec<Poi>` in a *public function signature* is now the
exception, reserved for the sanctioned payload boundaries:

  * air-interface transfer (building an index, a client retrieving
    payloads off the air), and
  * explicit resolve/export bridges that turn handles back into
    payloads for callers who want them.

Everything else must speak handles. This script scans every `pub fn`
signature in the library sources and fails if `Vec<Poi>` appears in one
that is not on the explicit allowlist below — `#[deprecated]` buys no
exemption, so an owned-POI API cannot come back as a "shim". Adding a
new owned-POI public API therefore requires touching this file — which
is the point.

Second rule: library code reads no environment variable. Settings
reach the library through its config types and the binaries' command
lines, so a run is reproduced by its arguments alone. The script fails on
`env::var`, `env::var_os` or `env::vars` in the non-test part of any
library source (each file up to its first top-level `#[cfg(test)]`,
one that starts its line: an indented one gates a single item, such as
a test-only enum variant, and the library goes on after it; `main.rs`
files are binaries and exempt). Comment lines are ignored.

Third rule: no public function exists only for tests. Every bare
`pub fn` in a library source must be named somewhere in code that is
not a test: the non-test part of any library source (its own file
included, the definition line excepted), a binary, an example or
`benchmark/src`. Tests do not count, wherever they live: neither
`#[cfg(test)]` modules nor the integration tests under `tests/` and
`crates/*/tests/`. Nor do comments (a doc link is not a call), string
literals (a panic message naming its function is not a call),
`use`/`pub use` statements (a re-export is not a call), or field names:
a field declaration or struct-literal field (`name:` not followed by a
second `:`) and a field read (`.name` followed by neither `(` nor
`::`), so a column accessor named like its column is not kept alive by
the column. Matching is by name, so a helper sharing a name with a live
function or local slips through; the rule catches the unique names that
accrete as test-only API. A reference or oracle that tests
compare the production path against, and a deliberate test fixture, are
listed in TEST_ONLY with the reason they are public; a convenience only
tests call is deleted and inlined where it was used.

Fourth rule: one public entry point per operation. A bare `pub fn X`
may not sit beside a bare `pub fn X_rec` or `pub fn X_into` in the
same file: the plain name would only forward to its sibling while
filling in a default (a no-op recorder, a fresh scratch or buffer), so
callers pass that default themselves.

Fifth rule: the simulator's modules depend one way. `crates/sim/src/
engine.rs` is the mobile-host side (`Simulation`: mobility, query
scheduling, churn) and a client of the base-station side (`LiveWorld`,
its barrier and the query resolver), as the serving layer is. So in
`crates/sim/src` only `engine.rs` itself and `lib.rs` (which declares
and re-exports it) may name `crate::engine`; comments do not count.

Sixth rule: no orphan dependency. Every `[workspace.dependencies]` entry
in the root `Cargo.toml` is named by some workspace member's manifest,
and every directory under `vendor/` is the path of one of those entries.
A capability deleted with its last caller takes its dependency and its
vendored stub with it.

On success the script also prints the library's size: the lines of
every library source up to its first top-level `#[cfg(test)]`, the figure
ROADMAP.md's aim 2 tracks.

Usage: python3 tools/check_api_lint.py  (run from the repo root)
"""

import re
import sys
import tomllib
from collections import Counter
from pathlib import Path

# Sanctioned `pub fn … Vec<Poi> …` signatures, keyed "<path>::<fn name>".
ALLOWED = {
    # Air-interface payload boundaries: POIs genuinely move here.
    "crates/broadcast/src/index.rs::try_build",
    # Explicit export/resolve bridges (handle -> payload, by request).
    "crates/broadcast/src/table.rs::to_vec",
    # Query-result assembly: algorithm outputs are payloads by design.
    "crates/core/src/mvr.rs::from_regions",
}

# Public functions whose only callers are test modules, on purpose,
# keyed "<path>::<fn name>".
TEST_ONLY = {
    # Stores a region without the consistency check, so `p2p` tests can
    # stand up a byzantine peer whose cache disagrees with the table.
    "crates/cache/src/host_cache.rs::insert_unchecked",
    # Exact disk-region area: the oracle the tiled unverified area
    # (Lemma 3.2) is compared against bit for bit.
    "crates/geom/src/disk_mod.rs::disk_region_area",
    # The interval XOR the cell grid's line runs (the boundary edges on
    # each cut line) are checked against.
    "crates/geom/src/intervals.rs::symmetric_difference",
    # Union interior by boundary distance: the reduced windows of
    # `rect_difference` are checked to lie outside it.
    "crates/geom/src/region.rs::contains_interior",
    # The whole boundary edge set, each cut line's runs in order: what
    # the line runs are compared against `IntervalSet` through, and the
    # set the boundary distance is the minimum over.
    "crates/geom/src/region.rs::boundary_edges",
    # The covered part of a window, which `rect_difference` must
    # complement exactly.
    "crates/geom/src/region.rs::rect_intersection",
    # The curve's inverse: encode is checked to be a bijection whose
    # consecutive cells are adjacent.
    "crates/hilbert/src/curve.rs::decode",
    # Table-free encode and allocating interval decomposition: the
    # references the production paths are compared against.
    "crates/hilbert/src/curve.rs::encode_reference",
    "crates/hilbert/src/curve.rs::intervals_for_rect_reference",
    # A cell's world rectangle, the inverse `cell_of` is checked against.
    "crates/hilbert/src/grid.rs::cell_rect",
    # The brute-force scan the R-tree's kNN and window answers are
    # compared against.
    "crates/rtree/src/scan.rs::from_items",
    # The R-tree's structural invariants, checked after every build.
    "crates/rtree/src/tree.rs::check_invariants",
}

FN_NAME = re.compile(r"\bfn\s+([A-Za-z0-9_]+)")
ENV_READ = re.compile(r"\benv::var(s|_os)?\b")

SRC_GLOBS = ["src/**/*.rs", "crates/*/src/**/*.rs"]
# Everything else whose code may keep a library function alive: the
# examples and the benchmark harness. Tests are not callers: a function
# only tests call is test-only API, wherever those tests live.
CALLER_GLOBS = [
    "examples/**/*.rs",
    "benchmark/src/**/*.rs",
]
IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
# What follows a field name where it is declared or initialised (`name:`),
# and what follows a `.name` that is a method call or path, not a read.
FIELD_NAME = re.compile(r"[ \t]*:(?!:)")
CALL_OR_PATH = re.compile(r"\s*(\(|::)")
# A `use` or `pub use` statement, possibly spanning lines, up to its `;`.
USE_STMT = re.compile(r"^[ \t]*(pub(\([^)]*\))?[ \t]+)?use\b[^;]*;", re.MULTILINE)
# A char literal such as '"' or '\\', which must not open a string.
CHAR_LIT = re.compile(r"'(\\.|[^\\'])'")
# What the twin rule pairs a plain name with.
TWIN_SUFFIXES = ("_rec", "_into")
# The direction rule: who may name the simulator's client module.
SIM_SRC = "crates/sim/src"
ENGINE_PATH = re.compile(r"\bcrate::engine\b")
ENGINE_NAMERS = {"engine.rs", "lib.rs"}
# The orphan rule: the manifest tables a member names a dependency in.
DEP_TABLES = ("dependencies", "dev-dependencies", "build-dependencies")


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


def env_reads(text):
    """Yields (line_no, line) for each env read before the top-level
    `#[cfg(test)]`."""
    for i, line in enumerate(text.splitlines()):
        stripped = line.strip()
        if line.startswith("#[cfg(test)]"):
            return
        if stripped.startswith("//"):
            continue
        if ENV_READ.search(line):
            yield i + 1, stripped


def strip_comments(text, blank_strings=False):
    """`text` without its `//` and `/* */` comments (doc comments
    included). String and char literals are skipped over, so a `//`
    inside one stays; line breaks are kept. With `blank_strings`, each
    string literal's contents go as well, all but its line breaks."""
    out, i, n = [], 0, len(text)
    while i < n:
        c = text[i]
        char = CHAR_LIT.match(text, i)
        if char:
            out.append(char.group(0))
            i = char.end()
        elif c == '"':
            j = i + 1
            while j < n and text[j] != '"':
                j += 2 if text[j] == "\\" else 1
            lit = text[i : j + 1]
            if blank_strings:
                lit = '"' + "\n" * lit.count("\n") + '"'
            out.append(lit)
            i = j + 1
        elif text.startswith("//", i):
            j = text.find("\n", i)
            i = n if j < 0 else j
        elif text.startswith("/*", i):
            j = text.find("*/", i + 2)
            j = n if j < 0 else j + 2
            out.append("\n" * text.count("\n", i, j))
            i = j
        else:
            out.append(c)
            i += 1
    return "".join(out)


def call_idents(text):
    """The identifiers in `text` that can be calls: comments, string
    literals' contents and `use`/`pub use` statements removed, and field
    names skipped — a field declaration or struct-literal field
    (`name:`, not `name::`) and a field read (`.name` followed by
    neither `(` nor `::`)."""
    text = USE_STMT.sub("", strip_comments(text, blank_strings=True))
    out = []
    for m in IDENT.finditer(text):
        start, end = m.span()
        if FIELD_NAME.match(text, end):
            continue
        dot = start > 0 and text[start - 1] == "." and text[start - 2 : start] != ".."
        if dot and not CALL_OR_PATH.match(text, end):
            continue
        out.append(m.group(0))
    return out


def non_test(text):
    """The part of a source file before its first top-level
    `#[cfg(test)]`."""
    lines = []
    for line in text.splitlines():
        if line.startswith("#[cfg(test)]"):
            break
        lines.append(line)
    return lines


def library_lines(root):
    """The non-test line count of every library source."""
    return sum(
        len(non_test(path.read_text()))
        for glob in SRC_GLOBS
        for path in root.glob(glob)
    )


def test_only_fns(root):
    """Returns the bare `pub fn`s in library sources named nowhere
    outside test modules, as "<path>:<line>: pub fn <name>", and the
    TEST_ONLY keys whose function no longer exists."""
    defs, names = [], Counter()
    for glob in SRC_GLOBS:
        for path in sorted(root.glob(glob)):
            rel = path.relative_to(root).as_posix()
            lines = non_test(path.read_text())
            names.update(call_idents("\n".join(lines)))
            if path.name == "main.rs":
                continue
            for line_no, name, _ in signatures("\n".join(lines)):
                defs.append((rel, line_no, name))
    for glob in CALLER_GLOBS:
        for path in sorted(root.glob(glob)):
            names.update(call_idents(path.read_text()))
    seen = set()
    out = []
    for rel, line_no, name in defs:
        key = f"{rel}::{name}"
        if key in TEST_ONLY:
            seen.add(key)
        # The definition line itself names the function once.
        elif names[name] <= 1:
            out.append(f"{rel}:{line_no}: pub fn {name}")
    return out, TEST_ONLY - seen


def twins(root):
    """Returns each bare `pub fn X` in a library source that shares its
    file with a bare `pub fn X_rec` or `pub fn X_into`, as
    "<path>:<line>: pub fn X beside pub fn X_<suffix>"."""
    out = []
    for glob in SRC_GLOBS:
        for path in sorted(root.glob(glob)):
            rel = path.relative_to(root).as_posix()
            defs = list(signatures("\n".join(non_test(path.read_text()))))
            names = {name for _, name, _ in defs}
            for line_no, name, _ in defs:
                for suffix in TWIN_SUFFIXES:
                    if name + suffix in names:
                        out.append(f"{rel}:{line_no}: pub fn {name} beside pub fn {name}{suffix}")
    return out


def engine_namers(root):
    """Returns each line of a `crates/sim/src` file other than
    `engine.rs` and `lib.rs` that names `crate::engine` outside a
    comment, as "<path>:<line>: <line>"."""
    out = []
    for path in sorted((root / SIM_SRC).glob("**/*.rs")):
        if path.name in ENGINE_NAMERS:
            continue
        rel = path.relative_to(root).as_posix()
        for i, line in enumerate(strip_comments(path.read_text()).splitlines()):
            if ENGINE_PATH.search(line):
                out.append(f"{rel}:{i + 1}: {line.strip()}")
    return out


def orphan_deps(root):
    """Returns the `[workspace.dependencies]` entries that no member
    manifest names, and the `vendor/*` directories that no entry is the
    path of."""
    workspace = tomllib.loads((root / "Cargo.toml").read_text())
    entries = workspace["workspace"]["dependencies"]
    manifests = [workspace] if "package" in workspace else []
    for glob in workspace["workspace"]["members"]:
        for path in sorted(root.glob(f"{glob}/Cargo.toml")):
            manifests.append(tomllib.loads(path.read_text()))
    named = set()
    for manifest in manifests:
        for table in [manifest, *manifest.get("target", {}).values()]:
            for key in DEP_TABLES:
                named.update(table.get(key, {}))
    orphans = sorted(set(entries) - named)
    paths = {
        Path(e["path"]).as_posix()
        for e in entries.values()
        if isinstance(e, dict) and "path" in e
    }
    vendor = root / "vendor"
    stray = sorted(
        d.relative_to(root).as_posix()
        for d in (vendor.iterdir() if vendor.is_dir() else [])
        if d.is_dir() and d.relative_to(root).as_posix() not in paths
    )
    return orphans, stray


def main():
    root = Path(__file__).resolve().parent.parent
    violations = []
    seen_allowed = set()
    env_violations = []
    for glob in SRC_GLOBS:
        for path in sorted(root.glob(glob)):
            rel = path.relative_to(root).as_posix()
            text = path.read_text()
            if path.name != "main.rs":
                for line_no, line in env_reads(text):
                    env_violations.append(f"{rel}:{line_no}: {line}")
            for line_no, name, sig in signatures(text):
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
    test_only, stale_test_only = test_only_fns(root)
    twin_fns = twins(root)
    backward = engine_namers(root)
    orphans, stray = orphan_deps(root)
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
    if env_violations:
        print("library code reading environment variables:")
        for v in env_violations:
            print(f"  {v}")
        print(
            "\nLibrary settings travel through config types and command-line\n"
            "flags, never the environment."
        )
    if test_only:
        print("public functions called only from tests:")
        for v in test_only:
            print(f"  {v}")
        print(
            "\nDelete the function and inline it where tests used it, or make\n"
            "it private to the test module. A reference or oracle that tests\n"
            "compare production against goes in TEST_ONLY in\n"
            "tools/check_api_lint.py with the reason it is public."
        )
    if stale_test_only:
        print("stale TEST_ONLY entries (function gone):")
        for key in sorted(stale_test_only):
            print(f"  {key}")
    if twin_fns:
        print("public functions with a _rec/_into twin:")
        for v in twin_fns:
            print(f"  {v}")
        print(
            "\nEach operation has one public entry point. Delete the plain form\n"
            "and let its callers pass the default (a NoopRecorder, a fresh\n"
            "QueryScratch or buffer) to the twin."
        )
    if backward:
        print(f"{SIM_SRC} modules naming crate::engine (the simulator's client side):")
        for v in backward:
            print(f"  {v}")
        print(
            "\nThe world, its barrier and the resolver know nothing of the\n"
            "Simulation that drives them. Move what they need out of engine.rs\n"
            "(shared types live in resolve.rs and are re-exported from lib.rs)."
        )
    if orphans:
        print("workspace dependencies no member names:")
        for name in orphans:
            print(f"  {name}")
    if stray:
        print("vendor/ directories no workspace dependency points at:")
        for path in stray:
            print(f"  {path}")
    if orphans or stray:
        print(
            "\nDelete the [workspace.dependencies] entry in Cargo.toml and its\n"
            "vendored stub together with the last code that used them."
        )
    if (
        stale
        or violations
        or env_violations
        or test_only
        or stale_test_only
        or twin_fns
        or backward
        or orphans
        or stray
    ):
        return 1
    print(
        f"api lint ok: {len(seen_allowed)} sanctioned owned-POI boundaries, "
        f"no library env reads, {len(TEST_ONLY)} test-only references and "
        "fixtures, no default-filling twins, no module naming crate::engine, "
        f"no orphan dependency; {library_lines(root):,} non-test library lines"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
