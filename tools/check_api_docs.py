#!/usr/bin/env python3
"""Warnings-as-errors documentation check for the public engine surface.

Every public method/function declared in the checked headers must be
preceded by a Doxygen comment block containing \\brief (a `///<` trailing
comment on the same line also counts for simple accessors/fields), and
every class-level doc block of the core API types must state its
thread-safety contract. An undocumented public declaration fails the
build (non-zero exit), keeping the API reference from rotting — the
grep-based stand-in for a full `doxygen` warnings-as-errors run, with no
doxygen binary needed in CI.

Usage: python3 tools/check_api_docs.py [repo_root]
"""

import re
import sys
from pathlib import Path

CHECKED_HEADERS = [
    "src/engine/session.h",
    "src/core/query.h",
    "src/core/adaptive_index.h",
    "src/core/cracking_index.h",
    "src/core/strategies.h",
    "src/core/index_factory.h",
    "src/core/snapshot.h",
    "src/core/updatable_index.h",
    "src/cracking/crack_policy.h",
    "src/cracking/piece_map.h",
    "src/server/server.h",
    "src/server/client.h",
    "src/durability/wal.h",
    "src/durability/durable_index.h",
    "src/durability/checkpoint.h",
    "src/durability/recovery.h",
    "src/storage/file_io.h",
    "src/util/crc32.h",
]

# Classes whose *class-level* doc comment must mention thread safety.
THREAD_SAFETY_CLASSES = {
    "Session",
    "QueryTicket",
    "AdaptiveIndex",
    "CrackingIndex",
    "RefinementPolicy",
    "Query",
    "QueryResult",
    "IndexConfig",
    "CrackDecision",
    "PieceMap",
    "Snapshot",
    "SnapshotManager",
    "SnapshotScope",
    "UpdatableIndex",
    "Server",
    "Client",
    "WriteAheadLog",
    "DurableIndex",
}

# A declaration-looking line: optional specifiers, a return type, an
# identifier (or operator), then an open paren.
DECL_RE = re.compile(
    r"^\s*(?:\[\[.*?\]\]\s*)?"
    r"(?:template\s*<.*>\s*)?"
    r"(?:virtual\s+|static\s+|explicit\s+|friend\s+|constexpr\s+|inline\s+)*"
    r"[A-Za-z_][\w:<>,&*\s]*?"
    r"(?:\boperator\s*[^\s(]+|\b[A-Za-z_]\w*)\s*\("
)
ACCESS_RE = re.compile(r"^\s*(public|protected|private)\s*:")
CLASS_RE = re.compile(r"^\s*(?:class|struct)\s+([A-Za-z_]\w*)")
NON_DECL_STARTS = (
    "return", "if", "for", "while", "switch", "case", "}", "{", "assert",
    "using", "typedef",
)


class Scope:
    def __init__(self, name, depth, declared_public):
        self.name = name
        self.depth = depth  # brace depth *inside* the class body
        self.declared_public = declared_public  # class itself publicly visible
        self.access = "public"  # current section; caller overrides for class


def is_exempt(line: str) -> bool:
    """Defaulted/deleted members, destructors, and macros need no \\brief."""
    stripped = line.strip()
    return (
        "= default" in stripped
        or "= delete" in stripped
        or stripped.startswith("~")
        or stripped.startswith("#")
        or stripped.startswith("ADAPTIDX_")
    )


def check_header(path: Path) -> list:
    errors = []
    depth = 0
    scopes = []  # innermost last
    pending_doc = []  # the /// block accumulated directly above
    continuation = False

    for lineno, raw in enumerate(path.read_text().splitlines(), 1):
        stripped = raw.strip()
        if not stripped:
            continue

        if stripped.startswith("///"):
            pending_doc.append(stripped)
            continue
        if stripped.startswith("//"):
            continue

        opens = stripped.count("{")
        closes = stripped.count("}")

        cm = CLASS_RE.match(stripped)
        is_class_def = cm and not stripped.endswith(";") and (
            "enum" not in stripped)
        if is_class_def:
            name = cm.group(1)
            if name in THREAD_SAFETY_CLASSES:
                doc = " ".join(pending_doc).lower()
                if "thread" not in doc:
                    errors.append(
                        f"{path}:{lineno}: {name} doc comment does not state "
                        "its thread-safety contract"
                    )
            parent_public = (not scopes) or (
                scopes[-1].declared_public
                and scopes[-1].access == "public"
            )
            scope = Scope(name, depth + 1, parent_public)
            scope.access = (
                "public" if stripped.startswith("struct") else "private")
            scopes.append(scope)
            depth += opens - closes
            pending_doc = []
            continuation = False
            continue

        am = ACCESS_RE.match(stripped)
        if am and scopes:
            scopes[-1].access = am.group(1)
            pending_doc = []
            continue

        # Public = at namespace scope (free function) or inside a chain of
        # publicly visible classes with the current section public.
        if scopes:
            in_public = scopes[-1].declared_public and (
                scopes[-1].access == "public")
            at_member_depth = depth == scopes[-1].depth
        else:
            in_public = True
            at_member_depth = True  # namespace braces don't matter here

        looks_like_decl = (
            DECL_RE.match(stripped)
            and not continuation
            and not stripped.startswith(NON_DECL_STARTS)
            and not stripped[0] in "=&|"
        )
        if (in_public and at_member_depth and looks_like_decl
                and not is_exempt(stripped)):
            if pending_doc:
                if "\\brief" not in " ".join(pending_doc):
                    errors.append(
                        f"{path}:{lineno}: doc comment above public "
                        f"declaration has no \\brief: {stripped[:70]}"
                    )
            elif "///<" not in stripped:
                errors.append(
                    f"{path}:{lineno}: public declaration lacks a /// "
                    f"\\brief doc comment: {stripped[:70]}"
                )

        depth += opens - closes
        while scopes and depth < scopes[-1].depth:
            scopes.pop()
        continuation = stripped.endswith((",", "(", "&&", "||")) or (
            stripped.count("(") > stripped.count(")"))
        pending_doc = []
    return errors


def main() -> int:
    root = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(
        __file__).resolve().parent.parent
    all_errors = []
    for rel in CHECKED_HEADERS:
        path = root / rel
        if not path.exists():
            all_errors.append(f"{path}: checked header missing")
            continue
        all_errors.extend(check_header(path))
    if all_errors:
        print(f"API doc check FAILED ({len(all_errors)} problems):")
        for e in all_errors:
            print(f"  {e}")
        return 1
    print(f"API doc check passed: {len(CHECKED_HEADERS)} headers clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
