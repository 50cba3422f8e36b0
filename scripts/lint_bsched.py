#!/usr/bin/env python3
"""Project lint: repo-specific rules no generic tool knows.

Usage:
  lint_bsched.py [--root DIR]     lint the tree (exit 1 on findings)
  lint_bsched.py --self-test      run the lint's own unit tests

Rules (see README "Correctness tooling"):

  no-io             src/ library code must not write to the process's
                    stdout/stderr (std::cout/std::cerr/std::clog/printf/
                    fprintf/puts). Reporting goes through returned values
                    or caller-supplied std::ostream&/std::ostream* sinks;
                    only tools/, examples/, bench/ own the terminal.
                    Allowlisted: src/util/error.cpp (the BSCHED_ASSERT
                    abort path must print before dying).

  require-prefix    require() messages that start with a string literal
                    must be prefixed "<origin>: " where <origin> names
                    the throwing module — the file's directory ("net:"),
                    its stem ("spec:"), or a function/class defined in
                    the file ("plan_shard:", "csv_writer:", "round
                    robin:") — so a thrown bsched::error names its
                    source without a stack trace, and a rename cannot
                    leave a stale or foreign prefix behind.

  rng-discipline    no rand()/srand()/time()/clock()/std::random_device/
                    std::mt19937 outside src/util/rng.* — all randomness
                    derives from explicit seeds (util/rng.hpp) or the
                    determinism contract ("byte-identical for any thread
                    count") silently dies.

  pragma-once       every header (src/, tools/, tests/, bench/) carries
                    #pragma once.

  version-literal   wire-format version strings ("bsched-shard",
                    "bsched-sweep", "bsched-msg", "bsched-telemetry")
                    appear in exactly one owning codec file each
                    (src/dist/codec.cpp, src/net/message.cpp,
                    src/obs/telemetry.cpp) — in src/ and tools/, nothing
                    else may embed them, so a version bump cannot miss a
                    stray literal. tests/ may forge foreign versions in
                    negative tests. The match set derives from
                    VERSION_OWNERS, so adding a format means adding its
                    owner here and nothing else.

  obs-discipline    instrumentation goes through the BSCHED_* macros of
                    obs/obs.hpp (which compile away under
                    BSCHED_OBS=OFF): outside src/obs/, library and tool
                    code must not name obs::detail — a direct handle or
                    span would survive an obs-off build and break the
                    zero-overhead guarantee. tests/ may poke the detail
                    layer (reading-side white-box tests).

  wire-reader       text records are split by the one strict reader in
                    src/util (util/wire.hpp): outside src/util, library
                    and tool code (src/, tools/) must not read lines with
                    std::getline or split key=value tokens with
                    .find('='), so a fifth hand-rolled parser cannot grow
                    back beside the dist codec, telemetry, message-header
                    and spec readers, in the library or through a CLI.

  thread-discipline library code must not spawn raw threads (std::thread/
                    std::jthread construction, std::async) outside
                    src/util, whose task_pool (run one body on N fresh
                    threads, then join) is the one place threads start;
                    api::engine::run_sweep is its caller. A policy, kernel
                    or sweep that spawned its own threads would escape the
                    sweep's thread count and its determinism contract.
                    `std::thread::hardware_concurrency()` and other static
                    members stay fine anywhere.

  opt-sequential    the exact search (src/opt/) is one sequential code
                    path: no <mutex>, <atomic> or <thread> include, no
                    std::mutex/std::atomic/std::thread and no task_pool
                    there, so a second, concurrent search path cannot grow
                    back unreviewed. Concurrency lives one level up: a
                    sweep runs independent searches on its thread pool.

  search-flat-memo  src/opt/search.cpp keeps its per-node path free of
                    node-based containers: no std::unordered_map,
                    std::map, std::deque or std::list (nor their
                    includes) there. The transposition table is one flat
                    arena plus an open-addressed index, and the key and
                    candidate frames live on searcher-owned stacks, so a
                    node allocates nothing; a node-based table would
                    cost several allocations per node again.

  orphan-header     (tree-level) every src/**/*.hpp is #included by some
                    file under src/, tools/, examples/, bench/ or
                    perfbench/ other than its own .cpp, so a module that
                    only its tests still use cannot linger in the
                    library. No exceptions: reference code that only
                    tests use lives in tests/support/.

  test-only-export  (tree-level) every namespace-scope function, class or
                    constant and every member function declared in a
                    src/**/*.hpp is named by some file under src/, tools/,
                    examples/, bench/ or perfbench/ outside its own
                    .hpp/.cpp pair, or by the header's own inline code. A
                    name only tests use is deleted with the tests that
                    only test it (reference code the tests compare
                    against lives in tests/support/); a name only its own
                    .cpp uses becomes file-local there, which is also
                    where private helper functions belong. Data members
                    are out of scope (aggregates are brace-initialised
                    without naming them). The match is by identifier, so
                    a name that some other file spells is never flagged.
                    TEST_ONLY_EXPORT_ALLOWLIST names the exceptions, each
                    with the reason it stays.
"""

import argparse
import os
import re
import sys

LINT_DIRS = ("src", "tools", "tests", "bench")

IO_ALLOWLIST = {os.path.join("src", "util", "error.cpp")}

IO_PATTERN = re.compile(
    r"std::(?:cout|cerr|clog)\b|(?<![\w:])(?:printf|puts)\s*\(|"
    r"(?<![\w:])fprintf\s*\(")

RNG_PATTERN = re.compile(
    r"(?<![\w:])(?:rand|srand|time|clock)\s*\(|"
    r"std::random_device|std::mt19937")

VERSION_OWNERS = {
    "bsched-shard": os.path.join("src", "dist", "codec.cpp"),
    "bsched-sweep": os.path.join("src", "dist", "codec.cpp"),
    "bsched-msg": os.path.join("src", "net", "message.cpp"),
    "bsched-telemetry": os.path.join("src", "obs", "telemetry.cpp"),
}

# Built from VERSION_OWNERS so a new wire format only needs its owner
# registered above.
VERSION_PATTERN = re.compile(
    r'"[^"\n]*bsched-(' +
    "|".join(sorted(k.removeprefix("bsched-") for k in VERSION_OWNERS)) +
    r')[^"\n]*"')

OBS_DETAIL_PATTERN = re.compile(r"\bobs\s*::\s*detail\b")

# std::thread/std::jthread not followed by '::' (static members like
# hardware_concurrency are not a spawn), plus std::async.
THREAD_PATTERN = re.compile(r"std::j?thread\b(?!\s*::)|std::async\b")

OPT_SEQUENTIAL_PATTERN = re.compile(
    r"#\s*include\s*<(?:mutex|shared_mutex|atomic|thread)>|\btask_pool\b|"
    r"std::(?:j?thread|(?:shared_|recursive_)?mutex|atomic\w*)\b")

SEARCH_FLAT_MEMO_FILE = os.path.join("src", "opt", "search.cpp")

SEARCH_FLAT_MEMO_PATTERN = re.compile(
    r"#\s*include\s*<(?:unordered_map|map|deque|list)>|"
    r"std::(?:unordered_map|map|deque|list)\b")

WIRE_PATTERN = re.compile(r"std::getline\b|\.find\(\s*'='\s*\)")

THREAD_ALLOW_PREFIXES = (
    os.path.join("src", "util") + os.sep,
)

# Directories whose files count as users of a src/ header.
INCLUDER_DIRS = ("src", "tools", "examples", "bench", "perfbench")

# Exported names no product file calls, each with the reason it stays.
# Keys are qualified below `bsched::`.
TEST_ONLY_EXPORT_ALLOWLIST = {
    "opt::trajectory_bound_steps":
        "the search's admissible bound; the ROADMAP item 'incumbent plus a "
        "certified bound' reports it from outside the search, and the "
        "admissibility tests check it against brute force",
    "opt::deliverable_units":
        "the per-battery supply cap trajectory_bound_steps is built from, "
        "declared beside it for the same ROADMAP item; its admissibility "
        "is property-tested on its own",
}

INCLUDE_PATTERN = re.compile(r'^[ \t]*#[ \t]*include[ \t]*"([^"\n]+)"',
                             re.MULTILINE)



def strip_comments(text):
    """Blanks comments (preserving newlines) so code rules don't fire on
    prose; string literals are left intact."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == '"' or c == "'":
            quote = c
            out.append(c)
            i += 1
            while i < n:
                out.append(text[i])
                if text[i] == "\\":
                    if i + 1 < n:
                        out.append(text[i + 1])
                    i += 2
                    continue
                if text[i] == quote:
                    i += 1
                    break
                i += 1
            continue
        if c == "/" and i + 1 < n and text[i + 1] == "/":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if c == "/" and i + 1 < n and text[i + 1] == "*":
            i += 2
            while i + 1 < n and not (text[i] == "*" and text[i + 1] == "/"):
                if text[i] == "\n":
                    out.append("\n")
                i += 1
            i += 2
            continue
        out.append(c)
        i += 1
    return "".join(out)


def strip_strings(text):
    """Blanks string/char literal contents (on comment-stripped text) so
    identifier rules don't fire inside messages."""
    return re.sub(r'"(?:[^"\\\n]|\\.)*"', '""', text)


def line_of(text, offset):
    return text.count("\n", 0, offset) + 1


def split_require_args(code, start):
    """`start` points just past 'require('. Returns the argument list
    split at top-level commas, or None when the call never closes."""
    depth = 1
    args, current = [], []
    i, n = start, len(code)
    while i < n:
        c = code[i]
        if c == '"':
            current.append(c)
            i += 1
            while i < n:
                current.append(code[i])
                if code[i] == "\\":
                    if i + 1 < n:
                        current.append(code[i + 1])
                    i += 2
                    continue
                if code[i] == '"':
                    i += 1
                    break
                i += 1
            continue
        if c in "([{":
            depth += 1
        elif c in ")]}":
            depth -= 1
            if depth == 0:
                args.append("".join(current))
                return args
        elif c == "," and depth == 1:
            args.append("".join(current))
            current = []
            i += 1
            continue
        current.append(c)
        i += 1
    return None


def check_no_io(rel, code):
    if rel in IO_ALLOWLIST or not rel.startswith("src" + os.sep):
        return []
    findings = []
    for m in IO_PATTERN.finditer(strip_strings(code)):
        findings.append((line_of(code, m.start()), "no-io",
                         f"library code writes to stdout/stderr "
                         f"('{m.group().strip()}'); return values or take "
                         f"an std::ostream sink"))
    return findings


def origin_tag(text):
    """The "<origin>" of a message literal: everything before the first
    ':' when one appears early, else the first word (messages like
    "spec '" are the leading fragment of a concatenation)."""
    colon = text.find(":")
    if 0 < colon <= 40:
        return text[:colon]
    word = re.match(r"[^ ']+", text)
    return word.group() if word else text


def check_require_prefix(rel, code):
    if not rel.startswith("src" + os.sep):
        return []
    parts = rel.split(os.sep)
    stem = os.path.splitext(parts[-1])[0]
    module = parts[1] if len(parts) > 2 else stem
    identifiers = strip_strings(code)
    findings = []
    for m in re.finditer(r"(?<![\w:.])require\s*\(", code):
        args = split_require_args(code, m.end())
        if args is None or len(args) < 2:
            continue
        msg = args[1].strip()
        lit = re.match(r'"((?:[^"\\]|\\.)*)"', msg)
        if lit is None:
            continue  # message built from a variable; out of scope
        text = lit.group(1)
        tag = origin_tag(text)
        # Normalize display forms ("round robin", "best-of-n",
        # "dist::codec") to identifier shape, then accept the module
        # directory, the file stem, or any identifier in this file that
        # the tag is a \b-anchored prefix of ("plan_shard" -> matches
        # plan_shards; "fixed" -> matches fixed_schedule).
        norm = tag.replace("-", "_").replace(" ", "_").split("::")[0]
        ok = (re.fullmatch(r"[a-z][a-z0-9_]*", norm) is not None and
              (norm in (module, stem) or
               re.search(r"\b" + re.escape(norm), identifiers) is not None))
        if not ok:
            findings.append(
                (line_of(code, m.start()), "require-prefix",
                 f"require() message '{text[:40]}' must start with "
                 f"\"<origin>: \" naming this module ('{module}', "
                 f"'{stem}', or a function/class defined here)"))
    return findings


def check_rng(rel, code):
    if not rel.startswith("src" + os.sep):
        return []
    if os.path.splitext(rel)[0] == os.path.join("src", "util", "rng"):
        return []
    findings = []
    for m in RNG_PATTERN.finditer(strip_strings(code)):
        findings.append((line_of(code, m.start()), "rng-discipline",
                         f"'{m.group().strip()}' bypasses util/rng — all "
                         f"randomness/time must come from explicit seeds"))
    return findings


def check_pragma_once(rel, code):
    if not rel.endswith(".hpp"):
        return []
    if re.search(r"^#pragma once\s*$", code, re.MULTILINE):
        return []
    return [(1, "pragma-once", "header is missing '#pragma once'")]


def check_version_literals(rel, code):
    if not (rel.startswith("src" + os.sep) or
            rel.startswith("tools" + os.sep)):
        return []
    findings = []
    for m in VERSION_PATTERN.finditer(code):
        owner = VERSION_OWNERS["bsched-" + m.group(1)]
        if rel != owner:
            findings.append(
                (line_of(code, m.start()), "version-literal",
                 f"wire version string {m.group()} belongs only in its "
                 f"owning codec file {owner}"))
    return findings


def check_threads(rel, code):
    if not rel.startswith("src" + os.sep):
        return []
    if rel.startswith(THREAD_ALLOW_PREFIXES):
        return []
    findings = []
    for m in THREAD_PATTERN.finditer(strip_strings(code)):
        findings.append((line_of(code, m.start()), "thread-discipline",
                         f"'{m.group().strip()}' spawns a thread outside "
                         f"src/util — run the work through "
                         f"util::task_pool (util/task_pool.hpp)"))
    return findings


def check_opt_sequential(rel, code):
    if not rel.startswith(os.path.join("src", "opt") + os.sep):
        return []
    findings = []
    # Comment-stripped code with literals intact, so a quoted include of
    # util/task_pool.hpp is caught too.
    for m in OPT_SEQUENTIAL_PATTERN.finditer(code):
        findings.append((line_of(code, m.start()), "opt-sequential",
                         f"'{m.group().strip()}' in src/opt — the exact "
                         f"search is one sequential code path; run "
                         f"independent searches concurrently from a sweep "
                         f"instead"))
    return findings


def check_search_flat_memo(rel, code):
    if rel != SEARCH_FLAT_MEMO_FILE:
        return []
    findings = []
    for m in SEARCH_FLAT_MEMO_PATTERN.finditer(strip_strings(code)):
        findings.append((line_of(code, m.start()), "search-flat-memo",
                         f"'{m.group().strip()}' in the exact search — "
                         f"node-based containers allocate per node; keep "
                         f"the memo flat and the per-node frames on the "
                         f"searcher's stacks"))
    return findings


def check_wire_reader(rel, code):
    if not rel.startswith(("src" + os.sep, "tools" + os.sep)):
        return []
    if rel.startswith(os.path.join("src", "util") + os.sep):
        return []
    findings = []
    for m in WIRE_PATTERN.finditer(strip_strings(code)):
        findings.append((line_of(code, m.start()), "wire-reader",
                         f"'{m.group()}' hand-rolls a text parser — split "
                         f"records with util/wire.hpp (wire::reader, "
                         f"wire::splitter, wire::split_kv)"))
    return findings


def check_obs_detail(rel, code):
    if not (rel.startswith("src" + os.sep) or
            rel.startswith("tools" + os.sep)):
        return []
    if rel.startswith(os.path.join("src", "obs") + os.sep):
        return []
    findings = []
    for m in OBS_DETAIL_PATTERN.finditer(strip_strings(code)):
        findings.append(
            (line_of(code, m.start()), "obs-discipline",
             "direct obs::detail use outside src/obs — instrument through "
             "the BSCHED_* macros of obs/obs.hpp so the site compiles away "
             "under BSCHED_OBS=OFF"))
    return findings


CODE_CHECKS = (check_no_io, check_require_prefix, check_rng,
               check_version_literals, check_threads, check_obs_detail,
               check_wire_reader, check_opt_sequential,
               check_search_flat_memo)


def lint_file(rel, text):
    code = strip_comments(text)
    findings = []
    for check in CODE_CHECKS:
        findings.extend(check(rel, code))
    findings.extend(check_pragma_once(rel, text))
    return findings


def check_orphan_headers(files):
    """Tree-level pass over {rel: text} of every source file under
    INCLUDER_DIRS: flags each src/ header no file but its own .cpp
    includes."""
    users = {}
    for rel, text in files.items():
        if rel.split(os.sep)[0] not in INCLUDER_DIRS:
            continue
        for m in INCLUDE_PATTERN.finditer(strip_comments(text)):
            header = os.path.join("src", *m.group(1).split("/"))
            users.setdefault(header, set()).add(rel)
    findings = []
    for rel in sorted(files):
        if not (rel.startswith("src" + os.sep) and rel.endswith(".hpp")):
            continue
        own_cpp = rel[:-len(".hpp")] + ".cpp"
        if users.get(rel, set()) - {own_cpp}:
            continue
        findings.append((rel, 1, "orphan-header",
                         "no file under " + "/, ".join(INCLUDER_DIRS) +
                         "/ includes this header (its own .cpp does not "
                         "count); delete it, or move it to tests/support/ "
                         "when only tests use it"))
    return findings


# Keywords and builtin types that can precede '(' in a declaration head.
DECL_KEYWORDS = {
    "alignas", "alignof", "decltype", "noexcept", "sizeof", "static_assert",
    "requires", "return", "if", "for", "while", "switch", "void", "bool",
    "char", "int", "long", "short", "unsigned", "signed", "double", "float",
    "auto", "explicit", "operator", "throw", "new", "delete",
}

ACCESS_PATTERN = re.compile(r"(public|private|protected)\s*$")


def drop_template_prefix(text):
    """Blanks a leading `template <...>` parameter list (defaults and
    all), keeping offsets."""
    template = re.match(r"\s*template\s*<", text)
    if not template:
        return text
    depth, j = 1, template.end()
    while j < len(text) and depth:
        depth += (text[j] == "<") - (text[j] == ">")
        j += 1
    return " " * j + text[j:]


def declarations(code):
    """Declarations in comment- and string-stripped C++ `code`.

    Returns (qualified name, name, offset, is_definition) for each
    namespace-scope function, class (with a body) and constant, and each
    member function (public or private) of a class. `is_definition` marks
    an out-of-class definition like `T cls::f(...) {`, which declares
    nothing new. Constructors, destructors, operators, friends and enums
    are skipped."""
    code = re.sub(r"^[ \t]*#.*$", "", code, flags=re.MULTILINE)
    out = []
    scopes = []  # [kind, name, public]: namespace / class / other

    def declaring():
        # Namespace scope, or a class nested only in public class scopes.
        return all(kind != "other" and (public or j == len(scopes) - 1)
                   for j, (kind, _, public) in enumerate(scopes))

    def qualify(name):
        return "::".join([n for _, n, _ in scopes if n] + [name])

    def statement(text, start, with_body):
        head = re.sub(r"\[\[[^\]]*\]\]", " ", text)
        if re.match(r"\s*(?:friend|using|typedef|template\s*<[^;]*>\s*"
                    r"(?:friend|using))\b", head):
            return
        head = drop_template_prefix(head)
        previous = None
        while previous != head:  # drop template argument lists
            previous = head
            head = re.sub(r"<[^<>;{}=]*>", lambda m: " " * len(m.group()),
                          head)
        cls = re.match(r"\s*(class|struct|union)\s+(\w+)", head)
        if cls:
            if with_body:
                out.append((qualify(cls.group(2)), cls.group(2),
                            start + cls.start(2), False))
            return
        if re.search(r"\boperator\b|~|^\s*(?:enum|namespace|extern)\b", head):
            return
        depth = 0
        for j, ch in enumerate(head):
            depth += (ch == "(") - (ch == ")")
            if ch == "=" and depth == 0:
                head = head[:j]
                break
        for m in re.finditer(r"(?<![\w:])((?:\w+\s*::\s*)*)(\w+)\s*\(", head):
            name = m.group(2)
            if name in DECL_KEYWORDS or name.isupper():
                continue
            if m.group(1):
                out.append((m.group(1) + name, name, start + m.start(2),
                            True))
            elif not (scopes and scopes[-1][0] == "class" and
                      name == scopes[-1][1]):  # not a constructor
                out.append((qualify(name), name, start + m.start(2), False))
            return
        if scopes and scopes[-1][0] != "namespace":
            return  # a data member
        var = re.search(r"\b(?:constexpr|const)\b.*?(\w+)\s*(?:\[[^\]]*\])?"
                        r"\s*$", head, re.DOTALL)
        if var and "(" not in head:
            out.append((qualify(var.group(1)), var.group(1),
                        start + var.start(1), False))

    start = 0
    i, n = 0, len(code)
    while i < n:
        c = code[i]
        text = code[start:i]
        if c == ":" and scopes and scopes[-1][0] == "class" and \
                code[i + 1:i + 2] != ":" and code[i - 1] != ":" and \
                ACCESS_PATTERN.search(text):
            scopes[-1][2] = ACCESS_PATTERN.search(text).group(1) == "public"
            start = i + 1
        elif c == ";":
            if not declaring():
                start = i + 1
            elif text.count("(") == text.count(")"):
                statement(text, start, False)
                start = i + 1
        elif c == "}":
            if scopes:
                scopes.pop()
            start = i + 1
        elif c == "{":
            if not declaring():
                scopes.append(["other", None, False])
            elif text.count("(") != text.count(")"):
                # A lambda or braced argument inside a default argument or
                # initializer: part of the statement, skip to its end.
                depth = 0
                while i < n:
                    depth += (code[i] == "{") - (code[i] == "}")
                    if depth == 0:
                        break
                    i += 1
                i += 1
                continue
            else:
                ns = re.match(r"\s*(?:inline\s+)?namespace\s*([\w:]*)\s*$",
                              text)
                cls = re.match(r"\s*(?:template\s*<[^;]*>\s*)?"
                               r"(class|struct|union)\s+(\w+)[^(=]*$",
                               re.sub(r"\[\[[^\]]*\]\]", " ", text))
                if ns:
                    scopes.append(["namespace", ns.group(1), True])
                elif cls:
                    statement(text, start, True)
                    scopes.append(["class", cls.group(2),
                                   cls.group(1) != "class"])
                else:
                    head = drop_template_prefix(text).split("(")[0]
                    if not re.match(r"\s*(?:enum|extern)\b", text) and \
                            "=" not in head:
                        statement(text, start, True)  # a function body
                    scopes.append(["other", None, False])
            start = i + 1
        i += 1
    return out


def identifier_counts(text):
    counts = {}
    for word in re.findall(r"[A-Za-z_]\w*",
                           strip_strings(strip_comments(text))):
        counts[word] = counts.get(word, 0) + 1
    return counts


def check_test_only_exports(files, allowlist=None):
    """Tree-level pass over {rel: text} of every source file under
    INCLUDER_DIRS and tests/: flags each name a src/ header declares that
    no product file outside the header's .hpp/.cpp pair (nor the header's
    own inline code) names, and every allowlist entry that lacks a reason
    or matches nothing."""
    if allowlist is None:
        allowlist = TEST_ONLY_EXPORT_ALLOWLIST
    counts = {rel: identifier_counts(text) for rel, text in files.items()}
    product = [rel for rel in counts if rel.split(os.sep)[0] in INCLUDER_DIRS]
    tests = [rel for rel in counts if rel.split(os.sep)[0] == "tests"]

    def defined(rel):
        """name -> how often `rel` declares or defines it."""
        sites = {}
        if rel in files:
            for _, name, _, _ in declarations(
                    strip_strings(strip_comments(files[rel]))):
                sites[name] = sites.get(name, 0) + 1
        return sites

    findings = []
    matched = set()
    for rel in sorted(files):
        if not (rel.startswith("src" + os.sep) and rel.endswith(".hpp")):
            continue
        own_cpp = rel[:-len(".hpp")] + ".cpp"
        code = strip_strings(strip_comments(files[rel]))
        in_header, in_cpp = defined(rel), defined(own_cpp)
        for qualified, name, offset, is_definition in declarations(code):
            if is_definition:
                continue
            if any(counts[f].get(name) for f in product
                   if f not in (rel, own_cpp)):
                continue
            if counts[rel].get(name, 0) > in_header.get(name, 0):
                continue  # the header's inline code uses it
            key = qualified.removeprefix("bsched::")
            if key in allowlist:
                matched.add(key)
                continue
            if counts.get(own_cpp, {}).get(name, 0) > in_cpp.get(name, 0):
                why = ("only its own .cpp uses it; make it file-local there "
                       "(anonymous namespace)")
            elif any(counts[f].get(name) for f in tests):
                why = ("only tests use it; delete it with the tests that "
                       "only test it, or move reference code the tests "
                       "compare against to tests/support/")
            else:
                why = "nothing uses it; delete it"
            findings.append((rel, line_of(code, offset), "test-only-export",
                             f"'{key}': {why}"))
    for key, reason in sorted(allowlist.items()):
        if not reason.strip():
            findings.append(("scripts/lint_bsched.py", 1, "test-only-export",
                             f"allowlist entry '{key}' gives no reason"))
        elif key not in matched:
            findings.append(("scripts/lint_bsched.py", 1, "test-only-export",
                             f"allowlist entry '{key}' matches no unused "
                             f"export; remove it"))
    return findings


def read_sources(root, tops):
    files = {}
    for top in tops:
        for dirpath, _, names in sorted(os.walk(os.path.join(root, top))):
            for name in sorted(names):
                if not name.endswith((".cpp", ".hpp")):
                    continue
                path = os.path.join(dirpath, name)
                with open(path, encoding="utf-8", errors="surrogateescape") \
                        as f:
                    files[os.path.relpath(path, root)] = f.read()
    return files


def lint_tree(root):
    findings = []
    files = read_sources(root, LINT_DIRS)
    for rel, text in files.items():
        for line, rule, msg in lint_file(rel, text):
            findings.append(f"{rel}:{line}: {rule}: {msg}")
    users = read_sources(root, INCLUDER_DIRS)
    for rel, line, rule, msg in check_orphan_headers(users):
        findings.append(f"{rel}:{line}: {rule}: {msg}")
    users.update(read_sources(root, ("tests",)))
    for rel, line, rule, msg in check_test_only_exports(users):
        findings.append(f"{rel}:{line}: {rule}: {msg}")
    return findings, len(files)


# --- self-test ---------------------------------------------------------------

def self_test():
    def rules(rel, text):
        return sorted({rule for _, rule, _ in lint_file(rel, text)})

    cases = [
        # (name, path, content, expected rules)
        ("cout in library code",
         "src/api/engine.cpp", 'void f() { std::cout << "x"; }\n#pragma once',
         ["no-io"]),
        ("cout in a tool is fine",
         "tools/sweep_merge.cpp", 'void f() { std::cout << "x"; }', []),
        ("cout in a comment is fine",
         "src/api/engine.cpp", "// std::cout is forbidden here\n", []),
        ("printf in a string literal is fine",
         "src/api/engine.cpp", 'const char* s = "printf(%d)";', []),
        ("allowlisted abort path",
         "src/util/error.cpp", 'void g() { fprintf(stderr, "boom"); }', []),
        ("snprintf to a buffer is fine",
         "src/exp/report.cpp", "void f() { std::snprintf(b, n, \"%f\", v); }",
         []),
        ("require with module prefix",
         "src/net/message.cpp",
         'void f() { require(ok, "net: bad frame"); }', []),
        ("require with file-stem prefix",
         "src/api/sweep.cpp",
         'void f() { require(ok, "sweep: needs cells"); }', []),
        ("require with a function-name prefix",
         "src/dist/shard.cpp",
         'void plan_shards() { require(ok, "plan_shards: need one"); }',
         []),
        ("require with a display-form prefix matching a class",
         "src/sched/policy.cpp",
         'class best_of_n_policy {};\n'
         'void f() { require(ok, "best-of-n: all batteries empty"); }', []),
        ("require prefix naming another module",
         "src/kibam/bank.cpp",
         'void f() { require(ok, "plan_shards: foreign prefix"); }',
         ["require-prefix"]),
        ("require with a leading-fragment literal",
         "src/util/spec.cpp",
         'void f() { require(ok, "spec \'" + name + "\': boom"); }', []),
        ("require without prefix",
         "src/net/message.cpp", 'void f() { require(ok, "bad frame"); }',
         ["require-prefix"]),
        ("require with a foreign prefix",
         "src/net/message.cpp", 'void f() { require(ok, "svc: bad"); }',
         ["require-prefix"]),
        ("require message from variable is out of scope",
         "src/net/message.cpp", "void f() { require(ok, msg); }", []),
        ("literal in the condition is not the message",
         "src/svc/worker.cpp",
         'void f() { require(t == "sweep", "svc: expected sweep"); }', []),
        ("nested parens and commas in the condition",
         "src/svc/worker.cpp",
         'void f() { require(std::max(a, b) == f(c, d), "svc: ok"); }', []),
        ("multi-line concatenated message checks its first literal",
         "src/net/socket.cpp",
         'void f() {\n  require(ok,\n          "net: frame of " +\n'
         '          std::to_string(n));\n}', []),
        ("rand in library code",
         "src/sched/policy.cpp", "int f() { return rand(); }",
         ["rng-discipline"]),
        ("time() in library code",
         "src/svc/coordinator.cpp", "long f() { return time(nullptr); }",
         ["rng-discipline"]),
        ("steady_clock now is fine",
         "src/svc/coordinator.cpp",
         "auto f() { return std::chrono::steady_clock::now(); }", []),
        ("random_device in library code",
         "src/load/random.cpp", "std::random_device rd;",
         ["rng-discipline"]),
        ("rng.hpp itself is exempt",
         "src/util/rng.hpp",
         "#pragma once\nstd::random_device rd;  // seeding", []),
        ("random_device in a doc comment is fine",
         "src/sched/registry.hpp",
         "#pragma once\n// std::random_device would break replication\n",
         []),
        ("header without pragma once",
         "src/kibam/bank.hpp", "struct bank {};\n", ["pragma-once"]),
        ("cpp never needs pragma once",
         "src/kibam/bank.cpp", "int x;\n", []),
        ("version literal in its owner",
         "src/dist/codec.cpp", 'auto m = "bsched-shard v1";', []),
        ("version literal astray in src",
         "src/svc/worker.cpp", 'auto m = "bsched-sweep v1";',
         ["version-literal"]),
        ("version literal astray in tools",
         "tools/sweep_serve.cpp", 'auto m = "bsched-msg v1";',
         ["version-literal"]),
        ("tests may forge versions",
         "tests/test_dist.cpp", 'auto m = "bsched-shard v2";', []),
        ("version string mentioned in a comment is fine",
         "src/net/message.hpp",
         '#pragma once\n// the N of "bsched-msg vN"\n', []),
        ("telemetry version literal in its owner",
         "src/obs/telemetry.cpp", 'auto m = "bsched-telemetry v1";', []),
        ("telemetry version literal astray in src",
         "src/svc/worker.cpp", 'auto m = "bsched-telemetry v1";',
         ["version-literal"]),
        ("obs::detail outside src/obs",
         "src/api/engine.cpp",
         "void f() { static obs::detail::counter_handle h{\"x\"}; }",
         ["obs-discipline"]),
        ("qualified obs::detail in a tool",
         "tools/sweep_serve.cpp",
         "bsched::obs::detail::span s{\"x\"};", ["obs-discipline"]),
        ("obs::detail inside src/obs is the implementation",
         "src/obs/metrics.cpp", "obs::detail::counter_handle h{\"x\"};", []),
        ("obs macros at a call site are fine",
         "src/kibam/bank.cpp",
         'void f() { BSCHED_COUNTER_ADD("kibam.calls_total", 1); }', []),
        ("obs::detail in a comment is fine",
         "src/api/engine.cpp", "// never name obs::detail here\n", []),
        ("tests may poke obs::detail",
         "tests/test_obs.cpp", "obs::detail::span s{\"x\"};", []),
        ("raw std::thread in library code",
         "src/sched/policy.cpp", "void f() { std::thread t{[] {}}; }",
         ["thread-discipline"]),
        ("raw std::thread in the search breaks both rules",
         "src/opt/search.cpp", "void f() { std::thread t{[] {}}; }",
         ["opt-sequential", "thread-discipline"]),
        ("std::jthread in library code",
         "src/sched/simulator.cpp", "void f() { std::jthread t{[] {}}; }",
         ["thread-discipline"]),
        ("std::async in library code",
         "src/svc/coordinator.cpp",
         "auto f() { return std::async([] {}); }",
         ["thread-discipline"]),
        ("task_pool may spawn",
         "src/util/task_pool.cpp",
         "void f() { std::vector<std::thread> pool; }", []),
        ("engine sweep pool may not spawn",
         "src/api/engine.cpp",
         "void f() { std::vector<std::thread> pool; }",
         ["thread-discipline"]),
        ("hardware_concurrency is not a spawn",
         "src/api/engine.cpp",
         "auto n = std::thread::hardware_concurrency();", []),
        ("std::thread in a comment is fine",
         "src/opt/search.cpp", "// never hold a raw std::thread here\n", []),
        ("tests may spawn threads",
         "tests/test_stress.cpp", "std::thread t{[] {}};", []),
        ("a sequential search",
         "src/opt/search.cpp",
         "#include <vector>\nstd::vector<std::uint64_t> memo;",
         []),
        ("node-based memo in the search",
         "src/opt/search.cpp",
         "#include <unordered_map>\nstd::unordered_map<int, int> memo;",
         ["search-flat-memo"]),
        ("FIFO deque in the search",
         "src/opt/search.cpp", "std::deque<const int*> fifo;",
         ["search-flat-memo"]),
        ("ordered map and list in the search",
         "src/opt/search.cpp",
         "#include <map>\nstd::map<int, int> a;\nstd::list<int> b;",
         ["search-flat-memo"]),
        ("node-based containers named in a search comment are fine",
         "src/opt/search.cpp",
         "// no std::unordered_map or std::deque here\n", []),
        ("other opt files may use node-based containers",
         "src/opt/policies.cpp", "std::map<int, int> cache;", []),
        ("mutex include in the search",
         "src/opt/search.cpp", "#include <mutex>\n", ["opt-sequential"]),
        ("atomic counter in the search",
         "src/opt/search.cpp", "std::atomic<std::uint64_t> nodes{0};",
         ["opt-sequential"]),
        ("task_pool include in an opt policy",
         "src/opt/policies.cpp", '#include "util/task_pool.hpp"\n',
         ["opt-sequential"]),
        ("task_pool call in an opt header",
         "src/opt/search.hpp",
         "#pragma once\nvoid f() { util::task_pool::run(4, g); }",
         ["opt-sequential"]),
        ("thread count query in the search",
         "src/opt/search.cpp",
         "auto n = std::thread::hardware_concurrency();",
         ["opt-sequential"]),
        ("the engine may use mutexes and the pool",
         "src/api/engine.cpp",
         '#include <mutex>\n#include "util/task_pool.hpp"\nstd::mutex m;',
         []),
        ("concurrency named in an opt comment is fine",
         "src/opt/search.cpp", "// no std::mutex, <atomic> or task_pool\n",
         []),
        ("getline in a library codec",
         "src/dist/codec.cpp",
         "bool f(std::istream& in, std::string& l) "
         "{ return bool(std::getline(in, l)); }",
         ["wire-reader"]),
        ("find('=') key split in library code",
         "src/net/message.cpp",
         "auto f(std::string_view t) { return t.find('='); }",
         ["wire-reader"]),
        ("find ( '=' ) with spaces is still a key split",
         "src/obs/telemetry.cpp",
         "auto f(std::string_view t) { return t.find( '=' ); }",
         ["wire-reader"]),
        ("the wire reader itself may split",
         "src/util/wire.cpp",
         "auto f(std::string_view t) { return t.find('='); }", []),
        ("getline in a tool",
         "tools/sweep_merge.cpp",
         "void f(std::istream& in, std::string& l) { std::getline(in, l); }",
         ["wire-reader"]),
        ("tests may read lines",
         "tests/test_util.cpp",
         "void f(std::istream& in, std::string& l) { std::getline(in, l); }",
         []),
        ("getline in a comment is fine",
         "src/dist/codec.cpp", "// no std::getline here\n", []),
        ("finding another character is fine",
         "src/api/scenario.cpp",
         "auto f(const std::string& t) { return t.find(':'); }", []),
    ]

    # Tree-level cases: (name, {path: content}, expected flagged headers).
    tree_cases = [
        ("orphan header",
         {"src/kibam/dead.hpp": "#pragma once\n"}, ["src/kibam/dead.hpp"]),
        ("header used only by its own .cpp",
         {"src/kibam/dead.hpp": "#pragma once\n",
          "src/kibam/dead.cpp": '#include "kibam/dead.hpp"\n'},
         ["src/kibam/dead.hpp"]),
        ("header used only by a test",
         {"src/kibam/dead.hpp": "#pragma once\n",
          "tests/test_dead.cpp": '#include "kibam/dead.hpp"\n'},
         ["src/kibam/dead.hpp"]),
        ("header used by an example",
         {"src/pta/mcr.hpp": "#pragma once\n",
          "src/pta/mcr.cpp": '#include "pta/mcr.hpp"\n',
          "examples/lamp_pta.cpp": '#include "pta/mcr.hpp"\n'}, []),
        ("header used by another src header",
         {"src/pta/model.hpp": "#pragma once\n",
          "src/pta/mcr.hpp": '#pragma once\n#include "pta/model.hpp"\n',
          "bench/bench_micro.cpp": '#include "pta/mcr.hpp"\n'}, []),
        ("an include in a comment does not count",
         {"src/kibam/dead.hpp": "#pragma once\n",
          "tools/t.cpp": '// #include "kibam/dead.hpp"\n'},
         ["src/kibam/dead.hpp"]),
    ]

    # test-only-export cases: (name, {path: content}, allowlist, expected
    # flagged names; "allowlist:<key>" for a rejected allowlist entry).
    hpp = ("#pragma once\nnamespace bsched::kibam {\n"
           "int only_tested();\nint helper();\nint api();\n}\n")
    cpp = ('#include "kibam/dead.hpp"\nnamespace bsched::kibam {\n'
           "int only_tested() { return 1; }\n"
           "int helper() { return 2; }\n"
           "int api() { return helper(); }\n}\n")
    export_cases = [
        ("name used only by a test",
         {"src/kibam/dead.hpp": hpp, "src/kibam/dead.cpp": cpp,
          "tools/t.cpp": "int main() { return api() + helper(); }",
          "tests/test_dead.cpp": "int f() { return only_tested(); }"},
         {}, ["kibam::only_tested"]),
        ("name used only in its own .cpp",
         {"src/kibam/dead.hpp": hpp, "src/kibam/dead.cpp": cpp,
          "tools/t.cpp": "int main() { return api() + only_tested(); }"},
         {}, ["kibam::helper"]),
        ("only caller in perfbench/src",
         {"src/kibam/dead.hpp": hpp, "src/kibam/dead.cpp": cpp,
          "perfbench/src/main.cpp":
              "int main() { return api() + helper() + only_tested(); }"},
         {}, []),
        ("only callers in tools/",
         {"src/kibam/dead.hpp": hpp, "src/kibam/dead.cpp": cpp,
          "tools/a.cpp": "int a() { return api() + helper(); }",
          "tools/b.cpp": "int b() { return only_tested(); }"},
         {}, []),
        ("a mention in a comment or a string is no use",
         {"src/kibam/dead.hpp": hpp, "src/kibam/dead.cpp": cpp,
          "tools/t.cpp": "// only_tested()\nint main() {\n"
                         '  puts("only_tested");\n'
                         "  return api() + helper();\n}\n"},
         {}, ["kibam::only_tested"]),
        ("private member used only in its own .cpp",
         {"src/util/w.hpp": "#pragma once\nnamespace bsched {\n"
                            "class w {\n public:\n  void go();\n"
                            " private:\n  void step();\n};\n}\n",
          "src/util/w.cpp": '#include "util/w.hpp"\nnamespace bsched {\n'
                            "void w::step() {}\nvoid w::go() { step(); }\n}\n",
          "tools/t.cpp": "int main() { bsched::w x; x.go(); }"},
         {}, ["w::step"]),
        ("a name the header's inline code uses",
         {"src/util/w.hpp": "#pragma once\nnamespace bsched {\n"
                            "int base();\n"
                            "inline int twice() { return 2 * base(); }\n}\n",
          "tools/t.cpp": "int main() { return bsched::twice(); }"},
         {}, []),
        ("allowlist entry with a reason",
         {"src/kibam/dead.hpp": hpp, "src/kibam/dead.cpp": cpp,
          "tools/t.cpp": "int main() { return api() + helper(); }"},
         {"kibam::only_tested": "the next change calls it"}, []),
        ("allowlist entry without a reason",
         {"src/kibam/dead.hpp": hpp, "src/kibam/dead.cpp": cpp,
          "tools/t.cpp": "int main() { return api() + helper(); }"},
         {"kibam::only_tested": " "}, ["allowlist:kibam::only_tested"]),
        ("allowlist entry matching nothing",
         {"src/kibam/dead.hpp": hpp, "src/kibam/dead.cpp": cpp,
          "tools/t.cpp":
              "int main() { return api() + helper() + only_tested(); }"},
         {"kibam::only_tested": "kept for later"},
         ["allowlist:kibam::only_tested"]),
    ]

    def exported(files, allowlist):
        got = []
        for _, _, _, msg in check_test_only_exports(
                {p.replace("/", os.sep): t for p, t in files.items()},
                allowlist):
            key = re.search(r"'([^']+)'", msg).group(1)
            got.append("allowlist:" + key if msg.startswith("allowlist")
                       else key)
        return got

    failures = 0
    total = len(cases) + len(tree_cases) + len(export_cases)
    for name, path, content, expected in cases:
        rel = path.replace("/", os.sep)
        got = rules(rel, content)
        if got != expected:
            print(f"self-test FAIL: {name}: expected {expected}, got {got}",
                  file=sys.stderr)
            failures += 1
    for name, files, expected in tree_cases:
        got = [rel for rel, _, _, _ in check_orphan_headers(
            {p.replace("/", os.sep): t for p, t in files.items()})]
        if got != [p.replace("/", os.sep) for p in expected]:
            print(f"self-test FAIL: {name}: expected {expected}, got {got}",
                  file=sys.stderr)
            failures += 1
    for name, files, allowlist, expected in export_cases:
        got = exported(files, allowlist)
        if got != expected:
            print(f"self-test FAIL: {name}: expected {expected}, got {got}",
                  file=sys.stderr)
            failures += 1
    if failures:
        print(f"lint_bsched --self-test: {failures}/{total} failed",
              file=sys.stderr)
        return 1
    print(f"lint_bsched --self-test: OK ({total} cases)")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", default=os.path.join(
        os.path.dirname(os.path.abspath(__file__)), ".."),
        help="repository root (default: the script's parent)")
    ap.add_argument("--self-test", action="store_true",
                    help="run the lint's own unit tests and exit")
    args = ap.parse_args()

    if args.self_test:
        return self_test()

    findings, count = lint_tree(os.path.abspath(args.root))
    for f in findings:
        print(f)
    if findings:
        print(f"\nlint_bsched: {len(findings)} finding(s) in {count} files",
              file=sys.stderr)
        return 1
    print(f"lint_bsched: OK ({count} files clean)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
