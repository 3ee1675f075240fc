#!/usr/bin/env python3
"""xst-astcheck: AST-level static checks for the XST C++ sources.

Where xst_lint.py pattern-matches lines, this tool reasons about program
structure: which expressions dominate which, what scope a declaration lives
in, which fields carry a GUARDED_BY annotation. It runs one of two engines:

  AST engine       libclang via the `clang` Python bindings (pip `libclang`),
                   used when importable. This is the engine CI runs.
  fallback engine  the same comment/string-stripped regex machinery as
                   xst_lint.py, used when libclang is unavailable (the dev
                   container ships GCC only). Structure-dependent rules are
                   reported as SKIPPED, never silently dropped.

Rules (see DESIGN.md section 10 for rationale):

  bare-mutex               std::mutex / lock_guard / unique_lock /
                           condition_variable are forbidden outside
                           src/common/sync.* — shared state synchronizes
                           through the annotated xst::Mutex so Clang's
                           thread-safety analysis sees every lock.
                           [both engines]

  thread-primitives        AST port of the xst_lint rule: std::thread /
                           std::async outside common/thread_pool.*.
                           [both engines]

  interner-mutation        AST port of the xst_lint rule: mutating
                           Interner::Global() calls outside the core builder
                           layer. [both engines]

  pageref-raw-escape       A raw `Page*` bound out of a PageRef (or straight
                           from FetchPage/AllocatePage) escapes the pin
                           scope — the frame can be recycled by any later
                           pager call. [both engines]

  lock-across-parallelfor  A MutexLock (or any lock) alive at a
                           ThreadPool::ParallelFor call site: worker chunks
                           that take the same lock deadlock the region, and
                           even uncontended it serializes the pool.
                           [both engines; fallback is scope-heuristic]

  result-value-unchecked   Result<T>::value()/status() use with no dominating
                           ok() check on the same object — value() on an
                           error Result aborts. XST_ASSIGN_OR_RAISE expands
                           to a dominated access and never trips this.
                           [AST engine only]

  guarded-field-unlocked   Mutation of an XST_GUARDED_BY(mu) field in a
                           method that neither holds a MutexLock on `mu` nor
                           is annotated XST_REQUIRES(mu). Clang's own
                           -Wthread-safety is the authoritative check; this
                           rule keeps GCC-only builds honest.
                           [AST engine only]

  vm-opcode-dispatch       AST port of the xst_lint rule: a switch over the
                           VM OpCode enum must name every enumerator and
                           carry no `default:`, so adding an opcode breaks
                           every dispatch site loudly. The AST engine
                           resolves case labels through the real enum
                           declaration. [both engines]

  lock-order-cycle         The static lock-acquisition graph (XST_REQUIRES /
                           XST_ACQUIRE annotations plus MutexLock scopes)
                           must be acyclic; a cycle is a potential deadlock.
                           The AST engine derives edges from attribute
                           cursors and scoped-lock VAR_DECL extents; both
                           engines feed the shared cycle detector in
                           xst_lint. When scanning multiple files the edges
                           are additionally aggregated tree-wide, so a cycle
                           split across translation units is still caught.
                           [both engines]

  lock-rank                Locksmith port of the xst_lint rule: every
                           XST_LOCK_RANK(n)-annotated mutex lives in one
                           global hierarchy, held sets propagate through the
                           call graph, and every acquisition must be strictly
                           rank-increasing. The AST engine additionally reads
                           ranks from the lowered annotate attribute.
                           [both engines]

  blocking-under-latch     Locksmith port: blocking points (File I/O,
                           Wal::WaitDurable/FlushAll, CondVar::Wait,
                           ParallelFor, anything XST_BLOCKING) must not be
                           reachable while a latch-class lock (rank >= the
                           latch floor) is held. The AST engine recognizes
                           XST_BLOCKING on declarations in included headers
                           through resolved call references. [both engines]

  guarded-field-inference  Locksmith port: a field written only under a lock
                           but not annotated XST_GUARDED_BY is flagged at its
                           declaration. [both engines]

Suppress a single line with a trailing comment: // xst-astcheck: allow(rule)
For the ported rules, an existing // xst-lint: allow(...) of the same rule
name is honored too.

Usage:
  tools/xst_astcheck.py [paths...]     # default: src/ relative to repo root
  tools/xst_astcheck.py --list-rules
  tools/xst_astcheck.py --self-test
  tools/xst_astcheck.py --parity [paths...]   # AST findings must cover regex
  tools/xst_astcheck.py --latch-floor N       # latch-class rank floor (20)
"""

import argparse
import os
import re
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "tools"))

import xst_lint  # noqa: E402  (shared stripper, Finding, ported rules)

strip_comments_and_strings = xst_lint.strip_comments_and_strings
Finding = xst_lint.Finding


# ---------------------------------------------------------------------------
# Engine selection
# ---------------------------------------------------------------------------


def load_cindex():
    """Returns the clang.cindex module if the bindings and a libclang are
    usable, else None (→ fallback engine)."""
    try:
        from clang import cindex  # type: ignore
    except ImportError:
        return None
    try:
        cindex.Index.create()
    except Exception:
        return None
    return cindex


# ---------------------------------------------------------------------------
# Fallback (regex) rule bodies. Each yields (line_no, message).
# ---------------------------------------------------------------------------

BARE_MUTEX_RE = re.compile(
    r"std::(mutex|recursive_mutex|shared_mutex|timed_mutex|recursive_timed_mutex|"
    r"lock_guard|unique_lock|shared_lock|scoped_lock|"
    r"condition_variable|condition_variable_any)\b")
PAGE_PTR_DECL_RE = re.compile(r"\bPage\s*\*\s*\w+\s*=")
PAGEREF_DEREF_RE = re.compile(r"\.get\(\)|&\s*\*|operator->")
PAGE_FETCH_RE = re.compile(r"\b(FetchPage|AllocatePage)\s*\(")
LOCK_DECL_RE = re.compile(r"\b(MutexLock|lock_guard|unique_lock|scoped_lock)\b\s*[<\w]*\s*\w+\s*[({]")
PARALLEL_FOR_RE = re.compile(r"\bParallel(For|Collect)\s*\(")


def _exempt(rel_path, names):
    return any(rel_path.endswith(n) for n in names)


def rule_bare_mutex(rel_path, lines, _raw):
    if _exempt(rel_path, ("common/sync.h", "common/sync.cc")):
        return
    for i, line in enumerate(lines, 1):
        m = BARE_MUTEX_RE.search(line)
        if m:
            yield i, (f"bare std::{m.group(1)}; use xst::Mutex / MutexLock / "
                      "CondVar (src/common/sync.h) so the thread-safety "
                      "analysis sees the lock")


def rule_pageref_raw_escape(rel_path, lines, _raw):
    if _exempt(rel_path, ("store/pager.h", "store/pager.cc")):
        return  # the PageRef implementation itself
    for i, line in enumerate(lines, 1):
        if not PAGE_PTR_DECL_RE.search(line):
            continue
        window = "\n".join(lines[max(0, i - 1):min(len(lines), i + 2)])
        if PAGEREF_DEREF_RE.search(window) or PAGE_FETCH_RE.search(window):
            yield i, ("raw Page* bound out of a pin; keep the PageRef (the "
                      "frame is recycled once the pin drops)")


def rule_lock_across_parallelfor(rel_path, lines, _raw):
    # Scope heuristic: track brace depth; a lock declared at depth d is alive
    # until depth drops below d. Any ParallelFor seen while a lock is alive is
    # a finding. (The AST engine uses real scopes; this catches the common
    # single-file case.)
    depth = 0
    live_locks = []  # (depth_declared, line_no)
    for i, line in enumerate(lines, 1):
        if LOCK_DECL_RE.search(line):
            live_locks.append((depth + line.count("{"), i))
        if PARALLEL_FOR_RE.search(line) and live_locks:
            yield i, (f"ParallelFor reached with a lock held (acquired line "
                      f"{live_locks[-1][1]}); worker chunks that contend on it "
                      "deadlock the region — copy what you need, drop the "
                      "lock, then go parallel")
        depth += line.count("{") - line.count("}")
        live_locks = [(d, ln) for d, ln in live_locks if d <= depth]


# ---------------------------------------------------------------------------
# AST rule bodies. Each takes (rel_path, tu, cindex) and yields
# (line_no, message). They only report locations inside the file being
# checked (not headers pulled in by it).
# ---------------------------------------------------------------------------

STD_SYNC_TYPES = (
    "std::mutex", "std::recursive_mutex", "std::shared_mutex",
    "std::timed_mutex", "std::recursive_timed_mutex", "std::lock_guard",
    "std::unique_lock", "std::shared_lock", "std::scoped_lock",
    "std::condition_variable", "std::condition_variable_any",
)
LOCK_TYPES = ("MutexLock", "lock_guard", "unique_lock", "scoped_lock")
INTERNER_MUTATORS = ("Int", "Symbol", "String", "Set")


def _in_main_file(cursor, rel_path):
    loc = cursor.location
    if loc.file is None:
        return False
    return os.path.abspath(loc.file.name).endswith(rel_path.replace("/", os.sep))


def _walk(cursor):
    for child in cursor.get_children():
        yield child
        yield from _walk(child)


def ast_rule_bare_mutex(rel_path, tu, cindex):
    if _exempt(rel_path, ("common/sync.h", "common/sync.cc")):
        return
    K = cindex.CursorKind
    for c in _walk(tu.cursor):
        if c.kind not in (K.VAR_DECL, K.FIELD_DECL) or not _in_main_file(c, rel_path):
            continue
        spelling = c.type.get_canonical().spelling
        if any(t in spelling for t in STD_SYNC_TYPES):
            yield c.location.line, (f"bare {spelling.split('<')[0]}; use "
                                    "xst::Mutex / MutexLock / CondVar "
                                    "(src/common/sync.h)")


def ast_rule_thread_primitives(rel_path, tu, cindex):
    if _exempt(rel_path, ("common/thread_pool.h", "common/thread_pool.cc")):
        return
    K = cindex.CursorKind
    for c in _walk(tu.cursor):
        if not _in_main_file(c, rel_path):
            continue
        if (c.kind == K.VAR_DECL
                and re.search(r"std::thread\b(?!::)", c.type.get_canonical().spelling)):
            yield c.location.line, ("std::thread outside common/thread_pool; "
                                    "route parallelism through ThreadPool::Global()")
        elif c.kind == K.CALL_EXPR and c.spelling == "async":
            ref = c.referenced
            if ref is not None and "std" in (ref.semantic_parent.spelling or ""):
                yield c.location.line, ("std::async outside common/thread_pool; "
                                        "route parallelism through "
                                        "ThreadPool::Global()")


def ast_rule_interner_mutation(rel_path, tu, cindex):
    if _exempt(rel_path, ("core/xset.cc", "core/builder.cc", "core/interner.cc")):
        return
    K = cindex.CursorKind
    for c in _walk(tu.cursor):
        if c.kind != K.CALL_EXPR or c.spelling not in INTERNER_MUTATORS:
            continue
        if not _in_main_file(c, rel_path):
            continue
        ref = c.referenced
        if ref is not None and (ref.semantic_parent.spelling or "") == "Interner":
            yield c.location.line, (
                f"direct interner mutation Interner::Global().{c.spelling}() "
                "outside the core builder layer; use an XSet factory")


def ast_rule_pageref_raw_escape(rel_path, tu, cindex):
    if _exempt(rel_path, ("store/pager.h", "store/pager.cc")):
        return
    K = cindex.CursorKind
    for c in _walk(tu.cursor):
        if c.kind != K.VAR_DECL or not _in_main_file(c, rel_path):
            continue
        t = c.type.get_canonical()
        if t.kind != cindex.TypeKind.POINTER:
            continue
        pointee = t.get_pointee().spelling
        if pointee.replace("const ", "").endswith("xst::Page"):
            yield c.location.line, ("raw Page* escapes the pin scope; keep "
                                    "the PageRef (the frame is recycled once "
                                    "the pin drops)")


def ast_rule_lock_across_parallelfor(rel_path, tu, cindex):
    K = cindex.CursorKind
    # Collect lock declarations with the extent of their enclosing compound
    # statement, then flag ParallelFor calls inside that extent after the
    # declaration.
    locks = []  # (decl_end_offset, scope_end_offset, decl_line)

    def visit(cursor, scope_extent):
        for child in cursor.get_children():
            if child.kind == K.COMPOUND_STMT:
                visit(child, child.extent)
                continue
            if (child.kind == K.VAR_DECL and scope_extent is not None
                    and any(lt in child.type.spelling for lt in LOCK_TYPES)):
                locks.append((child.extent.end.offset, scope_extent.end.offset,
                              child.location.line))
            visit(child, scope_extent)

    visit(tu.cursor, None)
    for c in _walk(tu.cursor):
        if c.kind != K.CALL_EXPR or c.spelling not in ("ParallelFor", "ParallelCollect"):
            continue
        if not _in_main_file(c, rel_path):
            continue
        off = c.extent.start.offset
        for decl_end, scope_end, decl_line in locks:
            if decl_end <= off <= scope_end:
                yield c.location.line, (
                    f"ParallelFor reached with a lock held (acquired line "
                    f"{decl_line}); drop the lock before going parallel")
                break


def ast_rule_result_value_unchecked(rel_path, tu, cindex):
    K = cindex.CursorKind
    for fn in _walk(tu.cursor):
        if fn.kind not in (K.FUNCTION_DECL, K.CXX_METHOD, K.FUNCTION_TEMPLATE):
            continue
        if not fn.is_definition() or not _in_main_file(fn, rel_path):
            continue
        ok_checked = {}   # base spelling -> earliest ok() offset
        value_uses = []   # (offset, line, base spelling)
        for c in _walk(fn):
            if c.kind != K.CALL_EXPR:
                continue
            base = None
            for child in c.get_children():
                if child.kind == K.MEMBER_REF_EXPR:
                    kids = list(child.get_children())
                    if kids:
                        toks = [t.spelling for t in kids[0].get_tokens()]
                        base = "".join(toks)
                    break
            if base is None:
                continue
            if c.spelling == "ok":
                off = c.extent.start.offset
                ok_checked[base] = min(off, ok_checked.get(base, off))
            elif c.spelling == "value":
                obj_type = ""
                for child in c.get_children():
                    if child.kind == K.MEMBER_REF_EXPR:
                        kids = list(child.get_children())
                        if kids:
                            obj_type = kids[0].type.get_canonical().spelling
                        break
                if "xst::Result<" in obj_type:
                    value_uses.append((c.extent.start.offset, c.location.line, base))
        for off, line, base in value_uses:
            checked = ok_checked.get(base)
            if checked is None or checked > off:
                yield line, (f"Result::value() on `{base}` with no dominating "
                             "ok() check; an error Result aborts here — test "
                             "ok() first or use XST_ASSIGN_OR_RAISE")


def ast_rule_guarded_field_unlocked(rel_path, tu, cindex):
    K = cindex.CursorKind
    # Pass 1: fields carrying a guarded_by attribute, keyed by (class, field),
    # with the mutex expression text.
    guarded = {}
    for c in _walk(tu.cursor):
        if c.kind != K.FIELD_DECL:
            continue
        for child in c.get_children():
            if child.kind == K.UNEXPOSED_ATTR:
                toks = " ".join(t.spelling for t in child.get_tokens())
                m = re.search(r"guarded_by\s*\(\s*(.+?)\s*\)\s*$", toks)
                if m:
                    cls = c.semantic_parent.spelling
                    guarded[(cls, c.spelling)] = m.group(1).lstrip("&").strip()
    if not guarded:
        return
    # Pass 2: method bodies that write a guarded field while neither holding
    # a MutexLock on its mutex nor being annotated REQUIRES.
    for fn in _walk(tu.cursor):
        if fn.kind != K.CXX_METHOD or not fn.is_definition():
            continue
        if not _in_main_file(fn, rel_path):
            continue
        fn_attrs = " ".join(
            " ".join(t.spelling for t in a.get_tokens())
            for a in fn.get_children() if a.kind == K.UNEXPOSED_ATTR)
        held = set(re.findall(r"requires_capability\s*\(\s*&?(\w+)", fn_attrs))
        for c in _walk(fn):
            if c.kind == K.VAR_DECL and "MutexLock" in c.type.spelling:
                toks = [t.spelling for t in c.get_tokens()]
                for i, t in enumerate(toks):
                    if t == "&" and i + 1 < len(toks):
                        held.add(toks[i + 1])
        cls = fn.semantic_parent.spelling
        for c in _walk(fn):
            if c.kind != K.BINARY_OPERATOR:
                continue
            kids = list(c.get_children())
            if not kids or kids[0].kind != K.MEMBER_REF_EXPR:
                continue
            toks = [t.spelling for t in c.get_tokens()]
            if "=" not in toks:
                continue
            field = kids[0].spelling
            mu = guarded.get((cls, field))
            if mu is not None and mu not in held:
                yield c.location.line, (
                    f"write to guarded field `{field}` without holding "
                    f"`{mu}` (no MutexLock in scope, no XST_REQUIRES)")


def ast_rule_vm_opcode_dispatch(rel_path, tu, cindex):
    K = cindex.CursorKind
    # The enumerator catalog is the OpCode enum visible to this TU — the
    # real one from src/xsp/compile.h for production files, a local one for
    # fixtures. No enum in scope means nothing here can dispatch on it.
    enumerators = []
    for c in _walk(tu.cursor):
        if c.kind == K.ENUM_DECL and c.spelling == "OpCode":
            enumerators = [e.spelling for e in c.get_children()
                           if e.kind == K.ENUM_CONSTANT_DECL]
    if not enumerators:
        return
    for sw in _walk(tu.cursor):
        if sw.kind != K.SWITCH_STMT or not _in_main_file(sw, rel_path):
            continue
        cases = []
        has_default = False
        for c in _walk(sw):
            if c.kind == K.DEFAULT_STMT:
                has_default = True
            elif c.kind == K.CASE_STMT:
                kids = list(c.get_children())
                if not kids:
                    continue
                # The first child is the label expression; resolve it to an
                # enum constant of OpCode (if it is one).
                for r in [kids[0]] + list(_walk(kids[0])):
                    ref = getattr(r, "referenced", None)
                    if (ref is not None and ref.kind == K.ENUM_CONSTANT_DECL
                            and (ref.semantic_parent.spelling or "") == "OpCode"):
                        cases.append(ref.spelling)
                        break
        if not cases:
            continue
        missing = [e for e in enumerators if e not in cases]
        if missing:
            yield sw.location.line, ("OpCode dispatch is not exhaustive; "
                                     "missing case(s): " + ", ".join(missing))
        if has_default:
            yield sw.location.line, ("OpCode dispatch must not use `default:`; "
                                     "handle every enumerator so a new opcode "
                                     "breaks every dispatch site instead of "
                                     "falling through")


# XST_REQUIRES / XST_ACQUIRE lower to clang's requires_capability /
# acquire_capability; attribute tokens may surface either the macro name or
# the lowered spelling depending on how the extent maps through the macro
# expansion, so both are matched.
ATTR_REQUIRES_RE = re.compile(
    r"(?:\brequires_capability|\bXST_REQUIRES)\s*\(\s*([^)]*?)\s*\)")
ATTR_ACQUIRE_RE = re.compile(
    r"(?:\bacquire_capability|\bXST_ACQUIRE)\s*\(\s*([^)]*?)\s*\)")


def _paren_arg_tokens(cursor):
    """The text inside the first balanced paren group of a cursor's tokens —
    the constructor argument of a `MutexLock lock(&mu)` declaration."""
    toks = [t.spelling for t in cursor.get_tokens()]
    depth = 0
    arg = []
    for t in toks:
        if t == "(":
            depth += 1
            if depth == 1:
                continue
        elif t == ")":
            depth -= 1
            if depth == 0:
                return "".join(arg)
        if depth >= 1:
            arg.append(t)
    return None


def ast_rule_lock_order_cycle(rel_path, tu, cindex):
    K = cindex.CursorKind
    fn_kinds = (K.FUNCTION_DECL, K.CXX_METHOD, K.CONSTRUCTOR, K.DESTRUCTOR,
                K.FUNCTION_TEMPLATE)
    edges = []  # (holder, acquired, line) — same shape the lint engine builds
    for fn in _walk(tu.cursor):
        if fn.kind not in fn_kinds or not _in_main_file(fn, rel_path):
            continue
        attrs = " ".join(
            " ".join(t.spelling for t in a.get_tokens())
            for a in fn.get_children() if a.kind == K.UNEXPOSED_ATTR)
        parent = fn.semantic_parent
        cls = None
        if parent is not None and parent.kind in (K.CLASS_DECL, K.STRUCT_DECL,
                                                  K.CLASS_TEMPLATE):
            cls = parent.spelling
        scope = f"{rel_path}:{fn.location.line}"
        held = [h for h in (xst_lint._lock_identity(x, cls, scope)
                            for arg in ATTR_REQUIRES_RE.findall(attrs)
                            for x in xst_lint._lock_split_args(arg)) if h]
        acquires = [a for a in (xst_lint._lock_identity(x, cls, scope)
                                for arg in ATTR_ACQUIRE_RE.findall(attrs)
                                for x in xst_lint._lock_split_args(arg)) if a]
        # Annotation-only seam: REQUIRES(A) + ACQUIRE(B) on one declaration.
        for h in held:
            for a in acquires:
                edges.append((h, a, fn.location.line))
        if not fn.is_definition():
            continue
        # Scoped locks in the body, with the extent of their enclosing
        # compound statement (= the lock's lifetime).
        locks = []  # (identity, decl_start, decl_end, scope_end, line)

        def visit(cursor, scope_extent):
            for child in cursor.get_children():
                ext = child.extent if child.kind == K.COMPOUND_STMT else scope_extent
                if (child.kind == K.VAR_DECL
                        and "MutexLock" in child.type.spelling):
                    ident = xst_lint._lock_identity(
                        _paren_arg_tokens(child) or "", cls, scope)
                    if ident:
                        end = (scope_extent.end.offset if scope_extent
                               else child.extent.end.offset)
                        locks.append((ident, child.extent.start.offset,
                                      child.extent.end.offset, end,
                                      child.location.line))
                visit(child, ext)

        visit(fn, None)
        for ident, start, _dend, _send, line in locks:
            for other, ostart, oend, oscope_end, _oline in locks:
                if ostart < start and oend <= start <= oscope_end:
                    edges.append((other, ident, line))
            for h in held:
                edges.append((h, ident, line))
    yield from xst_lint.lock_cycle_findings(edges)


# ---------------------------------------------------------------------------
# Locksmith: lock-rank / blocking-under-latch / guarded-field-inference.
#
# Both engines share xst_lint's ConcurrencyModel and checker. The AST engine
# starts from the same stripped-text model (so its findings are a superset of
# the regex engine's — parity by construction) and unions in facts only the
# compiler can see: XST_LOCK_RANK / XST_BLOCKING lower to annotate attributes,
# so ranks survive odd formatting and a call into an XST_BLOCKING function
# declared in an *included header* is recognized through the resolved
# reference, which the single-file text scan cannot do.
# ---------------------------------------------------------------------------

ANNOTATE_RANK_RE = re.compile(r"xst::lock_rank=\D*(\d+)")
ANNOTATE_BLOCKING_RE = re.compile(r"xst::blocking")


def _cursor_annotations(cursor, cindex):
    """Joined token text of every attribute child of `cursor`."""
    K = cindex.CursorKind
    out = []
    for child in cursor.get_children():
        if child.kind in (K.UNEXPOSED_ATTR, getattr(K, "ANNOTATE_ATTR", K.UNEXPOSED_ATTR)):
            spelling = child.spelling or ""
            toks = " ".join(t.spelling for t in child.get_tokens())
            out.append(spelling + " " + toks)
    return " ".join(out)


def _ast_concurrency_model(rel_path, tu, cindex):
    text = open(tu.spelling, encoding="utf-8").read()
    lines = strip_comments_and_strings(text).split("\n")
    model = xst_lint.collect_concurrency_model([(rel_path, lines)])
    K = cindex.CursorKind
    fn_kinds = (K.FUNCTION_DECL, K.CXX_METHOD, K.CONSTRUCTOR, K.DESTRUCTOR,
                K.FUNCTION_TEMPLATE)
    for c in _walk(tu.cursor):
        if c.kind in (K.VAR_DECL, K.FIELD_DECL) and _in_main_file(c, rel_path):
            m = ANNOTATE_RANK_RE.search(_cursor_annotations(c, cindex))
            if m is None:
                continue
            rank = int(m.group(1))
            parent = c.semantic_parent
            cls = None
            if parent is not None and parent.kind in (
                    K.CLASS_DECL, K.STRUCT_DECL, K.CLASS_TEMPLATE):
                cls = parent.spelling
            ident = f"{cls}::{c.spelling}" if cls else c.spelling
            # Union, never override: a new rank for an already-known name
            # would make the by-name fallback ambiguous and *suppress*
            # textual findings, breaking the superset guarantee.
            ranks = model.rank_names.setdefault(c.spelling, set())
            if not ranks or rank in ranks:
                model.ranks.setdefault(ident, (rank, (rel_path, c.location.line)))
                ranks.add(rank)
        elif c.kind in fn_kinds:
            # XST_BLOCKING on any visible declaration (headers included).
            if ANNOTATE_BLOCKING_RE.search(_cursor_annotations(c, cindex)):
                model.blocking_names.add(c.spelling)
        elif c.kind == K.CALL_EXPR and _in_main_file(c, rel_path):
            ref = c.referenced
            if ref is not None and ANNOTATE_BLOCKING_RE.search(
                    _cursor_annotations(ref, cindex)):
                model.blocking_names.add(c.spelling)
    return model


def _ast_concurrency_rule(rule_name):
    def run(rel_path, tu, cindex):
        model = _ast_concurrency_model(rel_path, tu, cindex)
        for rule, (path, line_no), message in xst_lint.concurrency_findings(model):
            if rule == rule_name and path == rel_path:
                yield line_no, message
    run.__name__ = "ast_rule_" + rule_name.replace("-", "_")
    return run


ast_rule_lock_rank = _ast_concurrency_rule("lock-rank")
ast_rule_blocking_under_latch = _ast_concurrency_rule("blocking-under-latch")
ast_rule_guarded_field_inference = _ast_concurrency_rule("guarded-field-inference")


# ---------------------------------------------------------------------------
# Rule registry
# ---------------------------------------------------------------------------

class Rule:
    def __init__(self, name, fallback_fn, ast_fn):
        self.name = name
        self.fallback_fn = fallback_fn  # (rel_path, lines, raw) -> yields
        self.ast_fn = ast_fn            # (rel_path, tu, cindex) -> yields


RULES = [
    Rule("bare-mutex", rule_bare_mutex, ast_rule_bare_mutex),
    Rule("thread-primitives", xst_lint.rule_thread_primitives,
         ast_rule_thread_primitives),
    Rule("interner-mutation", xst_lint.rule_interner_mutation,
         ast_rule_interner_mutation),
    Rule("pageref-raw-escape", rule_pageref_raw_escape,
         ast_rule_pageref_raw_escape),
    Rule("lock-across-parallelfor", rule_lock_across_parallelfor,
         ast_rule_lock_across_parallelfor),
    Rule("result-value-unchecked", None, ast_rule_result_value_unchecked),
    Rule("guarded-field-unlocked", None, ast_rule_guarded_field_unlocked),
    Rule("vm-opcode-dispatch", xst_lint.rule_vm_opcode_dispatch,
         ast_rule_vm_opcode_dispatch),
    Rule("lock-order-cycle", xst_lint.rule_lock_order_cycle,
         ast_rule_lock_order_cycle),
    Rule("lock-rank", xst_lint.rule_lock_rank, ast_rule_lock_rank),
    Rule("blocking-under-latch", xst_lint.rule_blocking_under_latch,
         ast_rule_blocking_under_latch),
    Rule("guarded-field-inference", xst_lint.rule_guarded_field_inference,
         ast_rule_guarded_field_inference),
]

# Rules whose findings must be a superset of xst_lint's same-named regex rule.
PARITY_RULES = ("thread-primitives", "interner-mutation", "vm-opcode-dispatch",
                "lock-order-cycle", "lock-rank", "blocking-under-latch",
                "guarded-field-inference")

ALLOW_RE = re.compile(r"xst-astcheck:\s*allow\(([a-z-]+)\)")
LINT_ALLOW_RE = xst_lint.ALLOW_RE


def _allowed(raw_line, rule_name):
    m = ALLOW_RE.search(raw_line)
    if m and m.group(1) == rule_name:
        return True
    # Ported rules honor the original pragma so migrating files need not
    # double-annotate.
    m = LINT_ALLOW_RE.search(raw_line)
    return bool(m and m.group(1) == rule_name and rule_name in PARITY_RULES)


# ---------------------------------------------------------------------------
# Drivers
# ---------------------------------------------------------------------------


def check_text_fallback(rel_path, raw_text):
    """Fallback engine over one file's text. Returns (findings, skipped)."""
    stripped = strip_comments_and_strings(raw_text)
    lines = stripped.split("\n")
    raw_lines = raw_text.split("\n")
    findings, skipped = [], []
    for rule in RULES:
        if rule.fallback_fn is None:
            skipped.append(rule.name)
            continue
        for line_no, message in rule.fallback_fn(rel_path, lines, raw_lines):
            raw_line = raw_lines[line_no - 1] if line_no <= len(raw_lines) else ""
            if not _allowed(raw_line, rule.name):
                findings.append(Finding(rel_path, line_no, rule.name, message))
    return findings, skipped


def clang_args():
    return ["-std=c++20", "-I" + os.path.join(REPO_ROOT, "src"),
            "-I" + REPO_ROOT, "-Wno-everything", "-ferror-limit=0"]


def check_file_ast(path, rel_path, cindex, index):
    raw_lines = open(path, encoding="utf-8").read().split("\n")
    tu = index.parse(path, args=clang_args(),
                     options=cindex.TranslationUnit.PARSE_DETAILED_PROCESSING_RECORD)
    fatal = [d for d in tu.diagnostics if d.severity >= cindex.Diagnostic.Fatal]
    if fatal:
        return [Finding(rel_path, fatal[0].location.line or 1, "parse-error",
                        f"libclang could not parse: {fatal[0].spelling}")]
    findings = []
    for rule in RULES:
        for line_no, message in rule.ast_fn(rel_path, tu, cindex):
            raw_line = raw_lines[line_no - 1] if 0 < line_no <= len(raw_lines) else ""
            if not _allowed(raw_line, rule.name):
                findings.append(Finding(rel_path, line_no, rule.name, message))
    return findings


def collect_files(paths):
    files = []
    for path in paths:
        if os.path.isdir(path):
            for root, _dirs, names in os.walk(path):
                for name in sorted(names):
                    if name.endswith((".h", ".cc", ".cpp", ".hpp")):
                        files.append(os.path.join(root, name))
        elif os.path.isfile(path):
            files.append(path)
        else:
            print(f"xst-astcheck: no such path: {path}", file=sys.stderr)
            return None
    return sorted(files)


def check_paths(paths, cindex):
    files = collect_files(paths)
    if files is None:
        return None, None, 0
    findings, skipped_rules = [], set()
    index = cindex.Index.create() if cindex else None
    for f in files:
        rel = os.path.relpath(f, REPO_ROOT).replace(os.sep, "/")
        if cindex:
            findings.extend(check_file_ast(f, rel, cindex, index))
        else:
            file_findings, skipped = check_text_fallback(rel, open(f, encoding="utf-8").read())
            findings.extend(file_findings)
            skipped_rules.update(skipped)
    # The lock graph is global: a cycle split across translation units is
    # still a deadlock. Aggregate the (textual) edges over every scanned
    # file — both engines share this pass, since per-TU AST edges and
    # per-file text edges agree on node identities — and add any cycle
    # findings the per-file rules did not already report.
    if len(files) > 1:
        edges = []
        raw_by_rel = {}
        stripped_by_rel = {}
        for f in files:
            rel = os.path.relpath(f, REPO_ROOT).replace(os.sep, "/")
            text = open(f, encoding="utf-8").read()
            raw_by_rel[rel] = text.split("\n")
            lines = strip_comments_and_strings(text).split("\n")
            stripped_by_rel[rel] = lines
            for holder, acquired, line_no in xst_lint.collect_lock_edges(rel, lines):
                edges.append((holder, acquired, (rel, line_no)))
        reported = {(x.path, x.line, x.rule) for x in findings}
        for (rel, line_no), message in xst_lint.lock_cycle_findings(edges):
            raw_lines = raw_by_rel[rel]
            raw_line = raw_lines[line_no - 1] if line_no <= len(raw_lines) else ""
            if _allowed(raw_line, "lock-order-cycle"):
                continue
            if (rel, line_no, "lock-order-cycle") in reported:
                continue
            findings.append(Finding(rel, line_no, "lock-order-cycle", message))
        # The locksmith rules are likewise whole-program: ranks declared in
        # one header resolve acquisitions in another TU, and held sets
        # propagate through cross-file call edges. Both engines share the
        # textual tree-wide model (per-TU AST facts already landed above).
        model = xst_lint.collect_concurrency_model(
            sorted(stripped_by_rel.items()))
        for rule_name, (rel, line_no), message in xst_lint.concurrency_findings(model):
            raw_lines = raw_by_rel[rel]
            raw_line = raw_lines[line_no - 1] if line_no <= len(raw_lines) else ""
            if _allowed(raw_line, rule_name):
                continue
            if (rel, line_no, rule_name) in reported:
                continue
            findings.append(Finding(rel, line_no, rule_name, message))
    return findings, skipped_rules, len(files)


def run_parity(paths, cindex):
    """Every finding from the ported xst_lint regex rules must also be found
    by this tool (AST findings ⊇ regex findings)."""
    files = collect_files(paths)
    if files is None:
        return 2
    missing = 0
    for f in files:
        rel = os.path.relpath(f, REPO_ROOT).replace(os.sep, "/")
        text = open(f, encoding="utf-8").read()
        regex_findings = [x for x in xst_lint.lint_text(rel, text)
                          if x.rule in PARITY_RULES]
        if cindex:
            ours = check_file_ast(f, rel, cindex, cindex.Index.create())
        else:
            ours, _ = check_text_fallback(rel, text)
        ours_keys = {(x.rule, x.line) for x in ours}
        for x in regex_findings:
            if (x.rule, x.line) not in ours_keys:
                missing += 1
                print(f"parity MISS: {x} (regex found, astcheck did not)",
                      file=sys.stderr)
    if missing:
        print(f"xst-astcheck parity: {missing} regex finding(s) not covered",
              file=sys.stderr)
        return 1
    print(f"xst-astcheck parity: OK over {len(files)} file(s) "
          f"({'AST' if cindex else 'fallback'} engine)")
    return 0


# ---------------------------------------------------------------------------
# Self-test fixtures: (rule, expect_hit, code[, path]). Paths dodge the
# path-based exemptions unless the fixture targets one.
# ---------------------------------------------------------------------------

SELF_TEST_FIXTURES = [
    ("bare-mutex", True, "std::mutex mu;\n"),
    ("bare-mutex", True, "std::lock_guard<std::mutex> lock(mu);\n"),
    ("bare-mutex", True, "std::condition_variable cv;\n"),
    ("bare-mutex", False, "xst::Mutex mu;\nMutexLock lock(&mu);\n"),
    ("bare-mutex", False, "// std::mutex is banned outside sync.h\n"),
    ("bare-mutex", False, "std::mutex mu_;\n", "src/common/sync.h"),
    ("bare-mutex", False,
     "std::mutex mu;  // xst-astcheck: allow(bare-mutex)\n"),
    ("thread-primitives", True, "std::thread t([] {});\n"),
    ("thread-primitives", False, "ThreadPool::Global().ParallelFor(n, 1, body);\n"),
    ("thread-primitives", False,
     "std::thread::id owner = std::this_thread::get_id();\n"),
    ("thread-primitives", False,
     "std::thread t;\n", "src/common/thread_pool.cc"),
    ("thread-primitives", False,
     "std::thread t([] {});  // xst-lint: allow(thread-primitives)\n"),
    ("interner-mutation", True, "auto* n = Interner::Global().Int(7);\n"),
    ("interner-mutation", False, "Interner::Global().EmptySet();\n"),
    ("interner-mutation", False,
     "Interner::Global().Int(7);\n", "src/core/xset.cc"),
    ("pageref-raw-escape", True, "Page* p = ref.get();\n"),
    ("pageref-raw-escape", True, "Page* p = &*pager->FetchPage(0);\n"),
    ("pageref-raw-escape", False, "PageRef ref = *pager.FetchPage(id);\n"),
    ("pageref-raw-escape", False, "Page* frame;\n"),  # no pin on the RHS
    ("pageref-raw-escape", False,
     "Page* p = ref.get();\n", "src/store/pager.cc"),
    ("lock-across-parallelfor", True,
     "void F() {\n"
     "  MutexLock lock(&mu_);\n"
     "  ThreadPool::Global().ParallelFor(n, 1, body);\n"
     "}\n"),
    ("lock-across-parallelfor", False,
     "void F() {\n"
     "  {\n"
     "    MutexLock lock(&mu_);\n"
     "    total = Sum();\n"
     "  }\n"
     "  ThreadPool::Global().ParallelFor(n, 1, body);\n"
     "}\n"),
    ("lock-across-parallelfor", False,
     "void F() {\n"
     "  ThreadPool::Global().ParallelFor(n, 1, body);\n"
     "}\n"),
    # AST-only rules: exercised in AST mode, SKIPPED (exit 0) in fallback.
    ("result-value-unchecked", True,
     "namespace xst { template <typename T> class Result {\n"
     " public: bool ok() const; T& value(); }; }\n"
     "int F(xst::Result<int> r) { return r.value(); }\n"),
    ("result-value-unchecked", False,
     "namespace xst { template <typename T> class Result {\n"
     " public: bool ok() const; T& value(); }; }\n"
     "int F(xst::Result<int> r) {\n"
     "  if (!r.ok()) return -1;\n"
     "  return r.value();\n"
     "}\n"),
    ("guarded-field-unlocked", True,
     "#include \"src/common/sync.h\"\n"
     "class C {\n"
     " public:\n"
     "  void Set(int v) { x_ = v; }\n"
     " private:\n"
     "  xst::Mutex mu_;\n"
     "  int x_ XST_GUARDED_BY(mu_) = 0;\n"
     "};\n"),
    ("guarded-field-unlocked", False,
     "#include \"src/common/sync.h\"\n"
     "class C {\n"
     " public:\n"
     "  void Set(int v) { xst::MutexLock lock(&mu_); x_ = v; }\n"
     " private:\n"
     "  xst::Mutex mu_;\n"
     "  int x_ XST_GUARDED_BY(mu_) = 0;\n"
     "};\n"),
    # vm-opcode-dispatch fixtures declare a local OpCode enum so both
    # engines resolve the catalog without touching the on-disk one.
    ("vm-opcode-dispatch", True,
     "enum class OpCode : int { kAdd, kSub };\n"
     "void Run(OpCode op) {\n"
     "  switch (op) {\n"
     "    case OpCode::kAdd:\n"
     "      break;\n"
     "  }\n"
     "}\n"),
    ("vm-opcode-dispatch", True,
     "enum class OpCode : int { kAdd };\n"
     "void Run(OpCode op) {\n"
     "  switch (op) {\n"
     "    case OpCode::kAdd: break;\n"
     "    default: break;\n"
     "  }\n"
     "}\n"),
    ("vm-opcode-dispatch", False,
     "enum class OpCode : int { kAdd, kSub };\n"
     "void Run(OpCode op) {\n"
     "  switch (op) {\n"
     "    case OpCode::kAdd: break;\n"
     "    case OpCode::kSub: break;\n"
     "  }\n"
     "}\n"),
    ("vm-opcode-dispatch", False,
     "enum class ExprKind : int { kUnion };\n"
     "void Run(ExprKind k) {\n"
     "  switch (k) {\n"
     "    case ExprKind::kUnion: break;\n"
     "    default: break;\n"
     "  }\n"
     "}\n"),
    # lock-order-cycle fixtures include the real sync.h so the AST engine
    # sees genuine thread-safety attributes and the MutexLock type.
    ("lock-order-cycle", True,
     "#include \"src/common/sync.h\"\n"
     "class S {\n"
     " public:\n"
     "  void F() XST_REQUIRES(a_) { xst::MutexLock l(&b_); }\n"
     "  void G() XST_REQUIRES(b_) { xst::MutexLock l(&a_); }\n"
     " private:\n"
     "  xst::Mutex a_;\n"
     "  xst::Mutex b_;\n"
     "};\n"),
    ("lock-order-cycle", False,
     "#include \"src/common/sync.h\"\n"
     "class S {\n"
     " public:\n"
     "  void F() XST_REQUIRES(a_) { xst::MutexLock l(&b_); }\n"
     "  void G() XST_REQUIRES(a_) { xst::MutexLock l(&b_); }\n"
     " private:\n"
     "  xst::Mutex a_;\n"
     "  xst::Mutex b_;\n"
     "};\n"),
    ("lock-order-cycle", True,
     "#include \"src/common/sync.h\"\n"
     "xst::Mutex mu;\n"
     "void F() {\n"
     "  xst::MutexLock outer(&mu);\n"
     "  xst::MutexLock inner(&mu);\n"
     "}\n"),
    ("lock-order-cycle", False,
     "#include \"src/common/sync.h\"\n"
     "xst::Mutex a;\n"
     "xst::Mutex b;\n"
     "void F() {\n"
     "  { xst::MutexLock l(&a); }\n"
     "  { xst::MutexLock l(&b); }\n"
     "}\n"),
    ("lock-order-cycle", False,
     "#include \"src/common/sync.h\"\n"
     "xst::Mutex a;\n"
     "xst::Mutex b;\n"
     "void F() {\n"
     "  xst::MutexLock outer(&a);\n"
     "  xst::MutexLock inner(&b);\n"
     "}\n"),
    # Locksmith fixtures run in both engines: the AST engine builds the same
    # textual model and unions attribute-derived facts over it.
    ("lock-rank", True,
     "#include \"src/common/sync.h\"\n"
     "class S {\n"
     " public:\n"
     "  void F() {\n"
     "    xst::MutexLock outer(&lo_);\n"
     "    xst::MutexLock inner(&hi_);\n"
     "  }\n"
     " private:\n"
     "  xst::Mutex lo_ XST_LOCK_RANK(30);\n"
     "  xst::Mutex hi_ XST_LOCK_RANK(10);\n"
     "};\n"),
    ("lock-rank", False,
     "#include \"src/common/sync.h\"\n"
     "class S {\n"
     " public:\n"
     "  void F() {\n"
     "    xst::MutexLock outer(&lo_);\n"
     "    xst::MutexLock inner(&hi_);\n"
     "  }\n"
     " private:\n"
     "  xst::Mutex lo_ XST_LOCK_RANK(10);\n"
     "  xst::Mutex hi_ XST_LOCK_RANK(30);\n"
     "};\n"),
    ("lock-rank", True,
     "#include \"src/common/sync.h\"\n"
     "class S {\n"
     " public:\n"
     "  void F() XST_REQUIRES(hi_) { Helper(); }\n"
     "  void Helper() { xst::MutexLock l(&lo_); }\n"
     " private:\n"
     "  xst::Mutex hi_ XST_LOCK_RANK(30);\n"
     "  xst::Mutex lo_ XST_LOCK_RANK(10);\n"
     "};\n"),
    ("lock-rank", False,
     "#include \"src/common/sync.h\"\n"
     "class S {\n"
     " public:\n"
     "  void F() {\n"
     "    xst::MutexLock outer(&lo_);\n"
     "    xst::MutexLock inner(&hi_);  // xst-lint: allow(lock-rank)\n"
     "  }\n"
     " private:\n"
     "  xst::Mutex lo_ XST_LOCK_RANK(30);\n"
     "  xst::Mutex hi_ XST_LOCK_RANK(10);\n"
     "};\n"),
    ("blocking-under-latch", True,
     "#include \"src/common/sync.h\"\n"
     "#include \"src/store/file.h\"\n"
     "class C {\n"
     " public:\n"
     "  void F() {\n"
     "    xst::MutexLock l(&latch_);\n"
     "    file_->ReadAt(0, nullptr, 8);\n"
     "  }\n"
     " private:\n"
     "  xst::Mutex latch_ XST_LOCK_RANK(20);\n"
     "  xst::File* file_;\n"
     "};\n"),
    ("blocking-under-latch", False,
     "#include \"src/common/sync.h\"\n"
     "#include \"src/store/file.h\"\n"
     "class C {\n"
     " public:\n"
     "  void F() {\n"
     "    xst::MutexLock l(&mu_);\n"
     "    file_->ReadAt(0, nullptr, 8);\n"
     "  }\n"
     " private:\n"
     "  xst::Mutex mu_ XST_LOCK_RANK(10);\n"
     "  xst::File* file_;\n"
     "};\n"),
    ("blocking-under-latch", True,
     "#include \"src/common/sync.h\"\n"
     "void XST_BLOCKING Stall();\n"
     "class C {\n"
     " public:\n"
     "  void F() {\n"
     "    xst::MutexLock l(&latch_);\n"
     "    Stall();\n"
     "  }\n"
     " private:\n"
     "  xst::Mutex latch_ XST_LOCK_RANK(20);\n"
     "};\n"),
    ("blocking-under-latch", False,
     "#include \"src/common/sync.h\"\n"
     "#include \"src/store/file.h\"\n"
     "class C {\n"
     " public:\n"
     "  void F() {\n"
     "    xst::MutexLock l(&latch_);\n"
     "    file_->ReadAt(0, nullptr, 8);  // xst-lint: allow(blocking-under-latch)\n"
     "  }\n"
     " private:\n"
     "  xst::Mutex latch_ XST_LOCK_RANK(20);\n"
     "  xst::File* file_;\n"
     "};\n"),
    ("guarded-field-inference", True,
     "#include \"src/common/sync.h\"\n"
     "class C {\n"
     " public:\n"
     "  void Set(int v) {\n"
     "    xst::MutexLock l(&mu_);\n"
     "    x_ = v;\n"
     "  }\n"
     " private:\n"
     "  xst::Mutex mu_ XST_LOCK_RANK(10);\n"
     "  int x_ = 0;\n"
     "};\n"),
    ("guarded-field-inference", False,
     "#include \"src/common/sync.h\"\n"
     "class C {\n"
     " public:\n"
     "  void Set(int v) {\n"
     "    xst::MutexLock l(&mu_);\n"
     "    x_ = v;\n"
     "  }\n"
     " private:\n"
     "  xst::Mutex mu_ XST_LOCK_RANK(10);\n"
     "  int x_ XST_GUARDED_BY(mu_) = 0;\n"
     "};\n"),
    ("guarded-field-inference", False,
     "#include \"src/common/sync.h\"\n"
     "class C {\n"
     " public:\n"
     "  void Set(int v) { x_ = v; }\n"
     " private:\n"
     "  int x_ = 0;\n"
     "};\n"),
]


def run_self_test(cindex):
    failures = skipped = 0
    ast_only = {r.name for r in RULES if r.fallback_fn is None}
    for idx, fixture in enumerate(SELF_TEST_FIXTURES):
        if len(fixture) == 4:
            rule, expect_hit, code, path = fixture
        else:
            rule, expect_hit, code = fixture
            path = "selftest/fixture.cc"
        if cindex:
            hits = []
            for r in RULES:
                if r.name == rule:
                    hits.extend(_probe_ast_rule(r, path, code, cindex))
            # The pragma filter lives in the driver, not the rules; the temp
            # file has identical content, so line numbers index `code`.
            raw_lines = code.split("\n")
            got_hit = any(
                not _allowed(raw_lines[ln - 1] if 0 < ln <= len(raw_lines) else "",
                             rule)
                for ln, _ in hits)
        else:
            if rule in ast_only:
                skipped += 1
                continue
            findings, _ = check_text_fallback(path, code)
            got_hit = any(f.rule == rule for f in findings)
        if got_hit != expect_hit:
            failures += 1
            print(f"self-test fixture {idx} FAILED: rule={rule} "
                  f"expected_hit={expect_hit} got={got_hit}\n  code={code!r}",
                  file=sys.stderr)
    engine = "AST" if cindex else "fallback"
    if failures:
        print(f"xst-astcheck self-test ({engine}): {failures} fixture(s) failed",
              file=sys.stderr)
        return 1
    ran = len(SELF_TEST_FIXTURES) - skipped
    note = f", {skipped} AST-only fixture(s) skipped" if skipped else ""
    print(f"xst-astcheck self-test ({engine}): all {ran} fixtures passed{note}")
    return 0


def _probe_ast_rule(rule, declared_path, code, cindex):
    """Parses `code` in a temp file and runs `rule` against it as if the file
    lived at `declared_path` (so endswith-based exemptions apply)."""
    import tempfile
    suffix = ".h" if declared_path.endswith(".h") else ".cc"
    with tempfile.NamedTemporaryFile("w", suffix=suffix, dir=REPO_ROOT,
                                     delete=False) as tmp:
        tmp.write(code)
        tmp_path = tmp.name
    try:
        index = cindex.Index.create()
        tu = index.parse(tmp_path, args=clang_args())
        main_rel = os.path.relpath(tmp_path, REPO_ROOT).replace(os.sep, "/")
        # The rule filters cursor locations by rel_path suffix; for fixtures
        # the temp name is the real location, while the declared path only
        # matters for exemptions — check those against the declared path.
        if _exempt(declared_path, _exemptions_for(rule.name)):
            return
        yield from rule.ast_fn(main_rel, tu, cindex)
    finally:
        os.unlink(tmp_path)


def _exemptions_for(rule_name):
    return {
        "bare-mutex": ("common/sync.h", "common/sync.cc"),
        "thread-primitives": ("common/thread_pool.h", "common/thread_pool.cc"),
        "interner-mutation": ("core/xset.cc", "core/builder.cc", "core/interner.cc"),
        "pageref-raw-escape": ("store/pager.h", "store/pager.cc"),
    }.get(rule_name, ())


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("paths", nargs="*", help="files or directories (default: src/)")
    parser.add_argument("--list-rules", action="store_true")
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--parity", action="store_true",
                        help="check AST findings cover xst_lint regex findings")
    parser.add_argument("--engine", choices=("auto", "ast", "fallback"),
                        default="auto")
    parser.add_argument("--latch-floor", type=int,
                        default=xst_lint.LATCH_FLOOR_DEFAULT,
                        help="minimum rank treated as latch-class by "
                             "blocking-under-latch (default: %(default)s)")
    args = parser.parse_args(argv)
    xst_lint.LATCH_FLOOR = args.latch_floor

    cindex = None if args.engine == "fallback" else load_cindex()
    if args.engine == "ast" and cindex is None:
        print("xst-astcheck: --engine=ast but clang bindings are unavailable "
              "(pip install libclang)", file=sys.stderr)
        return 2

    if args.list_rules:
        for rule in RULES:
            engines = "both" if rule.fallback_fn else "ast-only"
            print(f"{rule.name} [{engines}]")
        return 0
    if args.self_test:
        return run_self_test(cindex)

    paths = args.paths or [os.path.join(REPO_ROOT, "src")]
    if args.parity:
        return run_parity(paths, cindex)

    findings, skipped_rules, file_count = check_paths(paths, cindex)
    if findings is None:
        return 2
    for finding in findings:
        print(finding)
    engine = "AST" if cindex else "fallback"
    if findings:
        print(f"xst-astcheck ({engine}): {len(findings)} finding(s) in "
              f"{file_count} file(s)", file=sys.stderr)
        return 1
    note = (f"; rules skipped without libclang: {', '.join(sorted(skipped_rules))}"
            if skipped_rules else "")
    print(f"xst-astcheck ({engine}): OK ({file_count} files clean{note})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
