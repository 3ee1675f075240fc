#!/usr/bin/env python3
"""xst-lint: project-specific structural lint for the XST C++ sources.

Rules (see DESIGN.md section 7 for rationale):

  thread-primitives      std::thread / std::async are forbidden outside
                         src/common/thread_pool.* — all parallelism goes
                         through the global pool so sanitizer runs and
                         XST_NUM_THREADS stay authoritative.

  raw-new-delete         Raw new/delete expressions are forbidden. Allowed:
                         immediate smart-pointer wrap (same line or the line
                         above contains `_ptr<`), `static ... = new` leaked
                         singletons (the arena idiom), `= delete` declarations,
                         and the arena owners themselves (core/interner.cc,
                         common/thread_pool.cc).

  interner-mutation      Mutating interner calls Interner::Global().Int/
                         Symbol/String/Set are restricted to the core builder
                         layer (core/xset.cc, core/builder.cc,
                         core/interner.cc). Everything else builds values
                         through XSet factories so hash-consing invariants
                         have a single owner.

  sorted-members-dcheck  Every XSet::FromSortedMembers call site must be
                         paired with XST_DCHECK(IsCanonicalMemberList(...))
                         within the 4 preceding lines. The factory trusts its
                         input; the paired assertion is what keeps that trust
                         honest in debug builds.

  dcheck-side-effects    XST_DCHECK arguments must be side-effect free: under
                         NDEBUG the argument is never evaluated, so `++`,
                         `--`, or assignment inside one changes behavior
                         between build types.

  bare-mutex             std::mutex / lock_guard / unique_lock /
                         condition_variable (and their variants) are
                         forbidden outside src/common/sync.* — shared state
                         synchronizes through the annotated xst::Mutex so
                         Clang's thread-safety analysis sees every lock.

  lock-across-parallelfor  A scoped lock alive at a ParallelFor /
                         ParallelCollect call: worker chunks that take the
                         same lock deadlock the region, and even uncontended
                         it serializes the pool. Brace-scope heuristic: a
                         lock is alive until its declaring block closes.

  obs-doc-comments       Every public function in src/obs/ headers must be
                         preceded by a doc comment. The observability layer
                         is called from every subsystem; its contracts
                         (sampling weights, sink thread-locality, percentile
                         bracketing) live in those comments.

  vm-opcode-dispatch     Every switch dispatching on the VM OpCode enum must
                         handle every enumerator and must not have a
                         `default:` — adding an opcode must break every
                         dispatch site at compile/lint time, never fall
                         through silently. The enumerator catalog comes from
                         the file's own `enum class OpCode` declaration when
                         present, else from src/xsp/compile.h.

  lock-order-cycle       The static lock-acquisition graph must be acyclic.
                         Edges come from the PR5 thread-safety annotations
                         and scoped-lock sites: a function annotated
                         XST_REQUIRES(A) that constructs MutexLock(&B) adds
                         A -> B, a MutexLock constructed while an earlier
                         MutexLock in the same function is still in scope
                         adds earlier -> later, and a declaration carrying
                         both XST_REQUIRES(A) and XST_ACQUIRE(B) adds A -> B.
                         A cycle (including a self-edge: re-acquiring a held
                         lock) is a potential deadlock; establish a single
                         lock order instead. Member locks unify class-wide
                         (`Class::mu_`); locals stay scoped to their function.
                         When several files are scanned, the edges are also
                         pooled tree-wide, so a cycle split across
                         translation units is caught too.

  lock-rank              Every XST_LOCK_RANK(n)-annotated mutex lives in one
                         global hierarchy. The checker builds a call graph,
                         propagates held-lock sets interprocedurally through
                         XST_REQUIRES annotations, MutexLock scopes, and the
                         pager's ShardLatchLock latch guard,
                         and rejects any acquisition whose rank is not
                         strictly greater than every rank already held on
                         that path. Unranked locks do not participate.

  blocking-under-latch   Blocking points — File::Size/ReadAt/WriteAt/Flush/
                         Truncate, Wal::WaitDurable/FlushAll, CondVar::Wait,
                         ThreadPool::ParallelFor/ParallelCollect, plus
                         anything declared XST_BLOCKING — must not be
                         reachable while a lock of rank >= the latch floor
                         (20, the pager latch) is held.
                         CondVar::Wait exempts the innermost held lock (Wait
                         releases it while blocked). Locks below the floor
                         (the store's outer mu_) may legally cover I/O.

  guarded-field-inference  A field written while a lock is held (a MutexLock
                         in scope or an XST_REQUIRES on the method) but not
                         annotated XST_GUARDED_BY is flagged at its
                         declaration: either the annotation is missing or
                         the locking is accidental. Atomics, const and
                         mutex/condvar members are exempt. Only direct
                         assignment/increment writes are recognized.

Suppress a single line with a trailing comment:  // xst-lint: allow(rule-name)

Usage:
  tools/xst_lint.py [paths...]   # default: src/ relative to the repo root
  tools/xst_lint.py --list-rules
  tools/xst_lint.py --self-test
"""

import argparse
import os
import re
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# ---------------------------------------------------------------------------
# Source preprocessing: strip comments and string/char literals so rule
# patterns only ever match code. Line structure is preserved (stripped spans
# become spaces) so findings report real line numbers.
# ---------------------------------------------------------------------------


def strip_comments_and_strings(text):
    out = []
    i = 0
    n = len(text)
    state = "code"  # code | line_comment | block_comment | string | char
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line_comment"
                out.append("  ")
                i += 2
            elif c == "/" and nxt == "*":
                state = "block_comment"
                out.append("  ")
                i += 2
            elif c == '"':
                state = "string"
                out.append(" ")
                i += 1
            elif c == "'":
                state = "char"
                out.append(" ")
                i += 1
            else:
                out.append(c)
                i += 1
        elif state == "line_comment":
            if c == "\n":
                state = "code"
                out.append(c)
            else:
                out.append(" ")
            i += 1
        elif state == "block_comment":
            if c == "*" and nxt == "/":
                state = "code"
                out.append("  ")
                i += 2
            else:
                out.append(c if c == "\n" else " ")
                i += 1
        elif state in ("string", "char"):
            quote = '"' if state == "string" else "'"
            if c == "\\" and i + 1 < n:
                out.append("  ")
                i += 2
            elif c == quote:
                state = "code"
                out.append(" ")
                i += 1
            else:
                out.append(c if c == "\n" else " ")
                i += 1
    return "".join(out)


def extract_macro_args(lines, line_idx, col):
    """Return the balanced-paren argument of a macro whose '(' is at/after
    `col` on line `line_idx` of the stripped `lines`. Spans lines."""
    depth = 0
    arg = []
    i, j = line_idx, col
    started = False
    while i < len(lines):
        line = lines[i]
        while j < len(line):
            c = line[j]
            if c == "(":
                depth += 1
                started = True
                if depth > 1:
                    arg.append(c)
            elif c == ")":
                depth -= 1
                if depth == 0:
                    return "".join(arg)
                arg.append(c)
            elif started:
                arg.append(c)
            j += 1
        arg.append(" ")
        i += 1
        j = 0
    return "".join(arg)


# ---------------------------------------------------------------------------
# Rules
# ---------------------------------------------------------------------------

class Finding:
    def __init__(self, path, line, rule, message):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self):
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def _exempt(rel_path, names):
    return any(rel_path.endswith(n) for n in names)


# `(?!::)` spares nested names like std::thread::id, which name a type but
# spawn nothing.
THREAD_RE = re.compile(r"std::(thread|async)\b(?!::)")
NEW_RE = re.compile(r"\bnew\b")
DELETE_RE = re.compile(r"\bdelete\b")
EQ_DELETE_RE = re.compile(r"=\s*delete\b")
INTERNER_RE = re.compile(r"Interner::Global\(\)\s*\.\s*(Int|Symbol|String|Set)\s*\(")
FROM_SORTED_RE = re.compile(r"\bFromSortedMembers\s*\(")
DCHECK_RE = re.compile(r"\bXST_DCHECK\s*(\()")
PAIRING_RE = re.compile(r"XST_DCHECK\s*\(\s*IsCanonicalMemberList")
SIDE_EFFECT_RE = re.compile(
    r"\+\+|--|(?<![=!<>+\-*/%&|^])=(?![=])"
)
BARE_MUTEX_RE = re.compile(
    r"std::(mutex|recursive_mutex|shared_mutex|timed_mutex|recursive_timed_mutex|"
    r"lock_guard|unique_lock|shared_lock|scoped_lock|"
    r"condition_variable|condition_variable_any)\b")
SCOPED_LOCK_DECL_RE = re.compile(
    r"\b(MutexLock|lock_guard|unique_lock|scoped_lock)\b\s*[<\w]*\s*\w+\s*[({]")
PARALLEL_CALL_RE = re.compile(r"\b(Parallel(?:For|Collect))\s*\(")


def rule_thread_primitives(rel_path, lines, _raw):
    if _exempt(rel_path, ("common/thread_pool.h", "common/thread_pool.cc")):
        return
    for i, line in enumerate(lines, 1):
        m = THREAD_RE.search(line)
        if m:
            yield i, (f"std::{m.group(1)} outside common/thread_pool; "
                      "route parallelism through ThreadPool::Global()")


def rule_raw_new_delete(rel_path, lines, _raw):
    if _exempt(rel_path, ("core/interner.cc", "common/thread_pool.cc")):
        return
    for i, line in enumerate(lines, 1):
        if NEW_RE.search(line):
            prev = lines[i - 2] if i >= 2 else ""
            wrapped = "_ptr<" in line or "_ptr<" in prev
            leaked_singleton = "static" in line and "= new" in line
            if not wrapped and not leaked_singleton:
                yield i, ("raw `new`; wrap in a smart pointer on the same or "
                          "previous line, or use a `static ... = new` singleton")
        stripped_eq = EQ_DELETE_RE.sub(" ", line)
        if DELETE_RE.search(stripped_eq):
            yield i, "raw `delete`; owned memory must live behind RAII"


def rule_interner_mutation(rel_path, lines, _raw):
    if _exempt(rel_path, ("core/xset.cc", "core/builder.cc", "core/interner.cc")):
        return
    for i, line in enumerate(lines, 1):
        m = INTERNER_RE.search(line)
        if m:
            yield i, (f"direct interner mutation Interner::Global().{m.group(1)}() "
                      "outside the core builder layer; use an XSet factory")


def rule_sorted_members_dcheck(rel_path, lines, _raw):
    if _exempt(rel_path, ("core/xset.h", "core/xset.cc")):
        return
    for i, line in enumerate(lines, 1):
        if FROM_SORTED_RE.search(line):
            window = "\n".join(lines[max(0, i - 5):i])
            if not PAIRING_RE.search(window):
                yield i, ("FromSortedMembers call without a paired "
                          "XST_DCHECK(IsCanonicalMemberList(...)) in the "
                          "preceding 4 lines")


def rule_dcheck_side_effects(rel_path, lines, _raw):
    for i, line in enumerate(lines, 1):
        for m in DCHECK_RE.finditer(line):
            arg = extract_macro_args(lines, i - 1, m.start(1))
            if SIDE_EFFECT_RE.search(arg):
                yield i, ("side effect inside XST_DCHECK; the argument is "
                          "unevaluated under NDEBUG")


def rule_bare_mutex(rel_path, lines, _raw):
    if _exempt(rel_path, ("common/sync.h", "common/sync.cc")):
        return
    for i, line in enumerate(lines, 1):
        m = BARE_MUTEX_RE.search(line)
        if m:
            yield i, (f"bare std::{m.group(1)}; use xst::Mutex / MutexLock / "
                      "CondVar (src/common/sync.h) so the thread-safety "
                      "analysis sees the lock")


def rule_lock_across_parallelfor(rel_path, lines, _raw):
    # A lock declared at brace depth d stays alive until the depth drops
    # below d again.
    depth = 0
    live_locks = []  # (depth_declared, line_no)
    for i, line in enumerate(lines, 1):
        if SCOPED_LOCK_DECL_RE.search(line):
            live_locks.append((depth + line.count("{"), i))
        m = PARALLEL_CALL_RE.search(line)
        if m and live_locks:
            yield i, (f"{m.group(1)} reached with a lock held (acquired line "
                      f"{live_locks[-1][1]}); worker chunks that contend on it "
                      "deadlock the region — copy what you need, drop the "
                      "lock, then go parallel")
        depth += line.count("{") - line.count("}")
        live_locks = [(d, ln) for d, ln in live_locks if d <= depth]


OBS_ACCESS_RE = re.compile(r"^\s*(public|private|protected)\s*:")
OBS_SCOPE_OPEN_RE = re.compile(
    r"^\s*(?:template\s*<[^>]*>\s*)?(class|struct)\s+(?:alignas\s*\([^)]*\)\s*)?\w+")
OBS_NAMESPACE_RE = re.compile(r"^\s*(?:inline\s+)?namespace\b")
OBS_DECL_SKIP_RE = re.compile(
    r"^\s*(?:#|\}|if\b|for\b|while\b|switch\b|return\b|case\b|using\b|typedef\b|"
    r"XST_|static_assert\b)")
OBS_DEFAULTED_RE = re.compile(r"=\s*(delete|default)\s*;")


def rule_obs_doc_comments(rel_path, lines, raw):
    if not (rel_path.startswith("src/obs/") and rel_path.endswith(".h")):
        return
    # Scope tracking: a stack entry per open brace, tagged with what opened
    # it ("namespace", "class"/"struct" with a current access section, or
    # "other" for function bodies and initializers). Declarations count as
    # public API when every enclosing scope is a namespace or a public
    # class/struct region.
    stack = []
    prev_code = ""  # last non-blank stripped line before the current one
    for i, line in enumerate(lines, 1):
        code = line.rstrip()
        stripped = code.strip()
        m = OBS_ACCESS_RE.match(code)
        if m:
            for entry in reversed(stack):
                if entry[0] in ("class", "struct"):
                    entry[1] = m.group(1)
                    break
        opens = code.count("{")
        closes = code.count("}")
        public_here = all(
            e[0] == "namespace" or (e[0] in ("class", "struct") and e[1] == "public")
            for e in stack)
        starts_decl = prev_code == "" or prev_code[-1] in ";{}:"
        if (stripped and public_here and starts_decl and "(" in stripped
                and not OBS_DECL_SKIP_RE.match(stripped)
                and not OBS_DEFAULTED_RE.search(stripped)
                and not OBS_SCOPE_OPEN_RE.match(stripped)
                and not OBS_NAMESPACE_RE.match(stripped)):
            doc = raw[i - 2].strip() if i >= 2 else ""
            if not (doc.startswith("//") or doc.startswith("*") or doc.endswith("*/")):
                yield i, ("public function in an src/obs/ header without a "
                          "preceding doc comment")
        if opens > closes:
            if OBS_NAMESPACE_RE.match(stripped):
                kind = "namespace"
            else:
                sm = OBS_SCOPE_OPEN_RE.match(stripped)
                if sm:
                    kind = sm.group(1)
                else:
                    kind = "other"
            for _ in range(opens - closes):
                stack.append([kind, "private" if kind == "class" else "public"])
        elif closes > opens:
            for _ in range(closes - opens):
                if stack:
                    stack.pop()
        if stripped:
            prev_code = stripped
    return


OPCODE_ENUM_RE = re.compile(r"enum\s+class\s+OpCode\b[^{]*\{([^}]*)\}")
OPCODE_CASE_RE = re.compile(r"\bcase\s+OpCode::(k\w+)\s*:")
SWITCH_RE = re.compile(r"\bswitch\s*\(")
DEFAULT_CASE_RE = re.compile(r"\bdefault\s*:")


def _opcode_enumerators(text):
    m = OPCODE_ENUM_RE.search(text)
    if not m:
        return None
    return re.findall(r"\bk\w+\b", m.group(1))


def rule_vm_opcode_dispatch(rel_path, lines, _raw):
    text = "\n".join(lines)
    if "case OpCode::" not in text:
        return
    enumerators = _opcode_enumerators(text)
    if enumerators is None:
        # The catalog lives in compile.h; files dispatching on it (the VM,
        # tooling) are checked against the declaration on disk.
        catalog = os.path.join(REPO_ROOT, "src", "xsp", "compile.h")
        try:
            with open(catalog, encoding="utf-8") as fh:
                enumerators = _opcode_enumerators(
                    strip_comments_and_strings(fh.read()))
        except OSError:
            enumerators = None
    if not enumerators:
        return
    i = 0
    n = len(lines)
    while i < n:
        sw = SWITCH_RE.search(lines[i])
        if not sw:
            i += 1
            continue
        # Collect the switch's balanced-brace block (cases may span lines).
        depth = 0
        started = False
        block_parts = []
        j = i
        col = sw.end()
        while j < n:
            seg = lines[j][col if j == i else 0:]
            for c in seg:
                if c == "{":
                    depth += 1
                    started = True
                elif c == "}":
                    depth -= 1
            block_parts.append(seg)
            if started and depth <= 0:
                break
            j += 1
        block = "\n".join(block_parts)
        cases = OPCODE_CASE_RE.findall(block)
        if cases:
            missing = [e for e in enumerators if e not in cases]
            if missing:
                yield i + 1, ("OpCode dispatch is not exhaustive; missing "
                              "case(s): " + ", ".join(missing))
            if DEFAULT_CASE_RE.search(block):
                yield i + 1, ("OpCode dispatch must not use `default:`; "
                              "handle every enumerator so a new opcode "
                              "breaks every dispatch site instead of "
                              "falling through")
            i = j + 1
        else:
            i += 1
    return


# ---------------------------------------------------------------------------
# lock-order-cycle: build the static lock-acquisition graph and reject
# cycles. The edge extractor is textual (brace-depth state machine over the
# stripped lines); lint_paths also pools the edges of every scanned file, so
# a cycle split across translation units is caught.
# ---------------------------------------------------------------------------

LOCK_ACQ_RE = re.compile(r"\b(?:xst::)?MutexLock\s+\w+\s*\(\s*([^();]+)\)")
SIG_REQUIRES_RE = re.compile(r"\bXST_REQUIRES\s*\(([^)]*)\)")
SIG_ACQUIRE_RE = re.compile(r"\bXST_ACQUIRE\s*\(([^)]*)\)")
LOCK_CLASS_RE = re.compile(
    r"^\s*(?:template\s*<[^>]*>\s*)?(?:class|struct)\s+"
    r"(?:alignas\s*\([^)]*\)\s*)?(?:XST_\w+\s*\([^)]*\)\s*)?(\w+)")
LOCK_QUAL_RE = re.compile(r"\b(\w+)::~?\w+\s*\(")


def _lock_split_args(text):
    return [a for a in (part.strip() for part in text.split(",")) if a]


def _lock_identity(expr, cls, func_scope):
    """Canonical node name for a lock expression. Bare member/field names
    qualify by the enclosing class so `mu_` unifies across all methods of
    one class but never across classes; everything else (locals, compound
    paths like `shard.mu`) stays scoped to its function so unrelated
    same-named locks in different functions never alias."""
    e = expr.strip().lstrip("&").replace("this->", "").replace(" ", "")
    if not e:
        return None
    if cls and (re.fullmatch(r"\w+", e) or "." in e or "->" in e):
        return cls + "::" + e
    return func_scope + "::" + e


def collect_lock_edges(rel_path, lines):
    """Yields (holder, acquired, line_no) lock-acquisition edges from the
    stripped lines of one file. See the rule docstring for the edge kinds."""
    edges = []
    stem = rel_path.rsplit("/", 1)[-1]
    class_stack = []  # (name, open_depth)
    func = None       # dict: held / cls / scope / entry_depth / locks
    depth = 0
    sig_buf = ""
    in_pp = False
    for i, line in enumerate(lines, 1):
        # Preprocessor lines (and their continuations) are not scopes; a
        # multi-line macro body would otherwise corrupt the brace depth.
        if in_pp or line.lstrip().startswith("#"):
            in_pp = line.rstrip().endswith("\\")
            sig_buf = ""
            continue
        opens = line.count("{")
        closes = line.count("}")
        if func is None:
            boundary = ";" in line or opens or closes
            sig = (sig_buf + " " + line).strip()
            class_m = LOCK_CLASS_RE.match(sig)
            if class_m and opens:
                class_stack.append((class_m.group(1), depth))
            elif boundary and "(" in sig:
                req = SIG_REQUIRES_RE.search(sig)
                acq = SIG_ACQUIRE_RE.search(sig)
                cls = next((m.group(1) for m in LOCK_QUAL_RE.finditer(sig)
                            if m.group(1) not in ("std", "xst")), None)
                if cls is None and class_stack:
                    cls = class_stack[-1][0]
                scope = f"{stem}:{i}"
                if req and acq:
                    # Annotation-only seam: the body (wherever it is) takes
                    # B while the caller already holds A.
                    for h in _lock_split_args(req.group(1)):
                        for a in _lock_split_args(acq.group(1)):
                            hid = _lock_identity(h, cls, scope)
                            aid = _lock_identity(a, cls, scope)
                            if hid and aid:
                                edges.append((hid, aid, i))
                if opens and ";" not in line.split("{", 1)[0]:
                    held = []
                    if req:
                        held = [h for h in
                                (_lock_identity(x, cls, scope)
                                 for x in _lock_split_args(req.group(1))) if h]
                    func = {"held": held, "cls": cls, "scope": scope,
                            "entry_depth": depth, "locks": []}
            if boundary:
                sig_buf = ""
            else:
                sig_buf = sig
        if func is not None:
            for m in LOCK_ACQ_RE.finditer(line):
                prefix = line[:m.start()]
                at_depth = depth + prefix.count("{") - prefix.count("}")
                acquired = _lock_identity(m.group(1), func["cls"], func["scope"])
                if acquired is None:
                    continue
                for holder in func["held"] + [lid for lid, _ in func["locks"]]:
                    edges.append((holder, acquired, i))
                func["locks"].append((acquired, at_depth))
        depth += opens - closes
        if depth < 0:
            depth = 0
        while class_stack and depth <= class_stack[-1][1]:
            class_stack.pop()
        if func is not None:
            func["locks"] = [(lid, d) for lid, d in func["locks"] if depth >= d]
            if depth <= func["entry_depth"]:
                func = None
    return edges


def lock_cycle_findings(edges):
    """Yields (site, message) for every edge on a lock-order cycle. `site`
    is whatever third element the edges carry (a line number in the
    per-file rule; a (path, line) pair in lint_paths' tree-wide pass)."""
    graph = {}
    for holder, acquired, _site in edges:
        graph.setdefault(holder, set()).add(acquired)

    def reaches(src, dst):
        seen = set()
        stack = [src]
        while stack:
            node = stack.pop()
            if node == dst:
                return True
            if node in seen:
                continue
            seen.add(node)
            stack.extend(graph.get(node, ()))
        return False

    emitted = set()
    for holder, acquired, site in edges:
        if holder == acquired:
            message = (f"lock-order cycle: '{acquired}' acquired while "
                       "already held (self-deadlock)")
        elif reaches(acquired, holder):
            message = (f"lock-order cycle: acquires '{acquired}' while "
                       f"holding '{holder}', but '{holder}' is also "
                       f"(transitively) acquired while '{acquired}' is held; "
                       "establish a single lock order")
        else:
            continue
        if (site, message) not in emitted:
            emitted.add((site, message))
            yield site, message


def rule_lock_order_cycle(rel_path, lines, _raw):
    yield from lock_cycle_findings(collect_lock_edges(rel_path, lines))


# ---------------------------------------------------------------------------
# locksmith: the concurrency-protocol rules (lock-rank, blocking-under-latch,
# guarded-field-inference). One textual collector builds a ConcurrencyModel —
# ranked locks, XST_BLOCKING declarations, guarded/unguarded fields, and per-
# function acquisition/call/write sites with the locks held at each — and one
# checker walks it.
# ---------------------------------------------------------------------------

# Locks with rank >= this floor are latch-class: blocking calls under them
# are findings. SetStore::mu_ (rank 10) sits below the floor on purpose —
# the single-writer store lock legally covers WAL waits and file I/O.
LATCH_FLOOR = 20

RANK_DECL_RE = re.compile(
    r"\b(?:xst::)?Mutex\s+(\w+)\s+XST_LOCK_RANK\s*\(\s*(\d+)\s*\)")
BLOCKING_DECL_RE = re.compile(r"\bXST_BLOCKING\s+(\w+)\s*\(")
GUARDED_FIELD_RE = re.compile(r"\b(\w+)\s+XST_(?:PT_)?GUARDED_BY\s*\(")
# Trailing-underscore members only (the project's field naming convention);
# declarations are matched after XST_* annotation groups are stripped, and
# any remaining paren (function declarations, paren-init) disqualifies.
FIELD_DECL_RE = re.compile(
    r"^\s*(?:mutable\s+|static\s+|constexpr\s+)*"
    r"[A-Za-z_][\w:<>,\s*&]*[\s*&](\w+_)\s*(?:=[^;]*|\{[^;]*\})?;")
FIELD_WRITE_RE = re.compile(
    r"(?<![\w.])(\w+_)\s*(?:=(?!=)|\+=|-=|\*=|/=|%=|&=|\|=|\^=|<<=|>>=|\+\+|--)"
    r"|(?:\+\+|--)\s*(\w+_)\b")
# The sharded pager's scoped latch guard takes a PagerShard's latch in its
# constructor, so a textual guard declaration is a latch acquisition.
GUARD_ACQ_RE = re.compile(r"\b(?:internal::)?ShardLatchLock\s+\w+\s*[({]")
SHARD_LATCH_IDENTITY = "PagerShard::latch"
CALL_RE = re.compile(r"\b(\w+)\s*\(")
# Identifier-before-( matches that are never function calls of interest.
NOT_CALL_NAMES = frozenset((
    "if", "for", "while", "switch", "return", "sizeof", "catch", "new",
    "delete", "alignas", "alignof", "decltype", "noexcept", "throw",
    "static_cast", "const_cast", "reinterpret_cast", "dynamic_cast",
    "static_assert", "assert", "defined", "operator", "void", "int", "bool",
    "char", "auto", "unsigned", "signed", "long", "short", "float", "double",
    "size_t", "uint8_t", "uint16_t", "uint32_t", "uint64_t", "int8_t",
    "int16_t", "int32_t", "int64_t"))
# Blocking points recognized by method-call shape (`x.Name(` / `x->Name(`).
# The XST_BLOCKING annotations on File/Wal/CondVar declarations add the same
# names when those headers are in the scanned set; the built-in registry
# keeps single-file scans and fixtures honest without them.
BLOCKING_REGISTRY = frozenset((
    "ReadAt", "WriteAt", "Size", "Flush", "Truncate",
    "WaitDurable", "FlushAll", "Wait", "ParallelFor", "ParallelCollect"))
# Parallel regions block whether called as a method or a free function.
PARALLEL_REGIONS = frozenset(("ParallelFor", "ParallelCollect"))


class ConcurrencyModel:
    """Everything the locksmith rules need, aggregated over 1..N files."""

    def __init__(self):
        self.ranks = {}        # lock identity -> (rank, (path, line))
        self.rank_names = {}   # bare lock name -> set of declared ranks
        self.fields = {}       # (class, field) -> {"site", "guarded"}
        self.blocking_names = set()  # names declared XST_BLOCKING
        self.functions = []    # per-function dicts, see _collect_file


def _fn_name_from_sig(sig):
    """The declared function name in a signature line: the first
    identifier-before-( that is not a keyword or builtin type."""
    stripped = re.sub(r"\bXST_\w+\s*\((?:[^()]|\([^()]*\))*\)", " ", sig)
    for m in CALL_RE.finditer(stripped):
        if m.group(1) not in NOT_CALL_NAMES:
            return m.group(1)
    return None


def _rank_identity(name, cls_ctx, func, stem, line_no):
    """Identity for a ranked-lock declaration, chosen to unify with what
    _lock_identity produces at that lock's acquisition sites."""
    if func is not None:
        return _lock_identity(name, func["cls"], func["scope"])
    if cls_ctx:
        return cls_ctx + "::" + name
    return f"{stem}:{line_no}::{name}"


def collect_concurrency_model(files, model=None):
    """Builds (or extends) a ConcurrencyModel from [(rel_path, stripped_lines)]."""
    if model is None:
        model = ConcurrencyModel()
    for rel_path, lines in files:
        _collect_file(model, rel_path, lines)
    return model


def _collect_file(model, rel_path, lines):
    stem = rel_path.rsplit("/", 1)[-1]
    class_stack = []  # (name, open_depth)
    func = None       # dict, see below
    depth = 0
    sig_buf = ""
    in_pp = False
    for i, line in enumerate(lines, 1):
        if in_pp or line.lstrip().startswith("#"):
            in_pp = line.rstrip().endswith("\\")
            sig_buf = ""
            continue
        opens = line.count("{")
        closes = line.count("}")
        cls_ctx = class_stack[-1][0] if class_stack else None

        # Declarations: ranks, blocking annotations, fields. Visible at any
        # scope — ranked locks may be class members, namespace globals, or
        # function-local merge mutexes.
        for m in RANK_DECL_RE.finditer(line):
            name, rank = m.group(1), int(m.group(2))
            ident = _rank_identity(name, cls_ctx, func, stem, i)
            if ident:
                model.ranks.setdefault(ident, (rank, (rel_path, i)))
            model.rank_names.setdefault(name, set()).add(rank)
        for m in BLOCKING_DECL_RE.finditer(line):
            model.blocking_names.add(m.group(1))
        if cls_ctx and func is None and ";" in line:
            decl = re.sub(r"\bXST_\w+\s*\((?:[^()]|\([^()]*\))*\)", " ", line)
            fm = FIELD_DECL_RE.match(decl)
            if (fm and "(" not in decl
                    and not re.search(r"\b(?:atomic|Mutex|CondVar|const)\b", line)):
                gm = GUARDED_FIELD_RE.search(line)
                model.fields.setdefault(
                    (cls_ctx, fm.group(1)),
                    {"site": (rel_path, i),
                     "guarded": bool(gm and gm.group(1) == fm.group(1))})

        # Function boundary tracking (same discipline as collect_lock_edges).
        if func is None:
            boundary = ";" in line or opens or closes
            sig = (sig_buf + " " + line).strip()
            class_m = LOCK_CLASS_RE.match(sig)
            if class_m and opens:
                class_stack.append((class_m.group(1), depth))
            elif boundary and "(" in sig and opens and ";" not in line.split("{", 1)[0]:
                req = SIG_REQUIRES_RE.search(sig)
                cls = next((m.group(1) for m in LOCK_QUAL_RE.finditer(sig)
                            if m.group(1) not in ("std", "xst")), None)
                if cls is None and class_stack:
                    cls = class_stack[-1][0]
                scope = f"{stem}:{i}"
                held = []
                if req:
                    held = [h for h in
                            (_lock_identity(x, cls, scope)
                             for x in _lock_split_args(req.group(1))
                             if not x.strip().startswith("!")) if h]
                name = _fn_name_from_sig(sig)
                if name:
                    func = {"name": name, "cls": cls, "scope": scope,
                            "site": (rel_path, i), "entry_held": held,
                            "entry_depth": depth, "locks": [],
                            "acquisitions": [], "calls": [], "writes": []}
                    model.functions.append(func)
            if boundary:
                sig_buf = ""
            else:
                sig_buf = sig
        if func is not None:
            active = [lid for lid, _ in func["locks"]]
            held_now = func["entry_held"] + active
            # On a one-line definition the signature shares the line with the
            # body; text before the opening brace (the function's own name,
            # default arguments) is not body code.
            body_col = (line.find("{") + 1
                        if func["site"] == (rel_path, i) else 0)
            for m in LOCK_ACQ_RE.finditer(line):
                prefix = line[:m.start()]
                at_depth = depth + prefix.count("{") - prefix.count("}")
                acquired = _lock_identity(m.group(1), func["cls"], func["scope"])
                if acquired is None:
                    continue
                func["acquisitions"].append((acquired, (rel_path, i),
                                             list(held_now)))
                func["locks"].append((acquired, at_depth))
                held_now = held_now + [acquired]
            for m in GUARD_ACQ_RE.finditer(line):
                prefix = line[:m.start()]
                at_depth = depth + prefix.count("{") - prefix.count("}")
                func["acquisitions"].append((SHARD_LATCH_IDENTITY, (rel_path, i),
                                             list(held_now)))
                func["locks"].append((SHARD_LATCH_IDENTITY, at_depth))
                held_now = held_now + [SHARD_LATCH_IDENTITY]
            for m in CALL_RE.finditer(line):
                if m.start() < body_col:
                    continue
                name = m.group(1)
                if name in NOT_CALL_NAMES or name.startswith("XST_"):
                    continue
                prefix = line[:m.start()].rstrip()
                if prefix.endswith(".") or prefix.endswith("->"):
                    receiver = "this" if prefix.endswith("this->") else "other"
                elif prefix.endswith("::"):
                    qm = re.search(r"(\w+)\s*::$", prefix)
                    receiver = "::" + qm.group(1) if qm else "other"
                else:
                    receiver = ""
                func["calls"].append((name, receiver, (rel_path, i),
                                      list(held_now)))
            if held_now and func["cls"]:
                for m in FIELD_WRITE_RE.finditer(line):
                    if m.start() < body_col:
                        continue
                    field = m.group(1) or m.group(2)
                    prefix = line[:m.start()].rstrip()
                    if ((prefix.endswith(".") or prefix.endswith("->"))
                            and not prefix.endswith("this->")):
                        continue  # a write through some other object
                    func["writes"].append((field, (rel_path, i), list(held_now)))
        depth += opens - closes
        if depth < 0:
            depth = 0
        while class_stack and depth <= class_stack[-1][1]:
            class_stack.pop()
        if func is not None:
            func["locks"] = [(lid, d) for lid, d in func["locks"] if depth >= d]
            if depth <= func["entry_depth"]:
                func = None


def concurrency_findings(model):
    """Yields (rule, (path, line), message) over a ConcurrencyModel."""
    def rank_of(ident):
        info = model.ranks.get(ident)
        if info is not None:
            return info[0]
        # Compound expressions the textual engine cannot type (`shard.latch`,
        # `impl_->pool_mu`) resolve by their final component when that name
        # has exactly one declared rank tree-wide.
        m = re.search(r"(\w+)$", ident)
        if m:
            ranks = model.rank_names.get(m.group(1))
            if ranks is not None and len(ranks) == 1:
                return next(iter(ranks))
        return None

    def best_held(ids, base=(-1, None)):
        best = base
        for h in ids:
            r = rank_of(h)
            if r is not None and r > best[0]:
                best = (r, h)
        return best

    by_name = {}
    for f in model.functions:
        by_name.setdefault(f["name"], []).append(f)

    # Interprocedural held-set propagation: the highest-ranked lock held at a
    # call site flows into the callee's entry ceiling, to a fixed point. Only
    # unambiguous callee names propagate — a name declared by two unrelated
    # functions would otherwise smear one caller's locks over the other's
    # callees (Get on the store vs Get on the catalog).
    entry = {id(f): best_held(f["entry_held"]) for f in model.functions}
    for _ in range(len(model.functions) + 1):
        changed = False
        for f in model.functions:
            base = entry[id(f)]
            for name, receiver, _site, held in f["calls"]:
                if receiver == "other":
                    # A member call through another object: the callee locks
                    # that instance's mutexes, not this one's — propagating
                    # our held set would fabricate self-deadlocks (Compact
                    # holding mu_ while driving fresh->Put on a sibling).
                    continue
                targets = by_name.get(name)
                if not targets or len({t["site"] for t in targets}) > 1:
                    continue
                target = targets[0]
                # The receiver must be consistent with the target's class,
                # or the single in-scope definition of a popular name would
                # capture every other class's call (MetricsRegistry::Global
                # misbound to Interner::Global).
                if receiver == "this":
                    if target["cls"] != f["cls"]:
                        continue
                elif receiver.startswith("::"):
                    # Qualified call: the qualifier must be the target's
                    # class; a None-class target is a namespace-qualified
                    # free function and stays eligible.
                    if target["cls"] is not None and target["cls"] != receiver[2:]:
                        continue
                elif target["cls"] is not None and target["cls"] != f["cls"]:
                    continue  # bare call cannot reach another class's method
                site_best = best_held(held, base)
                for t in targets:
                    if site_best[0] > entry[id(t)][0]:
                        entry[id(t)] = site_best
                        changed = True
        if not changed:
            break

    for f in model.functions:
        for ident, site, held in f["acquisitions"]:
            r = rank_of(ident)
            if r is None:
                continue
            hrank, hname = best_held(held, entry[id(f)])
            if hname is not None and r <= hrank:
                yield ("lock-rank", site,
                       f"acquires '{ident}' (rank {r}) while '{hname}' "
                       f"(rank {hrank}) is held; lock ranks must strictly "
                       "increase along every acquisition path")
        for name, receiver, site, held in f["calls"]:
            blocking = (name in model.blocking_names
                        or (receiver and name in BLOCKING_REGISTRY)
                        or name in PARALLEL_REGIONS)
            if not blocking:
                continue
            if name == "Wait":
                # CondVar::Wait releases the lock it is passed — the
                # innermost one held — while blocked; with none held
                # locally, the (single) entry lock is the one released.
                if held:
                    hrank, hname = best_held(held[:-1], entry[id(f)])
                else:
                    hrank, hname = (-1, None)
            else:
                hrank, hname = best_held(held, entry[id(f)])
            if hname is not None and hrank >= LATCH_FLOOR:
                yield ("blocking-under-latch", site,
                       f"blocking call '{name}' reached while '{hname}' "
                       f"(rank {hrank} >= latch floor {LATCH_FLOOR}) is held; "
                       "latch-class locks must never cover blocking points")

    flagged = set()
    for f in model.functions:
        for field, site, held in f["writes"]:
            info = model.fields.get((f["cls"], field))
            if info is None or info["guarded"] or (f["cls"], field) in flagged:
                continue
            flagged.add((f["cls"], field))
            yield ("guarded-field-inference", info["site"],
                   f"field '{f['cls']}::{field}' is written at "
                   f"{site[0]}:{site[1]} with '{held[-1]}' held but carries "
                   "no XST_GUARDED_BY; annotate the invariant (or mark the "
                   "declaration if the locking is coincidental)")


def _concurrency_rule(rule_name):
    def rule(rel_path, lines, _raw):
        model = collect_concurrency_model([(rel_path, lines)])
        for rule_id, (_path, line_no), message in concurrency_findings(model):
            if rule_id == rule_name:
                yield line_no, message
    return rule


rule_lock_rank = _concurrency_rule("lock-rank")
rule_blocking_under_latch = _concurrency_rule("blocking-under-latch")
rule_guarded_field_inference = _concurrency_rule("guarded-field-inference")


RULES = {
    "thread-primitives": rule_thread_primitives,
    "raw-new-delete": rule_raw_new_delete,
    "interner-mutation": rule_interner_mutation,
    "sorted-members-dcheck": rule_sorted_members_dcheck,
    "dcheck-side-effects": rule_dcheck_side_effects,
    "bare-mutex": rule_bare_mutex,
    "lock-across-parallelfor": rule_lock_across_parallelfor,
    "obs-doc-comments": rule_obs_doc_comments,
    "vm-opcode-dispatch": rule_vm_opcode_dispatch,
    "lock-order-cycle": rule_lock_order_cycle,
    "lock-rank": rule_lock_rank,
    "blocking-under-latch": rule_blocking_under_latch,
    "guarded-field-inference": rule_guarded_field_inference,
}

ALLOW_RE = re.compile(r"xst-lint:\s*allow\(([a-z-]+)\)")


def _allowed(raw_lines, line_no, rule_name):
    raw_line = raw_lines[line_no - 1] if line_no <= len(raw_lines) else ""
    allow = ALLOW_RE.search(raw_line)
    return bool(allow and allow.group(1) == rule_name)


def lint_text(rel_path, raw_text):
    stripped = strip_comments_and_strings(raw_text)
    lines = stripped.split("\n")
    raw_lines = raw_text.split("\n")
    findings = []
    for rule_name, rule_fn in RULES.items():
        for line_no, message in rule_fn(rel_path, lines, raw_lines):
            if not _allowed(raw_lines, line_no, rule_name):
                findings.append(Finding(rel_path, line_no, rule_name, message))
    return findings


def lint_paths(paths):
    findings = []
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
            print(f"xst-lint: no such path: {path}", file=sys.stderr)
            return None, 0
    stripped_by_rel = {}
    raw_by_rel = {}
    for f in sorted(files):
        rel = os.path.relpath(f, REPO_ROOT).replace(os.sep, "/")
        with open(f, encoding="utf-8") as fh:
            text = fh.read()
        raw_by_rel[rel] = text.split("\n")
        stripped_by_rel[rel] = strip_comments_and_strings(text).split("\n")
        findings.extend(lint_text(rel, text))
    # Whole-tree pass: the lock graph and the concurrency rules see every
    # file at once, so cross-file facts (a lock-order cycle split across
    # TUs, ranks in headers, fields vs. their .cc writes, held sets flowing
    # through calls into another TU) land as findings the per-file pass
    # could not derive.
    if len(stripped_by_rel) > 1:
        by_rel = sorted(stripped_by_rel.items())
        edges = [(holder, acquired, (rel, line_no))
                 for rel, lines in by_rel
                 for holder, acquired, line_no in collect_lock_edges(rel, lines)]
        tree_wide = [("lock-order-cycle", site, message)
                     for site, message in lock_cycle_findings(edges)]
        tree_wide += concurrency_findings(collect_concurrency_model(by_rel))
        reported = {(x.path, x.line, x.rule) for x in findings}
        for rule_id, (rel, line_no), message in tree_wide:
            if ((rel, line_no, rule_id) in reported
                    or _allowed(raw_by_rel[rel], line_no, rule_id)):
                continue
            findings.append(Finding(rel, line_no, rule_id, message))
    return findings, len(files)


# ---------------------------------------------------------------------------
# Self-test: each fixture is (rule, expect_hit, code). Fixture paths are
# chosen to avoid every path-based exemption.
# ---------------------------------------------------------------------------

SELF_TEST_FIXTURES = [
    ("thread-primitives", True, "std::thread t([] {});\n"),
    ("thread-primitives", True, "auto f = std::async(work);\n"),
    ("thread-primitives", False, "// std::thread is banned here\n"),
    ("thread-primitives", False, "std::thread::id owner = std::this_thread::get_id();\n"),
    ("thread-primitives", False, "ThreadPool::Global().ParallelFor(n, 1, body);\n"),
    ("thread-primitives", False, "std::thread t;\n", "src/common/thread_pool.cc"),
    ("thread-primitives", False,
     "std::thread t([] {});  // xst-lint: allow(thread-primitives)\n"),
    ("raw-new-delete", True, "auto* n = new Node();\n"),
    ("raw-new-delete", True, "delete node;\n"),
    ("raw-new-delete", False, "auto p = std::unique_ptr<Node>(new Node());\n"),
    ("raw-new-delete", False, "auto p = std::unique_ptr<Node>(\n    new Node());\n"),
    ("raw-new-delete", False, "static Pool* pool = new Pool();\n"),
    ("raw-new-delete", False, "Pool(const Pool&) = delete;\n"),
    ("raw-new-delete", False, "// a new idea, delete nothing\n"),
    ("interner-mutation", True, "auto* n = Interner::Global().Int(7);\n"),
    ("interner-mutation", True, "Interner::Global().Set(std::move(ms));\n"),
    ("interner-mutation", False, "Interner::Global().EmptySet();\n"),
    ("interner-mutation", False, "auto snap = Interner::Global().SnapshotNodes();\n"),
    ("interner-mutation", False, "Interner::Global().Int(7);\n", "src/core/xset.cc"),
    ("sorted-members-dcheck", True, "return XSet::FromSortedMembers(std::move(out));\n"),
    ("sorted-members-dcheck", False,
     "XST_DCHECK(IsCanonicalMemberList(out));\n"
     "return XSet::FromSortedMembers(std::move(out));\n"),
    ("sorted-members-dcheck", False,
     "XST_DCHECK(IsCanonicalMemberList(kept));\n"
     "// canonical by construction\n"
     "return Make(s, XST_VALIDATE(XSet::FromSortedMembers(std::move(kept))));\n"),
    ("dcheck-side-effects", True, "XST_DCHECK(++calls > 0);\n"),
    ("dcheck-side-effects", True, "XST_DCHECK(x = Compute());\n"),
    ("dcheck-side-effects", False, "XST_DCHECK(x == Compute());\n"),
    ("dcheck-side-effects", False, "XST_DCHECK(a <= b && b >= c && a != c);\n"),
    ("dcheck-side-effects", False,
     "XST_DCHECK(IsCanonicalMemberList(\n    out));\n"),
    ("thread-primitives", True,
     "int x = 0;  // xst-lint: allow(raw-new-delete)\nstd::thread t;\n"),
    ("raw-new-delete", False,
     "auto* n = new Node();  // xst-lint: allow(raw-new-delete)\n"),
    ("bare-mutex", True, "std::mutex mu;\n"),
    ("bare-mutex", True, "std::lock_guard<std::mutex> lock(mu);\n"),
    ("bare-mutex", True, "std::condition_variable cv;\n"),
    ("bare-mutex", False, "xst::Mutex mu;\nMutexLock lock(&mu);\n"),
    ("bare-mutex", False, "// std::mutex is banned outside sync.h\n"),
    ("bare-mutex", False, "std::mutex mu_;\n", "src/common/sync.h"),
    ("bare-mutex", False, "std::mutex mu;  // xst-lint: allow(bare-mutex)\n"),
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
    # obs-doc-comments fixtures carry an explicit path: the rule only
    # applies under src/obs/*.h.
    ("obs-doc-comments", True,
     "uint64_t MonotonicNowNs();\n", "src/obs/trace.h"),
    ("obs-doc-comments", False,
     "/// \\brief Monotonic wall clock in nanoseconds.\n"
     "uint64_t MonotonicNowNs();\n", "src/obs/trace.h"),
    ("obs-doc-comments", True,
     "class Counter {\n"
     " public:\n"
     "  void Add(uint64_t n);\n"
     "};\n", "src/obs/metrics.h"),
    ("obs-doc-comments", False,
     "class Counter {\n"
     " public:\n"
     "  /// \\brief Adds n.\n"
     "  void Add(uint64_t n);\n"
     "};\n", "src/obs/metrics.h"),
    ("obs-doc-comments", False,
     "class Counter {\n"
     "  void Helper();\n"
     "};\n", "src/obs/metrics.h"),
    ("obs-doc-comments", False,
     "class Counter {\n"
     " public:\n"
     "  Counter(const Counter&) = delete;\n"
     "};\n", "src/obs/metrics.h"),
    ("obs-doc-comments", False,
     "uint64_t MonotonicNowNs();\n", "src/xsp/eval.h"),
    # vm-opcode-dispatch fixtures declare their own (small) OpCode enum so
    # the self-test never depends on the on-disk catalog.
    ("vm-opcode-dispatch", True,
     "enum class OpCode : uint8_t { kAdd, kSub };\n"
     "void Run(OpCode op) {\n"
     "  switch (op) {\n"
     "    case OpCode::kAdd:\n"
     "      break;\n"
     "  }\n"
     "}\n"),
    ("vm-opcode-dispatch", True,
     "enum class OpCode { kAdd };\n"
     "switch (op) {\n"
     "  case OpCode::kAdd: break;\n"
     "  default: break;\n"
     "}\n"),
    ("vm-opcode-dispatch", False,
     "enum class OpCode { kAdd, kSub };\n"
     "switch (op) {\n"
     "  case OpCode::kAdd: break;\n"
     "  case OpCode::kSub: break;\n"
     "}\n"),
    ("vm-opcode-dispatch", False,
     "enum class OpCode { kAdd, kSub };\n"
     "switch (op) {\n"
     "  case OpCode::kAdd:\n"
     "  case OpCode::kSub:\n"
     "    break;\n"
     "}\n"
     "switch (kind) {\n"
     "  case ExprKind::kUnion: break;\n"
     "  default: break;\n"
     "}\n"),
    ("vm-opcode-dispatch", False,
     "switch (kind) { case ExprKind::kUnion: break; default: break; }\n"),
    ("vm-opcode-dispatch", False,
     "enum class OpCode { kAdd };\n"
     "switch (op) {  // xst-lint: allow(vm-opcode-dispatch)\n"
     "  case OpCode::kAdd: break;\n"
     "  default: break;\n"
     "}\n"),
    # lock-order-cycle: two methods of one class taking the two member locks
    # in opposite orders is the canonical deadlock.
    ("lock-order-cycle", True,
     "class S {\n"
     "  void F() XST_REQUIRES(a_) { MutexLock l(&b_); }\n"
     "  void G() XST_REQUIRES(b_) { MutexLock l(&a_); }\n"
     "  Mutex a_;\n"
     "  Mutex b_;\n"
     "};\n"),
    # Same two locks, consistent order everywhere: fine.
    ("lock-order-cycle", False,
     "class S {\n"
     "  void F() XST_REQUIRES(a_) { MutexLock l(&b_); }\n"
     "  void G() XST_REQUIRES(a_) { MutexLock l(&b_); }\n"
     "  Mutex a_;\n"
     "  Mutex b_;\n"
     "};\n"),
    # Self-deadlock: nested scoped locks on the same (non-reentrant) mutex.
    ("lock-order-cycle", True,
     "void F() {\n"
     "  MutexLock outer(&mu_);\n"
     "  MutexLock inner(&mu_);\n"
     "}\n"),
    # Sequential scopes never overlap, so no edge and no cycle.
    ("lock-order-cycle", False,
     "void F() {\n"
     "  { MutexLock l(&a_); }\n"
     "  { MutexLock l(&b_); }\n"
     "}\n"),
    # Nested different locks in one direction only: an edge, not a cycle.
    ("lock-order-cycle", False,
     "void F() {\n"
     "  MutexLock outer(&a_);\n"
     "  MutexLock inner(&b_);\n"
     "}\n"),
    # Out-of-line definitions qualify member locks by class, so the cycle
    # is still visible when the bodies live in a .cc file.
    ("lock-order-cycle", True,
     "void Store::Load() XST_REQUIRES(mu_) { MutexLock l(&shard_mu_); }\n"
     "void Store::Evict() XST_REQUIRES(shard_mu_) { MutexLock l(&mu_); }\n"),
    # Two different classes each with a lock named mu_ must not alias.
    ("lock-order-cycle", False,
     "void A::F() XST_REQUIRES(mu_) { MutexLock l(&other_); }\n"
     "void B::G() XST_REQUIRES(other_) { MutexLock l(&mu_); }\n"),
    # Annotation-only seam: REQUIRES + ACQUIRE on declarations.
    ("lock-order-cycle", True,
     "class S {\n"
     "  void F() XST_REQUIRES(a_) XST_ACQUIRE(b_);\n"
     "  void G() XST_REQUIRES(b_) XST_ACQUIRE(a_);\n"
     "  Mutex a_;\n"
     "  Mutex b_;\n"
     "};\n"),
    ("lock-order-cycle", False,
     "void F() {\n"
     "  MutexLock outer(&mu_);\n"
     "  MutexLock inner(&mu_);  // xst-lint: allow(lock-order-cycle)\n"
     "}\n"),
    # lock-rank: descending rank order inside one function.
    ("lock-rank", True,
     "class S {\n"
     "  void F() {\n"
     "    MutexLock outer(&hi_);\n"
     "    MutexLock inner(&lo_);\n"
     "  }\n"
     "  Mutex hi_ XST_LOCK_RANK(30);\n"
     "  Mutex lo_ XST_LOCK_RANK(10);\n"
     "};\n"),
    # Equal ranks are not strictly increasing either.
    ("lock-rank", True,
     "class S {\n"
     "  void F() XST_REQUIRES(a_) { MutexLock l(&b_); }\n"
     "  Mutex a_ XST_LOCK_RANK(20);\n"
     "  Mutex b_ XST_LOCK_RANK(20);\n"
     "};\n"),
    # Ascending order is the protocol working as intended.
    ("lock-rank", False,
     "class S {\n"
     "  void F() {\n"
     "    MutexLock outer(&lo_);\n"
     "    MutexLock inner(&hi_);\n"
     "  }\n"
     "  Mutex lo_ XST_LOCK_RANK(10);\n"
     "  Mutex hi_ XST_LOCK_RANK(30);\n"
     "};\n"),
    # Interprocedural: the caller's held lock flows into the callee.
    ("lock-rank", True,
     "class S {\n"
     "  void F() {\n"
     "    MutexLock l(&hi_);\n"
     "    Helper();\n"
     "  }\n"
     "  void Helper() { MutexLock l(&lo_); }\n"
     "  Mutex hi_ XST_LOCK_RANK(30);\n"
     "  Mutex lo_ XST_LOCK_RANK(10);\n"
     "};\n"),
    # Interprocedural from an XST_REQUIRES entry set.
    ("lock-rank", True,
     "class S {\n"
     "  void F() XST_REQUIRES(hi_) { Helper(); }\n"
     "  void Helper() { MutexLock l(&lo_); }\n"
     "  Mutex hi_ XST_LOCK_RANK(30);\n"
     "  Mutex lo_ XST_LOCK_RANK(10);\n"
     "};\n"),
    # Interprocedural through this->: same instance, still propagates.
    ("lock-rank", True,
     "class S {\n"
     "  void F() {\n"
     "    MutexLock l(&hi_);\n"
     "    this->Helper();\n"
     "  }\n"
     "  void Helper() { MutexLock l(&lo_); }\n"
     "  Mutex hi_ XST_LOCK_RANK(30);\n"
     "  Mutex lo_ XST_LOCK_RANK(10);\n"
     "};\n"),
    # A member call through another object locks that instance's mutexes,
    # not ours: no self-deadlock when a sibling re-enters the same method.
    ("lock-rank", False,
     "class S {\n"
     "  void F() {\n"
     "    MutexLock l(&mu_);\n"
     "    sibling_->Helper();\n"
     "  }\n"
     "  void Helper() { MutexLock l(&mu_); }\n"
     "  Mutex mu_ XST_LOCK_RANK(10);\n"
     "};\n"),
    # Unranked locks do not participate.
    ("lock-rank", False,
     "class S {\n"
     "  void F() {\n"
     "    MutexLock outer(&hi_);\n"
     "    MutexLock inner(&plain_);\n"
     "  }\n"
     "  Mutex hi_ XST_LOCK_RANK(30);\n"
     "  Mutex plain_;\n"
     "};\n"),
    ("lock-rank", False,
     "class S {\n"
     "  void F() XST_REQUIRES(hi_) {\n"
     "    MutexLock l(&lo_);  // xst-lint: allow(lock-rank)\n"
     "  }\n"
     "  Mutex hi_ XST_LOCK_RANK(30);\n"
     "  Mutex lo_ XST_LOCK_RANK(10);\n"
     "};\n"),
    # blocking-under-latch: file I/O while a latch-class (rank >= 20) lock
    # is held.
    ("blocking-under-latch", True,
     "class C {\n"
     "  void F() {\n"
     "    MutexLock l(&latch_);\n"
     "    file_->ReadAt(0, buf, 8);\n"
     "  }\n"
     "  Mutex latch_ XST_LOCK_RANK(20);\n"
     "};\n"),
    # Below the floor the same I/O is legal (the store's outer lock).
    ("blocking-under-latch", False,
     "class C {\n"
     "  void F() {\n"
     "    MutexLock l(&store_mu_);\n"
     "    file_->ReadAt(0, buf, 8);\n"
     "  }\n"
     "  Mutex store_mu_ XST_LOCK_RANK(10);\n"
     "};\n"),
    # XST_BLOCKING-declared functions join the registry, bare calls included.
    ("blocking-under-latch", True,
     "Status XST_BLOCKING Stall();\n"
     "class C {\n"
     "  void F() {\n"
     "    MutexLock l(&latch_);\n"
     "    Stall();\n"
     "  }\n"
     "  Mutex latch_ XST_LOCK_RANK(20);\n"
     "};\n"),
    # Interprocedural: the latch is held by the caller, the I/O happens in
    # the callee.
    ("blocking-under-latch", True,
     "class C {\n"
     "  void F() {\n"
     "    MutexLock l(&latch_);\n"
     "    Helper();\n"
     "  }\n"
     "  void Helper() { file_->WriteAt(0, buf, 8); }\n"
     "  Mutex latch_ XST_LOCK_RANK(20);\n"
     "};\n"),
    # A parallel region waits for its chunks, free-function call included.
    ("blocking-under-latch", True,
     "class C {\n"
     "  void F() {\n"
     "    MutexLock l(&latch_);\n"
     "    auto rest = ParallelCollect(n, 1024, &out, body);\n"
     "  }\n"
     "  Mutex latch_ XST_LOCK_RANK(20);\n"
     "};\n"),
    # CondVar::Wait releases the innermost lock while blocked: not a finding.
    ("blocking-under-latch", False,
     "class C {\n"
     "  void F() {\n"
     "    MutexLock l(&latch_);\n"
     "    cv_.Wait(l);\n"
     "  }\n"
     "  Mutex latch_ XST_LOCK_RANK(20);\n"
     "};\n"),
    # ...but an outer latch is still held across the wait.
    ("blocking-under-latch", True,
     "class C {\n"
     "  void F() XST_REQUIRES(outer_) {\n"
     "    MutexLock l(&inner_);\n"
     "    cv_.Wait(l);\n"
     "  }\n"
     "  Mutex outer_ XST_LOCK_RANK(20);\n"
     "  Mutex inner_ XST_LOCK_RANK(30);\n"
     "};\n"),
    ("blocking-under-latch", False, "file_->ReadAt(0, buf, 8);\n"),
    ("blocking-under-latch", False,
     "class C {\n"
     "  void F() {\n"
     "    MutexLock l(&latch_);\n"
     "    file_->ReadAt(0, buf, 8);  // xst-lint: allow(blocking-under-latch)\n"
     "  }\n"
     "  Mutex latch_ XST_LOCK_RANK(20);\n"
     "};\n"),
    # guarded-field-inference: a locked write to an unannotated field.
    ("guarded-field-inference", True,
     "class C {\n"
     "  void Set(int v) {\n"
     "    MutexLock l(&mu_);\n"
     "    x_ = v;\n"
     "  }\n"
     "  Mutex mu_ XST_LOCK_RANK(10);\n"
     "  int x_ = 0;\n"
     "};\n"),
    # XST_REQUIRES counts as holding the lock too.
    ("guarded-field-inference", True,
     "class C {\n"
     "  void Bump() XST_REQUIRES(mu_) { ++count_; }\n"
     "  Mutex mu_ XST_LOCK_RANK(10);\n"
     "  uint64_t count_ = 0;\n"
     "};\n"),
    # Annotated fields are the protocol working.
    ("guarded-field-inference", False,
     "class C {\n"
     "  void Set(int v) {\n"
     "    MutexLock l(&mu_);\n"
     "    x_ = v;\n"
     "  }\n"
     "  Mutex mu_ XST_LOCK_RANK(10);\n"
     "  int x_ XST_GUARDED_BY(mu_) = 0;\n"
     "};\n"),
    # Atomics are deliberately lock-free; no annotation expected.
    ("guarded-field-inference", False,
     "class C {\n"
     "  void Set(int v) {\n"
     "    MutexLock l(&mu_);\n"
     "    x_.store(v);\n"
     "    y_ = v;\n"
     "  }\n"
     "  Mutex mu_ XST_LOCK_RANK(10);\n"
     "  std::atomic<int> x_{0};\n"
     "  std::atomic<int> y_{0};\n"
     "};\n"),
    # Unlocked writes are Clang TSA's problem, not an inference miss.
    ("guarded-field-inference", False,
     "class C {\n"
     "  void Set(int v) { x_ = v; }\n"
     "  Mutex mu_ XST_LOCK_RANK(10);\n"
     "  int x_ = 0;\n"
     "};\n"),
    ("guarded-field-inference", False,
     "class C {\n"
     "  void Set(int v) {\n"
     "    MutexLock l(&mu_);\n"
     "    x_ = v;\n"
     "  }\n"
     "  Mutex mu_ XST_LOCK_RANK(10);\n"
     "  int x_ = 0;  // xst-lint: allow(guarded-field-inference)\n"
     "};\n"),
]


def run_self_test():
    failures = 0
    for idx, fixture in enumerate(SELF_TEST_FIXTURES):
        if len(fixture) == 4:
            rule, expect_hit, code, path = fixture
        else:
            rule, expect_hit, code = fixture
            path = "selftest/fixture.cc"
        findings = [f for f in lint_text(path, code) if f.rule == rule]
        got_hit = bool(findings)
        if got_hit != expect_hit:
            failures += 1
            print(f"self-test fixture {idx} FAILED: rule={rule} "
                  f"expected_hit={expect_hit} got={got_hit}\n  code={code!r}",
                  file=sys.stderr)
    if failures:
        print(f"xst-lint self-test: {failures} fixture(s) failed", file=sys.stderr)
        return 1
    print(f"xst-lint self-test: all {len(SELF_TEST_FIXTURES)} fixtures passed")
    return 0


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("paths", nargs="*", help="files or directories (default: src/)")
    parser.add_argument("--list-rules", action="store_true")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)

    if args.list_rules:
        for name in RULES:
            print(name)
        return 0
    if args.self_test:
        return run_self_test()

    paths = args.paths or [os.path.join(REPO_ROOT, "src")]
    findings, file_count = lint_paths(paths)
    if findings is None:
        return 2
    for finding in findings:
        print(finding)
    if findings:
        print(f"xst-lint: {len(findings)} finding(s) in {file_count} file(s)",
              file=sys.stderr)
        return 1
    print(f"xst-lint: OK ({file_count} files clean)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
