// Clang Thread Safety Analysis annotations.
//
// These macros attach capability semantics to lock types and lock-protected
// data so `-Wthread-safety` proves, at compile time, that every access to a
// guarded field happens under its lock and that lock acquisition order is
// respected at function boundaries. On non-Clang compilers (and on Clang
// without the analysis enabled) they expand to nothing, so annotated code is
// portable; the Clang CI job (-Werror=thread-safety) is where they are
// enforced, and tools/xst_lint.py checks the lock-order and locksmith rules
// on every host.
//
// Vocabulary (mirrors Abseil / LLVM's thread_annotations.h):
//   XST_CAPABILITY(name)    a type that is a lockable capability (xst::Mutex)
//   XST_SCOPED_CAPABILITY   an RAII type that acquires on construction and
//                           releases on destruction (xst::MutexLock)
//   XST_GUARDED_BY(mu)      a field that may only be touched while holding mu
//   XST_PT_GUARDED_BY(mu)   a pointer field whose *pointee* is guarded by mu
//   XST_REQUIRES(mu)        a function that must be called while holding mu
//   XST_ACQUIRE(mu)         a function that acquires mu and does not release
//   XST_RELEASE(mu)         a function that releases mu
//   XST_TRY_ACQUIRE(b, mu)  a function that acquires mu iff it returns b
//   XST_EXCLUDES(mu)        a function that must NOT be called while holding
//                           mu (deadlock prevention for self-locking APIs)
//   XST_ASSERT_CAPABILITY(mu)      runtime assertion that mu is held
//   XST_RETURN_CAPABILITY(mu)      a function returning a reference to mu
//   XST_NO_THREAD_SAFETY_ANALYSIS  opt a function out (e.g. init/teardown
//                                  that is single-threaded by construction)
//
// Locksmith annotations (tools/xst_lint.py — Clang's TSA does not consume
// these; the lint does):
//   XST_LOCK_RANK(n)    declares a Mutex's position in the global lock
//                       hierarchy. Every acquisition path must be strictly
//                       rank-increasing (lock-rank rule); ranks at or above
//                       the latch floor (DESIGN.md §15) additionally forbid
//                       reaching any blocking point while held
//                       (blocking-under-latch rule).
//   XST_BLOCKING        declares a function a blocking point (file I/O,
//                       fsync waits, condition waits, pool fan-out) for the
//                       blocking-under-latch rule, extending the built-in
//                       registry (File I/O, Wal::WaitDurable, CondVar::Wait,
//                       ParallelFor).
//
// See DESIGN.md section 10 for the per-subsystem capability map and the
// rules for introducing new shared state, and section 15 for the lock-rank
// hierarchy.

#pragma once

#if defined(__clang__) && (!defined(SWIG))
#define XST_THREAD_ANNOTATION_ATTRIBUTE(x) __attribute__((x))
#else
#define XST_THREAD_ANNOTATION_ATTRIBUTE(x)  // no-op on non-Clang
#endif

#define XST_CAPABILITY(x) XST_THREAD_ANNOTATION_ATTRIBUTE(capability(x))

#define XST_SCOPED_CAPABILITY XST_THREAD_ANNOTATION_ATTRIBUTE(scoped_lockable)

#define XST_GUARDED_BY(x) XST_THREAD_ANNOTATION_ATTRIBUTE(guarded_by(x))

#define XST_PT_GUARDED_BY(x) XST_THREAD_ANNOTATION_ATTRIBUTE(pt_guarded_by(x))

#define XST_ACQUIRED_BEFORE(...) \
  XST_THREAD_ANNOTATION_ATTRIBUTE(acquired_before(__VA_ARGS__))

#define XST_ACQUIRED_AFTER(...) \
  XST_THREAD_ANNOTATION_ATTRIBUTE(acquired_after(__VA_ARGS__))

#define XST_REQUIRES(...) \
  XST_THREAD_ANNOTATION_ATTRIBUTE(requires_capability(__VA_ARGS__))

#define XST_REQUIRES_SHARED(...) \
  XST_THREAD_ANNOTATION_ATTRIBUTE(requires_shared_capability(__VA_ARGS__))

#define XST_ACQUIRE(...) \
  XST_THREAD_ANNOTATION_ATTRIBUTE(acquire_capability(__VA_ARGS__))

#define XST_ACQUIRE_SHARED(...) \
  XST_THREAD_ANNOTATION_ATTRIBUTE(acquire_shared_capability(__VA_ARGS__))

#define XST_RELEASE(...) \
  XST_THREAD_ANNOTATION_ATTRIBUTE(release_capability(__VA_ARGS__))

#define XST_RELEASE_SHARED(...) \
  XST_THREAD_ANNOTATION_ATTRIBUTE(release_shared_capability(__VA_ARGS__))

#define XST_TRY_ACQUIRE(...) \
  XST_THREAD_ANNOTATION_ATTRIBUTE(try_acquire_capability(__VA_ARGS__))

#define XST_EXCLUDES(...) \
  XST_THREAD_ANNOTATION_ATTRIBUTE(locks_excluded(__VA_ARGS__))

#define XST_ASSERT_CAPABILITY(x) \
  XST_THREAD_ANNOTATION_ATTRIBUTE(assert_capability(x))

#define XST_RETURN_CAPABILITY(x) \
  XST_THREAD_ANNOTATION_ATTRIBUTE(lock_returned(x))

#define XST_NO_THREAD_SAFETY_ANALYSIS \
  XST_THREAD_ANNOTATION_ATTRIBUTE(no_thread_safety_analysis)

// Locksmith: lock-rank / blocking-point declarations. They expand to
// nothing; tools/xst_lint.py parses the macro spelling, so keep the literal
// names stable.
#define XST_LOCK_RANK(n)
#define XST_BLOCKING
