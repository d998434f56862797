// Clang Thread Safety Analysis attribute macros (DESIGN.md §11).
//
// These wrap the `-Wthread-safety` capability attributes so lock discipline
// is stated in the code and *proved at compile time* under Clang (the
// `thread-safety` preset promotes every analysis diagnostic to an error).
// On compilers without the analysis (GCC) every macro expands to nothing,
// so the annotations are free documentation there and the binary is
// identical either way.
//
// The vocabulary, applied through the ie::Mutex / ie::CondVar wrappers in
// common/sync.h:
//
//   GUARDED_BY(mu)       field may only be touched while `mu` is held
//   REQUIRES(mu)         caller must already hold `mu` exclusively
//   ACQUIRE / RELEASE    function acquires/releases the capability
//   EXCLUDES(mu)         caller must NOT hold `mu` (non-reentrancy)
//   ACQUIRED_BEFORE/AFTER  static lock-ordering hints (checked under
//                        -Wthread-safety-beta)
//
// tests/negcompile/ proves the analysis bites: each violation case there
// must FAIL to compile under the `thread-safety` preset.
#pragma once

#if defined(__clang__) && !defined(SWIG)
#define IE_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define IE_THREAD_ANNOTATION(x)  // no-op outside Clang
#endif

#define CAPABILITY(x) IE_THREAD_ANNOTATION(capability(x))
#define SCOPED_CAPABILITY IE_THREAD_ANNOTATION(scoped_lockable)

#define GUARDED_BY(x) IE_THREAD_ANNOTATION(guarded_by(x))

#define ACQUIRED_BEFORE(...) IE_THREAD_ANNOTATION(acquired_before(__VA_ARGS__))
#define ACQUIRED_AFTER(...) IE_THREAD_ANNOTATION(acquired_after(__VA_ARGS__))

#define REQUIRES(...) IE_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))

#define ACQUIRE(...) IE_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
#define RELEASE(...) IE_THREAD_ANNOTATION(release_capability(__VA_ARGS__))

#define EXCLUDES(...) IE_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))

// Escape hatch. Policy (enforced by review + DESIGN.md §11): zero uses in
// src/ outside documented double-checked-locking sites — and as of this
// writing there are none at all.
#define NO_THREAD_SAFETY_ANALYSIS \
  IE_THREAD_ANNOTATION(no_thread_safety_analysis)
