/**
 * @file
 * Clang thread-safety-analysis annotation macros.
 *
 * The simulator runs on one thread, but its mutable shared state --
 * the metrics registry, the trace ring buffer, the event queue, the
 * kernel clock -- is annotated with the capability that guards it, so
 * `clang -Wthread-safety` (-DHMCSIM_THREAD_SAFETY=ON) machine-checks
 * that every access goes through its guard and that no callback
 * re-enters a region it is already inside.
 *
 * The macros expand to Clang `capability` attributes under Clang and to
 * nothing elsewhere (GCC builds are unaffected).  They mirror the
 * standard names used by abseil/LLVM so the analysis semantics are the
 * documented upstream ones:
 * https://clang.llvm.org/docs/ThreadSafetyAnalysis.html
 *
 * The matching runtime objects (PartitionMutex / PartitionLock,
 * assert-only) live in common/partition_mutex.h.
 */

#ifndef HMCSIM_COMMON_THREAD_ANNOTATIONS_H_
#define HMCSIM_COMMON_THREAD_ANNOTATIONS_H_

#if defined(__clang__)
#define HMCSIM_THREAD_ANNOTATION_(x) __attribute__((x))
#else
#define HMCSIM_THREAD_ANNOTATION_(x)  // no-op outside Clang
#endif

/** Marks a class as a lockable capability (e.g. a mutex type). */
#define HMCSIM_CAPABILITY(x) HMCSIM_THREAD_ANNOTATION_(capability(x))

/** Marks an RAII class whose ctor acquires and dtor releases. */
#define HMCSIM_SCOPED_CAPABILITY HMCSIM_THREAD_ANNOTATION_(scoped_lockable)

/** Data member readable/writable only while holding the capability. */
#define HMCSIM_GUARDED_BY(x) HMCSIM_THREAD_ANNOTATION_(guarded_by(x))

/** Pointer member whose pointee is guarded by the capability. */
#define HMCSIM_PT_GUARDED_BY(x) HMCSIM_THREAD_ANNOTATION_(pt_guarded_by(x))

/** Function acquires the capability and holds it on return. */
#define HMCSIM_ACQUIRE(...) \
    HMCSIM_THREAD_ANNOTATION_(acquire_capability(__VA_ARGS__))

/** Function releases the capability. */
#define HMCSIM_RELEASE(...) \
    HMCSIM_THREAD_ANNOTATION_(release_capability(__VA_ARGS__))

/** Caller must hold the capability (exclusively) when calling. */
#define HMCSIM_REQUIRES(...) \
    HMCSIM_THREAD_ANNOTATION_(requires_capability(__VA_ARGS__))

/** Caller must hold the capability at least shared when calling. */
#define HMCSIM_REQUIRES_SHARED(...) \
    HMCSIM_THREAD_ANNOTATION_(requires_shared_capability(__VA_ARGS__))

/** Caller must NOT hold the capability (deadlock guard). */
#define HMCSIM_EXCLUDES(...) \
    HMCSIM_THREAD_ANNOTATION_(locks_excluded(__VA_ARGS__))

/** Function returns a reference to the named capability. */
#define HMCSIM_RETURN_CAPABILITY(x) \
    HMCSIM_THREAD_ANNOTATION_(lock_returned(x))

/** Opt a function out of the analysis (use sparingly, with a reason). */
#define HMCSIM_NO_THREAD_SAFETY_ANALYSIS \
    HMCSIM_THREAD_ANNOTATION_(no_thread_safety_analysis)

#endif  // HMCSIM_COMMON_THREAD_ANNOTATIONS_H_
