/**
 * @file
 * Clang Thread Safety Analysis attribute macros.
 *
 * jetsim's concurrency discipline is machine-checked at three levels:
 * dynamically (TSan, pass 2c), over schedule space (jetmc, pass 1d),
 * and — via these macros — at the source level (jetrace, pass 1f).
 * Every piece of shared mutable state must be one of:
 *
 *   - guarded:  `JETSIM_GUARDED_BY(mu_)` names the core::Mutex that
 *               must be held for every access;
 *   - atomic:   a std::atomic whose memory ordering is written at the
 *               use site;
 *   - confined: touched by exactly one thread, carrying a
 *               `// jetrace: confined(<thread>)` justification.
 *
 * Under Clang with -Wthread-safety (CMake: -DJETSIM_THREAD_SAFETY=ON)
 * the guarded contracts are compiler-enforced: an unguarded read of a
 * GUARDED_BY field is a build error. Under GCC the attributes expand
 * to nothing — the contracts are then still audited structurally by
 * tools/jetrace.py, which requires every global/static to carry one
 * of the three classifications and derives the static lock-order
 * graph from the JETSIM_* / core::LockGuard idiom.
 *
 * The macro set mirrors the Clang documentation's canonical
 * mutex.h (and abseil's thread_annotations.h); names are prefixed
 * JETSIM_ so the audit can grep them unambiguously.
 */

#ifndef JETSIM_CORE_THREAD_ANNOTATIONS_HH
#define JETSIM_CORE_THREAD_ANNOTATIONS_HH

#if defined(__clang__) && (!defined(SWIG))
#define JETSIM_THREAD_ATTR(x) __attribute__((x))
#else
#define JETSIM_THREAD_ATTR(x) // no-op outside Clang
#endif

/** Marks a type as a lockable capability ("mutex", "role", ...). */
#define JETSIM_CAPABILITY(x) JETSIM_THREAD_ATTR(capability(x))

/** Marks an RAII type that acquires on construction, releases on
 * destruction (core::LockGuard). */
#define JETSIM_SCOPED_CAPABILITY JETSIM_THREAD_ATTR(scoped_lockable)

/** Field/global access requires holding @p x. */
#define JETSIM_GUARDED_BY(x) JETSIM_THREAD_ATTR(guarded_by(x))

/** Pointee access requires holding @p x (the pointer itself is free). */
#define JETSIM_PT_GUARDED_BY(x) JETSIM_THREAD_ATTR(pt_guarded_by(x))

/** Capability must be acquired before the listed ones. */
#define JETSIM_ACQUIRED_BEFORE(...) \
    JETSIM_THREAD_ATTR(acquired_before(__VA_ARGS__))

/** Capability must be acquired after the listed ones. */
#define JETSIM_ACQUIRED_AFTER(...) \
    JETSIM_THREAD_ATTR(acquired_after(__VA_ARGS__))

/** Caller must hold the listed capabilities exclusively. */
#define JETSIM_REQUIRES(...) \
    JETSIM_THREAD_ATTR(requires_capability(__VA_ARGS__))

/** Caller must hold the listed capabilities at least shared. */
#define JETSIM_REQUIRES_SHARED(...) \
    JETSIM_THREAD_ATTR(requires_shared_capability(__VA_ARGS__))

/** Function acquires the listed capabilities (exclusive). */
#define JETSIM_ACQUIRE(...) \
    JETSIM_THREAD_ATTR(acquire_capability(__VA_ARGS__))

/** Function acquires the listed capabilities (shared). */
#define JETSIM_ACQUIRE_SHARED(...) \
    JETSIM_THREAD_ATTR(acquire_shared_capability(__VA_ARGS__))

/** Function releases the listed capabilities. */
#define JETSIM_RELEASE(...) \
    JETSIM_THREAD_ATTR(release_capability(__VA_ARGS__))

/** Function releases shared capabilities. */
#define JETSIM_RELEASE_SHARED(...) \
    JETSIM_THREAD_ATTR(release_shared_capability(__VA_ARGS__))

/** Caller must NOT hold the listed capabilities (anti-deadlock). */
#define JETSIM_EXCLUDES(...) \
    JETSIM_THREAD_ATTR(locks_excluded(__VA_ARGS__))

/** Function returns a reference to the named capability. */
#define JETSIM_RETURN_CAPABILITY(x) \
    JETSIM_THREAD_ATTR(lock_returned(x))

/**
 * Escape hatch: the analysis is suppressed for this function. Every
 * use must explain why the contract holds anyway (e.g. a documented
 * quiescent-point accessor) — jetrace counts these.
 */
#define JETSIM_NO_THREAD_SAFETY_ANALYSIS \
    JETSIM_THREAD_ATTR(no_thread_safety_analysis)

#endif // JETSIM_CORE_THREAD_ANNOTATIONS_HH
