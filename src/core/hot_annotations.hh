/**
 * @file
 * Hot-path discipline annotations, consumed by tools/jethot.py.
 *
 * The event core's performance contract (DESIGN.md §4j) is that the
 * steady-state dispatch path performs no heap allocation, acquires no
 * lock, never throws, and never enters the kernel. Runtime probes
 * (the operator-new-counting tests, TSan) sample that; jethot closes
 * the loop statically: it walks the call graph from every JETSIM_HOT
 * root and proves no forbidden operation is *reachable*, the same way
 * jetrace proves lock-order discipline. InlineFn's capture bound is a
 * compile-time rule (a static_assert), so no callback can reach the
 * heap behind the analyzer's back.
 *
 * All three macros expand to nothing in every build configuration —
 * they cost zero codegen, zero preprocessor branches, and are safe in
 * any position the grammar allows a declaration specifier. They exist
 * purely as tokens for the analyzer (and for the reader):
 *
 *   JETSIM_HOT
 *       Marks a function *definition* as a hot-path root. jethot
 *       scans its body and everything reachable from it. Place it on
 *       the definition (the body is what gets audited), not on a
 *       prototype.
 *
 *   JETSIM_COLD_OK("reason")
 *       A sanctioned cold escape. On a function definition: the body
 *       is exempt and traversal stops there — use for slow paths
 *       deliberately hung off a hot function (ring growth, thread
 *       spawn). On a statement line (or the line above): that
 *       statement's findings and call edges are suppressed — use for
 *       amortized container growth and first-occurrence setup inside
 *       an otherwise hot body. The reason string is mandatory, is
 *       collected into jethot's JSON output, and is the reviewable
 *       artifact: every escape says *why* it cannot run in steady
 *       state.
 *
 *   JETSIM_HOT_BOUNDARY
 *       Traversal stops here and the body is not scanned: the callee
 *       side of a dispatch indirection whose discipline is audited at
 *       its own capture/registration sites, or a diagnostics path
 *       that only runs when an invariant is already broken. Unlike
 *       COLD_OK this asserts "audited elsewhere", not "allowed to be
 *       cold".
 *
 * Comment forms for positions macros cannot reach (e.g. a #define),
 * each written as a comment starting "jethot:" followed by
 *   boundary(NAME) <why>   — declares callee NAME a boundary
 *   cold-ok(<why>)         — statement-level COLD_OK
 *   allow(<rule>) <why>    — suppress one rule on one line
 */

#ifndef JETSIM_CORE_HOT_ANNOTATIONS_HH
#define JETSIM_CORE_HOT_ANNOTATIONS_HH

#define JETSIM_HOT
#define JETSIM_COLD_OK(reason)
#define JETSIM_HOT_BOUNDARY

#endif // JETSIM_CORE_HOT_ANNOTATIONS_HH
