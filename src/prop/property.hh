/**
 * @file
 * SVA-lite property AST.
 *
 * Models the fragment of SystemVerilog Assertions that the paper's
 * templates use (§V-B, §V-C): boolean combinations of signal predicates,
 * the one-cycle sequence operator ##1, cover directives, and assume
 * constraints that must hold in every cycle. Properties are compiled
 * against a bmc::Unrolling into per-start-frame AIG literals of an
 * overlay of its graph.
 */

#ifndef PROP_PROPERTY_HH
#define PROP_PROPERTY_HH

#include <memory>
#include <string>
#include <vector>

#include "bmc/unroll.hh"
#include "rtlir/design.hh"
#include "sim/simulator.hh"

namespace rmp::prop
{

/** Expression node kinds. */
enum class ExprKind : uint8_t
{
    True,
    SigEqConst, ///< signal == constant value
    SigBit,     ///< a 1-bit signal (or bit aux0 of a wider one) is high
    Not,
    And,
    Or,
    Delay, ///< ##k: child evaluated k cycles later
};

/** Immutable expression tree (shared_ptr DAG). */
struct Expr;
using ExprRef = std::shared_ptr<const Expr>;

struct Expr
{
    ExprKind kind = ExprKind::True;
    SigId sig = kNoSig;
    uint64_t value = 0; ///< constant for SigEqConst; bit index for SigBit
    unsigned delay = 0; ///< cycles for Delay
    ExprRef a, b;

    /** Maximum ##-delay depth: frames needed beyond the start frame. */
    unsigned depth() const;

    /** Render in an SVA-like syntax for logs and reports. */
    std::string str(const Design &d) const;
};

/** @name Constructors */
/// @{
ExprRef pTrue();
ExprRef pEq(SigId sig, uint64_t value);
ExprRef pBit(SigId sig, unsigned bit = 0);
ExprRef pNot(ExprRef a);
ExprRef pAnd(ExprRef a, ExprRef b);
ExprRef pOr(ExprRef a, ExprRef b);
ExprRef pAndN(const std::vector<ExprRef> &xs);
ExprRef pOrN(const std::vector<ExprRef> &xs);
/** seq: a ##delay b. */
ExprRef pDelay(ExprRef a, unsigned delay, ExprRef b);
/// @}

/**
 * Canonical structural hash of an expression DAG, seeded by @p seed.
 *
 * Two structurally identical expressions hash equal regardless of how
 * their nodes are shared; shared subtrees are visited once (memoized on
 * node identity). Combining two calls with independent seeds yields a
 * 128-bit digest (exec::makeQueryKey), which names a memoized cover
 * result's file in the persistent verdict store — the hash covers every
 * field that affects compile()/evalOnTrace() semantics (kind, signal,
 * constant, bit index, delay, children), so equal digests almost always
 * mean semantically identical properties over the same design.
 */
uint64_t exprHash(const ExprRef &e, uint64_t seed = 0);

/**
 * Append a canonical byte serialization of @p e to @p out: parenthesized
 * prefix form over (kind, sig, value, delay, children), expanded as a
 * *tree* so the bytes depend only on expression structure, never on how
 * DAG nodes happen to be shared. Two expressions serialize identically
 * iff they are structurally identical — unlike exprHash, with no
 * collision probability — so exec::QueryCache keys memoized verdicts by
 * these bytes, and the verdict store keeps them in every record to make
 * digest collisions observable instead of silently aliasing verdicts.
 * Shared subtrees serialize once (memoized) but are spliced per
 * occurrence, so output size follows the expanded tree.
 */
void serializeExpr(const ExprRef &e, std::string *out);

/**
 * Compile @p e as observed starting at frame @p start, adding its logic
 * to @p g, an overlay of @p u's graph. Frames at or beyond
 * u.numFrames() make the expression FALSE (a bounded semantics; the
 * engine accounts for this when deciding outcomes).
 */
bmc::AigLit compile(const ExprRef &e, const bmc::Unrolling &u, bmc::Aig &g,
                    unsigned start);

/**
 * Evaluate @p e over a simulated trace starting at cycle @p start, with the
 * same bounded semantics as compile(). Used to re-validate BMC witnesses
 * through an independent implementation path.
 */
bool evalOnTrace(const ExprRef &e, const SimTrace &trace, unsigned start);

} // namespace rmp::prop

#endif // PROP_PROPERTY_HH
