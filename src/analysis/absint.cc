#include "analysis/absint.hh"

#include <algorithm>

#include "common/logging.hh"
#include "obs/obs.hh"
#include "obs/registry.hh"

namespace rmp::analysis
{

namespace
{

/** splitmix64 finalizer (the repo's standard hash combiner). */
inline uint64_t
mix64(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/** Shape digest of @p d (same recipe as exec::designFingerprint, local
 *  copy to keep the analysis layer below exec). */
uint64_t
shapeFingerprint(const Design &d)
{
    uint64_t h = mix64(0xab51f0c7 ^ d.numCells());
    for (SigId id = 0; id < d.numCells(); id++) {
        const Cell &c = d.cell(id);
        h = mix64(h ^ static_cast<uint64_t>(c.op));
        h = mix64(h ^ c.width);
        for (SigId a : c.args)
            h = mix64(h ^ a);
        h = mix64(h ^ c.cval.value());
        h = mix64(h ^ c.aux0);
    }
    return h;
}

/**
 * Concrete evaluation of one comb cell on operand VALUES (not ids) —
 * must match sim's foldCell / Simulator::step() bit for bit. Mux is
 * handled by the caller (it selects between operand abstractions).
 */
uint64_t
concreteCell(const Design &d, const Cell &c, uint64_t a, uint64_t b)
{
    uint64_t mask = BitVec::maskOf(c.width);
    switch (c.op) {
      case Op::Not: return ~a & mask;
      case Op::And: return a & b;
      case Op::Or: return a | b;
      case Op::Xor: return a ^ b;
      case Op::RedOr: return a != 0;
      case Op::RedAnd:
        return a == BitVec::maskOf(d.cell(c.args[0]).width);
      case Op::Eq: return a == b;
      case Op::Ult: return a < b;
      case Op::Add: return (a + b) & mask;
      case Op::Sub: return (a - b) & mask;
      case Op::Mul: return (a * b) & mask;
      case Op::Shl: return b >= 64 ? 0 : (a << b) & mask;
      case Op::Shr: return b >= 64 ? 0 : (a >> b) & mask;
      case Op::Slice: return (a >> c.aux0) & mask;
      case Op::Concat: return (a << d.cell(c.args[1]).width) | b;
      case Op::Zext: return a;
      default:
        rmp_panic("concreteCell: unexpected op %s", opName(c.op));
    }
}

/** Trailing proven-zero bits of @p v under @p mask (capped at width). */
unsigned
trailingKnownZeros(const AbsVal &v, unsigned width)
{
    unsigned n = 0;
    while (n < width && ((v.zeros >> n) & 1))
        n++;
    return n;
}

/** Exhaustive enumeration over small operand sets; false if any needed
 *  operand set is missing or the cartesian product is too large. */
bool
setPath(const Design &d, const Cell &c, const AbsVal &A, const AbsVal *B,
        AbsVal *out)
{
    constexpr size_t kMaxProduct = 4 * kMaxSetSize;
    uint64_t mask = BitVec::maskOf(c.width);
    if (A.set.empty())
        return false;
    std::vector<uint64_t> vals;
    if (B == nullptr) {
        vals.reserve(A.set.size());
        for (uint64_t a : A.set)
            vals.push_back(concreteCell(d, c, a, 0));
    } else {
        if (B->set.empty() || A.set.size() * B->set.size() > kMaxProduct)
            return false;
        vals.reserve(A.set.size() * B->set.size());
        for (uint64_t a : A.set)
            for (uint64_t b : B->set)
                vals.push_back(concreteCell(d, c, a, b));
    }
    *out = AbsVal::fromSet(std::move(vals), mask);
    return true;
}

} // anonymous namespace

bool
AbsVal::admits(uint64_t v) const
{
    if ((v & zeros) != 0 || (v & ones) != ones)
        return false;
    if (v < lo || v > hi)
        return false;
    if (!set.empty() && !std::binary_search(set.begin(), set.end(), v))
        return false;
    return true;
}

unsigned
AbsVal::knownBits(uint64_t mask) const
{
    return static_cast<unsigned>(__builtin_popcountll((zeros | ones) & mask));
}

AbsVal
AbsVal::top(uint64_t mask)
{
    AbsVal v;
    v.lo = 0;
    v.hi = mask;
    return v;
}

AbsVal
AbsVal::constant(uint64_t c, uint64_t mask)
{
    AbsVal v;
    v.ones = c & mask;
    v.zeros = mask & ~c;
    v.lo = v.hi = c & mask;
    v.set = {c & mask};
    return v;
}

AbsVal
AbsVal::fromSet(std::vector<uint64_t> vals, uint64_t mask)
{
    rmp_assert(!vals.empty(), "AbsVal::fromSet: empty value set");
    for (uint64_t &v : vals)
        v &= mask;
    std::sort(vals.begin(), vals.end());
    vals.erase(std::unique(vals.begin(), vals.end()), vals.end());
    AbsVal r;
    r.zeros = mask;
    r.ones = mask;
    for (uint64_t v : vals) {
        r.zeros &= ~v;
        r.ones &= v;
    }
    r.lo = vals.front();
    r.hi = vals.back();
    if (vals.size() <= kMaxSetSize)
        r.set = std::move(vals);
    return r;
}

AbsVal
joinAbs(const AbsVal &x, const AbsVal &y, uint64_t mask)
{
    AbsVal r;
    r.zeros = x.zeros & y.zeros;
    r.ones = x.ones & y.ones;
    r.lo = std::min(x.lo, y.lo);
    r.hi = std::max(x.hi, y.hi);
    (void)mask;
    if (!x.set.empty() && !y.set.empty()) {
        std::vector<uint64_t> u;
        u.reserve(x.set.size() + y.set.size());
        std::set_union(x.set.begin(), x.set.end(), y.set.begin(),
                       y.set.end(), std::back_inserter(u));
        if (u.size() <= kMaxSetSize)
            r.set = std::move(u);
    }
    return r;
}

AbsVal
transferCell(const Design &d, SigId id, const std::vector<AbsVal> &vals)
{
    const Cell &c = d.cell(id);
    uint64_t mask = BitVec::maskOf(c.width);
    switch (c.op) {
      case Op::Input: return AbsVal::top(mask);
      case Op::Const: return AbsVal::constant(c.cval.value(), mask);
      case Op::Reg:
        rmp_panic("transferCell: Reg cells are handled at the sequential "
                  "boundary");
      case Op::Mux: {
          const AbsVal &S = vals[c.args[0]];
          if (S.known(1))
              return vals[S.cval() ? c.args[1] : c.args[2]];
          return joinAbs(vals[c.args[1]], vals[c.args[2]], mask);
      }
      default: break;
    }

    const AbsVal &A = vals[c.args[0]];
    const AbsVal *B = c.numArgs() > 1 ? &vals[c.args[1]] : nullptr;

    // Exact small-set enumeration dominates everything below when it
    // applies (FSM state cones, decoded opcodes, ...).
    AbsVal r;
    if (setPath(d, c, A, B, &r))
        return r;

    // Known-bits / range transfer. Every rule here must be sound for
    // EVERY concretization of the unknown bits.
    r = AbsVal::top(mask);
    uint64_t maskA = BitVec::maskOf(d.cell(c.args[0]).width);
    switch (c.op) {
      case Op::Not:
        r.ones = A.zeros;
        r.zeros = A.ones;
        break;
      case Op::And:
        r.ones = A.ones & B->ones;
        r.zeros = A.zeros | B->zeros;
        break;
      case Op::Or:
        r.ones = A.ones | B->ones;
        r.zeros = A.zeros & B->zeros;
        break;
      case Op::Xor:
        r.ones = (A.ones & B->zeros) | (A.zeros & B->ones);
        r.zeros = (A.zeros & B->zeros) | (A.ones & B->ones);
        break;
      case Op::RedOr:
        if (A.ones != 0 || A.lo > 0)
            return AbsVal::constant(1, mask);
        if (A.zeros == maskA)
            return AbsVal::constant(0, mask);
        break;
      case Op::RedAnd:
        if (A.zeros != 0)
            return AbsVal::constant(0, mask);
        if (A.ones == maskA)
            return AbsVal::constant(1, mask);
        break;
      case Op::Eq:
        // A bit proven different, or disjoint ranges: never equal.
        if (((A.ones & B->zeros) | (A.zeros & B->ones)) != 0 ||
            A.lo > B->hi || B->lo > A.hi)
            return AbsVal::constant(0, mask);
        if (A.known(maskA) && B->known(maskA) && A.cval() == B->cval())
            return AbsVal::constant(1, mask);
        break;
      case Op::Ult:
        if (A.hi < B->lo)
            return AbsVal::constant(1, mask);
        if (A.lo >= B->hi)
            return AbsVal::constant(0, mask);
        break;
      case Op::Add: {
          // Ripple known low bits while operands and carry stay known.
          uint64_t carry = 0;
          for (unsigned i = 0; i < c.width; i++) {
              uint64_t bit = 1ULL << i;
              if (!((A.zeros | A.ones) & bit) ||
                  !((B->zeros | B->ones) & bit))
                  break;
              uint64_t s = ((A.ones >> i) & 1) + ((B->ones >> i) & 1) +
                           carry;
              if (s & 1)
                  r.ones |= bit;
              else
                  r.zeros |= bit;
              carry = s >> 1;
          }
          break;
      }
      case Op::Sub: {
          uint64_t borrow = 0;
          for (unsigned i = 0; i < c.width; i++) {
              uint64_t bit = 1ULL << i;
              if (!((A.zeros | A.ones) & bit) ||
                  !((B->zeros | B->ones) & bit))
                  break;
              uint64_t ai = (A.ones >> i) & 1, bi = (B->ones >> i) & 1;
              uint64_t diff = ai - bi - borrow;
              if (diff & 1)
                  r.ones |= bit;
              else
                  r.zeros |= bit;
              borrow = (diff >> 63) & 1; // underflow -> borrow out
          }
          break;
      }
      case Op::Mul: {
          if (A.zeros == maskA || B->zeros == BitVec::maskOf(
                                      d.cell(c.args[1]).width))
              return AbsVal::constant(0, mask);
          // The product of values with t and u trailing zeros has t+u.
          unsigned tz = trailingKnownZeros(A, c.width) +
                        trailingKnownZeros(*B, c.width);
          tz = std::min(tz, c.width);
          r.zeros = mask & (tz >= 64 ? ~0ULL : ((1ULL << tz) - 1));
          break;
      }
      case Op::Shl: {
          unsigned wb = d.cell(c.args[1]).width;
          if (B->known(BitVec::maskOf(wb))) {
              uint64_t s = B->cval();
              uint64_t poss = s >= 64 ? 0 : (A.possible(maskA) << s) & mask;
              r.zeros = mask & ~poss;
              r.ones = s >= 64 ? 0 : (A.ones << s) & mask;
          } else {
              // Left shifts only add trailing zeros.
              unsigned tz = trailingKnownZeros(A, c.width);
              r.zeros = mask & ((tz >= 64 ? ~0ULL : (1ULL << tz) - 1));
          }
          break;
      }
      case Op::Shr: {
          unsigned wb = d.cell(c.args[1]).width;
          if (B->known(BitVec::maskOf(wb))) {
              uint64_t s = B->cval();
              uint64_t poss = s >= 64 ? 0 : (A.possible(maskA) >> s) & mask;
              r.zeros = mask & ~poss;
              r.ones = s >= 64 ? 0 : (A.ones >> s) & mask;
          }
          break;
      }
      case Op::Slice: {
          uint64_t poss = (A.possible(maskA) >> c.aux0) & mask;
          r.zeros = mask & ~poss;
          r.ones = (A.ones >> c.aux0) & mask;
          break;
      }
      case Op::Concat: {
          unsigned wl = d.cell(c.args[1]).width;
          r.ones = ((A.ones << wl) | B->ones) & mask;
          r.zeros = ((A.zeros << wl) | B->zeros) & mask;
          break;
      }
      case Op::Zext:
        r.ones = A.ones;
        r.zeros = A.zeros | (mask & ~maskA);
        break;
      default:
        rmp_panic("transferCell: unexpected op %s", opName(c.op));
    }

    // Normalize: tighten the derived range from the known bits, and
    // promote fully-known results to constants (singleton sets).
    r.lo = std::max(r.lo, r.ones);
    r.hi = std::min(r.hi, mask & ~r.zeros);
    if (r.known(mask))
        return AbsVal::constant(r.cval(), mask);
    return r;
}

/** One full combinational sweep: refresh every cell's abstraction from
 *  the current register state (held in vals[reg] by the caller). */
void
absEvalComb(const Design &d, std::vector<AbsVal> &vals)
{
    for (SigId in : d.inputs())
        vals[in] = AbsVal::top(BitVec::maskOf(d.width(in)));
    for (SigId id = 0; id < d.numCells(); id++)
        if (d.cell(id).op == Op::Const)
            vals[id] = AbsVal::constant(d.cell(id).cval.value(),
                                        BitVec::maskOf(d.width(id)));
    for (SigId id : d.topoOrder())
        vals[id] = transferCell(d, id, vals);
}

/** Digest + bit tallies over the final facts. */
void
absSeal(const Design &d, AbsFacts &f)
{
    f.bitsKnown = 0;
    f.bitsTotal = 0;
    uint64_t h = mix64(0xfac75ea1 ^ f.designFp);
    for (SigId id = 0; id < d.numCells(); id++) {
        const AbsVal &v = f.val[id];
        uint64_t mask = BitVec::maskOf(d.width(id));
        f.bitsKnown += v.knownBits(mask);
        f.bitsTotal += d.width(id);
        h = mix64(h ^ v.zeros);
        h = mix64(h ^ v.ones);
        h = mix64(h ^ (v.set.size() + (f.exactSet[id] ? 0x100000 : 0)));
        for (uint64_t s : v.set)
            h = mix64(h ^ s);
    }
    f.fingerprint = h;
    if (obs::enabled()) {
        auto &reg = obs::Registry::global();
        reg.gauge("absint.bits_known")
            .set(static_cast<int64_t>(f.bitsKnown));
        reg.gauge("absint.bits_total")
            .set(static_cast<int64_t>(f.bitsTotal));
        reg.gauge("absint.fixpoint_iters").set(f.fixpointIters);
    }
}

AbsFacts
absInterpret(const Design &d, const AbsintConfig &cfg)
{
    AbsFacts f;
    f.designFp = shapeFingerprint(d);
    f.val.assign(d.numCells(), AbsVal{});
    f.exactSet.assign(d.numCells(), 0);

    // Register state starts fully known at reset (§V-B: every property
    // is evaluated on runs from the valid reset state).
    for (SigId r : d.registers())
        f.val[r] = AbsVal::constant(d.cell(r).cval.value(),
                                    BitVec::maskOf(d.width(r)));

    unsigned iters = 0;
    bool changed = true;
    while (changed) {
        rmp_assert(iters < cfg.maxIters,
                   "absInterpret: fixpoint did not converge in %u sweeps "
                   "(non-monotone transfer function?)",
                   cfg.maxIters);
        if (iters == cfg.maxIters / 2) {
            // Range/set widening backstop: collapse every register to its
            // known-bits abstraction. The remaining pure-bits iteration is
            // strictly monotone on a finite lattice, so it terminates.
            for (SigId r : d.registers()) {
                uint64_t mask = BitVec::maskOf(d.width(r));
                AbsVal &v = f.val[r];
                v.set.clear();
                v.lo = v.ones;
                v.hi = mask & ~v.zeros;
            }
        }
        absEvalComb(d, f.val);
        changed = false;
        for (SigId r : d.registers()) {
            uint64_t mask = BitVec::maskOf(d.width(r));
            const AbsVal &next = f.val[d.cell(r).args[0]];
            AbsVal joined = joinAbs(f.val[r], next, mask);
            if (joined.zeros != f.val[r].zeros ||
                joined.ones != f.val[r].ones ||
                joined.set != f.val[r].set || joined.lo != f.val[r].lo ||
                joined.hi != f.val[r].hi) {
                f.val[r] = std::move(joined);
                changed = true;
            }
        }
        iters++;
    }
    f.fixpointIters = iters;
    absSeal(d, f);
    return f;
}

std::vector<int8_t>
muxSelectFacts(const Design &d, const AbsFacts &facts)
{
    std::vector<int8_t> sel(d.numCells(), -1);
    for (SigId id = 0; id < d.numCells(); id++) {
        const Cell &c = d.cell(id);
        if (c.op != Op::Mux)
            continue;
        const AbsVal &s = facts.val[c.args[0]];
        if (s.known(1))
            sel[id] = s.cval() ? 1 : 0;
    }
    return sel;
}

} // namespace rmp::analysis
