#include "prop/property.hh"

#include <algorithm>
#include <unordered_map>

#include "common/logging.hh"

namespace rmp::prop
{

unsigned
Expr::depth() const
{
    switch (kind) {
      case ExprKind::True:
      case ExprKind::SigEqConst:
      case ExprKind::SigBit:
        return 0;
      case ExprKind::Not:
        return a->depth();
      case ExprKind::And:
      case ExprKind::Or:
        return std::max(a->depth(), b->depth());
      case ExprKind::Delay:
        return std::max(a->depth(), delay + b->depth());
    }
    return 0;
}

std::string
Expr::str(const Design &d) const
{
    auto sig_name = [&](SigId s) {
        const std::string &n = d.cell(s).name;
        return n.empty() ? "sig" + std::to_string(s) : n;
    };
    switch (kind) {
      case ExprKind::True:
        return "1";
      case ExprKind::SigEqConst:
        return sig_name(sig) + "==" + std::to_string(value);
      case ExprKind::SigBit:
        return d.cell(sig).width == 1
                   ? sig_name(sig)
                   : sig_name(sig) + "[" + std::to_string(value) + "]";
      case ExprKind::Not:
        return "!(" + a->str(d) + ")";
      case ExprKind::And:
        return "(" + a->str(d) + " & " + b->str(d) + ")";
      case ExprKind::Or:
        return "(" + a->str(d) + " | " + b->str(d) + ")";
      case ExprKind::Delay:
        return "(" + a->str(d) + " ##" + std::to_string(delay) + " " +
               b->str(d) + ")";
    }
    return "?";
}

ExprRef
pTrue()
{
    auto e = std::make_shared<Expr>();
    e->kind = ExprKind::True;
    return e;
}

ExprRef
pEq(SigId sig, uint64_t value)
{
    auto e = std::make_shared<Expr>();
    e->kind = ExprKind::SigEqConst;
    e->sig = sig;
    e->value = value;
    return e;
}

ExprRef
pBit(SigId sig, unsigned bit)
{
    auto e = std::make_shared<Expr>();
    e->kind = ExprKind::SigBit;
    e->sig = sig;
    e->value = bit;
    return e;
}

ExprRef
pNot(ExprRef a)
{
    auto e = std::make_shared<Expr>();
    e->kind = ExprKind::Not;
    e->a = std::move(a);
    return e;
}

ExprRef
pAnd(ExprRef a, ExprRef b)
{
    auto e = std::make_shared<Expr>();
    e->kind = ExprKind::And;
    e->a = std::move(a);
    e->b = std::move(b);
    return e;
}

ExprRef
pOr(ExprRef a, ExprRef b)
{
    auto e = std::make_shared<Expr>();
    e->kind = ExprKind::Or;
    e->a = std::move(a);
    e->b = std::move(b);
    return e;
}

ExprRef
pAndN(const std::vector<ExprRef> &xs)
{
    if (xs.empty())
        return pTrue();
    ExprRef acc = xs[0];
    for (size_t i = 1; i < xs.size(); i++)
        acc = pAnd(acc, xs[i]);
    return acc;
}

ExprRef
pOrN(const std::vector<ExprRef> &xs)
{
    if (xs.empty())
        return pNot(pTrue());
    ExprRef acc = xs[0];
    for (size_t i = 1; i < xs.size(); i++)
        acc = pOr(acc, xs[i]);
    return acc;
}

ExprRef
pDelay(ExprRef a, unsigned delay, ExprRef b)
{
    auto e = std::make_shared<Expr>();
    e->kind = ExprKind::Delay;
    e->a = std::move(a);
    e->b = std::move(b);
    e->delay = delay;
    return e;
}

namespace
{

/** splitmix64 finalizer: the avalanche step used to combine hash words. */
inline uint64_t
mix64(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

uint64_t
hashRec(const Expr *e, uint64_t seed,
        std::unordered_map<const Expr *, uint64_t> &memo)
{
    auto it = memo.find(e);
    if (it != memo.end())
        return it->second;
    uint64_t h = mix64(seed ^ static_cast<uint64_t>(e->kind));
    h = mix64(h ^ static_cast<uint64_t>(e->sig));
    h = mix64(h ^ e->value);
    h = mix64(h ^ e->delay);
    if (e->a)
        h = mix64(h ^ hashRec(e->a.get(), seed, memo));
    if (e->b)
        h = mix64((h + 0x85ebca6bULL) ^ hashRec(e->b.get(), seed, memo));
    memo.emplace(e, h);
    return h;
}

const std::string &
serializeRec(const Expr *e,
             std::unordered_map<const Expr *, std::string> &memo)
{
    auto it = memo.find(e);
    if (it != memo.end())
        return it->second;
    std::string s;
    s.push_back('(');
    s.push_back(static_cast<char>('A' + static_cast<int>(e->kind)));
    s += std::to_string(e->sig);
    s.push_back(',');
    s += std::to_string(e->value);
    s.push_back(',');
    s += std::to_string(e->delay);
    if (e->a)
        s += serializeRec(e->a.get(), memo);
    if (e->b)
        s += serializeRec(e->b.get(), memo);
    s.push_back(')');
    return memo.emplace(e, std::move(s)).first->second;
}

} // anonymous namespace

uint64_t
exprHash(const ExprRef &e, uint64_t seed)
{
    std::unordered_map<const Expr *, uint64_t> memo;
    return hashRec(e.get(), mix64(seed ^ 0xc2b2ae3d27d4eb4fULL), memo);
}

void
serializeExpr(const ExprRef &e, std::string *out)
{
    std::unordered_map<const Expr *, std::string> memo;
    *out += serializeRec(e.get(), memo);
}

bmc::AigLit
compile(const ExprRef &e, bmc::Unrolling &u, unsigned start, unsigned bound)
{
    using namespace bmc;
    if (start >= bound)
        return kFalse;
    switch (e->kind) {
      case ExprKind::True:
        return kTrue;
      case ExprKind::SigEqConst:
        return u.sigEqConst(start, e->sig, e->value);
      case ExprKind::SigBit:
        return u.sigBit(start, e->sig, static_cast<unsigned>(e->value));
      case ExprKind::Not:
        return aigNot(compile(e->a, u, start, bound));
      case ExprKind::And:
        return u.aig().mkAnd(compile(e->a, u, start, bound),
                             compile(e->b, u, start, bound));
      case ExprKind::Or:
        return u.aig().mkOr(compile(e->a, u, start, bound),
                            compile(e->b, u, start, bound));
      case ExprKind::Delay: {
          AigLit la = compile(e->a, u, start, bound);
          AigLit lb = compile(e->b, u, start + e->delay, bound);
          return u.aig().mkAnd(la, lb);
      }
    }
    rmp_panic("compile: bad expr kind");
}

bool
evalOnTrace(const ExprRef &e, const SimTrace &trace, unsigned start)
{
    if (start >= trace.numCycles())
        return false;
    switch (e->kind) {
      case ExprKind::True:
        return true;
      case ExprKind::SigEqConst:
        return trace.value(start, e->sig) == e->value;
      case ExprKind::SigBit:
        return (trace.value(start, e->sig) >> e->value) & 1;
      case ExprKind::Not:
        return !evalOnTrace(e->a, trace, start);
      case ExprKind::And:
        return evalOnTrace(e->a, trace, start) &&
               evalOnTrace(e->b, trace, start);
      case ExprKind::Or:
        return evalOnTrace(e->a, trace, start) ||
               evalOnTrace(e->b, trace, start);
      case ExprKind::Delay:
        return evalOnTrace(e->a, trace, start) &&
               evalOnTrace(e->b, trace, start + e->delay);
    }
    rmp_panic("evalOnTrace: bad expr kind");
}

} // namespace rmp::prop
