#include "bmc/unroll.hh"

#include "common/logging.hh"
#include "obs/registry.hh"
#include "obs/trace.hh"

namespace rmp::bmc
{

Unrolling::Unrolling(const Design &design, unsigned bound) : d(design)
{
    rmp_assert(bound >= 1, "bound must be positive");
    frames.reserve(bound);
    inputWords.reserve(bound);
    while (frames.size() < bound) {
        if (!obs::enabled()) {
            buildFrame();
            continue;
        }
        obs::Span span("bmc-unroll", "bmc");
        uint64_t nodes0 = g.numNodes();
        uint64_t t0 = obs::nowNs();
        buildFrame();
        span.arg("frame", frames.size() - 1);
        span.arg("aig_nodes_added", g.numNodes() - nodes0);
        obs::Registry &reg = obs::Registry::global();
        reg.histogram("bmc.unroll.frame_ns").record(obs::nowNs() - t0);
        reg.counter("bmc.unroll.frames").add(1);
        reg.counter("bmc.unroll.aig_nodes").add(g.numNodes() - nodes0);
    }
}

const Word &
Unrolling::sig(unsigned t, SigId id) const
{
    rmp_assert(t < frames.size(), "frame %u beyond the unrolling", t);
    return frames[t][id];
}

AigLit
Unrolling::sigBit(unsigned t, SigId id, unsigned bit) const
{
    const Word &w = sig(t, id);
    rmp_assert(bit < w.size(), "sigBit out of range");
    return w[bit];
}

AigLit
Unrolling::inputLit(unsigned t, SigId id, unsigned bit) const
{
    rmp_assert(t < frames.size(), "frame %u beyond the unrolling", t);
    for (size_t i = 0; i < d.inputs().size(); i++)
        if (d.inputs()[i] == id)
            return inputWords[t][i][bit];
    rmp_panic("inputLit: %u is not an input", id);
}

AigLit
Unrolling::sigEqConst(Aig &overlay, unsigned t, SigId id,
                      uint64_t value) const
{
    const Word &w = sig(t, id);
    std::vector<AigLit> bits;
    bits.reserve(w.size());
    for (size_t i = 0; i < w.size(); i++) {
        bool bit = (value >> i) & 1;
        bits.push_back(bit ? w[i] : aigNot(w[i]));
    }
    return overlay.mkAndN(bits);
}

namespace
{

/** Ripple-carry a + b + cin; returns sum, sets carry-out. */
Word
rippleAdd(Aig &g, const Word &a, const Word &b, AigLit cin, AigLit *cout)
{
    Word s(a.size());
    AigLit c = cin;
    for (size_t i = 0; i < a.size(); i++) {
        AigLit axb = g.mkXor(a[i], b[i]);
        s[i] = g.mkXor(axb, c);
        c = g.mkOr(g.mkAnd(a[i], b[i]), g.mkAnd(c, axb));
    }
    if (cout)
        *cout = c;
    return s;
}

Word
notWord(Aig &, const Word &a)
{
    Word r(a.size());
    for (size_t i = 0; i < a.size(); i++)
        r[i] = aigNot(a[i]);
    return r;
}

} // anonymous namespace

void
Unrolling::buildFrame()
{
    unsigned t = static_cast<unsigned>(frames.size());
    frames.emplace_back(d.numCells());
    inputWords.emplace_back(d.inputs().size());
    auto &fr = frames[t];

    // Sources: inputs get fresh AIG inputs; registers get reset constants
    // (frame 0) or the previous frame's next-state words.
    for (size_t i = 0; i < d.inputs().size(); i++) {
        SigId id = d.inputs()[i];
        unsigned w = d.cell(id).width;
        Word word(w);
        for (unsigned bit = 0; bit < w; bit++)
            word[bit] = g.addInput();
        inputWords[t][i] = word;
        fr[id] = std::move(word);
    }
    for (SigId r : d.registers()) {
        const Cell &c = d.cell(r);
        Word word(c.width);
        if (t == 0) {
            for (unsigned bit = 0; bit < c.width; bit++)
                word[bit] = c.cval.bit(bit) ? kTrue : kFalse;
        } else {
            word = frames[t - 1][c.args[0]];
        }
        fr[r] = std::move(word);
    }

    // Combinational cells in topological order.
    for (SigId id : d.topoOrder()) {
        const Cell &c = d.cell(id);
        auto &A = fr[c.args[0] == kNoSig ? id : c.args[0]];
        Word out;
        switch (c.op) {
          case Op::Const: {
              out.resize(c.width);
              for (unsigned i = 0; i < c.width; i++)
                  out[i] = c.cval.bit(i) ? kTrue : kFalse;
              break;
          }
          case Op::Not:
            out = notWord(g, A);
            break;
          case Op::And:
          case Op::Or:
          case Op::Xor: {
              const Word &B = fr[c.args[1]];
              out.resize(c.width);
              for (unsigned i = 0; i < c.width; i++) {
                  if (c.op == Op::And)
                      out[i] = g.mkAnd(A[i], B[i]);
                  else if (c.op == Op::Or)
                      out[i] = g.mkOr(A[i], B[i]);
                  else
                      out[i] = g.mkXor(A[i], B[i]);
              }
              break;
          }
          case Op::RedOr:
            out = {g.mkOrN(A)};
            break;
          case Op::RedAnd:
            out = {g.mkAndN(A)};
            break;
          case Op::Eq: {
              const Word &B = fr[c.args[1]];
              std::vector<AigLit> eqs(A.size());
              for (size_t i = 0; i < A.size(); i++)
                  eqs[i] = g.mkXnor(A[i], B[i]);
              out = {g.mkAndN(eqs)};
              break;
          }
          case Op::Ult: {
              const Word &B = fr[c.args[1]];
              // a < b  <=>  borrow out of a - b.
              AigLit borrow = kFalse;
              for (size_t i = 0; i < A.size(); i++) {
                  AigLit na = aigNot(A[i]);
                  borrow = g.mkOr(g.mkAnd(na, B[i]),
                                  g.mkAnd(g.mkOr(na, B[i]), borrow));
              }
              out = {borrow};
              break;
          }
          case Op::Add: {
              const Word &B = fr[c.args[1]];
              out = rippleAdd(g, A, B, kFalse, nullptr);
              break;
          }
          case Op::Sub: {
              const Word &B = fr[c.args[1]];
              out = rippleAdd(g, A, notWord(g, B), kTrue, nullptr);
              break;
          }
          case Op::Mul: {
              const Word &B = fr[c.args[1]];
              unsigned w = c.width;
              Word acc(w, kFalse);
              for (unsigned i = 0; i < w; i++) {
                  // Partial product: (a << i) & {w{b[i]}}, truncated.
                  Word pp(w, kFalse);
                  for (unsigned j = i; j < w; j++)
                      pp[j] = g.mkAnd(A[j - i], B[i]);
                  acc = rippleAdd(g, acc, pp, kFalse, nullptr);
              }
              out = acc;
              break;
          }
          case Op::Shl:
          case Op::Shr: {
              const Word &B = fr[c.args[1]];
              unsigned w = c.width;
              Word cur = A;
              // Barrel shifter over each bit of the shift amount.
              for (unsigned j = 0; j < B.size(); j++) {
                  uint64_t dist = 1ULL << j;
                  Word shifted(w, kFalse);
                  if (dist < w) {
                      for (unsigned i = 0; i < w; i++) {
                          if (c.op == Op::Shl) {
                              if (i >= dist)
                                  shifted[i] = cur[i - dist];
                          } else {
                              if (i + dist < w)
                                  shifted[i] = cur[i + dist];
                          }
                      }
                  }
                  Word next(w);
                  for (unsigned i = 0; i < w; i++)
                      next[i] = g.mkMux(B[j], shifted[i], cur[i]);
                  cur = std::move(next);
              }
              out = cur;
              break;
          }
          case Op::Mux: {
              const Word &T = fr[c.args[1]];
              const Word &F = fr[c.args[2]];
              AigLit sel = A[0];
              out.resize(c.width);
              for (unsigned i = 0; i < c.width; i++)
                  out[i] = g.mkMux(sel, T[i], F[i]);
              break;
          }
          case Op::Slice: {
              out.assign(A.begin() + c.aux0, A.begin() + c.aux0 + c.width);
              break;
          }
          case Op::Zext: {
              out = A;
              out.resize(c.width, kFalse);
              break;
          }
          case Op::Concat: {
              const Word &B = fr[c.args[1]];
              out = B;
              out.insert(out.end(), A.begin(), A.end());
              break;
          }
          default:
            rmp_panic("buildFrame: unexpected op %s", opName(c.op));
        }
        rmp_assert(out.size() == c.width, "bit-blast width mismatch for %s",
                   opName(c.op));
        fr[id] = std::move(out);
    }
}

} // namespace rmp::bmc
