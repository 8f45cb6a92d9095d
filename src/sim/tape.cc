#include "sim/tape.hh"

#include <algorithm>
#include <chrono>
#include <map>
#include <tuple>

#include "common/logging.hh"
#include "obs/obs.hh"
#include "obs/registry.hh"

namespace rmp::sim
{

const char *
topName(TOp op)
{
    switch (op) {
      case TOp::Not: return "not";
      case TOp::And: return "and";
      case TOp::Or: return "or";
      case TOp::Xor: return "xor";
      case TOp::RedOr: return "redor";
      case TOp::RedAnd: return "redand";
      case TOp::Eq: return "eq";
      case TOp::Ult: return "ult";
      case TOp::Add: return "add";
      case TOp::Sub: return "sub";
      case TOp::Mul: return "mul";
      case TOp::Shl: return "shl";
      case TOp::Shr: return "shr";
      case TOp::Mux: return "mux";
      case TOp::Slice: return "slice";
      case TOp::Concat: return "concat";
    }
    return "?";
}

namespace
{

/** Fold one comb cell whose arguments are all known constants. The
 *  semantics must match Simulator::step() bit for bit. */
uint64_t
foldCell(const Design &d, const Cell &c, const std::vector<uint64_t> &cv)
{
    uint64_t mask = BitVec::maskOf(c.width);
    auto a = [&]() { return cv[c.args[0]]; };
    auto b = [&]() { return cv[c.args[1]]; };
    switch (c.op) {
      case Op::Not: return ~a() & mask;
      case Op::And: return a() & b();
      case Op::Or: return a() | b();
      case Op::Xor: return a() ^ b();
      case Op::RedOr: return a() != 0;
      case Op::RedAnd:
        return a() == BitVec::maskOf(d.cell(c.args[0]).width);
      case Op::Eq: return a() == b();
      case Op::Ult: return a() < b();
      case Op::Add: return (a() + b()) & mask;
      case Op::Sub: return (a() - b()) & mask;
      case Op::Mul: return (a() * b()) & mask;
      case Op::Shl: {
          uint64_t sh = b();
          return sh >= 64 ? 0 : (a() << sh) & mask;
      }
      case Op::Shr: {
          uint64_t sh = b();
          return sh >= 64 ? 0 : (a() >> sh) & mask;
      }
      case Op::Mux: return a() ? cv[c.args[1]] : cv[c.args[2]];
      case Op::Slice: return (a() >> c.aux0) & mask;
      case Op::Concat:
        return (a() << d.cell(c.args[1]).width) | b();
      case Op::Zext: return a();
      default:
        rmp_panic("foldCell: unexpected op %s", opName(c.op));
    }
}

TOp
lowerOp(Op op)
{
    switch (op) {
      case Op::Not: return TOp::Not;
      case Op::And: return TOp::And;
      case Op::Or: return TOp::Or;
      case Op::Xor: return TOp::Xor;
      case Op::RedOr: return TOp::RedOr;
      case Op::RedAnd: return TOp::RedAnd;
      case Op::Eq: return TOp::Eq;
      case Op::Ult: return TOp::Ult;
      case Op::Add: return TOp::Add;
      case Op::Sub: return TOp::Sub;
      case Op::Mul: return TOp::Mul;
      case Op::Shl: return TOp::Shl;
      case Op::Shr: return TOp::Shr;
      case Op::Mux: return TOp::Mux;
      case Op::Slice: return TOp::Slice;
      case Op::Concat: return TOp::Concat;
      default:
        rmp_panic("lowerOp: unexpected op %s", opName(op));
    }
}

} // anonymous namespace

Tape
compileTape(const Design &d, const std::vector<SigId> &watch)
{
    auto t0 = std::chrono::steady_clock::now();
    Tape tp;
    tp.cellsTotal = static_cast<uint32_t>(d.numCells());
    tp.slotOf.assign(d.numCells(), kNoSlot);
    tp.inputOrdinal.assign(d.numCells(), kNoInput);

    // Dedupe the watch set, preserving the caller's order: watch indices
    // are positional for BatchSim::watched().
    std::vector<uint8_t> inWatch(d.numCells(), 0);
    for (SigId s : watch) {
        rmp_assert(s < d.numCells(), "watch signal out of range");
        if (!inWatch[s]) {
            inWatch[s] = 1;
            tp.watchSigs.push_back(s);
        }
    }

    // Liveness: everything the register cone (each register's next-state
    // function) or the watch set transitively reads. Registers themselves
    // always latch, so every reg and its next-state arg is a root.
    std::vector<uint8_t> live(d.numCells(), 0);
    std::vector<SigId> stack;
    auto root = [&](SigId s) {
        if (s != kNoSig && !live[s]) {
            live[s] = 1;
            stack.push_back(s);
        }
    };
    for (SigId s : tp.watchSigs)
        root(s);
    for (SigId r : d.registers()) {
        root(r);
        root(d.cell(r).args[0]);
    }
    while (!stack.empty()) {
        SigId id = stack.back();
        stack.pop_back();
        const Cell &c = d.cell(id);
        if (c.op == Op::Reg)
            continue; // sequential boundary: next-state is its own root
        for (unsigned i = 0; i < c.numArgs(); i++)
            root(c.args[i]);
    }

    // Constant folding, in topo order so every argument's foldability
    // is known first.
    std::vector<uint8_t> folded(d.numCells(), 0);
    std::vector<uint64_t> cval(d.numCells(), 0);
    for (SigId id = 0; id < d.numCells(); id++) {
        if (d.cell(id).op == Op::Const) {
            folded[id] = 1;
            cval[id] = d.cell(id).cval.value();
        }
    }
    for (SigId id : d.topoOrder()) {
        const Cell &c = d.cell(id);
        if (folded[id])
            continue;
        bool all_const = c.numArgs() > 0;
        for (unsigned i = 0; i < c.numArgs(); i++)
            all_const = all_const && folded[c.args[i]];
        if (all_const) {
            folded[id] = 1;
            cval[id] = foldCell(d, c, cval);
        }
    }
    for (SigId id = 0; id < d.numCells(); id++)
        if (live[id] && folded[id] && d.cell(id).op != Op::Const)
            tp.constsFolded++;

    // Count pruned comb cells (for the stats only).
    for (SigId id = 0; id < d.numCells(); id++)
        if (!live[id] && isCombOp(d.cell(id).op))
            tp.cellsPruned++;

    // Slot allocation. Slots carry their reset value and whether they are
    // provably constant (never written by an op, a latch, or an input
    // scatter) — the aliasing rules below key off that.
    std::vector<uint8_t> slotConst;
    std::vector<uint64_t> slotVal;
    auto fresh = [&](uint64_t initv, bool is_const) -> Slot {
        slotConst.push_back(is_const);
        slotVal.push_back(initv);
        tp.init.push_back(initv);
        return tp.numSlots++;
    };

    // Registers and live inputs first: they persist across cycles, so
    // keeping them in one dense block keeps the latch and input-scatter
    // loops on few cache lines.
    for (SigId r : d.registers())
        tp.slotOf[r] = fresh(d.cell(r).cval.value(), false);
    for (SigId in : d.inputs())
        if (live[in])
            tp.slotOf[in] = fresh(0, false);

    // Folded cells share one pooled slot per distinct constant value.
    std::map<uint64_t, Slot> pool;
    auto constSlot = [&](uint64_t v) -> Slot {
        auto [it, inserted] = pool.try_emplace(v, 0);
        if (inserted)
            it->second = fresh(v, true);
        return it->second;
    };
    for (SigId id = 0; id < d.numCells(); id++)
        if (live[id] && folded[id])
            tp.slotOf[id] = constSlot(cval[id]);

    // Levelize the remaining comb cells (level = longest path from a
    // register / input / constant) and emit level by level, grouped by
    // opcode within a level. Any level order is a valid topo order, and
    // opcode grouping gives the execution kernel long same-opcode runs
    // that amortize its dispatch cost. Zext sits one above its operand so
    // its alias resolves before any same-level consumer reads it.
    std::vector<uint32_t> level(d.numCells(), 0);
    std::vector<SigId> emit;
    for (SigId id : d.topoOrder()) {
        const Cell &c = d.cell(id);
        if (!live[id] || folded[id])
            continue;
        uint32_t lv = 0;
        for (unsigned i = 0; i < c.numArgs(); i++)
            lv = std::max(lv, level[c.args[i]]);
        level[id] = lv + 1;
        emit.push_back(id);
    }
    std::stable_sort(emit.begin(), emit.end(), [&](SigId x, SigId y) {
        if (level[x] != level[y])
            return level[x] < level[y];
        return d.cell(x).op < d.cell(y).op;
    });

    // Emission, with three op-eliding rewrites on top of the folding and
    // pruning above — all semantics-preserving on masked slot values:
    //  - identity aliasing (And with all-ones, Or/Xor/Add with zero, a
    //    shift or slice by zero, a Mux whose select folded, ...): the
    //    cell shares its surviving operand's slot;
    //  - absorption (And with zero, Mul with zero, Or with all-ones):
    //    the cell collapses into the constant pool;
    //  - common-subexpression elimination: a cell whose lowered op tuple
    //    was already emitted shares the original's slot (commutative ops
    //    are normalized first).
    // An aliased value can only be widened, never narrowed: every rule
    // checks the surviving operand's width mask fits the result's.
    std::map<std::tuple<uint8_t, Slot, Slot, Slot, uint32_t, uint64_t>,
             Slot>
        cse;
    for (SigId id : emit) {
        const Cell &c = d.cell(id);
        if (c.op == Op::Zext) {
            tp.slotOf[id] = tp.slotOf[c.args[0]];
            rmp_assert(tp.slotOf[id] != kNoSlot, "zext arg unassigned");
            continue;
        }
        uint64_t mask = BitVec::maskOf(c.width);
        Slot sa = tp.slotOf[c.args[0]];
        Slot sb = c.numArgs() > 1 ? tp.slotOf[c.args[1]] : 0;
        Slot sc = c.numArgs() > 2 ? tp.slotOf[c.args[2]] : 0;
        uint32_t aux = 0;
        switch (c.op) {
          case Op::RedAnd:
            // Result is 1-bit; the mask field carries the operand's full
            // mask the reduction compares against.
            mask = BitVec::maskOf(d.cell(c.args[0]).width);
            break;
          case Op::Slice:
            aux = c.aux0;
            break;
          case Op::Concat:
            aux = d.cell(c.args[1]).width;
            break;
          default:
            break;
        }

        // fits(i): operand i's values always fit the result mask, so
        // aliasing it cannot leak high bits.
        auto fits = [&](unsigned i) {
            return (BitVec::maskOf(d.cell(c.args[i]).width) & ~mask) == 0;
        };
        Slot alias = kNoSlot;
        const bool ca = slotConst[sa];
        const uint64_t caV = ca ? slotVal[sa] : 0;
        const bool cb = c.numArgs() > 1 && slotConst[sb];
        const uint64_t cbV = cb ? slotVal[sb] : 0;
        switch (c.op) {
          case Op::And:
            if ((ca && caV == 0) || (cb && cbV == 0))
                alias = constSlot(0);
            else if (ca && caV == mask && fits(1))
                alias = sb;
            else if ((cb && cbV == mask && fits(0)) || sa == sb)
                alias = sa;
            break;
          case Op::Or:
            if ((ca && caV == mask) || (cb && cbV == mask))
                alias = constSlot(mask);
            else if (ca && caV == 0 && fits(1))
                alias = sb;
            else if ((cb && cbV == 0 && fits(0)) || sa == sb)
                alias = sa;
            break;
          case Op::Xor:
            if (sa == sb)
                alias = constSlot(0);
            else if (ca && caV == 0 && fits(1))
                alias = sb;
            else if (cb && cbV == 0 && fits(0))
                alias = sa;
            break;
          case Op::Add:
            if (ca && caV == 0 && fits(1))
                alias = sb;
            else if (cb && cbV == 0 && fits(0))
                alias = sa;
            break;
          case Op::Sub:
            if (sa == sb)
                alias = constSlot(0);
            else if (cb && cbV == 0 && fits(0))
                alias = sa;
            break;
          case Op::Mul:
            if ((ca && caV == 0) || (cb && cbV == 0))
                alias = constSlot(0);
            else if (ca && caV == 1 && fits(1))
                alias = sb;
            else if (cb && cbV == 1 && fits(0))
                alias = sa;
            break;
          case Op::Eq:
            if (sa == sb)
                alias = constSlot(1);
            break;
          case Op::Ult:
            if (sa == sb)
                alias = constSlot(0);
            break;
          case Op::Shl:
          case Op::Shr:
            if (cb && cbV == 0 && fits(0))
                alias = sa;
            break;
          case Op::Mux:
            if (ca && caV != 0 && fits(1))
                alias = sb;
            else if (ca && caV == 0 && fits(2))
                alias = sc;
            else if (sb == sc && fits(1))
                alias = sb;
            break;
          case Op::Slice:
            if (c.aux0 == 0 && fits(0))
                alias = sa;
            break;
          case Op::Concat:
            if (ca && caV == 0)
                alias = sb; // result mask always covers the low operand
            break;
          default:
            break;
        }
        if (alias != kNoSlot) {
            tp.slotOf[id] = alias;
            tp.cellsAliased++;
            continue;
        }

        uint8_t opc = static_cast<uint8_t>(lowerOp(c.op));
        bool commutes = c.op == Op::And || c.op == Op::Or ||
                        c.op == Op::Xor || c.op == Op::Add ||
                        c.op == Op::Mul || c.op == Op::Eq;
        if (commutes && sb < sa)
            std::swap(sa, sb);
        auto key = std::make_tuple(opc, sa, sb, sc, aux, mask);
        if (auto it = cse.find(key); it != cse.end()) {
            tp.slotOf[id] = it->second;
            tp.cellsAliased++;
            continue;
        }
        Slot dst = fresh(0, false);
        tp.slotOf[id] = dst;
        cse.emplace(key, dst);
        tp.opc.push_back(opc);
        tp.dst.push_back(dst);
        tp.a.push_back(sa);
        tp.b.push_back(sb);
        tp.c.push_back(sc);
        tp.aux.push_back(aux);
        tp.mask.push_back(mask);
    }

    // Register latches (two-phase in BatchSim: reads complete before any
    // reg slot is overwritten, so Reg->Reg forwarding stays correct).
    for (SigId r : d.registers())
        tp.latches.push_back({tp.slotOf[r], tp.slotOf[d.cell(r).args[0]]});

    // Live inputs get dense ordinals in design-input order.
    for (SigId in : d.inputs()) {
        if (!live[in])
            continue; // value provably cannot reach a reg or watched sig
        tp.inputOrdinal[in] = static_cast<uint32_t>(tp.inputs.size());
        tp.inputs.push_back(
            {tp.slotOf[in], BitVec::maskOf(d.cell(in).width)});
    }

    tp.watchSlots.reserve(tp.watchSigs.size());
    for (SigId s : tp.watchSigs) {
        rmp_assert(tp.slotOf[s] != kNoSlot, "watched signal pruned");
        tp.watchSlots.push_back(tp.slotOf[s]);
    }

    tp.constsPooled = static_cast<uint32_t>(pool.size());
    tp.compileMs =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - t0)
            .count();
    if (obs::enabled()) {
        auto &reg = obs::Registry::global();
        reg.counter("sim.tape_compiles").add(1);
        reg.gauge("sim.tape_ops").set(static_cast<int64_t>(tp.numOps()));
        reg.gauge("sim.tape_slots").set(tp.numSlots);
        reg.gauge("sim.tape_consts").set(tp.constsPooled);
        reg.counter("sim.tape_cells_pruned").add(tp.cellsPruned);
        reg.counter("sim.tape_consts_folded").add(tp.constsFolded);
        reg.counter("sim.tape_cells_aliased").add(tp.cellsAliased);
        reg.histogram("sim.compile_ms")
            .record(static_cast<uint64_t>(tp.compileMs));
    }
    return tp;
}

} // namespace rmp::sim
