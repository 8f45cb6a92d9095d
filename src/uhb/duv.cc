#include "uhb/duv.hh"

#include "common/logging.hh"

namespace rmp::uhb
{

const char *
instrClassName(InstrClass c)
{
    switch (c) {
      case InstrClass::Alu: return "alu";
      case InstrClass::Mul: return "mul";
      case InstrClass::DivRem: return "div/rem";
      case InstrClass::Load: return "load";
      case InstrClass::Store: return "store";
      case InstrClass::Branch: return "branch";
      case InstrClass::Jump: return "jump";
    }
    return "?";
}

const InstrSpec &
DuvInfo::instr(const std::string &name) const
{
    return instrs[instrId(name)];
}

uint64_t
DuvInfo::encode(const std::string &name, uint64_t rd, uint64_t rs1,
                uint64_t rs2, uint64_t imm) const
{
    const InstrSpec &spec = instr(name);
    uint64_t w = spec.opcode << opcodeLo;
    auto put = [&](uint64_t val, unsigned lo, unsigned width) {
        if (width == 0) {
            rmp_assert(val == 0, "field not present in %s encoding",
                       this->name.c_str());
            return;
        }
        rmp_assert(val <= BitVec::maskOf(width), "field value too wide");
        w |= val << lo;
    };
    put(rd, layout.rdLo, layout.rdW);
    put(rs1, layout.rs1Lo, layout.rs1W);
    put(rs2, layout.rs2Lo, layout.rs2W);
    put(imm, layout.immLo, layout.immW);
    return w;
}

InstrId
DuvInfo::instrId(const std::string &name) const
{
    std::optional<InstrId> id = findInstr(name);
    if (!id)
        rmp_panic("unknown instruction %s on %s", name.c_str(),
                  this->name.c_str());
    return *id;
}

std::optional<InstrId>
DuvInfo::findInstr(const std::string &name) const
{
    for (size_t i = 0; i < instrs.size(); i++)
        if (instrs[i].name == name)
            return static_cast<InstrId>(i);
    return std::nullopt;
}

} // namespace rmp::uhb
