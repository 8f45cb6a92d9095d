/**
 * @file
 * Time-frame unrolling of a netlist into an AIG.
 *
 * Frame 0 registers take their reset values (the paper's "valid reset
 * state", §V-B); frame t>0 registers take the previous frame's next-state
 * values. Inputs are fresh AIG inputs per frame, which is exactly the
 * paper's setup of driving issued instructions at the IFR with the model
 * checker (§VI) — constraints on those inputs come from assume properties.
 */

#ifndef BMC_UNROLL_HH
#define BMC_UNROLL_HH

#include <vector>

#include "bmc/aig.hh"
#include "rtlir/design.hh"

namespace rmp::bmc
{

/** A word as a vector of AIG literals, LSB first. */
using Word = std::vector<AigLit>;

/**
 * Lazily bit-blasts frames of a Design into one shared AIG.
 *
 * frame(t) materializes frames 0..t. sig(t, id) returns the literals of
 * signal @p id during cycle t. inputVar(t, id, bit) exposes the AIG input
 * node index backing an Input cell bit, for witness extraction. Every
 * cell of the design is bit-blasted in every frame.
 */
class Unrolling
{
  public:
    explicit Unrolling(const Design &design) : d(design) {}

    const Design &design() const { return d; }
    Aig &aig() { return g; }
    const Aig &aig() const { return g; }

    /** Ensure frames 0..t exist. */
    void ensureFrames(unsigned t);

    /** Number of materialized frames. */
    unsigned numFrames() const { return static_cast<unsigned>(frames.size()); }

    /** Literals of signal @p id at frame @p t (materializes frames). */
    const Word &sig(unsigned t, SigId id);

    /** Single bit of a signal at a frame. */
    AigLit sigBit(unsigned t, SigId id, unsigned bit);

    /** AIG input literal backing bit @p bit of Input cell @p id at @p t. */
    AigLit inputLit(unsigned t, SigId id, unsigned bit) const;

    /** Equality of a signal with a constant, as one literal. */
    AigLit sigEqConst(unsigned t, SigId id, uint64_t value);

  private:
    void buildFrame();

    const Design &d;
    Aig g;
    /** frames[t][sigId] = word of literals. */
    std::vector<std::vector<Word>> frames;
    /** inputLits[t][inputIndexInDesign] = word of input literals. */
    std::vector<std::vector<Word>> inputWords;
};

} // namespace rmp::bmc

#endif // BMC_UNROLL_HH
