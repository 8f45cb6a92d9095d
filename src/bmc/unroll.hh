/**
 * @file
 * Time-frame unrolling of a netlist into an AIG.
 *
 * Frame 0 registers take their reset values (the paper's "valid reset
 * state", §V-B); frame t>0 registers take the previous frame's next-state
 * values. Inputs are fresh AIG inputs per frame, which is exactly the
 * paper's setup of driving issued instructions at the IFR with the model
 * checker (§VI) — constraints on those inputs come from assume properties.
 *
 * An unrolling is built whole, for a fixed number of frames, and is
 * read-only afterwards, so one copy can serve several engines
 * (DESIGN.md §3d). Property logic never enters it: each engine compiles
 * its queries into its own overlay of aig().
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
 * The design bit-blasted over frames 0..bound-1 into one AIG.
 *
 * sig(t, id) returns the literals of signal @p id during cycle t.
 * inputLit(t, id, bit) exposes the AIG input literal backing an Input
 * cell bit, for witness extraction. Every cell of the design is
 * bit-blasted in every frame. Overlays of aig() hold the address of this
 * object's graph, so it is neither copied nor moved.
 */
class Unrolling
{
  public:
    /** Bit-blast frames 0..@p bound - 1 of @p design (@p bound >= 1). */
    Unrolling(const Design &design, unsigned bound);

    Unrolling(const Unrolling &) = delete;
    Unrolling &operator=(const Unrolling &) = delete;

    const Design &design() const { return d; }
    /** The frozen graph of every frame; the base of engine overlays. */
    const Aig &aig() const { return g; }

    /** Number of frames (the bound it was built for). */
    unsigned numFrames() const { return static_cast<unsigned>(frames.size()); }

    /** Literals of signal @p id at frame @p t < numFrames(). */
    const Word &sig(unsigned t, SigId id) const;

    /** Single bit of a signal at a frame. */
    AigLit sigBit(unsigned t, SigId id, unsigned bit) const;

    /** AIG input literal backing bit @p bit of Input cell @p id at @p t. */
    AigLit inputLit(unsigned t, SigId id, unsigned bit) const;

    /**
     * Equality of a signal with a constant, as one literal built into
     * @p overlay, an overlay of aig().
     */
    AigLit sigEqConst(Aig &overlay, unsigned t, SigId id,
                      uint64_t value) const;

  private:
    void buildFrame();

    const Design &d;
    Aig g;
    /** frames[t][sigId] = word of literals. */
    std::vector<std::vector<Word>> frames;
    /** inputWords[t][inputIndexInDesign] = word of input literals. */
    std::vector<std::vector<Word>> inputWords;
};

} // namespace rmp::bmc

#endif // BMC_UNROLL_HH
