/**
 * @file
 * VCD (Value Change Dump) waveform tracing — the standard debug
 * output every RTL simulator provides (Verilator's --trace). The
 * writer emits IEEE-1364 VCD: a header declaring the traced signals,
 * then per-timestep deltas (only signals whose value changed).
 */

#ifndef PARENDI_RTL_VCD_HH
#define PARENDI_RTL_VCD_HH

#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "core/engine.hh"
#include "rtl/bitvec.hh"
#include "rtl/interp.hh"

namespace parendi::rtl {

/** Low-level VCD emitter over an arbitrary signal list. */
class VcdWriter
{
  public:
    /** Writes to @p out (not owned; must outlive the writer). */
    explicit VcdWriter(std::ostream &out);

    /** Declare a signal before writeHeader(); returns its index. */
    size_t addSignal(const std::string &name, uint16_t width);

    /** Emit the VCD header ($timescale, $var declarations, ...). */
    void writeHeader(const std::string &design);

    /**
     * Record one timestep. @p values must be aligned with the
     * declared signals; only changed values are dumped (all of them
     * at time 0).
     */
    void sample(uint64_t time, const std::vector<BitVec> &values);

    size_t numSignals() const { return signals.size(); }

  private:
    struct Signal
    {
        std::string name;
        uint16_t width;
        std::string id;     ///< short VCD identifier
        BitVec last;
        bool dumped = false;
    };

    std::string idFor(size_t index) const;
    void dumpValue(const Signal &s, const BitVec &v);

    std::ostream &out;
    std::vector<Signal> signals;
    bool headerDone = false;
};

/**
 * Convenience tracer around any SimEngine: traces all registers and
 * output ports each cycle. Works identically for the reference
 * interpreter, the cgen engine, the IPU machine, and the parallel host
 * interpreter (they are bit-identical, so so are their waveforms).
 */
class EngineTracer
{
  public:
    EngineTracer(core::SimEngine &sim, std::ostream &out);

    /** Step the engine and dump one VCD timestep. */
    void step(size_t n = 1);

  private:
    void sampleNow();

    core::SimEngine &sim;
    VcdWriter writer;
    std::vector<std::string> regNames;
    std::vector<std::string> outNames;
    /// Sampling scratch, sized once: peekInto() refills the BitVecs in
    /// place, so steady-state tracing does not touch the heap.
    std::vector<BitVec> values;
};

/// Historical name, from when only the reference interpreter traced.
using InterpreterTracer = EngineTracer;

} // namespace parendi::rtl

#endif // PARENDI_RTL_VCD_HH
