/**
 * @file
 * Reference single-threaded RTL interpreter (the golden model). It is
 * also the functional stand-in for "Verilator single-thread" in the
 * evaluation harness: a straight-line, full-cycle evaluation of the
 * whole design with no partitioning.
 */

#ifndef PARENDI_RTL_INTERP_HH
#define PARENDI_RTL_INTERP_HH

#include <memory>
#include <string>

#include "core/engine.hh"
#include "rtl/eval.hh"
#include "rtl/netlist.hh"

namespace parendi::rtl {

/**
 * Owns a compiled whole-design EvalProgram and its state, and exposes
 * cycle stepping plus name-based port/register/memory access.
 */
class Interpreter : public core::SimEngine
{
  public:
    /** Takes the netlist by value (copy or move) so the interpreter
     *  owns its design and temporaries are safe to pass. The compiled
     *  program is lowered (specialized + fused) by default; pass
     *  LowerOptions::none() for the fully generic A/B baseline.
     *  @p replicas > 1 builds a gang: R independent instances in one
     *  lane-major EvalState, stepped together. */
    explicit Interpreter(Netlist nl,
                         const LowerOptions &lower = LowerOptions{},
                         uint32_t replicas = 1);

    // The state holds a reference to the program member; the object
    // must stay put.
    Interpreter(const Interpreter &) = delete;
    Interpreter &operator=(const Interpreter &) = delete;

    const char *engineName() const override { return "interp"; }

    /** Simulate @p n full RTL cycles. */
    void step(size_t n = 1) override;

    /** Enable/disable activity-guarded evaluation (see
     *  EvalState::enableActivity). Returns false if the program has no
     *  activity plan; the always-eval path then stays in effect. */
    bool
    setActivity(bool on) override
    {
        return state->enableActivity(on);
    }
    bool
    activityEnabled() const override
    {
        return state->activityEnabled();
    }

    /** Cycles simulated since construction/reset. */
    uint64_t cycles() const override { return cycleCount; }

    /** Reset all state to initial values. */
    void reset() override;

    /** Drive an input port (takes effect from the next evaluation). */
    void poke(const std::string &input, const BitVec &value) override;
    void poke(const std::string &input, uint64_t value) override;

    /** Sample an output port as of the last completed cycle's
     *  combinational evaluation. */
    BitVec peek(const std::string &output) const override;

    /** Read a register's current value by name. */
    BitVec peekRegister(const std::string &reg) const override;

    /** Read one memory entry by memory name. */
    BitVec peekMemory(const std::string &mem,
                      uint64_t index) const override;

    // Gang lane access (see SimEngine). Scalar poke broadcasts to all
    // lanes; scalar peeks read lane 0.
    uint32_t replicas() const override { return state->lanes(); }
    void pokeLane(const std::string &input, const BitVec &value,
                  uint32_t lane) override;
    void pokeLane(const std::string &input, uint64_t value,
                  uint32_t lane) override;
    BitVec peekLane(const std::string &output,
                    uint32_t lane) const override;
    BitVec peekRegisterLane(const std::string &reg,
                            uint32_t lane) const override;
    BitVec peekMemoryLane(const std::string &mem, uint64_t index,
                          uint32_t lane) const override;

    /** Canonical architectural state (see SimEngine / src/ckpt). */
    void exportArch(core::ArchState &out) const override;
    void importArch(const core::ArchState &st) override;

    const Netlist &netlist() const override { return nl; }
    const EvalProgram &program() const { return prog; }

    /** Allocation-free peeks (see SimEngine): read straight out of the
     *  slot array into a caller-owned BitVec. */
    void peekInto(const std::string &output, BitVec &out) const override;
    void peekRegisterInto(const std::string &reg,
                          BitVec &out) const override;

    /** Attach an obs::SuperstepProfiler (one worker, one shard; the
     *  whole design is a single straight-line program here, so the
     *  commit/latch/eval phases are timed on worker 0 and the eval
     *  duration doubles as the single shard's straggler stat). Also
     *  covers CgenInterpreter — the native kernel runs inside
     *  evalComb(). Always succeeds. */
    bool enableProfiling(const obs::ProfileOptions &opt =
                             obs::ProfileOptions{}) override;
    obs::SuperstepProfiler *profiler() override
    {
        return profiler_.get();
    }
    const obs::SuperstepProfiler *
    profiler() const override
    {
        return profiler_.get();
    }

  protected:
    /** Mutable run state, for subclasses that install native kernels
     *  (rtl::CgenInterpreter). */
    EvalState &mutableState() { return *state; }

  private:
    void stepProfiled(size_t n);

    Netlist nl;
    EvalProgram prog;
    std::unique_ptr<EvalState> state;
    uint64_t cycleCount = 0;

    std::unique_ptr<obs::SuperstepProfiler> profiler_;
    obs::Counter *ctrInstrs_ = nullptr;
    obs::Counter *ctrNative_ = nullptr;
    obs::Counter *ctrGroupsSkipped_ = nullptr;
    obs::Counter *ctrGroupsTotal_ = nullptr;
};

} // namespace parendi::rtl

#endif // PARENDI_RTL_INTERP_HH
