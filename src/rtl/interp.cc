#include "rtl/interp.hh"


#include "util/logging.hh"

namespace parendi::rtl {

Interpreter::Interpreter(Netlist netlist, const LowerOptions &lower,
                         uint32_t replicas)
    : nl(std::move(netlist))
{
    ProgramBuilder builder(nl);
    builder.addAll();
    prog = builder.build();
    lowerProgram(prog, lower);
    state = std::make_unique<EvalState>(prog, replicas);
    // Evaluate combinational logic once so outputs are observable
    // before the first clock edge.
    state->evalComb();
}

void
Interpreter::step(size_t n)
{
    if (profiler_) {
        stepProfiled(n);
        return;
    }
    for (size_t i = 0; i < n; ++i) {
        state->commitWrites();
        state->latchRegisters();
        state->evalComb();
        ++cycleCount;
    }
}

void
Interpreter::stepProfiled(size_t n)
{
    obs::SuperstepProfiler &prof = *profiler_;
    bool native = state->hasNativeEval();
    for (size_t i = 0; i < n; ++i) {
        prof.beginCycle();
        if (prof.sampling()) {
            uint64_t t0 = obs::tick();
            state->commitWrites();
            uint64_t t1 = obs::tick();
            prof.record(0, obs::Phase::Commit, t0, t1);
            state->latchRegisters();
            uint64_t t2 = obs::tick();
            prof.record(0, obs::Phase::Latch, t1, t2);
            state->evalComb();
            uint64_t t3 = obs::tick();
            prof.record(0, obs::Phase::Eval, t2, t3);
            // There is no exchange in a single-program engine; record
            // a zero-width interval so aggregation sees all four
            // superstep phases for this cycle.
            prof.record(0, obs::Phase::Exchange, t2, t2);
            prof.recordShardEval(0, t3 - t2);
        } else {
            state->commitWrites();
            state->latchRegisters();
            state->evalComb();
        }
        // Attribute only the work the eval actually did: with activity
        // guards on, skipped groups' instructions don't count.
        ctrInstrs_->add(state->lastEvalInstrs());
        if (uint32_t total = state->lastGroupsTotal()) {
            ctrGroupsTotal_->add(total);
            uint32_t run = state->lastGroupsRun();
            if (total > run)
                ctrGroupsSkipped_->add(total - run);
        }
        if (native)
            ctrNative_->add(1);
        prof.endCycle();
        ++cycleCount;
    }
}

bool
Interpreter::enableProfiling(const obs::ProfileOptions &opt)
{
    if (profiler_)
        return true;
    profiler_ = std::make_unique<obs::SuperstepProfiler>(1, 1, opt);
    obs::Counters &c = profiler_->counters();
    ctrInstrs_ = &c.get(obs::kInstrsRetired);
    ctrNative_ = &c.get(obs::kNativeKernelInvocations);
    ctrGroupsSkipped_ = &c.get(obs::kEvalGroupsSkipped);
    ctrGroupsTotal_ = &c.get(obs::kEvalGroupsTotal);
    return true;
}

void
Interpreter::reset()
{
    state->reset();
    state->evalComb();
    cycleCount = 0;
}

void
Interpreter::poke(const std::string &input, const BitVec &value)
{
    PortId id = nl.findInput(input);
    if (id == nl.numInputs())
        fatal("no input port named %s", input.c_str());
    for (const ProgPort &p : prog.inputs) {
        if (p.port == id) {
            if (value.width() != p.width)
                fatal("poke %s: width %u != port width %u",
                      input.c_str(), value.width(), p.width);
            state->writeSlot(p.slot, value);
            // Re-evaluate so pokes are visible combinationally.
            state->evalComb();
            return;
        }
    }
    fatal("input port %s not in program", input.c_str());
}

void
Interpreter::poke(const std::string &input, uint64_t value)
{
    PortId id = nl.findInput(input);
    if (id == nl.numInputs())
        fatal("no input port named %s", input.c_str());
    poke(input, BitVec(nl.input(id).width, value));
}

void
Interpreter::exportArch(core::ArchState &out) const
{
    uint32_t lanes = state->lanes();
    out.cycles = cycleCount;
    out.lanes = lanes;
    out.regs.assign(nl.numRegisters(), {});
    for (RegId r = 0; r < nl.numRegisters(); ++r)
        out.regs[r].assign(lanes, nl.reg(r).init);
    for (const ProgReg &pr : prog.regs)
        for (uint32_t l = 0; l < lanes; ++l)
            out.regs[pr.reg][l] = state->readSlot(pr.cur, pr.width, l);
    out.mems.assign(nl.numMemories(), {});
    for (MemId m = 0; m < nl.numMemories(); ++m)
        out.mems[m].assign(uint64_t(nl.mem(m).depth) * lanes,
                           BitVec(nl.mem(m).width));
    for (size_t i = 0; i < prog.mems.size(); ++i) {
        const ProgMem &pm = prog.mems[i];
        for (uint64_t e = 0; e < pm.depth; ++e)
            for (uint32_t l = 0; l < lanes; ++l)
                out.mems[pm.mem][e * lanes + l] = state->readMemEntry(
                    static_cast<uint32_t>(i), e, nl.mem(pm.mem).width,
                    l);
    }
    out.inputs.assign(nl.numInputs(), {});
    for (PortId p = 0; p < nl.numInputs(); ++p)
        out.inputs[p].assign(lanes, BitVec(nl.input(p).width));
    for (const ProgPort &pp : prog.inputs)
        for (uint32_t l = 0; l < lanes; ++l)
            out.inputs[pp.port][l] =
                state->readSlot(pp.slot, pp.width, l);
}

void
Interpreter::importArch(const core::ArchState &st)
{
    uint32_t lanes = state->lanes();
    if (st.lanes != lanes)
        fatal("importArch: state holds %u lanes, this engine runs %u",
              st.lanes, lanes);
    if (st.regs.size() != nl.numRegisters() ||
        st.mems.size() != nl.numMemories() ||
        st.inputs.size() != nl.numInputs())
        fatal("importArch: state shape does not match the design");
    for (const ProgReg &pr : prog.regs) {
        const auto &perLane = st.regs[pr.reg];
        if (perLane.size() != lanes)
            fatal("importArch: register %s lane count mismatch",
                  nl.reg(pr.reg).name.c_str());
        for (uint32_t l = 0; l < lanes; ++l) {
            if (perLane[l].width() != pr.width)
                fatal("importArch: register %s width mismatch",
                      nl.reg(pr.reg).name.c_str());
            state->writeSlotLane(pr.cur, perLane[l], l);
        }
    }
    for (size_t i = 0; i < prog.mems.size(); ++i) {
        const ProgMem &pm = prog.mems[i];
        const Memory &mem = nl.mem(pm.mem);
        const auto &entries = st.mems[pm.mem];
        if (entries.size() != uint64_t(mem.depth) * lanes)
            fatal("importArch: memory %s entry count mismatch",
                  mem.name.c_str());
        for (uint64_t e = 0; e < pm.depth; ++e) {
            for (uint32_t l = 0; l < lanes; ++l) {
                const BitVec &v = entries[e * lanes + l];
                if (v.width() != mem.width)
                    fatal("importArch: memory %s width mismatch",
                          mem.name.c_str());
                state->writeMemEntry(static_cast<uint32_t>(i), e, v, l);
            }
        }
    }
    for (const ProgPort &pp : prog.inputs) {
        const auto &perLane = st.inputs[pp.port];
        if (perLane.size() != lanes)
            fatal("importArch: input %s lane count mismatch",
                  nl.input(pp.port).name.c_str());
        for (uint32_t l = 0; l < lanes; ++l) {
            if (perLane[l].width() != pp.width)
                fatal("importArch: input %s width mismatch",
                      nl.input(pp.port).name.c_str());
            state->writeSlotLane(pp.slot, perLane[l], l);
        }
    }
    cycleCount = st.cycles;
    // Rebuild every combinational slot from the imported architectural
    // values; pending deferred writes and next-values are recomputed
    // exactly as in the exporting engine (the cycle order is
    // commit -> latch -> eval, so at-rest comb state is a pure function
    // of regs + mems + inputs).
    state->evalComb();
}

BitVec
Interpreter::peek(const std::string &output) const
{
    PortId id = nl.findOutput(output);
    if (id == nl.numOutputs())
        fatal("no output port named %s", output.c_str());
    for (const ProgPort &p : prog.outputs)
        if (p.port == id)
            return state->readSlot(p.slot, p.width);
    fatal("output port %s not in program", output.c_str());
}

BitVec
Interpreter::peekRegister(const std::string &reg) const
{
    RegId id = nl.findRegister(reg);
    if (id == nl.numRegisters())
        fatal("no register named %s", reg.c_str());
    for (const ProgReg &r : prog.regs)
        if (r.reg == id)
            return state->readSlot(r.cur, r.width);
    fatal("register %s not in program", reg.c_str());
}

void
Interpreter::peekInto(const std::string &output, BitVec &out) const
{
    PortId id = nl.findOutput(output);
    if (id == nl.numOutputs())
        fatal("no output port named %s", output.c_str());
    for (const ProgPort &p : prog.outputs) {
        if (p.port == id) {
            state->readSlotInto(p.slot, p.width, out);
            return;
        }
    }
    fatal("output port %s not in program", output.c_str());
}

void
Interpreter::peekRegisterInto(const std::string &reg, BitVec &out) const
{
    RegId id = nl.findRegister(reg);
    if (id == nl.numRegisters())
        fatal("no register named %s", reg.c_str());
    for (const ProgReg &r : prog.regs) {
        if (r.reg == id) {
            state->readSlotInto(r.cur, r.width, out);
            return;
        }
    }
    fatal("register %s not in program", reg.c_str());
}

BitVec
Interpreter::peekMemory(const std::string &mem, uint64_t index) const
{
    return peekMemoryLane(mem, index, 0);
}

void
Interpreter::pokeLane(const std::string &input, const BitVec &value,
                      uint32_t lane)
{
    if (lane >= state->lanes())
        fatal("pokeLane: lane %u out of range (replicas=%u)", lane,
              state->lanes());
    PortId id = nl.findInput(input);
    if (id == nl.numInputs())
        fatal("no input port named %s", input.c_str());
    for (const ProgPort &p : prog.inputs) {
        if (p.port == id) {
            if (value.width() != p.width)
                fatal("poke %s: width %u != port width %u",
                      input.c_str(), value.width(), p.width);
            state->writeSlotLane(p.slot, value, lane);
            state->evalComb();
            return;
        }
    }
    fatal("input port %s not in program", input.c_str());
}

void
Interpreter::pokeLane(const std::string &input, uint64_t value,
                      uint32_t lane)
{
    PortId id = nl.findInput(input);
    if (id == nl.numInputs())
        fatal("no input port named %s", input.c_str());
    pokeLane(input, BitVec(nl.input(id).width, value), lane);
}

BitVec
Interpreter::peekLane(const std::string &output, uint32_t lane) const
{
    if (lane >= state->lanes())
        fatal("peekLane: lane %u out of range (replicas=%u)", lane,
              state->lanes());
    PortId id = nl.findOutput(output);
    if (id == nl.numOutputs())
        fatal("no output port named %s", output.c_str());
    for (const ProgPort &p : prog.outputs)
        if (p.port == id)
            return state->readSlot(p.slot, p.width, lane);
    fatal("output port %s not in program", output.c_str());
}

BitVec
Interpreter::peekRegisterLane(const std::string &reg, uint32_t lane) const
{
    if (lane >= state->lanes())
        fatal("peekRegisterLane: lane %u out of range (replicas=%u)",
              lane, state->lanes());
    RegId id = nl.findRegister(reg);
    if (id == nl.numRegisters())
        fatal("no register named %s", reg.c_str());
    for (const ProgReg &r : prog.regs)
        if (r.reg == id)
            return state->readSlot(r.cur, r.width, lane);
    fatal("register %s not in program", reg.c_str());
}

BitVec
Interpreter::peekMemoryLane(const std::string &mem, uint64_t index,
                            uint32_t lane) const
{
    if (lane >= state->lanes())
        fatal("peekMemoryLane: lane %u out of range (replicas=%u)", lane,
              state->lanes());
    MemId id = nl.findMemory(mem);
    if (id == nl.numMemories())
        fatal("no memory named %s", mem.c_str());
    for (size_t i = 0; i < prog.mems.size(); ++i) {
        const ProgMem &pm = prog.mems[i];
        if (pm.mem != id)
            continue;
        if (index >= pm.depth)
            fatal("memory %s index %llu out of range", mem.c_str(),
                  static_cast<unsigned long long>(index));
        return state->readMemEntry(static_cast<uint32_t>(i), index,
                                   nl.mem(id).width, lane);
    }
    fatal("memory %s not in program", mem.c_str());
}

} // namespace parendi::rtl
