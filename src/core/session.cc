#include "core/session.hh"

#include "ckpt/journal.hh"
#include "ckpt/snapshot.hh"
#include "util/logging.hh"

namespace parendi::core {

void
saveCheckpoint(const SimEngine &engine, std::ostream &out)
{
    ckpt::SnapshotWriter writer(out, engine.netlist());
    writer.write(engine);
}

void
restoreCheckpoint(SimEngine &engine, std::istream &in)
{
    ckpt::restoreSnapshotChain(in, engine);
}

SessionHandle::SessionHandle(std::unique_ptr<SimEngine> engine,
                             std::string designName)
    : engine_(std::move(engine)), designName_(std::move(designName))
{
    if (!engine_)
        panic("SessionHandle requires an engine");
    designHash_ = rtl::netlistHash(engine_->netlist());
}

void
SessionHandle::step(size_t n)
{
    engine_->step(n);
    if (journal_)
        journal_->recordStep(n);
}

void
SessionHandle::poke(const std::string &input, const rtl::BitVec &value)
{
    engine_->poke(input, value);
    if (journal_)
        journal_->recordPoke(input, value);
}

void
SessionHandle::pokeLane(const std::string &input,
                        const rtl::BitVec &value, uint32_t lane)
{
    engine_->pokeLane(input, value, lane);
    if (journal_)
        journal_->recordPoke(input, value, lane);
}

void
SessionHandle::reset()
{
    engine_->reset();
    if (journal_)
        journal_->recordReset();
}

void
SessionHandle::checkpoint(std::ostream &out)
{
    saveCheckpoint(*engine_, out);
    if (journal_)
        journal_->recordSnapshot(checkpoints_, engine_->cycles());
    ++checkpoints_;
}

void
SessionHandle::restore(std::istream &in)
{
    restoreCheckpoint(*engine_, in);
}

} // namespace parendi::core
