#include "core/compiler.hh"

#include <chrono>

#include <sys/resource.h>

#include "util/logging.hh"

namespace parendi::core {

uint64_t
peakRssBytes()
{
    struct rusage ru;
    if (getrusage(RUSAGE_SELF, &ru) != 0)
        return 0;
    return static_cast<uint64_t>(ru.ru_maxrss) * 1024;
}

Simulation::Simulation(rtl::Netlist nl, const CompilerOptions &opt)
{
    auto start = std::chrono::steady_clock::now();

    nl.check();
    if (rtl::hasCombinationalLoop(nl))
        fatal("design %s has a combinational loop; Parendi cannot "
              "compile it (paper §5.3)", nl.name().c_str());

    if (opt.optimize)
        nl = rtl::optimize(nl, &report_.optStats);
    nl_ = std::make_shared<const rtl::Netlist>(std::move(nl));

    fibers_ = std::make_unique<fiber::FiberSet>(*nl_, opt.cost);

    partition::PartitionOptions popt;
    popt.chips = opt.chips;
    popt.tilesPerChip = opt.tilesPerChip;
    popt.single = opt.single;
    popt.multi = opt.multi;
    popt.merge = opt.merge;
    popt.merge.tileMemoryBytes = std::min<uint64_t>(
        popt.merge.tileMemoryBytes, opt.arch.tileMemoryBytes);
    parts_ = partition::partitionDesign(*fibers_, popt,
                                        &report_.mergeStats);

    machine_ = std::make_unique<ipu::IpuMachine>(
        nl_, *fibers_, parts_, opt.threads, opt.lower, opt.exec,
        opt.arch, opt.machine);

    auto end = std::chrono::steady_clock::now();
    report_.metrics = rtl::computeMetrics(*nl_);
    report_.fibers = fibers_->size();
    report_.processes = parts_.processes.size();
    report_.chips = opt.chips;
    report_.compileSeconds =
        std::chrono::duration<double>(end - start).count();
    report_.compileRssBytes = peakRssBytes();
    report_.intCutBytes = machine_->traffic().totalOnChipBytes;
    report_.extCutBytes = machine_->traffic().totalOffChipBytes;
    report_.maxTileMemBytes = machine_->maxTileMemBytes();
    report_.duplicationRatio = parts_.duplicationRatio(*fibers_);
}

std::unique_ptr<Simulation>
compile(rtl::Netlist nl, const CompilerOptions &opt)
{
    return std::make_unique<Simulation>(std::move(nl), opt);
}

} // namespace parendi::core
