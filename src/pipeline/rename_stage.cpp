#include "pipeline/rename_stage.hpp"

namespace reno
{

unsigned
RenameStage::fusionExtra(const DynInst &d) const
{
    if (!params_.reno.cf)
        return 0;
    const Instruction &inst = d.inst();
    const bool disp0 = d.ren.numSrcs > 0 && d.ren.src[0].disp != 0;
    // A store's data displacement collapses on the dedicated store-data
    // path adder and never delays issue.
    const bool disp1 = d.ren.numSrcs > 1 && d.ren.src[1].disp != 0 &&
                       !isStore(inst.op);
    if (!disp0 && !disp1)
        return 0;
    if (!params_.freeAddAddFusion)
        return 1;  // ablation: every fusion costs a cycle
    if (inst.info().fusePenalty)
        return 1;  // general shift or multiply/divide input adder
    if (disp0 && disp1)
        return 1;  // both inputs displaced: augmented ALU case
    return 0;      // add-add fusion via 3-input carry-save adder
}

void
RenameStage::tick()
{
    renamer_.beginGroup();
    unsigned n = 0;
    while (n < params_.renameWidth && !s_.fetchBuf.empty()) {
        DynInst &d = *s_.fetchBuf.front();
        if (d.fetchReady > s_.now)
            break;
        const Instruction &inst = d.inst();
        const bool sys = inst.op == Opcode::SYSCALL;

        if (s_.rob.size() >= params_.robEntries) {
            ++stats_.stallRob;
            s_.renameStall = RenameStall::Rob;
            s_.renameStallCycle = s_.now;
            break;
        }
        if (sys && !s_.rob.empty())
            break;  // serialize
        if (!sys && s_.iqCount >= params_.iqEntries) {
            ++stats_.stallIq;
            s_.renameStall = RenameStall::Iq;
            s_.renameStallCycle = s_.now;
            break;
        }
        if (d.isLoadInst() && s_.lqCount >= params_.lqEntries) {
            ++stats_.stallLsq;
            s_.renameStall = RenameStall::Lsq;
            s_.renameStallCycle = s_.now;
            break;
        }
        if (d.isStoreInst() && s_.sqCount >= params_.sqEntries) {
            ++stats_.stallLsq;
            s_.renameStall = RenameStall::Lsq;
            s_.renameStallCycle = s_.now;
            break;
        }
        if (inst.hasDest() && !renamer_.ensureFreePreg()) {
            ++stats_.stallPregs;
            s_.renameStall = RenameStall::Pregs;
            s_.renameStallCycle = s_.now;
            break;
        }

        d.ren = renamer_.rename(RenameIn{inst, d.rec.result});
        d.renamed = true;
        d.renameCycle = s_.now;
        d.readyEarliest = s_.now + params_.renameDepth;
        const OpInfo &info = inst.info();
        d.cls = info.cls;
        d.latency = static_cast<std::uint8_t>(info.latency);
        d.memSize = static_cast<std::uint8_t>(info.memSize);
        d.fuseExtra = static_cast<std::uint8_t>(fusionExtra(d));

        if (sys) {
            d.completeCycle = d.readyEarliest;
            if (d.ren.hasDest) {
                s_.pregReady[d.ren.destPreg] = d.completeCycle;
                s_.pregIssue[d.ren.destPreg] = InvalidCycle;
                s_.pregProducer[d.ren.destPreg] = d.seq;
            }
        } else if (d.ren.eliminated()) {
            // Collapsed: no issue queue entry, no execution; the
            // instruction simply flows to retirement. Consumers track
            // the shared register's original producer.
            d.completeCycle = d.readyEarliest;
        } else {
            d.inIq = true;
            ++s_.iqCount;
            if (d.isLoadInst()) {
                d.inLq = true;
                ++s_.lqCount;
            }
            if (d.isStoreInst()) {
                d.inSq = true;
                ++s_.sqCount;
                d.storeSet = ssets_.storeDispatched(d.rec.pc, d.seq);
            }
            if (d.ren.hasDest) {
                s_.pregReady[d.ren.destPreg] = InvalidCycle;
                s_.pregIssue[d.ren.destPreg] = InvalidCycle;
                s_.pregProducer[d.ren.destPreg] = d.seq;
            }
            s_.dispatch(d);
        }

        if (d.isLoadInst())
            s_.robLoads.push_back(&d);
        if (d.isStoreInst())
            s_.robStores.push_back(&d);
        s_.rob.push_back(s_.fetchBuf.front());
        s_.fetchBuf.pop_front();
        ++n;
        if (sys)
            break;
    }
}

} // namespace reno
