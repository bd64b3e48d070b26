#include "pipeline/fetch_stage.hpp"

namespace reno
{

void
FetchStage::tick()
{
    if (s_.finished || s_.fetchBlocked > 0 || s_.now < s_.fetchResumeAt)
        return;

    const unsigned hit_lat = params_.mem.icache.latency;
    unsigned fetched = 0;
    unsigned taken_seen = 0;

    while (fetched < params_.fetchWidth &&
           s_.fetchBuf.size() < params_.fetchBufEntries &&
           !emu_.done()) {
        const Addr pc = emu_.state().pc;
        const Addr block = pc / params_.mem.icache.blockBytes;
        if (block != s_.lastFetchBlock) {
            const Cycle ready = mem_.fetchAccess(pc, s_.now);
            s_.lastFetchBlock = block;
            if (ready > s_.now + hit_lat) {
                // I$ miss: fetch resumes when the fill completes.
                s_.fetchResumeAt = ready - hit_lat;
                s_.fetchWait = FetchWait::Icache;
                break;
            }
        }

        DynInst *d = s_.arena.acquire();
        d->rec = emu_.step();
        const ExecRecord &rec = d->rec;
        d->seq = s_.seqCounter++;
        d->fetchCycle = s_.now;
        d->fetchReady = s_.now + params_.frontDepth;
        d->redirectFrom = s_.pendingRedirectSeq;
        s_.pendingRedirectSeq = 0;

        bool mispredicted = false;
        if (isControl(rec.inst.op)) {
            const Prediction pred = bp_.predict(pc, rec.inst);
            Addr pred_npc = pc + 4;
            bool target_known = true;
            if (pred.taken) {
                pred_npc = pred.target;
                target_known = pred.targetValid;
            }
            if (pred.taken != rec.taken) {
                mispredicted = true;
                bp_.noteDirMispredict();
            } else if (rec.taken && (!target_known ||
                                     pred_npc != rec.npc)) {
                // Attribute the bad target to the component that
                // produced it: a wrong RAS pop (stack overflow
                // clobbered the frame, or a non-call/return pairing)
                // is a RAS mispredict; everything else is a
                // BTB/indirect-table target mispredict.
                mispredicted = true;
                if (pred.fromRas)
                    bp_.noteRasMispredict();
                else
                    bp_.noteTargetMispredict();
            }
            bp_.update(pc, rec.inst, rec.taken, rec.npc);
            if (rec.taken)
                ++taken_seen;
        }

        d->mispredicted = mispredicted;
        if (mispredicted) {
            d->stallsFetch = true;
            ++s_.fetchBlocked;
        }
        s_.fetchBuf.push_back(d);
        ++fetched;

        if (mispredicted)
            break;  // stall until the branch resolves
        if (taken_seen >= 2)
            break;  // can fetch past only one taken branch per cycle
    }
}

} // namespace reno
