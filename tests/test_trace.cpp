/**
 * @file
 * Pipeline tracer tests: record capture windows, stage-ordering
 * invariants on real runs, rendering, and the visibility of each RENO
 * optimization in the trace.
 */
#include <gtest/gtest.h>

#include <algorithm>

#include "asm/assembler.hpp"
#include "emu/emulator.hpp"
#include "sys/system.hpp"
#include "trace/pipetrace.hpp"

using namespace reno;

namespace
{

const char *const loop_source = R"(
        .data
buf:    .space 256
        .text
_start:
        la   s0, buf
        li   s1, 16
        li   t0, 0
loop:
        slli t1, t0, 3
        add  t2, s0, t1
        stq  t0, 0(t2)
        ldq  t3, 0(t2)
        mov  t4, t3
        addi t0, t0, 1
        slt  t5, t0, s1
        bne  t5, loop
        li   v0, 0
        li   a0, 0
        syscall
)";

struct TraceRun {
    SimResult sim;
    std::vector<PipeRecord> records;
};

TraceRun
traceRun(const char *source, const RenoConfig &reno,
         PipeTracer::Options topts = {})
{
    const Program prog = assemble(source);
    Emulator emu(prog);
    CoreParams params;
    params.reno = reno;
    System sys(params, {&emu});
    PipeTracer tracer(topts);
    sys.core(0).setRetireListener(&tracer);
    TraceRun out;
    out.sim = sys.run();
    out.records = tracer.records();
    return out;
}

} // namespace

TEST(PipeTracer, CapturesEveryRetiredInstructionByDefault)
{
    const TraceRun r = traceRun(loop_source, RenoConfig::baseline());
    EXPECT_EQ(r.records.size(), r.sim.retired);
}

TEST(PipeTracer, SkipAndCapDefineTheWindow)
{
    PipeTracer::Options topts;
    topts.skipFirst = 10;
    topts.maxRecords = 5;
    const TraceRun r = traceRun(loop_source, RenoConfig::baseline(),
                                topts);
    ASSERT_EQ(r.records.size(), 5u);
    // The window starts right after the skipped prefix, in retire
    // order.
    for (size_t i = 1; i < r.records.size(); ++i)
        EXPECT_GT(r.records[i].seq, r.records[i - 1].seq);
}

TEST(PipeTracer, StageOrderingInvariantsHold)
{
    const TraceRun r = traceRun(loop_source, RenoConfig::full());
    ASSERT_FALSE(r.records.empty());
    for (const PipeRecord &rec : r.records) {
        EXPECT_LE(rec.fetchCycle, rec.renameCycle);
        EXPECT_LE(rec.renameCycle, rec.retireCycle);
        if (rec.eliminated()) {
            // Collapsed instructions never issue.
            EXPECT_EQ(rec.issueCycle, InvalidCycle);
        } else if (rec.issueCycle != InvalidCycle) {
            EXPECT_LE(rec.renameCycle, rec.issueCycle);
            EXPECT_LT(rec.issueCycle, rec.completeCycle);
            EXPECT_LE(rec.completeCycle, rec.retireCycle);
        }
    }
}

TEST(PipeTracer, RetireOrderIsProgramOrder)
{
    const TraceRun r = traceRun(loop_source, RenoConfig::full());
    for (size_t i = 1; i < r.records.size(); ++i) {
        EXPECT_LE(r.records[i - 1].retireCycle, r.records[i].retireCycle);
        EXPECT_LT(r.records[i - 1].seq, r.records[i].seq);
    }
}

TEST(PipeTracer, RenoOutcomesVisibleInTrace)
{
    const TraceRun r = traceRun(loop_source, RenoConfig::full());
    unsigned moves = 0, folds = 0;
    for (const PipeRecord &rec : r.records) {
        if (rec.elim == ElimKind::Move)
            ++moves;
        if (rec.elim == ElimKind::Fold)
            ++folds;
    }
    EXPECT_GT(moves, 0u) << "mov t4, t3 should be ME-collapsed";
    EXPECT_GT(folds, 0u) << "addi t0, t0, 1 should be CF-folded";
}

TEST(PipeTracer, BaselineTraceShowsNoEliminations)
{
    const TraceRun r = traceRun(loop_source, RenoConfig::baseline());
    for (const PipeRecord &rec : r.records)
        EXPECT_EQ(rec.elim, ElimKind::None);
}

TEST(PipeTracer, ClearResetsTheWindow)
{
    PipeTracer tracer;
    DynInst d;
    d.renamed = true;
    tracer.onRetire(d);
    EXPECT_EQ(tracer.records().size(), 1u);
    tracer.clear();
    EXPECT_EQ(tracer.records().size(), 0u);
    EXPECT_EQ(tracer.retiredSeen(), 0u);
}

TEST(ElimKindName, AllKindsNamed)
{
    EXPECT_EQ(elimKindName(ElimKind::None), "");
    EXPECT_EQ(elimKindName(ElimKind::Move), "ME");
    EXPECT_EQ(elimKindName(ElimKind::Fold), "CF");
    EXPECT_EQ(elimKindName(ElimKind::Cse), "CSE");
    EXPECT_EQ(elimKindName(ElimKind::Ra), "RA");
}

TEST(RenderPipeLine, MarksStagesAtRelativeCycles)
{
    PipeRecord rec;
    rec.pc = 0x40;
    rec.inst = Instruction::ri(Opcode::ADDI, 2, 1, 8);
    rec.fetchCycle = 100;
    rec.renameCycle = 102;
    rec.issueCycle = 105;
    rec.completeCycle = 106;
    rec.retireCycle = 108;
    const std::string line = renderPipeLine(rec, 100, 16);
    EXPECT_EQ(line[1], 'f');   // offset 0 inside '['
    EXPECT_EQ(line[3], 'r');
    EXPECT_EQ(line[6], 'i');
    EXPECT_EQ(line[7], 'c');
    EXPECT_EQ(line[9], 'R');
}

TEST(RenderPipeLine, CollapsedInstructionShowsNoIssue)
{
    PipeRecord rec;
    rec.inst = Instruction::ri(Opcode::ADDI, 2, 1, 4);
    rec.fetchCycle = 0;
    rec.renameCycle = 2;
    rec.retireCycle = 5;
    rec.elim = ElimKind::Fold;
    rec.destPreg = 7;
    rec.destDisp = 4;
    const std::string line = renderPipeLine(rec, 0, 12);
    const std::string lane = line.substr(1, 12);
    EXPECT_EQ(lane.find('i'), std::string::npos)
        << "no issue mark inside the lane: " << line;
    EXPECT_NE(line.find("CF-collapsed"), std::string::npos);
    EXPECT_NE(line.find("[p7:+4]"), std::string::npos);
}

TEST(RenderPipeLine, MarksOutsideWindowAreClipped)
{
    PipeRecord rec;
    rec.inst = Instruction::ri(Opcode::ADDI, 2, 1, 0);
    rec.fetchCycle = 0;
    rec.renameCycle = 50;   // beyond the 8-column window
    rec.retireCycle = 60;
    const std::string line = renderPipeLine(rec, 0, 8);
    EXPECT_EQ(line.find('r'), std::string::npos);
    EXPECT_EQ(line.find('R'), std::string::npos);
}

TEST(RenderPipeTrace, EmptyTraceRenders)
{
    EXPECT_EQ(renderPipeTrace({}), "(empty trace)\n");
}

TEST(RenderPipeTrace, SummaryCountsEliminations)
{
    const TraceRun r = traceRun(loop_source, RenoConfig::full());
    const std::string out = renderPipeTrace(r.records, 48);
    EXPECT_NE(out.find("collapsed"), std::string::npos);
    // One line per record plus header (2 lines) and footer (1 line).
    const size_t lines = std::count(out.begin(), out.end(), '\n');
    EXPECT_EQ(lines, r.records.size() + 3);
}
