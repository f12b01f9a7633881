/**
 * @file
 * Boundary-width differential tests for the compiled kernel's ISA
 * backends (DESIGN.md §3h, "The compiled kernel"). simdEvalOps picks
 * its kernel by physical lane width — scalar below the vector width,
 * AVX2 or the SSE2/NEON/portable vector kernel above — so sweeping every
 * lane count in [1, kMaxLanes] runs every kernel this host can dispatch
 * to, padding lanes included.
 *
 * The vector kernels manipulate masked 64-bit lanes, so the widths where
 * mask handling can silently go wrong are 1 (everything collapses to one
 * bit), 63 (the widest non-trivial mask, (1<<63)-1), and 64 (mask = ~0,
 * where an unmasked shift≥width or carry out of bit 63 must wrap
 * exactly). A width-65 case is impossible by construction: the IR caps
 * every signal at 64 bits (Design::addBinary asserts concat ≤ 64), so
 * the 64-bit lane is the worst case, not a sample. Each width gets a toy
 * design covering every tape opcode — including shift counts ≥ 64, which
 * must yield 0 — replayed against the interpreted oracle.
 */

#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

#include "designs/harness.hh"
#include "designs/tiny3.hh"
#include "sim/batch.hh"
#include "sim/simulator.hh"
#include "sim/tape.hh"

using namespace rmp;

namespace
{

/**
 * A toy design at bit width @p w exercising every tape opcode: the
 * boundary-mask torture chamber. The shift-count input is 7 bits wide
 * so counts ≥ 64 occur and must produce 0, and a register closes the
 * sequential loop so the two-phase latch path runs too.
 */
Design
buildBoundary(unsigned w)
{
    Design d("boundary" + std::to_string(w));
    SigId a = d.addInput("a", w);
    SigId b = d.addInput("b", w);
    SigId s = d.addInput("s", 7); // counts 0..127: ≥64 must yield 0
    SigId sel = d.addInput("sel", 1);

    std::vector<SigId> outs;
    outs.push_back(d.addUnary(Op::Not, a, w));
    outs.push_back(d.addBinary(Op::And, a, b));
    outs.push_back(d.addBinary(Op::Or, a, b));
    outs.push_back(d.addBinary(Op::Xor, a, b));
    outs.push_back(d.addUnary(Op::RedOr, a, 1));
    outs.push_back(d.addUnary(Op::RedAnd, a, 1));
    outs.push_back(d.addBinary(Op::Eq, a, b));
    outs.push_back(d.addBinary(Op::Ult, a, b));
    outs.push_back(d.addBinary(Op::Add, a, b));
    outs.push_back(d.addBinary(Op::Sub, a, b));
    outs.push_back(d.addBinary(Op::Mul, a, b));
    outs.push_back(d.addBinary(Op::Shl, a, s));
    outs.push_back(d.addBinary(Op::Shr, b, s));
    outs.push_back(d.addMux(sel, a, b));
    if (w > 1) {
        unsigned half = w / 2;
        SigId lo = d.addUnary(Op::Slice, a, half, 0);
        SigId hi = d.addUnary(Op::Slice, a, w - half, half);
        outs.push_back(lo);
        outs.push_back(hi);
        outs.push_back(d.addBinary(Op::Concat, hi, lo));
    }
    if (w < 64)
        outs.push_back(d.addUnary(Op::Zext, a, w + 1));

    // Fold every result into one w-bit accumulator through a register.
    SigId acc = d.addBinary(Op::Xor, a, b);
    for (SigId o : outs) {
        SigId z = d.cell(o).width == w ? o
                                       : d.addUnary(Op::Zext, o, 64);
        if (d.cell(z).width != w)
            z = d.addUnary(Op::Slice, z, w, 0);
        acc = d.addBinary(Op::Xor, acc, z);
    }
    SigId r = d.addReg("r", BitVec(w, 0));
    d.connectRegNext(r, d.addBinary(Op::Xor, acc, r));
    return d;
}

std::vector<SigId>
watchAll(const Design &d)
{
    std::vector<SigId> w(d.numCells());
    for (SigId i = 0; i < d.numCells(); i++)
        w[i] = i;
    return w;
}

std::vector<InputMap>
randomProgram(const Design &d, unsigned cycles, uint64_t seed)
{
    std::mt19937_64 rng(seed);
    std::vector<InputMap> prog(cycles);
    for (unsigned t = 0; t < cycles; t++)
        for (SigId in : d.inputs())
            prog[t][in] = rng() & BitVec::maskOf(d.width(in));
    return prog;
}

/** Mismatching (cycle, watch, lane) positions vs the interpreted
 *  oracle when running with @p lanes lanes. */
size_t
diffCount(const Design &d, const sim::Tape &tape, unsigned lanes,
          unsigned cycles, uint64_t seed)
{
    std::vector<std::vector<InputMap>> progs;
    for (unsigned l = 0; l < lanes; l++)
        progs.push_back(randomProgram(d, cycles, seed + 1000 * l));
    sim::BatchSim bs(tape, lanes);
    bs.reserveTrace(cycles);
    std::vector<Simulator> oracle;
    for (unsigned l = 0; l < lanes; l++)
        oracle.emplace_back(d);
    size_t diffs = 0;
    for (unsigned t = 0; t < cycles; t++) {
        bs.clearInputs();
        for (unsigned l = 0; l < lanes; l++) {
            bs.stageInputs(l, progs[l][t]);
            oracle[l].step(progs[l][t]);
        }
        bs.step();
        for (unsigned l = 0; l < lanes; l++)
            for (size_t k = 0; k < tape.watchSigs.size(); k++)
                if (bs.watched(t, k, l) !=
                    oracle[l].value(tape.watchSigs[k]))
                    diffs++;
    }
    return diffs;
}

} // namespace

TEST(SimKernel, BoundaryWidthsMatchOracleAtEveryLaneWidth)
{
    for (unsigned w : {1u, 63u, 64u}) {
        Design d = buildBoundary(w);
        sim::Tape tape = sim::compileTape(d, watchAll(d));
        for (unsigned lanes = 1; lanes <= sim::kMaxLanes; lanes++)
            EXPECT_EQ(diffCount(d, tape, lanes, 32, 101 + w), 0u)
                << "width " << w << " lanes " << lanes;
    }
}

TEST(SimKernel, FoldCacheReusesAcrossCompilesOfOneDesign)
{
    // Satellite property: the const-fold pass is computed once per
    // design and reused by later compileTape calls on any watch set
    // (the witness re-derivation path recompiles per witness).
    designs::Harness hx(designs::buildTiny3());
    const Design &d = hx.design();
    sim::FoldCache fold;
    sim::Tape t1 = sim::compileTape(d, watchAll(d), &fold);
    EXPECT_EQ(fold.hits, 0u);
    std::vector<SigId> narrow = {hx.plSig(0).occupied};
    sim::Tape t2 = sim::compileTape(d, narrow, &fold);
    EXPECT_EQ(fold.hits, 1u);
    sim::Tape t3 = sim::compileTape(d, watchAll(d), &fold);
    EXPECT_EQ(fold.hits, 2u);
    EXPECT_GT(t1.constsPooled, 0u);
    // Identical watch set + reused folding ⇒ identical tape program.
    ASSERT_EQ(t1.numOps(), t3.numOps());
    EXPECT_EQ(t1.opc, t3.opc);
    EXPECT_EQ(t1.dst, t3.dst);
    EXPECT_EQ(t1.mask, t3.mask);
    // And the cached folding is watch-set independent: both tapes
    // still match the oracle exactly.
    EXPECT_EQ(diffCount(d, t2, 2, 16, 31), 0u);
    EXPECT_EQ(diffCount(d, t3, 2, 16, 33), 0u);
}
