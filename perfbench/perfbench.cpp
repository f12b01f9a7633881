/**
 * @file
 * The repository benchmark (README.md in this directory explains the
 * workloads, the metrics and the layer-to-end-to-end mapping).
 *
 *   perfbench --workload synth-core|explore-isa|leak-cache|serve-mix
 *             --seed N --seconds S --trace 0|1
 *             [--out-dir DIR] [--expected-dir DIR] [--write-expected]
 *
 * Batch workloads repeat a cold pass (design build, synthesizer set-up,
 * the measured synthesis, the renders) until --seconds have elapsed;
 * serve-mix drives an in-process daemon with a closed-loop client for
 * --seconds. Every output is checked; any mismatch makes the last
 * line report "correct": false and the exit code 1. With --trace 1,
 * every other unit of work records the benchmark's own spans, the
 * layer probes run after the measured window, and the per-layer
 * metrics replace the end-to-end ones in the result line.
 *
 * --write-expected regenerates expected/<workload>/ from an audited run
 * (witness replay + DRAT proof checking, zero mismatches required).
 */

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "analysis/fsmreach.hh"
#include "contracts/contracts.hh"
#include "designs/catalog.hh"
#include "designs/mcva_isa.hh"
#include "exec/admission.hh"
#include "ift/instrument.hh"
#include "obs/registry.hh"
#include "report/report.hh"
#include "rtl2mupath/sim_explore.hh"
#include "rtl2mupath/synth.hh"
#include "sat/solver.hh"
#include "serve/client.hh"
#include "serve/server.hh"
#include "sim/tape.hh"
#include "synthlc/synthlc.hh"

#include "trace.hh"

namespace fs = std::filesystem;
using namespace rmp;
using perfbench::Span;
using perfbench::Tracer;

namespace
{

// ---------------------------------------------------------------------
// Small utilities
// ---------------------------------------------------------------------

double
nowS()
{
    return perfbench::monoNs() * 1e-9;
}

double
cpuS()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return ru.ru_utime.tv_sec + ru.ru_stime.tv_sec +
           (ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return ru.ru_maxrss / 1024.0; // ru_maxrss is in KiB on Linux
}

/**
 * CPU time the hypervisor gave to other tenants so far, summed over all
 * CPUs (the "steal" column of /proc/stat); 0 where it is not reported.
 */
double
stealS()
{
    std::ifstream f("/proc/stat");
    std::string cpu;
    unsigned long long v[8] = {};
    f >> cpu;
    for (unsigned long long &x : v)
        f >> x;
    static const double tick = static_cast<double>(sysconf(_SC_CLK_TCK));
    return f && cpu == "cpu" && tick > 0 ? v[7] / tick : 0.0;
}

double
admissionWaitS()
{
    return exec::AdmissionGate::global().stats().waitNs * 1e-9;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Nearest-rank percentile (p in (0, 100]). */
double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * v.size()));
    return v[std::clamp<size_t>(rank, 1, v.size()) - 1];
}

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0;
}

std::string
readFile(const fs::path &p, bool *ok)
{
    std::ifstream f(p, std::ios::binary);
    *ok = static_cast<bool>(f);
    std::stringstream ss;
    ss << f.rdbuf();
    return ss.str();
}

bool
writeFile(const fs::path &p, const std::string &s)
{
    fs::create_directories(p.parent_path());
    std::ofstream f(p, std::ios::binary);
    f << s;
    return static_cast<bool>(f);
}

/** The run's output checks: every failure is kept and reported. */
struct Checks
{
    std::vector<std::string> failures;

    void
    expect(bool ok, const std::string &what)
    {
        if (!ok)
            failures.push_back(what);
    }
    bool ok() const { return failures.empty(); }
};

/** Ordered metric set: name -> (value, unit). */
struct Metrics
{
    std::vector<std::pair<std::string, std::pair<double, std::string>>> kv;

    void
    put(const std::string &name, double v, const std::string &unit)
    {
        kv.push_back({name, {std::isfinite(v) ? v : 0.0, unit}});
    }
};

std::string
resultLine(bool correct, uint64_t attempted, uint64_t failed,
           const Metrics &m)
{
    std::ostringstream os;
    os << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << attempted << ", \"failed\": " << failed
       << ", \"metrics\": {";
    char buf[64];
    for (size_t i = 0; i < m.kv.size(); i++) {
        std::snprintf(buf, sizeof buf, "%.9g", m.kv[i].second.first);
        os << (i ? ", " : "") << "\"" << m.kv[i].first
           << "\": {\"value\": " << buf << ", \"unit\": \""
           << m.kv[i].second.second << "\"}";
    }
    os << "}}";
    return os.str();
}

std::vector<SigId>
controlRegs(const designs::Harness &hx)
{
    std::vector<SigId> ctrl;
    for (const uhb::MicroFsm &fsm : hx.duv().fsms)
        for (SigId v : fsm.vars)
            ctrl.push_back(v);
    return ctrl;
}

std::unique_ptr<designs::Harness>
buildHarness(const std::string &duv)
{
    std::optional<designs::DuvUnderConstruction> duc = designs::buildDuv(duv);
    if (!duc)
        return nullptr;
    return std::make_unique<designs::Harness>(std::move(*duc));
}

// ---------------------------------------------------------------------
// Batch workloads: synth-core, explore-isa, leak-cache
// ---------------------------------------------------------------------

struct BatchSpec
{
    std::string duv;
    std::vector<std::string> iuvs; ///< empty = every instruction
    unsigned budget = 6000;        ///< RTL2MμPATH conflict budget
    unsigned exploreRuns = 800;    ///< exploration runs per IUV
    bool leakage = false;          ///< SynthLC + contracts on top
    unsigned slcBudget = 250;
    unsigned slcSimRuns = 110;
    unsigned jobs = 2;             ///< threads of every pool and of exploration
};

BatchSpec
batchSpec(const std::string &w)
{
    BatchSpec s;
    if (w == "synth-core") {
        s.duv = "mcva";
        s.iuvs = designs::mcvaArtifactSubset();
        s.exploreRuns = 4000;
    } else if (w == "explore-isa") {
        s.duv = "mcva";
        s.budget = 300;
        s.exploreRuns = 1200;
    } else {
        s.duv = "dcache";
        s.iuvs = {"LDREQ", "STREQ"};
        s.exploreRuns = 4000;
        s.leakage = true;
    }
    return s;
}

r2m::SynthesisConfig
synthConfig(const BatchSpec &s, uint64_t seed)
{
    r2m::SynthesisConfig c;
    c.budget.maxConflicts = s.budget;
    c.closureChecks = false; // the semi-formal profile
    c.explore.runs = s.exploreRuns;
    c.explore.seed = seed;
    c.explore.threads = s.jobs;
    c.jobs = s.jobs;
    return c;
}

slc::SynthLcConfig
lcConfig(const BatchSpec &s, uint64_t seed)
{
    slc::SynthLcConfig c;
    c.budget.maxConflicts = s.slcBudget;
    c.simRuns = s.slcSimRuns;
    c.simSeed = seed;
    c.jobs = s.jobs;
    return c;
}

std::vector<uhb::InstrId>
iuvIds(const designs::Harness &hx, const BatchSpec &s)
{
    std::vector<uhb::InstrId> ids;
    if (s.iuvs.empty()) {
        for (size_t i = 0; i < hx.duv().instrs.size(); i++)
            ids.push_back(static_cast<uhb::InstrId>(i));
    } else {
        for (const std::string &n : s.iuvs)
            ids.push_back(hx.duv().instrId(n));
    }
    return ids;
}

/** Counts that are deterministic by design for a fixed seed. */
struct PassCounts
{
    uint64_t conflicts = 0, bmcQueries = 0, bmcUndet = 0, slcQueries = 0,
             covers = 0;
    bool
    operator==(const PassCounts &o) const
    {
        return conflicts == o.conflicts && bmcQueries == o.bmcQueries &&
               bmcUndet == o.bmcUndet && slcQueries == o.slcQueries &&
               covers == o.covers;
    }
};

struct PassOut
{
    double setupS = 0, wallS = 0, cpuS = 0, stealS = 0;
    bool traced = false;
    PassCounts counts;
    /** μPATH + decision render (+ signatures and contracts): byte-
     *  identical across passes with one seed. */
    std::string render;
    // per-layer raw values
    double propagations = 0, solverS = 0, synthSolverS = 0, synthAllS = 0,
           cacheHits = 0, cacheLookups = 0, staticPruned = 0,
           admissionS = 0, slcSimHits = 0;
    unsigned jobs = 1;
};

/**
 * Every Reachable PL Set that exploration witnessed must be one of the
 * synthesized μPATHs: a simulation-found path may never go missing.
 */
void
checkSimSets(r2m::MuPathSynthesizer &synth, const designs::Harness &hx,
             const std::vector<uhb::InstrId> &ids,
             const std::map<uhb::InstrId, uhb::InstrPaths> &all,
             Checks &chk)
{
    for (uhb::InstrId i : ids) {
        std::set<std::vector<uhb::PlId>> got;
        for (const uhb::UPath &p : all.at(i).paths)
            got.insert(std::vector<uhb::PlId>(p.plSet.begin(), p.plSet.end()));
        for (const auto &[set, fact] : synth.facts(i).sets) {
            std::vector<uhb::PlId> s = set;
            std::sort(s.begin(), s.end());
            chk.expect(got.count(s) != 0,
                       "simulation-found μPATH missing for " +
                           hx.duv().instrs[i].name);
        }
    }
}

/** Exploration seed of the expected renders (expected/<workload>/). */
constexpr uint64_t kReferenceSeed = 1;

struct BatchCtx
{
    BatchSpec spec;
    uint64_t seed = 1;
    Tracer *tracer = nullptr;
    Checks *chk = nullptr;
    bool audit = false;              ///< --write-expected
    sat::SatQueryLog *qlog = nullptr; ///< replay-probe recording
};

void
addPoolStats(PassOut &o, const exec::PoolStats &ps)
{
    o.counts.conflicts += ps.sat.conflicts;
    o.counts.bmcQueries += ps.engine.queries;
    o.counts.bmcUndet += ps.engine.undetermined;
    o.propagations += ps.sat.propagations;
    o.solverS += ps.engine.totalSeconds;
    o.cacheHits += ps.cache.hits;
    o.cacheLookups += ps.cache.hits + ps.cache.misses;
    o.staticPruned += ps.engine.staticPruned;
}

/** One cold pass: set-up (timed as setup_s) then the measured work. */
PassOut
batchPass(const BatchCtx &cx, uint64_t req, bool measured = true)
{
    Tracer &tr = *cx.tracer;
    const BatchSpec &s = cx.spec;
    PassOut o;
    o.traced = tr.enabled();
    Span root(tr, measured ? "pass" : "setup-only", req);

    r2m::SynthesisConfig scfg = synthConfig(s, cx.seed);
    scfg.auditReplay = scfg.auditProof = cx.audit;
    scfg.queryLog = cx.qlog;
    slc::SynthLcConfig lcfg = lcConfig(s, cx.seed);
    lcfg.auditReplay = lcfg.auditProof = cx.audit;

    double t0 = nowS();
    std::unique_ptr<designs::Harness> hx;
    {
        Span sp(tr, "designs.build", req);
        hx = buildHarness(s.duv);
    }
    std::unique_ptr<r2m::MuPathSynthesizer> synth;
    {
        Span sp(tr, "r2m.setup", req);
        synth = std::make_unique<r2m::MuPathSynthesizer>(*hx, scfg);
    }
    {
        Span sp(tr, "r2m.duv_pls", req);
        synth->duvPls();
    }
    std::unique_ptr<slc::SynthLc> lc;
    if (s.leakage) {
        Span sp(tr, "slc.setup", req);
        lc = std::make_unique<slc::SynthLc>(*hx, lcfg);
    }
    o.setupS = nowS() - t0;
    o.jobs = synth->pool().jobs();
    if (!measured)
        return o;

    std::vector<uhb::InstrId> ids = iuvIds(*hx, s);
    exec::PoolStats before = synth->pool().stats();
    double c0 = cpuS(), a0 = admissionWaitS(), st0 = stealS();
    double t1 = nowS();
    std::map<uhb::InstrId, uhb::InstrPaths> all;
    {
        Span sp(tr, "r2m.synth_all", req);
        double ts = nowS();
        all = synth->synthesizeAll(ids);
        o.synthAllS = nowS() - ts;
    }
    exec::PoolStats after = synth->pool().stats();
    o.synthSolverS = after.engine.totalSeconds - before.engine.totalSeconds;
    std::string render;
    {
        Span sp(tr, "report.render", req);
        render = report::renderSynthAll(*hx, ids, all);
    }
    std::string sigRender, contractRender;
    if (s.leakage) {
        ct::AnalysisDb db;
        db.hx = hx.get();
        for (uhb::InstrId i : ids) {
            Span sp(tr, "slc.analyze", req);
            for (auto &sig : lc->analyze(i, all.at(i).decisions, ids))
                db.signatures.push_back(std::move(sig));
        }
        db.paths = all;
        {
            Span sp(tr, "contracts.derive", req);
            (void)ct::deriveConstantTime(db);
            (void)ct::deriveMi6(db);
            (void)ct::deriveOisa(db);
            (void)ct::deriveStt(db);
            (void)ct::deriveSdo(db);
            (void)ct::deriveDolma(db);
        }
        Span sp(tr, "report.render", req);
        for (const auto &sig : db.signatures)
            sigRender += lc->render(sig) + "\n";
        contractRender = ct::renderContracts(db);
    }
    o.wallS = nowS() - t1;
    o.stealS = stealS() - st0;
    o.cpuS = cpuS() - c0;
    o.admissionS = admissionWaitS() - a0;

    addPoolStats(o, after);
    for (const r2m::StepStats &st : synth->stepStats())
        if (st.step.rfind("0:", 0) != 0) // step 0 counts simulation runs
            o.counts.covers += st.queries;
    if (lc) {
        addPoolStats(o, lc->pool().stats());
        o.counts.slcQueries = lc->stats().queries;
        o.slcSimHits = static_cast<double>(lc->stats().simHits);
    }
    if (cx.audit) {
        bmc::EngineStats a = after.engine;
        if (lc) {
            bmc::EngineStats b = lc->pool().stats().engine;
            a.auditReplayed += b.auditReplayed;
            a.auditProofChecked += b.auditProofChecked;
            a.auditMismatches += b.auditMismatches;
        }
        std::printf("audit: %llu witnesses replayed, %llu proofs checked, "
                    "%llu mismatches\n",
                    (unsigned long long)a.auditReplayed,
                    (unsigned long long)a.auditProofChecked,
                    (unsigned long long)a.auditMismatches);
        cx.chk->expect(a.auditMismatches == 0,
                       "audited run reported verdict mismatches");
    }

    checkSimSets(*synth, *hx, ids, all, *cx.chk);
    o.render = render;
    if (s.leakage)
        o.render += "--- signatures ---\n" + sigRender +
                    "--- contracts ---\n" + contractRender;
    return o;
}

/**
 * Replay a recorded solver query log through fresh sat::Solver
 * instances (one per recorded solver, in parallel): solver time without
 * unrolling. Every replayed solve must reproduce the recorded verdict.
 */
double
replayLog(const sat::SatQueryLog &log, unsigned threads, Checks &chk)
{
    std::map<uint32_t, std::vector<const sat::SatQueryLog::Event *>> streams;
    for (const auto &e : log.events)
        streams[e.solver].push_back(&e);
    std::vector<const std::vector<const sat::SatQueryLog::Event *> *> work;
    for (const auto &[ord, evs] : streams)
        work.push_back(&evs);
    std::vector<double> secs(work.size(), 0);
    std::vector<uint64_t> bad(work.size(), 0);
    std::atomic<size_t> next{0};
    auto worker = [&] {
        for (size_t k; (k = next.fetch_add(1)) < work.size();) {
            sat::Solver s;
            uint32_t nvars = 0;
            double t0 = nowS();
            for (const auto *e : *work[k]) {
                uint32_t want = e->numVars;
                for (sat::Lit l : e->lits)
                    want = std::max(want,
                                    static_cast<uint32_t>(l.var()) + 1);
                for (; nvars < want; nvars++)
                    s.newVar();
                if (e->isSolve) {
                    auto r = s.solve(e->lits, e->budget);
                    bad[k] += static_cast<uint8_t>(r) != e->result;
                } else {
                    s.addClause(e->lits);
                }
            }
            secs[k] = nowS() - t0;
        }
    };
    std::vector<std::thread> ts;
    for (unsigned i = 0; i < std::max(1u, threads); i++)
        ts.emplace_back(worker);
    for (auto &t : ts)
        t.join();
    uint64_t mism = 0;
    double total = 0;
    for (size_t k = 0; k < work.size(); k++) {
        mism += bad[k];
        total += secs[k];
    }
    chk.expect(mism == 0, "SAT replay diverged from the recorded verdicts");
    return total;
}

ift::IftConfig
iftConfig(const designs::Harness &hx)
{
    const uhb::DuvInfo &info = hx.duv();
    ift::IftConfig c;
    c.taintSources = {info.rs1Reg, info.rs2Reg};
    c.blockRegs = info.arfRegs;
    c.blockRegs.insert(c.blockRegs.end(), info.amemRegs.begin(),
                       info.amemRegs.end());
    c.persistentRegs = info.persistentRegs;
    c.txmGone = hx.txmGone;
    return c;
}

/** Layer probes, run after the measured window (never in wall_s). */
struct ProbeOut
{
    double factsS = 0, compileS = 0, exploreS = 0, exploreRuns = 0,
           replayS = 0, instrumentS = 0;
};

ProbeOut
runProbes(const std::string &duv, const std::vector<std::string> &iuvs,
          const r2m::SimExploreConfig *explore,
          const sat::SatQueryLog *log, Tracer &tr, Checks &chk)
{
    ProbeOut p;
    const uint64_t req = 0;
    Span root(tr, "probes", req);
    std::unique_ptr<designs::Harness> hx;
    {
        Span sp(tr, "designs.build", req);
        hx = buildHarness(duv);
    }
    {
        Span sp(tr, "analysis.facts", req);
        double t0 = nowS();
        analysis::AbsFacts f = analysis::staticFacts(hx->design(),
                                                     controlRegs(*hx));
        p.factsS = nowS() - t0;
    }
    {
        std::vector<SigId> watch{hx->iuvGone};
        for (uhb::PlId pl = 0; pl < hx->numPls(); pl++) {
            const designs::PlSignals &ps = hx->plSig(pl);
            watch.insert(watch.end(), {ps.occupied, ps.iuvAt, ps.iuvVisited,
                                       ps.visitCount});
        }
        Span sp(tr, "sim.compile", req);
        double t0 = nowS();
        sim::Tape tape = sim::compileTape(hx->design(), watch);
        p.compileS = nowS() - t0;
    }
    if (explore) {
        for (const std::string &n : iuvs) {
            Span sp(tr, "r2m.explore", req);
            double t0 = nowS();
            r2m::SimFacts f = r2m::exploreSim(*hx, hx->duv().instrId(n),
                                              *explore);
            p.exploreS += nowS() - t0;
            p.exploreRuns += explore->runs;
        }
    }
    {
        Span sp(tr, "ift.instrument", req);
        double t0 = nowS();
        ift::Instrumented inst = ift::instrument(hx->design(), iftConfig(*hx));
        p.instrumentS = nowS() - t0;
    }
    if (log) {
        Span sp(tr, "sat.replay", req);
        p.replayS = replayLog(*log, std::thread::hardware_concurrency(), chk);
    }
    return p;
}

// ---------------------------------------------------------------------
// Metric assembly
// ---------------------------------------------------------------------

const std::vector<std::pair<std::string, std::string>> &
layerUnits()
{
    static const std::vector<std::pair<std::string, std::string>> u = {
        {"designs.build_s", "s"},        {"analysis.facts_s", "s"},
        {"bmc.static_pruned", "count"},  {"sim.compile_s", "s"},
        {"r2m.explore_s", "s"},          {"r2m.explore_runs_per_s", "1/s"},
        {"r2m.duv_pls_s", "s"},          {"r2m.synth_all_s", "s"},
        {"r2m.covers", "count"},         {"bmc.queries", "count"},
        {"bmc.solver_s", "s"},           {"bmc.undetermined", "count"},
        {"sat.conflicts", "count"},      {"sat.propagations", "count"},
        {"sat.props_per_s", "1/s"},      {"sat.replay_s", "s"},
        {"exec.busy_frac", "share"},     {"exec.cache_hit_frac", "share"},
        {"exec.admission_wait_s", "s"},  {"ift.instrument_s", "s"},
        {"slc.analyze_s", "s"},          {"slc.queries", "count"},
        {"slc.sim_hit_frac", "share"},   {"contracts.derive_s", "s"},
        {"report.render_s", "s"},        {"store.hit_frac", "share"},
        {"store.writes", "count"},       {"store.blob_writes", "count"},
        {"store.prime_s", "s"},          {"store.drain_s", "s"},
        {"serve.ping_ms", "ms"},         {"serve.warm_ms", "ms"},
        {"serve.cold_ms", "ms"},         {"serve.rejected", "count"},
        {"trace.overhead_s", "s"},
    };
    return u;
}

/** Every per-layer metric, zero where the workload has no such layer. */
Metrics
layerMetrics(const std::map<std::string, double> &l)
{
    Metrics m;
    for (const auto &[name, unit] : layerUnits()) {
        auto it = l.find(name);
        m.put(name, it == l.end() ? 0.0 : it->second, unit);
    }
    return m;
}

/** Median, over the traced passes, of each pass's summed span time. */
double
spanMedian(const Tracer &tr, const std::string &name,
           const std::set<uint64_t> &reqs)
{
    std::map<uint64_t, double> per;
    for (const perfbench::SpanRec &s : tr.spans())
        if (s.name == name && reqs.count(s.req))
            per[s.req] += (s.end - s.start) * 1e-9;
    std::vector<double> v;
    for (uint64_t r : reqs)
        v.push_back(per[r]);
    return median(v);
}

/**
 * Print trace.overhead_s beside each side's spread, so that an overhead
 * smaller than the run-to-run noise reads as such.
 */
void
printOverhead(const char *unit, const std::vector<double> &traced,
              const std::vector<double> &plain)
{
    auto side = [](const std::vector<double> &v) {
        char buf[96];
        std::snprintf(buf, sizeof buf, "%zu, p25/p50/p75 %.4f/%.4f/%.4f s",
                      v.size(), percentile(v, 25), median(v),
                      percentile(v, 75));
        return std::string(buf);
    };
    std::printf("tracing overhead %.4f s: traced %s %s; untraced %s\n",
                median(traced) - median(plain), unit, side(traced).c_str(),
                side(plain).c_str());
}

struct RunResult
{
    Metrics metrics;
    uint64_t attempted = 0, failed = 0;
};

/**
 * Compare @p got with the expected file (or write it, with --write-
 * expected). A mismatching output is kept as <file name>.got in
 * @p outDir for diffing.
 */
void
checkExpected(const fs::path &file, const std::string &got, bool write,
              const fs::path &outDir, Checks &chk)
{
    if (write) {
        chk.expect(writeFile(file, got), "cannot write " + file.string());
        return;
    }
    bool ok = false;
    std::string want = readFile(file, &ok);
    chk.expect(ok, "missing expected file " + file.string());
    if (ok && want != got) {
        fs::path keep = outDir / (file.parent_path().filename().string() +
                                  "-" + file.filename().string() + ".got");
        writeFile(keep, got);
        chk.expect(false, "output differs from " + file.string() +
                              " (got: " + keep.string() + ")");
    }
}

struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    fs::path outDir = ".bench_build/perfbench-out";
    fs::path expectedDir = "perfbench/expected";
    bool writeExpected = false;
};

RunResult
runBatch(const Options &opt, Tracer &tr, Checks &chk)
{
    BatchCtx cx;
    cx.spec = batchSpec(opt.workload);
    cx.seed = opt.seed;
    cx.tracer = &tr;
    cx.chk = &chk;

    if (opt.writeExpected) {
        cx.audit = true;
        cx.seed = kReferenceSeed;
        PassOut o = batchPass(cx, 1);
        if (chk.ok())
            checkExpected(opt.expectedDir / opt.workload / "render.txt",
                          o.render, true, opt.outDir, chk);
        RunResult r;
        r.attempted = 1;
        r.metrics.put("setup_s", o.setupS, "s");
        return r;
    }

    // Warm-up: one pass at the reference seed, before the window and
    // not measured. Exploration makes the μPATH schedules and the
    // decisions found depend on the seed, so the expected file pins one
    // reference seed, and this pass must reproduce the audited run's
    // render byte for byte. It also takes the process's one-time costs
    // (allocator growth, first page faults) out of the measured passes.
    // Traced runs record its solver query stream for the SAT replay
    // probe.
    sat::SatQueryLog qlog;
    {
        BatchCtx ref = cx;
        ref.seed = kReferenceSeed;
        ref.qlog = opt.trace ? &qlog : nullptr;
        tr.setEnabled(false);
        PassOut o = batchPass(ref, 0);
        checkExpected(opt.expectedDir / opt.workload / "render.txt",
                      o.render, false, opt.outDir, chk);
    }

    // Measured window: cold passes until --seconds have elapsed. Traced
    // runs alternate untraced (odd) and traced (even) passes, so the
    // tracing overhead is measured inside one run, from at least three
    // passes of each kind: identical passes vary by 15-20% on a shared
    // host, far more than the benchmark's few spans cost.
    std::vector<PassOut> passes;
    double start = nowS();
    const size_t minPasses = opt.trace ? 6 : 1;
    while (passes.size() < minPasses || nowS() - start < opt.seconds) {
        uint64_t req = passes.size() + 1;
        tr.setEnabled(opt.trace && req % 2 == 0);
        passes.push_back(batchPass(cx, req));
        const PassOut &o = passes.back();
        std::printf("pass %llu%s: setup %.3f s, wall %.3f s, cpu %.3f s, "
                    "host steal %.3f s\n",
                    (unsigned long long)req, o.traced ? " (traced)" : "",
                    o.setupS, o.wallS, o.cpuS, o.stealS);
        std::fflush(stdout);
    }
    tr.setEnabled(false);

    // Set-up is short next to a pass; repeat it alone until there are
    // enough samples for a steady median, as far as the repetitions fit
    // in a fifth of the window.
    std::vector<double> setups;
    for (const PassOut &o : passes)
        setups.push_back(o.setupS);
    double extra0 = nowS();
    while (setups.size() < 15 &&
           nowS() - extra0 + median(setups) < 0.2 * opt.seconds)
        setups.push_back(batchPass(cx, 0, false).setupS);

    const PassOut &first = passes.front();
    for (const PassOut &o : passes) {
        chk.expect(o.render == first.render,
                   "repeat pass render differs from the first pass");
        chk.expect(o.counts == first.counts,
                   "deterministic counts differ between repeat passes");
    }

    RunResult r;
    r.attempted = passes.size();
    if (!opt.trace) {
        std::vector<double> wall, cpu, lat;
        for (const PassOut &o : passes) {
            wall.push_back(o.wallS);
            cpu.push_back(o.cpuS);
            lat.push_back((o.setupS + o.wallS) * 1e3);
        }
        double undet = ratio(first.counts.bmcUndet, first.counts.bmcQueries);
        Metrics &m = r.metrics;
        m.put("setup_s", median(setups), "s");
        m.put("wall_s", median(wall), "s");
        m.put("cpu_s", median(cpu), "s");
        m.put("peak_rss_mb", peakRssMb(), "MB");
        m.put("undetermined_frac", undet, "share");
        m.put("req_per_s", 1e3 / median(lat), "1/s");
        m.put("lat_p50_ms", median(lat), "ms");
        m.put("lat_p99_ms", percentile(lat, 99), "ms");
        return r;
    }

    // Traced run: per-layer metrics from the traced passes and probes.
    std::set<uint64_t> tracedReqs;
    std::vector<double> tracedWall, plainWall;
    const PassOut *tp = nullptr;
    for (size_t i = 0; i < passes.size(); i++) {
        if (passes[i].traced) {
            tracedReqs.insert(i + 1);
            tracedWall.push_back(passes[i].wallS);
            tp = &passes[i];
        } else {
            plainWall.push_back(passes[i].wallS);
        }
    }
    tr.setEnabled(true);
    ProbeOut p;
    {
        BatchSpec s = cx.spec;
        r2m::SimExploreConfig ex = synthConfig(s, opt.seed).explore;
        std::vector<std::string> iuvs = s.iuvs;
        if (iuvs.empty()) {
            auto hx = buildHarness(s.duv);
            for (const auto &in : hx->duv().instrs)
                iuvs.push_back(in.name);
        }
        p = runProbes(s.duv, iuvs, &ex, &qlog, tr, chk);
    }
    tr.setEnabled(false);

    std::map<std::string, double> l;
    auto sm = [&](const char *n) { return spanMedian(tr, n, tracedReqs); };
    l["designs.build_s"] = sm("designs.build");
    l["analysis.facts_s"] = p.factsS;
    l["bmc.static_pruned"] = tp->staticPruned;
    l["sim.compile_s"] = p.compileS;
    l["r2m.explore_s"] = p.exploreS;
    l["r2m.explore_runs_per_s"] = ratio(p.exploreRuns, p.exploreS);
    l["r2m.duv_pls_s"] = sm("r2m.duv_pls");
    l["r2m.synth_all_s"] = sm("r2m.synth_all");
    l["r2m.covers"] = tp->counts.covers;
    l["bmc.queries"] = tp->counts.bmcQueries;
    l["bmc.solver_s"] = tp->solverS;
    l["bmc.undetermined"] = tp->counts.bmcUndet;
    l["sat.conflicts"] = tp->counts.conflicts;
    l["sat.propagations"] = tp->propagations;
    l["sat.props_per_s"] = ratio(tp->propagations, tp->solverS);
    l["sat.replay_s"] = p.replayS;
    l["exec.busy_frac"] =
        ratio(tp->synthSolverS, tp->jobs * tp->synthAllS);
    l["exec.cache_hit_frac"] = ratio(tp->cacheHits, tp->cacheLookups);
    l["exec.admission_wait_s"] = tp->admissionS;
    l["ift.instrument_s"] = p.instrumentS;
    l["slc.analyze_s"] = sm("slc.analyze");
    l["slc.queries"] = tp->counts.slcQueries;
    l["slc.sim_hit_frac"] =
        ratio(tp->slcSimHits, tp->slcSimHits + tp->counts.slcQueries);
    l["contracts.derive_s"] = sm("contracts.derive");
    l["report.render_s"] = sm("report.render");
    l["trace.overhead_s"] = median(tracedWall) - median(plainWall);
    printOverhead("passes", tracedWall, plainWall);
    r.metrics = layerMetrics(l);
    return r;
}

// ---------------------------------------------------------------------
// serve-mix: a closed-loop client against an in-process daemon
// ---------------------------------------------------------------------

/**
 * One request key. Every key has its own (op, budget) so it owns one
 * warm registry entry and one set of store records: no two keys share
 * solver history, which keeps each key's render and store writes
 * independent of how the clients interleave.
 */
struct ServeKey
{
    const char *name;
    const char *op;
    const char *duv;
    std::vector<std::string> instrs; ///< empty = every instruction
    unsigned budget;
    bool primed;         ///< solved into the store during set-up
    unsigned weight = 1; ///< relative share of the request stream
};

const std::vector<ServeKey> &
serveKeys()
{
    static const std::vector<ServeKey> keys = {
        {"tiny3-synth", "synth", "tiny3", {}, 20000, true},
        {"tiny3zs-synth", "synth", "tiny3-zs", {}, 20000, true},
        {"dcache-ld", "synth", "dcache", {"LDREQ"}, 3000, true},
        {"tiny3-prove", "prove", "tiny3", {}, 20001, false},
        {"tiny3zs-prove", "prove", "tiny3-zs", {}, 20001, false},
        {"tiny3-mul", "synth", "tiny3", {"MUL"}, 4000, false},
        {"tiny3zs-mul", "synth", "tiny3-zs", {"MUL"}, 4000, false},
        {"tiny3-addsub", "synth", "tiny3", {"ADD", "SUB"}, 5000, false},
        {"tiny3zs-addmul", "prove", "tiny3-zs", {"ADD", "MUL"}, 5000, false},
        {"dcache-st", "synth", "dcache", {"STREQ"}, 3001, false},
        {"dcache-both", "synth", "dcache", {"LDREQ", "STREQ"}, 2000, false},
        {"mcva-mem", "synth", "mcva", {"ADD", "LW", "SW", "BEQ"}, 300, false,
         15},
        {"mcva-core", "synth", "mcva", {"ADD", "DIV", "LW", "SW", "BEQ"}, 500,
         false, 15},
    };
    return keys;
}

std::string
requestJson(const ServeKey &k, uint64_t id)
{
    std::string instrs;
    for (const std::string &i : k.instrs)
        instrs += (instrs.empty() ? "\"" : ",\"") + i + "\"";
    return "{\"id\":" + std::to_string(id) + ",\"op\":\"" + k.op +
           "\",\"duv\":\"" + k.duv + "\",\"opts\":{\"budget\":" +
           std::to_string(k.budget) +
           (instrs.empty() ? "" : ",\"instrs\":[" + instrs + "]") +
           ",\"render\":true}}";
}

/** The one-shot render of a key: what `rmp synth` prints for it. */
std::string
oneShotRender(const ServeKey &k, bool audit, Checks &chk)
{
    std::unique_ptr<designs::Harness> hx = buildHarness(k.duv);
    r2m::SynthesisConfig sc;
    sc.budget.maxConflicts = k.budget;
    sc.closureChecks = std::string(k.op) == "prove";
    sc.auditReplay = sc.auditProof = audit;
    r2m::MuPathSynthesizer synth(*hx, sc);
    std::vector<uhb::InstrId> ids;
    if (k.instrs.empty()) {
        for (size_t i = 0; i < hx->duv().instrs.size(); i++)
            ids.push_back(static_cast<uhb::InstrId>(i));
    } else {
        for (const std::string &n : k.instrs)
            ids.push_back(hx->duv().instrId(n));
    }
    auto all = synth.synthesizeAll(ids);
    uint64_t mism = synth.pool().stats().engine.auditMismatches;
    chk.expect(mism == 0, std::string("audited one-shot run of ") + k.name +
                              " reported verdict mismatches");
    return report::renderSynthAll(*hx, ids, all);
}

/** An in-process daemon running on its own thread. */
struct Daemon
{
    std::unique_ptr<serve::Server> server;
    std::thread runner;

    Daemon() = default;
    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

    bool
    start(const fs::path &dir, std::string *err)
    {
        serve::ServeConfig c;
        // Relative to the working directory: Unix socket paths are
        // limited to ~100 bytes and the checkout path may be long.
        c.socketPath = (dir / "rmp.sock").string();
        c.storeRoot = (dir / "store").string();
        c.handleSignals = false;
        // One worker whose engine pools run on its own thread: with one
        // client, one thread is busy at a time on any host (see runServe).
        c.workers = 1;
        c.jobs = 1;
        server = std::make_unique<serve::Server>(c);
        if (!server->start(err))
            return false;
        runner = std::thread([this] { server->run(); });
        return true;
    }
    void
    stop()
    {
        if (runner.joinable()) {
            server->stop();
            runner.join();
        }
    }
    ~Daemon() { stop(); }
};

struct Reply
{
    size_t key = 0;
    double latMs = 0;
    double doneAt = 0; ///< steady-clock seconds when the reply arrived
    bool ok = false;
    bool warm = false;
    std::string render;
    std::string error;
    /** The key's engine-pool totals so far (cumulative per warm entry). */
    double poolQueries = 0, poolUndet = 0, poolSolverS = 0,
           poolConflicts = 0, poolProps = 0, poolPruned = 0;
};

bool
sendKey(serve::Client &cl, size_t key, uint64_t id, Reply *r)
{
    r->key = key;
    serve::JsonValue resp;
    std::string err;
    double t0 = nowS();
    bool ok = cl.requestJson(requestJson(serveKeys()[key], id), &resp, &err,
                             60'000);
    r->latMs = (nowS() - t0) * 1e3;
    if (!ok) {
        r->error = err;
        return false;
    }
    // A reply is paired with its request by id: after a timeout the
    // late reply would otherwise be read as the next request's.
    r->ok = resp.boolean_("ok") && resp.u64("id", ~0ull) == id;
    r->error = resp.u64("id", ~0ull) == id ? resp.str("error")
                                          : "reply id mismatch";
    r->warm = resp.boolean_("warm");
    r->render = resp.str("render");
    if (const serve::JsonValue *p = resp.find("pool")) {
        r->poolQueries = p->u64("solver_queries");
        r->poolUndet = p->u64("undetermined");
        if (const serve::JsonValue *v = p->find("solver_seconds"))
            r->poolSolverS = v->number;
        r->poolConflicts = p->u64("sat_conflicts");
        r->poolProps = p->u64("sat_propagations");
        r->poolPruned = p->u64("static_pruned");
    }
    return r->ok;
}

struct ServeSetup
{
    double seconds = 0, primeS = 0;
    uint64_t primeWrites = 0;
};

/**
 * Daemon start plus store priming: a first daemon solves the primed
 * keys into a fresh store and drains; the measured daemon then starts
 * on that store, so a primed key's first touch is a store read.
 */
ServeSetup
serveSetup(const fs::path &dir, Daemon &d, Tracer &tr, Checks &chk)
{
    ServeSetup s;
    Span root(tr, "serve.setup", 0);
    fs::remove_all(dir);
    fs::create_directories(dir);
    double t0 = nowS();
    {
        Span sp(tr, "store.prime", 0);
        Daemon primer;
        std::string err;
        chk.expect(primer.start(dir, &err), "priming daemon: " + err);
        serve::Client cl;
        chk.expect(cl.connect((dir / "rmp.sock").string(), &err),
                   "priming connect: " + err);
        for (size_t k = 0; k < serveKeys().size(); k++) {
            if (!serveKeys()[k].primed)
                continue;
            Reply r;
            chk.expect(sendKey(cl, k, k, &r),
                       "priming request failed: " + r.error);
        }
        cl.close();
        primer.stop();
        s.primeWrites = primer.server->stats().store.writes;
    }
    s.primeS = nowS() - t0;
    {
        Span sp(tr, "serve.start", 0);
        std::string err;
        chk.expect(d.start(dir, &err), "daemon start: " + err);
    }
    s.seconds = nowS() - t0;
    return s;
}

uint64_t
registrySum(const std::string &name)
{
    uint64_t v = 0;
    for (const obs::Sample &s : obs::Registry::global().snapshot())
        if (s.name == name)
            v += static_cast<uint64_t>(s.value);
    return v;
}

/** Set-ups per serve-mix run (setup_s is their median). */
constexpr int kServeSetups = 5;

RunResult
runServe(const Options &opt, Tracer &tr, Checks &chk)
{
    const auto &keys = serveKeys();
    fs::path dir = opt.outDir / ("serve-" + std::to_string(getpid()));
    RunResult r;

    if (opt.writeExpected) {
        for (const ServeKey &k : keys)
            checkExpected(opt.expectedDir / opt.workload /
                              (std::string(k.name) + ".txt"),
                          oneShotRender(k, true, chk), true, opt.outDir, chk);
        r.attempted = keys.size();
        r.metrics.put("setup_s", 0, "s");
        return r;
    }
    std::vector<std::string> expected(keys.size());
    for (size_t k = 0; k < keys.size(); k++) {
        bool ok = false;
        fs::path f = opt.expectedDir / opt.workload /
                     (std::string(keys[k].name) + ".txt");
        expected[k] = readFile(f, &ok);
        chk.expect(ok, "missing expected file " + f.string());
    }

    // Set-up several times; the last daemon is the measured one.
    tr.setEnabled(opt.trace);
    std::vector<double> setups;
    std::vector<uint64_t> primeWrites;
    ServeSetup last;
    std::unique_ptr<Daemon> daemon;
    for (int rep = 0; rep < kServeSetups; rep++) {
        daemon.reset(); // stops the previous set-up's daemon
        daemon = std::make_unique<Daemon>();
        last = serveSetup(dir, *daemon, tr, chk);
        setups.push_back(last.seconds);
        primeWrites.push_back(last.primeWrites);
    }
    for (uint64_t w : primeWrites)
        chk.expect(w == primeWrites.front(),
                   "store priming writes differ between set-ups");
    if (!chk.ok()) {
        r.attempted = 1;
        r.failed = 1;
        return r;
    }

    // Closed loop: each client sends its next request only after the
    // previous reply. Every request names a key drawn by weight from the
    // whole key set by a per-client generator seeded from --seed, so
    // the mix (and therefore the cost per request) is the same for every
    // seed while the order differs. The two mcva keys carry most of the
    // weight: a warm mcva request re-walks the synthesis over its cached
    // verdicts and renders a 12-15 KB result, milliseconds of CPU, so the
    // steady-phase figures measure the daemon's work rather than thread
    // wake-ups alone, which on a shared host vary by a factor of two from
    // one minute to the next. A key's first touch is a store read
    // (primed keys) or a solver run (new keys); every later touch is
    // warm. Blocks of kBlock requests are the unit of wall_s; traced
    // runs trace every other block.
    //
    // The loop opens with every key cold: first touches of new keys run
    // the solver and hold their workers for up to a few seconds, while
    // little else completes. How long that lasts depends on when the
    // client first draws each key, and it would swing whole-window
    // figures by tens of percent, so the end-to-end metrics measure the
    // steady phase that follows: once every key has been served, the
    // loop runs --seconds more, cut into one-second slices, and each
    // metric is the median over slices (which also keeps an episode of
    // CPU taken by other tenants of a shared host from moving the whole
    // run). The first touches show in serve.cold_ms and store.*.
    //
    // One client: with a client, a worker and a pool thread per vCPU the
    // figures followed the host's scheduler rather than the daemon, and
    // with two clients and two workers the throughput stayed the same
    // while the median latency doubled, the requests queueing behind
    // each other.
    const unsigned nclients = 1;
    constexpr unsigned kBlock = 20;
    constexpr double kMaxColdS = 120; // every key must be served by then

    struct Block
    {
        double endAt = 0, seconds = 0;
        bool traced = false;
    };
    struct ClientOut
    {
        std::vector<Reply> replies;
        std::vector<Block> blocks;
        uint64_t failed = 0;
    };
    std::vector<ClientOut> outs(nclients);
    double a0 = admissionWaitS();
    uint64_t hits0 = registrySum("exec.cache.hits"),
             miss0 = registrySum("exec.cache.misses");
    const uint32_t allKeys = (1u << keys.size()) - 1;
    std::vector<unsigned> cumWeight;
    for (const ServeKey &k : keys)
        cumWeight.push_back((cumWeight.empty() ? 0 : cumWeight.back()) +
                            k.weight);
    std::atomic<uint32_t> servedMask{0};
    std::atomic<double> steadyAt{0}; // when every key had been served
    std::atomic<bool> clientsDone{false};
    const double open = nowS();
    // Clock, process CPU and host steal at each steady-phase second.
    std::vector<double> sampleAt, cpuAt, stealAt;
    std::thread sampler([&] {
        while (steadyAt.load() == 0 && !clientsDone.load())
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
        const double s0 = steadyAt.load();
        for (size_t k = 0; s0 > 0 && !clientsDone.load(); k++) {
            while (nowS() < s0 + k && !clientsDone.load())
                std::this_thread::sleep_for(std::chrono::milliseconds(2));
            if (!clientsDone.load()) {
                sampleAt.push_back(nowS());
                cpuAt.push_back(cpuS());
                stealAt.push_back(stealS());
            }
        }
    });
    auto client = [&](unsigned c) {
        perfbench::tlsTid = c + 1;
        ClientOut &out = outs[c];
        std::mt19937_64 crng(opt.seed * 1000003 + c);
        serve::Client cl;
        std::string err;
        if (!cl.connect((dir / "rmp.sock").string(), &err)) {
            out.failed++;
            return;
        }
        uint64_t id = 0;
        for (unsigned block = 0;; block++) {
            bool traced = opt.trace && block % 2 == 1;
            double b0 = nowS();
            for (unsigned i = 0; i < kBlock; i++) {
                size_t key = static_cast<size_t>(
                    std::upper_bound(cumWeight.begin(), cumWeight.end(),
                                     crng() % cumWeight.back()) -
                    cumWeight.begin());
                Reply rep;
                {
                    std::unique_ptr<Span> sp;
                    if (traced)
                        sp = std::make_unique<Span>(tr, "serve.request",
                                                    c * 1'000'000 + id);
                    if (!sendKey(cl, key, id++, &rep)) {
                        out.failed++; // the connection is no longer usable
                    } else if ((servedMask.fetch_or(1u << key) |
                                (1u << key)) == allKeys) {
                        double none = 0;
                        steadyAt.compare_exchange_strong(none, nowS());
                    }
                }
                rep.doneAt = nowS();
                out.replies.push_back(std::move(rep));
                if (out.failed)
                    break;
            }
            double end = nowS(), s0 = steadyAt.load();
            out.blocks.push_back({end, end - b0, traced});
            if ((s0 > 0 && end - s0 >= opt.seconds) ||
                end - open > kMaxColdS + opt.seconds || out.failed)
                break;
        }
    };
    std::vector<std::thread> threads;
    for (unsigned c = 0; c < nclients; c++)
        threads.emplace_back(client, c);
    for (auto &t : threads)
        t.join();
    clientsDone = true;
    sampler.join();
    double admission = admissionWaitS() - a0;
    uint64_t hits = registrySum("exec.cache.hits") - hits0,
             miss = registrySum("exec.cache.misses") - miss0;

    // Socket + JSON floor, after the window.
    std::vector<double> pings;
    {
        serve::Client cl;
        std::string err;
        if (cl.connect((dir / "rmp.sock").string(), &err)) {
            for (int i = 0; i < 200; i++) {
                std::string line;
                double t0 = nowS();
                if (cl.request("{\"id\":" + std::to_string(i) +
                                   ",\"op\":\"ping\"}",
                               &line, &err, 10'000))
                    pings.push_back((nowS() - t0) * 1e3);
            }
        }
    }
    double d0 = nowS();
    {
        Span sp(tr, "store.drain", 0);
        daemon->stop();
    }
    double drainS = nowS() - d0;
    serve::ServerStats st = daemon->server->stats();
    tr.setEnabled(false);

    fs::remove_all(dir);

    // Checks: every reply equals the one-shot render of its key.
    // Slice k of the steady phase is [sampleAt[k], sampleAt[k+1]).
    const size_t nslices = sampleAt.empty() ? 0 : sampleAt.size() - 1;
    struct Slice
    {
        std::vector<double> lat, blocks;
        size_t nblocks = 0;
    };
    std::vector<Slice> slices(nslices);
    auto sliceOf = [&](double at) -> Slice * {
        auto it = std::upper_bound(sampleAt.begin(), sampleAt.end(), at);
        size_t k = static_cast<size_t>(it - sampleAt.begin());
        return k >= 1 && k - 1 < nslices ? &slices[k - 1] : nullptr;
    };
    std::vector<double> warm, cold, plainBlocks, tracedBlocks;
    std::map<size_t, const Reply *> poolByKey; ///< latest totals per key
    std::set<size_t> touched;
    uint64_t attempted = 0, failed = 0;
    for (const ClientOut &o : outs) {
        failed += o.failed;
        for (const Block &b : o.blocks) {
            (b.traced ? tracedBlocks : plainBlocks).push_back(b.seconds);
            if (Slice *sl = sliceOf(b.endAt)) {
                sl->nblocks++;
                if (!b.traced)
                    sl->blocks.push_back(b.seconds);
            }
        }
        for (const Reply &rep : o.replies) {
            attempted++;
            if (!rep.ok)
                continue;
            touched.insert(rep.key);
            chk.expect(rep.render == expected[rep.key],
                       std::string("serve reply differs from the one-shot "
                                   "render for ") +
                           keys[rep.key].name);
            if (Slice *sl = sliceOf(rep.doneAt))
                sl->lat.push_back(rep.latMs);
            if (rep.warm)
                warm.push_back(rep.latMs);
            else if (!keys[rep.key].primed)
                cold.push_back(rep.latMs);
            const Reply *&latest = poolByKey[rep.key];
            if (!latest || rep.poolQueries > latest->poolQueries)
                latest = &rep;
        }
    }
    chk.expect(touched.size() == keys.size(),
               "the window ended before every key was served");
    for (size_t k = 0; k < keys.size(); k++) {
        std::vector<double> kl;
        double first = 0;
        for (const ClientOut &o : outs)
            for (const Reply &rep : o.replies)
                if (rep.key == k && rep.ok) {
                    kl.push_back(rep.latMs);
                    if (!rep.warm)
                        first = rep.latMs;
                }
        std::printf("key %-15s %6zu replies, first %9.2f ms, median %7.3f "
                    "ms\n",
                    keys[k].name, kl.size(), first, median(kl));
    }
    Reply pool; // summed over keys
    for (const auto &[k, v] : poolByKey) {
        pool.poolQueries += v->poolQueries;
        pool.poolUndet += v->poolUndet;
        pool.poolSolverS += v->poolSolverS;
        pool.poolConflicts += v->poolConflicts;
        pool.poolProps += v->poolProps;
        pool.poolPruned += v->poolPruned;
    }
    r.attempted = attempted + (attempted ? 0 : 1);
    r.failed = failed;

    chk.expect(nslices > 0, "the steady phase held no whole second");

    if (!opt.trace) {
        // Every figure is a median over the slices. A one-second slice
        // holds too few replies to put ten beyond its p99, so p99 is
        // taken over groups of kP99Slices slices (a thousand replies or
        // more each) and lat_p99_ms is the median over the groups.
        constexpr size_t kP99Slices = 5;
        std::vector<double> rate, p50, p99, wall, cpu, group;
        for (size_t k = 0; k < nslices; k++) {
            const Slice &sl = slices[k];
            rate.push_back(sl.lat.size() / (sampleAt[k + 1] - sampleAt[k]));
            p50.push_back(median(sl.lat));
            wall.push_back(median(sl.blocks));
            cpu.push_back(ratio(cpuAt[k + 1] - cpuAt[k], sl.nblocks));
            group.insert(group.end(), sl.lat.begin(), sl.lat.end());
            if ((k + 1) % kP99Slices == 0 ||
                (k + 1 == nslices && p99.empty())) {
                p99.push_back(percentile(group, 99));
                group.clear();
            }
            std::printf("slice %zu: %.0f replies/s, p50 %.3f ms, p99 %.3f ms, "
                        "cpu/block %.5f s, host steal %.3f s\n",
                        k, rate.back(), p50.back(), percentile(sl.lat, 99),
                        cpu.back(), stealAt[k + 1] - stealAt[k]);
        }
        Metrics &m = r.metrics;
        m.put("setup_s", median(setups), "s");
        m.put("wall_s", median(wall), "s");
        m.put("cpu_s", median(cpu), "s");
        m.put("peak_rss_mb", peakRssMb(), "MB");
        m.put("undetermined_frac", ratio(pool.poolUndet, pool.poolQueries),
              "share");
        m.put("req_per_s", median(rate), "1/s");
        m.put("lat_p50_ms", median(p50), "ms");
        m.put("lat_p99_ms", median(p99), "ms");
        return r;
    }
    std::map<std::string, double> l;
    tr.setEnabled(true);
    ProbeOut p = runProbes("dcache", {}, nullptr, nullptr, tr, chk);
    tr.setEnabled(false);
    for (const perfbench::SpanRec &s : tr.spans())
        if (s.name == "designs.build")
            l["designs.build_s"] = (s.end - s.start) * 1e-9;
    l["analysis.facts_s"] = p.factsS;
    l["sim.compile_s"] = p.compileS;
    l["ift.instrument_s"] = p.instrumentS;
    l["bmc.static_pruned"] = pool.poolPruned;
    l["bmc.queries"] = pool.poolQueries;
    l["bmc.solver_s"] = pool.poolSolverS;
    l["bmc.undetermined"] = pool.poolUndet;
    l["sat.conflicts"] = pool.poolConflicts;
    l["sat.propagations"] = pool.poolProps;
    l["sat.props_per_s"] = ratio(pool.poolProps, pool.poolSolverS);
    l["exec.cache_hit_frac"] = ratio(hits, hits + miss);
    l["exec.admission_wait_s"] = admission;
    l["store.hit_frac"] =
        ratio(st.store.hits, st.store.hits + st.store.misses);
    l["store.writes"] = st.store.writes;
    l["store.blob_writes"] = st.store.blobWrites;
    l["store.prime_s"] = last.primeS;
    l["store.drain_s"] = drainS;
    l["serve.ping_ms"] = median(pings);
    l["serve.warm_ms"] = median(warm);
    l["serve.cold_ms"] = median(cold);
    l["serve.rejected"] = st.rejected;
    l["trace.overhead_s"] = median(tracedBlocks) - median(plainBlocks);
    printOverhead("request blocks", tracedBlocks, plainBlocks);
    r.metrics = layerMetrics(l);
    return r;
}

// ---------------------------------------------------------------------

bool
parseArgs(int argc, char **argv, Options *o)
{
    for (int i = 1; i < argc; i++) {
        std::string a = argv[i];
        auto val = [&]() -> std::string {
            return i + 1 < argc ? argv[++i] : "";
        };
        if (a == "--workload")
            o->workload = val();
        else if (a == "--seed")
            o->seed = std::strtoull(val().c_str(), nullptr, 10);
        else if (a == "--seconds")
            o->seconds = std::strtod(val().c_str(), nullptr);
        else if (a == "--trace")
            o->trace = val() == "1";
        else if (a == "--out-dir")
            o->outDir = val();
        else if (a == "--expected-dir")
            o->expectedDir = val();
        else if (a == "--write-expected")
            o->writeExpected = true;
        else
            return false;
    }
    static const std::set<std::string> known = {
        "synth-core", "explore-isa", "leak-cache", "serve-mix"};
    return known.count(o->workload) && o->seconds > 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    if (!parseArgs(argc, argv, &opt)) {
        std::fprintf(stderr,
                     "usage: perfbench --workload synth-core|explore-isa|"
                     "leak-cache|serve-mix --seed N --seconds S --trace 0|1 "
                     "[--out-dir DIR] [--expected-dir DIR] "
                     "[--write-expected]\n");
        return 2;
    }
    fs::create_directories(opt.outDir);
    Tracer tr;
    Checks chk;
    RunResult r = opt.workload == "serve-mix" ? runServe(opt, tr, chk)
                                              : runBatch(opt, tr, chk);
    if (opt.trace) {
        std::printf("%s", tr.selfTimeTable().c_str());
        fs::path f = opt.outDir / ("trace-" + opt.workload + "-" +
                                   std::to_string(opt.seed) + ".json");
        if (tr.writeChromeTrace(f))
            std::printf("trace: %s\n", f.string().c_str());
    }
    for (const std::string &f : chk.failures)
        std::printf("CHECK FAILED: %s\n", f.c_str());
    for (const auto &[name, vu] : r.metrics.kv)
        std::printf("%-24s %14.6f %s\n", name.c_str(), vu.first,
                    vu.second.c_str());
    std::printf("%-24s %14.6f share (%llu of %llu attempted)\n",
                "failed_frac", ratio(r.failed, r.attempted),
                (unsigned long long)r.failed,
                (unsigned long long)r.attempted);
    std::printf("%s\n", resultLine(chk.ok(), r.attempted, r.failed,
                                   r.metrics)
                            .c_str());
    std::fflush(stdout);
    return chk.ok() && r.failed == 0 ? 0 : 1;
}
