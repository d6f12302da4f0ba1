/**
 * @file
 * google-benchmark microbenchmarks for the substrates: TV denoising,
 * mutual-information registration, voxelization, transient circuit
 * simulation, and the overhead audit.
 */

#include <benchmark/benchmark.h>

#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "circuit/dual_sa.hh"
#include "circuit/mismatch.hh"
#include "circuit/sense_amp.hh"
#include "common/parallel.hh"
#include "common/rng.hh"
#include "common/telemetry.hh"
#include "dram/device.hh"
#include "eval/overheads.hh"
#include "fab/sa_region.hh"
#include "fab/voxelizer.hh"
#include "image/denoise.hh"
#include "image/noise.hh"
#include "image/registration.hh"

namespace
{

using namespace hifi;

image::Image2D
noisyPattern(size_t w, size_t h)
{
    common::Rng rng(1);
    image::Image2D img(w, h, 0.1f);
    for (size_t x = 4; x < w; x += 8)
        img.fillRect(static_cast<long>(x), 0,
                     static_cast<long>(x + 4),
                     static_cast<long>(h), 0.8f);
    image::addGaussianNoise(img, 0.05, rng);
    return img;
}

void
BM_DenoiseChambolle(benchmark::State &state)
{
    const auto img = noisyPattern(
        static_cast<size_t>(state.range(0)),
        static_cast<size_t>(state.range(0)));
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            image::denoiseChambolle(img, {0.05, 30}));
    }
    state.SetItemsProcessed(state.iterations() *
                            state.range(0) * state.range(0));
}
BENCHMARK(BM_DenoiseChambolle)->Arg(32)->Arg(64)->Arg(128);

void
BM_DenoiseSplitBregman(benchmark::State &state)
{
    const auto img = noisyPattern(
        static_cast<size_t>(state.range(0)),
        static_cast<size_t>(state.range(0)));
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            image::denoiseSplitBregman(img, {0.05, 30}));
    }
    state.SetItemsProcessed(state.iterations() *
                            state.range(0) * state.range(0));
}
BENCHMARK(BM_DenoiseSplitBregman)->Arg(32)->Arg(64)->Arg(128);

void
BM_MiRegistration(benchmark::State &state)
{
    const auto fixed = noisyPattern(
        static_cast<size_t>(state.range(0)),
        static_cast<size_t>(state.range(0)));
    const auto moving = fixed.shifted(2, -1);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            image::registerShiftMi(fixed, moving, {16, 4}));
    }
}
BENCHMARK(BM_MiRegistration)->Arg(48)->Arg(96);

void
BM_VoxelizeSaRegion(benchmark::State &state)
{
    fab::SaRegionSpec spec;
    spec.pairs = static_cast<size_t>(state.range(0));
    fab::SaRegionTruth truth;
    const auto cell = fab::buildSaRegion(spec, truth);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            fab::voxelize(*cell, truth.region, truth.voxelize));
    }
}
BENCHMARK(BM_VoxelizeSaRegion)->Arg(2)->Arg(4)->Arg(8);

// ---- Thread-count scaling of the hot kernels -----------------------
// Results are bitwise-identical across thread counts (deterministic
// fixed partitions — common/parallel.hh), so these pairs measure pure
// speedup, not a numerics trade.

void
BM_DenoiseChambolleThreads(benchmark::State &state)
{
    common::ScopedThreads scoped(
        static_cast<size_t>(state.range(1)));
    const auto img = noisyPattern(
        static_cast<size_t>(state.range(0)),
        static_cast<size_t>(state.range(0)));
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            image::denoiseChambolle(img, {0.05, 30}));
    }
    state.SetItemsProcessed(state.iterations() *
                            state.range(0) * state.range(0));
}
BENCHMARK(BM_DenoiseChambolleThreads)
    ->Args({256, 1})
    ->Args({256, 2})
    ->Args({256, 4});

void
BM_MiRegistrationThreads(benchmark::State &state)
{
    common::ScopedThreads scoped(
        static_cast<size_t>(state.range(1)));
    const auto fixed = noisyPattern(
        static_cast<size_t>(state.range(0)),
        static_cast<size_t>(state.range(0)));
    const auto moving = fixed.shifted(2, -1);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            image::registerShiftMi(fixed, moving, {16, 6}));
    }
}
BENCHMARK(BM_MiRegistrationThreads)
    ->Args({96, 1})
    ->Args({96, 4});

void
BM_SensingYieldThreads(benchmark::State &state)
{
    common::ScopedThreads scoped(
        static_cast<size_t>(state.range(1)));
    circuit::SaParams base;
    base.topology = circuit::SaTopology::Classic;
    circuit::MismatchParams mc;
    mc.trials = static_cast<size_t>(state.range(0));
    mc.avtVnm = 9.0;
    circuit::TranParams tp = circuit::defaultSaTran();
    tp.dt = 50e-12;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            circuit::sensingYield(base, mc, tp));
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SensingYieldThreads)
    ->Args({16, 1})
    ->Args({16, 2})
    ->Args({16, 4});

void
BM_TransientActivation(benchmark::State &state)
{
    circuit::SaParams params;
    params.topology = state.range(0) == 0
        ? circuit::SaTopology::Classic
        : circuit::SaTopology::OffsetCancellation;
    for (auto _ : state) {
        benchmark::DoNotOptimize(circuit::simulateActivation(params));
    }
}
BENCHMARK(BM_TransientActivation)->Arg(0)->Arg(1);

// ---- Linear-solve engine comparison --------------------------------
// Same activation, dense vs cached-symbolic sparse LU, on the three
// system sizes that matter: classic SA (~16 unknowns), OCSA (~20),
// and the shared-control dual-SA region (~30).  Results are identical
// to 1e-9 across engines (see test_circuit); the pairs measure pure
// linear-algebra cost.

void
BM_SolverActivation(benchmark::State &state)
{
    circuit::SaParams params;
    params.topology = state.range(0) == 0
        ? circuit::SaTopology::Classic
        : circuit::SaTopology::OffsetCancellation;
    circuit::TranParams tp = circuit::defaultSaTran();
    tp.solver = state.range(1) == 0 ? circuit::LinearSolver::Dense
                                    : circuit::LinearSolver::Sparse;
    circuit::SaTestbench testbench(params);
    for (auto _ : state)
        benchmark::DoNotOptimize(testbench.simulate(tp));
}
BENCHMARK(BM_SolverActivation)
    ->Args({0, 0})
    ->Args({0, 1})
    ->Args({1, 0})
    ->Args({1, 1});

void
BM_SolverDualSa(benchmark::State &state)
{
    circuit::DualSaParams params;
    circuit::TranParams tp = circuit::defaultSaTran();
    tp.solver = state.range(0) == 0 ? circuit::LinearSolver::Dense
                                    : circuit::LinearSolver::Sparse;
    for (auto _ : state)
        benchmark::DoNotOptimize(
            circuit::simulateSharedControl(params, tp));
}
BENCHMARK(BM_SolverDualSa)->Arg(0)->Arg(1);

void
BM_SensingYieldTrials(benchmark::State &state)
{
    // Single-threaded Monte-Carlo sweep: isolates the per-chunk
    // testbench reuse + per-trial vthDelta patching from the
    // thread-scaling already covered by BM_SensingYieldThreads.
    common::ScopedThreads scoped(1);
    circuit::SaParams base;
    base.topology = circuit::SaTopology::Classic;
    circuit::MismatchParams mc;
    mc.trials = static_cast<size_t>(state.range(0));
    mc.avtVnm = 9.0;
    circuit::TranParams tp = circuit::defaultSaTran();
    tp.dt = 50e-12;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            circuit::sensingYield(base, mc, tp));
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SensingYieldTrials)->Arg(256)->Arg(1024);

void
BM_DramCommandThroughput(benchmark::State &state)
{
    dram::BankConfig config;
    config.rows = 512;
    config.columns = 128;
    config.timings = {10.0, 30.0, 10.0, 4.0, 8.0};
    dram::Bank bank(config);
    double t = 0.0;
    size_t row = 0;
    for (auto _ : state) {
        bank.activate(t, row % config.rows);
        bank.write(t + 12.0, 0, static_cast<uint8_t>(row));
        bank.read(t + 17.0, 0);
        bank.precharge(t + 35.0);
        t += 50.0;
        ++row;
    }
    state.SetItemsProcessed(state.iterations() * 4);
}
BENCHMARK(BM_DramCommandThroughput);

void
BM_OverheadAudit(benchmark::State &state)
{
    for (auto _ : state)
        benchmark::DoNotOptimize(eval::auditAllPapers());
}
BENCHMARK(BM_OverheadAudit);

/**
 * Telemetry smoke pass: one representative run of each instrumented
 * substrate family (transient solver, virtual fab, imaging stack)
 * under a collection session, written to <prefix>.trace.json and
 * <prefix>.metrics.json.  CI validates the trace with
 * hifi_trace_check --require-prefixes solver,fab.
 */
int
telemetrySmoke(const std::string &prefix)
{
    telemetry::TelemetryConfig tcfg;
    tcfg.enabled = true;
    tcfg.tracePath = prefix + ".trace.json";
    tcfg.metricsPath = prefix + ".metrics.json";

    telemetry::Session session;
    {
        circuit::SaParams params;
        params.topology = circuit::SaTopology::Classic;
        benchmark::DoNotOptimize(
            circuit::simulateActivation(params));
        params.topology = circuit::SaTopology::OffsetCancellation;
        benchmark::DoNotOptimize(
            circuit::simulateActivation(params));

        fab::SaRegionSpec spec;
        spec.pairs = 2;
        fab::SaRegionTruth truth;
        const auto cell = fab::buildSaRegion(spec, truth);
        benchmark::DoNotOptimize(
            fab::voxelize(*cell, truth.region, truth.voxelize));
    }
    const auto collected = session.finish(tcfg);
    if (!collected || collected->spans.empty()) {
        std::cerr << "telemetry smoke collected no spans\n";
        return 1;
    }
    std::cout << "telemetry: " << collected->spans.size()
              << " spans -> " << tcfg.tracePath << "\n";
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    hifi::telemetry::reportPeakRssAtExit();
    std::string telemetry_prefix;
    std::vector<char *> passthrough;
    passthrough.push_back(argv[0]);
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--telemetry") == 0 && i + 1 < argc)
            telemetry_prefix = argv[++i];
        else
            passthrough.push_back(argv[i]);
    }
    if (!telemetry_prefix.empty()) {
        if (const int rc = telemetrySmoke(telemetry_prefix))
            return rc;
    }
    int pass_argc = static_cast<int>(passthrough.size());
    benchmark::Initialize(&pass_argc, passthrough.data());
    if (benchmark::ReportUnrecognizedArguments(pass_argc,
                                               passthrough.data()))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
