/**
 * @file
 * Observability-layer tests (ISSUE 4): the metrics registry and its
 * histogram bucket arithmetic, span tracing and Chrome-trace export,
 * the trace validator, the logging upgrades (Debug level, pluggable
 * sink, subsystem-tagged warning counters), and the headline
 * determinism contract — a seeded pipeline report is bitwise
 * identical with telemetry on or off, at 1/2/8 threads.
 */

#include <gtest/gtest.h>

#include <cctype>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/log.hh"
#include "common/parallel.hh"
#include "common/telemetry.hh"
#include "core/pipeline.hh"
#include "scope/fib.hh"

namespace
{

using namespace hifi;

// ---- Metrics registry ----------------------------------------------

TEST(Metrics, CounterAndGaugeRoundTrip)
{
    auto &c = telemetry::registry().counter("test.counter.roundtrip");
    const uint64_t before = c.value();
    c.add();
    c.add(41);
    EXPECT_EQ(c.value(), before + 42);
    // Same name, same instrument.
    EXPECT_EQ(&telemetry::registry().counter("test.counter.roundtrip"),
              &c);

    auto &g = telemetry::registry().gauge("test.gauge.roundtrip");
    g.set(2.5);
    EXPECT_DOUBLE_EQ(g.value(), 2.5);
    g.set(-1.0);
    EXPECT_DOUBLE_EQ(g.value(), -1.0);
}

TEST(Metrics, HistogramBucketEdgeCases)
{
    auto &h = telemetry::registry().histogram("test.hist.edges",
                                              {1.0, 4.0, 16.0});
    ASSERT_EQ(h.edges(), (std::vector<double>{1.0, 4.0, 16.0}));

    h.observe(0.0);   // below the first edge -> bucket 0
    h.observe(1.0);   // exactly on an edge counts in that bucket
    h.observe(1.5);   // bucket 1 (<= 4)
    h.observe(4.0);   // edge again -> bucket 1
    h.observe(16.0);  // last edge -> bucket 2
    h.observe(17.0);  // above the last edge -> overflow bucket
    h.observe(-3.0);  // negatives land in the first bucket

    const auto counts = h.bucketCounts();
    ASSERT_EQ(counts.size(), 4u);
    EXPECT_EQ(counts[0], 3u); // 0.0, 1.0, -3.0
    EXPECT_EQ(counts[1], 2u); // 1.5, 4.0
    EXPECT_EQ(counts[2], 1u); // 16.0
    EXPECT_EQ(counts[3], 1u); // 17.0
    EXPECT_EQ(h.count(), 7u);
    EXPECT_DOUBLE_EQ(h.sum(), 0.0 + 1.0 + 1.5 + 4.0 + 16.0 + 17.0 -
                     3.0);
}

TEST(Metrics, HistogramSortsAndDeduplicatesEdges)
{
    auto &h = telemetry::registry().histogram(
        "test.hist.dedupe", {8.0, 2.0, 8.0, 2.0});
    EXPECT_EQ(h.edges(), (std::vector<double>{2.0, 8.0}));
    h.observe(5.0);
    const auto counts = h.bucketCounts();
    // Sized for the pre-dedupe edge list; extra slots stay zero.
    ASSERT_GE(counts.size(), 3u);
    EXPECT_EQ(counts[1], 1u);

    // Re-registration with different edges keeps the first layout.
    auto &again = telemetry::registry().histogram(
        "test.hist.dedupe", {1.0, 2.0, 3.0, 4.0, 5.0});
    EXPECT_EQ(&again, &h);
    EXPECT_EQ(again.edges(), (std::vector<double>{2.0, 8.0}));
}

TEST(Metrics, SnapshotDeltaSubtractsBaseline)
{
    auto &c = telemetry::registry().counter("test.delta.counter");
    auto &h = telemetry::registry().histogram("test.delta.hist",
                                              {10.0});
    c.add(5);
    h.observe(3.0);
    const auto baseline = telemetry::registry().snapshot();
    c.add(7);
    h.observe(4.0);
    h.observe(40.0);
    const auto delta =
        telemetry::registry().snapshot().since(baseline);
    EXPECT_EQ(delta.counters.at("test.delta.counter"), 7u);
    const auto &dh = delta.histograms.at("test.delta.hist");
    EXPECT_EQ(dh.count, 2u);
    ASSERT_EQ(dh.buckets.size(), 2u);
    EXPECT_EQ(dh.buckets[0], 1u);
    EXPECT_EQ(dh.buckets[1], 1u);
    EXPECT_DOUBLE_EQ(dh.sum, 44.0);
}

// ---- Span tracing and export ---------------------------------------

TEST(Spans, DisabledByDefaultAndRecordsNothing)
{
    ASSERT_FALSE(telemetry::enabled());
    {
        const telemetry::Span span("should.not.appear");
    }
    telemetry::Session session;
    const auto collected = session.finish({});
    ASSERT_TRUE(collected != nullptr);
    for (const auto &s : collected->spans)
        EXPECT_STRNE(s.name, "should.not.appear");
    EXPECT_FALSE(telemetry::enabled());
}

TEST(Spans, NestedSpansExportAsWellFormedChromeTrace)
{
    telemetry::Session session;
    EXPECT_TRUE(telemetry::enabled());
    {
        const telemetry::Span outer("test.outer");
        {
            const telemetry::Span inner("test.inner");
            const telemetry::Span innermost("test.innermost");
        }
        const telemetry::Span sibling("test.sibling");
    }
    const auto collected = session.finish({});
    EXPECT_FALSE(telemetry::enabled());
    ASSERT_TRUE(collected != nullptr);
    ASSERT_EQ(collected->spans.size(), 4u);

    // Depths recorded relative to each span's nesting level.
    uint32_t outer_depth = 0, inner_depth = 0, innermost_depth = 0;
    for (const auto &s : collected->spans) {
        if (std::strcmp(s.name, "test.outer") == 0)
            outer_depth = s.depth;
        else if (std::strcmp(s.name, "test.inner") == 0)
            inner_depth = s.depth;
        else if (std::strcmp(s.name, "test.innermost") == 0)
            innermost_depth = s.depth;
    }
    EXPECT_EQ(inner_depth, outer_depth + 1);
    EXPECT_EQ(innermost_depth, outer_depth + 2);

    // Aggregated wall time covers every name.
    EXPECT_EQ(collected->stageWallNs.size(), 4u);
    EXPECT_EQ(collected->stageWallNs.at("test.outer").count, 1u);

    // The export passes the validator, including nesting checks.
    std::string error;
    telemetry::TraceCheckOptions options;
    options.minDistinctNames = 4;
    options.requiredPrefixes = {"test."};
    telemetry::TraceStats stats;
    EXPECT_TRUE(telemetry::validateChromeTrace(
        collected->traceJson(), options, &error, &stats))
        << error;
    EXPECT_EQ(stats.events, 4u);
    EXPECT_EQ(stats.distinctNames, 4u);

    // The metrics export is syntactically sane too.
    const std::string metrics = collected->metricsJson();
    EXPECT_NE(metrics.find("\"counters\""), std::string::npos);
    EXPECT_NE(metrics.find("\"stage_wall_ns\""), std::string::npos);
    EXPECT_NE(metrics.find("\"test.outer\""), std::string::npos);
}

TEST(Spans, SecondSessionStartsClean)
{
    {
        telemetry::Session first;
        const telemetry::Span span("test.stale");
        // Abandon without finish(): the destructor disables.
    }
    EXPECT_FALSE(telemetry::enabled());
    telemetry::Session second;
    const auto collected = second.finish({});
    for (const auto &s : collected->spans)
        EXPECT_STRNE(s.name, "test.stale");
}

TEST(Spans, UnboundThreadRecordsNothing)
{
    // Attribution is by binding only: a thread that opened no session
    // and runs no fan-out of a bound one leaves no spans and no routed
    // counter deltas in the session opened on this thread.  The
    // global total still counts it.
    auto &counter =
        telemetry::registry().counter("test.unbound.counter");
    const uint64_t before = counter.value();
    telemetry::Session session;
    std::thread stranger([&] {
        const telemetry::Span span("test.unbound.span");
        counter.add(3);
    });
    stranger.join();
    {
        const telemetry::Span span("test.bound.span");
        counter.add(2);
    }
    const auto collected = session.finish({});
    ASSERT_TRUE(collected != nullptr);
    ASSERT_EQ(collected->spans.size(), 1u);
    EXPECT_STREQ(collected->spans.front().name, "test.bound.span");
    EXPECT_EQ(collected->metrics.counters.at("test.unbound.counter"),
              2u);
    EXPECT_EQ(counter.value() - before, 5u);
}

TEST(Spans, NestedSessionRestoresTheOuterBinding)
{
    using telemetry::detail::currentSessionBinding;
    EXPECT_EQ(currentSessionBinding(), 0u);
    telemetry::Session outer;
    EXPECT_EQ(currentSessionBinding(), outer.id());
    std::shared_ptr<const telemetry::PipelineTelemetry> inner_result;
    {
        telemetry::Session inner;
        EXPECT_EQ(currentSessionBinding(), inner.id());
        {
            const telemetry::Span span("test.inner.span");
        }
        inner_result = inner.finish({});
        EXPECT_EQ(currentSessionBinding(), outer.id());
    }
    {
        // Abandoned without finish(): the destructor restores too.
        telemetry::Session abandoned;
        EXPECT_EQ(currentSessionBinding(), abandoned.id());
    }
    EXPECT_EQ(currentSessionBinding(), outer.id());
    EXPECT_TRUE(telemetry::enabled());
    {
        const telemetry::Span span("test.outer.span");
    }
    const auto outer_result = outer.finish({});
    EXPECT_EQ(currentSessionBinding(), 0u);
    EXPECT_FALSE(telemetry::enabled());

    ASSERT_EQ(inner_result->spans.size(), 1u);
    EXPECT_STREQ(inner_result->spans.front().name, "test.inner.span");
    ASSERT_EQ(outer_result->spans.size(), 1u);
    EXPECT_STREQ(outer_result->spans.front().name, "test.outer.span");
}

// ---- Trace validator negative cases --------------------------------

TEST(TraceCheck, RejectsMalformedDocuments)
{
    std::string error;
    EXPECT_FALSE(telemetry::validateChromeTrace("not json", {},
                                                &error));
    EXPECT_FALSE(error.empty());
    EXPECT_FALSE(telemetry::validateChromeTrace("{}", {}, &error));
    EXPECT_FALSE(telemetry::validateChromeTrace(
        "{\"traceEvents\": 3}", {}, &error));
    // Event missing its duration.
    EXPECT_FALSE(telemetry::validateChromeTrace(
        "{\"traceEvents\":[{\"name\":\"a\",\"ph\":\"X\","
        "\"ts\":0,\"pid\":1,\"tid\":1}]}",
        {}, &error));
    // Wrong phase type.
    EXPECT_FALSE(telemetry::validateChromeTrace(
        "{\"traceEvents\":[{\"name\":\"a\",\"ph\":\"B\",\"ts\":0,"
        "\"dur\":1,\"pid\":1,\"tid\":1}]}",
        {}, &error));
}

TEST(TraceCheck, RejectsPartialOverlapAcceptsNesting)
{
    // a: [0, 10], b: [5, 15] on one thread — partial overlap.
    const std::string overlapping =
        "{\"traceEvents\":["
        "{\"name\":\"a\",\"ph\":\"X\",\"ts\":0,\"dur\":10,"
        "\"pid\":1,\"tid\":1},"
        "{\"name\":\"b\",\"ph\":\"X\",\"ts\":5,\"dur\":10,"
        "\"pid\":1,\"tid\":1}]}";
    std::string error;
    EXPECT_FALSE(telemetry::validateChromeTrace(overlapping, {},
                                                &error));
    EXPECT_NE(error.find("overlap"), std::string::npos);

    // Same intervals on different threads: fine.
    const std::string cross_thread =
        "{\"traceEvents\":["
        "{\"name\":\"a\",\"ph\":\"X\",\"ts\":0,\"dur\":10,"
        "\"pid\":1,\"tid\":1},"
        "{\"name\":\"b\",\"ph\":\"X\",\"ts\":5,\"dur\":10,"
        "\"pid\":1,\"tid\":2}]}";
    EXPECT_TRUE(telemetry::validateChromeTrace(cross_thread, {},
                                               &error))
        << error;

    // Proper containment passes; the name floor and prefixes bite.
    const std::string nested =
        "{\"traceEvents\":["
        "{\"name\":\"a\",\"ph\":\"X\",\"ts\":0,\"dur\":10,"
        "\"pid\":1,\"tid\":1},"
        "{\"name\":\"b\",\"ph\":\"X\",\"ts\":2,\"dur\":3,"
        "\"pid\":1,\"tid\":1}]}";
    EXPECT_TRUE(telemetry::validateChromeTrace(nested, {}, &error))
        << error;
    telemetry::TraceCheckOptions strict;
    strict.minDistinctNames = 3;
    EXPECT_FALSE(telemetry::validateChromeTrace(nested, strict,
                                                &error));
    strict.minDistinctNames = 1;
    strict.requiredPrefixes = {"solver"};
    EXPECT_FALSE(telemetry::validateChromeTrace(nested, strict,
                                                &error));
    EXPECT_NE(error.find("solver"), std::string::npos);
}

// ---- Logging upgrades ----------------------------------------------

TEST(Log, DebugLevelAndCaptureSink)
{
    common::setLogLevel(common::LogLevel::Inform);
    {
        common::CaptureLog capture;
        common::debug("invisible at Inform");
        common::inform("visible");
        auto msgs = capture.messages();
        ASSERT_EQ(msgs.size(), 1u);
        EXPECT_EQ(msgs[0].level, common::LogLevel::Inform);
        EXPECT_NE(msgs[0].message.find("visible"),
                  std::string::npos);
    }
    common::setLogLevel(common::LogLevel::Debug);
    {
        common::CaptureLog capture;
        common::debug("now visible");
        auto msgs = capture.messages();
        ASSERT_EQ(msgs.size(), 1u);
        EXPECT_EQ(msgs[0].level, common::LogLevel::Debug);
    }
    common::setLogLevel(common::LogLevel::Silent);
}

TEST(Log, TimestampsPrefixMessages)
{
    common::setLogLevel(common::LogLevel::Inform);
    common::setLogTimestamps(true);
    common::CaptureLog capture;
    common::inform("stamped");
    common::setLogTimestamps(false);
    common::inform("bare");
    common::setLogLevel(common::LogLevel::Silent);

    const auto msgs = capture.messages();
    ASSERT_EQ(msgs.size(), 2u);
    // "YYYY-MM-DD HH:MM:SS.mmm " prefix, then the level tag.
    EXPECT_TRUE(std::isdigit(
        static_cast<unsigned char>(msgs[0].message.front())));
    EXPECT_NE(msgs[0].message.find("info: stamped"),
              std::string::npos);
    EXPECT_EQ(msgs[1].message, "info: bare");
}

TEST(Log, SubsystemWarningsFeedTheMetricsRegistry)
{
    const size_t total_before = common::warnCount();
    const uint64_t tagged_before =
        telemetry::registry().counter("log.warnings.testsub").value();

    common::CaptureLog capture; // swallow the output
    common::setLogLevel(common::LogLevel::Warn);
    common::warn("plain warning");
    common::warn("testsub", "tagged warning");
    common::setLogLevel(common::LogLevel::Silent);
    common::warn("testsub", "counted even when silenced");

    EXPECT_EQ(common::warnCount(), total_before + 3);
    EXPECT_EQ(telemetry::registry()
                  .counter("log.warnings.testsub")
                  .value(),
              tagged_before + 2);

    // The tagged warning printed with its subsystem prefix.
    bool found = false;
    for (const auto &m : capture.messages())
        if (m.message.find("[testsub]") != std::string::npos)
            found = true;
    EXPECT_TRUE(found);
}

// ---- The determinism contract on the full pipeline -----------------

/**
 * Bit-exact signature of everything seed-derived in a report.
 * Doubles are rendered from their bit patterns, so two signatures
 * match iff the numeric results are bitwise identical; the telemetry
 * attachment itself is deliberately excluded (it is wall-clock, not
 * seed, data).
 */
std::string
reportSignature(const core::PipelineReport &r)
{
    std::string sig;
    auto bits = [&sig](double v) {
        uint64_t u;
        std::memcpy(&u, &v, sizeof(u));
        char buf[24];
        std::snprintf(buf, sizeof(buf), "%016llx|",
                      static_cast<unsigned long long>(u));
        sig += buf;
    };
    auto num = [&sig](uint64_t v) {
        sig += std::to_string(v) + "|";
    };
    sig += r.chipId + "|";
    num(static_cast<uint64_t>(r.trueTopology));
    num(static_cast<uint64_t>(r.extractedTopology));
    num(r.topologyCorrect);
    num(r.trueCommonGateStrips);
    num(r.extractedCommonGateStrips);
    num(r.trueDevices);
    num(r.extractedDevices);
    num(r.bitlinesFound);
    num(r.bitlinesTrue);
    num(r.crossCouplingConsistent);
    sig += r.matchedTemplate + "|";
    bits(r.matchScore);
    num(r.slices);
    bits(r.alignmentResidualPx);
    num(r.alignmentBudgetMet);
    for (const auto &[role, rec] : r.roles) {
        num(static_cast<uint64_t>(role));
        bits(rec.trueW);
        bits(rec.trueL);
        bits(rec.measuredW);
        bits(rec.measuredL);
    }
    bits(r.maxDimErrorNm);
    num(r.slicesRetried);
    num(r.retries);
    num(r.slicesInterpolated);
    for (const size_t s : r.interpolatedSlices)
        num(s);
    num(r.slicesUnrecoverable);
    num(r.faultsInjected);
    num(r.faultsDetected);
    bits(r.qcConfidence);
    num(r.degraded);
    bits(r.campaign.totalHours);
    bits(r.campaign.retryHours);
    num(r.campaign.reimagedSlices);
    num(r.analysis.devices.size());
    num(r.analysis.bitlines.size());
    num(r.analysis.commonGateStrips);
    num(static_cast<uint64_t>(r.analysis.topology));
    // The audit trail renders every QC metric at %.17g — enough to
    // round-trip a double exactly.
    sig += scope::qcAuditJson(r.qcAudit);
    return sig;
}

TEST(PipelineTelemetry, ReportBitwiseIdenticalOnOffAt128Threads)
{
    // The acceptance bar of ISSUE 4: with a fixed seed the report is
    // a pure function of the seed — telemetry on or off, 1/2/8
    // threads, always the same bits.
    core::PipelineConfig config;
    config.chipId = "C5";
    config.pairs = 2;
    config.seed = 23;
    config.faults.enabled = true;
    config.faults = config.faults.scaled(2.0);
    config.faults.enabled = true;

    config.threads = 1;
    config.telemetry.enabled = false;
    const auto golden = core::runPipelineChecked(config).value();
    EXPECT_TRUE(golden.telemetry == nullptr);
    const std::string want = reportSignature(golden);
    EXPECT_FALSE(golden.qcAudit.empty());

    for (const size_t threads : {1u, 2u, 8u}) {
        for (const bool telem : {false, true}) {
            if (threads == 1 && !telem)
                continue; // the golden run
            config.threads = threads;
            config.telemetry.enabled = telem;
            const auto report =
                core::runPipelineChecked(config).value();
            EXPECT_EQ(reportSignature(report), want)
                << "threads=" << threads << " telemetry=" << telem;
            EXPECT_EQ(report.telemetry != nullptr, telem);
        }
    }
    EXPECT_FALSE(telemetry::enabled());
}

TEST(PipelineTelemetry, TraceCoversThePipelineStages)
{
    core::PipelineConfig config;
    config.chipId = "C5";
    config.pairs = 2;
    config.seed = 7;
    config.faults.enabled = true;
    config.telemetry.enabled = true;

    const auto report = core::runPipelineChecked(config).value();
    ASSERT_TRUE(report.telemetry != nullptr);
    const auto &t = *report.telemetry;
    EXPECT_FALSE(t.spans.empty());

    // The acceptance criterion: >= 10 distinct span names covering
    // the fab / scope / image / re stages, and the trace validates
    // as a well-formed, properly nested Chrome trace.
    std::string error;
    telemetry::TraceCheckOptions options;
    options.minDistinctNames = 10;
    options.requiredPrefixes = {"pipeline", "fab", "scope", "image",
                                "re"};
    telemetry::TraceStats stats;
    EXPECT_TRUE(telemetry::validateChromeTrace(t.traceJson(), options,
                                               &error, &stats))
        << error;

    // Per-stage accounting: pipeline.run exists, ran once, and its
    // wall time bounds every sub-stage on the same thread.
    ASSERT_TRUE(t.stageWallNs.count("pipeline.run"));
    EXPECT_EQ(t.stageWallNs.at("pipeline.run").count, 1u);
    for (const char *stage :
         {"fab.build_region", "fab.voxelize", "scope.acquire",
          "scope.sem_image", "image.qc", "scope.postprocess",
          "image.denoise", "image.register", "image.assemble",
          "re.analyze", "re.segmentation", "re.topology_match"}) {
        EXPECT_TRUE(t.stageWallNs.count(stage)) << stage;
    }
    EXPECT_GE(t.stageWallNs.at("pipeline.run").wallNs,
              t.stageWallNs.at("scope.acquire").wallNs);

    // QC decision counters landed with fault-kind tags, and their
    // totals agree with the report's own accounting.
    uint64_t accepts = 0;
    for (const auto &[name, v] : t.metrics.counters)
        if (name.rfind("qc.accept.", 0) == 0)
            accepts += v;
    uint64_t accepted_slices = 0;
    for (const auto &d : report.qcAudit)
        accepted_slices += d.accepted ? 1 : 0;
    EXPECT_EQ(accepts, accepted_slices);

    // Pool instrumentation flowed into the same export.
    EXPECT_TRUE(t.metrics.counters.count("pool.jobs"));
    EXPECT_GT(t.metrics.counters.at("pool.jobs"), 0u);
}

// ---- Concurrent sessions -------------------------------------------

namespace concurrent_sessions
{

/**
 * The seed-deterministic portion of a run's telemetry: how many times
 * each span name fired, and every counter delta that is a pure
 * function of the seed (timing counters, which end in "_ns", are
 * excluded).  Two runs of the same config must agree on this
 * signature no matter what ran beside them.
 */
struct Signature
{
    std::map<std::string, size_t> spanCounts;
    std::map<std::string, uint64_t> counters;

    bool operator==(const Signature &o) const
    {
        return spanCounts == o.spanCounts && counters == o.counters;
    }
};

Signature
signatureOf(const core::PipelineReport &report)
{
    Signature sig;
    EXPECT_TRUE(report.telemetry != nullptr);
    if (!report.telemetry)
        return sig;
    for (const auto &span : report.telemetry->spans)
        ++sig.spanCounts[span.name];
    for (const auto &[name, value] :
         report.telemetry->metrics.counters) {
        if (name.size() > 3 &&
            name.compare(name.size() - 3, 3, "_ns") == 0)
            continue;
        sig.counters[name] = value;
    }
    return sig;
}

} // namespace concurrent_sessions

TEST(PipelineTelemetry, ConcurrentSessionsDoNotCrossTalk)
{
    // Two jobs tracing simultaneously (the campaign-service workload)
    // must not interleave spans or corrupt each other's metric
    // deltas: every concurrent report carries exactly the telemetry
    // its solo run carries.  Different seeds make the signatures
    // differ between the jobs, so leakage in either direction shows.
    using concurrent_sessions::Signature;
    using concurrent_sessions::signatureOf;

    core::PipelineConfig config;
    config.chipId = "C5";
    config.pairs = 2;
    config.faults.enabled = true;
    config.telemetry.enabled = true;
    config.threads = 2;

    const uint64_t seeds[2] = {23, 24};
    Signature solo[2];
    for (int i = 0; i < 2; ++i) {
        config.seed = seeds[i];
        const auto run = core::runPipelineChecked(config);
        ASSERT_TRUE(run.ok()) << run.error().message;
        solo[i] = signatureOf(run.value());
        EXPECT_FALSE(solo[i].spanCounts.empty());
    }
    // The two jobs are genuinely distinguishable.
    EXPECT_FALSE(solo[0] == solo[1]);

    Signature concurrent[2];
    std::string errors[2];
    std::vector<std::thread> threads;
    for (int i = 0; i < 2; ++i)
        threads.emplace_back([&, i] {
            core::PipelineConfig mine = config;
            mine.seed = seeds[i];
            const auto run = core::runPipelineChecked(mine);
            if (!run.ok()) {
                errors[i] = run.error().message;
                return;
            }
            concurrent[i] = signatureOf(run.value());
        });
    for (auto &t : threads)
        t.join();

    for (int i = 0; i < 2; ++i) {
        ASSERT_TRUE(errors[i].empty()) << errors[i];
        EXPECT_TRUE(concurrent[i] == solo[i]) << "job " << i;
        // Pinpoint any divergence for the log.
        for (const auto &[name, v] : solo[i].spanCounts)
            EXPECT_EQ(concurrent[i].spanCounts[name], v)
                << "span " << name << " of job " << i;
        for (const auto &[name, v] : solo[i].counters)
            EXPECT_EQ(concurrent[i].counters[name], v)
                << "counter " << name << " of job " << i;
    }
    EXPECT_FALSE(telemetry::enabled());
}

} // namespace
