#include "common/telemetry.hh"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <mutex>
#include <sstream>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "common/log.hh"

namespace hifi
{
namespace telemetry
{

namespace detail
{
std::atomic<bool> g_enabled{false};
} // namespace detail

namespace
{

uint64_t
nowNs()
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/// Session id the calling thread is bound to (0 = unbound).
thread_local uint64_t t_boundSession = 0;

/**
 * Registry of the currently active sessions: how many there are
 * (the first one clears stale buffers, the last one disables
 * collection) and the next id to hand out.
 */
struct ActiveSessions
{
    std::mutex mu;
    size_t count = 0;
    std::atomic<uint64_t> nextId{1};
};

ActiveSessions &
activeSessions()
{
    static ActiveSessions *active = new ActiveSessions;
    return *active;
}

/// Per-histogram routed accumulation (buckets mirror the global
/// histogram's layout).
struct HistogramAccum
{
    std::vector<uint64_t> buckets;
    uint64_t count = 0;
    double sum = 0.0;
};

/// One session's routed metric deltas on one thread.
struct SessionDelta
{
    std::map<const Counter *, uint64_t> counters;
    std::map<const Histogram *, HistogramAccum> histograms;
};

/// One thread's span buffer.  Appends are owner-thread-only except
/// for the mutex, which a drain takes briefly; buffers are leaked on
/// purpose (bounded by the number of threads ever created) so worker
/// thread_local destruction order can never invalidate them.
struct ThreadBuffer
{
    std::mutex mu;
    std::vector<SpanRecord> records;
    std::map<uint64_t, SessionDelta> deltas; ///< by session id
    uint32_t tid = 0;
    uint32_t depth = 0; ///< owner thread only
};

struct BufferRegistry
{
    std::mutex mu;
    std::vector<ThreadBuffer *> buffers;
    uint32_t nextTid = 1;
};

BufferRegistry &
bufferRegistry()
{
    static BufferRegistry *reg = new BufferRegistry;
    return *reg;
}

ThreadBuffer &
localBuffer()
{
    thread_local ThreadBuffer *buf = [] {
        auto *b = new ThreadBuffer;
        BufferRegistry &reg = bufferRegistry();
        std::lock_guard<std::mutex> lock(reg.mu);
        b->tid = reg.nextTid++;
        reg.buffers.push_back(b);
        return b;
    }();
    return *buf;
}

/**
 * Instrument pointer -> registered name, populated by the Registry
 * on first registration.  Routed deltas are keyed by pointer on the
 * hot path and materialized to names only at session finish.
 */
struct InstrumentNames
{
    std::mutex mu;
    std::map<const void *, std::string> names;
};

InstrumentNames &
instrumentNames()
{
    static InstrumentNames *names = new InstrumentNames;
    return *names;
}

void
recordInstrumentName(const void *instrument, const std::string &name)
{
    InstrumentNames &reg = instrumentNames();
    std::lock_guard<std::mutex> lock(reg.mu);
    reg.names.emplace(instrument, name);
}

std::string
lookupInstrumentName(const void *instrument)
{
    InstrumentNames &reg = instrumentNames();
    std::lock_guard<std::mutex> lock(reg.mu);
    const auto it = reg.names.find(instrument);
    return it != reg.names.end() ? it->second : std::string();
}

/// CAS add for pre-C++20-libstdc++ compatibility on atomic<double>.
void
atomicAdd(std::atomic<double> &target, double delta)
{
    double cur = target.load(std::memory_order_relaxed);
    while (!target.compare_exchange_weak(cur, cur + delta,
                                         std::memory_order_relaxed))
        ;
}

void
appendJsonString(std::string &out, const std::string &s)
{
    out += '"';
    for (const char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char hex[8];
                std::snprintf(hex, sizeof(hex), "\\u%04x", c);
                out += hex;
            } else {
                out += c;
            }
        }
    }
    out += '"';
}

std::string
formatDouble(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

} // namespace

// ---- Span ----------------------------------------------------------

void
Span::begin(const char *name)
{
    if (t_boundSession == 0)
        return; // unbound threads record nothing
    name_ = name;
    startNs_ = nowNs();
    ThreadBuffer &buf = localBuffer();
    depth_ = buf.depth++;
    active_ = true;
}

void
Span::end()
{
    const uint64_t end_ns = nowNs();
    ThreadBuffer &buf = localBuffer();
    --buf.depth;
    SpanRecord rec;
    rec.name = name_;
    rec.tid = buf.tid;
    rec.depth = depth_;
    // Absolute timestamp; the owning session subtracts its own
    // origin when it drains (sessions can overlap, so there is no
    // single global origin any more).
    rec.startNs = startNs_;
    rec.durationNs = end_ns > startNs_ ? end_ns - startNs_ : 0;
    rec.session = t_boundSession;
    if (rec.session == 0)
        return; // the session ended inside the span: nobody drains it
    std::lock_guard<std::mutex> lock(buf.mu);
    buf.records.push_back(rec);
}

void
clearTrace()
{
    BufferRegistry &reg = bufferRegistry();
    std::lock_guard<std::mutex> lock(reg.mu);
    for (ThreadBuffer *buf : reg.buffers) {
        std::lock_guard<std::mutex> blk(buf->mu);
        buf->records.clear();
        buf->deltas.clear();
    }
}

// ---- Session binding and routed deltas -----------------------------

namespace detail
{

void
routeCounterAdd(const Counter *counter, uint64_t n)
{
    const uint64_t session = t_boundSession;
    if (session == 0)
        return;
    ThreadBuffer &buf = localBuffer();
    std::lock_guard<std::mutex> lock(buf.mu);
    buf.deltas[session].counters[counter] += n;
}

void
routeHistogramObserve(const Histogram *histogram, double x)
{
    const uint64_t session = t_boundSession;
    if (session == 0)
        return;
    ThreadBuffer &buf = localBuffer();
    std::lock_guard<std::mutex> lock(buf.mu);
    HistogramAccum &acc = buf.deltas[session].histograms[histogram];
    const std::vector<double> &edges = histogram->edges();
    if (acc.buckets.empty())
        acc.buckets.assign(edges.size() + 1, 0);
    size_t i = 0;
    while (i < edges.size() && x > edges[i])
        ++i;
    ++acc.buckets[i];
    ++acc.count;
    acc.sum += x;
}

uint64_t
currentSessionBinding()
{
    return t_boundSession;
}

ScopedSessionBinding::ScopedSessionBinding(uint64_t session)
    : previous_(t_boundSession)
{
    t_boundSession = session;
}

ScopedSessionBinding::~ScopedSessionBinding()
{
    t_boundSession = previous_;
}

} // namespace detail

// ---- Histogram -----------------------------------------------------

Histogram::Histogram(std::vector<double> upperEdges)
    : edges_(std::move(upperEdges)), buckets_(edges_.size() + 1)
{
    std::sort(edges_.begin(), edges_.end());
    edges_.erase(std::unique(edges_.begin(), edges_.end()),
                 edges_.end());
    // buckets_ was sized before the dedupe; extra slots stay zero.
}

void
Histogram::observe(double x)
{
    size_t i = 0;
    while (i < edges_.size() && x > edges_[i])
        ++i;
    buckets_[i].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    atomicAdd(sum_, x);
    if (enabled())
        detail::routeHistogramObserve(this, x);
}

std::vector<uint64_t>
Histogram::bucketCounts() const
{
    std::vector<uint64_t> out(edges_.size() + 1, 0);
    for (size_t i = 0; i < out.size(); ++i)
        out[i] = buckets_[i].load(std::memory_order_relaxed);
    return out;
}

uint64_t
Histogram::count() const
{
    return count_.load(std::memory_order_relaxed);
}

double
Histogram::sum() const
{
    return sum_.load(std::memory_order_relaxed);
}

// ---- Registry ------------------------------------------------------

struct Registry::Impl
{
    mutable std::mutex mu;
    std::map<std::string, std::unique_ptr<Counter>> counters;
    std::map<std::string, std::unique_ptr<Gauge>> gauges;
    std::map<std::string, std::unique_ptr<Histogram>> histograms;
};

Registry &
Registry::global()
{
    static Registry *reg = new Registry;
    return *reg;
}

Registry::Impl &
Registry::impl() const
{
    static Impl *impl = new Impl;
    return *impl;
}

Counter &
Registry::counter(const std::string &name)
{
    Impl &i = impl();
    std::lock_guard<std::mutex> lock(i.mu);
    auto &slot = i.counters[name];
    if (!slot) {
        slot.reset(new Counter);
        recordInstrumentName(slot.get(), name);
    }
    return *slot;
}

Gauge &
Registry::gauge(const std::string &name)
{
    Impl &i = impl();
    std::lock_guard<std::mutex> lock(i.mu);
    auto &slot = i.gauges[name];
    if (!slot)
        slot.reset(new Gauge);
    return *slot;
}

Histogram &
Registry::histogram(const std::string &name,
                    std::vector<double> upperEdges)
{
    Impl &i = impl();
    std::lock_guard<std::mutex> lock(i.mu);
    auto &slot = i.histograms[name];
    if (!slot) {
        slot.reset(new Histogram(std::move(upperEdges)));
        recordInstrumentName(slot.get(), name);
    }
    return *slot;
}

MetricsSnapshot
Registry::snapshot() const
{
    Impl &i = impl();
    std::lock_guard<std::mutex> lock(i.mu);
    MetricsSnapshot snap;
    for (const auto &[name, c] : i.counters)
        snap.counters[name] = c->value();
    for (const auto &[name, g] : i.gauges)
        snap.gauges[name] = g->value();
    for (const auto &[name, h] : i.histograms) {
        HistogramSnapshot hs;
        hs.edges = h->edges();
        hs.buckets = h->bucketCounts();
        hs.count = h->count();
        hs.sum = h->sum();
        snap.histograms[name] = std::move(hs);
    }
    return snap;
}

MetricsSnapshot
MetricsSnapshot::since(const MetricsSnapshot &baseline) const
{
    MetricsSnapshot delta;
    for (const auto &[name, v] : counters) {
        const auto it = baseline.counters.find(name);
        const uint64_t base =
            it != baseline.counters.end() ? it->second : 0;
        delta.counters[name] = v >= base ? v - base : v;
    }
    delta.gauges = gauges;
    for (const auto &[name, h] : histograms) {
        HistogramSnapshot d = h;
        const auto it = baseline.histograms.find(name);
        if (it != baseline.histograms.end() &&
            it->second.buckets.size() == h.buckets.size()) {
            for (size_t i = 0; i < d.buckets.size(); ++i)
                d.buckets[i] -= std::min(it->second.buckets[i],
                                         d.buckets[i]);
            d.count -= std::min(it->second.count, d.count);
            d.sum -= it->second.sum;
        }
        delta.histograms[name] = std::move(d);
    }
    return delta;
}

// ---- Export --------------------------------------------------------

std::string
PipelineTelemetry::traceJson() const
{
    std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    bool first = true;
    char num[64];
    for (const SpanRecord &s : spans) {
        if (!first)
            out += ',';
        first = false;
        out += "\n{\"name\":";
        appendJsonString(out, s.name);
        out += ",\"cat\":\"hifi\",\"ph\":\"X\",\"ts\":";
        std::snprintf(num, sizeof(num), "%.3f",
                      static_cast<double>(s.startNs) / 1000.0);
        out += num;
        out += ",\"dur\":";
        std::snprintf(num, sizeof(num), "%.3f",
                      static_cast<double>(s.durationNs) / 1000.0);
        out += num;
        std::snprintf(num, sizeof(num),
                      ",\"pid\":1,\"tid\":%u,\"args\":{\"depth\":%u}}",
                      s.tid, s.depth);
        out += num;
    }
    out += "\n]}\n";
    return out;
}

std::string
PipelineTelemetry::metricsJson() const
{
    std::string out = "{\n \"counters\": {";
    bool first = true;
    for (const auto &[name, v] : metrics.counters) {
        out += first ? "\n  " : ",\n  ";
        first = false;
        appendJsonString(out, name);
        out += ": " + std::to_string(v);
    }
    out += "\n },\n \"gauges\": {";
    first = true;
    for (const auto &[name, v] : metrics.gauges) {
        out += first ? "\n  " : ",\n  ";
        first = false;
        appendJsonString(out, name);
        out += ": " + formatDouble(v);
    }
    out += "\n },\n \"histograms\": {";
    first = true;
    for (const auto &[name, h] : metrics.histograms) {
        out += first ? "\n  " : ",\n  ";
        first = false;
        appendJsonString(out, name);
        out += ": {\"edges\": [";
        for (size_t i = 0; i < h.edges.size(); ++i)
            out += (i ? "," : "") + formatDouble(h.edges[i]);
        out += "], \"counts\": [";
        for (size_t i = 0; i < h.buckets.size(); ++i)
            out += (i ? "," : "") + std::to_string(h.buckets[i]);
        out += "], \"count\": " + std::to_string(h.count) +
            ", \"sum\": " + formatDouble(h.sum) + "}";
    }
    out += "\n },\n \"stage_wall_ns\": {";
    first = true;
    for (const auto &[name, t] : stageWallNs) {
        out += first ? "\n  " : ",\n  ";
        first = false;
        appendJsonString(out, name);
        out += ": {\"count\": " + std::to_string(t.count) +
            ", \"wall_ns\": " + std::to_string(t.wallNs) + "}";
    }
    out += "\n }\n}\n";
    return out;
}

bool
writeTextFile(const std::string &path, const std::string &text)
{
    std::ofstream out(path, std::ios::binary);
    if (!out) {
        common::warn("telemetry", "cannot open '" + path +
                     "' for writing");
        return false;
    }
    out << text;
    return static_cast<bool>(out);
}

// ---- Session -------------------------------------------------------

namespace
{

/// Register / deregister one session; keeps the global enable flag
/// consistent with the active count.
void
registerSession()
{
    ActiveSessions &active = activeSessions();
    std::lock_guard<std::mutex> lock(active.mu);
    if (active.count++ == 0)
        clearTrace(); // no reader left for stale records
    detail::g_enabled.store(true, std::memory_order_relaxed);
}

void
deregisterSession()
{
    ActiveSessions &active = activeSessions();
    std::lock_guard<std::mutex> lock(active.mu);
    if (--active.count == 0)
        detail::g_enabled.store(false, std::memory_order_relaxed);
}

/// Merge every thread's routed deltas for `id` into one snapshot
/// (erasing them from the buffers), with gauges copied from the
/// current registry values (they are instantaneous, like since()).
MetricsSnapshot
drainRoutedDeltas(uint64_t id)
{
    std::map<const Counter *, uint64_t> counters;
    std::map<const Histogram *, HistogramAccum> histograms;
    {
        BufferRegistry &reg = bufferRegistry();
        std::lock_guard<std::mutex> lock(reg.mu);
        for (ThreadBuffer *buf : reg.buffers) {
            std::lock_guard<std::mutex> blk(buf->mu);
            const auto it = buf->deltas.find(id);
            if (it == buf->deltas.end())
                continue;
            for (const auto &[c, n] : it->second.counters)
                counters[c] += n;
            for (const auto &[h, acc] : it->second.histograms) {
                HistogramAccum &dst = histograms[h];
                if (dst.buckets.empty())
                    dst.buckets.assign(acc.buckets.size(), 0);
                for (size_t i = 0; i < acc.buckets.size(); ++i)
                    dst.buckets[i] += acc.buckets[i];
                dst.count += acc.count;
                dst.sum += acc.sum;
            }
            buf->deltas.erase(it);
        }
    }

    MetricsSnapshot snap;
    for (const auto &[c, n] : counters) {
        const std::string name = lookupInstrumentName(c);
        if (!name.empty())
            snap.counters[name] = n;
    }
    for (const auto &[h, acc] : histograms) {
        const std::string name = lookupInstrumentName(h);
        if (name.empty())
            continue;
        HistogramSnapshot hs;
        hs.edges = h->edges();
        hs.buckets = acc.buckets;
        hs.count = acc.count;
        hs.sum = acc.sum;
        snap.histograms[name] = std::move(hs);
    }
    snap.gauges = registry().snapshot().gauges;
    return snap;
}

} // namespace

Session::Session()
    : id_(activeSessions().nextId.fetch_add(1)), startNs_(nowNs()),
      previousBinding_(t_boundSession)
{
    registerSession();
    t_boundSession = id_;
}

Session::~Session()
{
    if (finished_)
        return;
    deregisterSession();
    t_boundSession = previousBinding_;
}

std::shared_ptr<const PipelineTelemetry>
Session::finish(const TelemetryConfig &config)
{
    if (finished_)
        return result_;
    finished_ = true;
    deregisterSession();
    t_boundSession = previousBinding_;

    auto out = std::make_shared<PipelineTelemetry>();
    {
        // Claim only this session's records; concurrent sessions keep
        // theirs buffered for their own finish().
        BufferRegistry &reg = bufferRegistry();
        std::lock_guard<std::mutex> lock(reg.mu);
        for (ThreadBuffer *buf : reg.buffers) {
            std::lock_guard<std::mutex> blk(buf->mu);
            auto keep = buf->records.begin();
            for (SpanRecord &rec : buf->records) {
                if (rec.session == id_) {
                    rec.startNs = rec.startNs > startNs_
                        ? rec.startNs - startNs_
                        : 0;
                    out->spans.push_back(rec);
                } else {
                    *keep++ = rec;
                }
            }
            buf->records.erase(keep, buf->records.end());
        }
    }
    std::sort(out->spans.begin(), out->spans.end(),
              [](const SpanRecord &a, const SpanRecord &b) {
                  if (a.startNs != b.startNs)
                      return a.startNs < b.startNs;
                  if (a.tid != b.tid)
                      return a.tid < b.tid;
                  return a.depth < b.depth;
              });
    for (const SpanRecord &s : out->spans) {
        StageTiming &t = out->stageWallNs[s.name];
        ++t.count;
        t.wallNs += s.durationNs;
    }
    out->metrics = drainRoutedDeltas(id_);

    if (!config.tracePath.empty())
        writeTextFile(config.tracePath, out->traceJson());
    if (!config.metricsPath.empty())
        writeTextFile(config.metricsPath, out->metricsJson());

    result_ = out;
    return result_;
}

// ---- Minimal JSON parser (for trace validation) --------------------

namespace
{

struct JsonValue
{
    enum class Kind { Null, Bool, Number, String, Array, Object };
    Kind kind = Kind::Null;
    bool boolean = false;
    double number = 0.0;
    std::string str;
    std::vector<JsonValue> arr;
    std::map<std::string, JsonValue> obj;
};

class JsonParser
{
  public:
    JsonParser(const std::string &text, std::string *error)
        : text_(text), error_(error)
    {
    }

    bool
    parse(JsonValue &out)
    {
        skipWs();
        if (!parseValue(out))
            return false;
        skipWs();
        if (pos_ != text_.size())
            return fail("trailing content after the JSON document");
        return true;
    }

  private:
    bool
    fail(const std::string &message)
    {
        if (error_ && error_->empty())
            *error_ = message + " (at byte " +
                std::to_string(pos_) + ")";
        return false;
    }

    void
    skipWs()
    {
        while (pos_ < text_.size() &&
               (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                text_[pos_] == '\n' || text_[pos_] == '\r'))
            ++pos_;
    }

    bool
    parseValue(JsonValue &out)
    {
        if (pos_ >= text_.size())
            return fail("unexpected end of document");
        const char c = text_[pos_];
        if (c == '{')
            return parseObject(out);
        if (c == '[')
            return parseArray(out);
        if (c == '"') {
            out.kind = JsonValue::Kind::String;
            return parseString(out.str);
        }
        if (c == 't' || c == 'f')
            return parseKeyword(out);
        if (c == 'n')
            return parseKeyword(out);
        return parseNumber(out);
    }

    bool
    parseKeyword(JsonValue &out)
    {
        auto match = [&](const char *kw) {
            const size_t n = std::string(kw).size();
            if (text_.compare(pos_, n, kw) != 0)
                return false;
            pos_ += n;
            return true;
        };
        if (match("true")) {
            out.kind = JsonValue::Kind::Bool;
            out.boolean = true;
            return true;
        }
        if (match("false")) {
            out.kind = JsonValue::Kind::Bool;
            out.boolean = false;
            return true;
        }
        if (match("null")) {
            out.kind = JsonValue::Kind::Null;
            return true;
        }
        return fail("invalid keyword");
    }

    bool
    parseNumber(JsonValue &out)
    {
        const char *start = text_.c_str() + pos_;
        char *end = nullptr;
        const double v = std::strtod(start, &end);
        if (end == start)
            return fail("invalid number");
        pos_ += static_cast<size_t>(end - start);
        out.kind = JsonValue::Kind::Number;
        out.number = v;
        return true;
    }

    bool
    parseString(std::string &out)
    {
        if (text_[pos_] != '"')
            return fail("expected '\"'");
        ++pos_;
        out.clear();
        while (pos_ < text_.size()) {
            const char c = text_[pos_++];
            if (c == '"')
                return true;
            if (c == '\\') {
                if (pos_ >= text_.size())
                    return fail("unterminated escape");
                const char e = text_[pos_++];
                switch (e) {
                  case '"': out += '"'; break;
                  case '\\': out += '\\'; break;
                  case '/': out += '/'; break;
                  case 'b': out += '\b'; break;
                  case 'f': out += '\f'; break;
                  case 'n': out += '\n'; break;
                  case 'r': out += '\r'; break;
                  case 't': out += '\t'; break;
                  case 'u': {
                      if (pos_ + 4 > text_.size())
                          return fail("truncated \\u escape");
                      for (int i = 0; i < 4; ++i)
                          if (!std::isxdigit(static_cast<unsigned char>(
                                  text_[pos_ + i])))
                              return fail("invalid \\u escape");
                      // Non-ASCII code points degrade to '?'; the
                      // validator only needs ASCII span names.
                      out += '?';
                      pos_ += 4;
                      break;
                  }
                  default:
                    return fail("invalid escape character");
                }
            } else {
                out += c;
            }
        }
        return fail("unterminated string");
    }

    bool
    parseArray(JsonValue &out)
    {
        out.kind = JsonValue::Kind::Array;
        ++pos_; // '['
        skipWs();
        if (pos_ < text_.size() && text_[pos_] == ']') {
            ++pos_;
            return true;
        }
        for (;;) {
            out.arr.emplace_back();
            skipWs();
            if (!parseValue(out.arr.back()))
                return false;
            skipWs();
            if (pos_ >= text_.size())
                return fail("unterminated array");
            if (text_[pos_] == ',') {
                ++pos_;
                continue;
            }
            if (text_[pos_] == ']') {
                ++pos_;
                return true;
            }
            return fail("expected ',' or ']'");
        }
    }

    bool
    parseObject(JsonValue &out)
    {
        out.kind = JsonValue::Kind::Object;
        ++pos_; // '{'
        skipWs();
        if (pos_ < text_.size() && text_[pos_] == '}') {
            ++pos_;
            return true;
        }
        for (;;) {
            skipWs();
            std::string key;
            if (pos_ >= text_.size() || text_[pos_] != '"')
                return fail("expected object key");
            if (!parseString(key))
                return false;
            skipWs();
            if (pos_ >= text_.size() || text_[pos_] != ':')
                return fail("expected ':'");
            ++pos_;
            skipWs();
            if (!parseValue(out.obj[key]))
                return false;
            skipWs();
            if (pos_ >= text_.size())
                return fail("unterminated object");
            if (text_[pos_] == ',') {
                ++pos_;
                continue;
            }
            if (text_[pos_] == '}') {
                ++pos_;
                return true;
            }
            return fail("expected ',' or '}'");
        }
    }

    const std::string &text_;
    std::string *error_;
    size_t pos_ = 0;
};

bool
checkFail(std::string *error, const std::string &message)
{
    if (error && error->empty())
        *error = message;
    return false;
}

} // namespace

bool
validateChromeTrace(const std::string &json,
                    const TraceCheckOptions &options,
                    std::string *error, TraceStats *stats)
{
    if (error)
        error->clear();
    JsonValue root;
    JsonParser parser(json, error);
    if (!parser.parse(root))
        return false;
    if (root.kind != JsonValue::Kind::Object)
        return checkFail(error, "trace root must be an object");
    const auto it = root.obj.find("traceEvents");
    if (it == root.obj.end() ||
        it->second.kind != JsonValue::Kind::Array)
        return checkFail(error,
                         "missing or non-array 'traceEvents'");

    struct Interval
    {
        double ts, end;
        std::string name;
    };
    std::map<double, std::vector<Interval>> perTid;
    std::map<std::string, size_t> nameCounts;

    for (const JsonValue &ev : it->second.arr) {
        if (ev.kind != JsonValue::Kind::Object)
            return checkFail(error, "trace event is not an object");
        auto field = [&](const char *key) -> const JsonValue * {
            const auto f = ev.obj.find(key);
            return f == ev.obj.end() ? nullptr : &f->second;
        };
        const JsonValue *name = field("name");
        const JsonValue *ph = field("ph");
        if (!name || name->kind != JsonValue::Kind::String ||
            name->str.empty())
            return checkFail(error, "event missing a string 'name'");
        if (!ph || ph->kind != JsonValue::Kind::String ||
            ph->str != "X")
            return checkFail(error, "event '" + name->str +
                             "' is not a ph=\"X\" complete event");
        for (const char *key : {"ts", "dur", "pid", "tid"}) {
            const JsonValue *v = field(key);
            if (!v || v->kind != JsonValue::Kind::Number)
                return checkFail(error, "event '" + name->str +
                                 "' missing numeric '" + key + "'");
        }
        const double ts = field("ts")->number;
        const double dur = field("dur")->number;
        if (ts < 0.0 || dur < 0.0)
            return checkFail(error, "event '" + name->str +
                             "' has negative ts or dur");
        ++nameCounts[name->str];
        perTid[field("tid")->number].push_back(
            {ts, ts + dur, name->str});
    }

    // Span nesting: on one thread, intervals are disjoint or
    // contained — never partially overlapping.  The tolerance covers
    // the microsecond rounding of the writer (3 decimals = 1 ns).
    constexpr double kEps = 0.002;
    for (auto &[tid, spans] : perTid) {
        std::sort(spans.begin(), spans.end(),
                  [](const Interval &a, const Interval &b) {
                      if (a.ts != b.ts)
                          return a.ts < b.ts;
                      return a.end > b.end;
                  });
        std::vector<const Interval *> stack;
        for (const Interval &s : spans) {
            while (!stack.empty() &&
                   s.ts >= stack.back()->end - kEps)
                stack.pop_back();
            if (!stack.empty() && s.end > stack.back()->end + kEps)
                return checkFail(
                    error, "span '" + s.name + "' partially overlaps "
                    "'" + stack.back()->name + "' on tid " +
                    std::to_string(static_cast<long long>(tid)));
            stack.push_back(&s);
        }
    }

    if (nameCounts.size() < options.minDistinctNames)
        return checkFail(error, "only " +
                         std::to_string(nameCounts.size()) +
                         " distinct span names, need >= " +
                         std::to_string(options.minDistinctNames));
    for (const std::string &prefix : options.requiredPrefixes) {
        bool found = false;
        for (const auto &[n, cnt] : nameCounts)
            if (n.compare(0, prefix.size(), prefix) == 0) {
                found = true;
                break;
            }
        if (!found)
            return checkFail(error, "no span name with prefix '" +
                             prefix + "'");
    }

    if (stats) {
        stats->events = 0;
        for (const auto &[n, cnt] : nameCounts)
            stats->events += cnt;
        stats->distinctNames = nameCounts.size();
        stats->names.clear();
        for (const auto &[n, cnt] : nameCounts)
            stats->names.push_back(n);
    }
    return true;
}

// ---- Process memory ------------------------------------------------

namespace
{

/// Parse a "Vm...:  <n> kB" line from /proc/self/status; 0 when the
/// key is absent (non-Linux, or a kernel without the field).
size_t
procStatusKb(const char *key)
{
#if defined(__linux__)
    std::ifstream in("/proc/self/status");
    if (!in)
        return 0;
    std::string line;
    const size_t key_len = std::strlen(key);
    while (std::getline(in, line)) {
        if (line.compare(0, key_len, key) != 0)
            continue;
        return static_cast<size_t>(
            std::strtoull(line.c_str() + key_len, nullptr, 10));
    }
#else
    (void)key;
#endif
    return 0;
}

} // namespace

size_t
peakRssBytes()
{
    return procStatusKb("VmHWM:") * 1024;
}

size_t
currentRssBytes()
{
    return procStatusKb("VmRSS:") * 1024;
}

size_t
heapAllocatedBytes()
{
#if defined(__GLIBC__)
    return mallinfo2().uordblks;
#else
    return 0;
#endif
}

void
reportPeakRssAtExit()
{
    static bool registered = false;
    if (registered)
        return;
    registered = true;
    std::atexit([] {
        const size_t peak = peakRssBytes();
        if (peak == 0)
            return; // no procfs on this platform
        std::fprintf(stderr, "peak RSS: %.1f MiB\n",
                     static_cast<double>(peak) /
                         (1024.0 * 1024.0));
    });
}

void
recordMemoryGauges()
{
    registry()
        .gauge("mem.peak_rss_bytes")
        .set(static_cast<double>(peakRssBytes()));
    registry()
        .gauge("mem.rss_bytes")
        .set(static_cast<double>(currentRssBytes()));
    registry()
        .gauge("mem.heap_allocated_bytes")
        .set(static_cast<double>(heapAllocatedBytes()));
}

} // namespace telemetry
} // namespace hifi
