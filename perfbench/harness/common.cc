#include "common.hh"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include <sched.h>
#include <sys/resource.h>
#include <time.h>

#include "minicc/compiler.hh"
#include "serve/service.hh"
#include "support/json.hh"

namespace perfbench
{

using namespace irep;

Host
probeHost()
{
    Host host;
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) != 0) {
        host.affinity = "unknown";
        return host;
    }
    host.nproc = std::max(1, CPU_COUNT(&set));
    // Ranges in `taskset -c` form.
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
        if (!CPU_ISSET(cpu, &set))
            continue;
        int last = cpu;
        while (last + 1 < CPU_SETSIZE && CPU_ISSET(last + 1, &set))
            ++last;
        for (int c = cpu; c <= last; ++c)
            host.cpus.push_back(c);
        if (!host.affinity.empty())
            host.affinity += ",";
        host.affinity += std::to_string(cpu);
        if (last > cpu)
            host.affinity += "-" + std::to_string(last);
        cpu = last;
    }
    return host;
}

namespace
{

void
setAffinity(const std::vector<int> &cpus)
{
    cpu_set_t set;
    CPU_ZERO(&set);
    for (int cpu : cpus)
        CPU_SET(cpu, &set);
    sched_setaffinity(0, sizeof(set), &set);
}

} // namespace

CpuRotation::~CpuRotation()
{
    if (!host_.cpus.empty())
        setAffinity(host_.cpus);
}

void
CpuRotation::moveTo(size_t turn)
{
    if (!host_.cpus.empty())
        setAffinity({host_.cpus[turn % host_.cpus.size()]});
}

double
threadCpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return double(ts.tv_sec) + double(ts.tv_nsec) * 1e-9;
}

namespace
{

struct ProbeOp
{
    uint8_t code, a, b, c;
};

/** The probe's state: a fixed program, its memory and its table, and
 *  the large table of the cache-missing half. */
struct ProbeState
{
    std::vector<ProbeOp> program = std::vector<ProbeOp>(4096);
    std::vector<uint32_t> memory = std::vector<uint32_t>(1u << 18);
    std::vector<uint64_t> table = std::vector<uint64_t>(1u << 16);
    std::vector<uint64_t> large = std::vector<uint64_t>(1u << 21);

    ProbeState()
    {
        uint64_t x = 42;
        for (ProbeOp &op : program) {
            x = x * 6364136223846793005ull + 1442695040888963407ull;
            op = {uint8_t((x >> 59) & 7), uint8_t((x >> 40) & 15),
                  uint8_t((x >> 44) & 15), uint8_t((x >> 48) & 15)};
        }
    }
};

} // namespace

double
probeSeconds()
{
    thread_local ProbeState state;

    // The cache-missing half: read-modify-write at pseudo-random slots of
    // a 16 MiB table, which lives in the last-level cache, as the
    // analyses' tables do. Contention there slows the library's
    // operations but barely moves the compact half below, which stays in
    // L2. Over two 150-second window-serial runs, operation time divided
    // by either half alone still drifted by 6-12% between 15-second
    // stretches; divided by their sum, by 2-4%.
    const double start = threadCpuSeconds();
    uint64_t x = 12345;
    const size_t large_mask = state.large.size() - 1;
    for (int i = 0; i < 200'000; ++i) {
        x = x * 6364136223846793005ull + 1442695040888963407ull;
        state.large[(x >> 20) & large_mask] += x;
    }

    // The compact half does the same work on every call: its memory and
    // its table start empty. Filling them is not timed.
    const double large_s = threadCpuSeconds() - start;
    std::fill(state.memory.begin(), state.memory.end(), 0u);
    std::fill(state.table.begin(), state.table.end(), 0ull);
    const double compact_start = threadCpuSeconds();
    uint32_t r[16] = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16};
    const size_t mem_mask = state.memory.size() - 1;
    const size_t table_mask = state.table.size() - 1;
    size_t pc = 0;
    for (int i = 0; i < 500'000; ++i) {
        const ProbeOp op = state.program[pc];
        switch (op.code) {
        case 0:
            r[op.a] = r[op.b] + r[op.c];
            break;
        case 1:
            r[op.a] = r[op.b] ^ (r[op.c] << 3);
            break;
        case 2:
            r[op.a] = state.memory[(r[op.b] * 2654435761u) & mem_mask];
            break;
        case 3:
            state.memory[(r[op.b] * 40503u) & mem_mask] = r[op.a];
            break;
        case 4:
            if (r[op.a] & 1)
                pc = (pc + r[op.b]) & 4095;
            break;
        case 5:
            r[op.a] = r[op.b] * r[op.c] + 1;
            break;
        case 6:
            r[op.a] = r[op.b] - r[op.c];
            break;
        default:
            r[op.a] = r[op.b] >> 5;
            break;
        }
        // Look up the (pc, value) instance, as the repetition tracker
        // does, and insert one in eight of the new ones.
        const uint64_t key = (uint64_t(pc) << 32 | r[op.a]) + 1;
        size_t h = size_t((key * 0x9e3779b97f4a7c15ull) >> 48);
        while (state.table[h] != 0 && state.table[h] != key)
            h = (h + 1) & table_mask;
        if (state.table[h] == 0 && (h & 7) == 0)
            state.table[h] = key;
        pc = (pc + 1) & 4095;
    }
    // Keep the loop's result live.
    static std::atomic<uint32_t> sink{0};
    sink.fetch_xor(r[0] ^ r[5] ^ uint32_t(state.large[x & large_mask]),
                   std::memory_order_relaxed);
    return large_s + (threadCpuSeconds() - compact_start);
}

uint64_t
Rng::next()
{
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

std::vector<size_t>
seededOrder(Rng &rng)
{
    std::vector<size_t> order(workloads::allWorkloads().size());
    for (size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    for (size_t i = order.size(); i > 1; --i)
        std::swap(order[i - 1], order[rng.below(i)]);
    return order;
}

std::vector<Program>
compilePrograms(const std::vector<size_t> &order)
{
    std::vector<Program> programs;
    for (size_t index : order) {
        const workloads::Workload &w = workloads::allWorkloads()[index];
        programs.push_back({&w, std::make_shared<assem::Program>(
                                    minicc::compileToProgram(w.source))});
    }
    return programs;
}

std::string
Key::name() const
{
    return program->workload->name + "/" + std::to_string(skip) + "/" +
           std::to_string(window) + "/" + analyses;
}

std::unique_ptr<sim::Machine>
makeMachine(const Key &key)
{
    auto machine = std::make_unique<sim::Machine>(*key.program->program);
    machine->setExecBackend(sim::ExecBackend::Interp);
    machine->setInput(key.program->workload->input);
    return machine;
}

core::PipelineConfig
pipelineConfig(const Key &key, unsigned window_jobs)
{
    core::PipelineConfig config;
    config.skipInstructions = key.skip;
    config.windowInstructions = key.window;
    config.windowJobs = window_jobs;
    std::string error;
    if (!core::applyAnalysisSet(key.analyses, config, &error))
        throw std::runtime_error(error);
    return config;
}

std::string
statsDoc(const core::AnalysisPipeline &pipeline, const Key &key)
{
    // The spec serve::runAnalysis uses, so daemon answers and
    // in-process runs of one key compare equal.
    serve::StatsDocSpec spec;
    spec.command = "bench";
    spec.target = key.program->workload->name;
    spec.workload = key.program->workload->name;
    std::ostringstream out;
    serve::writeStatsDoc(out, pipeline, spec);
    return out.str();
}

namespace
{

// Wall-clock fields; the same set ci/compare_stats.py excludes.
bool
isTimingKey(const std::string &key)
{
    static const char *const keys[] = {
        "skip_seconds", "window_seconds", "window_mips", "wall_seconds",
        "workload_seconds", "perf", "profile"};
    for (const char *k : keys) {
        if (key == k)
            return true;
    }
    return false;
}

void
canonical(const json::Value &value, std::ostream &out)
{
    switch (value.kind()) {
    case json::Value::Kind::Null:
        out << "null";
        return;
    case json::Value::Kind::Bool:
        out << (value.asBool() ? "true" : "false");
        return;
    case json::Value::Kind::Number: {
        char buf[40];
        std::snprintf(buf, sizeof(buf), "%.17g", value.asNumber());
        out << buf;
        return;
    }
    case json::Value::Kind::String:
        json::Writer::writeEscaped(out, value.asString());
        return;
    case json::Value::Kind::Array:
        out << '[';
        for (size_t i = 0; i < value.elements().size(); ++i) {
            if (i)
                out << ',';
            canonical(value.elements()[i], out);
        }
        out << ']';
        return;
    case json::Value::Kind::Object: {
        std::vector<const std::pair<std::string, json::Value> *> members;
        for (const auto &member : value.members()) {
            if (!isTimingKey(member.first))
                members.push_back(&member);
        }
        std::sort(members.begin(), members.end(),
                  [](auto *a, auto *b) { return a->first < b->first; });
        out << '{';
        for (size_t i = 0; i < members.size(); ++i) {
            if (i)
                out << ',';
            json::Writer::writeEscaped(out, members[i]->first);
            out << ':';
            canonical(members[i]->second, out);
        }
        out << '}';
        return;
    }
    }
}

} // namespace

std::string
countedStats(const json::Value &doc)
{
    std::ostringstream out;
    canonical(doc, out);
    return out.str();
}

std::string
countedStats(const std::string &doc)
{
    return countedStats(json::parse(doc));
}

const std::string &
Reference::get(const Key &key)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = byKey_.find(key.name());
    if (it != byKey_.end())
        return it->second;
    auto machine = makeMachine(key);
    core::AnalysisPipeline pipeline(*machine, pipelineConfig(key, 1));
    pipeline.run();
    return byKey_.emplace(key.name(),
                          countedStats(statsDoc(pipeline, key)))
        .first->second;
}

std::string
Reference::digest(const std::vector<Key> &keys)
{
    std::string all;
    for (const Key &key : keys)
        all += key.name() + "=" + get(key) + "\n";
    return hexDigest(all);
}

std::string
hexDigest(const std::string &text)
{
    uint64_t h = 0xcbf29ce484222325ull;
    for (unsigned char c : text)
        h = (h ^ c) * 0x100000001b3ull;
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx", (unsigned long long)h);
    return buf;
}

double
median(std::vector<double> values)
{
    return quantile(std::move(values), 0.5);
}

double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double pos = q * double(values.size() - 1);
    const size_t lo = size_t(pos);
    const size_t hi = std::min(lo + 1, values.size() - 1);
    return values[lo] + (values[hi] - values[lo]) * (pos - double(lo));
}

double
peakRssMiB()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return double(usage.ru_maxrss) / 1024.0;
}

uint64_t
Tracer::nowNs()
{
    return uint64_t(std::chrono::duration_cast<std::chrono::nanoseconds>(
                        Clock::now().time_since_epoch())
                        .count());
}

int
Tracer::add(std::string name, int parent, uint64_t op, uint64_t start_ns,
            uint64_t end_ns)
{
    if (!on_)
        return -1;
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back({std::move(name), parent, op, start_ns, end_ns});
    return int(spans_.size() - 1);
}

void
Tracer::close(int index, uint64_t end_ns)
{
    if (index < 0)
        return;
    std::lock_guard<std::mutex> lock(mutex_);
    spans_[size_t(index)].endNs = end_ns;
}

std::vector<Tracer::Span>
Tracer::spans() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_;
}

namespace
{

std::vector<double>
childSeconds(const std::vector<Tracer::Span> &spans)
{
    std::vector<double> children(spans.size(), 0.0);
    for (const Tracer::Span &s : spans) {
        if (s.parent >= 0)
            children[size_t(s.parent)] += double(s.endNs - s.startNs) * 1e-9;
    }
    return children;
}

} // namespace

std::map<std::string, double>
Tracer::selfSeconds() const
{
    const std::vector<Span> all = spans();
    const std::vector<double> children = childSeconds(all);
    std::map<std::string, double> self;
    for (size_t i = 0; i < all.size(); ++i) {
        self[all[i].name] +=
            double(all[i].endNs - all[i].startNs) * 1e-9 - children[i];
    }
    return self;
}

void
Tracer::write(const std::string &path) const
{
    const std::vector<Span> all = spans();
    std::ofstream out(path);
    json::Writer w(out, false);
    w.beginObject();
    w.key("traceEvents");
    w.beginArray();
    const uint64_t base = all.empty() ? 0 : all.front().startNs;
    for (const Span &s : all) {
        w.beginObject();
        w.field("name", s.name);
        w.field("ph", "X");
        w.field("ts", double(s.startNs - base) / 1e3);
        w.field("dur", double(s.endNs - s.startNs) / 1e3);
        w.field("pid", 1);
        w.field("tid", 1);
        w.key("args");
        w.beginObject();
        w.field("op", s.op);
        w.field("parent", int64_t(s.parent));
        w.endObject();
        w.endObject();
    }
    w.endArray();
    w.endObject();
    out << '\n';
}

SpanScope::SpanScope(Tracer &tracer, std::string name, int parent,
                     uint64_t op)
    : tracer_(tracer),
      index_(tracer.on() ? tracer.add(std::move(name), parent, op,
                                      Tracer::nowNs(), 0)
                         : -1)
{
}

SpanScope::~SpanScope()
{
    if (index_ >= 0)
        tracer_.close(index_, Tracer::nowNs());
}

void
Report::add(std::string name, double value, std::string unit)
{
    metrics.push_back({std::move(name), value, std::move(unit)});
}

void
Report::note(std::string key, std::string value)
{
    config.emplace_back(std::move(key), std::move(value));
}

void
Report::print(const std::string &workload) const
{
    std::printf("# perfbench %s\n", workload.c_str());
    for (const auto &[key, value] : config)
        std::printf("config %s %s\n", key.c_str(), value.c_str());
    for (const Metric &m : metrics) {
        std::printf("metric %-36s %.10g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    }
    std::printf("metric %-36s %.10g %s\n", "failed_frac",
                attempted ? double(failed) / double(attempted) : 1.0,
                "fraction");
    for (const std::string &f : findings)
        std::printf("finding %s\n", f.c_str());

    // The line run.py reads: every metric with all its digits.
    std::ostringstream out;
    json::Writer w(out, false);
    w.beginObject();
    w.field("correct", attempted > 0 && failed == 0);
    w.field("attempted", attempted);
    w.field("failed", failed);
    w.key("metrics");
    w.beginObject();
    for (const Metric &m : metrics) {
        if (!std::isfinite(m.value))
            continue;
        w.key(m.name);
        w.beginObject();
        w.field("value", m.value);
        w.field("unit", m.unit);
        w.endObject();
    }
    w.endObject();
    w.endObject();
    std::printf("%s\n", out.str().c_str());
    std::fflush(stdout);
}

} // namespace perfbench
