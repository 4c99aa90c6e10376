/**
 * @file
 * Shared pieces of the irep benchmark harness: run options, the seeded
 * generator, the paper-workload keys every workload draws from, the
 * correctness oracle (counted statistics with the timing fields
 * stripped), the in-memory span recorder, and the report that becomes
 * the harness's output.
 */

#ifndef PERFBENCH_COMMON_HH
#define PERFBENCH_COMMON_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "asm/program.hh"
#include "core/pipeline.hh"
#include "support/json.hh"
#include "workloads/workloads.hh"

namespace perfbench
{

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/**
 * CPU seconds the calling thread has run. The in-process workloads time
 * their single-threaded operations with it: unlike wall time it leaves
 * out the time the thread waited for a CPU, and on a paravirtualised
 * kernel (PARAVIRT_TIME_ACCOUNTING) the time the hypervisor stole.
 * Whatever shares the physical core still slows it. On an idle host it
 * equals the wall time of these operations, apart from blocking I/O
 * (the fsync in TraceWriter::commit), which it leaves out.
 */
double threadCpuSeconds();

/**
 * Host-speed probe: fixed work of the benchmark's own in two halves of
 * about equal time. A compact half is shaped like the simulator (switch
 * dispatch over a small program, loads and stores into 1 MiB of memory,
 * probes into a 512 KiB open-addressing table like the repetition
 * tracker's) and stays in L2; a cache-missing half updates random slots
 * of a 16 MiB table in the last-level cache. On a shared host the speed
 * of a CPU drifts by tens of percent over minutes as neighbours load the
 * physical cores and the shared cache, and thread CPU time drifts with
 * it; the probe slows with the host but never with a change to the
 * library. Returns its thread CPU seconds.
 */
double probeSeconds();

/** Resident memory of one thread's probe state, in MiB. */
constexpr double probeStateMiB = 17.5;

/**
 * probeSeconds() on the reference host (a 4-vCPU Intel Xeon VM; about
 * its median over window-serial runs). Times scaled by it read as
 * seconds on that host.
 */
constexpr double probeReferenceSeconds = 0.0035;

/**
 * Times one piece of work: construction first runs the probe on the
 * calling thread's CPU, then starts a wall and a thread-CPU clock. The
 * at*() readings scale by probeReferenceSeconds / probe, i.e. to the
 * reference host's speed at that moment.
 */
struct Stopwatch
{
    double probe = probeSeconds();
    Clock::time_point wall = Clock::now();
    double cpu = threadCpuSeconds();

    double wallSeconds() const { return secondsSince(wall); }
    double cpuSeconds() const { return threadCpuSeconds() - cpu; }
    double scale() const { return probeReferenceSeconds / probe; }
    double atReferenceWall() const { return wallSeconds() * scale(); }
    double atReferenceCpu() const { return cpuSeconds() * scale(); }
};

/** Command-line options of one benchmark run. */
struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string irep;       //!< the built `irep` CLI (serve-mixed)
    std::string workDir;    //!< scratch space inside the checkout
    std::string spansOut;   //!< where the traced run writes its spans
};

/** What the host gives this process. */
struct Host
{
    unsigned nproc = 1;     //!< CPUs in this process's affinity mask
    std::string affinity;   //!< e.g. "0-3"
    std::vector<int> cpus;  //!< the CPUs in that mask
};

Host probeHost();

/**
 * Moves the calling thread from CPU to CPU of the host, and restores
 * the whole mask when destroyed. On a shared host each CPU's speed
 * drifts on its own by tens of percent over seconds; giving operation
 * k of pass p the CPU (k + p) mod nproc spreads every operation over
 * every CPU, so a slow CPU weighs on every median a little instead of
 * on a few a lot. Threads the library spawns inherit the mask, so
 * only single-threaded operations rotate.
 */
class CpuRotation
{
  public:
    explicit CpuRotation(const Host &host) : host_(host) {}
    ~CpuRotation();

    CpuRotation(const CpuRotation &) = delete;
    CpuRotation &operator=(const CpuRotation &) = delete;

    /** Run on CPU number @p turn mod nproc from now on. */
    void moveTo(size_t turn);

  private:
    const Host &host_;
};

/** splitmix64: the benchmark's only source of randomness. */
class Rng
{
  public:
    explicit Rng(uint64_t seed) : state_(seed * 0x9e3779b97f4a7c15ull) {}

    uint64_t next();

    /** Uniform in [0, n). */
    uint64_t below(uint64_t n) { return next() % n; }

  private:
    uint64_t state_;
};

/** A paper workload with the program the benchmark compiled for it. */
struct Program
{
    const irep::workloads::Workload *workload = nullptr;
    std::shared_ptr<irep::assem::Program> program;
};

/** Compile and assemble the paper workloads, in @p order. */
std::vector<Program> compilePrograms(const std::vector<size_t> &order);

/** The eight paper workloads' indices in seeded visit order. */
std::vector<size_t> seededOrder(Rng &rng);

/** One (workload, skip, window, analyses) measurement. */
struct Key
{
    const Program *program = nullptr;
    uint64_t skip = 0;
    uint64_t window = 0;
    std::string analyses = "all";

    std::string name() const;
};

/** A machine ready to run @p key, with the workload's input set. */
std::unique_ptr<irep::sim::Machine> makeMachine(const Key &key);

/** The pipeline configuration for @p key with @p window_jobs shards. */
irep::core::PipelineConfig pipelineConfig(const Key &key,
                                          unsigned window_jobs = 1);

/** The irep-stats-1 document of a finished run, as the CLI and the
 *  daemon write it. */
std::string statsDoc(const irep::core::AnalysisPipeline &pipeline,
                     const Key &key);

/**
 * The counted statistics of an irep-stats-1 document: parsed, every
 * wall-clock field dropped (the same key set as ci/compare_stats.py),
 * and re-serialized canonically so equal statistics compare equal as
 * strings. Throws on a document that does not parse.
 */
std::string countedStats(const std::string &doc);
std::string countedStats(const irep::json::Value &doc);

/**
 * The oracle: the serial live path's counted statistics per key,
 * computed on first use and never timed.
 */
class Reference
{
  public:
    const std::string &get(const Key &key);

    /** A hex digest of the counted statistics of @p keys, in order. */
    std::string digest(const std::vector<Key> &keys);

  private:
    std::mutex mutex_;
    std::map<std::string, std::string> byKey_;
};

/** FNV-1a of @p text, as 16 hex digits. */
std::string hexDigest(const std::string &text);

/** Median of @p values (0 when empty). */
double median(std::vector<double> values);

/** The @p q quantile by linear interpolation (0 when empty). */
double quantile(std::vector<double> values, double q);

/** Peak resident set of this process, in MiB. */
double peakRssMiB();

/**
 * In-memory span recorder. Spans are recorded only around the
 * benchmark's own calls into a layer; the program under test is never
 * instrumented. A disabled tracer records nothing.
 */
class Tracer
{
  public:
    struct Span
    {
        std::string name;
        int parent = -1;
        uint64_t op = 0;        //!< spans of one operation share it
        uint64_t startNs = 0;
        uint64_t endNs = 0;
    };

    explicit Tracer(bool on) : on_(on) {}

    bool on() const { return on_; }

    static uint64_t nowNs();

    /** Record a completed span; returns its index (-1 when off). */
    int add(std::string name, int parent, uint64_t op, uint64_t start_ns,
            uint64_t end_ns);

    /** Close span @p index at @p end_ns. */
    void close(int index, uint64_t end_ns);

    /** Spans so far (copy; safe against concurrent add()). */
    std::vector<Span> spans() const;

    /** Per layer name: summed self time (span minus its children). */
    std::map<std::string, double> selfSeconds() const;

    /** Write every span as Chrome trace-event JSON. */
    void write(const std::string &path) const;

  private:
    bool on_;
    mutable std::mutex mutex_;
    std::vector<Span> spans_;
};

/** RAII span on a single thread; nested scopes become children. */
class SpanScope
{
  public:
    SpanScope(Tracer &tracer, std::string name, int parent, uint64_t op);
    ~SpanScope();

    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

    int index() const { return index_; }

  private:
    Tracer &tracer_;
    int index_;
};

/** One run's result. */
struct Report
{
    struct Metric
    {
        std::string name;
        double value = 0.0;
        std::string unit;
    };

    std::vector<Metric> metrics;
    std::vector<std::pair<std::string, std::string>> config;
    std::vector<std::string> findings;
    uint64_t attempted = 0;
    uint64_t failed = 0;

    void add(std::string name, double value, std::string unit);
    void note(std::string key, std::string value);

    /** Count one verified operation; @p ok false counts it failed. */
    void
    check(bool ok)
    {
        ++attempted;
        failed += ok ? 0 : 1;
    }

    /** Print the human-readable lines and the final JSON line. */
    void print(const std::string &workload) const;
};

} // namespace perfbench

#endif // PERFBENCH_COMMON_HH
