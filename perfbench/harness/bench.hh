/**
 * @file
 * The benchmark's workloads and its isolated layer measurements.
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <memory>
#include <vector>

#include "common.hh"
#include "sim/machine.hh"

namespace perfbench
{

/**
 * The windows every in-process workload measures: the seed picks the
 * visit order of the eight paper workloads and each one's skip offset
 * in [skipBase, skipBase + skipSpan); the window length is fixed so
 * the work per pass barely depends on the seed.
 */
constexpr uint64_t skipBase = 200'000;
constexpr uint64_t skipSpan = 50'000;
constexpr uint64_t windowLength = 300'000;

/** The seeded plan behind windowKeys(). */
struct WindowPlan
{
    std::vector<size_t> order;
    std::vector<uint64_t> skips;    //!< parallel to order
};

WindowPlan windowPlan(uint64_t seed);

/** One key per program (programs in plan order), all analyses. */
std::vector<Key> windowKeys(const WindowPlan &plan,
                            const std::vector<Program> &programs);

/** The machines and pipelines of one pass over @p keys, built before
 *  it runs. */
struct Prepared
{
    std::vector<std::unique_ptr<irep::sim::Machine>> machines;
    std::vector<std::unique_ptr<irep::core::AnalysisPipeline>> pipelines;

    Prepared(const std::vector<Key> &keys, unsigned jobs);
};

/** Window shards for window-sharded: producer + workers = nproc. */
unsigned shardJobs(const Host &host);

Report runWindows(const Options &options, const Host &host,
                  bool sharded);
Report runRoundtrip(const Options &options, const Host &host);
Report runServeMixed(const Options &options, const Host &host);

/**
 * The traced run's isolated layer measurements over @p keys: each
 * layer timed alone through public functions (compile, assemble,
 * machine and pipeline construction, bare/bbcache/observed execution,
 * each analysis as {tracker, X} minus {tracker}, shards, trace
 * encode/commit/open/decode, the codecs and CRC on the recorded
 * payloads, in-process service and stats document), plus the ledger
 * that checks they add up to the in-context window and a cross-check
 * against the pipeline's own sampled profile. Adds the per-layer
 * metrics to @p report and the disagreements to its findings.
 * @p store_dir is scratch space for traces.
 */
void measureLayers(const std::vector<Key> &keys, unsigned shard_jobs,
                   const std::string &store_dir, Report &report);

/**
 * Each operation's median over its repetitions. The latency quantiles
 * of the in-process workloads are taken over these, so that one slow
 * repetition of a workload cannot become the p50 on its own.
 */
std::vector<double> opMedians(const std::vector<std::vector<double>> &by_op);

/**
 * Add setup_s, pass_s and the latency quantiles over @p latencies to
 * @p report; @p samples is the number of timed operations behind them.
 */
void addCommonMetrics(Report &report, const std::vector<double> &setups,
                      const std::vector<double> &passes,
                      const std::vector<double> &latencies, size_t samples);

/** Add the traced run's span ledger and tracing overhead. */
void addTraceMetrics(Report &report, const Tracer &tracer,
                     const std::vector<double> &traced_passes,
                     const std::vector<double> &untraced_passes);

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH
