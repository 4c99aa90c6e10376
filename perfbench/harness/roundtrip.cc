#include <cstdio>
#include <filesystem>
#include <optional>

#include "bench.hh"
#include "sim/machine.hh"
#include "trace_io/cache.hh"
#include "trace_io/reader.hh"
#include "trace_io/writer.hh"

namespace perfbench
{

using namespace irep;
namespace fs = std::filesystem;

namespace
{

/** What one pass builds: a recording machine per key, and a replay
 *  machine and pipeline per key. */
struct RoundtripPass
{
    std::vector<std::unique_ptr<sim::Machine>> recorders;
    Prepared replay;

    explicit RoundtripPass(const std::vector<Key> &keys) : replay(keys, 1)
    {
        for (const Key &key : keys)
            recorders.push_back(makeMachine(key));
    }
};

} // namespace

Report
runRoundtrip(const Options &options, const Host &host)
{
    Report report;
    const WindowPlan plan = windowPlan(options.seed);
    const std::string root = options.workDir + "/roundtrip";

    const auto trackerKeys = [&plan](const std::vector<Program> &programs) {
        std::vector<Key> keys = windowKeys(plan, programs);
        for (Key &key : keys)
            key.analyses = "tracker";
        return keys;
    };

    // Operations are timed in thread CPU time, so the fsync inside
    // commit() is left out (the wall-clock pass time is printed beside
    // it), and scaled to the reference host's speed.
    report.note("clock", "thread_cpu_at_reference");
    const std::vector<Program> programs = compilePrograms(plan.order);
    const std::vector<Key> keys = trackerKeys(programs);

    Reference reference;
    report.note("stats_digest", reference.digest(keys));
    std::string order;
    for (const Key &key : keys)
        order += (order.empty() ? "" : ",") + key.name();
    report.note("operations", order);

    Tracer tracer(options.trace);
    Tracer untraced(false);
    std::vector<double> setups, passes, wall_passes, traced_passes,
        untraced_passes, record_rates, replay_rates, window_rates,
        stored_per_instr, probes;
    // Record and replay of each key are two operations.
    std::vector<std::vector<double>> latencies(2 * keys.size());
    std::map<std::string, uint64_t> codecs;
    uint64_t op = 0;
    std::optional<CpuRotation> rotation(host);
    const auto deadline =
        Clock::now() + std::chrono::duration<double>(options.seconds);
    for (int pass = 0; pass < 2 || Clock::now() < deadline; ++pass) {
        const bool traced = options.trace && pass % 2 == 0;
        Tracer &t = traced ? tracer : untraced;
        // Set-up, before every pass, so that setup_s is sampled over the
        // whole run like pass_s: compile and assemble, prepare an empty
        // store, and build a recording machine per key and a replay
        // machine and {tracker} pipeline per key.
        rotation->moveTo(size_t(pass));
        const Stopwatch setup;
        const std::vector<Program> pass_programs =
            compilePrograms(plan.order);
        const std::string store =
            root + "/pass" + std::to_string(pass);
        fs::create_directories(store);
        const RoundtripPass prepared(trackerKeys(pass_programs));
        setups.push_back(setup.atReferenceCpu());
        const auto &recorders = prepared.recorders;
        const auto &replayers = prepared.replay.machines;
        const auto &pipelines = prepared.replay.pipelines;
        std::vector<std::string> docs(keys.size());
        std::vector<bool> ok(keys.size(), true);
        double pass_wall_s = 0.0, record_s = 0.0, replay_s = 0.0;
        double instr = 0.0, bytes = 0.0, window_instr = 0.0, window_s = 0.0;
        for (size_t k = 0; k < keys.size(); ++k) {
            const Key &key = keys[k];
            const std::string &input = key.program->workload->input;
            const std::string path = trace_io::cachePath(
                store, key.program->workload->name,
                trace_io::identityHash(*key.program->program, input),
                key.skip, key.window);
            try {
                // Record the window with the shipped format and codec.
                rotation->moveTo(2 * k + size_t(pass));
                Stopwatch watch;
                {
                    SpanScope span(t, "op.record", -1, ++op);
                    std::unique_ptr<trace_io::TraceWriter> writer;
                    {
                        SpanScope open(t, "trace_io.writer_open",
                                       span.index(), op);
                        writer = std::make_unique<trace_io::TraceWriter>(
                            path, *recorders[k], input, key.skip,
                            key.window);
                    }
                    recorders[k]->addObserver(writer.get());
                    {
                        SpanScope run(t, "sim.run_observed", span.index(),
                                      op);
                        recorders[k]->run(key.skip);
                        recorders[k]->run(key.window);
                    }
                    recorders[k]->removeObserver(writer.get());
                    {
                        SpanScope commit(t, "trace_io.commit", span.index(),
                                         op);
                        writer->commit();
                    }
                    instr += double(writer->instrRecords());
                    ++codecs[trace_io::codecName(writer->codec())];
                }
                double dt = watch.atReferenceCpu();
                latencies[2 * k].push_back(dt);
                record_s += dt;
                pass_wall_s += watch.wallSeconds();
                probes.push_back(watch.probe);
                bytes += double(fs::file_size(path));

                // Open and replay it through a {tracker} pipeline.
                rotation->moveTo(2 * k + 1 + size_t(pass));
                watch = Stopwatch();
                {
                    SpanScope span(t, "op.replay", -1, ++op);
                    std::unique_ptr<trace_io::TraceReader> reader;
                    {
                        SpanScope open(t, "trace_io.open", span.index(), op);
                        reader =
                            std::make_unique<trace_io::TraceReader>(path);
                    }
                    {
                        SpanScope bind(t, "trace_io.bind", span.index(), op);
                        reader->bind(*replayers[k], input);
                    }
                    {
                        SpanScope run(t, "core.replay", span.index(), op);
                        pipelines[k]->runFromSource(*reader);
                    }
                    SpanScope doc(t, "serve.stats_doc", span.index(), op);
                    docs[k] = statsDoc(*pipelines[k], key);
                }
                dt = watch.atReferenceCpu();
                latencies[2 * k + 1].push_back(dt);
                replay_s += dt;
                pass_wall_s += watch.wallSeconds();
                window_instr +=
                    double(pipelines[k]->timing().window.instructions);
                window_s += pipelines[k]->timing().window.seconds;
            } catch (const std::exception &e) {
                std::fprintf(stderr, "perfbench: %s: %s\n",
                             key.name().c_str(), e.what());
                ok[k] = false;
            }
        }
        const double pass_s = record_s + replay_s;
        passes.push_back(pass_s);
        wall_passes.push_back(pass_wall_s);
        (traced ? traced_passes : untraced_passes).push_back(pass_s);
        record_rates.push_back(instr / record_s / 1e6);
        replay_rates.push_back(instr / replay_s / 1e6);
        window_rates.push_back(window_instr / window_s / 1e6);
        stored_per_instr.push_back(bytes / instr);

        for (size_t k = 0; k < keys.size(); ++k) {
            bool match = false;
            try {
                match = ok[k] &&
                        countedStats(docs[k]) == reference.get(keys[k]);
            } catch (const std::exception &) {
            }
            report.check(match);
        }
        fs::remove_all(store);
    }

    rotation.reset();
    addCommonMetrics(report, setups, passes, opMedians(latencies),
                     passes.size() * latencies.size());
    report.add("window_minstr_per_s", median(window_rates), "Minstr/s");
    // The probe's state is the benchmark's, not the library's.
    report.add("peak_rss_mib", peakRssMiB() - probeStateMiB, "MiB");
    report.add("pass_wall_s", median(wall_passes), "s");
    report.add("probe_ms", median(probes) * 1e3, "ms");
    report.add("record_minstr_per_s", median(record_rates), "Minstr/s");
    report.add("replay_minstr_per_s", median(replay_rates), "Minstr/s");
    report.add("stored_bytes_per_instr", median(stored_per_instr),
               "B/instr");
    std::string written;
    for (const auto &[name, count] : codecs)
        written += (written.empty() ? "" : ",") + name;
    report.note("trace_codec_written", written);

    if (options.trace) {
        addTraceMetrics(report, tracer, traced_passes, untraced_passes);
        std::vector<Key> layer_keys = windowKeys(plan, programs);
        measureLayers(layer_keys, shardJobs(host),
                      options.workDir + "/layers", report);
        if (!options.spansOut.empty())
            tracer.write(options.spansOut);
    }
    fs::remove_all(root);
    return report;
}

} // namespace perfbench
