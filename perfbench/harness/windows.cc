#include <algorithm>
#include <cmath>
#include <cstdio>
#include <optional>

#include "bench.hh"
#include "sim/machine.hh"

namespace perfbench
{

using namespace irep;

WindowPlan
windowPlan(uint64_t seed)
{
    Rng rng(seed);
    WindowPlan plan;
    plan.order = seededOrder(rng);
    for (size_t i = 0; i < plan.order.size(); ++i)
        plan.skips.push_back(skipBase + rng.below(skipSpan));
    return plan;
}

std::vector<Key>
windowKeys(const WindowPlan &plan, const std::vector<Program> &programs)
{
    std::vector<Key> keys;
    for (size_t i = 0; i < programs.size(); ++i)
        keys.push_back({&programs[i], plan.skips[i], windowLength, "all"});
    return keys;
}

unsigned
shardJobs(const Host &host)
{
    // Two is the least that runs core/shard at all.
    return std::max(2u, host.nproc - 1);
}

std::vector<double>
opMedians(const std::vector<std::vector<double>> &by_op)
{
    std::vector<double> medians;
    for (const std::vector<double> &samples : by_op)
        medians.push_back(median(samples));
    return medians;
}

void
addCommonMetrics(Report &report, const std::vector<double> &setups,
                 const std::vector<double> &passes,
                 const std::vector<double> &latencies, size_t samples)
{
    report.add("setup_s", median(setups), "s");
    report.add("pass_s", median(passes), "s");
    report.add("latency_p50_ms", quantile(latencies, 0.5) * 1e3, "ms");
    report.add("latency_p90_ms", quantile(latencies, 0.9) * 1e3, "ms");
    report.note("setup_samples", std::to_string(setups.size()));
    report.note("pass_samples", std::to_string(passes.size()));
    report.note("latency_samples", std::to_string(samples));
}

void
addTraceMetrics(Report &report, const Tracer &tracer,
                const std::vector<double> &traced_passes,
                const std::vector<double> &untraced_passes)
{
    // Unsigned, so that lower is better; the signed value is printed.
    const double overhead = median(traced_passes) - median(untraced_passes);
    report.add("trace.overhead_s", std::abs(overhead), "s");
    char line[200];
    std::snprintf(line, sizeof(line),
                  "tracing overhead: traced minus untraced pass_s = %+.4f s",
                  overhead);
    report.findings.push_back(line);

    const auto self = tracer.selfSeconds();
    double total = 0.0;
    for (const auto &[name, seconds] : self) {
        if (name.rfind("op.", 0) != 0)
            total += seconds;
    }
    for (const auto &[name, seconds] : self) {
        std::snprintf(line, sizeof(line),
                      "span %-22s self %9.4f s (%5.1f%% of layer time)",
                      name.c_str(), seconds,
                      name.rfind("op.", 0) == 0 || total <= 0.0
                          ? 0.0 : seconds / total * 100.0);
        report.findings.push_back(line);
    }
}

Prepared::Prepared(const std::vector<Key> &keys, unsigned jobs)
{
    for (const Key &key : keys) {
        machines.push_back(makeMachine(key));
        pipelines.push_back(std::make_unique<core::AnalysisPipeline>(
            *machines.back(), pipelineConfig(key, jobs)));
    }
}

Report
runWindows(const Options &options, const Host &host, bool sharded)
{
    Report report;
    const WindowPlan plan = windowPlan(options.seed);
    const unsigned jobs = sharded ? shardJobs(host) : 1;

    // Serial operations are timed in thread CPU time; sharded ones
    // spread over threads, so they take wall time. Both are scaled to
    // the reference host's speed by the probe run just before.
    const auto elapsed = [sharded](const Stopwatch &watch) {
        return sharded ? watch.atReferenceWall() : watch.atReferenceCpu();
    };
    report.note("clock", sharded ? "wall_at_reference"
                                 : "thread_cpu_at_reference");
    const std::vector<Program> programs = compilePrograms(plan.order);
    const std::vector<Key> keys = windowKeys(plan, programs);
    report.note("window_jobs", std::to_string(jobs));
    report.note("threads", std::to_string(jobs == 1 ? 1 : jobs + 1));
    std::string order;
    for (const Key &key : keys)
        order += (order.empty() ? "" : ",") + key.name();
    report.note("operations", order);

    Reference reference;
    report.note("stats_digest", reference.digest(keys));

    Tracer tracer(options.trace);
    Tracer untraced(false);
    std::vector<double> setups, passes, wall_passes, traced_passes,
        untraced_passes, rates, probes;
    std::vector<std::vector<double>> latencies(keys.size());
    uint64_t op = 0;
    std::optional<CpuRotation> rotation;
    if (!sharded)
        rotation.emplace(host);
    const auto deadline =
        Clock::now() + std::chrono::duration<double>(options.seconds);
    for (int pass = 0; pass < 2 || Clock::now() < deadline; ++pass) {
        // The traced run alternates traced and untraced passes; their
        // difference is the tracing overhead.
        const bool traced = options.trace && pass % 2 == 0;
        Tracer &t = traced ? tracer : untraced;

        // Set-up, before every pass, so that setup_s is sampled over the
        // whole run like pass_s: compile and assemble every program,
        // then build each window's machine and pipeline.
        if (rotation)
            rotation->moveTo(size_t(pass));
        const Stopwatch setup;
        const std::vector<Program> pass_programs =
            compilePrograms(plan.order);
        const Prepared prepared(windowKeys(plan, pass_programs), jobs);
        setups.push_back(elapsed(setup));
        if (pass == 0) {
            report.note("window_jobs_effective",
                        std::to_string(
                            prepared.pipelines[0]->effectiveWindowJobs()));
        }
        const auto &pipelines = prepared.pipelines;
        std::vector<std::string> docs(keys.size());
        std::vector<bool> ok(keys.size(), true);
        double pass_s = 0.0, pass_wall_s = 0.0, window_instr = 0.0,
               window_s = 0.0;
        for (size_t k = 0; k < keys.size(); ++k) {
            if (rotation)
                rotation->moveTo(k + size_t(pass));
            const Stopwatch watch;
            try {
                SpanScope span(t, "op.window", -1, ++op);
                const uint64_t run_start = Tracer::nowNs();
                const int run = t.add("core.run", span.index(), op,
                                      run_start, run_start);
                pipelines[k]->run();
                const uint64_t run_end = Tracer::nowNs();
                t.close(run, run_end);
                const core::RunTiming &timing = pipelines[k]->timing();
                t.add("core.skip", run, op, run_start,
                      run_start + uint64_t(timing.skip.seconds * 1e9));
                t.add("core.window", run, op,
                      run_end - uint64_t(timing.window.seconds * 1e9),
                      run_end);
                SpanScope doc(t, "serve.stats_doc", span.index(), op);
                docs[k] = statsDoc(*pipelines[k], keys[k]);
            } catch (const std::exception &e) {
                std::fprintf(stderr, "perfbench: %s: %s\n",
                             keys[k].name().c_str(), e.what());
                ok[k] = false;
            }
            const double dt = elapsed(watch);
            latencies[k].push_back(dt);
            pass_s += dt;
            pass_wall_s += watch.wallSeconds();
            probes.push_back(watch.probe);
            window_instr +=
                double(pipelines[k]->timing().window.instructions);
            window_s += pipelines[k]->timing().window.seconds;
        }
        passes.push_back(pass_s);
        wall_passes.push_back(pass_wall_s);
        (traced ? traced_passes : untraced_passes).push_back(pass_s);
        rates.push_back(window_instr / window_s / 1e6);

        for (size_t k = 0; k < keys.size(); ++k) {
            bool match = false;
            try {
                match = ok[k] &&
                        countedStats(docs[k]) == reference.get(keys[k]);
            } catch (const std::exception &) {
            }
            report.check(match);
        }
    }

    rotation.reset();
    addCommonMetrics(report, setups, passes, opMedians(latencies),
                     passes.size() * keys.size());
    report.add("window_minstr_per_s", median(rates), "Minstr/s");
    // The probe's state is the benchmark's, not the library's.
    report.add("peak_rss_mib", peakRssMiB() - probeStateMiB, "MiB");
    report.add("pass_wall_s", median(wall_passes), "s");
    report.add("probe_ms", median(probes) * 1e3, "ms");

    if (options.trace) {
        addTraceMetrics(report, tracer, traced_passes, untraced_passes);
        measureLayers(keys, shardJobs(host), options.workDir + "/layers",
                      report);
        if (!options.spansOut.empty())
            tracer.write(options.spansOut);
    }
    return report;
}

} // namespace perfbench
