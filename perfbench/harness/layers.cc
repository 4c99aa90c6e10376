#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "bench.hh"
#include "minicc/compiler.hh"
#include "asm/assembler.hh"
#include "serve/service.hh"
#include "sim/machine.hh"
#include "support/checksum.hh"
#include "support/lz.hh"
#include "support/prof.hh"
#include "trace_io/format.hh"
#include "trace_io/reader.hh"
#include "trace_io/writer.hh"

namespace perfbench
{

using namespace irep;
namespace fs = std::filesystem;

namespace
{

/** Repetitions of every isolated measurement; each reports the median. */
constexpr int layerRepeats = 3;

/** Payload blocks per key the codec measurements run on. */
constexpr size_t codecBlocksPerKey = 4;

/** The analyses measured as {tracker, X} minus {tracker}, by their
 *  applyAnalysisSet names (also the metric names). */
const char *const marginalAnalyses[] = {
    "global", "local", "functions", "reuse",
    "classes", "prediction", "attribution"};

/** The profAnalysisName() order mapped to the metric names above. */
const char *const
    profMetricNames[core::AnalysisPipeline::ProfSample::numAnalyses] = {
    "tracker", "global", "local", "functions",
    "reuse", "classes", "prediction", "attribution"};

struct NoopObserver : sim::Observer
{
    uint64_t retired = 0;
    void onRetire(const sim::InstrRecord &) override { ++retired; }
};

/** Seconds of @p body. */
template <typename Body>
double
timed(Body &&body)
{
    const auto start = Clock::now();
    body();
    return secondsSince(start);
}

/** Window seconds of a machine run with an optional observer attached
 *  for skip + window (the skip run is untimed). */
double
machineWindowSeconds(const Key &key, sim::ExecBackend backend,
                     sim::Observer *observer)
{
    auto machine = makeMachine(key);
    machine->setExecBackend(backend);
    if (observer)
        machine->addObserver(observer);
    machine->run(key.skip);
    const double s = timed([&] { machine->run(key.window); });
    if (observer)
        machine->removeObserver(observer);
    return s;
}

/** RunTiming of one pipeline run of @p key. */
core::RunTiming
pipelineRun(const Key &key, unsigned jobs = 1)
{
    auto machine = makeMachine(key);
    core::AnalysisPipeline pipeline(*machine, pipelineConfig(key, jobs));
    pipeline.run();
    return pipeline.timing();
}

/** Raw payloads of the first @p limit blocks of a version-2 trace. */
std::vector<std::string>
rawPayloads(const std::string &path, size_t limit)
{
    std::ifstream in(path, std::ios::binary);
    std::string file((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    std::vector<std::string> payloads;
    size_t pos = sizeof(trace_io::TraceHeader);
    while (payloads.size() < limit &&
           pos + sizeof(trace_io::BlockFrame2) <= file.size()) {
        trace_io::BlockFrame2 frame;
        std::memcpy(&frame, file.data() + pos, sizeof(frame));
        if (frame.magic != trace_io::blockMagic2)
            break;
        pos += sizeof(frame);
        if (pos + frame.storedBytes > file.size())
            throw std::runtime_error("truncated block in " + path);
        std::string raw(frame.rawBytes, '\0');
        const auto *stored =
            reinterpret_cast<const uint8_t *>(file.data() + pos);
        const auto codec = trace_io::Codec(frame.codec);
        if (codec == trace_io::Codec::Store) {
            raw.assign(file.data() + pos, frame.storedBytes);
        } else if (!trace_io::codecDecompress(
                       codec, stored, frame.storedBytes,
                       reinterpret_cast<uint8_t *>(raw.data()),
                       raw.size())) {
            throw std::runtime_error("undecodable block in " + path);
        }
        payloads.push_back(std::move(raw));
        pos += frame.storedBytes;
    }
    return payloads;
}

/** Median per-key value over repeats, accumulated per probe. */
class Samples
{
  public:
    void add(const std::string &probe, size_t key, double value)
    {
        auto &per_key = samples_[probe];
        if (per_key.size() <= key)
            per_key.resize(key + 1);
        per_key[key].push_back(value);
    }

    /** Sum over keys of each key's median. */
    double
    sum(const std::string &probe) const
    {
        double total = 0.0;
        auto it = samples_.find(probe);
        if (it == samples_.end())
            return 0.0;
        for (const auto &values : it->second)
            total += median(values);
        return total;
    }

    /** Mean over keys of each key's median. */
    double
    mean(const std::string &probe) const
    {
        auto it = samples_.find(probe);
        if (it == samples_.end() || it->second.empty())
            return 0.0;
        return sum(probe) / double(it->second.size());
    }

  private:
    std::map<std::string, std::vector<std::vector<double>>> samples_;
};

struct CodecTimes
{
    double bytes = 0;
    std::vector<double> compress, decompress, lzCompress, lzDecompress,
        crc;
};

void
measureCodecs(const std::vector<std::string> &payloads, CodecTimes &out)
{
    const trace_io::Codec codec = trace_io::defaultCodec();
    double bytes = 0, compress = 0, decompress = 0, lz_compress = 0,
           lz_decompress = 0, crc = 0;
    for (const std::string &raw : payloads) {
        const auto *src = reinterpret_cast<const uint8_t *>(raw.data());
        const size_t n = raw.size();
        std::vector<uint8_t> packed(lz::maxCompressedSize(n) + n + 1024);
        std::vector<uint8_t> back(n);
        size_t stored = 0;
        compress += timed([&] {
            stored = trace_io::codecCompress(codec, src, n, packed.data(),
                                             packed.size());
        });
        if (stored == 0)
            throw std::runtime_error("codecCompress failed");
        decompress += timed([&] {
            if (!trace_io::codecDecompress(codec, packed.data(), stored,
                                           back.data(), n))
                throw std::runtime_error("codecDecompress failed");
        });
        if (std::memcmp(back.data(), src, n) != 0)
            throw std::runtime_error("codec round trip differs");
        lz_compress += timed([&] {
            stored = lz::compress(src, n, packed.data(), packed.size());
        });
        if (stored == 0)
            throw std::runtime_error("lz::compress failed");
        lz_decompress += timed([&] {
            if (!lz::decompress(packed.data(), stored, back.data(), n))
                throw std::runtime_error("lz::decompress failed");
        });
        if (std::memcmp(back.data(), src, n) != 0)
            throw std::runtime_error("lz round trip differs");
        crc += timed([&] { (void)crc32(src, n); });
        bytes += double(n);
    }
    out.bytes = bytes;
    out.compress.push_back(compress);
    out.decompress.push_back(decompress);
    out.lzCompress.push_back(lz_compress);
    out.lzDecompress.push_back(lz_decompress);
    out.crc.push_back(crc);
}

/** In-process serve::runAnalysis of @p key against @p trace_dir. */
double
serviceSeconds(const Key &key, const std::string &trace_dir,
               bool expect_hit)
{
    ::setenv("IREP_TRACE_DIR", trace_dir.c_str(), 1);
    serve::AnalysisRequest request;
    request.workload = key.program->workload->name;
    request.skip = key.skip;
    request.window = key.window;
    request.skipSet = request.windowSet = true;
    if (key.analyses != "all")
        request.analyses = key.analyses;
    serve::AnalysisOutcome outcome;
    const double s = timed([&] { outcome = serve::runAnalysis(request); });
    ::unsetenv("IREP_TRACE_DIR");
    if (outcome.cacheHit != expect_hit)
        throw std::runtime_error("service cache state unexpected for " +
                                 key.name());
    return s;
}

} // namespace

void
measureLayers(const std::vector<Key> &keys, unsigned shard_jobs,
              const std::string &store_dir, Report &report)
{
    Samples s;
    CodecTimes codecs;
    double window_instr = 0, skip_instr = 0;
    double raw_bytes = 0, stored_bytes = 0, recorded_instr = 0;

    // The daemon-side program cache is warmed up front: the service
    // measurement is of a request, not of the first compile.
    for (const Key &key : keys)
        workloads::buildProgram(*key.program->workload);

    std::vector<std::string> payloads;     // raw blocks, last repeat
    for (int rep = 0; rep < layerRepeats; ++rep) {
        const std::string rep_dir = store_dir + "/rep" + std::to_string(rep);
        fs::create_directories(rep_dir);
        for (size_t k = 0; k < keys.size(); ++k) {
            const Key &key = keys[k];
            if (rep == 0) {
                window_instr += double(key.window);
                skip_instr += double(key.skip);
            }

            // Toolchain and construction.
            std::string text;
            std::unique_ptr<minicc::Unit> unit;
            s.add("compile", k, timed([&] {
                      unit = minicc::compileToUnit(
                          key.program->workload->source);
                      text = minicc::generateAsm(*unit);
                  }));
            s.add("assemble", k,
                  timed([&] { (void)assem::assemble(text); }));
            std::unique_ptr<sim::Machine> machine;
            s.add("machine_init", k,
                  timed([&] { machine = makeMachine(key); }));
            {
                std::unique_ptr<core::AnalysisPipeline> pipeline;
                s.add("pipeline_init", k, timed([&] {
                          pipeline = std::make_unique<
                              core::AnalysisPipeline>(
                              *machine, pipelineConfig(key));
                      }));
            }

            // Execution without, and with a do-nothing, observer.
            s.add("bare", k,
                  machineWindowSeconds(key, sim::ExecBackend::Interp,
                                       nullptr));
            s.add("bbcache", k,
                  machineWindowSeconds(key, sim::ExecBackend::BBCache,
                                       nullptr));
            NoopObserver noop;
            s.add("observed", k,
                  machineWindowSeconds(key, sim::ExecBackend::Interp,
                                       &noop));

            // The analyses: {tracker}, each {tracker, X}, everything,
            // and everything sharded.
            Key tracker = key;
            tracker.analyses = "tracker";
            s.add("tracker", k, pipelineRun(tracker).window.seconds);
            for (const char *name : marginalAnalyses) {
                Key with = key;
                with.analyses = std::string("tracker,") + name;
                s.add(std::string("with_") + name, k,
                      pipelineRun(with).window.seconds);
            }
            {
                auto full_machine = makeMachine(key);
                core::AnalysisPipeline full(*full_machine,
                                            pipelineConfig(key));
                full.run();
                s.add("window", k, full.timing().window.seconds);
                s.add("skip", k, full.timing().skip.seconds);
                s.add("stats_doc", k,
                      timed([&] { (void)statsDoc(full, key); }));
            }
            // Once, not per repeat: every sharded run risks the
            // phase-end deadlock the README describes.
            if (rep == 0) {
                s.add("sharded", k,
                      pipelineRun(key, shard_jobs).window.seconds);
            }

            // Record: the window observed by a TraceWriter alone.
            const std::string path =
                rep_dir + "/" + key.program->workload->name + ".irtrace";
            {
                auto rec_machine = makeMachine(key);
                trace_io::TraceWriter writer(path, *rec_machine,
                                             key.program->workload->input,
                                             key.skip, key.window);
                rec_machine->addObserver(&writer);
                rec_machine->run(key.skip);
                s.add("record", k,
                      timed([&] { rec_machine->run(key.window); }));
                rec_machine->removeObserver(&writer);
                s.add("commit", k, timed([&] { writer.commit(); }));
                if (rep == 0) {
                    raw_bytes += double(writer.rawPayloadBytes());
                    stored_bytes += double(writer.bytesWritten());
                    recorded_instr += double(writer.instrRecords());
                }
            }

            // Replay: open, then decode into a do-nothing observer.
            {
                std::unique_ptr<trace_io::TraceReader> reader;
                s.add("open", k, timed([&] {
                          reader =
                              std::make_unique<trace_io::TraceReader>(path);
                      }));
                auto replay_machine = makeMachine(key);
                reader->bind(*replay_machine, key.program->workload->input);
                NoopObserver sink;
                reader->replay(sink, key.skip);
                s.add("decode", k, timed([&] {
                          reader->replay(sink, key.window);
                      }));
            }
            if (rep == layerRepeats - 1) {
                for (auto &p : rawPayloads(path, codecBlocksPerKey))
                    payloads.push_back(std::move(p));
            }

            // The daemon's service in-process: a cold request records
            // into a fresh store, the repeat replays it.
            const std::string service_dir = rep_dir + "/service";
            s.add("service_cold", k, serviceSeconds(key, service_dir, false));
            s.add("service_warm", k, serviceSeconds(key, service_dir, true));
        }
        fs::remove_all(rep_dir);
    }
    for (int rep = 0; rep < layerRepeats; ++rep)
        measureCodecs(payloads, codecs);

    // The sampled in-context profile the pipeline keeps itself: one
    // profiled run per key.
    constexpr unsigned analyses = core::AnalysisPipeline::ProfSample::numAnalyses;
    double prof_ns[analyses] = {};
    prof::enable(true);
    for (const Key &key : keys) {
        auto machine = makeMachine(key);
        core::AnalysisPipeline pipeline(*machine, pipelineConfig(key));
        pipeline.run();
        const auto &sample = pipeline.profSample();
        const double scale = sample.samples
            ? double(pipeline.timing().window.instructions) /
                double(sample.samples)
            : 0.0;
        for (unsigned i = 0; i < analyses; ++i)
            prof_ns[i] += double(sample.ns[i]) * scale;
    }
    prof::enable(false);
    prof::reset();

    const auto per_instr_ns = [&](double seconds) {
        return seconds * 1e9 / window_instr;
    };
    const double window_ns = per_instr_ns(s.sum("window"));
    const double observed_ns = per_instr_ns(s.sum("observed"));
    const double tracker_ns = per_instr_ns(s.sum("tracker")) - observed_ns;

    report.add("minicc.compile_ms", s.mean("compile") * 1e3, "ms");
    report.add("asm.assemble_ms", s.mean("assemble") * 1e3, "ms");
    report.add("sim.machine_init_ms", s.mean("machine_init") * 1e3, "ms");
    report.add("core.pipeline_init_ms", s.mean("pipeline_init") * 1e3,
               "ms");
    report.add("sim.observed_ns_per_instr", observed_ns, "ns");
    report.add("sim.bare_ns_per_instr", per_instr_ns(s.sum("bare")), "ns");
    report.add("sim.bbcache_bare_ns_per_instr",
               per_instr_ns(s.sum("bbcache")), "ns");
    report.add("core.tracker_ns_per_instr", tracker_ns, "ns");

    double marginal_sum = 0.0;
    std::map<std::string, double> isolated{{"tracker", tracker_ns}};
    for (const char *name : marginalAnalyses) {
        const double marginal =
            per_instr_ns(s.sum(std::string("with_") + name) -
                         s.sum("tracker"));
        marginal_sum += marginal;
        isolated[name] = marginal;
        report.add(std::string("core.") + name + "_ns_per_instr", marginal,
                   "ns");
    }
    report.add("core.skip_ns_per_instr",
               s.sum("skip") * 1e9 / skip_instr, "ns");
    report.add("core.window_ns_per_instr", window_ns, "ns");
    const double gap =
        (window_ns - observed_ns - tracker_ns - marginal_sum) / window_ns;
    // Unsigned, so that lower is better either way round.
    report.add("core.ledger_gap_frac", std::abs(gap), "fraction");

    const double speedup = s.sum("window") / s.sum("sharded");
    report.add("core.shard.speedup", speedup, "x");
    report.add("core.shard.efficiency", speedup / double(shard_jobs + 1),
               "fraction");

    report.add("trace_io.encode_ns_per_instr",
               per_instr_ns(s.sum("record")) - observed_ns, "ns");
    report.add("trace_io.commit_ms", s.mean("commit") * 1e3, "ms");
    report.add("trace_io.open_ms", s.mean("open") * 1e3, "ms");
    report.add("trace_io.decode_ns_per_instr",
               per_instr_ns(s.sum("decode")), "ns");
    report.add("trace_io.raw_bytes_per_instr", raw_bytes / recorded_instr,
               "B/instr");
    report.add("trace_io.stored_bytes_per_instr",
               stored_bytes / recorded_instr, "B/instr");
    const double mb = codecs.bytes / 1e6;
    report.add("trace_io.codec_compress_MBps", mb / median(codecs.compress),
               "MB/s");
    report.add("trace_io.codec_decompress_MBps",
               mb / median(codecs.decompress), "MB/s");
    report.add("support.lz.compress_MBps", mb / median(codecs.lzCompress),
               "MB/s");
    report.add("support.lz.decompress_MBps",
               mb / median(codecs.lzDecompress), "MB/s");
    report.add("support.crc32_GBps", mb / 1e3 / median(codecs.crc),
               "GB/s");
    report.add("serve.service_warm_ms", s.mean("service_warm") * 1e3, "ms");
    report.add("serve.service_cold_ms", s.mean("service_cold") * 1e3, "ms");
    report.add("serve.stats_doc_ms", s.mean("stats_doc") * 1e3, "ms");

    // Isolated ({tracker, X} minus {tracker}) against in-context
    // (the pipeline's every-512th-retire laps) per analysis.
    double isolated_sum = 0.0, prof_sum = 0.0;
    for (unsigned i = 0; i < analyses; ++i) {
        const double prof = prof_ns[i] / window_instr;
        isolated_sum += isolated[profMetricNames[i]];
        prof_sum += prof;
        char line[160];
        std::snprintf(line, sizeof(line),
                      "core.%s isolated %.2f ns/instr vs sampled in "
                      "context %.2f ns/instr",
                      profMetricNames[i], isolated[profMetricNames[i]],
                      prof);
        report.findings.push_back(line);
    }
    report.add("core.prof_disagreement_frac",
               std::abs(isolated_sum - prof_sum) / prof_sum, "fraction");
    // The layers measured alone account for the in-context window when
    // the gap is within this share of it.
    constexpr double tolerance = 0.10;
    char line[240];
    std::snprintf(line, sizeof(line),
                  "ledger: window %.1f ns/instr = observed sim %.1f + "
                  "tracker %.1f + analyses %.1f + gap %.1f (%.1f%%; "
                  "tolerance %.0f%%): %s",
                  window_ns, observed_ns, tracker_ns, marginal_sum,
                  gap * window_ns, gap * 100.0, tolerance * 100.0,
                  std::abs(gap) <= tolerance ? "adds up" : "GAP");
    report.findings.push_back(line);
}

} // namespace perfbench
