#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>
#include <thread>

#include <arpa/inet.h>
#include <fcntl.h>
#include <sched.h>
#include <netinet/in.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include "bench.hh"
#include "support/json.hh"

extern char **environ;

namespace perfbench
{

using namespace irep;
namespace fs = std::filesystem;

namespace
{

/** Daemon start-ups per run; setup_s is their median. */
constexpr int serveSetupRepeats = 7;

/** Requests per pass: pass_s is the time the client waits for this
 *  many. */
constexpr size_t requestsPerPass = 64;

/** Schedule length; more than any run completes. */
constexpr size_t scheduleLength = 30'000;

/** The warm pool: one key per paper workload, small windows. */
constexpr uint64_t warmSkipBase = 20'000;
constexpr uint64_t warmSkipSpan = 10'000;
constexpr uint64_t serveWindow = 30'000;
/** Cold keys skip past every warm key, one distinct skip each. */
constexpr uint64_t coldSkipBase = 60'000;

/** Analysis subsets a request asks for, and their weights. */
const char *const subsets[] = {"all", "tracker", "classes,attribution",
                               "global,local,functions",
                               "reuse,prediction"};
const unsigned subsetWeights[] = {40, 15, 15, 15, 15};

/** Entries in a /batch request. */
constexpr size_t batchSize = 4;

struct Reply
{
    int status = 0;
    std::string body;
};

int
openRequest(uint16_t port, const std::string &method,
            const std::string &target, const std::string &body)
{
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        throw std::runtime_error("socket: " + std::string(strerror(errno)));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr), sizeof(addr)) !=
        0) {
        const std::string error = strerror(errno);
        ::close(fd);
        throw std::runtime_error("connect: " + error);
    }
    const std::string request =
        method + " " + target + " HTTP/1.1\r\nHost: 127.0.0.1\r\n" +
        "Content-Type: application/json\r\nContent-Length: " +
        std::to_string(body.size()) + "\r\nConnection: close\r\n\r\n" +
        body;
    size_t sent = 0;
    while (sent < request.size()) {
        const ssize_t n = ::send(fd, request.data() + sent,
                                 request.size() - sent, MSG_NOSIGNAL);
        if (n <= 0) {
            ::close(fd);
            throw std::runtime_error("send failed");
        }
        sent += size_t(n);
    }
    return fd;
}

/** Read a `Connection: close` response to EOF, then close @p fd. */
Reply
readReply(int fd)
{
    std::string raw;
    char buf[65536];
    for (;;) {
        const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            break;
        raw.append(buf, size_t(n));
    }
    ::close(fd);
    Reply reply;
    const size_t head = raw.find("\r\n\r\n");
    if (raw.compare(0, 5, "HTTP/") != 0 || head == std::string::npos)
        return reply;
    reply.status = std::atoi(raw.c_str() + raw.find(' ') + 1);
    reply.body = raw.substr(head + 4);
    return reply;
}

Reply
request(uint16_t port, const std::string &method, const std::string &target,
        const std::string &body = "")
{
    return readReply(openRequest(port, method, target, body));
}

/** One `irep serve` process with its own trace store, on CPU @p cpu
 *  (any CPU when negative). */
class Daemon
{
  public:
    Daemon(const std::string &irep, unsigned jobs, const std::string &dir,
           int cpu)
    {
        fs::create_directories(dir);
        const std::string log = dir + "/daemon.log";
        const std::string store = "IREP_TRACE_DIR=" + dir + "/store";
        const std::string jobs_text = std::to_string(jobs);
        std::vector<std::string> env_text;
        for (char **e = environ; *e; ++e)
            env_text.emplace_back(*e);
        env_text.push_back(store);
        std::vector<char *> envp;
        for (auto &e : env_text)
            envp.push_back(e.data());
        envp.push_back(nullptr);
        const char *argv[] = {irep.c_str(), "serve", "--port", "0",
                              "--jobs", jobs_text.c_str(), nullptr};

        pid_ = ::fork();
        if (pid_ < 0)
            throw std::runtime_error("fork failed");
        if (pid_ == 0) {
            if (cpu >= 0) {
                cpu_set_t set;
                CPU_ZERO(&set);
                CPU_SET(cpu, &set);
                ::sched_setaffinity(0, sizeof(set), &set);
            }
            const int out = ::open(log.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
            if (out >= 0) {
                ::dup2(out, 1);
                ::dup2(out, 2);
            }
            ::execve(argv[0], const_cast<char *const *>(argv), envp.data());
            ::_exit(127);
        }

        // The daemon announces its kernel-picked port on stderr.
        try {
            const auto start = Clock::now();
            while (port_ == 0) {
                if (secondsSince(start) > 60.0 || exited())
                    throw std::runtime_error("daemon did not start; see " +
                                             log);
                std::ifstream in(log);
                std::string line;
                std::getline(in, line);
                const size_t at = line.find("127.0.0.1:");
                if (at != std::string::npos &&
                    line.find(" (", at) != std::string::npos)
                    port_ = uint16_t(std::atoi(line.c_str() + at + 10));
                else
                    std::this_thread::sleep_for(std::chrono::milliseconds(1));
            }
            while (request(port_, "GET", "/health").status != 200) {
                if (secondsSince(start) > 60.0)
                    throw std::runtime_error("daemon never became healthy");
                std::this_thread::sleep_for(std::chrono::milliseconds(1));
            }
        } catch (...) {
            port_ = 0;
            stop();
            throw;
        }
    }

    ~Daemon() { stop(); }

    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

    uint16_t port() const { return port_; }

    /** The daemon's peak resident set (VmHWM), in MiB. */
    double
    peakRssMiB() const
    {
        std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
        std::string line;
        while (std::getline(in, line)) {
            if (line.rfind("VmHWM:", 0) == 0)
                return std::atof(line.c_str() + 6) / 1024.0;
        }
        return 0.0;
    }

    /** Graceful /shutdown; SIGKILL if it has not exited in 30 s. */
    void
    stop()
    {
        if (pid_ <= 0)
            return;
        try {
            if (port_)
                request(port_, "POST", "/shutdown");
        } catch (const std::exception &) {
        }
        const auto start = Clock::now();
        while (!exited()) {
            if (secondsSince(start) > (port_ ? 30.0 : 0.0)) {
                ::kill(pid_, SIGKILL);
                ::waitpid(pid_, nullptr, 0);
                break;
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
        pid_ = -1;
    }

  private:
    /** Reaps the daemon once it has exited. */
    bool
    exited()
    {
        if (reaped_)
            return true;
        int status = 0;
        reaped_ = ::waitpid(pid_, &status, WNOHANG) == pid_;
        return reaped_;
    }

    pid_t pid_ = -1;
    bool reaped_ = false;
    uint16_t port_ = 0;
};

std::string
analyzeBody(const Key &key)
{
    std::string body = "{\"workload\": \"" + key.program->workload->name +
                       "\", \"skip\": " + std::to_string(key.skip) +
                       ", \"window\": " + std::to_string(key.window);
    if (key.analyses != "all")
        body += ", \"analyses\": \"" + key.analyses + "\"";
    return body + "}";
}

/** One client operation of the seeded schedule. */
struct ServeOp
{
    enum Kind { Warm, Cold, Twin, Batch } kind = Warm;
    std::vector<Key> keys;      //!< one, or batchSize for Batch
};

const char *
pickSubset(Rng &rng)
{
    unsigned roll = unsigned(rng.below(100));
    for (size_t i = 0; i < std::size(subsets); ++i) {
        if (roll < subsetWeights[i])
            return subsets[i];
        roll -= subsetWeights[i];
    }
    return subsets[0];
}

/**
 * The seeded request mix. Every block of 100 requests holds exactly 92
 * warm keys, 3 first-touch keys, 2 first-touch keys sent by two
 * connections at once and 3 /batch requests of warm keys, in seeded
 * order, so every seed puts the same share of slow requests into the
 * latency quantiles. Each request asks for a seeded analysis subset.
 */
std::vector<ServeOp>
schedule(Rng &rng, const std::vector<Key> &warm,
         const std::vector<Program> &programs)
{
    std::vector<ServeOp::Kind> block;
    block.insert(block.end(), 92, ServeOp::Warm);
    block.insert(block.end(), 3, ServeOp::Cold);
    block.insert(block.end(), 2, ServeOp::Twin);
    block.insert(block.end(), 3, ServeOp::Batch);

    std::vector<ServeOp> ops(scheduleLength);
    uint64_t cold = 0;
    for (size_t i = 0; i < ops.size(); ++i) {
        if (i % block.size() == 0) {
            for (size_t j = block.size(); j > 1; --j)
                std::swap(block[j - 1], block[rng.below(j)]);
        }
        ServeOp &op = ops[i];
        op.kind = block[i % block.size()];
        const size_t entries = op.kind == ServeOp::Batch ? batchSize : 1;
        for (size_t e = 0; e < entries; ++e) {
            Key key;
            if (op.kind == ServeOp::Cold || op.kind == ServeOp::Twin) {
                key.program = &programs[rng.below(programs.size())];
                key.skip = coldSkipBase + 7 * cold++;
                key.window = serveWindow;
            } else {
                key = warm[rng.below(warm.size())];
            }
            key.analyses = pickSubset(rng);
            op.keys.push_back(key);
        }
    }
    return ops;
}

struct OpResult
{
    bool done = false;
    bool traced = false;
    std::vector<Reply> replies;
    std::vector<double> latencies;
    double probe = 0.0;         //!< the probe before sending
};

double
metricsField(uint16_t port, const char *field)
{
    const Reply reply = request(port, "GET", "/metrics");
    if (reply.status != 200)
        throw std::runtime_error("GET /metrics failed");
    return json::parse(reply.body).at(field).asNumber();
}

} // namespace

Report
runServeMixed(const Options &options, const Host &host)
{
    Report report;
    // One closed-loop client keeps at most two requests (a twin pair)
    // in flight; two workers serve a twin pair at once. The client, the
    // daemon and this thread share one CPU: the client waits while the
    // daemon works, and the host-speed probe the client runs before each
    // request then measures the CPU the request will run on.
    const unsigned clients = 1;
    const unsigned jobs = std::max(1u, std::min(2u, host.nproc - clients));
    report.note("clients", std::to_string(clients));
    report.note("daemon_jobs", std::to_string(jobs));
    report.note("loop", "closed");
    report.note("clock", "wall_at_reference");
    std::optional<CpuRotation> pin(host);
    const int cpu = host.cpus.empty() ? -1 : host.cpus.back();
    pin->moveTo(host.cpus.size() - 1);
    report.note("cpu", std::to_string(cpu));

    // The benchmark's own copies of the programs: keys, the oracle and
    // the traced run's layer measurements use them; the daemon compiles
    // its own.
    Rng rng(options.seed);
    const std::vector<size_t> order = seededOrder(rng);
    const std::vector<Program> programs = compilePrograms(order);
    std::vector<Key> warm;
    for (const Program &program : programs) {
        warm.push_back({&program, warmSkipBase + rng.below(warmSkipSpan),
                        serveWindow, "all"});
    }
    const std::vector<ServeOp> ops = schedule(rng, warm, programs);
    std::string plan;
    for (const ServeOp &op : ops) {
        plan += std::to_string(int(op.kind));
        for (const Key &key : op.keys)
            plan += " " + key.name();
        plan += "\n";
    }
    report.note("operations", hexDigest(plan));

    // Set-up: daemon start-up to /health, then store preparation (the
    // warm keys recorded once each, which also compiles every program
    // inside the daemon). The last daemon is the one measured.
    std::vector<double> setups;
    std::unique_ptr<Daemon> daemon;
    for (int i = 0; i < serveSetupRepeats; ++i) {
        if (daemon)
            daemon->stop();
        const std::string dir =
            options.workDir + "/serve" + std::to_string(i);
        fs::remove_all(dir);
        const Stopwatch watch;
        daemon = std::make_unique<Daemon>(options.irep, jobs, dir, cpu);
        for (const Key &key : warm) {
            const Reply reply = request(daemon->port(), "POST", "/analyze",
                                        analyzeBody(key));
            if (reply.status != 200)
                throw std::runtime_error("store preparation failed: " +
                                         reply.body);
        }
        setups.push_back(watch.atReferenceWall());
    }
    const uint16_t port = daemon->port();
    const double sims_before = metricsField(port, "simulations");
    const double hits_before = metricsField(port, "cache_hits");
    const double analyses_before = metricsField(port, "analyses");

    // The closed loop: each client sends its next request only when
    // the previous one has been answered, and runs the host-speed probe
    // in between; a request's latency is wall time from sending to its
    // answer, scaled to the reference host's speed by that probe. A
    // traced run traces the second half of the time; the first half is
    // its untraced baseline.
    Tracer tracer(options.trace);
    std::vector<OpResult> results(ops.size());
    std::atomic<size_t> next{0};
    std::atomic<uint64_t> op_ids{0};
    const auto start = Clock::now();
    const auto deadline =
        start + std::chrono::duration<double>(options.seconds);
    const auto half = start + (deadline - start) / 2;
    const auto client = [&] {
        for (;;) {
            const size_t i = next.fetch_add(1);
            if (i >= ops.size() || Clock::now() >= deadline)
                return;
            const ServeOp &op = ops[i];
            OpResult &result = results[i];
            result.traced = options.trace && Clock::now() >= half;
            const uint64_t id = op_ids.fetch_add(1) + 1;
            const Stopwatch sent;
            const uint64_t sent_ns = Tracer::nowNs();
            std::vector<int> fds;
            try {
                if (op.kind == ServeOp::Batch) {
                    std::string body = "{\"requests\": [";
                    for (size_t k = 0; k < op.keys.size(); ++k)
                        body += (k ? ", " : "") + analyzeBody(op.keys[k]);
                    fds.push_back(
                        openRequest(port, "POST", "/batch", body + "]}"));
                } else {
                    const std::string body = analyzeBody(op.keys[0]);
                    fds.push_back(openRequest(port, "POST", "/analyze", body));
                    // Two connections race on one first-touch key.
                    if (op.kind == ServeOp::Twin) {
                        fds.push_back(
                            openRequest(port, "POST", "/analyze", body));
                    }
                }
                const uint64_t written_ns = Tracer::nowNs();
                for (int fd : fds) {
                    result.replies.push_back(readReply(fd));
                    result.latencies.push_back(sent.atReferenceWall());
                }
                if (result.traced) {
                    const uint64_t done_ns = Tracer::nowNs();
                    const int root = tracer.add("op.request", -1, id,
                                                sent_ns, done_ns);
                    tracer.add("client.send", root, id, sent_ns, written_ns);
                    tracer.add("serve.reply_wait", root, id, written_ns,
                               done_ns);
                }
            } catch (const std::exception &e) {
                std::fprintf(stderr, "perfbench: request %zu: %s\n", i,
                             e.what());
                result.replies.resize(fds.size() ? fds.size() : 1);
                result.latencies.resize(result.replies.size(),
                                        sent.atReferenceWall());
            }
            result.probe = sent.probe;
            result.done = true;
        }
    };
    std::vector<std::thread> threads;
    for (unsigned c = 0; c < clients; ++c)
        threads.emplace_back(client);
    for (std::thread &t : threads)
        t.join();
    const double elapsed = secondsSince(start);

    const double simulations = metricsField(port, "simulations") - sims_before;
    const double hits = metricsField(port, "cache_hits") - hits_before;
    const double analyses = metricsField(port, "analyses") - analyses_before;
    const double daemon_rss = daemon->peakRssMiB();
    daemon->stop();
    pin.reset();

    // Verify every answer against the serial live path (untimed).
    Reference reference;
    report.note("stats_digest", reference.digest(warm));
    std::vector<double> latencies, warm_all_latencies, probes, passes,
        traced_passes;
    double busy[2] = {0.0, 0.0};
    size_t busy_ops[2] = {0, 0};
    double window_instr = 0.0, window_s = 0.0, cold_keys = 0.0;
    const auto verify = [&](const json::Value &doc, const Key &key) {
        const json::Value &run = doc.at("stats").at("run");
        window_instr += run.at("window_instructions").asNumber();
        window_s += run.at("window_seconds").asNumber();
        return countedStats(doc) == reference.get(key);
    };
    for (size_t i = 0; i < ops.size(); ++i) {
        const OpResult &result = results[i];
        if (!result.done)
            continue;
        const ServeOp &op = ops[i];
        if (op.kind == ServeOp::Cold || op.kind == ServeOp::Twin)
            cold_keys += 1.0;
        probes.push_back(result.probe);
        // pass_s: the time the client waited for each successive
        // requestsPerPass operations (traced and untraced kept apart).
        const int half = result.traced ? 1 : 0;
        busy[half] += *std::max_element(result.latencies.begin(),
                                        result.latencies.end());
        if (++busy_ops[half] % requestsPerPass == 0) {
            (half ? traced_passes : passes).push_back(busy[half]);
            busy[half] = 0.0;
        }
        for (size_t r = 0; r < result.replies.size(); ++r) {
            latencies.push_back(result.latencies[r]);
            if (op.kind == ServeOp::Warm && op.keys[0].analyses == "all")
                warm_all_latencies.push_back(result.latencies[r]);
            bool ok = result.replies[r].status == 200;
            try {
                const json::Value doc =
                    ok ? json::parse(result.replies[r].body) : json::Value();
                if (ok && op.kind != ServeOp::Batch) {
                    ok = verify(doc, op.keys[0]);
                } else if (ok) {
                    const json::Value &list = doc.at("results");
                    ok = list.size() == op.keys.size();
                    for (size_t k = 0; ok && k < op.keys.size(); ++k)
                        ok = verify(list.at(k), op.keys[k]);
                }
            } catch (const std::exception &) {
                ok = false;
            }
            report.check(ok);
        }
    }
    // Single flight: every first-touch key simulated exactly once.
    const double per_cold = cold_keys > 0 ? simulations / cold_keys : 0.0;
    report.check(cold_keys > 0 && simulations == cold_keys);

    addCommonMetrics(report, setups, passes, latencies, latencies.size());
    report.add("window_minstr_per_s", window_instr / window_s / 1e6,
               "Minstr/s");
    report.add("peak_rss_mib", daemon_rss, "MiB");
    report.add("probe_ms", median(probes) * 1e3, "ms");
    report.add("requests_per_s", double(latencies.size()) / elapsed, "1/s");
    report.add("serve.cache_hit_ratio", hits / analyses, "fraction");
    report.add("serve.simulations_per_cold_key", per_cold, "count");

    if (options.trace) {
        addTraceMetrics(report, tracer, traced_passes, passes);
        measureLayers(warm, shardJobs(host), options.workDir + "/layers",
                      report);
        double service_ms = 0.0;
        for (const Report::Metric &m : report.metrics) {
            if (m.name == "serve.service_warm_ms")
                service_ms = m.value;
        }
        report.add("serve.http_overhead_ms",
                   median(warm_all_latencies) * 1e3 - service_ms, "ms");
        if (!options.spansOut.empty())
            tracer.write(options.spansOut);
    }
    return report;
}

} // namespace perfbench
