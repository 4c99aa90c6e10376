/**
 * @file
 * The irep benchmark harness:
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             --irep PATH --work-dir DIR [--spans-out FILE]
 *
 * Runs one workload in this process against the library's public
 * functions (serve-mixed also drives an `irep serve` daemon), checks
 * every operation's counted statistics against the serial live path,
 * and prints the configuration, every metric by name and unit, and a
 * final JSON line. perfbench/run.py builds and runs it.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench.hh"
#include "support/version.hh"
#include "trace_io/format.hh"
#include "trace_io/writer.hh"

extern char **environ;

namespace
{

using namespace perfbench;

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "window-serial|window-sharded|trace-roundtrip|"
                 "serve-mixed --seed N --seconds S --trace 0|1 "
                 "--irep PATH --work-dir DIR [--spans-out FILE]\n",
                 why);
    std::exit(2);
}

Options
parse(int argc, char **argv)
{
    Options options;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + flag).c_str());
        const char *value = argv[++i];
        char *end = nullptr;
        if (flag == "--workload") {
            options.workload = value;
        } else if (flag == "--seed") {
            options.seed = std::strtoull(value, &end, 10);
        } else if (flag == "--seconds") {
            options.seconds = std::strtod(value, &end);
        } else if (flag == "--trace") {
            options.trace = std::string(value) == "1";
        } else if (flag == "--irep") {
            options.irep = value;
        } else if (flag == "--work-dir") {
            options.workDir = value;
        } else if (flag == "--spans-out") {
            options.spansOut = value;
        } else {
            usage(("unknown flag " + flag).c_str());
        }
        if (end && *end)
            usage(("malformed number for " + flag).c_str());
    }
    if (options.workload.empty() || options.workDir.empty() ||
        options.seconds <= 0.0)
        usage("--workload, --work-dir and a positive --seconds are needed");
    return options;
}

/** Measure shipped defaults: no IREP_* knob reaches the library or
 *  the daemon it spawns. */
void
clearIrepEnvironment()
{
    std::vector<std::string> names;
    for (char **e = environ; *e; ++e) {
        if (std::strncmp(*e, "IREP_", 5) == 0)
            names.emplace_back(*e, std::strcspn(*e, "="));
    }
    for (const std::string &name : names)
        ::unsetenv(name.c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    const Options options = parse(argc, argv);
    clearIrepEnvironment();
    const Host host = probeHost();

    Report report;
    try {
        if (options.workload == "window-serial") {
            report = runWindows(options, host, false);
        } else if (options.workload == "window-sharded") {
            report = runWindows(options, host, true);
        } else if (options.workload == "trace-roundtrip") {
            report = runRoundtrip(options, host);
        } else if (options.workload == "serve-mixed") {
            if (options.irep.empty())
                usage("serve-mixed needs --irep");
            report = runServeMixed(options, host);
        } else {
            usage(("unknown workload " + options.workload).c_str());
        }
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s failed: %s\n",
                     options.workload.c_str(), e.what());
        return 1;
    }

    const irep::trace_io::TraceWriterOptions writer =
        irep::trace_io::TraceWriterOptions::fromEnv();
    std::vector<std::pair<std::string, std::string>> config = {
        {"build", irep::version::buildId()},
        {"seed", std::to_string(options.seed)},
        {"seconds", std::to_string(options.seconds)},
        {"trace", options.trace ? "1" : "0"},
        {"nproc", std::to_string(host.nproc)},
        {"cpu_affinity", host.affinity},
        {"exec_backend", "interp"},
        {"trace_format", std::to_string(writer.version)},
        {"trace_codec_default", irep::trace_io::codecName(writer.codec)},
    };
    config.insert(config.end(), report.config.begin(), report.config.end());
    report.config = config;
    if (writer.codec != irep::trace_io::Codec::IrepLz) {
        report.findings.push_back(
            std::string("docs/cli.md names lz as the default trace codec; "
                        "this build writes ") +
            irep::trace_io::codecName(writer.codec));
    }
    report.print(options.workload);
    return 0;
}
