/**
 * @file
 * End-to-end tests of the rmp command-line binary (robustness satellite):
 * malformed invocations must print the usage text and exit non-zero;
 * well-formed ones must succeed and honor --trace/--stats. Shells out to
 * the real binary (path injected as RMP_BIN by CMake).
 */

#include <gtest/gtest.h>

#include <csignal>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <array>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

namespace
{

struct RunResult
{
    int status = -1;
    std::string output; ///< stdout + stderr interleaved
};

/** Run `RMP_BIN <args>` capturing combined output and exit status. */
RunResult
run(const std::string &args)
{
    std::string cmd = std::string(RMP_BIN) + " " + args + " 2>&1";
    RunResult r;
    FILE *p = popen(cmd.c_str(), "r");
    if (!p)
        return r;
    std::array<char, 4096> buf;
    size_t n;
    while ((n = fread(buf.data(), 1, buf.size(), p)) > 0)
        r.output.append(buf.data(), n);
    int rc = pclose(p);
    r.status = WIFEXITED(rc) ? WEXITSTATUS(rc) : -1;
    return r;
}

bool
mentionsUsage(const std::string &out)
{
    return out.find("usage: rmp") != std::string::npos;
}

} // anonymous namespace

TEST(Cli, NoCommandFailsWithUsage)
{
    RunResult r = run("");
    EXPECT_NE(r.status, 0);
    EXPECT_TRUE(mentionsUsage(r.output)) << r.output;
}

TEST(Cli, UnknownCommandFailsWithUsage)
{
    RunResult r = run("frobnicate");
    EXPECT_NE(r.status, 0);
    EXPECT_TRUE(mentionsUsage(r.output)) << r.output;
    EXPECT_NE(r.output.find("unknown command"), std::string::npos);
}

TEST(Cli, MissingSubcommandArgsFailWithUsage)
{
    for (const char *cmd : {"upaths", "leakage", "contracts", "bugs",
                            "lint", "synth", "upaths tiny3"}) {
        RunResult r = run(cmd);
        EXPECT_NE(r.status, 0) << cmd;
        EXPECT_TRUE(mentionsUsage(r.output)) << cmd << ": " << r.output;
    }
}

TEST(Cli, UnknownFlagFailsWithUsage)
{
    RunResult r = run("bugs tiny3 --frob");
    EXPECT_NE(r.status, 0);
    EXPECT_TRUE(mentionsUsage(r.output)) << r.output;
    EXPECT_NE(r.output.find("unknown option '--frob'"), std::string::npos);
}

TEST(Cli, FlagMissingArgumentFailsWithUsage)
{
    RunResult r = run("bugs tiny3 --budget");
    EXPECT_NE(r.status, 0);
    EXPECT_TRUE(mentionsUsage(r.output)) << r.output;
    EXPECT_NE(r.output.find("requires an argument"), std::string::npos);
}

TEST(Cli, UnknownDuvFailsNonZero)
{
    RunResult r = run("bugs nosuchduv");
    EXPECT_NE(r.status, 0);
    EXPECT_NE(r.output.find("unknown DUV"), std::string::npos);
}

TEST(Cli, UnknownInstructionExitsTwo)
{
    // A user-given instruction name is input, not an internal invariant:
    // every command that takes one reports an unknown name and exits 2.
    for (const char *cmd :
         {"upaths tiny3 FOO", "leakage tiny3 FOO",
          "leakage tiny3 ADD --tx FOO", "synth tiny3 --instrs FOO",
          "contracts tiny3 --instrs FOO"}) {
        RunResult r = run(cmd);
        EXPECT_EQ(r.status, 2) << cmd << ": " << r.output;
        EXPECT_NE(r.output.find("rmp: unknown instruction 'FOO' on tiny3"),
                  std::string::npos)
            << cmd << ": " << r.output;
    }
}

TEST(Cli, HelpSucceeds)
{
    RunResult r = run("help");
    EXPECT_EQ(r.status, 0);
    EXPECT_TRUE(mentionsUsage(r.output));
}

TEST(Cli, ListSucceeds)
{
    RunResult r = run("list");
    EXPECT_EQ(r.status, 0);
    EXPECT_NE(r.output.find("tiny3"), std::string::npos);
}

TEST(Cli, BugsTiny3Succeeds)
{
    RunResult r = run("bugs tiny3");
    EXPECT_EQ(r.status, 0) << r.output;
    EXPECT_NE(r.output.find("candidate PLs reachable"), std::string::npos);
}

TEST(Cli, SynthWithTraceAndStats)
{
    std::string trace =
        ::testing::TempDir() + "/rmp_cli_trace.json";
    std::remove(trace.c_str());
    RunResult r = run("synth tiny3 --trace " + trace + " --stats");
    EXPECT_EQ(r.status, 0) << r.output;
    EXPECT_NE(r.output.find("uPATH"), std::string::npos);
    EXPECT_NE(r.output.find("Run metrics"), std::string::npos);
    // The trace file exists and is chrome-trace shaped.
    std::FILE *f = std::fopen(trace.c_str(), "r");
    ASSERT_NE(f, nullptr);
    std::string content;
    std::array<char, 4096> buf;
    size_t n;
    while ((n = std::fread(buf.data(), 1, buf.size(), f)) > 0)
        content.append(buf.data(), n);
    std::fclose(f);
    EXPECT_NE(content.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(content.find("\"sat-solve\""), std::string::npos);
    EXPECT_NE(content.find("\"bmc-unroll\""), std::string::npos);
    EXPECT_NE(content.find("\"pool-lane\""), std::string::npos);
    std::remove(trace.c_str());
}

TEST(Cli, CheckVerdictsAuditsEveryVerdictCleanly)
{
    // The acceptance gate for the verdict-audit layer: a full audited
    // synthesis run replays every reachable witness and DRAT-checks
    // every solver-backed unsat frame, with zero mismatches, and exits 0.
    RunResult r = run("synth tiny3 --check-verdicts=all --jobs 4");
    EXPECT_EQ(r.status, 0) << r.output;
    EXPECT_NE(r.output.find("verdict audit:"), std::string::npos)
        << r.output;
    EXPECT_NE(r.output.find("0 mismatch(es)"), std::string::npos)
        << r.output;
    // The audit actually ran: at least one replay and one proof check.
    EXPECT_EQ(r.output.find("0 witness replay(s)"), std::string::npos)
        << r.output;
    EXPECT_EQ(r.output.find("0 DRAT-closed"), std::string::npos)
        << r.output;
}

TEST(Cli, SimLanesRejectsUnsupportedWidthsAtTheBoundary)
{
    // Invalid lane widths must die at argument parsing — exit 2 with
    // the usage text naming the supported widths — not deep inside the
    // engine as an assertion.
    for (const char *bad : {"0", "17", "99", "abc", "8x", ""}) {
        RunResult r = run("bugs tiny3 --sim-lanes '" +
                          std::string(bad) + "'");
        EXPECT_EQ(r.status, 2) << "--sim-lanes " << bad;
        EXPECT_TRUE(mentionsUsage(r.output))
            << "--sim-lanes " << bad << ": " << r.output;
        EXPECT_NE(r.output.find("supported widths"), std::string::npos)
            << "--sim-lanes " << bad << ": " << r.output;
    }
}

TEST(Cli, MalformedNumericFlagFailsWithUsage)
{
    // Every numeric option goes through one checked parser: garbage,
    // trailing junk, an empty value, a sign on an unsigned option and an
    // out-of-range value all exit 2 with the usage text naming the flag,
    // never abort on an uncaught exception or truncate silently. A
    // thread count past 1024 is out of range before any thread starts,
    // and so is an age whose seconds overflow uint64_t. A daemon queue
    // bound of 0 would reject every heavy request.
    for (const char *bad :
         {"--jobs abc", "--budget x", "--workers ''", "--sim-threads 1z",
          "--timeout 99999999999", "--max-queue -1", "--priority 1.5",
          "--max-bytes ' 7'", "--max-age-days 18446744073709551616",
          "--max-age-days 213503982334602", "--jobs 1025",
          "--sim-threads 1025", "--workers 1025", "--timeout -5",
          "--max-queue 0"}) {
        RunResult r = run(std::string("bugs tiny3 ") + bad);
        EXPECT_EQ(r.status, 2) << bad << ": " << r.output;
        EXPECT_TRUE(mentionsUsage(r.output)) << bad << ": " << r.output;
        std::string flag(bad, std::strchr(bad, ' '));
        EXPECT_NE(r.output.find("invalid " + flag), std::string::npos)
            << bad << ": " << r.output;
    }
    // In-range values still parse, including a negative priority and
    // the inclusive ends of the --timeout, --max-age-days and
    // --max-queue ranges.
    RunResult ok = run("bugs tiny3 --jobs 2 --sim-threads 1 --priority -3"
                       " --timeout 0 --max-age-days 213503982334601"
                       " --max-queue 1");
    EXPECT_EQ(ok.status, 0) << ok.output;
}

TEST(Cli, CheckVerdictsRejectsUnknownMode)
{
    RunResult r = run("synth tiny3 --check-verdicts=frob");
    EXPECT_NE(r.status, 0);
    EXPECT_TRUE(mentionsUsage(r.output)) << r.output;
}

TEST(Cli, StatsJsonIsWellFormedSummary)
{
    RunResult r = run("bugs tiny3 --stats --json");
    EXPECT_EQ(r.status, 0) << r.output;
    // The summary is the last line of stdout: a flat JSON object in the
    // BENCH_*.json schema with the "bench" key first.
    size_t pos = r.output.rfind("{\"bench\": \"rmp-bugs\"");
    ASSERT_NE(pos, std::string::npos) << r.output;
    EXPECT_NE(r.output.find("\"pool\": {", pos), std::string::npos);
    EXPECT_NE(r.output.find("\"metrics\": {", pos), std::string::npos);
    EXPECT_NE(r.output.find("\"design\": \"tiny3\"", pos),
              std::string::npos);
}

TEST(Cli, VersionPrintsIdentifier)
{
    for (const char *form : {"version", "--version", "-V"}) {
        RunResult r = run(form);
        EXPECT_EQ(r.status, 0) << r.output;
        EXPECT_EQ(r.output.rfind("rmp ", 0), 0u) << r.output;
        EXPECT_GT(r.output.size(), 5u) << r.output;
    }
}

TEST(Cli, StoreLifecycleOnPrivateRoot)
{
    char tmpl[] = "/tmp/rmp-cli-store-XXXXXX";
    char *dir = mkdtemp(tmpl);
    ASSERT_NE(dir, nullptr);
    std::string root = std::string("--store-root ") + dir;

    // Unknown subcommand is a usage error.
    RunResult bad = run("store frob " + root);
    EXPECT_NE(bad.status, 0);
    EXPECT_TRUE(mentionsUsage(bad.output)) << bad.output;

    // Empty store: stats and verify succeed trivially.
    RunResult stats = run("store stats " + root);
    EXPECT_EQ(stats.status, 0) << stats.output;
    EXPECT_NE(stats.output.find("records"), std::string::npos);

    // Populate via an audited synth, then re-check every stored proof.
    RunResult synth =
        run("synth tiny3 --store --check-verdicts=proof " + root);
    EXPECT_EQ(synth.status, 0) << synth.output;
    RunResult verify = run("store verify " + root);
    EXPECT_EQ(verify.status, 0) << verify.output;
    EXPECT_NE(verify.output.find("store verify OK"), std::string::npos)
        << verify.output;
    RunResult gc = run("store gc " + root);
    EXPECT_EQ(gc.status, 0) << gc.output;

    std::string cleanup = "rm -rf " + std::string(dir);
    (void)!system(cleanup.c_str());
}

/**
 * SIGTERM mid-batch must flush every worker's pending proofs exactly
 * once: spawn the real daemon, pipeline a batch of audited jobs across
 * several (DUV, config) keys, kill the daemon after the first reply,
 * and require a clean `rmp store verify` on what it left behind.
 */
TEST(Cli, KillDaemonMidBatchThenStoreVerifiesClean)
{
    char tmpl[] = "/tmp/rmp-cli-kill-XXXXXX";
    char *dir = mkdtemp(tmpl);
    ASSERT_NE(dir, nullptr);
    std::string sock = std::string(dir) + "/rmp.sock";
    std::string store = std::string(dir) + "/store";

    pid_t daemon = fork();
    ASSERT_GE(daemon, 0);
    if (daemon == 0) {
        // Quiet the daemon's stderr chatter in the test log.
        FILE *sink = freopen("/dev/null", "w", stderr);
        (void)sink;
        execl(RMP_BIN, RMP_BIN, "serve", "--socket", sock.c_str(),
              "--store-root", store.c_str(), "--workers", "4", "--jobs",
              "2", static_cast<char *>(nullptr));
        _exit(127);
    }

    // Wait for the socket, then pipeline the batch on a raw connection.
    int fd = -1;
    for (int i = 0; i < 500 && fd < 0; i++) {
        fd = socket(AF_UNIX, SOCK_STREAM, 0);
        ASSERT_GE(fd, 0);
        sockaddr_un sa{};
        sa.sun_family = AF_UNIX;
        std::memcpy(sa.sun_path, sock.c_str(), sock.size() + 1);
        if (connect(fd, reinterpret_cast<sockaddr *>(&sa), sizeof sa) !=
            0) {
            close(fd);
            fd = -1;
            usleep(10'000);
        }
    }
    ASSERT_GE(fd, 0) << "daemon never came up";
    const char *batch =
        "{\"id\":1,\"op\":\"prove\",\"duv\":\"tiny3\"}\n"
        "{\"id\":2,\"op\":\"synth\",\"duv\":\"tiny3-zs\"}\n"
        "{\"id\":3,\"op\":\"synth\",\"duv\":\"tiny3\","
        "\"opts\":{\"budget\":19999}}\n"
        "{\"id\":4,\"op\":\"prove\",\"duv\":\"tiny3-zs\"}\n";
    ASSERT_EQ(write(fd, batch, strlen(batch)),
              static_cast<ssize_t>(strlen(batch)));
    // One reply = at least one job completed and wrote verdicts.
    std::string buf;
    while (buf.find('\n') == std::string::npos) {
        pollfd p{fd, POLLIN, 0};
        ASSERT_GT(poll(&p, 1, 300'000), 0) << "no reply before timeout";
        char tmp[4096];
        ssize_t n = read(fd, tmp, sizeof tmp);
        ASSERT_GT(n, 0);
        buf.append(tmp, static_cast<size_t>(n));
    }

    ASSERT_EQ(kill(daemon, SIGTERM), 0);
    int status = -1;
    ASSERT_EQ(waitpid(daemon, &status, 0), daemon);
    EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
        << "daemon did not drain cleanly: status " << status;
    close(fd);

    RunResult verify = run("store verify --store-root " + store);
    EXPECT_EQ(verify.status, 0) << verify.output;
    EXPECT_NE(verify.output.find("store verify OK"), std::string::npos)
        << verify.output;

    std::string cleanup = "rm -rf " + std::string(dir);
    (void)!system(cleanup.c_str());
}

TEST(Cli, ServeAndClientRequireSocket)
{
    RunResult serve = run("serve");
    EXPECT_NE(serve.status, 0);
    EXPECT_TRUE(mentionsUsage(serve.output)) << serve.output;

    RunResult client = run("client ping");
    EXPECT_NE(client.status, 0);
    EXPECT_TRUE(mentionsUsage(client.output)) << client.output;

    // Connecting to a dead socket is a runtime error, not a usage one.
    RunResult dead = run("client ping --socket /tmp/rmp-no-such.sock");
    EXPECT_NE(dead.status, 0);
    EXPECT_FALSE(mentionsUsage(dead.output)) << dead.output;
}
