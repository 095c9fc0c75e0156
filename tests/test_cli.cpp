// End-to-end exit-code tests for the `madpipe` binary. MADPIPE_CLI_BIN is
// injected by the build (tests/CMakeLists.txt) and points at the real
// executable; each test drives it through a shell like a user would.
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>

#include "explain_check.hpp"
#include "madpipe/planner_stats.hpp"
#include "models/profile_io.hpp"
#include "models/zoo.hpp"
#include "util/json.hpp"

namespace madpipe {
namespace {

/// Run the CLI with `arguments`, capture combined stdout+stderr, and return
/// the process exit code (-1 if it did not exit normally).
int run_cli(const std::string& arguments, std::string* output) {
  const std::string command =
      std::string(MADPIPE_CLI_BIN) + " " + arguments + " 2>&1";
  FILE* pipe = ::popen(command.c_str(), "r");
  if (pipe == nullptr) return -1;
  output->clear();
  char buffer[4096];
  std::size_t n = 0;
  while ((n = std::fread(buffer, 1, sizeof(buffer), pipe)) > 0) {
    output->append(buffer, n);
  }
  const int status = ::pclose(pipe);
  if (status < 0 || !WIFEXITED(status)) return -1;
  return WEXITSTATUS(status);
}

std::string write_tiny_profile() {
  const Chain chain = make_uniform_chain(4, ms(2), ms(4), MB, 8 * MB, MB);
  // Per-process path: ctest runs each Cli test as its own process, and a
  // shared fixed name lets one test's cleanup delete the profile while
  // another's spawned CLI is still reading it.
  const std::string path = ::testing::TempDir() + "/cli_tiny." +
                           std::to_string(::getpid()) + ".profile";
  models::save_profile(chain, path);
  return path;
}

TEST(Cli, VersionExitsZeroAndPrintsVersion) {
  std::string output;
  EXPECT_EQ(run_cli("--version", &output), 0);
  EXPECT_NE(output.find("madpipe 0.3.0"), std::string::npos) << output;
}

TEST(Cli, NoArgumentsPrintsUsageAndExitsTwo) {
  std::string output;
  EXPECT_EQ(run_cli("", &output), 2);
  EXPECT_NE(output.find("usage: madpipe"), std::string::npos) << output;
  EXPECT_NE(output.find("serve"), std::string::npos) << output;  // documented
}

TEST(Cli, UnknownCommandExitsTwo) {
  for (const std::string command : {"frobnicate", "hybrid", "fleet"}) {
    std::string output;
    EXPECT_EQ(run_cli(command, &output), 2) << command;
    EXPECT_NE(output.find("unknown command " + command), std::string::npos)
        << output;
  }
}

TEST(Cli, UnknownFlagExitsTwo) {
  std::string output;
  EXPECT_EQ(run_cli("plan whatever --bogus", &output), 2);
  EXPECT_NE(output.find("unknown option --bogus"), std::string::npos)
      << output;
  EXPECT_EQ(run_cli("serve --policy fifo", &output), 2);
  EXPECT_NE(output.find("unknown option --policy"), std::string::npos)
      << output;
}

TEST(Cli, MissingFlagValueExitsTwo) {
  std::string output;
  EXPECT_EQ(run_cli("plan whatever --gpus", &output), 2);
  EXPECT_NE(output.find("missing value for --gpus"), std::string::npos)
      << output;
}

TEST(Cli, MissingProfileFileExitsOne) {
  std::string output;
  EXPECT_EQ(run_cli("plan /nonexistent/definitely/missing.profile", &output),
            1);
  EXPECT_NE(output.find("error:"), std::string::npos) << output;
}

TEST(Cli, PlanOnTinyProfileSucceeds) {
  const std::string profile = write_tiny_profile();
  const std::string plan = "plan " + profile + " --gpus 2 --memory-gb 2";
  for (const std::string planner : {"madpipe", "madpipe-contig", "pipedream"}) {
    std::string output;
    EXPECT_EQ(run_cli(plan + " --planner " + planner, &output), 0) << planner;
    EXPECT_NE(output.find("period"), std::string::npos) << output;
    EXPECT_NE(output.find("verifier: valid"), std::string::npos) << output;
  }
  std::string output;
  EXPECT_EQ(run_cli(plan + " --planner gpipe", &output), 2);
  EXPECT_NE(output.find("unknown planner gpipe"), std::string::npos)
      << output;
  std::remove(profile.c_str());
}

// `madpipe planner` prints one row per PlannerStats table row, then the two
// derived rates.
TEST(Cli, PlannerPrintsEveryCounterRow) {
  const std::string profile = write_tiny_profile();
  std::string output;
  EXPECT_EQ(run_cli("planner " + profile + " --gpus 2 --memory-gb 2", &output),
            0);
#define EXPECT_PLANNER_ROW(kind, field, metric, help) \
  EXPECT_NE(output.find("\n  " #field " "), std::string::npos) << #field;
  MADPIPE_PLANNER_STATS(EXPECT_PLANNER_ROW)
#undef EXPECT_PLANNER_ROW
  EXPECT_NE(output.find("\n  states/s "), std::string::npos) << output;
  EXPECT_NE(output.find("\n  transition hit "), std::string::npos) << output;
  std::remove(profile.c_str());
}

// End-to-end `madpipe explain`: human report on stdout, strict explain-v1
// JSON and an unrolled Chrome-trace timeline on disk. Deliberately mixes
// the `--opt=value` and `--opt value` spellings — both go through the
// shared util/cli.hpp parser.
TEST(Cli, ExplainWritesReportJsonAndTimeline) {
  const std::string profile = write_tiny_profile();
  const std::string json_path = ::testing::TempDir() + "/cli_explain.json";
  const std::string timeline_path =
      ::testing::TempDir() + "/cli_timeline.json";
  std::string output;
  ASSERT_EQ(run_cli("explain " + profile + " --gpus=2 --memory-gb 2" +
                        " --periods 3 --json=" + json_path +
                        " --timeline-out " + timeline_path,
                    &output),
            0)
      << output;
  EXPECT_NE(output.find("critical resource"), std::string::npos) << output;
  EXPECT_NE(output.find("headroom"), std::string::npos) << output;

  std::ifstream json_in(json_path);
  ASSERT_TRUE(json_in.good());
  const std::string json_text((std::istreambuf_iterator<char>(json_in)),
                              std::istreambuf_iterator<char>());
  const json::ParseResult report = json::parse(json_text);
  ASSERT_TRUE(report.ok()) << report.error;
  EXPECT_EQ(report.value.string_or("schema", ""), "madpipe-explain-v1");
  const json::Value* memory = report.value.find("memory");
  ASSERT_NE(memory, nullptr);
  EXPECT_EQ(memory->items().size(), 2u);
  test::expect_valid_explain_v1(report.value);

  std::ifstream timeline_in(timeline_path);
  ASSERT_TRUE(timeline_in.good());
  const std::string timeline_text(
      (std::istreambuf_iterator<char>(timeline_in)),
      std::istreambuf_iterator<char>());
  const json::ParseResult timeline = json::parse(timeline_text);
  ASSERT_TRUE(timeline.ok()) << timeline.error;
  const json::Value* events = timeline.value.find("traceEvents");
  ASSERT_NE(events, nullptr);
  int processes = 0, slices = 0;
  for (const json::Value& event : events->items()) {
    if (event.string_or("ph", "") == "M") ++processes;
    if (event.string_or("ph", "") == "X") ++slices;
  }
  EXPECT_GE(processes, 3) << "2 GPUs + at least one link";  // one M each
  EXPECT_GT(slices, 0);
  std::remove(timeline_path.c_str());
  std::remove(json_path.c_str());
  std::remove(profile.c_str());
}

// `madpipe stats FILE` renders quantile estimates from the dumped buckets;
// --buckets adds the raw cumulative bucket lines.
TEST(Cli, StatsRendersQuantilesAndOptionalBuckets) {
  const std::string profile = write_tiny_profile();
  const std::string metrics_path =
      ::testing::TempDir() + "/cli_metrics.json";
  std::string output;
  ASSERT_EQ(run_cli("explain " + profile + " --gpus 2 --memory-gb 2" +
                        " --metrics-out=" + metrics_path,
                    &output),
            0)
      << output;

  ASSERT_EQ(run_cli("stats " + metrics_path, &output), 0) << output;
  EXPECT_NE(output.find("madpipe_planner_phase1_seconds_p50"),
            std::string::npos)
      << output;
  EXPECT_NE(output.find("_p95"), std::string::npos) << output;
  EXPECT_NE(output.find("_p99"), std::string::npos) << output;
  EXPECT_EQ(output.find("_bucket"), std::string::npos) << output;

  ASSERT_EQ(run_cli("stats " + metrics_path + " --buckets", &output), 0)
      << output;
  EXPECT_NE(output.find("_p50"), std::string::npos) << output;
  EXPECT_NE(output.find("_bucket"), std::string::npos) << output;
  std::remove(metrics_path.c_str());
  std::remove(profile.c_str());
}

TEST(Cli, ServeBatchRoundTrip) {
  const std::string profile = write_tiny_profile();
  const std::string requests = ::testing::TempDir() + "/cli_requests.json";
  {
    std::ofstream out(requests);
    out << R"({"requests":[
      {"id":"a","profile_file":")" << profile << R"(","gpus":2,"memory_gb":2},
      {"id":"b","profile_file":")" << profile << R"(","gpus":2,"memory_gb":2},
      {"id":"bad","gpus":2,"memory_gb":2}
    ]})";
  }
  std::string output;
  ASSERT_EQ(run_cli("serve --requests " + requests + " --workers 1", &output),
            0)
      << output;
  const json::ParseResult parsed = json::parse(output);
  ASSERT_TRUE(parsed.ok()) << parsed.error << "\n" << output;
  EXPECT_EQ(parsed.value.string_or("schema", ""), "madpipe-serve-v1");
  const json::Value* responses = parsed.value.find("responses");
  ASSERT_NE(responses, nullptr);
  ASSERT_EQ(responses->items().size(), 3u);
  EXPECT_EQ(responses->items()[0].string_or("status", ""), "ok");
  EXPECT_EQ(responses->items()[1].string_or("status", ""), "ok");
  EXPECT_EQ(responses->items()[2].string_or("status", ""), "error");
  EXPECT_EQ(responses->items()[2].string_or("id", ""), "bad");
  std::remove(requests.c_str());
  std::remove(profile.c_str());
}

TEST(Cli, ServeStdinLoopAnswersLineByLine) {
  const std::string profile = write_tiny_profile();
  const std::string request = "{\"id\":\"s\",\"profile_file\":\"" + profile +
                              "\",\"gpus\":2,\"memory_gb\":2}";
  std::string output;
  const std::string command = "printf '%s\\n' '" + request + "' | " +
                              std::string(MADPIPE_CLI_BIN) + " serve --stdin";
  FILE* pipe = ::popen(command.c_str(), "r");
  ASSERT_NE(pipe, nullptr);
  char buffer[4096];
  std::size_t n = 0;
  while ((n = std::fread(buffer, 1, sizeof(buffer), pipe)) > 0) {
    output.append(buffer, n);
  }
  const int status = ::pclose(pipe);
  ASSERT_TRUE(status >= 0 && WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0) << output;
  const json::ParseResult parsed = json::parse(output);
  ASSERT_TRUE(parsed.ok()) << parsed.error << "\n" << output;
  EXPECT_EQ(parsed.value.string_or("id", ""), "s");
  EXPECT_EQ(parsed.value.string_or("status", ""), "ok");
  std::remove(profile.c_str());
}

// The observability acceptance path: a cold request served through
// `madpipe serve --stdin --trace-out=...` must produce a valid Chrome
// trace containing spans from all three categories — serve (request
// lifecycle), planner (bisection + DP probes) and solver (phase-2
// scheduler probes). Uses the committed examples/serve_request.json.
// Excluded from the sanitizer CI jobs (CliTrace.*) — it plans the real
// ResNet-50 workload, which is seconds in Release but minutes under ASan.
TEST(CliTrace, ServeStdinTraceOutHasAllCategories) {
  const std::string requests =
      std::string(MADPIPE_SOURCE_DIR) + "/examples/serve_request.json";
  const std::string trace_path = ::testing::TempDir() + "/cli_trace.json";
  const std::string command = std::string(MADPIPE_CLI_BIN) +
                              " serve --stdin --trace-out=" + trace_path +
                              " < " + requests + " 2>/dev/null";
  std::string output;
  FILE* pipe = ::popen(command.c_str(), "r");
  ASSERT_NE(pipe, nullptr);
  char buffer[4096];
  std::size_t n = 0;
  while ((n = std::fread(buffer, 1, sizeof(buffer), pipe)) > 0) {
    output.append(buffer, n);
  }
  const int status = ::pclose(pipe);
  ASSERT_TRUE(status >= 0 && WIFEXITED(status));
  ASSERT_EQ(WEXITSTATUS(status), 0) << output;
  // Both responses (cold + hit) answered ok, with the requested phase
  // timings present.
  EXPECT_NE(output.find("\"status\":\"ok\""), std::string::npos) << output;
  EXPECT_NE(output.find("\"phases\""), std::string::npos) << output;

  std::ifstream in(trace_path);
  ASSERT_TRUE(in.good()) << trace_path;
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  const json::ParseResult parsed = json::parse(text);
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  const json::Value* events = parsed.value.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  bool saw_serve = false, saw_planner = false, saw_solver = false;
  for (const json::Value& event : events->items()) {
    if (event.string_or("ph", "") != "X") continue;
    const std::string cat = event.string_or("cat", "");
    saw_serve = saw_serve || cat == "serve";
    saw_planner = saw_planner || cat == "planner";
    saw_solver = saw_solver || cat == "solver";
  }
  EXPECT_TRUE(saw_serve) << text.substr(0, 2000);
  EXPECT_TRUE(saw_planner) << text.substr(0, 2000);
  EXPECT_TRUE(saw_solver) << text.substr(0, 2000);
  std::remove(trace_path.c_str());
}

TEST(Cli, ProfileFormatJsonMatchesTextBitForBit) {
  // `profile --format json` and `--format text` must serialize the same
  // chain, and both must load back bit-identically — the contract that lets
  // either file feed plan/explain/serve interchangeably.
  const std::string base = ::testing::TempDir() + "/cli_fmt." +
                           std::to_string(::getpid());
  std::string output;
  ASSERT_EQ(run_cli("profile gpt2-xl --length 8 --batch 1 --format json" +
                        std::string(" --output ") + base + ".json",
                    &output),
            0)
      << output;
  ASSERT_EQ(run_cli("profile gpt2-xl --length 8 --batch 1 --format text" +
                        std::string(" --output ") + base + ".txt",
                    &output),
            0)
      << output;
  const models::ProfileParseResult from_json =
      models::try_load_profile(base + ".json");
  const models::ProfileParseResult from_text =
      models::try_load_profile(base + ".txt");
  ASSERT_TRUE(from_json.ok()) << from_json.error;
  ASSERT_TRUE(from_text.ok()) << from_text.error;
  EXPECT_EQ(*from_json.chain, *from_text.chain);
  EXPECT_EQ(from_json.chain->length(), 8);

  // The JSON file plans just like the text one.
  EXPECT_EQ(run_cli("plan " + base + ".json --gpus 2 --memory-gb 8", &output),
            0)
      << output;
  std::remove((base + ".json").c_str());
  std::remove((base + ".txt").c_str());
}

TEST(Cli, ProfileRejectsUnknownFormat) {
  std::string output;
  EXPECT_EQ(run_cli("profile resnet50 --format yaml", &output), 2);
  EXPECT_NE(output.find("--format must be text or json"), std::string::npos)
      << output;
}

TEST(Cli, ValidateAcceptsEveryCommittedExample) {
  // The committed examples/ documents are the quickstart surface; all of
  // them must stay parseable (tools/check_docs.py --validate runs this same
  // command in CI).
  const std::string dir = std::string(MADPIPE_SOURCE_DIR) + "/examples/";
  std::string output;
  ASSERT_EQ(run_cli("validate " + dir + "explain_resnet50_p2.json " + dir +
                        "profile_transformer_small.json " + dir +
                        "profile_transformer_small.profile " + dir +
                        "serve_llm_request.json " + dir +
                        "serve_request.json " + dir +
                        "timeline_resnet50_p2.json",
                    &output),
            0)
      << output;
  EXPECT_NE(output.find("madpipe-profile-v2, 12 layers"), std::string::npos)
      << output;
  EXPECT_NE(output.find("madpipe-profile-v1, 12 layers"), std::string::npos)
      << output;
  EXPECT_NE(output.find("serve request lines"), std::string::npos) << output;
}

TEST(Cli, ValidateFailsOnBrokenDocumentsAndMissingFiles) {
  const std::string bad = ::testing::TempDir() + "/cli_bad." +
                          std::to_string(::getpid()) + ".json";
  std::ofstream(bad) << "{\"schema\":\"madpipe-profile-v2\",\"layers\":[]}";
  std::string output;
  EXPECT_EQ(run_cli("validate " + bad, &output), 1);
  EXPECT_NE(output.find("error:"), std::string::npos) << output;
  EXPECT_NE(output.find("input_bytes"), std::string::npos) << output;
  EXPECT_EQ(run_cli("validate /nonexistent/missing.json", &output), 1);
  EXPECT_NE(output.find("cannot read file"), std::string::npos) << output;
  // A good file does not mask a bad one in the same invocation.
  const std::string good = write_tiny_profile();
  EXPECT_EQ(run_cli("validate " + good + " " + bad, &output), 1);
  EXPECT_NE(output.find("ok (madpipe-profile-v1"), std::string::npos)
      << output;
  std::remove(bad.c_str());
  std::remove(good.c_str());
}

}  // namespace
}  // namespace madpipe
