/**
 * @file
 * Tests for the moc_cli tool's argument parsing and subcommands.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "cli_lib.h"
#include "core/moc_system.h"
#include "core/cold_start.h"
#include "nn/model.h"
#include "obs/http_endpoint.h"
#include "storage/file_store.h"
#include "util/crc32.h"
#include "util/json.h"

namespace moc {
namespace {

using cli::Args;
using cli::Main;
using cli::ParseArgs;

TEST(CliArgs, ParsesOptionsAndPositionals) {
    const Args args = ParseArgs({"pos1", "--dp", "16", "pos2", "--ep", "8"});
    EXPECT_EQ(args.positional, (std::vector<std::string>{"pos1", "pos2"}));
    EXPECT_EQ(args.Get("dp", ""), "16");
    EXPECT_EQ(args.GetInt("ep", 0), 8);
    EXPECT_EQ(args.GetInt("missing", 42), 42);
}

TEST(CliArgs, RejectsDanglingFlagAndJunkInts) {
    EXPECT_THROW(ParseArgs({"--dp"}), std::invalid_argument);
    const Args args = ParseArgs({"--dp", "abc"});
    EXPECT_THROW(args.GetInt("dp", 0), std::invalid_argument);
}

TEST(Cli, UsageOnNoCommand) {
    std::ostringstream out;
    std::ostringstream err;
    EXPECT_EQ(Main({}, out, err), 2);
    EXPECT_NE(err.str().find("usage"), std::string::npos);
}

TEST(Cli, UnknownCommand) {
    std::ostringstream out;
    std::ostringstream err;
    EXPECT_EQ(Main({"frobnicate"}, out, err), 2);
}

TEST(Cli, PlanPrintsPerRankSummary) {
    std::ostringstream out;
    std::ostringstream err;
    const int rc = Main({"plan", "--dp", "16", "--ep", "8", "--k", "1",
                         "--strategy", "full"},
                        out, err);
    EXPECT_EQ(rc, 0) << err.str();
    EXPECT_NE(out.str().find("bottleneck"), std::string::npos);
    EXPECT_NE(out.str().find("2 EP groups"), std::string::npos);
}

TEST(Cli, PlanValidatesDegrees) {
    std::ostringstream out;
    std::ostringstream err;
    EXPECT_EQ(Main({"plan", "--dp", "10", "--ep", "4"}, out, err), 2);
}

TEST(Cli, SimulatePrintsGantts) {
    std::ostringstream out;
    std::ostringstream err;
    const int rc = Main({"simulate", "--gpus", "16", "--gpu", "a800"}, out, err);
    EXPECT_EQ(rc, 0) << err.str();
    EXPECT_NE(out.str().find("Baseline"), std::string::npos);
    EXPECT_NE(out.str().find("MoC-Async"), std::string::npos);
    EXPECT_NE(out.str().find("Snapshot"), std::string::npos);
}

TEST(Cli, TraceCheckValidatesGoodAndBad) {
    namespace fs = std::filesystem;
    const fs::path dir = fs::temp_directory_path() / "moc_cli_trace";
    fs::create_directories(dir);
    const fs::path good = dir / "good.txt";
    const fs::path bad = dir / "bad.txt";
    {
        std::ofstream(good) << "# ok\n10 0\n20 1,2\n";
        std::ofstream(bad) << "oops\n";
    }
    std::ostringstream out1;
    std::ostringstream err;
    EXPECT_EQ(Main({"trace-check", good.string()}, out1, err), 0);
    EXPECT_NE(out1.str().find("2 fault event(s)"), std::string::npos);
    std::ostringstream out2;
    EXPECT_EQ(Main({"trace-check", bad.string()}, out2, err), 1);
    EXPECT_NE(out2.str().find("invalid trace"), std::string::npos);
    fs::remove_all(dir);
}

TEST(Cli, InspectReadsRealCheckpoint) {
    // Build a real checkpoint on disk, then inspect it.
    LmConfig cfg;
    cfg.vocab = 32;
    cfg.max_seq = 12;
    cfg.hidden = 16;
    cfg.num_heads = 2;
    cfg.head_dim = 8;
    cfg.num_layers = 2;
    cfg.ffn_mult = 2;
    cfg.num_experts = 4;
    MoeTransformerLm model(cfg);
    RankTopology topo({.dp = 4, .ep = 4, .tp = 1, .pp = 1}, 2);
    MocSystemConfig sys_cfg;
    sys_cfg.pec.k_snapshot = 4;
    sys_cfg.pec.k_persist = 4;
    sys_cfg.i_ckpt = 4;
    ExtraState extra{0, 0, model.gating_rng().GetState()};
    MocCheckpointSystem system(sys_cfg, model, topo, cfg.ToModelSpec(), extra);
    extra.iteration = 12;
    extra.adam_step = 12;
    system.Checkpoint(12, extra);

    namespace fs = std::filesystem;
    const fs::path dir = fs::temp_directory_path() / "moc_cli_inspect";
    fs::remove_all(dir);
    {
        FileStore disk(dir);
        CopyStore(system.storage(), disk);
    }
    std::ostringstream out;
    std::ostringstream err;
    EXPECT_EQ(Main({"inspect", dir.string()}, out, err), 0) << err.str();
    EXPECT_NE(out.str().find("restart point: iteration 12"), std::string::npos);
    EXPECT_NE(out.str().find("gen/12/moe/0/expert/0/w"), std::string::npos);
    fs::remove_all(dir);
}

TEST(Cli, InspectWithoutArgIsUsageError) {
    std::ostringstream out;
    std::ostringstream err;
    EXPECT_EQ(Main({"inspect"}, out, err), 2);
}

/** Builds a real two-generation checkpoint directory for fsck tests. */
std::filesystem::path
MakeCheckpointDir(const std::string& name) {
    LmConfig cfg;
    cfg.vocab = 32;
    cfg.max_seq = 12;
    cfg.hidden = 16;
    cfg.num_heads = 2;
    cfg.head_dim = 8;
    cfg.num_layers = 2;
    cfg.ffn_mult = 2;
    cfg.num_experts = 4;
    MoeTransformerLm model(cfg);
    RankTopology topo({.dp = 4, .ep = 4, .tp = 1, .pp = 1}, 2);
    MocSystemConfig sys_cfg;
    sys_cfg.pec.k_snapshot = 4;
    sys_cfg.pec.k_persist = 4;
    sys_cfg.i_ckpt = 4;
    ExtraState extra{0, 0, model.gating_rng().GetState()};
    MocCheckpointSystem system(sys_cfg, model, topo, cfg.ToModelSpec(), extra);
    for (const std::size_t iter : {8, 12}) {
        extra.iteration = iter;
        extra.adam_step = iter;
        system.Checkpoint(iter, extra);
    }
    const auto dir = std::filesystem::temp_directory_path() / name;
    std::filesystem::remove_all(dir);
    FileStore disk(dir);
    CopyStore(system.storage(), disk);
    return dir;
}

/** Flips one payload byte of @p file in place. */
void
CorruptFile(const std::filesystem::path& file) {
    ASSERT_TRUE(std::filesystem::exists(file)) << file;
    std::fstream f(file, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(16);
    char byte = 0;
    f.read(&byte, 1);
    f.seekp(16);
    byte = static_cast<char>(byte ^ 0x40);
    f.write(&byte, 1);
}

TEST(Cli, FsckWithoutArgIsUsageError) {
    std::ostringstream out;
    std::ostringstream err;
    EXPECT_EQ(Main({"fsck"}, out, err), 2);
}

TEST(Cli, FsckCleanStoreExitsZero) {
    const auto dir = MakeCheckpointDir("moc_cli_fsck_clean");
    const auto json = dir / "fsck.json";
    std::ostringstream out;
    std::ostringstream err;
    EXPECT_EQ(Main({"fsck", dir.string(), "--json", json.string()}, out, err),
              0)
        << err.str();
    EXPECT_NE(out.str().find("clean:"), std::string::npos) << out.str();
    std::ifstream in(json);
    std::stringstream doc;
    doc << in.rdbuf();
    EXPECT_NE(doc.str().find("\"moc-fsck/1\""), std::string::npos);
    EXPECT_NE(doc.str().find("\"exit_code\": 0"), std::string::npos);
    std::filesystem::remove_all(dir);
}

TEST(Cli, FsckReportsStaleTempFilesWithoutDamage) {
    const auto dir = MakeCheckpointDir("moc_cli_fsck_temps");
    const auto json = dir / "fsck.json";
    const auto read_json = [&json] {
        std::ifstream in(json);
        std::stringstream doc;
        doc << in.rdbuf();
        return doc.str();
    };
    std::ostringstream out;
    std::ostringstream err;
    ASSERT_EQ(Main({"fsck", dir.string(), "--json", json.string()}, out, err),
              0);
    EXPECT_NE(read_json().find("\"stale_temp_files\": 0"), std::string::npos);

    // Writers killed mid-Put leave their temp files beside the keys, one
    // per interrupted Put.
    const auto leave = [](const std::filesystem::path& file, std::size_t n) {
        std::ofstream(file, std::ios::binary) << std::string(n, 'x');
    };
    leave(dir / "meta" / "manifest.blob.tmp.4242.0", 100);
    leave(dir / "meta" / "manifest.blob.tmp.4243.7", 40);
    leave(dir / "gen" / "8" / "moe" / "0" / "expert" / "0" / "w.blob.tmp.4242.1",
          10);
    out.str("");
    EXPECT_EQ(Main({"fsck", dir.string(), "--json", json.string()}, out, err),
              0)
        << out.str();
    EXPECT_NE(out.str().find("clean:"), std::string::npos) << out.str();
    EXPECT_NE(out.str().find("3 stale temp file(s), 150 bytes"),
              std::string::npos)
        << out.str();
    const std::string doc = read_json();
    EXPECT_NE(doc.find("\"exit_code\": 0"), std::string::npos) << doc;
    EXPECT_NE(doc.find("\"damaged_files\": []"), std::string::npos) << doc;
    EXPECT_NE(doc.find("\"stale_temp_files\": 3"), std::string::npos) << doc;
    EXPECT_NE(doc.find("\"stale_temp_bytes\": 150"), std::string::npos) << doc;
    // fsck reports them and leaves them in place.
    EXPECT_TRUE(std::filesystem::exists(dir / "meta" / "manifest.blob.tmp.4242.0"));
    std::filesystem::remove_all(dir);
}

TEST(Cli, FsckDamagedTwinIsRepairable) {
    const auto dir = MakeCheckpointDir("moc_cli_fsck_repairable");
    CorruptFile(dir / "gen" / "8" / "moe" / "0" / "expert" / "0" / "w.blob");
    std::ostringstream out;
    std::ostringstream err;
    EXPECT_EQ(Main({"fsck", dir.string()}, out, err), 1) << out.str();
    EXPECT_NE(out.str().find("damaged file"), std::string::npos) << out.str();
    std::filesystem::remove_all(dir);
}

TEST(Cli, FsckNamesOldFormatBlob) {
    const auto dir = MakeCheckpointDir("moc_cli_fsck_old_format");
    const std::string key = "gen/12/moe/0/expert/0/w";
    {
        // Rewrite one file as the previous build wrote it: the blob, then
        // its IEEE CRC-32, no format tag.
        const Blob blob = *FileStore(dir).Get(key);
        const std::uint32_t crc = Crc32(blob.data(), blob.size());
        std::ofstream f(dir / (key + ".blob"),
                        std::ios::binary | std::ios::trunc);
        f.write(reinterpret_cast<const char*>(blob.data()),
                static_cast<std::streamsize>(blob.size()));
        f.write(reinterpret_cast<const char*>(&crc), sizeof(crc));
    }
    const auto json = dir / "fsck.json";
    std::ostringstream out;
    std::ostringstream err;
    EXPECT_EQ(Main({"fsck", dir.string(), "--json", json.string()}, out, err),
              1)
        << out.str();
    EXPECT_NE(out.str().find(FileStore::kFormatName), std::string::npos)
        << out.str();
    std::ifstream in(json);
    std::stringstream doc;
    doc << in.rdbuf();
    const std::string listed = "[\"" + key + "\"]";
    EXPECT_NE(doc.str().find("\"format_errors\": " + listed),
              std::string::npos)
        << doc.str();
    EXPECT_NE(doc.str().find("\"damaged_files\": " + listed),
              std::string::npos)
        << doc.str();
    std::filesystem::remove_all(dir);
}

TEST(Cli, FsckNonexistentDirExitsTwoWithoutCreatingIt) {
    const auto dir =
        std::filesystem::temp_directory_path() / "moc_cli_fsck_no_such_dir";
    std::filesystem::remove_all(dir);
    std::ostringstream out;
    std::ostringstream err;
    EXPECT_EQ(Main({"fsck", dir.string()}, out, err), 2) << out.str();
    EXPECT_NE(out.str().find("not a directory"), std::string::npos)
        << out.str();
    // The scrub must not have conjured the directory into existence.
    EXPECT_FALSE(std::filesystem::exists(dir));
}

TEST(Cli, ReportMissingMetricsFileExitsTwo) {
    std::ostringstream out;
    std::ostringstream err;
    EXPECT_EQ(Main({"report", "--metrics", "/no/such/metrics.json"}, out, err),
              2)
        << out.str();
}

TEST(Cli, ReportUnparsableMetricsExitsTwo) {
    const auto path =
        std::filesystem::temp_directory_path() / "moc_cli_bad_metrics.json";
    std::ofstream(path) << "this is not json {";
    std::ostringstream out;
    std::ostringstream err;
    EXPECT_EQ(Main({"report", "--metrics", path.string()}, out, err), 2)
        << out.str();
    std::filesystem::remove(path);
}

TEST(Cli, TraceMissingFileExitsTwo) {
    std::ostringstream out;
    std::ostringstream err;
    EXPECT_EQ(Main({"trace", "--trace", "/no/such/trace.json"}, out, err), 2)
        << out.str();
}

TEST(Cli, FsckAllExtraStateCopiesGoneIsFatal) {
    const auto dir = MakeCheckpointDir("moc_cli_fsck_fatal");
    // The one copy of the extra state in each retained generation.
    CorruptFile(dir / "gen" / "8" / "extra" / "state.blob");
    CorruptFile(dir / "gen" / "12" / "extra" / "state.blob");
    std::ostringstream out;
    std::ostringstream err;
    EXPECT_EQ(Main({"fsck", dir.string()}, out, err), 2) << out.str();
    EXPECT_NE(out.str().find("FATAL"), std::string::npos) << out.str();
    std::filesystem::remove_all(dir);
}

TEST(Cli, WatchJsonEscapesTheUrlWhenUnreachable) {
    // Port 1 on loopback refuses the connection; the quote in the path must
    // not break the moc-watch/1 document.
    const std::string url = "http://127.0.0.1:1/\"x";
    std::ostringstream out, err;
    EXPECT_EQ(Main({"watch", "--url", url, "--once", "1", "--watch-json", "1"},
                   out, err),
              2);
    const json::Value doc = json::Parse(out.str());
    EXPECT_EQ(doc.At("schema").AsString(), "moc-watch/1");
    EXPECT_EQ(doc.At("url").AsString(), url);
    EXPECT_FALSE(doc.At("reachable").AsBool());
}

TEST(Cli, WatchJsonEmbedsAnUnparsableBodyAsNull) {
    obs::HttpEndpoint endpoint;
    endpoint.SetRoute("/ranks", [](const std::string&, const std::string&) {
        obs::HttpResponse response;
        response.body = "not json\", {[";
        return response;
    });
    endpoint.Start();
    const std::string url =
        "http://127.0.0.1:" + std::to_string(endpoint.port());
    std::ostringstream out, err;
    Main({"watch", "--url", url, "--once", "1", "--watch-json", "1"}, out,
         err);
    endpoint.Stop();
    const json::Value doc = json::Parse(out.str());
    EXPECT_TRUE(doc.At("reachable").AsBool());
    EXPECT_TRUE(doc.At("ranks").is_null());
    EXPECT_EQ(doc.At("healthz").At("schema").AsString(), "moc-health/1");
    EXPECT_EQ(doc.At("series").At("schema").AsString(), "moc-series/1");
}

}  // namespace
}  // namespace moc
