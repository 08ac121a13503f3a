/**
 * @file
 * Tests for the live observability endpoint (obs/http_endpoint.h): the
 * `/metrics` body round-trips through ParsePrometheusText (hostile label
 * values included, no duplicate series), `/healthz` flips to 503 on a peer
 * death, `/ranks` and `/series` parse as their JSON schemas, malformed
 * requests are answered not obeyed, and `moc_cli watch` maps endpoint
 * state onto its 0/1/2 exit codes.
 */

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <map>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "cli_lib.h"
#include "obs/cluster_view.h"
#include "obs/http_endpoint.h"
#include "obs/metrics.h"
#include "obs/prometheus.h"
#include "obs/timeseries.h"
#include "util/json.h"

namespace moc {
namespace {

/**
 * Sends @p payload verbatim and returns everything the server answers —
 * for the request shapes HttpGet() itself refuses to produce (POST,
 * oversized request lines).
 */
std::string
RawExchange(std::uint16_t port, const std::string& payload) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) {
        return "";
    }
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
        ::close(fd);
        return "";
    }
    (void)::send(fd, payload.data(), payload.size(), 0);
    std::string reply;
    char buf[1024];
    for (;;) {
        const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
        if (n <= 0) {
            break;
        }
        reply.append(buf, static_cast<std::size_t>(n));
    }
    ::close(fd);
    return reply;
}

obs::TelemetrySample
Sample(std::int32_t rank, const std::string& phase) {
    obs::TelemetrySample s;
    s.rank = rank;
    s.generation = 1;
    s.iteration = 5;
    s.phase = phase;
    return s;
}

class ObsHttpTest : public ::testing::Test {
  protected:
    void SetUp() override {
        obs::ClusterAggregator::Instance().Reset();
        obs::TimeSeriesRing::Instance().Reset();
    }
    void TearDown() override {
        obs::ClusterAggregator::Instance().Reset();
        obs::TimeSeriesRing::Instance().Reset();
    }
};

TEST_F(ObsHttpTest, ParseHttpUrlAcceptsHostPortAndRejectsJunk) {
    const auto parts = obs::ParseHttpUrl("http://127.0.0.1:8080/metrics");
    ASSERT_TRUE(parts.has_value());
    EXPECT_EQ(parts->host, "127.0.0.1");
    EXPECT_EQ(parts->port, 8080);
    EXPECT_TRUE(obs::ParseHttpUrl("http://localhost:1").has_value());
    EXPECT_FALSE(obs::ParseHttpUrl("https://127.0.0.1:8080").has_value());
    EXPECT_FALSE(obs::ParseHttpUrl("127.0.0.1:8080").has_value());
    EXPECT_FALSE(obs::ParseHttpUrl("http://127.0.0.1").has_value());
    EXPECT_FALSE(obs::ParseHttpUrl("http://127.0.0.1:0").has_value());
    EXPECT_FALSE(obs::ParseHttpUrl("http://127.0.0.1:99999").has_value());
}

TEST_F(ObsHttpTest, MetricsScrapeRoundTripsThroughThePrometheusParser) {
    // Hostile wire strings: phases and death causes arrive from other
    // processes and must come back intact through label escaping.
    const std::string hostile_phase = "per\\sist \"quoted\"\nline";
    const std::string hostile_cause = "kill\\-9 \"now\"";
    auto& cluster = obs::ClusterAggregator::Instance();
    cluster.Observe(Sample(0, hostile_phase), 0);
    cluster.Observe(Sample(1, "persist"), 0);
    cluster.ObservePeerDeath(1, hostile_cause);
    obs::IterationPoint point;
    point.iteration = 5;
    point.iter_seconds = 0.25;
    point.live_ranks = 1;
    obs::TimeSeriesRing::Instance().Append(point);

    obs::HttpEndpoint endpoint;
    endpoint.Start();
    ASSERT_GT(endpoint.port(), 0);
    const auto scrape =
        obs::HttpGet("127.0.0.1", endpoint.port(), "/metrics");
    ASSERT_TRUE(scrape.has_value());
    EXPECT_EQ(scrape->status, 200);

    const auto samples = obs::ParsePrometheusText(scrape->body);
    ASSERT_FALSE(samples.empty());

    // Same (name, labels) pair twice would be an invalid exposition.
    std::set<std::pair<std::string, std::string>> seen;
    for (const auto& s : samples) {
        std::string key;
        for (const auto& [k, v] : s.labels) {
            key += k + "\x1f" + v + "\x1f";
        }
        EXPECT_TRUE(seen.emplace(s.name, key).second)
            << "duplicate series: " << s.name << "{" << key << "}";
    }

    std::map<std::string, const obs::PromSample*> by_rank_phase;
    std::set<std::string> names;
    for (const auto& s : samples) {
        names.insert(s.name);
        if (s.name == "moc_rank_phase") {
            by_rank_phase[s.labels.at("rank")] = &s;
        }
    }
    for (const char* required :
         {"moc_rank_alive", "moc_rank_phase", "moc_rank_straggler",
          "moc_rank_slack_seconds", "moc_rank_death_cause",
          "moc_series_total", "moc_series_last_iteration",
          "moc_series_last_iter_seconds", "moc_series_last_live_ranks"}) {
        EXPECT_TRUE(names.count(required)) << "missing " << required;
    }
    ASSERT_TRUE(by_rank_phase.count("0"));
    EXPECT_EQ(by_rank_phase.at("0")->labels.at("phase"), hostile_phase);

    bool found_cause = false;
    for (const auto& s : samples) {
        if (s.name == "moc_rank_death_cause" && s.labels.at("rank") == "1") {
            found_cause = true;
            EXPECT_EQ(s.labels.at("cause"), hostile_cause);
            EXPECT_DOUBLE_EQ(s.value, 1.0);
        }
        if (s.name == "moc_series_total") {
            EXPECT_DOUBLE_EQ(s.value, 1.0);
        }
        if (s.name == "moc_series_last_iteration") {
            EXPECT_DOUBLE_EQ(s.value, 5.0);
        }
    }
    EXPECT_TRUE(found_cause);
    endpoint.Stop();
}

TEST_F(ObsHttpTest, HealthzFlipsTo503WhenARankDies) {
    auto& cluster = obs::ClusterAggregator::Instance();
    cluster.Observe(Sample(0, "persist"), 0);
    cluster.Observe(Sample(1, "persist"), 0);

    obs::HttpEndpoint endpoint;
    endpoint.Start();
    auto healthz = obs::HttpGet("127.0.0.1", endpoint.port(), "/healthz");
    ASSERT_TRUE(healthz.has_value());
    EXPECT_EQ(healthz->status, 200);
    json::Value doc = json::Parse(healthz->body);
    EXPECT_EQ(doc.At("schema").AsString(), "moc-health/1");
    EXPECT_TRUE(doc.At("healthy").AsBool());
    EXPECT_EQ(doc.At("ranks").AsU64(), 2u);
    EXPECT_EQ(doc.At("alive").AsU64(), 2u);

    cluster.ObservePeerDeath(1, "heartbeat_timeout");
    healthz = obs::HttpGet("127.0.0.1", endpoint.port(), "/healthz");
    ASSERT_TRUE(healthz.has_value());
    EXPECT_EQ(healthz->status, 503);
    doc = json::Parse(healthz->body);
    EXPECT_FALSE(doc.At("healthy").AsBool());
    EXPECT_EQ(doc.At("alive").AsU64(), 1u);
    const json::Array& dead = doc.At("dead").AsArray();
    ASSERT_EQ(dead.size(), 1u);
    EXPECT_EQ(dead[0].At("rank").AsI64(), 1);
    EXPECT_EQ(dead[0].At("cause").AsString(), "heartbeat_timeout");
    endpoint.Stop();
}

TEST_F(ObsHttpTest, RanksAndSeriesRoutesServeTheirJsonSchemas) {
    obs::ClusterAggregator::Instance().Observe(Sample(3, "persist"), 0);
    for (std::uint64_t i = 1; i <= 4; ++i) {
        obs::IterationPoint point;
        point.iteration = i;
        obs::TimeSeriesRing::Instance().Append(point);
    }

    obs::HttpEndpoint endpoint;
    endpoint.Start();
    const auto ranks = obs::HttpGet("127.0.0.1", endpoint.port(), "/ranks");
    ASSERT_TRUE(ranks.has_value());
    EXPECT_EQ(ranks->status, 200);
    const json::Value rdoc = json::Parse(ranks->body);
    EXPECT_EQ(rdoc.At("schema").AsString(), "moc-ranks/1");
    const json::Array& rows = rdoc.At("ranks").AsArray();
    ASSERT_EQ(rows.size(), 1u);
    EXPECT_EQ(rows[0].At("rank").AsI64(), 3);
    EXPECT_TRUE(rows[0].At("alive").AsBool());
    EXPECT_EQ(rows[0].At("phase").AsString(), "persist");

    // ?last=N bounds the window; total keeps counting.
    const auto series =
        obs::HttpGet("127.0.0.1", endpoint.port(), "/series?last=2");
    ASSERT_TRUE(series.has_value());
    EXPECT_EQ(series->status, 200);
    const json::Value sdoc = json::Parse(series->body);
    EXPECT_EQ(sdoc.At("schema").AsString(), "moc-series/1");
    EXPECT_EQ(sdoc.At("total").AsU64(), 4u);
    const json::Array& points = sdoc.At("points").AsArray();
    ASSERT_EQ(points.size(), 2u);
    EXPECT_EQ(points[0].At("iteration").AsU64(), 3u);
    EXPECT_EQ(points[1].At("iteration").AsU64(), 4u);
    endpoint.Stop();
}

TEST_F(ObsHttpTest, AnswersMalformedRequestsInsteadOfObeyingThem) {
    obs::HttpOptions options;
    options.max_request_bytes = 128;
    obs::HttpEndpoint endpoint(options);
    endpoint.Start();

    auto& registry = obs::MetricsRegistry::Instance();
    const std::uint64_t errors_before =
        registry.GetCounter("obs.http.errors").value();

    const auto missing = obs::HttpGet("127.0.0.1", endpoint.port(), "/nope");
    ASSERT_TRUE(missing.has_value());
    EXPECT_EQ(missing->status, 404);

    const std::string post = RawExchange(
        endpoint.port(), "POST /metrics HTTP/1.1\r\nHost: x\r\n\r\n");
    EXPECT_NE(post.find("405"), std::string::npos) << post;

    // No head terminator: the byte cap must answer 400, not wait it out.
    const std::string oversized =
        RawExchange(endpoint.port(), "GET /" + std::string(512, 'a'));
    EXPECT_NE(oversized.find("400"), std::string::npos) << oversized;

    EXPECT_GE(registry.GetCounter("obs.http.errors").value(),
              errors_before + 3);
    endpoint.Stop();
}

TEST_F(ObsHttpTest, CustomRoutesAndRequestCounting) {
    obs::HttpEndpoint endpoint;
    endpoint.SetRoute("/custom", [](const std::string&, const std::string& q) {
        obs::HttpResponse r;
        r.body = "query=" + q;
        return r;
    });
    endpoint.Start();
    auto& requests =
        obs::MetricsRegistry::Instance().GetCounter("obs.http.requests");
    const std::uint64_t before = requests.value();
    // The counter is bumped before the reply is written, so a client that
    // has its reply in hand always sees its own request counted.
    for (std::uint64_t i = 1; i <= 20; ++i) {
        const std::string query = "k=" + std::to_string(i);
        const auto reply =
            obs::HttpGet("127.0.0.1", endpoint.port(), "/custom?" + query);
        ASSERT_TRUE(reply.has_value()) << "request " << i;
        EXPECT_EQ(reply->status, 200);
        EXPECT_EQ(reply->body, "query=" + query);
        EXPECT_EQ(requests.value(), before + i) << "request " << i;
    }
    endpoint.Stop();
    // Stop is idempotent, and a stopped endpoint is unreachable.
    endpoint.Stop();
    EXPECT_FALSE(
        obs::HttpGet("127.0.0.1", endpoint.port(), "/custom", 0.2).has_value());
}

TEST_F(ObsHttpTest, WatchExitCodesTrackEndpointState) {
    // Exit 2: nothing listening there at all.
    {
        obs::HttpEndpoint probe;
        probe.Start();
        const std::uint16_t dead_port = probe.port();
        probe.Stop();
        std::ostringstream out, err;
        const int code = cli::Main(
            {"watch", "--url",
             "http://127.0.0.1:" + std::to_string(dead_port), "--once"},
            out, err);
        EXPECT_EQ(code, 2) << out.str() << err.str();
    }

    obs::ClusterAggregator::Instance().Observe(Sample(0, "persist"), 0);
    obs::ClusterAggregator::Instance().Observe(Sample(1, "persist"), 0);
    obs::IterationPoint point;
    point.iteration = 9;
    obs::TimeSeriesRing::Instance().Append(point);
    obs::HttpEndpoint endpoint;
    endpoint.Start();
    const std::string url =
        "http://127.0.0.1:" + std::to_string(endpoint.port());

    // Exit 0: reachable and every rank alive; human table names the ranks.
    {
        std::ostringstream out, err;
        const int code = cli::Main({"watch", "--url", url, "--once"}, out, err);
        EXPECT_EQ(code, 0) << out.str() << err.str();
        EXPECT_NE(out.str().find("HEALTHY"), std::string::npos) << out.str();
    }

    // --watch-json emits one parseable moc-watch/1 document per poll.
    {
        std::ostringstream out, err;
        const int code = cli::Main(
            {"watch", "--url", url, "--once", "--watch-json"}, out, err);
        EXPECT_EQ(code, 0) << out.str() << err.str();
        const json::Value doc = json::Parse(out.str());
        EXPECT_EQ(doc.At("schema").AsString(), "moc-watch/1");
        EXPECT_TRUE(doc.At("reachable").AsBool());
        EXPECT_EQ(doc.At("healthz").At("schema").AsString(), "moc-health/1");
        EXPECT_EQ(doc.At("series").At("schema").AsString(), "moc-series/1");
    }

    // Exit 1: reachable but degraded.
    obs::ClusterAggregator::Instance().ObservePeerDeath(1, "eof");
    {
        std::ostringstream out, err;
        const int code = cli::Main({"watch", "--url", url, "--once"}, out, err);
        EXPECT_EQ(code, 1) << out.str() << err.str();
        EXPECT_NE(out.str().find("DEGRADED"), std::string::npos) << out.str();
    }
    endpoint.Stop();
}

}  // namespace
}  // namespace moc
