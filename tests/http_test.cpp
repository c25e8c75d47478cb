// Tests for the embedded ops HTTP stack: the incremental request parser
// (obs/http.h) — malformed inputs, limits, pipelining, keep-alive — and
// the socket server (obs/serve.h) end to end: a real bind on an
// ephemeral loopback port, raw-socket scrapes of every endpoint, and a
// concurrent scrape-while-recording run (exercised under TSan via the
// check.sh sanitizer stage, which includes this binary's label).
#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "obs/http.h"
#include "obs/manifest.h"
#include "obs/obs.h"
#include "obs/serve.h"
#include "obs/window.h"

namespace dcl::obs {
namespace {

using http::ParseResult;
using http::RequestParser;

// ---- request parser ----------------------------------------------------

TEST(HttpParser, ParsesASimpleGet) {
  RequestParser p;
  const auto r = p.feed(
      "GET /metrics HTTP/1.1\r\nHost: localhost\r\nAccept: */*\r\n\r\n");
  ASSERT_EQ(r, ParseResult::kComplete);
  const http::Request& req = p.request();
  EXPECT_EQ(req.method, "GET");
  EXPECT_EQ(req.target, "/metrics");
  EXPECT_EQ(req.version, "HTTP/1.1");
  EXPECT_TRUE(req.keep_alive);  // 1.1 default
  EXPECT_EQ(req.header("host"), "localhost");
  EXPECT_EQ(req.header("accept"), "*/*");
  EXPECT_EQ(req.header("absent"), "");
  EXPECT_EQ(p.buffered(), 0u);
}

TEST(HttpParser, FeedsByteByByte) {
  const std::string raw = "GET / HTTP/1.1\r\nHost: x\r\n\r\n";
  RequestParser p;
  ParseResult r = ParseResult::kNeedMore;
  for (std::size_t i = 0; i < raw.size(); ++i) {
    r = p.feed(raw.substr(i, 1));
    if (i + 1 < raw.size()) {
      ASSERT_EQ(r, ParseResult::kNeedMore) << "at byte " << i;
    }
  }
  ASSERT_EQ(r, ParseResult::kComplete);
  EXPECT_EQ(p.request().target, "/");
}

TEST(HttpParser, ToleratesBareLfLineEndings) {
  RequestParser p;
  ASSERT_EQ(p.feed("GET /healthz HTTP/1.0\nConnection: keep-alive\n\n"),
            ParseResult::kComplete);
  EXPECT_EQ(p.request().target, "/healthz");
  EXPECT_TRUE(p.request().keep_alive);  // 1.0 + explicit keep-alive
}

TEST(HttpParser, PathStripsTheQueryString) {
  RequestParser p;
  ASSERT_EQ(p.feed("GET /metrics?format=prom&x=1 HTTP/1.1\r\n\r\n"),
            ParseResult::kComplete);
  EXPECT_EQ(p.request().target, "/metrics?format=prom&x=1");
  EXPECT_EQ(p.request().path(), "/metrics");
}

TEST(HttpParser, HeaderNamesAreLowercasedAndOwsTrimmed) {
  RequestParser p;
  ASSERT_EQ(p.feed("GET / HTTP/1.1\r\nX-Custom-Header:   padded value \r\n"
                   "UPPER: v\r\n\r\n"),
            ParseResult::kComplete);
  EXPECT_EQ(p.request().header("x-custom-header"), "padded value");
  EXPECT_EQ(p.request().header("upper"), "v");
}

TEST(HttpParser, PipelinedRequestsStayBufferedAcrossReset) {
  RequestParser p;
  ASSERT_EQ(p.feed("GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\n"),
            ParseResult::kComplete);
  EXPECT_EQ(p.request().target, "/a");
  EXPECT_GT(p.buffered(), 0u);
  ASSERT_EQ(p.reset(), ParseResult::kComplete);  // parses the leftover
  EXPECT_EQ(p.request().target, "/b");
  EXPECT_EQ(p.reset(), ParseResult::kNeedMore);  // buffer drained
}

TEST(HttpParser, KeepAliveSemanticsFollowVersionAndHeader) {
  {
    RequestParser p;
    ASSERT_EQ(p.feed("GET / HTTP/1.0\r\n\r\n"), ParseResult::kComplete);
    EXPECT_FALSE(p.request().keep_alive);  // 1.0 default close
  }
  {
    RequestParser p;
    ASSERT_EQ(p.feed("GET / HTTP/1.1\r\nConnection: close\r\n\r\n"),
              ParseResult::kComplete);
    EXPECT_FALSE(p.request().keep_alive);
  }
  {
    RequestParser p;
    ASSERT_EQ(p.feed("GET / HTTP/1.1\r\nConnection: Keep-Alive\r\n\r\n"),
              ParseResult::kComplete);
    EXPECT_TRUE(p.request().keep_alive);  // case-insensitive
  }
}

TEST(HttpParser, RejectsMalformedRequestLines) {
  const char* bad[] = {
      "\r\n\r\n",                          // empty request line
      "GET\r\n\r\n",                       // no target
      "GET /\r\n\r\n",                     // no version
      "GET / HTTP/2.0\r\n\r\n",            // unsupported version
      "GET / http/1.1\r\n\r\n",            // version is case-sensitive
      "G\x01T / HTTP/1.1\r\n\r\n",         // control byte in method
      "GET /pa th HTTP/1.1\r\n\r\n",       // extra token
      "GET \x7f HTTP/1.1\r\n\r\n",         // non-visible target byte
  };
  for (const char* raw : bad) {
    RequestParser p;
    EXPECT_EQ(p.feed(raw), ParseResult::kBadRequest) << raw;
  }
}

TEST(HttpParser, RejectsMalformedHeaders) {
  {
    RequestParser p;  // missing colon
    EXPECT_EQ(p.feed("GET / HTTP/1.1\r\nBadHeader\r\n\r\n"),
              ParseResult::kBadRequest);
  }
  {
    RequestParser p;  // obs-fold continuation line
    EXPECT_EQ(p.feed("GET / HTTP/1.1\r\nA: b\r\n folded\r\n\r\n"),
              ParseResult::kBadRequest);
  }
  {
    RequestParser p;  // empty header name
    EXPECT_EQ(p.feed("GET / HTTP/1.1\r\n: v\r\n\r\n"),
              ParseResult::kBadRequest);
  }
}

TEST(HttpParser, RejectsBodies) {
  {
    RequestParser p;
    EXPECT_EQ(p.feed("GET / HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello"),
              ParseResult::kPayloadTooLarge);
  }
  {
    RequestParser p;
    EXPECT_EQ(p.feed("GET / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"),
              ParseResult::kPayloadTooLarge);
  }
  {
    RequestParser p;  // Content-Length: 0 is fine (no body follows)
    EXPECT_EQ(p.feed("GET / HTTP/1.1\r\nContent-Length: 0\r\n\r\n"),
              ParseResult::kComplete);
  }
  {
    RequestParser p;  // non-numeric length is a syntax error, not a body
    EXPECT_EQ(p.feed("GET / HTTP/1.1\r\nContent-Length: abc\r\n\r\n"),
              ParseResult::kBadRequest);
  }
}

TEST(HttpParser, OversizedRequestLineIs414EvenWithoutNewline) {
  RequestParser p;
  // A scanner dribbling an endless request line must be cut off before it
  // buffers unbounded memory — no '\n' ever arrives.
  const std::string chunk(1024, 'a');
  ParseResult r = p.feed("GET /");
  for (int i = 0; i < 8 && r == ParseResult::kNeedMore; ++i)
    r = p.feed(chunk);
  EXPECT_EQ(r, ParseResult::kUriTooLong);
}

TEST(HttpParser, OversizedHeaderBlockIs431) {
  RequestParser p;
  ASSERT_EQ(p.feed("GET / HTTP/1.1\r\n"), ParseResult::kNeedMore);
  const std::string big_value(4000, 'v');
  ParseResult r = ParseResult::kNeedMore;
  for (int i = 0; i < 8 && r == ParseResult::kNeedMore; ++i)
    r = p.feed("X-H" + std::to_string(i) + ": " + big_value + "\r\n");
  EXPECT_EQ(r, ParseResult::kHeadersTooLarge);
}

TEST(HttpParser, TooManyHeadersIs431) {
  std::string raw = "GET / HTTP/1.1\r\n";
  for (std::size_t i = 0; i <= RequestParser::kMaxHeaders; ++i) {
    raw += 'H';
    raw += std::to_string(i);
    raw += ": v\r\n";
  }
  raw += "\r\n";
  RequestParser p;
  EXPECT_EQ(p.feed(raw), ParseResult::kHeadersTooLarge);
}

TEST(HttpParser, NonGetMethodsAre501) {
  for (const char* m : {"POST", "PUT", "DELETE", "OPTIONS"}) {
    RequestParser p;
    EXPECT_EQ(p.feed(std::string(m) + " / HTTP/1.1\r\n\r\n"),
              ParseResult::kNotImplemented)
        << m;
  }
  RequestParser p;  // HEAD is allowed
  EXPECT_EQ(p.feed("HEAD /metrics HTTP/1.1\r\n\r\n"), ParseResult::kComplete);
}

TEST(HttpParser, StatusOfMapsResults) {
  EXPECT_EQ(http::status_of(ParseResult::kNeedMore), 0);
  EXPECT_EQ(http::status_of(ParseResult::kComplete), 0);
  EXPECT_EQ(http::status_of(ParseResult::kBadRequest), 400);
  EXPECT_EQ(http::status_of(ParseResult::kPayloadTooLarge), 413);
  EXPECT_EQ(http::status_of(ParseResult::kUriTooLong), 414);
  EXPECT_EQ(http::status_of(ParseResult::kHeadersTooLarge), 431);
  EXPECT_EQ(http::status_of(ParseResult::kNotImplemented), 501);
}

TEST(HttpParser, AbruptCloseMidHeadStaysIncomplete) {
  RequestParser p;
  EXPECT_EQ(p.feed("GET /metrics HTTP/1.1\r\nHost: loc"),
            ParseResult::kNeedMore);
  // The caller sees EOF and drops the connection; the parser never
  // produced a request and holds only the bounded partial head.
  EXPECT_GT(p.buffered(), 0u);
  EXPECT_LE(p.buffered(),
            RequestParser::kMaxRequestLine + RequestParser::kMaxHeaderBytes);
}

TEST(HttpResponse, FormatCarriesLengthTypeAndConnection) {
  const std::string resp =
      http::format_response(200, "text/plain", "hello", /*keep_alive=*/true);
  EXPECT_EQ(resp.rfind("HTTP/1.1 200 OK\r\n", 0), 0u);
  EXPECT_NE(resp.find("Content-Type: text/plain\r\n"), std::string::npos);
  EXPECT_NE(resp.find("Content-Length: 5\r\n"), std::string::npos);
  EXPECT_NE(resp.find("Connection: keep-alive\r\n"), std::string::npos);
  EXPECT_EQ(resp.substr(resp.size() - 9), "\r\n\r\nhello");

  const std::string closed =
      http::format_response(404, "text/plain", "gone", /*keep_alive=*/false);
  EXPECT_EQ(closed.rfind("HTTP/1.1 404 Not Found\r\n", 0), 0u);
  EXPECT_NE(closed.find("Connection: close\r\n"), std::string::npos);

  // HEAD: full headers (including the true length), no body bytes.
  const std::string head = http::format_response(200, "text/plain", "hello",
                                                 false, /*head_only=*/true);
  EXPECT_NE(head.find("Content-Length: 5\r\n"), std::string::npos);
  EXPECT_EQ(head.substr(head.size() - 4), "\r\n\r\n");
}

// ---- address parsing ---------------------------------------------------

TEST(ServeAddress, ParsesHostPortForms) {
  {
    serve::Options o;
    ASSERT_TRUE(serve::parse_address("0.0.0.0:9100", o));
    EXPECT_EQ(o.host, "0.0.0.0");
    EXPECT_EQ(o.port, 9100);
  }
  {
    serve::Options o;  // ":port" keeps the default loopback host
    ASSERT_TRUE(serve::parse_address(":8080", o));
    EXPECT_EQ(o.host, "127.0.0.1");
    EXPECT_EQ(o.port, 8080);
  }
  {
    serve::Options o;
    ASSERT_TRUE(serve::parse_address("9100", o));
    EXPECT_EQ(o.port, 9100);
  }
  {
    serve::Options o;
    ASSERT_TRUE(serve::parse_address("127.0.0.1:0", o));
    EXPECT_EQ(o.port, 0);
  }
}

TEST(ServeAddress, RejectsMalformedAddresses) {
  serve::Options o;
  EXPECT_FALSE(serve::parse_address("", o));
  EXPECT_FALSE(serve::parse_address("host:", o));
  EXPECT_FALSE(serve::parse_address("host:abc", o));
  EXPECT_FALSE(serve::parse_address("host:70000", o));
  EXPECT_FALSE(serve::parse_address("host:-1", o));
}

// ---- server end to end -------------------------------------------------

// Minimal raw-socket HTTP client: one request, read to EOF.
std::string http_get(std::uint16_t port, const std::string& target,
                     const std::string& extra_headers = "") {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return "";
  }
  const std::string req = "GET " + target + " HTTP/1.1\r\nHost: t\r\n" +
                          extra_headers + "Connection: close\r\n\r\n";
  std::size_t off = 0;
  while (off < req.size()) {
    const ssize_t n = ::send(fd, req.data() + off, req.size() - off, 0);
    if (n <= 0) break;
    off += static_cast<std::size_t>(n);
  }
  std::string resp;
  char buf[4096];
  ssize_t n;
  while ((n = ::read(fd, buf, sizeof buf)) > 0) resp.append(buf, n);
  ::close(fd);
  return resp;
}

int status_of_response(const std::string& resp) {
  if (resp.rfind("HTTP/1.1 ", 0) != 0) return -1;
  return std::atoi(resp.c_str() + 9);
}

std::string body_of_response(const std::string& resp) {
  const std::size_t pos = resp.find("\r\n\r\n");
  return pos == std::string::npos ? "" : resp.substr(pos + 4);
}

class ServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    reg_.windowed_counter("pipeline.runs").add(3);
    reg_.windowed_histogram("span.fit").record(0.012);
    serve::Options opts;
    opts.registry = &reg_;
    opts.manifest = manifest("http_test");
    opts.manifest.config_digest = "deadbeef";
    server_ = serve::Server::start(std::move(opts));
    ASSERT_NE(server_, nullptr);
    ASSERT_GT(server_->port(), 0);  // ephemeral port resolved
  }
  void TearDown() override { server_->stop(); }

  Registry reg_;
  std::unique_ptr<serve::Server> server_;
};

TEST_F(ServerTest, MetricsScrapeReturnsPrometheusText) {
  const std::string resp = http_get(server_->port(), "/metrics");
  EXPECT_EQ(status_of_response(resp), 200);
  EXPECT_NE(resp.find("Content-Type: text/plain; version=0.0.4"),
            std::string::npos);
  const std::string body = body_of_response(resp);
  EXPECT_NE(body.find("# TYPE pipeline_runs counter"), std::string::npos);
  EXPECT_NE(body.find("# HELP "), std::string::npos);
  EXPECT_NE(body.find("dcl_build_info{"), std::string::npos);
  EXPECT_NE(body.find("config_digest=\"deadbeef\""), std::string::npos);
  EXPECT_NE(body.find("_w_count"), std::string::npos);  // windowed gauges
  // The scrape itself is instrumented.
  EXPECT_GE(reg_.counter("serve.requests").value(), 1u);
  EXPECT_GE(reg_.counter("serve.connections").value(), 1u);
}

TEST_F(ServerTest, HealthzReportsLiveness) {
  const std::string resp = http_get(server_->port(), "/healthz");
  EXPECT_EQ(status_of_response(resp), 200);
  const std::string body = body_of_response(resp);
  EXPECT_NE(body.find("\"status\": \"ok\""), std::string::npos);
  // A degraded run flips the status field but stays 200 (liveness).
  reg_.counter("pipeline.degraded").add(1);
  const std::string resp2 = http_get(server_->port(), "/healthz");
  EXPECT_EQ(status_of_response(resp2), 200);
  EXPECT_NE(body_of_response(resp2).find("\"status\": \"degraded\""),
            std::string::npos);
}

TEST_F(ServerTest, StatuszCarriesManifestStagesAndErrors) {
  const std::string body =
      body_of_response(http_get(server_->port(), "/statusz"));
  EXPECT_NE(body.find("\"manifest\""), std::string::npos);
  EXPECT_NE(body.find("\"tool\": \"http_test\""), std::string::npos);
  EXPECT_NE(body.find("\"uptime_s\""), std::string::npos);
  EXPECT_NE(body.find("\"stages\""), std::string::npos);
  // Stage entries drop the "span." prefix and join the windowed view.
  EXPECT_NE(body.find("\"name\": \"fit\""), std::string::npos);
  EXPECT_NE(body.find("\"window\""), std::string::npos);
  EXPECT_NE(body.find("\"trace\""), std::string::npos);
  EXPECT_NE(body.find("\"overwritten\""), std::string::npos);
  EXPECT_NE(body.find("\"race_dropped\""), std::string::npos);
  EXPECT_NE(body.find("\"errors\""), std::string::npos);
}

TEST_F(ServerTest, TracezReturnsChromeTraceJson) {
  const std::string resp = http_get(server_->port(), "/tracez");
  EXPECT_EQ(status_of_response(resp), 200);
  const std::string body = body_of_response(resp);
  EXPECT_NE(body.find("\"traceEvents\""), std::string::npos);
}

TEST_F(ServerTest, IndexAndUnknownPaths) {
  EXPECT_EQ(status_of_response(http_get(server_->port(), "/")), 200);
  const std::string resp = http_get(server_->port(), "/nope");
  EXPECT_EQ(status_of_response(resp), 404);
  EXPECT_GE(reg_.counter("serve.errors").value(), 1u);
}

TEST_F(ServerTest, HandleRoutesWithoutSockets) {
  std::string ct, body;
  EXPECT_EQ(server_->handle("/metrics", ct, body), 200);
  EXPECT_EQ(ct.rfind("text/plain", 0), 0u);
  EXPECT_FALSE(body.empty());
  EXPECT_EQ(server_->handle("/healthz", ct, body), 200);
  EXPECT_EQ(ct, "application/json");
  EXPECT_EQ(server_->handle("/bogus", ct, body), 404);
}

TEST_F(ServerTest, KeepAliveServesSequentialRequestsOnOneConnection) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server_->port());
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0);
  for (int i = 0; i < 3; ++i) {
    const std::string req = "GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n";
    ASSERT_EQ(::send(fd, req.data(), req.size(), 0),
              static_cast<ssize_t>(req.size()));
    // Read one full response (headers + Content-Length body).
    std::string resp;
    char buf[2048];
    while (resp.find("\r\n\r\n") == std::string::npos) {
      const ssize_t n = ::read(fd, buf, sizeof buf);
      ASSERT_GT(n, 0);
      resp.append(buf, n);
    }
    const std::size_t cl = resp.find("Content-Length: ");
    ASSERT_NE(cl, std::string::npos);
    const std::size_t want = std::stoul(resp.substr(cl + 16));
    while (body_of_response(resp).size() < want) {
      const ssize_t n = ::read(fd, buf, sizeof buf);
      ASSERT_GT(n, 0);
      resp.append(buf, n);
    }
    EXPECT_EQ(status_of_response(resp), 200);
    EXPECT_NE(resp.find("Connection: keep-alive"), std::string::npos);
  }
  ::close(fd);
}

TEST_F(ServerTest, MalformedRequestGetsAnErrorStatus) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server_->port());
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0);
  const std::string req = "BOGUS\r\n\r\n";
  ASSERT_EQ(::send(fd, req.data(), req.size(), 0),
            static_cast<ssize_t>(req.size()));
  std::string resp;
  char buf[1024];
  ssize_t n;
  while ((n = ::read(fd, buf, sizeof buf)) > 0) resp.append(buf, n);
  ::close(fd);
  EXPECT_EQ(status_of_response(resp), 400);
}

TEST_F(ServerTest, PostIsNotImplemented) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server_->port());
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0);
  const std::string req = "POST /metrics HTTP/1.1\r\nHost: t\r\n\r\n";
  ASSERT_EQ(::send(fd, req.data(), req.size(), 0),
            static_cast<ssize_t>(req.size()));
  std::string resp;
  char buf[1024];
  ssize_t n;
  while ((n = ::read(fd, buf, sizeof buf)) > 0) resp.append(buf, n);
  ::close(fd);
  EXPECT_EQ(status_of_response(resp), 501);
}

// The tentpole acceptance race: scrapes must be safe while pipeline
// threads hammer the same registry's windowed instruments. Run under TSan
// by scripts/check.sh (http_test is in the sanitizer label set).
TEST_F(ServerTest, ConcurrentScrapeWhileRecording) {
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < 2; ++t)
    writers.emplace_back([this, &stop] {
      while (!stop.load(std::memory_order_relaxed)) {
        reg_.windowed_counter("pipeline.runs").add(1);
        reg_.windowed_histogram("span.fit").record(1e-4);
        reg_.counter("em.iterations").add(1);
      }
    });
  for (int i = 0; i < 8; ++i) {
    const std::string resp = http_get(
        server_->port(), i % 2 == 0 ? "/metrics" : "/statusz");
    EXPECT_EQ(status_of_response(resp), 200) << "scrape " << i;
    EXPECT_FALSE(body_of_response(resp).empty());
  }
  stop.store(true, std::memory_order_relaxed);
  for (auto& w : writers) w.join();
}

TEST(ServerLifecycle, StopIsIdempotentAndPromptlyJoins) {
  serve::Options opts;
  Registry reg;
  opts.registry = &reg;
  opts.manifest = manifest("http_test");
  auto server = serve::Server::start(std::move(opts));
  ASSERT_NE(server, nullptr);
  EXPECT_EQ(server->host(), "127.0.0.1");
  EXPECT_EQ(server->address(),
            "127.0.0.1:" + std::to_string(server->port()));
  server->stop();
  server->stop();  // idempotent
}

TEST(ServerLifecycle, TwoServersBindDistinctEphemeralPorts) {
  Registry r1, r2;
  serve::Options o1, o2;
  o1.registry = &r1;
  o2.registry = &r2;
  auto s1 = serve::Server::start(std::move(o1));
  auto s2 = serve::Server::start(std::move(o2));
  EXPECT_NE(s1->port(), s2->port());
  s1->stop();
  s2->stop();
}

}  // namespace
}  // namespace dcl::obs
