/// Declarative-package sessions through the service: the session cache must
/// key on the full package content (two different specs never share a cache
/// entry — and with it a factorization), the same spec content must hit, and
/// solver methods must accept a "spec" parameter end-to-end.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <thread>

#include "io/spec_json.h"
#include "svc/client.h"
#include "svc/server.h"
#include "svc/session_cache.h"
#include "thermal/stack_spec.h"

namespace tfc::svc {
namespace {

std::string temp_path(const std::string& tag, const std::string& ext) {
  return (std::filesystem::temp_directory_path() /
          ("tfc_spec_sess_" + tag + "_" + std::to_string(::getpid()) + ext))
      .string();
}

/// 6x6 paper-style spec with an adjustable die power, written to a file.
class SpecFile {
 public:
  SpecFile(const std::string& tag, double power_w) : path_(temp_path(tag, ".json")) {
    thermal::PackageGeometry g;
    g.tile_rows = 6;
    g.tile_cols = 6;
    thermal::StackSpec s = thermal::StackSpec::single_die(g);
    s.name = "sess-" + tag;
    s.chips[0].layers[0].power_w = power_w;
    std::ofstream f(path_);
    f << io::spec_to_json(s).dump() << "\n";
  }
  ~SpecFile() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

class ServerFixture {
 public:
  explicit ServerFixture(ServerOptions options) : server_(std::move(options)) {
    thread_ = std::thread([this] { server_.run(); });
  }
  ~ServerFixture() {
    server_.request_stop();
    thread_.join();
  }
  Server& server() { return server_; }

 private:
  Server server_;
  std::thread thread_;
};

ServerOptions quick_options(const std::string& tag) {
  ServerOptions o;
  o.socket_path = temp_path(tag, ".sock");
  o.workers = 2;
  o.queue_capacity = 16;
  o.cache_capacity = 4;
  return o;
}

TEST(SessionKeySpec, PackageHashDiscriminatesKeys) {
  SessionKey a;
  a.chip = "same-name";
  a.package = "aaaaaaaaaaaaaaaa";
  SessionKey b = a;
  b.package = "bbbbbbbbbbbbbbbb";
  EXPECT_NE(a.to_string(), b.to_string());

  // Same chip label + grid + limit but different packages must build twice.
  SessionCache cache(4);
  int builds = 0;
  auto builder = [&builds](const SessionKey& key) {
    ++builds;
    auto s = std::make_shared<Session>();
    s->key = key;
    return std::shared_ptr<const Session>(s);
  };
  bool hit = true;
  cache.get_or_build(a, builder, &hit);
  EXPECT_FALSE(hit);
  cache.get_or_build(b, builder, &hit);
  EXPECT_FALSE(hit);
  EXPECT_EQ(builds, 2);
  cache.get_or_build(a, builder, &hit);
  EXPECT_TRUE(hit);
  EXPECT_EQ(builds, 2);
}

TEST(ServiceSpec, TwoSpecsNeverShareAFactorization) {
  SpecFile spec_a("a", 10.0);
  SpecFile spec_b("b", 12.0);  // differs only in die power ⇒ different hash

  ServerFixture fx(quick_options("twospecs"));
  auto client = Client::connect_unix(fx.server().options().socket_path);
  // svc.cache.* counters are process-global: assert on deltas.
  const std::uint64_t hits0 = fx.server().cache().hits();
  const std::uint64_t misses0 = fx.server().cache().misses();

  io::JsonValue pa = io::JsonValue::make_object();
  pa.set("spec", io::JsonValue::make_string(spec_a.path()));
  io::JsonValue pb = io::JsonValue::make_object();
  pb.set("spec", io::JsonValue::make_string(spec_b.path()));

  auto ra = client.call("solve", pa);
  ASSERT_TRUE(ra.at("ok").as_bool()) << ra.dump();
  auto rb = client.call("solve", pb);
  ASSERT_TRUE(rb.at("ok").as_bool()) << rb.dump();

  // Different package content ⇒ two sessions, no sharing.
  EXPECT_EQ(fx.server().cache().size(), 2u);
  EXPECT_EQ(fx.server().cache().misses() - misses0, 2u);
  EXPECT_EQ(fx.server().cache().hits() - hits0, 0u);

  // Identical spec content ⇒ a hit on the existing session.
  auto ra2 = client.call("solve", pa);
  ASSERT_TRUE(ra2.at("ok").as_bool());
  EXPECT_EQ(fx.server().cache().hits() - hits0, 1u);
  EXPECT_EQ(fx.server().cache().size(), 2u);

  // Higher die power must read back hotter: the sessions really are distinct.
  const double peak_a = ra.at("result").at("peak_celsius").as_number();
  const double peak_b = rb.at("result").at("peak_celsius").as_number();
  EXPECT_GT(peak_b, peak_a);
}

TEST(ServiceSpec, SpecAndBuiltinChipAreDistinctSessions) {
  SpecFile spec("mix", 10.0);
  ServerFixture fx(quick_options("mix"));
  auto client = Client::connect_unix(fx.server().options().socket_path);

  io::JsonValue chip_params = io::JsonValue::make_object();
  chip_params.set("chip", io::JsonValue::make_string("alpha"));
  ASSERT_TRUE(client.call("solve", chip_params).at("ok").as_bool());

  io::JsonValue spec_params = io::JsonValue::make_object();
  spec_params.set("spec", io::JsonValue::make_string(spec.path()));
  ASSERT_TRUE(client.call("solve", spec_params).at("ok").as_bool());

  EXPECT_EQ(fx.server().cache().size(), 2u);

  // The flight recorder labels the spec session "name@hash".
  auto recent = fx.server().recorder().recent(2);
  ASSERT_EQ(recent.size(), 2u);
  EXPECT_NE(recent[0].spec.find("sess-mix@"), std::string::npos);
  EXPECT_TRUE(recent[1].spec.empty());
}

TEST(ServiceSpec, BadSpecPathIsBadRequest) {
  ServerFixture fx(quick_options("badspec"));
  auto client = Client::connect_unix(fx.server().options().socket_path);
  io::JsonValue params = io::JsonValue::make_object();
  params.set("spec", io::JsonValue::make_string("/nonexistent/stack.json"));
  auto reply = client.call("solve", params);
  ASSERT_FALSE(reply.at("ok").as_bool());
  EXPECT_EQ(reply.at("error").at("code").as_string(), "bad_request");
}

TEST(ServiceSpec, OversizedTileGridIsBadRequestAndServerLives) {
  // 2^33 tiles per side: the tile count wraps to 0 in 64 bits.
  const std::string path = temp_path("huge", ".json");
  {
    thermal::StackSpec s = thermal::StackSpec::single_die(thermal::PackageGeometry{});
    s.chips[0].tile_rows = s.chips[0].tile_cols = std::size_t(1) << 33;
    std::ofstream f(path);
    f << io::spec_to_json(s).dump() << "\n";
  }
  ServerFixture fx(quick_options("hugespec"));
  auto client = Client::connect_unix(fx.server().options().socket_path);
  io::JsonValue params = io::JsonValue::make_object();
  params.set("spec", io::JsonValue::make_string(path));
  auto reply = client.call("solve", params);
  std::remove(path.c_str());
  ASSERT_FALSE(reply.at("ok").as_bool());
  EXPECT_EQ(reply.at("error").at("code").as_string(), "bad_request");
  EXPECT_TRUE(client.call("ping", io::JsonValue::make_object()).at("ok").as_bool());
}

TEST(ServiceSpec, DesignMethodAcceptsSpec) {
  SpecFile spec("design", 10.0);
  ServerFixture fx(quick_options("design"));
  auto client = Client::connect_unix(fx.server().options().socket_path);
  io::JsonValue params = io::JsonValue::make_object();
  params.set("spec", io::JsonValue::make_string(spec.path()));
  auto reply = client.call("design", params);
  ASSERT_TRUE(reply.at("ok").as_bool()) << reply.dump();
  EXPECT_EQ(reply.at("result").at("chip").as_string(), "sess-design");
}

}  // namespace
}  // namespace tfc::svc
