/// StackSpec JSON: canonical round-trip, strict-schema rejection, typed
/// error messages, file loading, and content-hash stability.
#include "io/spec_json.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <array>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "thermal/stack_spec.h"

namespace tfc::io {
namespace {

thermal::StackSpec default_spec() {
  return thermal::StackSpec::single_die(thermal::PackageGeometry{});
}

std::string temp_spec_path(const std::string& tag) {
  return (std::filesystem::temp_directory_path() /
          ("tfc_spec_" + tag + "_" + std::to_string(::getpid()) + ".json"))
      .string();
}

/// RAII temp file holding one JSON document.
class TempSpecFile {
 public:
  TempSpecFile(const std::string& tag, const std::string& content)
      : path_(temp_spec_path(tag)) {
    std::ofstream f(path_);
    f << content;
  }
  ~TempSpecFile() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

TEST(SpecJson, CanonicalRoundTripIsExact) {
  thermal::StackSpec spec = default_spec();
  JsonValue doc = spec_to_json(spec);
  thermal::StackSpec back = spec_from_json(doc);
  // Bitwise round-trip: the re-serialized document is byte-identical.
  EXPECT_EQ(spec_to_json(back).dump(), doc.dump());
  EXPECT_EQ(spec_content_hash(back), spec_content_hash(spec));
  ASSERT_EQ(back.chips.size(), 1u);
  EXPECT_EQ(back.chips[0].layers.size(), 2u);
  EXPECT_TRUE(back.chips[0].layers[1].tec_capable);
}

TEST(SpecJson, UnknownTopLevelKeyRejected) {
  JsonValue doc = spec_to_json(default_spec());
  doc.set("bogus", JsonValue::make_number(1.0));
  EXPECT_THROW(
      try { spec_from_json(doc); } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find("unknown key 'bogus'"), std::string::npos);
        throw;
      },
      std::invalid_argument);
}

TEST(SpecJson, UnknownMaterialRejected) {
  TempSpecFile f("badmat", R"({
    "name": "m",
    "chips": [{
      "name": "c", "width": 0.006, "height": 0.006, "x": 0, "y": 0,
      "tile_rows": 4, "tile_cols": 4,
      "layers": [
        {"kind": "die", "name": "die", "material": "unobtainium",
         "thickness": 0.0003, "power_w": 10},
        {"kind": "interface", "name": "tim", "material": "TIM",
         "thickness": 5e-05, "tec_capable": true}
      ]
    }]
  })");
  EXPECT_THROW(
      try { load_stack_spec(f.path()); } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find("unknown material"), std::string::npos);
        throw;
      },
      std::invalid_argument);
}

TEST(SpecJson, ZeroThicknessRejectedOnLoad) {
  TempSpecFile f("zerothick", R"({
    "name": "z",
    "chips": [{
      "name": "c", "width": 0.006, "height": 0.006, "x": 0, "y": 0,
      "tile_rows": 4, "tile_cols": 4,
      "layers": [
        {"kind": "die", "name": "die", "material": "silicon",
         "thickness": 0, "power_w": 10},
        {"kind": "interface", "name": "tim", "material": "TIM",
         "thickness": 5e-05, "tec_capable": true}
      ]
    }]
  })");
  EXPECT_THROW(
      try { load_stack_spec(f.path()); } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find("thickness must be > 0"), std::string::npos);
        throw;
      },
      std::invalid_argument);
}

TEST(SpecJson, MissingFileThrowsRuntimeError) {
  EXPECT_THROW(load_stack_spec("/nonexistent/package.json"), std::runtime_error);
}

TEST(SpecJson, HashDiscriminatesContent) {
  thermal::StackSpec a = default_spec();
  thermal::StackSpec b = default_spec();
  b.chips[0].layers[0].power_w += 1.0;
  thermal::StackSpec c = default_spec();
  c.convection_resistance = 1.05;
  EXPECT_NE(spec_content_hash(a), spec_content_hash(b));
  EXPECT_NE(spec_content_hash(a), spec_content_hash(c));
  EXPECT_NE(spec_content_hash(b), spec_content_hash(c));
  EXPECT_EQ(spec_content_hash(a).size(), 16u);
}

/// A hostile tile grid is rejected at load, before anything is sized by it:
/// 2^33 per side wraps the tile count to 0, 10^15 would exhaust memory, and
/// 10^5 per side is 10^10 TEC sites.
TEST(SpecJson, OversizedTileGridRejectedOnLoad) {
  for (std::size_t side : {std::size_t(1) << 33, std::size_t(1000000000000000),
                           std::size_t(100000)}) {
    thermal::StackSpec s = default_spec();
    s.chips[0].tile_rows = s.chips[0].tile_cols = side;
    TempSpecFile f("huge", spec_to_json(s).dump());
    EXPECT_THROW(
        try { load_stack_spec(f.path()); } catch (const std::invalid_argument& e) {
          EXPECT_NE(std::string(e.what()).find("virtual tile grid exceeds 1048576 tiles"),
                    std::string::npos)
              << side;
          throw;
        },
        std::invalid_argument)
        << side;
  }
  // The cap counts every die band of the virtual grid: 1024 columns by
  // 1024 rows fit, one more stacked row does not.
  thermal::StackSpec s = default_spec();
  s.chips[0].tile_rows = s.chips[0].tile_cols = 1024;
  EXPECT_NO_THROW(s.validate());
  s.chips[0].layers.push_back(s.chips[0].layers[0]);
  s.chips[0].layers.push_back(s.chips[0].layers[1]);
  EXPECT_THROW(s.validate(), std::invalid_argument);
}

TEST(SpecJson, LoadValidatesEndToEnd) {
  // A syntactically fine document whose chips overlap must fail validate()
  // inside load_stack_spec, not only at model build time.
  thermal::StackSpec s = default_spec();
  s.chips.push_back(s.chips[0]);  // identical footprint ⇒ overlap
  TempSpecFile f("overlap", spec_to_json(s).dump());
  EXPECT_THROW(
      try { load_stack_spec(f.path()); } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find("overlap"), std::string::npos);
        throw;
      },
      std::invalid_argument);
}

/// A minimal valid spec document and mutants that give one optional field
/// (or the layer kind) the wrong type.
const char kSmallSpec[] =
    R"({"chips": [{"name": "c", "width": 0.006, "height": 0.006, "tile_rows": 4,)"
    R"( "tile_cols": 4, "layers": [)"
    R"({"kind": "die", "name": "die", "material": "silicon", "thickness": 3e-4,)"
    R"( "power_w": 25},)"
    R"({"kind": "interface", "name": "tim", "material": "TIM", "thickness": 5e-5,)"
    R"( "tec_capable": true}]}]})";

/// (field, original text, wrong-typed text) per mutant.
const std::vector<std::array<std::string, 3>> kWrongTypedFields = {
    {"power_w", R"("power_w": 25)", R"("power_w": "25")"},
    {"tec_capable", R"("tec_capable": true)", R"("tec_capable": "yes")"},
    {"name", R"("name": "c")", R"("name": 5)"},
    {"kind", R"("kind": "die")", R"("kind": 5)"},
};

TEST(SpecJson, WrongTypedFieldsAreSchemaErrors) {
  EXPECT_NO_THROW(spec_from_json(parse_json(kSmallSpec)));
  for (const auto& [field, good, bad] : kWrongTypedFields) {
    std::string text = kSmallSpec;
    const std::size_t at = text.find(good);
    ASSERT_NE(at, std::string::npos) << field;
    text.replace(at, good.size(), bad);
    EXPECT_THROW(
        try { spec_from_json(parse_json(text)); } catch (const std::invalid_argument& e) {
          EXPECT_NE(std::string(e.what()).find("'" + field + "'"), std::string::npos)
              << e.what();
          throw;
        },
        std::invalid_argument)
        << field;
  }
}

}  // namespace
}  // namespace tfc::io
