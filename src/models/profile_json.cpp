// The madpipe-profile-v2 JSON format (docs/PROFILE_FORMAT.md): the same
// chain model as the v1 text format, carried as a JSON document on the
// strict util/json parser — plus scratch_bytes, which v1 cannot express.
//
// Error model: parse failures come back as non-throwing messages carrying
// the JSON path of the offending field ("layers[3].weight_bytes"), the v2
// counterpart of v1's line numbers. Strict like the serve protocol: unknown
// keys, mistyped values, duplicate layer names and out-of-range numbers are
// all errors, never warnings.
#include <cmath>
#include <string>
#include <string_view>
#include <unordered_set>
#include <vector>

#include "models/profile_io.hpp"
#include "util/json.hpp"

namespace madpipe::models {

namespace {
constexpr const char* kSchema = "madpipe-profile-v2";

std::string at_path(const std::string& path, const std::string& message) {
  return "profile parse error at " + path + ": " + message;
}

ProfileParseResult fail(const std::string& path, const std::string& message) {
  ProfileParseResult result;
  result.error = at_path(path, message);
  return result;
}

/// Reads the required non-negative finite number `key` of `object` into
/// `out`; returns nullptr, or the error message for the field's path.
const char* read_number_field(const json::Value& object, const char* key,
                              double* out) {
  const json::Value* field = object.find(key);
  if (field == nullptr) return "missing required field";
  if (!field->is_number()) return "must be a number";
  const double v = field->as_number();
  if (v < 0.0 || !std::isfinite(v)) {
    return "must be a non-negative finite number";
  }
  *out = v;
  return nullptr;
}

/// "layers[i]" or "layers[i].key": built only for an error message.
std::string layer_path(std::size_t i, std::string_view key = {}) {
  std::string path = "layers[" + std::to_string(i) + "]";
  if (!key.empty()) {
    path += '.';
    path += key;
  }
  return path;
}
}  // namespace

std::string profile_to_json_string(const Chain& chain) {
  json::Writer w;
  w.begin_object();
  w.key("schema");
  w.value(kSchema);
  w.key("name");
  w.value(chain.name());
  w.key("input_bytes");
  w.value(chain.activation(0));
  w.key("layers");
  w.begin_array();
  for (int l = 1; l <= chain.length(); ++l) {
    const Layer& layer = chain.layer(l);
    w.begin_object();
    w.key("name");
    w.value(layer.name);
    w.key("forward_seconds");
    w.value(layer.forward_time);
    w.key("backward_seconds");
    w.value(layer.backward_time);
    w.key("weight_bytes");
    w.value(layer.weight_bytes);
    w.key("output_bytes");
    w.value(layer.output_bytes);
    if (layer.scratch_bytes != 0.0) {
      w.key("scratch_bytes");
      w.value(layer.scratch_bytes);
    }
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.str() + "\n";
}

ProfileParseResult try_profile_from_json_string(
    const std::string& text) noexcept {
  // Wrapped like the v1 parser: malformed serve payloads must produce a
  // clean message, never an exception escaping the service.
  try {
    const json::ParseResult parsed = json::parse(text);
    if (!parsed.ok()) {
      ProfileParseResult result;
      result.error = "profile parse error: invalid JSON: " + parsed.error;
      return result;
    }
    const json::Value& root = parsed.value;
    if (!root.is_object()) return fail("$", "document must be a JSON object");

    for (const auto& [key, value] : root.members()) {
      if (key != "schema" && key != "name" && key != "input_bytes" &&
          key != "layers") {
        return fail(key, "unknown field");
      }
    }

    const json::Value* schema = root.find("schema");
    if (schema == nullptr || !schema->is_string()) {
      return fail("schema", "missing schema field");
    }
    if (schema->as_string() != kSchema) {
      return fail("schema", "expected '" + std::string(kSchema) + "', got '" +
                                schema->as_string() + "'");
    }

    std::string name = "unnamed";
    if (const json::Value* n = root.find("name"); n != nullptr) {
      if (!n->is_string()) return fail("name", "must be a string");
      name = n->as_string();
    }

    Bytes input_bytes = 0.0;
    if (const char* err = read_number_field(root, "input_bytes", &input_bytes)) {
      return fail("input_bytes", err);
    }

    const json::Value* layers_field = root.find("layers");
    if (layers_field == nullptr || !layers_field->is_array()) {
      return fail("layers", "missing layers array");
    }
    const std::vector<json::Value>& items = layers_field->items();
    if (items.empty()) return fail("layers", "profile has no layers");
    if (items.size() > static_cast<std::size_t>(kMaxProfileLayers)) {
      return fail("layers", "profile exceeds " +
                                std::to_string(kMaxProfileLayers) + " layers");
    }

    std::vector<Layer> layers;
    layers.reserve(items.size());
    // Views into the parsed document, which outlives the loop.
    std::unordered_set<std::string_view> seen_names;
    seen_names.reserve(items.size());
    for (std::size_t i = 0; i < items.size(); ++i) {
      const json::Value& item = items[i];
      if (!item.is_object()) return fail(layer_path(i), "must be an object");
      for (const auto& [key, value] : item.members()) {
        if (key != "name" && key != "forward_seconds" &&
            key != "backward_seconds" && key != "weight_bytes" &&
            key != "output_bytes" && key != "scratch_bytes") {
          return fail(layer_path(i, key), "unknown field");
        }
      }
      Layer layer;
      const json::Value* layer_name = item.find("name");
      if (layer_name == nullptr || !layer_name->is_string() ||
          layer_name->as_string().empty()) {
        return fail(layer_path(i, "name"), "must be a non-empty string");
      }
      if (!seen_names.insert(layer_name->as_string()).second) {
        return fail(layer_path(i, "name"), "duplicate layer id '" +
                                               layer_name->as_string() + "'");
      }
      layer.name = layer_name->as_string();
      struct Field {
        const char* key;
        double* slot;
      };
      for (const Field& f :
           {Field{"forward_seconds", &layer.forward_time},
            Field{"backward_seconds", &layer.backward_time},
            Field{"weight_bytes", &layer.weight_bytes},
            Field{"output_bytes", &layer.output_bytes}}) {
        if (const char* err = read_number_field(item, f.key, f.slot)) {
          return fail(layer_path(i, f.key), err);
        }
      }
      if (item.find("scratch_bytes") != nullptr) {
        if (const char* err =
                read_number_field(item, "scratch_bytes", &layer.scratch_bytes)) {
          return fail(layer_path(i, "scratch_bytes"), err);
        }
      }
      layers.push_back(std::move(layer));
    }

    ProfileParseResult result;
    result.chain.emplace(name, input_bytes, std::move(layers));
    return result;
  } catch (const std::exception& error) {
    ProfileParseResult result;
    result.error = std::string("profile parse error: ") + error.what();
    return result;
  } catch (...) {
    ProfileParseResult result;
    result.error = "profile parse error: unknown exception";
    return result;
  }
}

}  // namespace madpipe::models
