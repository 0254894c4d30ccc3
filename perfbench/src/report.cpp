#include "report.h"

#include <cmath>
#include <cstdio>

namespace perfbench {

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

namespace {

std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// s as a JSON string literal. Appended piecewise: GCC 12 reports a false
/// -Wrestrict on "\"" + std::string + "\"".
std::string quoted(const std::string& s) {
  std::string out = "\"";
  out += json_escape(s);
  out += '"';
  return out;
}

}  // namespace

JsonObject& JsonObject::num(const std::string& key, double v) {
  fields_.emplace_back(key, number(v));
  return *this;
}

JsonObject& JsonObject::integer(const std::string& key, std::int64_t v) {
  fields_.emplace_back(key, std::to_string(v));
  return *this;
}

JsonObject& JsonObject::boolean(const std::string& key, bool v) {
  fields_.emplace_back(key, v ? "true" : "false");
  return *this;
}

JsonObject& JsonObject::str(const std::string& key, const std::string& v) {
  fields_.emplace_back(key, quoted(v));
  return *this;
}

JsonObject& JsonObject::obj(const std::string& key, const JsonObject& v) {
  fields_.emplace_back(key, v.dump());
  return *this;
}

std::string JsonObject::dump() const {
  std::string out = "{";
  for (std::size_t i = 0; i < fields_.size(); ++i) {
    if (i > 0) out += ", ";
    out += quoted(fields_[i].first);
    out += ": ";
    out += fields_[i].second;
  }
  return out + "}";
}

std::string Result::result_line() const {
  JsonObject m;
  for (const Metric& metric : metrics)
    m.obj(metric.name, JsonObject().num("value", metric.value).str("unit", metric.unit));
  return JsonObject()
      .boolean("correct", correct)
      .integer("attempted", attempted)
      .integer("failed", failed)
      .obj("metrics", m)
      .dump();
}

}  // namespace perfbench
