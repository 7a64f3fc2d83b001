#include "util/json.hh"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

namespace cgp
{

namespace
{

[[noreturn]] void
typeError(const char *want, Json::Type got)
{
    static const char *names[] = {"null",   "bool",  "int",
                                  "uint",   "double", "string",
                                  "array",  "object"};
    throw std::runtime_error(std::string("json: expected ") + want +
                             ", have " +
                             names[static_cast<int>(got)]);
}

} // anonymous namespace

Json
Json::array()
{
    Json j;
    j.v_.emplace<Array>();
    return j;
}

Json
Json::object()
{
    Json j;
    j.v_.emplace<Object>();
    return j;
}

bool
Json::asBool() const
{
    if (const bool *b = std::get_if<bool>(&v_))
        return *b;
    typeError("bool", type());
}

std::int64_t
Json::asInt() const
{
    switch (type()) {
      case Type::Int:
        return std::get<std::int64_t>(v_);
      case Type::Uint: {
        const std::uint64_t u = std::get<std::uint64_t>(v_);
        if (u > static_cast<std::uint64_t>(INT64_MAX))
            throw std::runtime_error("json: uint out of int64 range");
        return static_cast<std::int64_t>(u);
      }
      case Type::Double:
        return static_cast<std::int64_t>(std::get<double>(v_));
      default:
        typeError("number", type());
    }
}

std::uint64_t
Json::asUint() const
{
    switch (type()) {
      case Type::Uint:
        return std::get<std::uint64_t>(v_);
      case Type::Int: {
        const std::int64_t i = std::get<std::int64_t>(v_);
        if (i < 0)
            throw std::runtime_error("json: negative value as uint");
        return static_cast<std::uint64_t>(i);
      }
      case Type::Double: {
        const double d = std::get<double>(v_);
        if (d < 0)
            throw std::runtime_error("json: negative value as uint");
        return static_cast<std::uint64_t>(d);
      }
      default:
        typeError("number", type());
    }
}

double
Json::asDouble() const
{
    switch (type()) {
      case Type::Double:
        return std::get<double>(v_);
      case Type::Int:
        return static_cast<double>(std::get<std::int64_t>(v_));
      case Type::Uint:
        return static_cast<double>(std::get<std::uint64_t>(v_));
      default:
        typeError("number", type());
    }
}

const std::string &
Json::asString() const
{
    if (const std::string *s = std::get_if<std::string>(&v_))
        return *s;
    typeError("string", type());
}

void
Json::push(Json v)
{
    if (isNull())
        v_.emplace<Array>();
    Array *arr = std::get_if<Array>(&v_);
    if (arr == nullptr)
        typeError("array", type());
    arr->push_back(std::move(v));
}

std::size_t
Json::size() const
{
    if (const Array *arr = std::get_if<Array>(&v_))
        return arr->size();
    if (const Object *obj = std::get_if<Object>(&v_))
        return obj->size();
    typeError("array or object", type());
}

const Json &
Json::operator[](std::size_t i) const
{
    const Array &arr = items();
    if (i >= arr.size())
        throw std::runtime_error("json: array index out of range");
    return arr[i];
}

const Json::Array &
Json::items() const
{
    if (const Array *arr = std::get_if<Array>(&v_))
        return *arr;
    typeError("array", type());
}

Json &
Json::set(std::string key, Json v)
{
    if (isNull())
        v_.emplace<Object>();
    Object *obj = std::get_if<Object>(&v_);
    if (obj == nullptr)
        typeError("object", type());
    for (auto &[k, existing] : *obj) {
        if (k == key) {
            existing = std::move(v);
            return *this;
        }
    }
    obj->emplace_back(std::move(key), std::move(v));
    return *this;
}

bool
Json::remove(std::string_view key)
{
    Object *obj = std::get_if<Object>(&v_);
    if (obj == nullptr)
        return false;
    for (auto it = obj->begin(); it != obj->end(); ++it) {
        if (it->first == key) {
            obj->erase(it);
            return true;
        }
    }
    return false;
}

const Json *
Json::find(std::string_view key) const
{
    const Object *obj = std::get_if<Object>(&v_);
    if (obj == nullptr)
        return nullptr;
    for (const auto &[k, v] : *obj) {
        if (k == key)
            return &v;
    }
    return nullptr;
}

const Json &
Json::at(std::string_view key) const
{
    const Json *v = find(key);
    if (v == nullptr) {
        throw std::runtime_error("json: missing key '" +
                                 std::string(key) + "'");
    }
    return *v;
}

const Json::Object &
Json::members() const
{
    if (const Object *obj = std::get_if<Object>(&v_))
        return *obj;
    typeError("object", type());
}

bool
Json::operator==(const Json &other) const
{
    if (isNumber() && other.isNumber()) {
        // Compare across Int/Uint/Double by value.
        if (type() == Type::Double || other.type() == Type::Double)
            return asDouble() == other.asDouble();
        const auto negative = [](const Json &j) {
            const std::int64_t *i = std::get_if<std::int64_t>(&j.v_);
            return i != nullptr && *i < 0;
        };
        const bool neg_a = negative(*this);
        if (neg_a != negative(other))
            return false;
        if (neg_a)
            return asInt() == other.asInt();
        return asUint() == other.asUint();
    }
    // Same alternative and equal value; numbers are handled above.
    return v_ == other.v_;
}

namespace
{

void
escapeString(std::string &out, const std::string &s)
{
    out += '"';
    for (const char c : s) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\b':
            out += "\\b";
            break;
          case '\f':
            out += "\\f";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\r':
            out += "\\r";
            break;
          case '\t':
            out += "\\t";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x",
                              static_cast<unsigned char>(c));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    out += '"';
}

void
newlineIndent(std::string &out, int indent, int depth)
{
    out += '\n';
    out.append(static_cast<std::size_t>(indent) *
                   static_cast<std::size_t>(depth),
               ' ');
}

} // anonymous namespace

void
Json::dumpTo(std::string &out, int indent, int depth) const
{
    char buf[40];
    switch (type()) {
      case Type::Null:
        out += "null";
        break;
      case Type::Bool:
        out += std::get<bool>(v_) ? "true" : "false";
        break;
      case Type::Int:
        out.append(buf, std::to_chars(buf, buf + sizeof buf,
                                      std::get<std::int64_t>(v_))
                            .ptr);
        break;
      case Type::Uint:
        out.append(buf, std::to_chars(buf, buf + sizeof buf,
                                      std::get<std::uint64_t>(v_))
                            .ptr);
        break;
      case Type::Double: {
        const double d = std::get<double>(v_);
        if (!std::isfinite(d)) {
            out += "null"; // JSON has no inf/nan
        } else if (d == std::floor(d) && std::fabs(d) < 9.0e15) {
            // Keep a fraction marker so the value parses back as a
            // double, not an integer (round-trip type stability).
            std::snprintf(buf, sizeof buf, "%.1f", d);
            out += buf;
        } else {
            std::snprintf(buf, sizeof buf, "%.17g", d);
            out += buf;
        }
        break;
      }
      case Type::String:
        escapeString(out, std::get<std::string>(v_));
        break;
      case Type::Array: {
        const Array &arr = std::get<Array>(v_);
        if (arr.empty()) {
            out += "[]";
            break;
        }
        out += '[';
        for (std::size_t i = 0; i < arr.size(); ++i) {
            if (i > 0)
                out += ',';
            if (indent >= 0)
                newlineIndent(out, indent, depth + 1);
            arr[i].dumpTo(out, indent, depth + 1);
        }
        if (indent >= 0)
            newlineIndent(out, indent, depth);
        out += ']';
        break;
      }
      case Type::Object: {
        const Object &obj = std::get<Object>(v_);
        if (obj.empty()) {
            out += "{}";
            break;
        }
        out += '{';
        for (std::size_t i = 0; i < obj.size(); ++i) {
            if (i > 0)
                out += ',';
            if (indent >= 0)
                newlineIndent(out, indent, depth + 1);
            escapeString(out, obj[i].first);
            out += indent >= 0 ? ": " : ":";
            obj[i].second.dumpTo(out, indent, depth + 1);
        }
        if (indent >= 0)
            newlineIndent(out, indent, depth);
        out += '}';
        break;
      }
    }
}

std::string
Json::dump(int indent) const
{
    std::string out;
    dumpTo(out, indent, 0);
    return out;
}

namespace
{

class Parser
{
  public:
    explicit Parser(std::string_view text) : text_(text) {}

    Json
    parseDocument()
    {
        Json v = parseValue();
        skipWs();
        if (pos_ != text_.size())
            fail("trailing characters after document");
        return v;
    }

  private:
    [[noreturn]] void
    fail(const std::string &what) const
    {
        throw std::runtime_error("json parse error at offset " +
                                 std::to_string(pos_) + ": " + what);
    }

    void
    skipWs()
    {
        while (pos_ < text_.size()) {
            const char c = text_[pos_];
            if (c != ' ' && c != '\t' && c != '\n' && c != '\r')
                break;
            ++pos_;
        }
    }

    char
    peek()
    {
        if (pos_ >= text_.size())
            fail("unexpected end of input");
        return text_[pos_];
    }

    char
    take()
    {
        const char c = peek();
        ++pos_;
        return c;
    }

    void
    expect(char c)
    {
        if (take() != c)
            fail(std::string("expected '") + c + "'");
    }

    void
    expectWord(std::string_view word)
    {
        if (text_.substr(pos_, word.size()) != word)
            fail("invalid literal");
        pos_ += word.size();
    }

    Json
    parseValue()
    {
        if (++depth_ > maxDepth)
            fail("nesting too deep");
        skipWs();
        Json v;
        switch (peek()) {
          case 'n':
            expectWord("null");
            break;
          case 't':
            expectWord("true");
            v = Json(true);
            break;
          case 'f':
            expectWord("false");
            v = Json(false);
            break;
          case '"':
            v = Json(parseString());
            break;
          case '[':
            v = parseArray();
            break;
          case '{':
            v = parseObject();
            break;
          default:
            v = parseNumber();
            break;
        }
        --depth_;
        return v;
    }

    std::string
    parseString()
    {
        expect('"');
        std::string out;
        for (;;) {
            if (pos_ >= text_.size())
                fail("unterminated string");
            const char c = text_[pos_++];
            if (c == '"')
                return out;
            if (static_cast<unsigned char>(c) < 0x20)
                fail("raw control character in string");
            if (c != '\\') {
                out += c;
                continue;
            }
            const char esc = take();
            switch (esc) {
              case '"':
                out += '"';
                break;
              case '\\':
                out += '\\';
                break;
              case '/':
                out += '/';
                break;
              case 'b':
                out += '\b';
                break;
              case 'f':
                out += '\f';
                break;
              case 'n':
                out += '\n';
                break;
              case 'r':
                out += '\r';
                break;
              case 't':
                out += '\t';
                break;
              case 'u': {
                unsigned cp = parseHex4();
                if (cp >= 0xD800 && cp <= 0xDBFF &&
                    text_.substr(pos_, 2) == "\\u") {
                    pos_ += 2;
                    const unsigned lo = parseHex4();
                    if (lo >= 0xDC00 && lo <= 0xDFFF) {
                        cp = 0x10000 + ((cp - 0xD800) << 10) +
                            (lo - 0xDC00);
                    } else {
                        fail("invalid low surrogate");
                    }
                }
                appendUtf8(out, cp);
                break;
              }
              default:
                fail("invalid escape");
            }
        }
    }

    unsigned
    parseHex4()
    {
        unsigned v = 0;
        for (int i = 0; i < 4; ++i) {
            const char c = take();
            v <<= 4;
            if (c >= '0' && c <= '9')
                v |= static_cast<unsigned>(c - '0');
            else if (c >= 'a' && c <= 'f')
                v |= static_cast<unsigned>(c - 'a' + 10);
            else if (c >= 'A' && c <= 'F')
                v |= static_cast<unsigned>(c - 'A' + 10);
            else
                fail("invalid \\u escape");
        }
        return v;
    }

    static void
    appendUtf8(std::string &out, unsigned cp)
    {
        if (cp < 0x80) {
            out += static_cast<char>(cp);
        } else if (cp < 0x800) {
            out += static_cast<char>(0xC0 | (cp >> 6));
            out += static_cast<char>(0x80 | (cp & 0x3F));
        } else if (cp < 0x10000) {
            out += static_cast<char>(0xE0 | (cp >> 12));
            out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (cp & 0x3F));
        } else {
            out += static_cast<char>(0xF0 | (cp >> 18));
            out += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
            out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (cp & 0x3F));
        }
    }

    Json
    parseNumber()
    {
        const std::size_t start = pos_;
        bool negative = false;
        bool integral = true;
        if (peek() == '-') {
            negative = true;
            ++pos_;
        }
        if (pos_ >= text_.size() ||
            !(text_[pos_] >= '0' && text_[pos_] <= '9'))
            fail("invalid number");
        while (pos_ < text_.size()) {
            const char c = text_[pos_];
            if (c >= '0' && c <= '9') {
                ++pos_;
            } else if (c == '.' || c == 'e' || c == 'E' || c == '+' ||
                       c == '-') {
                integral = false;
                ++pos_;
            } else {
                break;
            }
        }
        const std::string tok(text_.substr(start, pos_ - start));
        if (integral) {
            errno = 0;
            if (negative) {
                const long long v =
                    std::strtoll(tok.c_str(), nullptr, 10);
                if (errno == ERANGE)
                    fail("integer out of range");
                return Json(v);
            }
            const unsigned long long v =
                std::strtoull(tok.c_str(), nullptr, 10);
            if (errno == ERANGE)
                fail("integer out of range");
            return Json(v);
        }
        char *end = nullptr;
        const double v = std::strtod(tok.c_str(), &end);
        if (end == nullptr || *end != '\0')
            fail("invalid number");
        return Json(v);
    }

    Json
    parseArray()
    {
        expect('[');
        Json v = Json::array();
        skipWs();
        if (peek() == ']') {
            ++pos_;
            return v;
        }
        for (;;) {
            v.push(parseValue());
            skipWs();
            const char c = take();
            if (c == ']')
                return v;
            if (c != ',')
                fail("expected ',' or ']'");
        }
    }

    Json
    parseObject()
    {
        expect('{');
        Json v = Json::object();
        skipWs();
        if (peek() == '}') {
            ++pos_;
            return v;
        }
        for (;;) {
            skipWs();
            std::string key = parseString();
            skipWs();
            expect(':');
            v.set(std::move(key), parseValue());
            skipWs();
            const char c = take();
            if (c == '}')
                return v;
            if (c != ',')
                fail("expected ',' or '}'");
        }
    }

    static constexpr int maxDepth = 256;

    std::string_view text_;
    std::size_t pos_ = 0;
    int depth_ = 0;
};

} // anonymous namespace

Json
Json::parse(std::string_view text)
{
    return Parser(text).parseDocument();
}

} // namespace cgp
