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
    j.type_ = Type::Array;
    return j;
}

Json
Json::object()
{
    Json j;
    j.type_ = Type::Object;
    return j;
}

bool
Json::asBool() const
{
    if (type_ != Type::Bool)
        typeError("bool", type_);
    return bool_;
}

std::int64_t
Json::asInt() const
{
    switch (type_) {
      case Type::Int:
        return int_;
      case Type::Uint:
        if (uint_ > static_cast<std::uint64_t>(INT64_MAX))
            throw std::runtime_error("json: uint out of int64 range");
        return static_cast<std::int64_t>(uint_);
      case Type::Double:
        return static_cast<std::int64_t>(dbl_);
      default:
        typeError("number", type_);
    }
}

std::uint64_t
Json::asUint() const
{
    switch (type_) {
      case Type::Uint:
        return uint_;
      case Type::Int:
        if (int_ < 0)
            throw std::runtime_error("json: negative value as uint");
        return static_cast<std::uint64_t>(int_);
      case Type::Double:
        if (dbl_ < 0)
            throw std::runtime_error("json: negative value as uint");
        return static_cast<std::uint64_t>(dbl_);
      default:
        typeError("number", type_);
    }
}

double
Json::asDouble() const
{
    switch (type_) {
      case Type::Double:
        return dbl_;
      case Type::Int:
        return static_cast<double>(int_);
      case Type::Uint:
        return static_cast<double>(uint_);
      default:
        typeError("number", type_);
    }
}

const std::string &
Json::asString() const
{
    if (type_ != Type::String)
        typeError("string", type_);
    return str_;
}

void
Json::push(Json v)
{
    if (type_ == Type::Null)
        type_ = Type::Array;
    if (type_ != Type::Array)
        typeError("array", type_);
    arr_.push_back(std::move(v));
}

std::size_t
Json::size() const
{
    if (type_ == Type::Array)
        return arr_.size();
    if (type_ == Type::Object)
        return obj_.size();
    typeError("array or object", type_);
}

const Json &
Json::operator[](std::size_t i) const
{
    if (type_ != Type::Array)
        typeError("array", type_);
    if (i >= arr_.size())
        throw std::runtime_error("json: array index out of range");
    return arr_[i];
}

const Json::Array &
Json::items() const
{
    if (type_ != Type::Array)
        typeError("array", type_);
    return arr_;
}

Json &
Json::set(std::string key, Json v)
{
    if (type_ == Type::Null)
        type_ = Type::Object;
    if (type_ != Type::Object)
        typeError("object", type_);
    for (auto &[k, existing] : obj_) {
        if (k == key) {
            existing = std::move(v);
            return *this;
        }
    }
    obj_.emplace_back(std::move(key), std::move(v));
    return *this;
}

bool
Json::remove(std::string_view key)
{
    if (type_ != Type::Object)
        return false;
    for (auto it = obj_.begin(); it != obj_.end(); ++it) {
        if (it->first == key) {
            obj_.erase(it);
            return true;
        }
    }
    return false;
}

const Json *
Json::find(std::string_view key) const
{
    if (type_ != Type::Object)
        return nullptr;
    for (const auto &[k, v] : obj_) {
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
    if (type_ != Type::Object)
        typeError("object", type_);
    return obj_;
}

bool
Json::operator==(const Json &other) const
{
    if (isNumber() && other.isNumber()) {
        // Compare across Int/Uint/Double by value.
        if (type_ == Type::Double || other.type_ == Type::Double)
            return asDouble() == other.asDouble();
        const bool neg_a = type_ == Type::Int && int_ < 0;
        const bool neg_b =
            other.type_ == Type::Int && other.int_ < 0;
        if (neg_a != neg_b)
            return false;
        if (neg_a)
            return int_ == other.int_;
        return asUint() == other.asUint();
    }
    if (type_ != other.type_)
        return false;
    switch (type_) {
      case Type::Null:
        return true;
      case Type::Bool:
        return bool_ == other.bool_;
      case Type::String:
        return str_ == other.str_;
      case Type::Array:
        return arr_ == other.arr_;
      case Type::Object:
        return obj_ == other.obj_;
      default:
        return false; // numbers handled above
    }
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
    switch (type_) {
      case Type::Null:
        out += "null";
        break;
      case Type::Bool:
        out += bool_ ? "true" : "false";
        break;
      case Type::Int:
        out.append(buf, std::to_chars(buf, buf + sizeof buf, int_).ptr);
        break;
      case Type::Uint:
        out.append(buf, std::to_chars(buf, buf + sizeof buf, uint_).ptr);
        break;
      case Type::Double:
        if (!std::isfinite(dbl_)) {
            out += "null"; // JSON has no inf/nan
        } else if (dbl_ == std::floor(dbl_) &&
                   std::fabs(dbl_) < 9.0e15) {
            // Keep a fraction marker so the value parses back as a
            // double, not an integer (round-trip type stability).
            std::snprintf(buf, sizeof buf, "%.1f", dbl_);
            out += buf;
        } else {
            std::snprintf(buf, sizeof buf, "%.17g", dbl_);
            out += buf;
        }
        break;
      case Type::String:
        escapeString(out, str_);
        break;
      case Type::Array:
        if (arr_.empty()) {
            out += "[]";
            break;
        }
        out += '[';
        for (std::size_t i = 0; i < arr_.size(); ++i) {
            if (i > 0)
                out += ',';
            if (indent >= 0)
                newlineIndent(out, indent, depth + 1);
            arr_[i].dumpTo(out, indent, depth + 1);
        }
        if (indent >= 0)
            newlineIndent(out, indent, depth);
        out += ']';
        break;
      case Type::Object:
        if (obj_.empty()) {
            out += "{}";
            break;
        }
        out += '{';
        for (std::size_t i = 0; i < obj_.size(); ++i) {
            if (i > 0)
                out += ',';
            if (indent >= 0)
                newlineIndent(out, indent, depth + 1);
            escapeString(out, obj_[i].first);
            out += indent >= 0 ? ": " : ":";
            obj_[i].second.dumpTo(out, indent, depth + 1);
        }
        if (indent >= 0)
            newlineIndent(out, indent, depth);
        out += '}';
        break;
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
