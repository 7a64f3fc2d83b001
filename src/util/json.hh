/**
 * @file
 * Minimal JSON value type for machine-readable artifacts (campaign
 * manifests, per-job result files, BENCH_*.json).
 *
 * Designed for *deterministic* output: objects preserve insertion
 * order, integers keep their signedness, and doubles are printed in
 * a round-trip-stable form, so serializing the same data always
 * yields byte-identical text — the property the experiment engine's
 * resumable manifests depend on.
 */

#ifndef CGP_UTIL_JSON_HH
#define CGP_UTIL_JSON_HH

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

namespace cgp
{

class Json
{
  public:
    enum class Type : std::uint8_t
    {
        Null,
        Bool,
        Int,    ///< signed 64-bit
        Uint,   ///< unsigned 64-bit
        Double,
        String,
        Array,
        Object
    };

    using Array = std::vector<Json>;
    /** Object member; members() preserves insertion order. */
    using Member = std::pair<std::string, Json>;
    using Object = std::vector<Member>;

    Json() = default;
    Json(std::nullptr_t) {}
    Json(bool b) : v_(b) {}
    Json(int v) : v_(static_cast<std::int64_t>(v)) {}
    Json(long v) : v_(static_cast<std::int64_t>(v)) {}
    Json(long long v) : v_(static_cast<std::int64_t>(v)) {}
    Json(unsigned v) : v_(static_cast<std::uint64_t>(v)) {}
    Json(unsigned long v) : v_(static_cast<std::uint64_t>(v)) {}
    Json(unsigned long long v) : v_(static_cast<std::uint64_t>(v)) {}
    Json(double v) : v_(v) {}
    Json(const char *s) : v_(std::string(s)) {}
    Json(std::string_view s) : v_(std::string(s)) {}
    Json(std::string s) : v_(std::move(s)) {}

    static Json array();
    static Json object();

    Type type() const { return static_cast<Type>(v_.index()); }
    bool isNull() const { return type() == Type::Null; }
    bool isBool() const { return type() == Type::Bool; }
    bool isNumber() const
    {
        return type() == Type::Int || type() == Type::Uint ||
            type() == Type::Double;
    }
    bool isString() const { return type() == Type::String; }
    bool isArray() const { return type() == Type::Array; }
    bool isObject() const { return type() == Type::Object; }

    /// @{ Scalar accessors; throw std::runtime_error on type
    /// mismatch (numbers convert between each other).
    bool asBool() const;
    std::int64_t asInt() const;
    std::uint64_t asUint() const;
    double asDouble() const;
    const std::string &asString() const;
    /// @}

    /// @{ Array interface (converts a Null value to an empty array
    /// on first push).
    void push(Json v);
    std::size_t size() const;
    const Json &operator[](std::size_t i) const;
    const Array &items() const;
    /// @}

    /// @{ Object interface (converts a Null value to an empty object
    /// on first set).  set() replaces an existing key in place so the
    /// member order stays stable; it returns *this for chaining.
    Json &set(std::string key, Json v);
    /** Erase @p key; returns true if a member was removed. */
    bool remove(std::string_view key);
    const Json *find(std::string_view key) const;
    const Json &at(std::string_view key) const;
    bool contains(std::string_view key) const
    {
        return find(key) != nullptr;
    }
    const Object &members() const;
    /// @}

    /**
     * Structural equality.  Numbers compare by value across
     * Int/Uint/Double so a parsed document equals its source value
     * even when a lossless type normalization occurred.
     */
    bool operator==(const Json &other) const;
    bool operator!=(const Json &other) const
    {
        return !(*this == other);
    }

    /**
     * Serialize.  @p indent < 0 yields compact one-line output;
     * otherwise pretty-printed with that many spaces per level.
     * Output is deterministic for equal values built in the same
     * member order.
     */
    std::string dump(int indent = -1) const;

    /** Parse a document; throws std::runtime_error with position. */
    static Json parse(std::string_view text);

  private:
    void dumpTo(std::string &out, int indent, int depth) const;

    /** The active member only, in Type order (index() == type()):
     *  a document node is one string's size plus the tag. */
    std::variant<std::monostate, bool, std::int64_t, std::uint64_t,
                 double, std::string, Array, Object>
        v_;
};

} // namespace cgp

#endif // CGP_UTIL_JSON_HH
