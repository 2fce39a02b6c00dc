/**
 * @file
 * Binary checkpoint archives: one field walk, two directions.
 *
 * Every checkpointed type lists its fields exactly once, in
 *
 *     template <class Self, class A> static bool io(Self &s, A &a);
 *
 * (defined in core/snapshot_io.cc; inline for the header-only
 * primitives SatCounter, Counter, SlotReserver and CalendarQueue).
 * Writing walks it as io(const T &, SnapshotWriter &); reading walks it
 * as io(T &, SnapshotReader &). Both archives offer the same primitives,
 * so the two directions cannot drift apart:
 *
 *   field(x)            a scalar, a string, a std::array of fields, or a
 *                       component with its own io()
 *   bounded(x, lo, hi)  a field whose value must lie in [lo, hi]
 *   shape(v)            a value fixed by the configuration (a table
 *                       size, a counter width, the format version): the
 *                       reader fails unless the payload holds exactly v
 *   fixed(c[, elem])    shape(c.size()), then each element in place
 *   seq(c, max[, elem]) a variable-length sequence of at most max
 *                       elements (vector, SmallVec, map)
 *   optional(o, elem)   a presence flag, then the value if present
 *   check(cond)         a cross-field condition the payload must meet
 *
 * The writer appends and ignores bounds, shapes and checks. The reader
 * replaces dynamic state in a snapshot captured from a processor built
 * with the same configuration (the "donor"), so config-sized containers
 * are shape-verified rather than resized. Any short read or failed
 * check latches the reader's fail flag; later reads then yield zeros,
 * and io() returns ok(). Values later used as indices are bounded, so a
 * malformed payload can only fail the load -- never read or index out
 * of bounds -- and the checkpoint store falls back to recomputing.
 *
 * Encoding, chosen by the field's type: bool and enums one byte (bool
 * strictly 0/1), other unsigned integers their own width, signed
 * integers eight bytes two's complement, doubles their IEEE-754 bit
 * pattern, strings a u64 length then the bytes, sequences a u64 length
 * then the elements. Little-endian, no alignment, no compression.
 * Every payload starts with snapshotFormatVersion; readers reject any
 * other value, which is the "stale checkpoint -> silent recompute"
 * lever (bump the constant whenever the serialized layout or the
 * simulated state it captures changes shape). Integrity (corruption,
 * truncation) is the checkpoint store's job -- it hashes the payload.
 *
 * Determinism: writing the same snapshot twice produces identical
 * bytes. Nothing here consults the host (clocks, pointers, locales);
 * iteration orders are the containers' storage orders, and the only
 * ordered associative container serialized (interval-explore's
 * popularity map) iterates in key order by definition.
 */

#ifndef CLUSTERSIM_CORE_SNAPSHOT_IO_HH
#define CLUSTERSIM_CORE_SNAPSHOT_IO_HH

#include <array>
#include <cstdint>
#include <cstring>
#include <map>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>

namespace clustersim {

/**
 * Version stamp leading every serialized snapshot payload. Bump on any
 * layout change: old blobs then fail to load and are recomputed.
 */
inline constexpr std::uint32_t snapshotFormatVersion = 1;

namespace snapshot_detail {

template <class T>
inline constexpr bool isScalar = std::is_arithmetic_v<T> ||
                                 std::is_enum_v<T>;

template <class T>
struct IsStdArray : std::false_type {};
template <class T, std::size_t N>
struct IsStdArray<std::array<T, N>> : std::true_type {};

/** Bytes a scalar of type T occupies in the payload. */
template <class T>
constexpr std::size_t
wireBytes()
{
    if constexpr (std::is_same_v<T, bool> || std::is_enum_v<T>)
        return 1;
    else if constexpr (std::is_floating_point_v<T> ||
                       std::is_signed_v<T>)
        return 8;
    else
        return sizeof(T);
}

/** A scalar's bit pattern, before truncation to wireBytes<T>(). */
template <class T>
std::uint64_t
toWire(T v)
{
    if constexpr (std::is_floating_point_v<T>) {
        static_assert(sizeof(T) == 8, "doubles travel as 8 bytes");
        std::uint64_t bits;
        std::memcpy(&bits, &v, sizeof(bits));
        return bits;
    } else if constexpr (std::is_enum_v<T> || std::is_same_v<T, bool>) {
        return static_cast<std::uint64_t>(v);
    } else {
        // Signed values sign-extend to 64 bits first.
        return static_cast<std::uint64_t>(
            static_cast<std::conditional_t<std::is_signed_v<T>,
                                           std::int64_t, std::uint64_t>>(
                v));
    }
}

} // namespace snapshot_detail

/** Append-only little-endian byte sink. */
class SnapshotWriter
{
  public:
    template <class T>
    void
    field(const T &v)
    {
        if constexpr (snapshot_detail::isScalar<T>) {
            put(snapshot_detail::toWire(v),
                snapshot_detail::wireBytes<T>());
        } else if constexpr (std::is_same_v<T, std::string>) {
            field(std::uint64_t{v.size()});
            buf_.append(v);
        } else if constexpr (snapshot_detail::IsStdArray<T>::value) {
            for (const auto &e : v)
                field(e);
        } else {
            T::io(v, *this);
        }
    }

    template <class T, class L, class H>
    void
    bounded(const T &v, L, H)
    {
        field(v);
    }

    template <class T>
    void
    shape(const T &v)
    {
        field(v);
    }

    void check(bool) {}

    template <class C, class Fn>
    void
    fixed(const C &c, Fn &&elem)
    {
        seq(c, 0, elem);
    }

    template <class C>
    void
    fixed(const C &c)
    {
        fixed(c, [this](const auto &e) { field(e); });
    }

    template <class C, class Fn>
    void
    seq(const C &c, std::uint64_t, Fn &&elem)
    {
        field(std::uint64_t{c.size()});
        for (const auto &e : c)
            elem(e);
    }

    template <class C>
    void
    seq(const C &c, std::uint64_t max)
    {
        seq(c, max, [this](const auto &e) { field(e); });
    }

    /** Maps pass key and value to elem separately. */
    template <class K, class V, class Fn>
    void
    seq(const std::map<K, V> &m, std::uint64_t, Fn &&elem)
    {
        field(std::uint64_t{m.size()});
        for (const auto &[k, v] : m)
            elem(k, v);
    }

    template <class T, class Fn>
    void
    optional(const std::optional<T> &o, Fn &&elem)
    {
        field(o.has_value());
        if (o)
            elem(*o);
    }

    bool ok() const { return true; }
    std::string take() { return std::move(buf_); }

  private:
    void
    put(std::uint64_t v, std::size_t n)
    {
        char b[8];
        for (std::size_t i = 0; i < n; i++)
            b[i] = static_cast<char>((v >> (8 * i)) & 0xff);
        buf_.append(b, n);
    }

    std::string buf_;
};

/**
 * Bounds-checked little-endian byte source. Any out-of-bounds read or
 * failed check latches the fail flag and later reads yield zeros;
 * callers check ok() (and atEnd(), for trailing garbage) rather than
 * every read.
 */
class SnapshotReader
{
  public:
    explicit SnapshotReader(const std::string &data) : data_(data) {}

    template <class T>
    void
    field(T &v)
    {
        if constexpr (snapshot_detail::isScalar<T>) {
            v = fromWire<T>(get(snapshot_detail::wireBytes<T>()));
        } else if constexpr (std::is_same_v<T, std::string>) {
            std::uint64_t n = 0;
            field(n);
            if (n > maxStringBytes || n > data_.size() - pos_)
                fail_ = true;
            v.clear();
            if (fail_)
                return;
            v = data_.substr(pos_, static_cast<std::size_t>(n));
            pos_ += static_cast<std::size_t>(n);
        } else if constexpr (snapshot_detail::IsStdArray<T>::value) {
            for (auto &e : v)
                field(e);
        } else {
            T::io(v, *this);
        }
    }

    /** Integers and enums only; the full stored value is compared
     *  before it is narrowed to T. */
    template <class T, class L, class H>
    void
    bounded(T &v, L lo, H hi)
    {
        std::uint64_t raw = get(snapshot_detail::wireBytes<T>());
        bool in;
        if constexpr (std::is_signed_v<T>) {
            auto x = static_cast<std::int64_t>(raw);
            in = std::cmp_less_equal(lo, x) && std::cmp_less_equal(x, hi);
        } else {
            in = std::cmp_less_equal(lo, raw) &&
                 std::cmp_less_equal(raw, hi);
        }
        if (!in)
            fail_ = true;
        else
            v = fromWire<T>(raw);
    }

    template <class T>
    void
    shape(const T &expected)
    {
        T v{};
        field(v);
        check(v == expected);
    }

    void
    check(bool cond)
    {
        if (!cond)
            fail_ = true;
    }

    template <class C, class Fn>
    void
    fixed(C &c, Fn &&elem)
    {
        shape(std::uint64_t{c.size()});
        if (fail_)
            return;
        for (auto &e : c)
            elem(e);
    }

    template <class C>
    void
    fixed(C &c)
    {
        fixed(c, [this](auto &e) { field(e); });
    }

    template <class C, class Fn>
    void
    seq(C &c, std::uint64_t max, Fn &&elem)
    {
        c.clear();
        for (std::uint64_t i = 0, n = length(max); i < n && !fail_; ++i) {
            std::decay_t<decltype(*c.begin())> v{};
            elem(v);
            c.push_back(v);
        }
    }

    template <class C>
    void
    seq(C &c, std::uint64_t max)
    {
        seq(c, max, [this](auto &e) { field(e); });
    }

    template <class K, class V, class Fn>
    void
    seq(std::map<K, V> &m, std::uint64_t max, Fn &&elem)
    {
        m.clear();
        for (std::uint64_t i = 0, n = length(max); i < n && !fail_; ++i) {
            K k{};
            V v{};
            elem(k, v);
            m[k] = v;
        }
    }

    template <class T, class Fn>
    void
    optional(std::optional<T> &o, Fn &&elem)
    {
        bool present = false;
        field(present);
        o.reset();
        if (!present || fail_)
            return;
        T v{};
        elem(v);
        o = v;
    }

    bool ok() const { return !fail_; }
    /** All bytes consumed and no read ever failed. */
    bool atEnd() const { return !fail_ && pos_ == data_.size(); }

  private:
    /** Longest string a payload may carry (controller names). */
    static constexpr std::uint64_t maxStringBytes = 4096;

    /** A sequence length; more than max elements is corruption. */
    std::uint64_t
    length(std::uint64_t max)
    {
        std::uint64_t n = 0;
        field(n);
        check(n <= max);
        return fail_ ? 0 : n;
    }

    std::uint64_t
    get(std::size_t n)
    {
        if (fail_ || n > data_.size() - pos_) {
            fail_ = true;
            return 0;
        }
        std::uint64_t v = 0;
        for (std::size_t i = 0; i < n; i++)
            v |= static_cast<std::uint64_t>(
                     static_cast<unsigned char>(data_[pos_ + i]))
                 << (8 * i);
        pos_ += n;
        return v;
    }

    template <class T>
    T
    fromWire(std::uint64_t raw)
    {
        if constexpr (std::is_same_v<T, bool>) {
            check(raw <= 1);  // any other encoding is corruption
            return raw == 1;
        } else if constexpr (std::is_floating_point_v<T>) {
            T v;
            std::memcpy(&v, &raw, sizeof(v));
            return v;
        } else if constexpr (std::is_signed_v<T>) {
            return static_cast<T>(static_cast<std::int64_t>(raw));
        } else {
            return static_cast<T>(raw);
        }
    }

    const std::string &data_;
    std::size_t pos_ = 0;
    bool fail_ = false;
};

} // namespace clustersim

#endif // CLUSTERSIM_CORE_SNAPSHOT_IO_HH
