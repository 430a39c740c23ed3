/**
 * @file
 * Checkpoint support.
 *
 * A Checkpoint is a named collection of scalar key/value entries plus
 * binary blobs (e.g. guest physical memory). It mirrors gem5's
 * checkpointing workflow: the harness boots the system in setup mode,
 * serialises the full state, and each experiment restores from that
 * snapshot before switching to the detailed CPU.
 */

#ifndef SVB_SIM_SERIALIZE_HH
#define SVB_SIM_SERIALIZE_HH

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace svb
{

/**
 * A serialised system snapshot.
 */
class Checkpoint
{
  public:
    /** Store a scalar value under a dotted key. */
    void setScalar(const std::string &key, uint64_t value);

    /** Store a string value under a dotted key. */
    void setString(const std::string &key, const std::string &value);

    /** Store a binary blob under a dotted key. */
    void setBlob(const std::string &key, std::vector<uint8_t> data);

    /** @return the scalar stored under @p key; fatal if missing. */
    uint64_t getScalar(const std::string &key) const;

    /** @return the string stored under @p key; fatal if missing. */
    const std::string &getString(const std::string &key) const;

    /** @return the blob stored under @p key; fatal if missing. */
    const std::vector<uint8_t> &getBlob(const std::string &key) const;

    /** @return true when a scalar exists under @p key. */
    bool hasScalar(const std::string &key) const;

    /** @return true when a string exists under @p key. */
    bool hasString(const std::string &key) const;

    /** @return true when a blob exists under @p key. */
    bool hasBlob(const std::string &key) const;

    /**
     * Drop every scalar, string and blob whose key starts with
     * @p prefix (e.g. to build a checkpoint that lacks a section).
     */
    void erasePrefix(const std::string &prefix);

    /**
     * Write the checkpoint to a file (simple tagged binary format).
     * The write goes to a uniquely named temporary sibling first and
     * is atomically renamed into place, so neither a crash mid-write
     * nor a concurrent writer of the same path can ever leave a
     * truncated or interleaved checkpoint under @p path.
     */
    void saveToFile(const std::string &path) const;

    /** Read a checkpoint previously written by saveToFile(); fatal on
     *  a missing, corrupt or truncated file. */
    static Checkpoint loadFromFile(const std::string &path);

    /**
     * Non-fatal variant of loadFromFile(): validates the magic tag,
     * bounds every length field against the bytes remaining in the
     * file, and rejects trailing garbage. On failure returns
     * std::nullopt and, when @p err is non-null, stores a message
     * naming the offending key.
     */
    static std::optional<Checkpoint>
    tryLoadFromFile(const std::string &path, std::string *err = nullptr);

  private:
    std::map<std::string, uint64_t> scalars;
    std::map<std::string, std::string> strings;
    std::map<std::string, std::vector<uint8_t>> blobs;
};

/**
 * Little-endian encoder for packing structured component state
 * (cache line arrays, TLB entries, ...) into one checkpoint blob
 * instead of thousands of scalar entries.
 */
class BlobWriter
{
  public:
    void
    putU8(uint8_t v)
    {
        buf.push_back(v);
    }

    void
    putU64(uint64_t v)
    {
        for (int i = 0; i < 8; ++i)
            buf.push_back(uint8_t(v >> (8 * i)));
    }

    std::vector<uint8_t> take() { return std::move(buf); }

  private:
    std::vector<uint8_t> buf;
};

/** Bounds-checked reader matching BlobWriter's encoding. */
class BlobReader
{
  public:
    explicit BlobReader(const std::vector<uint8_t> &data) : data(data) {}

    uint8_t getU8();
    uint64_t getU64();
    bool done() const { return pos == data.size(); }
    size_t remaining() const { return data.size() - pos; }

  private:
    const std::vector<uint8_t> &data;
    size_t pos = 0;
};

} // namespace svb

#endif // SVB_SIM_SERIALIZE_HH
