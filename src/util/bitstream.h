#ifndef RPDBSCAN_UTIL_BITSTREAM_H_
#define RPDBSCAN_UTIL_BITSTREAM_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace rpdbscan {

/// Append-only bit stream writer. Bits are packed LSB-first into bytes —
/// the layout used to serialize sub-cell positions, which Lemma 4.3 sizes
/// at d*(h-1) bits each.
class BitWriter {
 public:
  /// Appends the low `bits` bits of `value` (bits <= 64), a byte's worth
  /// of free bits at a time.
  void Write(uint64_t value, unsigned bits) {
    if (bits < 64) value &= (uint64_t{1} << bits) - 1;
    while (bits > 0) {
      if (bit_pos_ == 0) bytes_.push_back(0);
      const unsigned take = 8 - bit_pos_ < bits ? 8 - bit_pos_ : bits;
      bytes_.back() |= static_cast<uint8_t>(value << bit_pos_);
      value >>= take;
      bits -= take;
      bit_pos_ = (bit_pos_ + take) & 7;
    }
  }

  /// Reserves room for `bits` more bits.
  void Reserve(size_t bits) {
    bytes_.reserve(bytes_.size() + (bits + 7) / 8);
  }

  /// Total bits written so far.
  size_t BitCount() const {
    return bytes_.empty() ? 0
                          : (bytes_.size() - 1) * 8 +
                                (bit_pos_ == 0 ? 8 : bit_pos_);
  }

  /// The packed bytes (final partial byte zero-padded).
  const std::vector<uint8_t>& bytes() const { return bytes_; }
  std::vector<uint8_t> TakeBytes() { return std::move(bytes_); }

 private:
  std::vector<uint8_t> bytes_;
  unsigned bit_pos_ = 0;  // next free bit index in bytes_.back()
};

/// Sequential reader over a BitWriter-produced buffer.
class BitReader {
 public:
  BitReader(const uint8_t* data, size_t size_bytes)
      : data_(data), size_bits_(size_bytes * 8) {}

  /// Reads `bits` bits (bits <= 64), a byte's worth of available bits at
  /// a time. Returns 0 bits past the end (callers check Exhausted() /
  /// remaining counts themselves).
  uint64_t Read(unsigned bits) {
    uint64_t value = 0;
    unsigned got = 0;
    while (got < bits && pos_ < size_bits_) {
      const unsigned offset = static_cast<unsigned>(pos_ & 7);
      unsigned take = 8 - offset;
      if (take > bits - got) take = bits - got;
      const uint64_t chunk =
          (static_cast<uint64_t>(data_[pos_ >> 3]) >> offset) &
          ((uint64_t{1} << take) - 1);
      value |= chunk << got;
      got += take;
      pos_ += take;
    }
    return value;
  }

  size_t position_bits() const { return pos_; }
  bool Exhausted() const { return pos_ >= size_bits_; }

 private:
  const uint8_t* data_;
  size_t size_bits_;
  size_t pos_ = 0;
};

}  // namespace rpdbscan

#endif  // RPDBSCAN_UTIL_BITSTREAM_H_
