#include "index/compressed_postings.h"

#include <cstring>

#include "common/varint.h"
#include "index/huffman.h"

namespace rtsi::index {
namespace {

// Serialized columns, all varint unless noted:
//   count
//   stream ids   (zigzag delta vs previous)
//   frsh         (delta vs previous; arrival order is non-decreasing)
//   pop          (raw float32 bits, little endian, 4 bytes each)
//   tf           (varint)
// Postings are written in arrival order, which a sealed list reaches
// through its freshness permutation.
std::vector<std::uint8_t> Serialize(const TermPostings& postings) {
  const std::size_t n = postings.size();
  std::vector<std::uint8_t> bytes;
  bytes.reserve(n * 8 + 8);
  PutVarint64(bytes, n);

  std::int64_t prev_stream = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const Posting& p = postings.Arrival(i);
    PutVarint64(bytes,
                ZigZagEncode(static_cast<std::int64_t>(p.stream) -
                             prev_stream));
    prev_stream = static_cast<std::int64_t>(p.stream);
  }
  Timestamp prev_frsh = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const Posting& p = postings.Arrival(i);
    PutVarint64(bytes, static_cast<std::uint64_t>(p.frsh - prev_frsh));
    prev_frsh = p.frsh;
  }
  for (std::size_t i = 0; i < n; ++i) {
    const Posting& p = postings.Arrival(i);
    std::uint32_t bits;
    std::memcpy(&bits, &p.pop, sizeof(bits));
    bytes.push_back(static_cast<std::uint8_t>(bits));
    bytes.push_back(static_cast<std::uint8_t>(bits >> 8));
    bytes.push_back(static_cast<std::uint8_t>(bits >> 16));
    bytes.push_back(static_cast<std::uint8_t>(bits >> 24));
  }
  for (std::size_t i = 0; i < n; ++i) {
    PutVarint64(bytes, postings.Arrival(i).tf);
  }
  return bytes;
}

}  // namespace

CompressedTermPostings CompressedTermPostings::FromPostings(
    const TermPostings& postings) {
  CompressedTermPostings out;
  out.count_ = postings.size();
  out.max_pop_ = postings.max_pop();
  out.max_frsh_ = postings.max_frsh();
  out.max_tf_ = postings.max_tf();
  out.blob_ = HuffmanEncode(Serialize(postings));
  out.blob_.shrink_to_fit();
  return out;
}

TermPostings CompressedTermPostings::Decode() const {
  return DecodeBlob(blob_);
}

TermPostings CompressedTermPostings::DecodeBlob(
    const std::vector<std::uint8_t>& blob) {
  TermPostings postings;
  std::vector<std::uint8_t> bytes;
  if (!HuffmanDecode(blob, bytes)) return postings;

  std::size_t pos = 0;
  std::uint64_t count = 0;
  if (!GetVarint64(bytes.data(), bytes.size(), pos, count)) return postings;

  std::vector<Posting> entries(count);
  std::int64_t prev_stream = 0;
  for (auto& p : entries) {
    std::uint64_t zz = 0;
    if (!GetVarint64(bytes.data(), bytes.size(), pos, zz)) return postings;
    prev_stream += ZigZagDecode(zz);
    p.stream = static_cast<StreamId>(prev_stream);
  }
  Timestamp prev_frsh = 0;
  for (auto& p : entries) {
    std::uint64_t delta = 0;
    if (!GetVarint64(bytes.data(), bytes.size(), pos, delta)) {
      return postings;
    }
    prev_frsh += static_cast<Timestamp>(delta);
    p.frsh = prev_frsh;
  }
  for (auto& p : entries) {
    if (pos + 4 > bytes.size()) return postings;
    std::uint32_t bits = static_cast<std::uint32_t>(bytes[pos]) |
                         (static_cast<std::uint32_t>(bytes[pos + 1]) << 8) |
                         (static_cast<std::uint32_t>(bytes[pos + 2]) << 16) |
                         (static_cast<std::uint32_t>(bytes[pos + 3]) << 24);
    std::memcpy(&p.pop, &bits, sizeof(bits));
    pos += 4;
  }
  for (auto& p : entries) {
    std::uint64_t tf = 0;
    if (!GetVarint64(bytes.data(), bytes.size(), pos, tf)) return postings;
    p.tf = static_cast<TermFreq>(tf);
  }

  for (const Posting& p : entries) postings.Append(p);
  postings.Seal();
  return postings;
}

}  // namespace rtsi::index
