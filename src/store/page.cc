#include "src/store/page.h"

#include "src/common/hash.h"
#include "src/store/codec.h"

namespace xst {

namespace {

constexpr size_t kHeaderSize = 16;  // checksum(8) + slot count(4) + free offset(4)
constexpr size_t kSlotEntrySize = 8;

// Folds the caller's seed into the FNV-1a offset basis. Seed 0 maps to the
// plain basis, so unseeded images keep the historical checksum value.
uint64_t ChecksumBasis(uint64_t seed) {
  return 14695981039346656037ULL ^ (seed * 0x9e3779b97f4a7c15ULL);
}

}  // namespace

Page::Page() = default;

Result<Page> Page::FromBytes(std::string_view bytes, uint64_t seed) {
  if (bytes.size() != kPageSize) {
    return Status::Corruption("page image has wrong size " + std::to_string(bytes.size()));
  }
  uint64_t stored_checksum = DecodeFixed64(bytes.data());
  uint64_t actual = HashBytes(bytes.data() + 8, kPageSize - 8, ChecksumBasis(seed));
  if (stored_checksum != actual) {
    return Status::Corruption("page checksum mismatch");
  }
  Page page;
  page.slot_count_ = DecodeFixed32(bytes.data() + 8);
  page.free_offset_ = DecodeFixed32(bytes.data() + 12);
  size_t dir_end = kHeaderSize + static_cast<size_t>(page.slot_count_) * kSlotEntrySize;
  if (page.slot_count_ > (kPageSize - kHeaderSize) / kSlotEntrySize ||
      page.free_offset_ > kPageSize - dir_end) {
    return Status::Corruption("page header out of bounds");
  }
  page.slots_.reserve(page.slot_count_);
  for (uint32_t i = 0; i < page.slot_count_; ++i) {
    const char* entry = bytes.data() + kHeaderSize + static_cast<size_t>(i) * kSlotEntrySize;
    Slot slot{DecodeFixed32(entry), DecodeFixed32(entry + 4)};
    if (slot.length > 0 &&
        (slot.offset > page.free_offset_ || slot.length > page.free_offset_ - slot.offset)) {
      return Status::Corruption("slot " + std::to_string(i) + " out of bounds");
    }
    page.slots_.push_back(slot);
  }
  page.data_.assign(bytes.substr(dir_end, page.free_offset_));
  return page;
}

std::string Page::ToBytes(uint64_t seed) const {
  std::string body;
  body.reserve(kPageSize - 8);
  PutFixed32(slot_count_, &body);
  PutFixed32(free_offset_, &body);
  for (const Slot& slot : slots_) {
    PutFixed32(slot.offset, &body);
    PutFixed32(slot.length, &body);
  }
  body.append(data_);
  body.resize(kPageSize - 8, '\0');
  std::string out;
  out.reserve(kPageSize);
  PutFixed64(HashBytes(body.data(), body.size(), ChecksumBasis(seed)), &out);
  out.append(body);
  return out;
}

size_t Page::FreeSpace() const {
  size_t used = kHeaderSize + slots_.size() * kSlotEntrySize + data_.size();
  size_t need_for_next = kSlotEntrySize;  // the next record's directory entry
  return used + need_for_next >= kPageSize ? 0 : kPageSize - used - need_for_next;
}

Result<uint32_t> Page::AddRecord(std::string_view record) {
  if (record.empty()) {
    return Status::Invalid("empty records are reserved for tombstones");
  }
  if (record.size() > FreeSpace()) {
    return Status::CapacityError("record of " + std::to_string(record.size()) +
                                 " bytes exceeds page free space " +
                                 std::to_string(FreeSpace()));
  }
  Slot slot{static_cast<uint32_t>(data_.size()), static_cast<uint32_t>(record.size())};
  data_.append(record);
  free_offset_ = static_cast<uint32_t>(data_.size());
  slots_.push_back(slot);
  slot_count_ = static_cast<uint32_t>(slots_.size());
  return slot_count_ - 1;
}

Result<std::string_view> Page::GetRecord(uint32_t slot) const {
  if (slot >= slots_.size()) {
    return Status::OutOfRange("slot " + std::to_string(slot) + " of " +
                              std::to_string(slots_.size()));
  }
  if (slots_[slot].length == 0) {
    return Status::NotFound("slot " + std::to_string(slot) + " is deleted");
  }
  return std::string_view(data_).substr(slots_[slot].offset, slots_[slot].length);
}

Status Page::DeleteRecord(uint32_t slot) {
  if (slot >= slots_.size()) {
    return Status::OutOfRange("slot " + std::to_string(slot) + " of " +
                              std::to_string(slots_.size()));
  }
  slots_[slot].length = 0;
  return Status::OK();
}

}  // namespace xst
