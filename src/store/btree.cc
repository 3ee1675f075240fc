#include "src/store/btree.h"

#include <algorithm>
#include <deque>
#include <iterator>
#include <unordered_set>
#include <utility>

#include "src/common/check.h"
#include "src/common/macros.h"
#include "src/common/thread_pool.h"
#include "src/core/order.h"
#include "src/ops/span_kernels.h"
#include "src/store/codec.h"

namespace xst {

namespace {

constexpr uint8_t kLeafNode = 0x00;
constexpr uint8_t kInternalNode = 0x01;
// First byte of an overflow reference; the codec's value tags stop at 0x04,
// so an entry payload starting with 0xFE is unambiguous.
constexpr uint8_t kOverflowTag = 0xfe;

constexpr size_t kPageHeaderBytes = 16;  // checksum + slot count + free offset
constexpr size_t kSlotBytes = 8;         // per-record directory cost
// Header record budget: kind byte + varint(next+1) ≤ 6 payload bytes.
constexpr size_t kNodeHeaderBudget = kSlotBytes + 8;
/// Bytes available for entry records (slot cost included) on one node page.
constexpr size_t kNodeCapacity = kPageSize - kPageHeaderBytes - kNodeHeaderBudget;
/// Non-root nodes keep at least this many bytes of entries. A quarter page:
/// large enough that splits (which cut at the byte midpoint of an overfull
/// node) and borrows (bounded below by one entry over the floor) always
/// land both halves at or above it.
constexpr size_t kMinNodeFill = kNodeCapacity / 4;
/// Descent bound (local alias): see kMaxBTreeHeight.
constexpr uint32_t kMaxHeight = kMaxBTreeHeight;

size_t VarintLen(uint64_t v) {
  size_t n = 1;
  while (v >= 0x80) {
    v >>= 7;
    ++n;
  }
  return n;
}

Status Corrupt(uint32_t page_id, const std::string& what) {
  return Status::Corruption("btree page " + std::to_string(page_id) + ": " + what);
}

/// One internal-node entry: child pointer plus the exact minimum membership
/// of the child's subtree (as an entry payload, inline or overflow ref).
struct ChildEntry {
  uint32_t child = kInvalidPageId;
  std::string key;
};

/// A decoded node image. Mutation rewrites the whole page from one of
/// these, so the in-memory form is the unit of all structural edits.
struct Node {
  bool leaf = true;
  uint32_t next = kInvalidPageId;   // leaves: right sibling, or none
  std::vector<std::string> members; // leaf entry payloads
  std::vector<ChildEntry> children; // internal entries

  size_t entry_count() const { return leaf ? members.size() : children.size(); }

  /// Entry i's key payload (the search accessor; see Search).
  Result<std::string_view> Key(size_t i) const {
    return std::string_view(leaf ? members[i] : children[i].key);
  }

  size_t used_bytes() const {
    size_t total = 0;
    if (leaf) {
      for (const std::string& e : members) total += kSlotBytes + e.size();
    } else {
      for (const ChildEntry& e : children) {
        total += kSlotBytes + VarintLen(e.child) + e.key.size();
      }
    }
    return total;
  }
};

/// Splits an internal-node record into its child page and key payload.
Status SplitChildRecord(uint32_t page_id, std::string_view record, uint32_t* child,
                        std::string_view* key) {
  size_t pos = 0;
  uint64_t raw = 0;
  if (!GetVarint(record, &pos, &raw) || raw > kInvalidPageId || pos >= record.size()) {
    return Corrupt(page_id, "malformed internal entry");
  }
  *child = static_cast<uint32_t>(raw);
  *key = record.substr(pos);
  return Status::OK();
}

/// A read-only view of one node page snapshot, and the one node parser:
/// Parse checks the header once, then entries are served in place as
/// string_views through the page's slot directory. The page must outlive
/// the view unmodified.
class NodeView {
 public:
  Status Parse(uint32_t page_id, const Page& page) {
    page_ = &page;
    page_id_ = page_id;
    if (page.slot_count() == 0) return Corrupt(page_id, "missing node header");
    Result<std::string_view> header = page.GetRecord(0);
    if (!header.ok()) return Corrupt(page_id, "unreadable node header");
    uint8_t kind = static_cast<uint8_t>((*header)[0]);
    if (kind != kLeafNode && kind != kInternalNode) {
      return Corrupt(page_id, "unknown node kind " + std::to_string(kind));
    }
    leaf_ = kind == kLeafNode;
    next_ = kInvalidPageId;
    if (leaf_) {
      size_t offset = 1;
      uint64_t next_plus_1 = 0;
      if (!GetVarint(*header, &offset, &next_plus_1) || offset != header->size() ||
          next_plus_1 > kInvalidPageId) {
        return Corrupt(page_id, "malformed leaf header");
      }
      if (next_plus_1 != 0) next_ = static_cast<uint32_t>(next_plus_1 - 1);
    } else if (header->size() != 1) {
      return Corrupt(page_id, "malformed internal header");
    }
    return Status::OK();
  }

  uint32_t page_id() const { return page_id_; }
  bool leaf() const { return leaf_; }
  uint32_t next() const { return next_; }
  size_t entry_count() const { return page_->slot_count() - 1; }

  /// Entry i's record: a leaf entry payload, or varint(child) ‖ key.
  Result<std::string_view> Record(size_t i) const {
    Result<std::string_view> record = page_->GetRecord(static_cast<uint32_t>(i + 1));
    if (!record.ok()) return Corrupt(page_id_, "unreadable entry record");
    return record;
  }

  /// Entry i's key payload (the search accessor; see Search).
  Result<std::string_view> Key(size_t i) const {
    XST_ASSIGN_OR_RAISE(std::string_view record, Record(i));
    if (leaf_) return record;
    uint32_t child = kInvalidPageId;
    std::string_view key;
    XST_RETURN_NOT_OK(SplitChildRecord(page_id_, record, &child, &key));
    return key;
  }

  /// Internal entry i's child page.
  Result<uint32_t> Child(size_t i) const {
    XST_ASSIGN_OR_RAISE(std::string_view record, Record(i));
    uint32_t child = kInvalidPageId;
    std::string_view key;
    XST_RETURN_NOT_OK(SplitChildRecord(page_id_, record, &child, &key));
    return child;
  }

 private:
  const Page* page_ = nullptr;
  uint32_t page_id_ = kInvalidPageId;
  bool leaf_ = true;
  uint32_t next_ = kInvalidPageId;
};

// Encodes `node` into a fresh page and writes it whole. The page goes in
// under its shard latch, so a concurrent optimistic reader copies either the
// whole old page or the whole new one (its epoch validation then rejects the
// new one).
Status WriteNode(Pager& pager, uint32_t page_id, const Node& node) {
  Page page;
  std::string header(1, static_cast<char>(node.leaf ? kLeafNode : kInternalNode));
  if (node.leaf) {
    PutVarint(node.next == kInvalidPageId ? 0 : static_cast<uint64_t>(node.next) + 1,
              &header);
  }
  XST_RETURN_NOT_OK(page.AddRecord(header).status());
  if (node.leaf) {
    for (const std::string& e : node.members) {
      XST_RETURN_NOT_OK(page.AddRecord(e).status());
    }
  } else {
    for (const ChildEntry& e : node.children) {
      std::string record;
      PutVarint(e.child, &record);
      record += e.key;
      XST_RETURN_NOT_OK(page.AddRecord(record).status());
    }
  }
  return pager.WritePage(page_id, std::move(page));
}

Result<uint32_t> AllocateNode(Pager& pager, const Node& node) {
  XST_ASSIGN_OR_RAISE(uint32_t page_id, pager.AllocatePage());
  XST_RETURN_NOT_OK(WriteNode(pager, page_id, node));
  return page_id;
}

/// Copies a node into the vector form mutations and Validate work on.
Status ReadNode(Pager& pager, uint32_t page_id, Node* node) {
  // Snapshot read: safe on the concurrent optimistic read path (the copy is
  // taken under the page's shard latch).
  Page snapshot;
  XST_RETURN_NOT_OK(pager.ReadPageSnapshot(page_id, &snapshot));
  NodeView view;
  XST_RETURN_NOT_OK(view.Parse(page_id, snapshot));
  node->leaf = view.leaf();
  node->next = view.next();
  node->members.clear();
  node->children.clear();
  for (size_t i = 0; i < view.entry_count(); ++i) {
    XST_ASSIGN_OR_RAISE(std::string_view record, view.Record(i));
    if (node->leaf) {
      node->members.emplace_back(record);
      continue;
    }
    ChildEntry entry;
    std::string_view key;
    XST_RETURN_NOT_OK(SplitChildRecord(page_id, record, &entry.child, &key));
    entry.key.assign(key);
    node->children.push_back(std::move(entry));
  }
  return Status::OK();
}

/// Encodes a membership as an entry payload, spilling to overflow pages
/// when the encoding exceeds kMaxInlineEntry.
Result<std::string> EncodeEntry(Pager& pager, const Membership& m) {
  std::string bytes;
  EncodeXSet(m.element, &bytes);
  EncodeXSet(m.scope, &bytes);
  if (bytes.size() <= kMaxInlineEntry) return bytes;
  XST_ASSIGN_OR_RAISE(internal::PageSpan span, internal::WritePageSpan(pager, bytes));
  std::string ref(1, static_cast<char>(kOverflowTag));
  PutVarint(span.first_page, &ref);
  PutVarint(span.pages, &ref);
  PutVarint(span.byte_length, &ref);
  return ref;
}

/// The encoded membership an entry payload stands for: the payload itself
/// when inline, or the overflow chain it references, read into *buffer.
Result<std::string_view> ResolveEntry(Pager& pager, std::string_view payload,
                                      std::string* buffer) {
  if (payload.empty()) return Status::Corruption("btree: empty entry payload");
  if (static_cast<uint8_t>(payload[0]) != kOverflowTag) return payload;
  size_t pos = 1;
  uint64_t first = 0, pages = 0, length = 0;
  if (!GetVarint(payload, &pos, &first) || !GetVarint(payload, &pos, &pages) ||
      !GetVarint(payload, &pos, &length) || pos != payload.size()) {
    return Status::Corruption("btree: malformed overflow reference");
  }
  XST_RETURN_NOT_OK(internal::ValidatePageSpan(
      "btree overflow reference", static_cast<int64_t>(first), static_cast<int64_t>(pages),
      static_cast<int64_t>(length), pager.page_count()));
  const internal::PageSpan span{static_cast<uint32_t>(first),
                                static_cast<uint32_t>(pages), length};
  XST_RETURN_NOT_OK(internal::ReadPageSpan(pager, span, buffer));
  return std::string_view(*buffer);
}

/// Decodes resolved entry bytes (see ResolveEntry) into a membership.
Result<Membership> DecodeEntryBytes(std::string_view bytes) {
  size_t offset = 0;
  XST_ASSIGN_OR_RAISE(XSet element, DecodeXSet(bytes, &offset));
  XST_ASSIGN_OR_RAISE(XSet scope, DecodeXSet(bytes, &offset));
  if (offset != bytes.size()) {
    return Status::Corruption("btree: trailing bytes after entry");
  }
  return Membership{std::move(element), std::move(scope)};
}

Result<Membership> DecodeEntry(Pager& pager, std::string_view payload) {
  std::string overflow;
  XST_ASSIGN_OR_RAISE(std::string_view bytes, ResolveEntry(pager, payload, &overflow));
  return DecodeEntryBytes(bytes);
}

/// What a search orders entries against: a whole membership, or, with a
/// null scope, the ghost ⟨element, -∞⟩ that precedes every membership with
/// that element (the lower edge of an element interval).
struct SearchKey {
  const XSet* element = nullptr;
  const XSet* scope = nullptr;

  static SearchKey Of(const Membership& m) { return SearchKey{&m.element, &m.scope}; }
};

/// Three-way order of resolved entry bytes against `key`, compared in
/// their encoded form (nothing is decoded or interned).
Result<int> CompareEntryBytes(std::string_view bytes, const SearchKey& key) {
  size_t offset = 0;
  int cmp = 0;
  XST_RETURN_NOT_OK(CompareEncoded(bytes, &offset, *key.element, &cmp));
  if (cmp != 0) return cmp;
  if (key.scope == nullptr) return 1;  // ⟨element, s⟩ follows the ghost
  XST_RETURN_NOT_OK(CompareEncoded(bytes, &offset, *key.scope, &cmp));
  if (cmp == 0 && offset != bytes.size()) {
    return Status::Corruption("btree: trailing bytes after entry");
  }
  return cmp;
}

/// Where a key falls among a node's ascending entries.
struct SearchResult {
  size_t index = 0;    // the first entry ≥ the key (entry_count() if none)
  bool equal = false;  // that entry equals the key

  /// The child to descend into: the last whose minimum key is ≤ the key,
  /// clamped to 0 when the key precedes the whole subtree.
  size_t child() const { return equal || index == 0 ? index : index - 1; }
};

/// The one binary search, over any node form with entry_count() and a
/// Key(i) accessor (a NodeView searches its page snapshot in place).
template <typename NodeT>
Result<SearchResult> Search(Pager& pager, const NodeT& node, const SearchKey& key) {
  std::string overflow;
  const size_t n = node.entry_count();
  size_t lo = 0, hi = n;
  int hi_cmp = 1;  // the order of the entry at hi against the key
  while (lo < hi) {
    size_t mid = lo + (hi - lo) / 2;
    XST_ASSIGN_OR_RAISE(std::string_view payload, node.Key(mid));
    XST_ASSIGN_OR_RAISE(std::string_view bytes, ResolveEntry(pager, payload, &overflow));
    XST_ASSIGN_OR_RAISE(int cmp, CompareEntryBytes(bytes, key));
    if (cmp < 0) {
      lo = mid + 1;
    } else {
      hi = mid;
      hi_cmp = cmp;
    }
  }
  return SearchResult{lo, lo < n && hi_cmp == 0};
}

/// Root-to-leaf descent toward `key`, or down the leftmost spine when key
/// is null, searching each node's snapshot in place. One Page serves every
/// level (the copy-assign reuses its buffers); on success it holds the
/// leaf's snapshot, which `*view` parses.
Status DescendToLeaf(Pager& pager, uint32_t root, const SearchKey* key, Page* page,
                     NodeView* view) {
  uint32_t page_id = root;
  for (uint32_t depth = 0; depth <= kMaxHeight; ++depth) {
    XST_RETURN_NOT_OK(pager.ReadPageSnapshot(page_id, page));
    XST_RETURN_NOT_OK(view->Parse(page_id, *page));
    if (view->leaf()) return Status::OK();
    if (view->entry_count() == 0) {
      return Corrupt(page_id, "internal node has no children");
    }
    size_t idx = 0;
    if (key != nullptr) {
      XST_ASSIGN_OR_RAISE(SearchResult at, Search(pager, *view, *key));
      idx = at.child();
    }
    XST_ASSIGN_OR_RAISE(page_id, view->Child(idx));
  }
  return Corrupt(root, "descent exceeds max height");
}

/// One copied leaf of a range read and the entries [begin, end) it serves.
struct LeafRun {
  NodeView view;
  size_t begin = 0;
  size_t end = 0;

  size_t size() const { return end - begin; }
};

/// What one decode chunk of a range read produced: its members in order,
/// ended by the first error it met, by the first entry past the upper
/// bound, or by the chunk's end.
struct DecodedRun {
  std::vector<Membership> members;
  Status status;
  bool past_hi = false;
};

/// Whether resolved entry bytes hold an element past `hi`, compared in
/// encoded form, so an entry past the bound is never decoded.
Result<bool> PastHi(std::string_view bytes, const XSet& hi) {
  size_t offset = 0;
  int cmp = 0;
  XST_RETURN_NOT_OK(CompareEncoded(bytes, &offset, hi, &cmp));
  return cmp > 0;
}

/// Whether leaf entry i's element is past `hi`.
Result<bool> EntryPastHi(Pager& pager, const NodeView& leaf, size_t i, const XSet& hi) {
  std::string overflow;
  XST_ASSIGN_OR_RAISE(std::string_view payload, leaf.Record(i));
  XST_ASSIGN_OR_RAISE(std::string_view bytes, ResolveEntry(pager, payload, &overflow));
  return PastHi(bytes, hi);
}

/// Decodes members [b, e) of a range read, numbered across `runs` from
/// `starts`, into dst->members. Every run but the last ends within `hi`,
/// so only the last run's entries are checked against it; the first entry
/// past it sets dst->past_hi and ends the chunk.
Status DecodeRuns(Pager& pager, const std::vector<LeafRun>& runs,
                  const std::vector<size_t>& starts, const XSet* hi, size_t b, size_t e,
                  DecodedRun* dst) {
  size_t k = static_cast<size_t>(std::upper_bound(starts.begin(), starts.end(), b) -
                                 starts.begin()) - 1;
  std::string overflow;
  dst->members.reserve(dst->members.size() + (e - b));
  for (size_t i = b; i < e; ++i) {
    while (i - starts[k] >= runs[k].size()) ++k;
    const LeafRun& run = runs[k];
    XST_ASSIGN_OR_RAISE(std::string_view payload, run.view.Record(run.begin + i - starts[k]));
    XST_ASSIGN_OR_RAISE(std::string_view bytes, ResolveEntry(pager, payload, &overflow));
    if (hi != nullptr && k + 1 == runs.size()) {
      XST_ASSIGN_OR_RAISE(bool past, PastHi(bytes, *hi));
      if (past) {
        dst->past_hi = true;
        return Status::OK();
      }
    }
    XST_ASSIGN_OR_RAISE(Membership m, DecodeEntryBytes(bytes));
    dst->members.push_back(std::move(m));
  }
  return Status::OK();
}

/// Byte-midpoint split index: entries [0, cut) stay, [cut, n) move right.
/// Both halves keep at least one entry; on an overfull node both halves
/// land at or above kMinNodeFill (see header comment).
size_t SplitIndex(size_t total_bytes, const std::vector<size_t>& costs) {
  size_t acc = 0;
  size_t cut = costs.size() - 1;
  for (size_t i = 0; i + 1 < costs.size(); ++i) {
    acc += costs[i];
    if (acc >= total_bytes / 2) {
      cut = i + 1;
      break;
    }
  }
  return std::max<size_t>(1, cut);
}

std::vector<size_t> LeafCosts(const Node& node) {
  std::vector<size_t> costs;
  costs.reserve(node.members.size());
  for (const std::string& e : node.members) costs.push_back(kSlotBytes + e.size());
  return costs;
}

std::vector<size_t> InternalCosts(const Node& node) {
  std::vector<size_t> costs;
  costs.reserve(node.children.size());
  for (const ChildEntry& e : node.children) {
    costs.push_back(kSlotBytes + VarintLen(e.child) + e.key.size());
  }
  return costs;
}

/// What a recursive mutation reports to its parent.
struct ChildReport {
  std::string min_key;  // the node's min entry payload after the mutation
  bool min_changed = false;
  bool split = false;                     // insert only
  uint32_t right_page = kInvalidPageId;   //   new right sibling
  std::string right_key;                  //   its min entry payload
  bool underflow = false;                 // erase only
};

struct TreeOps {
  Pager& pager;

  Result<bool> InsertRec(uint32_t page_id, const Membership& m, uint32_t depth,
                         ChildReport* report);
  Result<bool> EraseRec(uint32_t page_id, const Membership& m, uint32_t depth,
                        ChildReport* report);
  Status FixUnderflow(Node* parent, size_t needy_idx);
};

Result<bool> TreeOps::InsertRec(uint32_t page_id, const Membership& m, uint32_t depth,
                                ChildReport* report) {
  if (depth > kMaxHeight) return Corrupt(page_id, "descent exceeds max height");
  Node node;
  XST_RETURN_NOT_OK(ReadNode(pager, page_id, &node));
  if (!node.leaf && node.children.empty()) {
    return Corrupt(page_id, "internal node has no children");
  }
  XST_ASSIGN_OR_RAISE(SearchResult at, Search(pager, node, SearchKey::Of(m)));

  if (node.leaf) {
    if (at.equal) return false;
    // Encode only once the member is known to be new: an overflow entry
    // writes its page span here, so a duplicate insert dirties nothing.
    XST_ASSIGN_OR_RAISE(std::string entry, EncodeEntry(pager, m));
    const size_t idx = at.index;
    node.members.insert(node.members.begin() + idx, std::move(entry));
    report->min_changed = idx == 0;
    if (node.used_bytes() <= kNodeCapacity) {
      XST_RETURN_NOT_OK(WriteNode(pager, page_id, node));
      report->min_key = node.members.front();
      return true;
    }
    size_t cut = SplitIndex(node.used_bytes(), LeafCosts(node));
    Node right;
    right.leaf = true;
    right.next = node.next;
    right.members.assign(node.members.begin() + cut, node.members.end());
    XST_ASSIGN_OR_RAISE(uint32_t right_id, AllocateNode(pager, right));
    node.members.resize(cut);
    node.next = right_id;
    XST_RETURN_NOT_OK(WriteNode(pager, page_id, node));
    report->split = true;
    report->right_page = right_id;
    report->right_key = right.members.front();
    report->min_key = node.members.front();
    return true;
  }

  const size_t idx = at.child();
  ChildReport child;
  XST_ASSIGN_OR_RAISE(
      bool inserted, InsertRec(node.children[idx].child, m, depth + 1, &child));
  if (!inserted) return false;
  if (child.min_changed) node.children[idx].key = child.min_key;
  if (child.split) {
    node.children.insert(node.children.begin() + idx + 1,
                         ChildEntry{child.right_page, child.right_key});
  }
  report->min_changed = child.min_changed && idx == 0;
  if (child.min_changed || child.split) {
    if (node.used_bytes() > kNodeCapacity) {
      size_t cut = SplitIndex(node.used_bytes(), InternalCosts(node));
      Node right;
      right.leaf = false;
      right.children.assign(node.children.begin() + cut, node.children.end());
      XST_ASSIGN_OR_RAISE(uint32_t right_id, AllocateNode(pager, right));
      node.children.resize(cut);
      XST_RETURN_NOT_OK(WriteNode(pager, page_id, node));
      report->split = true;
      report->right_page = right_id;
      report->right_key = right.children.front().key;
      report->min_key = node.children.front().key;
      return true;
    }
    XST_RETURN_NOT_OK(WriteNode(pager, page_id, node));
  }
  report->split = false;
  report->min_key = node.children.front().key;
  return true;
}

Status TreeOps::FixUnderflow(Node* parent, size_t needy_idx) {
  // A non-root internal node holds ≥ 2 entries (kMinNodeFill exceeds one
  // maximal entry cost), so a sibling under the same parent always exists.
  XST_CHECK(parent->children.size() >= 2);
  size_t left_idx = needy_idx > 0 ? needy_idx - 1 : needy_idx;
  size_t right_idx = left_idx + 1;
  uint32_t left_id = parent->children[left_idx].child;
  uint32_t right_id = parent->children[right_idx].child;
  Node left, right;
  XST_RETURN_NOT_OK(ReadNode(pager, left_id, &left));
  XST_RETURN_NOT_OK(ReadNode(pager, right_id, &right));
  if (left.leaf != right.leaf) return Corrupt(right_id, "sibling level mismatch");

  if (left.used_bytes() + right.used_bytes() <= kNodeCapacity) {
    // Merge right into left; the right page becomes garbage until Compact.
    if (left.leaf) {
      left.members.insert(left.members.end(), right.members.begin(),
                          right.members.end());
      left.next = right.next;
    } else {
      left.children.insert(left.children.end(), right.children.begin(),
                           right.children.end());
    }
    XST_RETURN_NOT_OK(WriteNode(pager, left_id, left));
    parent->children.erase(parent->children.begin() + right_idx);
    // Refresh the surviving entry's key: when the LEFT side was the emptied
    // node, the merged minimum is the right sibling's old minimum.
    if (left.entry_count() == 0) return Corrupt(left_id, "merge produced empty node");
    parent->children[left_idx].key =
        left.leaf ? left.members.front() : left.children.front().key;
    return Status::OK();
  }

  // Borrow across the boundary until the needy side reaches the floor. The
  // donor stays above the floor: it was too byte-rich to merge, and each
  // move transfers at most one entry past the needy side's deficit.
  bool needy_is_left = needy_idx == left_idx;
  Node& needy = needy_is_left ? left : right;
  Node& donor = needy_is_left ? right : left;
  while (needy.used_bytes() < kMinNodeFill && donor.entry_count() > 1) {
    if (left.leaf) {
      if (needy_is_left) {
        needy.members.push_back(std::move(donor.members.front()));
        donor.members.erase(donor.members.begin());
      } else {
        needy.members.insert(needy.members.begin(), std::move(donor.members.back()));
        donor.members.pop_back();
      }
    } else {
      if (needy_is_left) {
        needy.children.push_back(std::move(donor.children.front()));
        donor.children.erase(donor.children.begin());
      } else {
        needy.children.insert(needy.children.begin(),
                              std::move(donor.children.back()));
        donor.children.pop_back();
      }
    }
  }
  XST_RETURN_NOT_OK(WriteNode(pager, left_id, left));
  XST_RETURN_NOT_OK(WriteNode(pager, right_id, right));
  // Borrowing moves entries across the boundary, so refresh both keys (the
  // left one matters when the left side was the emptied node).
  if (left.entry_count() == 0 || right.entry_count() == 0) {
    return Corrupt(left_id, "borrow produced empty node");
  }
  parent->children[left_idx].key =
      left.leaf ? left.members.front() : left.children.front().key;
  parent->children[right_idx].key =
      right.leaf ? right.members.front() : right.children.front().key;
  return Status::OK();
}

Result<bool> TreeOps::EraseRec(uint32_t page_id, const Membership& m, uint32_t depth,
                               ChildReport* report) {
  if (depth > kMaxHeight) return Corrupt(page_id, "descent exceeds max height");
  Node node;
  XST_RETURN_NOT_OK(ReadNode(pager, page_id, &node));
  if (!node.leaf && node.children.empty()) {
    return Corrupt(page_id, "internal node has no children");
  }
  XST_ASSIGN_OR_RAISE(SearchResult at, Search(pager, node, SearchKey::Of(m)));

  if (node.leaf) {
    if (!at.equal) return false;
    const size_t idx = at.index;
    node.members.erase(node.members.begin() + idx);
    XST_RETURN_NOT_OK(WriteNode(pager, page_id, node));
    report->min_changed = idx == 0;
    report->underflow = node.used_bytes() < kMinNodeFill;
    if (!node.members.empty()) report->min_key = node.members.front();
    return true;
  }

  const size_t idx = at.child();
  ChildReport child;
  XST_ASSIGN_OR_RAISE(bool erased,
                      EraseRec(node.children[idx].child, m, depth + 1, &child));
  if (!erased) return false;
  const std::string old_front_key = node.children.front().key;
  if (child.min_changed && !child.min_key.empty()) {
    node.children[idx].key = child.min_key;
  }
  if (child.underflow) {
    XST_RETURN_NOT_OK(FixUnderflow(&node, idx));
  }
  if (child.min_changed || child.underflow) {
    XST_RETURN_NOT_OK(WriteNode(pager, page_id, node));
  }
  // Byte-compare the front key: canonical encodings make equal memberships
  // byte-equal, so this over-approximates at worst (a re-encoded overflow
  // ref), which only costs a harmless parent key rewrite.
  report->min_changed = node.children.front().key != old_front_key;
  report->underflow = node.used_bytes() < kMinNodeFill;
  report->min_key = node.children.front().key;
  return true;
}

}  // namespace

Result<BTreeInfo> BTree::Build(Pager& pager, std::span<const Membership> members) {
  XST_DCHECK(IsCanonicalMemberList(members));
  // Encode every entry first (overflow chains are written as encountered),
  // then pack levels bottom-up. Each level chunks greedily by bytes and
  // rebalances the last two groups so no non-root node lands under the
  // fill floor.
  struct Pending {
    uint32_t page = kInvalidPageId;
    std::string key;
  };
  std::vector<std::string> entries;
  entries.reserve(members.size());
  for (const Membership& m : members) {
    XST_ASSIGN_OR_RAISE(std::string entry, EncodeEntry(pager, m));
    entries.push_back(std::move(entry));
  }

  // Group a level's entries by byte budget; returns group boundaries.
  auto chunk = [](const std::vector<size_t>& costs) {
    std::vector<size_t> bounds;  // exclusive end of each group
    size_t acc = 0;
    for (size_t i = 0; i < costs.size(); ++i) {
      if (acc > 0 && acc + costs[i] > kNodeCapacity) {
        bounds.push_back(i);
        acc = 0;
      }
      acc += costs[i];
    }
    bounds.push_back(costs.size());
    // Rebalance the tail: move entries from the penultimate group until the
    // last one reaches the floor (the penultimate was near-full, so it
    // stays comfortably above it).
    if (bounds.size() >= 2) {
      size_t last_start = bounds[bounds.size() - 2];
      size_t last_bytes = 0;
      for (size_t i = last_start; i < costs.size(); ++i) last_bytes += costs[i];
      while (last_bytes < kMinNodeFill && last_start > 0 &&
             (bounds.size() < 3 || last_start > bounds[bounds.size() - 3] + 1)) {
        --last_start;
        last_bytes += costs[last_start];
      }
      bounds[bounds.size() - 2] = last_start;
      if (last_start == 0) bounds.erase(bounds.begin());
    }
    return bounds;
  };

  BTreeInfo info;
  info.member_count = members.size();

  // Leaf level.
  std::vector<size_t> costs;
  costs.reserve(entries.size());
  for (const std::string& e : entries) costs.push_back(kSlotBytes + e.size());
  std::vector<size_t> bounds = costs.empty() ? std::vector<size_t>{0} : chunk(costs);
  std::vector<uint32_t> pages(bounds.size());
  for (size_t g = 0; g < bounds.size(); ++g) {
    XST_ASSIGN_OR_RAISE(pages[g], pager.AllocatePage());
  }
  std::vector<Pending> level(bounds.size());
  size_t start = 0;
  for (size_t g = 0; g < bounds.size(); ++g) {
    Node leaf;
    leaf.leaf = true;
    leaf.next = g + 1 < pages.size() ? pages[g + 1] : kInvalidPageId;
    leaf.members.assign(entries.begin() + start, entries.begin() + bounds[g]);
    XST_RETURN_NOT_OK(WriteNode(pager, pages[g], leaf));
    level[g].page = pages[g];
    if (!leaf.members.empty()) level[g].key = leaf.members.front();
    start = bounds[g];
  }
  info.height = 1;

  // Internal levels until a single root remains.
  while (level.size() > 1) {
    costs.clear();
    for (const Pending& p : level) {
      costs.push_back(kSlotBytes + VarintLen(p.page) + p.key.size());
    }
    bounds = chunk(costs);
    std::vector<Pending> upper(bounds.size());
    start = 0;
    for (size_t g = 0; g < bounds.size(); ++g) {
      Node internal;
      internal.leaf = false;
      for (size_t i = start; i < bounds[g]; ++i) {
        internal.children.push_back(ChildEntry{level[i].page, level[i].key});
      }
      XST_ASSIGN_OR_RAISE(uint32_t id, AllocateNode(pager, internal));
      upper[g].page = id;
      upper[g].key = internal.children.front().key;
      start = bounds[g];
    }
    level = std::move(upper);
    ++info.height;
  }
  info.root = level.front().page;
  return info;
}

Result<bool> BTree::Insert(const Membership& m) {
  TreeOps ops{*pager_};
  ChildReport report;
  XST_ASSIGN_OR_RAISE(bool inserted, ops.InsertRec(info_.root, m, 0, &report));
  if (!inserted) return false;
  if (report.split) {
    Node root;
    root.leaf = false;
    root.children.push_back(ChildEntry{info_.root, report.min_key});
    root.children.push_back(ChildEntry{report.right_page, report.right_key});
    XST_ASSIGN_OR_RAISE(info_.root, AllocateNode(*pager_, root));
    ++info_.height;
  }
  ++info_.member_count;
  return true;
}

Result<bool> BTree::Erase(const Membership& m) {
  TreeOps ops{*pager_};
  ChildReport report;
  XST_ASSIGN_OR_RAISE(bool erased, ops.EraseRec(info_.root, m, 0, &report));
  if (!erased) return false;
  --info_.member_count;
  // Collapse single-child internal roots (the mirror of root growth); the
  // abandoned root pages are garbage until Compact.
  for (uint32_t guard = 0; guard <= kMaxHeight; ++guard) {
    Node root;
    XST_RETURN_NOT_OK(ReadNode(*pager_, info_.root, &root));
    if (root.leaf || root.children.size() != 1) break;
    info_.root = root.children.front().child;
    --info_.height;
  }
  return true;
}

Result<bool> BTree::Contains(const Membership& m) const {
  const SearchKey key = SearchKey::Of(m);
  Page page;
  NodeView leaf;
  XST_RETURN_NOT_OK(DescendToLeaf(*pager_, info_.root, &key, &page, &leaf));
  XST_ASSIGN_OR_RAISE(SearchResult at, Search(*pager_, leaf, key));
  return at.equal;
}

Status BTree::ReadRange(const XSet* lo, const XSet* hi,
                        std::vector<Membership>* out) const {
  Pager& pager = *pager_;
  // Seek: the ghost key ⟨lo, -∞⟩ lands on the first entry whose element is
  // ≥ lo, which may be past its leaf's last entry.
  const SearchKey lo_key{lo, nullptr};
  std::deque<Page> pages(1);  // stable addresses for the runs' views
  NodeView leaf;
  XST_RETURN_NOT_OK(DescendToLeaf(pager, info_.root, lo != nullptr ? &lo_key : nullptr,
                                  &pages.back(), &leaf));
  size_t begin = 0;
  if (lo != nullptr) {
    XST_ASSIGN_OR_RAISE(SearchResult at, Search(pager, leaf, lo_key));
    begin = at.index;
  }

  // Walk: copy leaves along the chain until one whose last entry passes hi.
  // A failure here comes after every copied entry in member order, so it
  // is reported only if they all decode within hi.
  std::vector<LeafRun> runs;
  Status walk;
  for (;;) {
    runs.push_back(LeafRun{leaf, begin, leaf.entry_count()});
    if (hi != nullptr && begin < leaf.entry_count()) {
      // On an error this leaf is the last one copied: its decode meets the
      // bound or the same error in member order.
      Result<bool> past = EntryPastHi(pager, leaf, leaf.entry_count() - 1, *hi);
      if (!past.ok()) walk = past.status();
      if (!past.ok() || *past) break;
    }
    const uint32_t next = leaf.next();
    if (next == kInvalidPageId) break;
    if (pages.size() > pager.page_count()) {
      walk = Corrupt(next, "leaf chain does not end");
      break;
    }
    pages.emplace_back();
    walk = pager.ReadPageSnapshot(next, &pages.back());
    if (walk.ok()) walk = leaf.Parse(next, pages.back());
    if (walk.ok() && !leaf.leaf()) walk = Corrupt(next, "leaf chain reaches an internal node");
    if (!walk.ok()) break;
    begin = 0;
  }

  // Decode: chunks of the copied entries across the pool, concatenated in
  // member order up to the first error or the first entry past hi.
  std::vector<size_t> starts;  // the read's index of each run's first entry
  starts.reserve(runs.size());
  size_t total = 0;
  for (const LeafRun& run : runs) {
    starts.push_back(total);
    total += run.size();
  }
  DecodedRun first;
  first.members = std::move(*out);
  std::vector<DecodedRun> rest = ParallelCollect(
      total, kSpanGrain, &first, [&](size_t b, size_t e, DecodedRun* dst) {
        dst->status = DecodeRuns(pager, runs, starts, hi, b, e, dst);
      });
  *out = std::move(first.members);
  if (!first.status.ok()) return first.status;
  if (first.past_hi) return Status::OK();
  size_t decoded = out->size();
  for (const DecodedRun& chunk : rest) decoded += chunk.members.size();
  out->reserve(decoded);
  for (DecodedRun& chunk : rest) {
    out->insert(out->end(), std::make_move_iterator(chunk.members.begin()),
                std::make_move_iterator(chunk.members.end()));
    if (!chunk.status.ok()) return chunk.status;
    if (chunk.past_hi) return Status::OK();
  }
  return walk;
}

Status BTree::Validate() const {
  return ValidateBTree(*pager_, info_);
}

Status ValidateBTree(Pager& pager, const BTreeInfo& info) {
  if (info.root == kInvalidPageId || info.root >= pager.page_count()) {
    return Status::Corruption("btree: root page " + std::to_string(info.root) +
                              " out of range");
  }
  if (info.height == 0 || info.height > kMaxHeight) {
    return Status::Corruption("btree: height " + std::to_string(info.height) +
                              " out of range");
  }
  std::unordered_set<uint32_t> visited;
  std::vector<uint32_t> leaves_in_order;
  uint64_t count = 0;

  // Recursive walk carrying the subtree's depth; returns (min, max) decoded
  // memberships through out-params. Declared as a self-capturing lambda so
  // the whole check stays in this function.
  struct Walker {
    Pager& pager;
    const BTreeInfo& info;
    std::unordered_set<uint32_t>& visited;
    std::vector<uint32_t>& leaves_in_order;
    uint64_t& count;

    Status Walk(uint32_t page_id, uint32_t depth, bool is_root, Membership* min,
                Membership* max, bool* empty) {
      if (!visited.insert(page_id).second) {
        return Corrupt(page_id, "page visited twice (cycle or shared child)");
      }
      Node node;
      XST_RETURN_NOT_OK(ReadNode(pager, page_id, &node));
      const bool expect_leaf = depth + 1 == info.height;
      if (node.leaf != expect_leaf) {
        return Corrupt(page_id, node.leaf ? "leaf above the leaf level"
                                          : "internal node at the leaf level");
      }
      if (!is_root) {
        if (node.entry_count() == 0) return Corrupt(page_id, "empty non-root node");
        if (node.used_bytes() < kMinNodeFill) {
          return Corrupt(page_id, "node below the byte fill floor (" +
                                      std::to_string(node.used_bytes()) + " < " +
                                      std::to_string(kMinNodeFill) + ")");
        }
      }
      if (node.used_bytes() > kNodeCapacity) {
        return Corrupt(page_id, "node over page capacity");
      }
      *empty = node.entry_count() == 0;
      if (node.leaf) {
        leaves_in_order.push_back(page_id);
        count += node.members.size();
        Membership prev;
        for (size_t i = 0; i < node.members.size(); ++i) {
          XST_ASSIGN_OR_RAISE(Membership m, DecodeEntry(pager, node.members[i]));
          if (i > 0 && CompareMembership(prev, m) >= 0) {
            return Corrupt(page_id, "leaf entries out of order");
          }
          if (i == 0) *min = m;
          prev = std::move(m);
        }
        if (!node.members.empty()) *max = prev;
        return Status::OK();
      }
      Membership prev_key;
      for (size_t i = 0; i < node.children.size(); ++i) {
        XST_ASSIGN_OR_RAISE(Membership key, DecodeEntry(pager, node.children[i].key));
        if (i > 0 && CompareMembership(prev_key, key) >= 0) {
          return Corrupt(page_id, "internal keys out of order");
        }
        Membership child_min, child_max;
        bool child_empty = false;
        XST_RETURN_NOT_OK(Walk(node.children[i].child, depth + 1, false, &child_min,
                               &child_max, &child_empty));
        if (child_empty) return Corrupt(node.children[i].child, "empty child");
        if (CompareMembership(child_min, key) != 0) {
          return Corrupt(page_id, "key " + std::to_string(i) +
                                      " is not its child's exact minimum");
        }
        if (i > 0 && CompareMembership(prev_key, child_min) >= 0) {
          return Corrupt(page_id, "child subtree overlaps previous key");
        }
        if (i == 0) *min = child_min;
        *max = child_max;
        prev_key = std::move(key);
      }
      return Status::OK();
    }
  };

  Walker walker{pager, info, visited, leaves_in_order, count};
  Membership min, max;
  bool empty = false;
  XST_RETURN_NOT_OK(walker.Walk(info.root, 0, /*is_root=*/true, &min, &max, &empty));

  if (count != info.member_count) {
    return Status::Corruption("btree: member count mismatch: tree has " +
                              std::to_string(count) + ", catalog says " +
                              std::to_string(info.member_count));
  }
  // The leaf chain must thread exactly the in-order leaves and terminate.
  for (size_t i = 0; i < leaves_in_order.size(); ++i) {
    Node leaf;
    XST_RETURN_NOT_OK(ReadNode(pager, leaves_in_order[i], &leaf));
    uint32_t expect =
        i + 1 < leaves_in_order.size() ? leaves_in_order[i + 1] : kInvalidPageId;
    if (leaf.next != expect) {
      return Corrupt(leaves_in_order[i],
                     "leaf chain mismatch: next=" + std::to_string(leaf.next) +
                         ", expected " + std::to_string(expect));
    }
  }
  return Status::OK();
}

}  // namespace xst
