#include "core/matching_structure.h"

#include <cstring>
#include <new>

namespace xaos::core {
namespace {

constexpr size_t kTextHeader = 2 * sizeof(uint32_t);

uint32_t TextSize(const char* text, int field) {
  uint32_t size;
  std::memcpy(&size, text + field * sizeof(uint32_t), sizeof(size));
  return size;
}

uint64_t AccountedBytes(const MatchingStructure& m) {
  uint64_t bytes = MatchingStructure::BlockBytes(m.slot_count);
  if (m.text != nullptr) {
    bytes += kTextHeader + TextSize(m.text, 0) + TextSize(m.text, 1);
  }
  return bytes;
}

}  // namespace

std::string ElementInfo::ToString() const {
  std::string out;
  switch (kind) {
    case query::DocNodeKind::kRoot:
      out = "Root";
      break;
    case query::DocNodeKind::kElement:
      out = name;
      break;
    case query::DocNodeKind::kAttribute:
      out = "@";
      out += name;
      break;
    case query::DocNodeKind::kText:
      out = "#text";
      break;
  }
  out += "(" + std::to_string(ordinal) + ")@" + std::to_string(level);
  return out;
}

std::string_view MatchingStructure::name() const {
  if (text != nullptr) {
    return std::string_view(text + kTextHeader, TextSize(text, 0));
  }
  // Only symbols a query interned reach here without text: the spelling is
  // the table's.
  if (node.symbol > util::kUnknownSymbol) {
    return util::SymbolTable::Global().Name(node.symbol);
  }
  return {};
}

std::string_view MatchingStructure::value() const {
  if (text == nullptr) return {};
  return std::string_view(text + kTextHeader + TextSize(text, 0),
                          TextSize(text, 1));
}

ElementInfo MatchingStructure::Info() const {
  ElementInfo info;
  info.id = node.position.id;
  info.parent_id = node.position.parent_id;
  info.ordinal = node.position.ordinal;
  info.level = static_cast<int>(node.position.level);
  info.kind = node.kind;
  info.name.assign(name());
  info.value.assign(value());
  return info;
}

MatchingStructure* StructureStore::Create(query::XNodeId xnode,
                                          const NodeRecord& node,
                                          int slot_count, bool keep_text,
                                          std::string_view name,
                                          std::string_view value) {
  void* block = arena_->Allocate(MatchingStructure::BlockBytes(slot_count));
  auto* m = new (block) MatchingStructure;
  m->strong = 1;
  m->weak = 0;
  m->xnode = xnode;
  m->slot_count = static_cast<uint16_t>(slot_count);
  m->flags = 0;
  m->node = node;
  m->text = nullptr;
  m->prev_open = nullptr;
  m->backrefs = LinkList{};
  for (int i = 0; i < slot_count; ++i) m->slots()[i] = LinkList{};
  std::memset(m->confirmed_counts(), 0,
              static_cast<size_t>(slot_count) * sizeof(uint32_t));
  // The symbol spells an interned name; everything else needs the bytes.
  if (keep_text && (!value.empty() || (node.symbol <= util::kUnknownSymbol &&
                                       !name.empty()))) {
    const auto name_size = static_cast<uint32_t>(name.size());
    const auto value_size = static_cast<uint32_t>(value.size());
    m->text = new char[kTextHeader + name_size + value_size];
    std::memcpy(m->text, &name_size, sizeof(name_size));
    std::memcpy(m->text + sizeof(uint32_t), &value_size, sizeof(value_size));
    std::memcpy(m->text + kTextHeader, name.data(), name_size);
    std::memcpy(m->text + kTextHeader + name_size, value.data(), value_size);
  }
  stats_->OnStructureCreated(AccountedBytes(*m));
  return m;
}

void StructureStore::Link(MatchingStructure* parent, int i,
                          MatchingStructure* child, bool optimistic) {
  auto* link = static_cast<StructureLink*>(
      arena_->Allocate(sizeof(StructureLink)));
  *link = StructureLink{parent,  child, nullptr, nullptr,
                        static_cast<uint32_t>(i), optimistic, true, true};
  AppendBackref(child, link);
  RetainWeak(parent);
  // A child confirmed before this link counts immediately; children
  // confirmed later bump the counter through the engine's cascade (which
  // walks the back references existing at confirmation time).
  if (child->confirmed()) parent->bump_confirmed(i);
  LinkList& slot = parent->slot(i);
  if (slot.tail == nullptr) {
    slot.head = link;
  } else {
    slot.tail->next_in_slot = link;
  }
  slot.tail = link;
  Retain(child);
}

void StructureStore::AppendBackref(MatchingStructure* m,
                                   StructureLink* link) {
  link->next_backref = nullptr;
  if (m->backrefs.tail == nullptr) {
    m->backrefs.head = link;
  } else {
    m->backrefs.tail->next_backref = link;
  }
  m->backrefs.tail = link;
}

void StructureStore::DropSlotEntry(LinkList* list, StructureLink* prev,
                                   StructureLink* link) {
  StructureLink* next = link->next_in_slot;
  if (prev == nullptr) {
    list->head = next;
  } else {
    prev->next_in_slot = next;
  }
  if (list->tail == link) list->tail = prev;
  link->in_slot = false;
  MatchingStructure* child = link->child;
  // Off the back-reference list the link holds no weak reference either.
  if (!link->in_backrefs) FreeLink(link);
  Release(child);
}

void StructureStore::RemoveFromSlot(MatchingStructure* parent, int i,
                                    const MatchingStructure* child) {
  LinkList& list = parent->slot(i);
  StructureLink* prev = nullptr;
  for (StructureLink* link = list.head; link != nullptr;
       prev = link, link = link->next_in_slot) {
    if (link->child == child) {
      DropSlotEntry(&list, prev, link);
      return;
    }
  }
}

void StructureStore::ClearSlots(MatchingStructure* m) {
  for (int i = 0; i < m->slot_count; ++i) {
    LinkList& list = m->slot(i);
    while (list.head != nullptr) DropSlotEntry(&list, nullptr, list.head);
  }
}

void StructureStore::Expire(MatchingStructure* m) {
  stats_->OnStructureDestroyed(AccountedBytes(*m));
  // Every remaining back reference is off its parent's slot (a slot entry
  // would hold a strong reference), so each one goes entirely.
  LinkList refs = TakeBackrefs(m);
  for (StructureLink* link = refs.head; link != nullptr;) {
    StructureLink* next = link->next_backref;
    DropBackref(link);
    link = next;
  }
  // Releasing the entries can expire children in turn; hold a weak
  // reference so `m` stays readable while its slots drain.
  RetainWeak(m);
  ClearSlots(m);
  delete[] m->text;
  m->text = nullptr;
  ReleaseWeak(m);
}

void StructureStore::FreeBlock(MatchingStructure* m) {
  arena_->Deallocate(m, MatchingStructure::BlockBytes(m->slot_count));
}

}  // namespace xaos::core
