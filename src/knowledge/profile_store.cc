#include "knowledge/profile_store.h"

#include <cstdio>
#include <cstring>

namespace ma::knowledge {

namespace {

// File format v3:
//   u32 magic 'MAKS' | u32 version | u64 payload_size | u64 fnv1a64(payload)
//   payload: u64 profile_count, then per profile:
//     str site | str signature | u64 queries | u64 instances
//     u64 calls | u64 tuples | u64 cycles | u32 flavor_count
//     per flavor: str name | u64 calls | u64 tuples | u64 cycles
//                 u64 timed_tuples
//   str = u32 length + bytes. All integers little-endian.
// v3 is v2 without its trailing strategy-record section. Readers reject
// any other version (all-or-nothing Load), so v1 and v2 files cold-start
// a v3 store cleanly instead of being half-read.
constexpr u32 kMagic = 0x534B414Du;  // 'MAKS'
constexpr u32 kVersion = 3;
constexpr size_t kHeaderSize = 4 + 4 + 8 + 8;

u64 Fnv1a64(std::string_view bytes) {
  u64 h = 1469598103934665603ull;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

void PutU32(std::string* out, u32 v) {
  char buf[4];
  std::memcpy(buf, &v, 4);
  out->append(buf, 4);
}

void PutU64(std::string* out, u64 v) {
  char buf[8];
  std::memcpy(buf, &v, 8);
  out->append(buf, 8);
}

void PutStr(std::string* out, const std::string& s) {
  PutU32(out, static_cast<u32>(s.size()));
  out->append(s);
}

/// Bounds-checked sequential reader over the payload.
class Reader {
 public:
  explicit Reader(std::string_view bytes) : bytes_(bytes) {}

  bool U32(u32* v) {
    if (bytes_.size() - pos_ < 4) return false;
    std::memcpy(v, bytes_.data() + pos_, 4);
    pos_ += 4;
    return true;
  }
  bool U64(u64* v) {
    if (bytes_.size() - pos_ < 8) return false;
    std::memcpy(v, bytes_.data() + pos_, 8);
    pos_ += 8;
    return true;
  }
  bool Str(std::string* s) {
    u32 len = 0;
    if (!U32(&len)) return false;
    if (bytes_.size() - pos_ < len) return false;
    s->assign(bytes_.data() + pos_, len);
    pos_ += len;
    return true;
  }
  bool AtEnd() const { return pos_ == bytes_.size(); }

 private:
  std::string_view bytes_;
  size_t pos_ = 0;
};

}  // namespace

void ProfileStore::Merge(const std::vector<InstanceProfile>& profile) {
  std::lock_guard<std::mutex> lock(mu_);
  bool merged_any = false;
  for (const InstanceProfile& p : profile) {
    if (p.calls == 0) continue;  // never ran (e.g. pruned stage)
    StoredProfile& sp = profiles_[Key(p.label, p.signature)];
    if (sp.site.empty()) {
      sp.site = p.label;
      sp.signature = p.signature;
    }
    sp.queries += 1;
    sp.instances += static_cast<u64>(p.instances);
    sp.calls += p.calls;
    sp.tuples += p.tuples;
    sp.cycles += p.cycles;
    for (const FlavorUsageProfile& f : p.flavors) {
      StoredFlavor* row = nullptr;
      for (StoredFlavor& sf : sp.flavors) {
        if (sf.flavor == f.flavor) {
          row = &sf;
          break;
        }
      }
      if (row == nullptr) {
        sp.flavors.push_back(StoredFlavor{.flavor = f.flavor});
        row = &sp.flavors.back();
      }
      row->calls += f.calls;
      row->tuples += f.tuples;
      row->cycles += f.cycles;
      row->timed_tuples += f.timed_tuples;
    }
    merged_any = true;
  }
  if (merged_any) {
    ++merged_;
    snapshot_.reset();
  }
}

std::shared_ptr<const WarmStartSnapshot> ProfileStore::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  if (snapshot_ == nullptr) {
    auto snap = std::make_shared<WarmStartSnapshot>();
    for (const auto& [key, sp] : profiles_) {
      std::vector<FlavorPrior> priors;
      for (const StoredFlavor& f : sp.flavors) {
        if (f.timed_tuples == 0 || f.cycles == 0) continue;
        priors.push_back(
            {f.flavor, static_cast<f64>(f.cycles) /
                           static_cast<f64>(f.timed_tuples)});
      }
      if (!priors.empty()) {
        snap->Add(sp.site, sp.signature, std::move(priors));
      }
    }
    snapshot_ = std::move(snap);
  }
  return snapshot_;
}

std::vector<StoredProfile> ProfileStore::Dump() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<StoredProfile> out;
  out.reserve(profiles_.size());
  for (const auto& [key, sp] : profiles_) out.push_back(sp);
  return out;
}

void ProfileStore::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  profiles_.clear();
  snapshot_.reset();
}

size_t ProfileStore::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return profiles_.size();
}

u64 ProfileStore::profiles_merged() const {
  std::lock_guard<std::mutex> lock(mu_);
  return merged_;
}

std::string ProfileStore::Serialize() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string payload;
  PutU64(&payload, profiles_.size());
  for (const auto& [key, sp] : profiles_) {
    PutStr(&payload, sp.site);
    PutStr(&payload, sp.signature);
    PutU64(&payload, sp.queries);
    PutU64(&payload, sp.instances);
    PutU64(&payload, sp.calls);
    PutU64(&payload, sp.tuples);
    PutU64(&payload, sp.cycles);
    PutU32(&payload, static_cast<u32>(sp.flavors.size()));
    for (const StoredFlavor& f : sp.flavors) {
      PutStr(&payload, f.flavor);
      PutU64(&payload, f.calls);
      PutU64(&payload, f.tuples);
      PutU64(&payload, f.cycles);
      PutU64(&payload, f.timed_tuples);
    }
  }
  std::string out;
  out.reserve(kHeaderSize + payload.size());
  PutU32(&out, kMagic);
  PutU32(&out, kVersion);
  PutU64(&out, payload.size());
  PutU64(&out, Fnv1a64(payload));
  out.append(payload);
  return out;
}

Status ProfileStore::Deserialize(std::string_view bytes) {
  // All-or-nothing: parse into a temporary map, swap in only on full
  // success; any failure leaves the store empty (cold start).
  std::lock_guard<std::mutex> lock(mu_);
  profiles_.clear();
  snapshot_.reset();
  if (bytes.size() < kHeaderSize) {
    return Status::InvalidArgument("knowledge store: truncated header");
  }
  Reader header(bytes.substr(0, kHeaderSize));
  u32 magic = 0, version = 0;
  u64 payload_size = 0, checksum = 0;
  header.U32(&magic);
  header.U32(&version);
  header.U64(&payload_size);
  header.U64(&checksum);
  if (magic != kMagic) {
    return Status::InvalidArgument("knowledge store: bad magic");
  }
  if (version != kVersion) {
    return Status::InvalidArgument("knowledge store: unsupported version " +
                                   std::to_string(version));
  }
  if (bytes.size() - kHeaderSize != payload_size) {
    return Status::InvalidArgument("knowledge store: size mismatch");
  }
  const std::string_view payload = bytes.substr(kHeaderSize);
  if (Fnv1a64(payload) != checksum) {
    return Status::InvalidArgument("knowledge store: checksum mismatch");
  }

  std::map<Key, StoredProfile> parsed;
  Reader r(payload);
  u64 count = 0;
  if (!r.U64(&count)) {
    return Status::InvalidArgument("knowledge store: truncated payload");
  }
  for (u64 i = 0; i < count; ++i) {
    StoredProfile sp;
    u32 flavor_count = 0;
    if (!r.Str(&sp.site) || !r.Str(&sp.signature) || !r.U64(&sp.queries) ||
        !r.U64(&sp.instances) || !r.U64(&sp.calls) || !r.U64(&sp.tuples) ||
        !r.U64(&sp.cycles) || !r.U32(&flavor_count)) {
      return Status::InvalidArgument("knowledge store: truncated profile");
    }
    for (u32 f = 0; f < flavor_count; ++f) {
      StoredFlavor sf;
      if (!r.Str(&sf.flavor) || !r.U64(&sf.calls) || !r.U64(&sf.tuples) ||
          !r.U64(&sf.cycles) || !r.U64(&sf.timed_tuples)) {
        return Status::InvalidArgument("knowledge store: truncated flavor");
      }
      sp.flavors.push_back(std::move(sf));
    }
    Key key(sp.site, sp.signature);
    if (!parsed.emplace(std::move(key), std::move(sp)).second) {
      return Status::InvalidArgument("knowledge store: duplicate profile");
    }
  }
  if (!r.AtEnd()) {
    return Status::InvalidArgument("knowledge store: trailing bytes");
  }
  profiles_ = std::move(parsed);
  return Status::OK();
}

Status ProfileStore::Save(const std::string& path) const {
  const std::string bytes = Serialize();
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) {
    return Status::Internal("knowledge store: cannot open " + tmp);
  }
  const size_t written = std::fwrite(bytes.data(), 1, bytes.size(), f);
  const bool flushed = std::fclose(f) == 0;
  if (written != bytes.size() || !flushed) {
    std::remove(tmp.c_str());
    return Status::Internal("knowledge store: short write to " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::Internal("knowledge store: cannot rename to " + path);
  }
  return Status::OK();
}

Status ProfileStore::Load(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    Clear();
    return Status::NotFound("knowledge store: no file at " + path);
  }
  std::string bytes;
  char buf[1 << 16];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) bytes.append(buf, n);
  const bool read_ok = std::ferror(f) == 0;
  std::fclose(f);
  if (!read_ok) {
    Clear();
    return Status::Internal("knowledge store: read error on " + path);
  }
  return Deserialize(bytes);
}

}  // namespace ma::knowledge
